//! The correctness oracle: known answers checked by simulation, never by the
//! verifier under test.

use gbmv_core::{Counterexample, Outcome};
use gbmv_netlist::{sim, Netlist};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::workload::Instance;

/// Random 64-pattern words simulated per instance by [`check_setup`].
const SETUP_ROUNDS: usize = 4;

/// How one verification ended, judged against the known answer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Class {
    /// A correct definitive verdict: `Verified` on a correct circuit, or
    /// `Mismatch` on a mutant with a counterexample that reproduces.
    Decided,
    /// No definitive verdict within the budget (or a mismatch without a
    /// counterexample): not wrong, but not decided.
    Undecided,
    /// A verdict contradicting the known answer.
    Wrong,
    /// An error or a panic.
    Failed,
}

/// `a·b mod 2^(2n)` for the operand bits of an `n`-bit multiplier input
/// vector (`a` first, least significant bit first).
fn product(bits: &[bool], width: usize) -> u128 {
    let word = |bits: &[bool]| {
        bits.iter()
            .enumerate()
            .fold(0u128, |w, (i, &b)| w | (u128::from(b) << i))
    };
    let a = word(&bits[..width]);
    let b = word(&bits[width..]);
    a.wrapping_mul(b) & mask(2 * width)
}

fn mask(bits: usize) -> u128 {
    if bits >= 128 {
        u128::MAX
    } else {
        (1u128 << bits) - 1
    }
}

/// Judges a verdict against the instance's known answer.
pub fn judge(instance: &Instance, outcome: &Outcome) -> (Class, String) {
    match (outcome, instance.buggy) {
        (Outcome::Verified, false) => (Class::Decided, String::new()),
        (Outcome::Verified, true) => (Class::Wrong, "mutant verified".into()),
        (Outcome::Mismatch { .. }, false) => (Class::Wrong, "correct circuit rejected".into()),
        (Outcome::Mismatch { counterexample, .. }, true) => match counterexample {
            None => (Class::Undecided, "mismatch without counterexample".into()),
            Some(cex) => match reproduce(&instance.netlist, instance.width, cex) {
                Ok(()) => (Class::Decided, String::new()),
                Err(why) => (Class::Wrong, why),
            },
        },
        (Outcome::ResourceLimit { phase }, _) => {
            (Class::Undecided, format!("budget stop in {phase}"))
        }
        (Outcome::Cancelled, _) => (Class::Undecided, "cancelled".into()),
    }
}

/// Re-simulates a counterexample: the circuit's output word on its inputs
/// must differ from `a·b mod 2^(2n)` and equal the word the report claims.
fn reproduce(netlist: &Netlist, width: usize, cex: &Counterexample) -> Result<(), String> {
    let bits: Vec<bool> = cex.inputs.iter().map(|b| b.value).collect();
    if bits.len() != 2 * width {
        return Err(format!("counterexample has {} input bits", bits.len()));
    }
    let out = sim::evaluate(netlist, &bits);
    let circuit = out
        .iter()
        .enumerate()
        .fold(0u128, |w, (i, &b)| w | (u128::from(b) << i));
    if circuit == product(&bits, width) {
        return Err("counterexample does not reproduce".into());
    }
    if cex.circuit_word != Some(circuit) {
        return Err(format!(
            "reported circuit word {:?} differs from simulation {circuit}",
            cex.circuit_word
        ));
    }
    Ok(())
}

/// Checks the set-up: every parsed netlist simulates equal to the generated
/// one, and every correct circuit computes `a·b mod 2^(2n)`, on random
/// patterns. Returns one message per failed instance.
pub fn check_setup(instances: &[Instance], seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut errors = Vec::new();
    for inst in instances {
        for _ in 0..SETUP_ROUNDS {
            let words: Vec<u64> = (0..inst.generated.inputs().len())
                .map(|_| rng.gen())
                .collect();
            let generated = sim::simulate_packed(&inst.generated, &words);
            if sim::simulate_packed(&inst.netlist, &words) != generated {
                errors.push(format!(
                    "{}: parsed netlist differs from generated",
                    inst.label
                ));
                break;
            }
            if !inst.buggy && (0..64).any(|k| !computes_product(&words, &generated, k, inst.width))
            {
                errors.push(format!(
                    "{}: generated circuit is not a multiplier",
                    inst.label
                ));
                break;
            }
        }
    }
    errors
}

/// Whether pattern `k` of a packed simulation maps the inputs to their
/// product.
fn computes_product(inputs: &[u64], outputs: &[u64], k: usize, width: usize) -> bool {
    let bits: Vec<bool> = inputs.iter().map(|w| (w >> k) & 1 == 1).collect();
    let word = outputs
        .iter()
        .enumerate()
        .fold(0u128, |w, (i, o)| w | (u128::from((o >> k) & 1) << i));
    word == product(&bits, width)
}
