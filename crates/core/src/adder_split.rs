//! The final-stage-adder split of the indexed presets.
//!
//! A multiplier's final-stage (carry-propagate) adder sums the two rows the
//! partial-product accumulator leaves. Parallel-prefix adders (Kogge–Stone,
//! Han–Carlson) are what makes Step 3 blow up: their group-propagate chains
//! produce the vanishing-monomial structures of the paper's Example 3, and
//! reducing the multiplier spec through them takes hundreds of thousands of
//! terms at width 7 and runs out of budget at width 16. The split, after
//! Kaufmann, Biere & Kauers ("Verifying Large Multipliers by Combining SAT
//! and Computer Algebra", FMCAD 2019) but proving the adder algebraically
//! instead of with SAT, takes the adder out of the multiplier's reduction:
//!
//! 1. **Detect** the adder from the gate functions alone
//!    ([`FinalStageAdder::detect`]): every output is `s_i = p_i ⊕ c_i` with
//!    `p_i = a_i ⊕ b_i` (bit 0: `s_0 = p_0`), and the *region* — the fan-in
//!    of the outputs, cut at the operand nets `{a_i, b_i}` — reaches no
//!    primary input.
//! 2. **Check the slice.** Over the model of the region alone
//!    ([`AlgebraicModel`] slice with the operand nets as free inputs), the
//!    run's own rewrite and reduction strategies reduce the adder's word
//!    identity `W = Σ 2^i s_i − Σ 2^i (a_i + b_i)` modulo `2^m`, `m` the
//!    number of outputs, under the run's budget and token.
//! 3. **Split.** When `W` reduces to zero, Steps 2–3 run unchanged on
//!    `spec′ = spec + W`: the operand words replace the output word, and the
//!    gates `spec′` never reaches — the region, an unused carry-out — leave
//!    the run's model.
//!
//! The split is tried only when the zero test is mod `2^m` and the spec's
//! output part is exactly `−Σ 2^i s_i` (the unsigned and signed multiplier
//! specs). Otherwise — or when no adder is found, `W` does not reduce to
//! zero, or the check runs out of budget — the run keeps its spec.
//!
//! **Why verdicts do not change.** Every substitution of the slice check
//! uses a region gate polynomial, and every monomial the closure index
//! cancels is zero on all consistent assignments of the circuit, so a zero
//! remainder puts `W` in the circuit's ideal plus `2^m`. `spec` and `spec′`
//! therefore have the same normal form over the primary inputs mod `2^m`:
//! canonical remainders, verdicts and counterexamples are bit-identical.

use std::time::{Duration, Instant};

use gbmv_netlist::GateKind;
use gbmv_poly::{Int, Monomial, Polynomial, Var};

use crate::model::AlgebraicModel;
use crate::rewrite::TailModuli;
use crate::strategy::{PhaseContext, ReductionStrategy, RewriteStrategy};

/// What a run's final-stage-adder split did, reported in
/// [`crate::RunStats::adder_split`]. All zero when the run's preset does not
/// split or its spec does not qualify.
#[derive(Debug, Clone, Default)]
pub struct AdderSplitStats {
    /// Gates in the detected adder region (0 when no adder was found).
    pub region_gates: usize,
    /// Distinct operand nets at the region's cut.
    pub boundary_width: usize,
    /// Detection plus slice check, wall-clock.
    pub check_time: Duration,
    /// Peak terms of the slice check's rewriting and reduction.
    pub check_peak_terms: usize,
    /// Whether Steps 2–3 ran on the split spec.
    pub applied: bool,
}

/// A final-stage adder found in a model's gate functions (see the module
/// docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FinalStageAdder {
    operands: Vec<(Var, Var)>,
    region: Vec<Var>,
    boundary: Vec<Var>,
    outputs: Vec<Var>,
}

/// The two inputs of `v`'s gate if it is a two-input XOR.
fn xor_inputs(model: &AlgebraicModel, v: Var) -> Option<(Var, Var)> {
    let gf = model.gate_function(v)?;
    match (gf.kind, gf.inputs.as_slice()) {
        (GateKind::Xor, &[x, y]) => Some((x, y)),
        _ => None,
    }
}

impl FinalStageAdder {
    /// Finds the final-stage adder of `model`, using only its gate
    /// functions: every output `s_i` must be `p_i ⊕ c_i` with
    /// `p_i = a_i ⊕ b_i` (`s_0 = p_0`), and the fan-in of the outputs, cut at
    /// the operand nets, must reach no primary input. When both inputs of an
    /// output XOR are XORs, the shallower one is `p_i`.
    pub fn detect(model: &AlgebraicModel) -> Option<FinalStageAdder> {
        let outputs = model.outputs().to_vec();
        if outputs.is_empty() {
            return None;
        }
        let mut operands = Vec::with_capacity(outputs.len());
        for (i, &s) in outputs.iter().enumerate() {
            let p = if i == 0 {
                s
            } else {
                let (x, y) = xor_inputs(model, s)?;
                match (xor_inputs(model, x), xor_inputs(model, y)) {
                    (Some(_), None) => x,
                    (None, Some(_)) => y,
                    (Some(_), Some(_)) => {
                        if (model.level(y), y) < (model.level(x), x) {
                            y
                        } else {
                            x
                        }
                    }
                    (None, None) => return None,
                }
            };
            operands.push(xor_inputs(model, p)?);
        }
        let mut on_cut = vec![false; model.var_count()];
        let mut boundary = Vec::new();
        for &(a, b) in &operands {
            for v in [a, b] {
                if !on_cut[v.index()] {
                    on_cut[v.index()] = true;
                    boundary.push(v);
                }
            }
        }
        if outputs.iter().any(|s| on_cut[s.index()]) {
            return None;
        }
        let mut in_region = vec![false; model.var_count()];
        let mut region = Vec::new();
        let mut stack = outputs.clone();
        while let Some(v) = stack.pop() {
            if in_region[v.index()] || on_cut[v.index()] {
                continue;
            }
            // A primary input (or an undriven net) behind the cut: the
            // outputs do not depend on the operand words alone.
            let gf = model.gate_function(v)?;
            in_region[v.index()] = true;
            region.push(v);
            stack.extend(gf.inputs.iter().copied());
        }
        region.sort_unstable();
        Some(FinalStageAdder {
            operands,
            region,
            boundary,
            outputs,
        })
    }

    /// The operand pair `(a_i, b_i)` of every output bit, in output order
    /// (each pair ascending by variable index).
    pub fn operands(&self) -> &[(Var, Var)] {
        &self.operands
    }

    /// The gates of the region, ascending by variable index.
    pub fn region(&self) -> &[Var] {
        &self.region
    }

    /// The adder's word identity `W = Σ 2^i s_i − Σ 2^i (a_i + b_i)`.
    fn word_identity(&self) -> Polynomial {
        let mut w = Polynomial::with_capacity(3 * self.outputs.len());
        for (i, (&s, &(a, b))) in self.outputs.iter().zip(&self.operands).enumerate() {
            let c = Int::pow2(i as u32);
            w.add_term(Monomial::var(s), c.clone());
            w.add_term(Monomial::var(a), -c.clone());
            w.add_term(Monomial::var(b), -c);
        }
        w
    }

    /// Reduces [`FinalStageAdder::word_identity`] mod `2^m` over the model
    /// of the region alone, with the run's strategies, budget and token.
    /// `true` when the remainder is zero. The check's peak term count goes
    /// to `peak_terms`.
    fn slice_check(
        &self,
        base: &AlgebraicModel,
        w: &Polynomial,
        rewrite: &dyn RewriteStrategy,
        reduction: &dyn ReductionStrategy,
        ctx: &PhaseContext,
        peak_terms: &mut usize,
    ) -> bool {
        let m = Some(self.outputs.len() as u32);
        let mut slice = base.slice(&self.region, self.boundary.clone(), self.outputs.clone());
        let slice_ctx = PhaseContext {
            budget: ctx.budget,
            token: ctx.token.clone(),
            rules: ctx.rules,
            modulus_bits: m,
            sink_moduli: TailModuli::spec_weighted(&slice, w, m).sinks,
            closure: ctx.closure.clone(),
        };
        let rewritten = rewrite.rewrite(&mut slice, &slice_ctx);
        *peak_terms = rewritten.peak_terms;
        if rewritten.limit_exceeded {
            return false;
        }
        let (remainder, outcome, reduced) = reduction.reduce(&slice, w, m, &slice_ctx);
        *peak_terms = (*peak_terms).max(reduced.peak_terms);
        if !outcome.is_completed() {
            return false;
        }
        remainder
            .mod_coeffs_pow2(self.outputs.len() as u32)
            .is_zero()
    }
}

/// Whether `spec`'s output part is exactly `−Σ 2^i s_i` over the model's
/// outputs: every monomial holding an output is one output `s_i`, with
/// coefficient `−2^i`, and every output has one.
fn output_part_is_word(model: &AlgebraicModel, spec: &Polynomial) -> bool {
    let outputs = model.outputs();
    let mut seen = 0;
    for (m, c) in spec.iter() {
        if !m.vars().any(|v| model.is_output(v)) {
            continue;
        }
        let mut vars = m.vars();
        let (Some(v), None) = (vars.next(), vars.next()) else {
            return false;
        };
        match outputs.iter().position(|&o| o == v) {
            Some(i) if *c == -Int::pow2(i as u32) => seen += 1,
            _ => return false,
        }
    }
    seen == outputs.len()
}

/// The split spec of a run, as handed back to the pipeline.
pub(crate) struct AdderSplit {
    /// `spec′ = spec + W`.
    pub spec: Polynomial,
    /// Gates outside the fan-in of `spec′`'s variables — the adder's region
    /// and logic nothing else reads, such as an unused carry-out: the run's
    /// model drops their polynomials, which reduction would never use, so
    /// the operand nets become the split spec's sinks.
    pub unreachable: Vec<Var>,
}

/// Tries the final-stage-adder split of a run (see the module docs),
/// recording what it did in `stats`. `None` keeps the run's spec.
pub(crate) fn split_final_adder(
    base: &AlgebraicModel,
    spec: &Polynomial,
    modulus_bits: Option<u32>,
    rewrite: &dyn RewriteStrategy,
    reduction: &dyn ReductionStrategy,
    ctx: &PhaseContext,
    stats: &mut AdderSplitStats,
) -> Option<AdderSplit> {
    if modulus_bits != Some(base.outputs().len() as u32) || !output_part_is_word(base, spec) {
        return None;
    }
    let start = Instant::now();
    let split = FinalStageAdder::detect(base).and_then(|adder| {
        stats.region_gates = adder.region.len();
        stats.boundary_width = adder.boundary.len();
        let w = adder.word_identity();
        if !adder.slice_check(
            base,
            &w,
            rewrite,
            reduction,
            ctx,
            &mut stats.check_peak_terms,
        ) {
            return None;
        }
        let spec = spec + &w;
        let mut needed = vec![false; base.var_count()];
        let mut stack: Vec<Var> = spec.vars().into_iter().collect();
        while let Some(v) = stack.pop() {
            if std::mem::replace(&mut needed[v.index()], true) {
                continue;
            }
            if let Some(gf) = base.gate_function(v) {
                stack.extend(gf.inputs.iter().copied());
            }
        }
        let unreachable = base
            .polynomial_order()
            .into_iter()
            .filter(|v| !needed[v.index()])
            .collect();
        Some(AdderSplit { spec, unreachable })
    });
    stats.check_time = start.elapsed();
    stats.applied = split.is_some();
    split
}
