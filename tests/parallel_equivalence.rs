//! Differential property tests of the indexed reduction engine: for every
//! genmul architecture at widths 4–6 and for fault-injected variants, the
//! `Outcome` (verdict and counterexample operand words) of the incremental
//! indexed engine, single-threaded (`MT-LR-IDX`) and with sharded steps
//! (`MT-LR-PAR`, for threads ∈ {1, 2, 8}), must be identical to the
//! scan-based reference MT-LR. `MT-LR-PAR` must also report the same
//! reduction counters and final-stage-adder split as `MT-LR-IDX`.
//!
//! The comparison is exact: `run_pipeline` canonicalizes remainders modulo
//! `2^(2n)`, and the fully reduced remainder is the unique multilinear normal
//! form of the specification over the primary inputs, so all engines ground
//! the *same* counterexample bit for bit — regardless of substitution order
//! or term-storage layout.

use std::time::Duration;

use gbmv::genmul::{Accumulator, FinalAdder, MultiplierSpec, PartialProduct};
use gbmv::netlist::fault::distinguishable_mutant;
use gbmv::netlist::Netlist;
use gbmv::{Budget, DeadlineToken, Method, Outcome, Report, Session, Spec};
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREAD_SWEEP: [usize; 3] = [1, 2, 8];

fn all_architectures() -> Vec<String> {
    let mut archs = Vec::new();
    for pp in PartialProduct::all() {
        for acc in Accumulator::all() {
            for fsa in FinalAdder::all() {
                archs.push(format!("{}-{}-{}", pp.abbrev(), acc.abbrev(), fsa.abbrev()));
            }
        }
    }
    archs
}

fn run(netlist: &Netlist, width: usize, method: Method, budget: Budget) -> Report {
    Session::extract(netlist)
        .expect("acyclic")
        .spec(Spec::multiplier(width))
        .strategy(method)
        .budget(budget)
        .run()
        .expect("interface")
}

/// Asserts that a candidate engine's outcome reproduces the reference
/// exactly: same verdict, same canonical remainder term count, and a
/// bit-identical grounded counterexample.
fn assert_outcome_matches(netlist: &Netlist, reference: &Report, candidate: &Report, label: &str) {
    match (&reference.outcome, &candidate.outcome) {
        (Outcome::Verified, Outcome::Verified) => {}
        (
            Outcome::Mismatch {
                remainder_terms: a,
                counterexample: ca,
            },
            Outcome::Mismatch {
                remainder_terms: b,
                counterexample: cb,
            },
        ) => {
            assert_eq!(
                a,
                b,
                "{}: canonical remainders must agree ({label})",
                netlist.name()
            );
            assert_eq!(
                ca,
                cb,
                "{}: counterexamples must be bit-identical ({label})",
                netlist.name()
            );
        }
        // A deterministic term-limit stop: the indexed engines may prune
        // more aggressively (vanishing checks fire before terms are ever
        // materialized) or substitute in a cheaper order, so they are
        // allowed to finish where MT-LR hit the budget — but they must
        // never contradict a definitive verdict.
        (Outcome::ResourceLimit { .. }, got) => {
            assert!(
                matches!(got, Outcome::ResourceLimit { .. } | Outcome::Verified),
                "{}: {label} contradicts the resource-limited run: {got:?}",
                netlist.name()
            );
        }
        (expected, got) => panic!(
            "{}: outcomes diverge ({label}): MT-LR {expected:?}, got {got:?}",
            netlist.name()
        ),
    }
}

/// The deterministic work counters of a run: the reduction's
/// `(substitutions, peak_terms, final_terms, cancelled_vanishing,
/// index_hits, columns_retired)` and the adder split's `(region_gates,
/// boundary_width, check_peak_terms, applied)` — everything but wall time.
type Counters = (
    (usize, usize, usize, u64, u64, usize),
    (usize, usize, usize, bool),
);

fn counters(report: &Report) -> Counters {
    let r = &report.stats.reduction;
    let s = &report.stats.adder_split;
    (
        (
            r.substitutions,
            r.peak_terms,
            r.final_terms,
            r.cancelled_vanishing,
            r.index_hits,
            r.columns_retired,
        ),
        (
            s.region_gates,
            s.boundary_width,
            s.check_peak_terms,
            s.applied,
        ),
    )
}

/// Asserts that the indexed engine, single-threaded (`MT-LR-IDX`) and
/// sharded (`MT-LR-PAR` at every thread count in the sweep), reproduces the
/// reference outcome exactly, and that every `MT-LR-PAR` run reports
/// `MT-LR-IDX`'s counters.
fn assert_parallel_matches(netlist: &Netlist, width: usize, reference: &Report, budget: Budget) {
    let idx = run(netlist, width, Method::MtLrIdx, budget);
    assert_outcome_matches(netlist, reference, &idx, "MT-LR-IDX");
    for threads in THREAD_SWEEP {
        let par = run(
            netlist,
            width,
            Method::MtLrPar,
            budget.with_threads(threads),
        );
        let label = format!("MT-LR-PAR, {threads} threads");
        assert_outcome_matches(netlist, reference, &par, &label);
        assert_eq!(
            counters(&par),
            counters(&idx),
            "{}: {label} counters must equal MT-LR-IDX's",
            netlist.name()
        );
    }
}

/// Every genmul architecture at width 4: identical verdicts across the
/// thread sweep.
#[test]
fn every_architecture_width_4_matches_mt_lr() {
    let budget = Budget::default();
    for arch in all_architectures() {
        let netlist = MultiplierSpec::parse(&arch, 4)
            .expect("architecture")
            .build();
        let reference = run(&netlist, 4, Method::MtLr, budget);
        assert!(
            reference.outcome.is_verified(),
            "{arch}: MT-LR must verify at width 4, got {:?}",
            reference.outcome
        );
        assert_parallel_matches(&netlist, 4, &reference, budget);
    }
}

/// The paper's ten Table I/II architectures at widths 5 and 6, under a
/// deterministic term budget (no wall clock, so a blow-up surfaces as the
/// same `ResourceLimit` on every machine).
#[test]
fn paper_architectures_widths_5_6_match_mt_lr() {
    let budget = Budget {
        max_terms: 2_000_000,
        deadline: None,
        threads: 0,
    };
    let archs = [
        "SP-AR-RC", "SP-WT-CL", "SP-RT-KS", "SP-CT-BK", "SP-DT-HC", "BP-AR-RC", "BP-WT-CL",
        "BP-RT-KS", "BP-CT-BK", "BP-DT-HC",
    ];
    for width in [5usize, 6] {
        for arch in archs {
            let netlist = MultiplierSpec::parse(arch, width)
                .expect("architecture")
                .build();
            let reference = run(&netlist, width, Method::MtLr, budget);
            assert_parallel_matches(&netlist, width, &reference, budget);
        }
    }
}

/// Fault-injected variants: the mismatch verdict and the grounded
/// counterexample (operand words, circuit word, expected word) are identical
/// between MT-LR and the indexed engine at every thread count.
#[test]
fn fault_injected_variants_produce_identical_counterexamples() {
    let width = 4;
    let budget = Budget::default();
    for (arch, seed) in [
        ("SP-WT-CL", 3u64),
        ("BP-CT-BK", 17),
        ("SP-DT-HC", 29),
        ("SP-RT-KS", 41),
    ] {
        let golden = MultiplierSpec::parse(arch, width)
            .expect("architecture")
            .build();
        let mut rng = StdRng::seed_from_u64(seed);
        let (_fault, mutant) = distinguishable_mutant(&golden, 200, &mut rng).expect("mutant");
        let reference = run(&mutant, width, Method::MtLr, budget);
        let Outcome::Mismatch { counterexample, .. } = &reference.outcome else {
            panic!(
                "{arch}: mutant must be rejected, got {:?}",
                reference.outcome
            );
        };
        let cex = counterexample.as_ref().expect("counterexample");
        assert!(cex.operand("a").is_some() && cex.operand("b").is_some());
        assert_parallel_matches(&mutant, width, &reference, budget);
    }
}

/// A mid-reduction cancel through the shared `DeadlineToken` yields
/// `Outcome::Cancelled` — not `ResourceLimit` — and the engine joins all its
/// workers (sharded steps run on scoped threads, so it cannot return
/// otherwise).
#[test]
fn mid_reduction_cancel_returns_cancelled_and_joins_workers() {
    // SP-DT-HC at width 8 against the exact (not mod 2^16) product reduces
    // for tens of seconds, so a cancel shortly after the start lands
    // mid-reduction with certainty. The exact zero test keeps the
    // final-stage-adder split off (mod 2^16 the split verifies it in
    // milliseconds), so the reduction runs through the Han-Carlson adder.
    let netlist = MultiplierSpec::parse("SP-DT-HC", 8)
        .expect("architecture")
        .build();
    let token = DeadlineToken::new();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(300));
            token.cancel();
        })
    };
    let report = Session::extract(&netlist)
        .expect("acyclic")
        .spec(Spec::multiplier(8).with_modulus_bits(None))
        .strategy(Method::MtLrPar)
        .budget(Budget::default().with_threads(4))
        .cancel_token(token)
        .run()
        .expect("interface");
    canceller.join().expect("canceller thread");
    assert_eq!(
        report.outcome,
        Outcome::Cancelled,
        "a token cancel must surface as Cancelled, not ResourceLimit"
    );
    // The run reacted to the cancel instead of completing the ~half-minute
    // reduction (generous bound: cancellation is polled every few thousand
    // products, orders of magnitude below this).
    assert!(
        report.stats.total_time < Duration::from_secs(20),
        "cancellation took {:?}",
        report.stats.total_time
    );
}

/// A cyclic netlist still surfaces `ExtractError` on the parallel path:
/// extraction fails before any reduction runs, exactly as for the
/// single-threaded strategies.
#[test]
fn cyclic_netlist_surfaces_extract_error_on_parallel_path() {
    use gbmv::netlist::GateKind;
    let mut nl = Netlist::new("cyc");
    let a = nl.add_input("a");
    let x = nl.add_net("x");
    let y = nl.add_net("y");
    nl.add_gate_driving(GateKind::And, x, &[a, y]).unwrap();
    nl.add_gate_driving(GateKind::Or, y, &[a, x]).unwrap();
    nl.add_output("y", y);
    let gbmv::core::ExtractError::CombinationalCycle { nets } = Session::extract(&nl).unwrap_err();
    assert!(nets.contains(&"x".to_string()) && nets.contains(&"y".to_string()));
}

/// A custom specification over two side-by-side units with disjoint output
/// cones verifies on `MT-LR-PAR` at every thread count.
#[test]
fn custom_spec_on_independent_units_verifies_at_every_thread_count() {
    use gbmv::poly::{Int, Monomial, Polynomial, Var};
    // Two independent blocks: x = a ^ b (tail a + b - 2ab), y = c & d.
    let mut nl = Netlist::new("two_units");
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let c = nl.add_input("c");
    let d = nl.add_input("d");
    let x = nl.xor2(a, b, "x");
    let y = nl.and2(c, d, "y");
    nl.add_output("x", x);
    nl.add_output("y", y);
    let (a, b, c, d, x, y) = (Var(a.0), Var(b.0), Var(c.0), Var(d.0), Var(x.0), Var(y.0));
    let spec = Polynomial::from_terms(vec![
        (Monomial::var(x), Int::from(-1)),
        (Monomial::var(a), Int::one()),
        (Monomial::var(b), Int::one()),
        (Monomial::from_vars(vec![a, b]), Int::from(-2)),
        (Monomial::var(y), Int::from(-1)),
        (Monomial::from_vars(vec![c, d]), Int::one()),
    ]);
    for threads in THREAD_SWEEP {
        let report = Session::extract(&nl)
            .expect("acyclic")
            .spec(Spec::polynomial("two-units", spec.clone()))
            .strategy(Method::MtLrPar)
            .budget(Budget::default().with_threads(threads))
            .run()
            .expect("interface");
        assert!(
            report.outcome.is_verified(),
            "{threads} threads: {:?}",
            report.outcome
        );
    }
}
