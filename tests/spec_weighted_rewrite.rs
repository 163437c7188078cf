//! Spec-weighted tail moduli of the indexed Step 2.
//!
//! The indexed rewriter keeps the tail of every *sink output* — a primary
//! output no model tail reads — canonical mod `2^(k − e)` instead of `2^k`,
//! where `e` is the smallest 2-adic valuation of the specification's
//! coefficients on monomials containing that output. These tests pin:
//!
//! * the tail identity behind the soundness argument: each sink output's
//!   weighted tail is the full-modulus tail reduced mod `2^(k − e)`, in both
//!   vanishing modes, across all 50 genmul architectures at width 4 and the
//!   paper's ten architectures at widths 5–6;
//! * the sink condition: an output that a gate reads keeps `2^k`, and its
//!   verdict and counterexample match the scan-based MT-LR;
//! * specifications other than the unsigned multiplier — signed, scaled,
//!   odd (`e = 0`) and products of outputs — keep MT-LR's verdicts.

use gbmv::core::rewrite::{indexed_logic_reduction_rewriting_with, RewriteConfig};
use gbmv::core::{AlgebraicModel, ClosureVanishing, TailModuli, VanishingRules};
use gbmv::genmul::{Accumulator, FinalAdder, MultiplierSpec, PartialProduct};
use gbmv::netlist::fault::{Fault, FaultKind};
use gbmv::netlist::Netlist;
use gbmv::poly::{Int, Monomial, Polynomial, Var};
use gbmv::{Budget, Method, Outcome, Report, Session, Spec};

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

fn sorted_terms(p: &Polynomial) -> Vec<(Monomial, Int)> {
    let mut terms: Vec<(Monomial, Int)> = p.iter().map(|(m, c)| (m.clone(), c.clone())).collect();
    terms.sort_by(|a, b| a.0.cmp(&b.0));
    terms
}

/// Rewrites the model once with uniform `2^k` tails and once with the
/// spec-weighted moduli, in tracker and in closure mode, and compares every
/// sink output's tail mod `2^(k − e)`.
fn assert_weighted_tails_match(netlist: &Netlist, width: usize) {
    let base = AlgebraicModel::from_netlist(netlist).expect("acyclic");
    let (spec, k) = Spec::multiplier(width)
        .instantiate(&base)
        .expect("interface");
    let weighted = TailModuli::spec_weighted(&base, &spec, k);
    // Output j carries 2^j: every output but the lowest is a narrowed sink.
    assert_eq!(weighted.sinks.len(), 2 * width - 1, "{}", netlist.name());
    for (j, &out) in base.outputs().iter().enumerate() {
        assert_eq!(weighted.bits(out), Some(2 * width as u32 - j as u32));
    }
    for closure in [false, true] {
        let rules = VanishingRules {
            closure,
            ..VanishingRules::default()
        };
        let config = RewriteConfig {
            rules,
            ..RewriteConfig::default()
        };
        let index = closure.then(|| ClosureVanishing::new(&base, rules));
        let mut full = base.clone();
        let full_stats = indexed_logic_reduction_rewriting_with(
            &mut full,
            &config,
            &TailModuli::uniform(k),
            index.as_ref(),
        );
        let mut narrow = base.clone();
        let narrow_stats =
            indexed_logic_reduction_rewriting_with(&mut narrow, &config, &weighted, index.as_ref());
        assert!(!full_stats.limit_exceeded && !narrow_stats.limit_exceeded);
        for (&v, &bits) in &weighted.sinks {
            let want = full.tail(v).expect("output tail").mod_coeffs_pow2(bits);
            let got = narrow.tail(v).expect("output tail").mod_coeffs_pow2(bits);
            assert_eq!(
                sorted_terms(&want),
                sorted_terms(&got),
                "{} width {width} (closure: {closure}): weighted tail of {} is not the \
                 full tail mod 2^{bits}",
                netlist.name(),
                base.name(v)
            );
        }
    }
}

#[test]
fn every_architecture_width_4_weighted_tails_match() {
    for arch in all_architectures() {
        let netlist = MultiplierSpec::parse(&arch, 4)
            .expect("architecture")
            .build();
        assert_weighted_tails_match(&netlist, 4);
    }
}

#[test]
fn paper_architectures_widths_5_6_weighted_tails_match() {
    let archs = [
        "SP-AR-RC", "SP-WT-CL", "SP-RT-KS", "SP-CT-BK", "SP-DT-HC", "BP-AR-RC", "BP-WT-CL",
        "BP-RT-KS", "BP-CT-BK", "BP-DT-HC",
    ];
    for width in [5usize, 6] {
        for arch in archs {
            let netlist = MultiplierSpec::parse(arch, width)
                .expect("architecture")
                .build();
            assert_weighted_tails_match(&netlist, width);
        }
    }
}

fn run(netlist: &Netlist, spec: Spec, method: Method) -> Report {
    Session::extract(netlist)
        .expect("acyclic")
        .spec(spec)
        .strategy(method)
        .budget(Budget::default().with_threads(1))
        .run()
        .expect("interface")
}

/// The indexed presets reproduce MT-LR's verdict, canonical remainder size
/// and grounded counterexample.
fn assert_presets_match_mt_lr(netlist: &Netlist, spec: &Spec) -> Outcome {
    let reference = run(netlist, spec.clone(), Method::MtLr);
    for method in [Method::MtLrIdx, Method::MtLrPar] {
        let candidate = run(netlist, spec.clone(), method);
        assert_eq!(
            reference.outcome,
            candidate.outcome,
            "{} / {}: {method} diverges from MT-LR",
            netlist.name(),
            spec.name()
        );
    }
    reference.outcome
}

/// A `WrongWire` mutant whose output-1 gate reads output `2n−2`: that
/// output is no longer a sink, so it keeps the full modulus. Narrowing it to
/// `2^2` as its own spec weight `2^(2n−2)` would allow is unsound here,
/// because the reader carries weight `2^1`; the verdict and counterexample
/// must still match MT-LR. The outputs nothing reads are still narrowed.
#[test]
fn output_read_by_a_gate_keeps_the_full_modulus() {
    let width = 4;
    for arch in ["SP-AR-RC", "SP-WT-CL", "BP-CT-BK", "SP-DT-HC"] {
        let golden = MultiplierSpec::parse(arch, width)
            .expect("architecture")
            .build();
        let outputs = golden.output_nets();
        let (reader, read, top) = (outputs[1], outputs[2 * width - 2], outputs[2 * width - 1]);
        let gate_index = golden
            .gates()
            .iter()
            .position(|g| g.output == reader)
            .expect("output 1 is gate-driven");
        let mutant = Fault {
            gate_index,
            kind: FaultKind::WrongWire {
                input_index: 0,
                new_net: read,
            },
        }
        .apply(&golden);

        let model = AlgebraicModel::from_netlist(&mutant).expect("acyclic");
        let (spec, k) = Spec::multiplier(width)
            .instantiate(&model)
            .expect("interface");
        let moduli = TailModuli::spec_weighted(&model, &spec, k);
        assert_eq!(
            moduli.bits(Var(read.0)),
            k,
            "{arch}: a read output keeps 2^k"
        );
        assert_eq!(
            moduli.bits(Var(top.0)),
            Some(1),
            "{arch}: the top output is a sink"
        );

        let outcome = assert_presets_match_mt_lr(&mutant, &Spec::multiplier(width));
        let Outcome::Mismatch { counterexample, .. } = outcome else {
            panic!("{arch}: the rewired mutant must be rejected, got {outcome:?}");
        };
        let cex = counterexample.expect("counterexample");
        assert_ne!(cex.circuit_word, cex.expected_word);
    }
}

/// Signed specifications, scaled and odd-coefficient custom polynomials and
/// a product of two outputs all keep MT-LR's verdicts and counterexamples.
#[test]
fn other_specifications_keep_their_verdicts() {
    let width = 4;
    // (Kogge-Stone trees are left out: the scan-based reference takes
    // minutes on the odd-coefficient spec, whose remainder is large.)
    for arch in ["SP-AR-RC", "SP-WT-CL", "BP-CT-BK"] {
        let netlist = MultiplierSpec::parse(arch, width)
            .expect("architecture")
            .build();
        let model = AlgebraicModel::from_netlist(&netlist).expect("acyclic");
        let (spec, k) = Spec::multiplier(width)
            .instantiate(&model)
            .expect("interface");
        let outputs = model.outputs().to_vec();
        let top = outputs[2 * width - 1];
        let a0 = model.inputs()[0];
        let term = |vars: Vec<Var>, c: i64| {
            Polynomial::from_terms([(Monomial::from_vars(vars), Int::from(c))])
        };

        // The signed spec rejects an unsigned multiplier.
        let signed = assert_presets_match_mt_lr(&netlist, &Spec::signed_multiplier(width));
        assert!(signed.is_mismatch(), "{arch}: {signed:?}");

        // An odd multiple of the spec narrows nothing further and verifies.
        let scaled = &spec * &Polynomial::constant(Int::from(3));
        let custom = Spec::polynomial("mul-times-3", scaled).with_modulus_bits(k);
        let outcome = assert_presets_match_mt_lr(&netlist, &custom);
        assert!(outcome.is_verified(), "{arch}: {outcome:?}");

        // An odd coefficient on a monomial holding the top output (e = 0):
        // its tail keeps 2^k, and the spec is violated.
        let odd = &spec + &term(vec![top, a0], 1);
        let moduli = TailModuli::spec_weighted(&model, &odd, k);
        assert_eq!(moduli.bits(top), k, "{arch}: e = 0 keeps the full modulus");
        let custom = Spec::polynomial("mul-plus-odd", odd).with_modulus_bits(k);
        let outcome = assert_presets_match_mt_lr(&netlist, &custom);
        assert!(outcome.is_mismatch(), "{arch}: {outcome:?}");

        // A product of two sink outputs: the cross terms of both narrowed
        // tails still vanish mod 2^k.
        let below = outputs[2 * width - 2];
        let product = &spec + &term(vec![top, below], 1 << (2 * width - 2));
        let moduli = TailModuli::spec_weighted(&model, &product, k);
        assert_eq!(moduli.bits(below), Some(2), "{arch}");
        let custom = Spec::polynomial("mul-plus-product", product).with_modulus_bits(k);
        assert_presets_match_mt_lr(&netlist, &custom);
    }
}
