//! The final-stage-adder split of `MT-LR-IDX`/`MT-LR-PAR`: detection from
//! gate functions, the slice check, when the split applies, and that it
//! never changes a verdict or counterexample.

use gbmv::core::{AlgebraicModel, FinalStageAdder};
use gbmv::genmul::accumulator::{
    reduce_array, reduce_compressor42, reduce_dadda, reduce_redundant_binary, reduce_wallace,
};
use gbmv::genmul::adder::add_words;
use gbmv::genmul::partial::{booth_partial_products, simple_partial_products};
use gbmv::genmul::{
    build_adder, Accumulator, AdderKind, FinalAdder, MultiplierSpec, PartialProduct,
};
use gbmv::netlist::fault::distinguishable_mutant;
use gbmv::netlist::{write_netlist, Fault, FaultKind, GateKind, NetId, Netlist};
use gbmv::poly::{Int, Monomial, Polynomial, Var};
use gbmv::{Budget, Method, Portfolio, Report, Session, Spec};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `spec.build()`, step by step, keeping the accumulator's two rows.
fn build_with_rows(spec: &MultiplierSpec) -> (Netlist, Vec<NetId>, Vec<NetId>) {
    let n = spec.width;
    let mut nl = Netlist::new(spec.name());
    let a: Vec<NetId> = (0..n).map(|i| nl.add_input(format!("a{i}"))).collect();
    let b: Vec<NetId> = (0..n).map(|i| nl.add_input(format!("b{i}"))).collect();
    let pps = match spec.pp {
        PartialProduct::Simple => simple_partial_products(&mut nl, &a, &b),
        PartialProduct::Booth => booth_partial_products(&mut nl, &a, &b),
    };
    let rows = match spec.acc {
        Accumulator::Array => reduce_array(&mut nl, &pps),
        Accumulator::Wallace => reduce_wallace(&mut nl, &pps),
        Accumulator::Dadda => reduce_dadda(&mut nl, &pps),
        Accumulator::Compressor42 => reduce_compressor42(&mut nl, &pps),
        Accumulator::RedundantBinary => reduce_redundant_binary(&mut nl, &pps),
    };
    let (sums, _) = add_words(&mut nl, spec.fsa, &rows.row_a, &rows.row_b, None, "fsa");
    for (i, &s) in sums.iter().enumerate() {
        nl.add_output(format!("s{i}"), s);
    }
    (nl, rows.row_a, rows.row_b)
}

fn all_specs(width: usize) -> Vec<MultiplierSpec> {
    let mut specs = Vec::new();
    for pp in PartialProduct::all() {
        for acc in Accumulator::all() {
            for fsa in FinalAdder::all() {
                specs.push(MultiplierSpec::new(width, pp, acc, fsa));
            }
        }
    }
    specs
}

fn model(nl: &Netlist) -> AlgebraicModel {
    AlgebraicModel::from_netlist(nl).unwrap()
}

fn run(nl: &Netlist, spec: Spec, method: Method) -> Report {
    Session::extract(nl)
        .unwrap()
        .spec(spec)
        .strategy(method)
        .budget(Budget::default().with_threads(1))
        .run()
        .unwrap()
}

/// The gate driving the net called `name`, as a fault target.
fn gate_of(nl: &Netlist, name: &str) -> usize {
    let net = nl.find_net(name).unwrap();
    nl.gates().iter().position(|g| g.output == net).unwrap()
}

fn mutate(nl: &Netlist, name: &str, kind: FaultKind) -> Netlist {
    Fault {
        gate_index: gate_of(nl, name),
        kind,
    }
    .apply(nl)
}

#[test]
fn detection_finds_the_generator_rows_on_every_architecture() {
    for width in 4..=8 {
        for spec in all_specs(width) {
            let (nl, row_a, row_b) = build_with_rows(&spec);
            assert_eq!(write_netlist(&nl), write_netlist(&spec.build()));
            let m = model(&nl);
            let adder = FinalStageAdder::detect(&m)
                .unwrap_or_else(|| panic!("{}: no adder found", spec.name()));
            assert_eq!(adder.operands().len(), 2 * width, "{}", spec.name());
            for (i, &(x, y)) in adder.operands().iter().enumerate() {
                let mut want = [Var(row_a[i].0), Var(row_b[i].0)];
                want.sort();
                assert_eq!([x, y], want, "{} bit {i}", spec.name());
            }
            for &v in adder.region() {
                assert!(
                    m.name(v).starts_with("fsa_"),
                    "{}: region holds {}",
                    spec.name(),
                    m.name(v)
                );
            }
        }
    }
}

#[test]
fn netlists_without_an_adder_are_rejected() {
    // A standalone adder's carry-out is an AND/OR, not p ⊕ c.
    for kind in AdderKind::all() {
        assert!(FinalStageAdder::detect(&model(&build_adder(4, kind, false))).is_none());
    }
    // Outputs straight from AND gates.
    let mut nl = Netlist::new("ands");
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let g = nl.and2(a, b, "g");
    nl.add_output("g", g);
    assert!(FinalStageAdder::detect(&model(&nl)).is_none());
    // A multiplier whose output XOR was swapped for another gate kind.
    let nl = MultiplierSpec::parse("SP-WT-KS", 4).unwrap().build();
    assert!(FinalStageAdder::detect(&model(&nl)).is_some());
    for kind in [GateKind::Or, GateKind::Xnor, GateKind::And] {
        let mutant = mutate(&nl, "fsa_s3", FaultKind::GateSwap { new_kind: kind });
        assert!(
            FinalStageAdder::detect(&model(&mutant)).is_none(),
            "{kind:?}"
        );
    }
    // A region gate rewired to a primary input: the region reaches it.
    let a0 = nl.find_net("a0").unwrap();
    let mutant = mutate(
        &nl,
        "fsa_ks0_2_g",
        FaultKind::WrongWire {
            input_index: 0,
            new_net: a0,
        },
    );
    assert!(FinalStageAdder::detect(&model(&mutant)).is_none());
}

#[test]
fn a_mutant_inside_the_region_fails_the_slice_check_and_matches_mt_lr() {
    for (arch, net) in [
        ("SP-WT-KS", "fsa_ks1_5_g"),
        ("SP-DT-HC", "fsa_hc1_5_g"),
        ("BP-CT-BK", "fsa_bku1_3_g"),
        ("SP-AR-RC", "fsa_fa4_c"),
    ] {
        let nl = MultiplierSpec::parse(arch, 4).unwrap().build();
        let mutant = mutate(
            &nl,
            net,
            FaultKind::GateSwap {
                new_kind: GateKind::And,
            },
        );
        let oracle = run(&mutant, Spec::multiplier(4), Method::MtLr);
        assert!(oracle.outcome.is_mismatch(), "{arch}: {:?}", oracle.outcome);
        for method in [Method::MtLrIdx, Method::MtLrPar] {
            let report = run(&mutant, Spec::multiplier(4), method);
            let split = &report.stats.adder_split;
            assert!(split.region_gates > 0, "{arch} {method}: adder not found");
            assert!(!split.applied, "{arch} {method}: split a faulty adder");
            assert_eq!(report.outcome, oracle.outcome, "{arch} {method}");
        }
    }
}

/// Random mutants anywhere in the circuit: a fault outside the adder keeps
/// the split, a fault inside drops it, and neither changes the verdict or
/// counterexample.
#[test]
fn seeded_mutants_keep_mt_lr_verdicts() {
    let mut rng = StdRng::seed_from_u64(2024);
    for arch in ["SP-WT-CL", "SP-DT-KS", "SP-RT-HC", "BP-AR-RC"] {
        let nl = MultiplierSpec::parse(arch, 4).unwrap().build();
        for _ in 0..6 {
            let (fault, mutant) = distinguishable_mutant(&nl, 1000, &mut rng).expect("mutant");
            let in_adder = nl
                .net_name(nl.gates()[fault.gate_index].output)
                .starts_with("fsa_");
            let oracle = run(&mutant, Spec::multiplier(4), Method::MtLr);
            for method in [Method::MtLrIdx, Method::MtLrPar] {
                let report = run(&mutant, Spec::multiplier(4), method);
                assert_eq!(report.outcome, oracle.outcome, "{arch} {method} {fault:?}");
                assert_eq!(
                    report.stats.adder_split.applied, !in_adder,
                    "{arch} {method} {fault:?}"
                );
            }
        }
    }
}

#[test]
fn correct_multipliers_split_on_the_indexed_presets_only() {
    for arch in ["SP-AR-RC", "SP-DT-HC", "BP-WT-KS"] {
        let nl = MultiplierSpec::parse(arch, 5).unwrap().build();
        for method in Method::all() {
            let report = run(&nl, Spec::multiplier(5), method);
            assert!(report.outcome.is_verified(), "{arch} {method}");
            let split = &report.stats.adder_split;
            assert_eq!(
                split.applied,
                method.splits_final_adder(),
                "{arch} {method}"
            );
            if split.applied {
                assert!(split.region_gates > 0 && split.boundary_width > 0);
                assert!(split.check_time > std::time::Duration::ZERO);
            }
        }
    }
}

#[test]
fn portfolio_entries_split_like_sessions() {
    let nl = MultiplierSpec::parse("SP-CT-KS", 4).unwrap().build();
    let report = Portfolio::extract(&nl)
        .unwrap()
        .spec(Spec::multiplier(4))
        .method(Method::MtLr)
        .method(Method::MtLrIdx)
        .method(Method::MtLrPar)
        .run_all()
        .unwrap();
    for run in &report.runs {
        assert!(run.outcome.is_verified(), "{}", run.strategy);
        let applied = run.stats.as_ref().unwrap().adder_split.applied;
        assert_eq!(applied, run.strategy != "MT-LR", "{}", run.strategy);
    }
}

#[test]
fn the_signed_spec_splits() {
    // The unsigned circuit does not implement the signed product: the split
    // applies and the mismatch and counterexample are MT-LR's.
    let nl = MultiplierSpec::parse("SP-DT-KS", 4).unwrap().build();
    let oracle = run(&nl, Spec::signed_multiplier(4), Method::MtLr);
    assert!(oracle.outcome.is_mismatch());
    for method in [Method::MtLrIdx, Method::MtLrPar] {
        let report = run(&nl, Spec::signed_multiplier(4), method);
        assert!(report.stats.adder_split.applied, "{method}");
        assert_eq!(report.outcome, oracle.outcome, "{method}");
    }
}

#[test]
fn only_word_level_custom_specs_split() {
    let nl = MultiplierSpec::parse("SP-WT-HC", 4).unwrap().build();
    let m = model(&nl);
    let (word, modulus) = Spec::multiplier(4).instantiate(&m).unwrap();
    let raw = Spec::polynomial("raw", word.clone()).with_modulus_bits(modulus);
    let report = run(&nl, raw, Method::MtLrIdx);
    assert!(report.outcome.is_verified());
    assert!(report.stats.adder_split.applied);

    // An output product makes the spec no longer word-level over the
    // outputs; an exact zero test does not match the adder's 2^m either.
    let s = m.outputs();
    let mut product = word.clone();
    product.add_term(Monomial::from_vars([s[0], s[1]]), Int::from(4));
    for spec in [
        Spec::polynomial("product", product).with_modulus_bits(modulus),
        Spec::polynomial("exact", word),
    ] {
        let name = spec.name();
        let oracle = run(&nl, spec.clone(), Method::MtLr);
        let report = run(&nl, spec, Method::MtLrIdx);
        assert!(!report.stats.adder_split.applied, "{name}");
        assert_eq!(report.stats.adder_split.region_gates, 0, "{name}");
        assert_eq!(report.outcome, oracle.outcome, "{name}");
    }
}

/// A slice check that runs out of budget keeps the original spec.
#[test]
fn a_slice_check_over_budget_keeps_the_spec() {
    let nl = MultiplierSpec::parse("SP-DT-KS", 8).unwrap().build();
    for method in [Method::MtLrIdx, Method::MtLrPar] {
        let report = Session::extract(&nl)
            .unwrap()
            .spec(Spec::multiplier(8))
            .strategy(method)
            .budget(Budget {
                max_terms: 8,
                deadline: Some(std::time::Duration::from_secs(60)),
                threads: 1,
            })
            .run()
            .unwrap();
        let split = &report.stats.adder_split;
        assert!(split.region_gates > 0, "{method}");
        assert!(!split.applied, "{method}");
        assert!(split.check_peak_terms > 8, "{method}");
        assert!(report.outcome.is_resource_limit(), "{method}");
    }
}

/// The width-16 wall: the prefix-adder multipliers that used to stop at
/// the term budget in Step 3.
#[test]
fn prefix_adders_verify_at_width_16() {
    for arch in ["SP-RT-KS", "SP-DT-HC", "SP-DT-KS"] {
        let nl = MultiplierSpec::parse(arch, 16).unwrap().build();
        let report = Session::extract(&nl)
            .unwrap()
            .spec(Spec::multiplier(16))
            .strategy(Method::MtLrIdx)
            .budget(Budget {
                max_terms: 500_000,
                deadline: Some(std::time::Duration::from_secs(300)),
                threads: 1,
            })
            .run()
            .unwrap();
        assert!(report.outcome.is_verified(), "{arch}: {:?}", report.outcome);
        assert!(report.stats.adder_split.applied, "{arch}");
        assert!(report.stats.reduction.peak_terms < 500_000, "{arch}");
    }
}

/// A spec naming an internal net: Step 2 must keep that net's polynomial
/// for reduction to find. `add_fa1_d = a1·b1` in a ripple-carry adder.
#[test]
fn a_spec_naming_an_internal_net_verifies_on_every_preset() {
    let nl = build_adder(4, AdderKind::RippleCarry, false);
    let var = |name: &str| Var(nl.find_net(name).unwrap().0);
    let poly = Polynomial::from_terms([
        (Monomial::var(var("add_fa1_d")), Int::one()),
        (Monomial::from_vars([var("a1"), var("b1")]), Int::from(-1)),
    ]);
    for method in Method::all() {
        let report = run(&nl, Spec::polynomial("d", poly.clone()), method);
        assert!(
            report.outcome.is_verified(),
            "{method}: {:?}",
            report.outcome
        );
    }
    // And a wrong claim about the same net is a grounded mismatch.
    let wrong = &poly + &Polynomial::from_terms([(Monomial::var(var("a0")), Int::one())]);
    for method in Method::all() {
        let report = run(&nl, Spec::polynomial("d+a0", wrong.clone()), method);
        assert!(
            report.outcome.is_mismatch(),
            "{method}: {:?}",
            report.outcome
        );
    }
}
