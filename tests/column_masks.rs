//! `cone::output_column_masks` computes every net's output-column mask in
//! one reverse-topological pass. These tests pin it bit for bit against the
//! definition — one fan-in walk per output — on generated multipliers,
//! seeded mutants, and netlists with dangling or cyclic logic.

use gbmv::genmul::{Accumulator, FinalAdder, MultiplierSpec, PartialProduct};
use gbmv::netlist::analysis::fanin_cone;
use gbmv::netlist::cone::output_column_masks;
use gbmv::netlist::fault::random_fault;
use gbmv::netlist::{GateKind, Netlist};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The definition: bit `min(j, 63)` for every net in output `j`'s fan-in.
fn per_output_masks(nl: &Netlist) -> Vec<u64> {
    let mut masks = vec![0u64; nl.net_count()];
    for (j, &(_, out)) in nl.outputs().iter().enumerate() {
        for net in fanin_cone(nl, &[out]) {
            masks[net.index()] |= 1u64 << j.min(63);
        }
    }
    masks
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

#[test]
fn masks_match_per_output_walks_on_generated_multipliers() {
    for width in 4..=8 {
        for spec in all_specs(width) {
            let nl = spec.build();
            assert_eq!(
                output_column_masks(&nl),
                per_output_masks(&nl),
                "{}",
                spec.name()
            );
        }
    }
}

#[test]
fn masks_match_per_output_walks_on_mutants() {
    let mut rng = StdRng::seed_from_u64(7);
    for spec in all_specs(5) {
        let nl = spec.build();
        let mut checked = 0;
        while checked < 4 {
            let fault = random_fault(&nl, &mut rng).expect("gates");
            let mutant = fault.apply(&nl);
            if mutant.validate().is_err() {
                continue;
            }
            assert_eq!(
                output_column_masks(&mutant),
                per_output_masks(&mutant),
                "{} with {fault:?}",
                spec.name()
            );
            checked += 1;
        }
    }
}

#[test]
fn dangling_gates_get_no_column() {
    let mut nl = Netlist::new("dangling");
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let c = nl.add_input("c");
    let x = nl.xor2(a, b, "x");
    let y = nl.and2(x, c, "y");
    // Read by nothing and driving no output.
    let dead = nl.or2(x, c, "dead");
    let dead2 = nl.and2(dead, a, "dead2");
    nl.add_output("x", x);
    nl.add_output("y", y);
    let masks = output_column_masks(&nl);
    assert_eq!(masks, per_output_masks(&nl));
    assert_eq!(masks[dead.index()], 0);
    assert_eq!(masks[dead2.index()], 0);
    assert_eq!(masks[x.index()], 0b11);
    assert_eq!(masks[c.index()], 0b10);
}

#[test]
fn wide_outputs_saturate_and_cycles_fall_back() {
    // 70 outputs: columns 63 and beyond share bit 63.
    let mut nl = Netlist::new("wide");
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    for j in 0..70 {
        let g = nl.add_gate(GateKind::And, &[a, b], format!("g{j}"));
        nl.add_output(format!("o{j}"), g);
    }
    assert_eq!(output_column_masks(&nl), per_output_masks(&nl));

    let mut cyc = Netlist::new("cyc");
    let a = cyc.add_input("a");
    let x = cyc.add_net("x");
    let y = cyc.add_net("y");
    cyc.add_gate_driving(GateKind::And, x, &[a, y]).unwrap();
    cyc.add_gate_driving(GateKind::Or, y, &[a, x]).unwrap();
    let z = cyc.xor2(a, x, "z");
    cyc.add_output("y", y);
    cyc.add_output("z", z);
    assert_eq!(output_column_masks(&cyc), per_output_masks(&cyc));
}
