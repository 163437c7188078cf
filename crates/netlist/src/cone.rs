//! Output-column support of a netlist's nets.
//!
//! [`output_column_masks`] records, per net, which primary outputs its
//! fan-out reaches. The verifier's indexed rewriter and reduction use it to
//! order substitutions toward low output columns and to count retired
//! columns.

use crate::analysis::{fanin_cone, topological_order_or_cycle};
use crate::netlist::Netlist;

/// Per-net output-column support masks: bit `min(j, 63)` of `masks[net.0]`
/// is set exactly when `net` lies in the backward (fan-in) cone of primary
/// output `j` (in declaration order, which for the generated multipliers is
/// ascending column weight). Outputs beyond 63 saturate onto bit 63.
///
/// The indexed reduction engines use the masks two ways: the substitution
/// order prefers nets that only reach low output columns (their terms retire
/// into the input-only accumulator sooner), and a column counts as *retired*
/// once every tracked net carrying its bit has been substituted.
///
/// One reverse-topological OR pass: every net reads its final mask once all
/// of its readers were visited, and ORs it into its driver's inputs, which
/// is linear in the netlist's size instead of one fan-in walk per output. A
/// cyclic netlist has no such order and falls back to the per-output walks.
pub fn output_column_masks(netlist: &Netlist) -> Vec<u64> {
    let mut masks = vec![0u64; netlist.net_count()];
    let Ok(order) = topological_order_or_cycle(netlist) else {
        for (j, &(_, out)) in netlist.outputs().iter().enumerate() {
            let bit = 1u64 << j.min(63);
            for net in fanin_cone(netlist, &[out]) {
                masks[net.0 as usize] |= bit;
            }
        }
        return masks;
    };
    for (j, &(_, out)) in netlist.outputs().iter().enumerate() {
        masks[out.0 as usize] |= 1u64 << j.min(63);
    }
    for &net in order.iter().rev() {
        let mask = masks[net.0 as usize];
        if mask == 0 {
            continue;
        }
        if let Some(gate) = netlist.driver(net) {
            for &inp in &gate.inputs {
                masks[inp.0 as usize] |= mask;
            }
        }
    }
    masks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NetId;

    /// A hand-built 2-bit multiplier: s0 = a0·b0, s1/s2 from the cross terms.
    fn two_bit_multiplier() -> Netlist {
        let mut nl = Netlist::new("mul2");
        let a0 = nl.add_input("a0");
        let a1 = nl.add_input("a1");
        let b0 = nl.add_input("b0");
        let b1 = nl.add_input("b1");
        let p00 = nl.and2(a0, b0, "p00");
        let p01 = nl.and2(a0, b1, "p01");
        let p10 = nl.and2(a1, b0, "p10");
        let p11 = nl.and2(a1, b1, "p11");
        let s1 = nl.xor2(p01, p10, "s1");
        let c1 = nl.and2(p01, p10, "c1");
        let s2 = nl.xor2(p11, c1, "s2");
        let c2 = nl.and2(p11, c1, "c2");
        nl.add_output("s0", p00);
        nl.add_output("s1", s1);
        nl.add_output("s2", s2);
        nl.add_output("s3", c2);
        nl
    }

    #[test]
    fn column_masks_track_output_reach() {
        let nl = two_bit_multiplier();
        let masks = output_column_masks(&nl);
        let find = |name: &str| {
            (0..nl.net_count())
                .map(|i| NetId(i as u32))
                .find(|&n| nl.net_name(n) == name)
                .unwrap()
        };
        // p00 is the s0 output itself and feeds nothing else.
        assert_eq!(masks[find("p00").0 as usize], 0b0001);
        // a0 reaches every output column: s0 directly, s1/s2/s3 via p01.
        assert_eq!(masks[find("a0").0 as usize], 0b1111);
        // The first carry c1 feeds s2 and s3 only.
        assert_eq!(masks[find("c1").0 as usize], 0b1100);
        // a1 misses only the lowest column.
        assert_eq!(masks[find("a1").0 as usize], 0b1110);
    }
}
