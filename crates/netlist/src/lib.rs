//! Gate-level netlist representation and analysis.
//!
//! This crate is the structural substrate of the `gbmv` workspace. It provides:
//!
//! * [`Netlist`]: a combinational gate-level circuit with named nets, primary
//!   inputs and primary outputs.
//! * [`GateKind`] / [`Gate`]: the basic Boolean gate library used by the
//!   arithmetic module generators and the algebraic verifier.
//! * Structural analysis: topological ordering, logic levels, fanout counts and
//!   transitive fan-in cones ([`analysis`]).
//! * Bit-parallel simulation for validating generated circuits ([`sim`]).
//! * A small BLIF-like textual exchange format ([`mod@format`]).
//! * Fault injection used by the negative verification tests ([`fault`]).
//!
//! # Example
//!
//! Build and simulate a full adder:
//!
//! ```
//! use gbmv_netlist::{GateKind, Netlist};
//!
//! let mut nl = Netlist::new("full_adder");
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let cin = nl.add_input("cin");
//! let axb = nl.add_gate(GateKind::Xor, &[a, b], "axb");
//! let sum = nl.add_gate(GateKind::Xor, &[axb, cin], "sum");
//! let ab = nl.add_gate(GateKind::And, &[a, b], "ab");
//! let axb_c = nl.add_gate(GateKind::And, &[axb, cin], "axb_c");
//! let cout = nl.add_gate(GateKind::Or, &[ab, axb_c], "cout");
//! nl.add_output("sum", sum);
//! nl.add_output("cout", cout);
//!
//! // 1 + 1 + 1 = 3 -> sum = 1, cout = 1
//! let out = nl.evaluate(&[true, true, true]);
//! assert_eq!(out, vec![true, true]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod cone;
pub mod fault;
pub mod format;
mod gate;
mod netlist;
pub mod sim;

pub use fault::{Fault, FaultKind};
pub use format::{parse_netlist, write_netlist, ParseNetlistError};
pub use gate::{Gate, GateKind};
pub use netlist::{NetId, Netlist, NetlistError};
