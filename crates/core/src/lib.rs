//! Membership-testing verification of integer arithmetic circuits by
//! symbolic computer algebra.
//!
//! This crate implements the algorithm of *"Formal Verification of Integer
//! Multipliers by Combining Gröbner Basis with Logic Reduction"* (Sayed-Ahmed
//! et al., DATE 2016):
//!
//! 1. **Modeling** ([`AlgebraicModel`]): every gate of the netlist is turned
//!    into a polynomial `g := -z + tail(g)` over Boolean variables; ordering
//!    the variables in reverse topological order makes the model a Gröbner
//!    basis by construction. Extraction is fallible: a combinational cycle is
//!    an [`ExtractError`], not a panic.
//! 2. **Rewriting** ([`rewrite`], pluggable via [`RewriteStrategy`]): the
//!    model is rewritten against a keep-set of variables using repeated
//!    S-polynomial substitution ("GB-Rew", Algorithm 2 of the paper). The
//!    provided schemes are *fanout rewriting* (the MT-FO baseline of
//!    Farahmandi & Alizadeh), *XOR rewriting* with the **XOR-AND vanishing
//!    rule**, and *logic reduction rewriting* (Algorithm 3, the paper's
//!    contribution). The indexed rewriter of the `MT-LR-IDX`/`MT-LR-PAR`
//!    presets applies the unit-propagation closure ([`ClosureVanishing`]) in
//!    both passes and keeps coefficients canonical per tail
//!    ([`TailModuli`]): mod `2^k` in general, and mod `2^(k − e)` for a
//!    *sink* — a net no tail reads, such as a primary output — whose spec
//!    monomials all carry coefficients divisible by `2^e`. That is sound
//!    because substitution is a ring homomorphism and a sink's tail reaches
//!    the remainder only multiplied by those coefficients, so a change by a
//!    multiple of `2^(k − e)` moves the remainder by a multiple of `2^k`,
//!    which the zero test quotients out; every closure-cancelled monomial
//!    lies in the circuit ideal. Remainders, verdicts and counterexamples
//!    are unchanged.
//! 3. **Gröbner basis reduction** ([`reduction`], pluggable via
//!    [`ReductionStrategy`], Algorithm 1): the specification polynomial is
//!    divided by the rewritten model; the circuit is correct iff the
//!    remainder is zero (modulo `2^(2n)` for multipliers). Two engines are
//!    provided: the scan-based reference [`GbReduction`] and the incremental
//!    indexed engine [`IndexedReduction`], whose inverted var→term index
//!    makes each substitution step touch only the affected terms. The
//!    indexed engine runs single-threaded as [`Method::MtLrIdx`] and, as
//!    [`Method::MtLrPar`], shards the expansion of large substitution steps
//!    over [`Budget::threads`] workers, with bit-identical results.
//!
//! Before Step 2 the indexed presets try the **final-stage-adder split**
//! ([`adder_split`]): they detect the multiplier's final adder from the gate
//! functions, reduce its word identity `W = Σ 2^i s_i − Σ 2^i (a_i + b_i)`
//! mod `2^m` over the adder's region alone, and — when `W` reduces to zero —
//! run Steps 2–3 on `spec + W`, which names the adder's operand words
//! instead of the output word, on a model without the adder. `W` then lies
//! in the circuit's ideal plus `2^m`, so both specs have the same normal
//! form over the primary inputs: remainders, verdicts and counterexamples
//! are bit-identical, and the parallel-prefix adders that used to blow up
//! Step 3 never enter it.
//!
//! The user-facing entry point is the [`Session`] builder: extract once,
//! choose a [`Spec`] and a strategy (a [`Method`] preset or custom
//! [`RewriteStrategy`]/[`ReductionStrategy`] implementations), bound the run
//! with a [`Budget`], observe [`Progress`], and [`Session::run`]. The
//! [`Portfolio`] driver runs several strategies — including the SAT miter
//! baseline — against one extracted model, sequentially
//! ([`Portfolio::run_all`]) or racing with first-winner semantics
//! ([`Portfolio::race`]).
//!
//! # Example
//!
//! ```
//! use gbmv_core::{Method, Session, Spec};
//! use gbmv_genmul::MultiplierSpec;
//!
//! let netlist = MultiplierSpec::parse("SP-WT-CL", 4).unwrap().build();
//! let report = Session::extract(&netlist)?
//!     .spec(Spec::multiplier(4))
//!     .strategy(Method::MtLr)
//!     .run()?;
//! assert!(report.outcome.is_verified());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adder_split;
mod budget;
mod counterexample;
mod model;
mod portfolio;
pub mod reduction;
pub mod rewrite;
mod session;
mod spec;
mod strategy;
mod vanishing;

pub use adder_split::{AdderSplitStats, FinalStageAdder};
pub use budget::{Budget, DeadlineToken};
pub use counterexample::{Counterexample, InputBit};
pub use model::{AlgebraicModel, ExtractError, GateFunction};
pub use portfolio::{Portfolio, PortfolioReport, StrategyRun};
pub use reduction::{GbReduction, IndexedReduction, ReductionOutcome, ReductionStats};
pub use rewrite::{RewriteConfig, RewriteStats, RewriteVanishing, RewritingScheme, TailModuli};
pub use session::{Outcome, Phase, Progress, Report, RunStats, Session, SessionError};
pub use spec::{Spec, SpecError};
pub use strategy::{
    FanoutRewrite, GreedyReduction, IndexedLogicReductionRewrite, LogicReductionRewrite, Method,
    NoRewrite, PhaseContext, ReductionStrategy, RewriteStrategy, XorRewrite,
};
pub use vanishing::{
    ClosureVanishing, SharedClosure, VanishScratch, VanishingRules, VanishingTracker,
};
