//! Pluggable phase strategies.
//!
//! The MT algorithm is a pipeline: model extraction, Gröbner basis rewriting
//! (Step 2) and Gröbner basis reduction (Steps 3/4). The rewriting and
//! reduction phases are open for extension through the [`RewriteStrategy`]
//! and [`ReductionStrategy`] traits; the schemes evaluated by the paper
//! (MT, MT-FO, MT-XOR, MT-LR) are provided implementations, and [`Method`]
//! is a thin preset constructor over them. New engines — column-wise spec
//! reduction, alternative substitution orders — plug in as further
//! implementations without touching the session driver.

use std::time::Duration;

use gbmv_poly::Polynomial;

use crate::budget::{Budget, DeadlineToken};
use crate::model::AlgebraicModel;
use crate::reduction::{GbReduction, IndexedReduction, ReductionOutcome, ReductionStats};
use crate::rewrite::{
    fanout_rewriting, indexed_logic_reduction_rewriting_with, logic_reduction_rewriting,
    xor_rewriting, RewriteConfig, RewriteStats, TailModuli,
};
use crate::vanishing::{ClosureVanishing, SharedClosure, VanishingRules, VanishingTracker};

/// Everything a phase strategy needs to know about the run it executes in:
/// the resource budget, the shared cancellation token, the structural
/// vanishing rules in force, and what the run derived once for all phases
/// (the spec-weighted tail moduli and the closure index).
#[derive(Debug, Clone)]
pub struct PhaseContext {
    /// The resource budget of the run.
    pub budget: Budget,
    /// Shared cancellation token; strategies must poll it in their inner
    /// loops (the provided implementations do).
    pub token: DeadlineToken,
    /// The structural vanishing rules of the run.
    pub rules: VanishingRules,
    /// The modulus (in bits) of the run's zero test, when it has one (for a
    /// multiplier, `Some(2 * width)`). The indexed rewriter keeps every tail
    /// canonical mod `2^k` except the sinks listed in
    /// [`PhaseContext::sink_moduli`]; reduction strategies receive the same
    /// value explicitly. The session pipeline installs it from the
    /// instantiated spec, so callers constructing a context by hand can
    /// leave it `None`.
    pub modulus_bits: Option<u32>,
    /// Narrower tail moduli of sinks, derived from the run's
    /// specification by [`TailModuli::spec_weighted`] (the `sinks` half;
    /// `modulus_bits` is the default). Only valid for that specification;
    /// empty — every tail keeps `modulus_bits` — unless the session
    /// pipeline installed it.
    pub sink_moduli: gbmv_poly::FastMap<gbmv_poly::Var, u32>,
    /// The run's closure vanishing index, built by the first phase that
    /// needs it and shared with the later ones (see [`SharedClosure`]).
    pub closure: SharedClosure,
}

impl Default for PhaseContext {
    fn default() -> Self {
        let budget = Budget::default();
        PhaseContext {
            budget,
            token: budget.token(),
            rules: VanishingRules::default(),
            modulus_bits: None,
            sink_moduli: Default::default(),
            closure: SharedClosure::default(),
        }
    }
}

impl PhaseContext {
    /// The context of one pipeline run against the pristine `model` and the
    /// instantiated `spec`: derives the spec-weighted sink moduli and starts
    /// an empty shared closure index.
    pub(crate) fn for_run(
        model: &AlgebraicModel,
        spec: &Polynomial,
        modulus_bits: Option<u32>,
        budget: Budget,
        token: DeadlineToken,
        rules: VanishingRules,
    ) -> PhaseContext {
        PhaseContext {
            budget,
            token,
            rules,
            modulus_bits,
            sink_moduli: TailModuli::spec_weighted(model, spec, modulus_bits).sinks,
            closure: SharedClosure::default(),
        }
    }

    /// The per-tail moduli of the indexed rewriter: `modulus_bits` by
    /// default, [`PhaseContext::sink_moduli`] for sinks.
    pub fn tail_moduli(&self) -> TailModuli {
        TailModuli {
            default: self.modulus_bits,
            sinks: self.sink_moduli.clone(),
        }
    }

    /// The run's closure vanishing index for `model` under the context's
    /// rules (built on first use, then shared; see [`SharedClosure`]).
    pub fn closure_index(&self, model: &AlgebraicModel) -> std::sync::Arc<ClosureVanishing> {
        self.closure.get(model, self.rules)
    }

    /// The rewrite configuration corresponding to this context (deadline
    /// enforcement delegated to the token).
    pub fn rewrite_config(&self) -> RewriteConfig {
        RewriteConfig {
            rules: self.rules,
            max_terms: self.budget.max_terms,
            timeout: Duration::MAX,
            cancel: self.token.clone(),
        }
    }

    /// A reduction engine honouring this context (deadline enforcement
    /// delegated to the token); `modulus_bits` enables intermediate
    /// `mod 2^k` coefficient dropping.
    pub fn reduction_engine(&self, modulus_bits: Option<u32>) -> GbReduction {
        let mut engine =
            GbReduction::new(self.budget.max_terms, Duration::MAX).with_token(self.token.clone());
        if let Some(k) = modulus_bits {
            engine = engine.with_modulus(k);
        }
        engine
    }
}

/// A Step-2 strategy: rewrites the model in place before the reduction.
///
/// Implementations must poll `ctx.token` in long-running loops and set
/// [`RewriteStats::limit_exceeded`] when they stop early.
pub trait RewriteStrategy: Send + Sync {
    /// Short display name (used in reports and bench records).
    fn name(&self) -> &str;

    /// Rewrites the model in place, returning the pass statistics.
    fn rewrite(&self, model: &mut AlgebraicModel, ctx: &PhaseContext) -> RewriteStats;
}

/// A Step-3/4 strategy: reduces the specification polynomial against the
/// (rewritten) model and returns the remainder.
///
/// Implementations must poll `ctx.token` in their inner loops.
pub trait ReductionStrategy: Send + Sync {
    /// Short display name (used in reports and bench records).
    fn name(&self) -> &str;

    /// Reduces `spec` against `model`, returning the remainder, why the
    /// reduction ended, and its statistics. `modulus_bits` is the modulus of
    /// the zero test (for intermediate coefficient dropping).
    fn reduce(
        &self,
        model: &AlgebraicModel,
        spec: &Polynomial,
        modulus_bits: Option<u32>,
        ctx: &PhaseContext,
    ) -> (Polynomial, ReductionOutcome, ReductionStats);
}

/// No rewriting at all (the plain MT baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoRewrite;

impl RewriteStrategy for NoRewrite {
    fn name(&self) -> &str {
        "none"
    }

    fn rewrite(&self, _model: &mut AlgebraicModel, _ctx: &PhaseContext) -> RewriteStats {
        RewriteStats::default()
    }
}

/// Fanout rewriting — the MT-FO baseline of Farahmandi & Alizadeh.
#[derive(Debug, Clone, Copy, Default)]
pub struct FanoutRewrite;

impl RewriteStrategy for FanoutRewrite {
    fn name(&self) -> &str {
        "fanout"
    }

    fn rewrite(&self, model: &mut AlgebraicModel, ctx: &PhaseContext) -> RewriteStats {
        fanout_rewriting(model, &ctx.rewrite_config())
    }
}

/// XOR rewriting with the vanishing rules (the first half of MT-LR; the
/// paper's ablation shows it is inefficient on its own).
#[derive(Debug, Clone, Copy, Default)]
pub struct XorRewrite;

impl RewriteStrategy for XorRewrite {
    fn name(&self) -> &str {
        "xor"
    }

    fn rewrite(&self, model: &mut AlgebraicModel, ctx: &PhaseContext) -> RewriteStats {
        xor_rewriting(model, &ctx.rewrite_config())
    }
}

/// Logic reduction rewriting (Algorithm 3): XOR rewriting with the vanishing
/// rules followed by common rewriting — the paper's contribution.
#[derive(Debug, Clone, Copy, Default)]
pub struct LogicReductionRewrite;

impl RewriteStrategy for LogicReductionRewrite {
    fn name(&self) -> &str {
        "logic-reduction"
    }

    fn rewrite(&self, model: &mut AlgebraicModel, ctx: &PhaseContext) -> RewriteStats {
        logic_reduction_rewriting(model, &ctx.rewrite_config())
    }
}

/// Logic reduction rewriting on the incrementally indexed term store (see
/// [`indexed_logic_reduction_rewriting_with`]) — the Step 2 of
/// [`Method::MtLrIdx`] and [`Method::MtLrPar`]:
///
/// * in-place extraction through the inverted var→term index;
/// * vanishing cancellation applied *during* each substitution of both
///   passes, through the run's shared closure index
///   ([`PhaseContext::closure_index`], also used by the reduction) — or,
///   when `VanishingRules::closure` is off, the scan tracker's pattern rules
///   in the XOR pass and none in the common pass, which gives term-for-term
///   the post-rewrite model of [`LogicReductionRewrite`] modulo coefficient
///   canonicalization (under uniform moduli);
/// * canonical coefficients mod [`PhaseContext::tail_moduli`]: `2^k` for
///   every tail but the sinks, whose tails only need the residue mod
///   `2^(k − e)` that their spec coefficients let through (see
///   [`TailModuli`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct IndexedLogicReductionRewrite;

impl RewriteStrategy for IndexedLogicReductionRewrite {
    fn name(&self) -> &str {
        "logic-reduction-indexed"
    }

    fn rewrite(&self, model: &mut AlgebraicModel, ctx: &PhaseContext) -> RewriteStats {
        let closure = ctx.rules.closure.then(|| ctx.closure_index(model));
        indexed_logic_reduction_rewriting_with(
            model,
            &ctx.rewrite_config(),
            &ctx.tail_moduli(),
            closure.as_deref(),
        )
    }
}

/// The provided reduction strategy: greedy smallest-growth substitution order
/// (see [`GbReduction::reduce`]), optionally re-applying the structural
/// vanishing rules after every substitution.
#[derive(Debug, Clone, Copy)]
pub struct GreedyReduction {
    /// Apply the vanishing rules during the reduction (required for the
    /// logic-reduction methods; see [`GbReduction::reduce_with_vanishing`]).
    pub vanishing: bool,
}

impl ReductionStrategy for GreedyReduction {
    fn name(&self) -> &str {
        if self.vanishing {
            "greedy+vanishing"
        } else {
            "greedy"
        }
    }

    fn reduce(
        &self,
        model: &AlgebraicModel,
        spec: &Polynomial,
        modulus_bits: Option<u32>,
        ctx: &PhaseContext,
    ) -> (Polynomial, ReductionOutcome, ReductionStats) {
        let engine = ctx.reduction_engine(modulus_bits);
        if self.vanishing {
            // The gate-function index survives rewriting (only tails change),
            // so the tracker can be built from the rewritten model.
            let mut tracker = VanishingTracker::new(model, ctx.rules);
            engine.reduce_with_vanishing(model, spec, &mut tracker)
        } else {
            engine.reduce(model, spec)
        }
    }
}

/// The verification methods of the paper's tables: presets pairing a
/// [`RewriteStrategy`] with a [`ReductionStrategy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// No rewriting at all; reduce the raw gate-level model.
    MtNaive,
    /// Fanout rewriting — the MT-FO baseline of Farahmandi & Alizadeh \[7\].
    MtFo,
    /// XOR rewriting only (ablation; the paper argues this alone is
    /// inefficient).
    MtXorOnly,
    /// Logic reduction rewriting (XOR + common rewriting with the XOR-AND
    /// vanishing rule) — the paper's contribution.
    MtLr,
    /// MT-LR with both phases on the incremental indexed term store: Step 2
    /// through [`IndexedLogicReductionRewrite`] (in-place extraction,
    /// closure vanishing during substitution, canonical mod-`2^k`
    /// coefficients) and Step 3/4 through [`IndexedReduction`] on one
    /// thread. Same post-rewrite models (modulo coefficient
    /// canonicalization), remainders and verdicts as MT-LR, different
    /// per-step cost. Tries the final-stage-adder split first (see
    /// [`Method::splits_final_adder`]).
    MtLrIdx,
    /// `MT-LR-IDX` with the expansion of every large Step-3 substitution
    /// step sharded over term ranges across [`crate::Budget::threads`]
    /// workers ([`IndexedReduction`] with `threads: 0`). Verdicts,
    /// remainders, counterexamples and counters are bit-identical to
    /// `MT-LR-IDX` for any thread count.
    MtLrPar,
}

impl Method {
    /// All methods: the paper's four in table order, then this repo's
    /// indexed MT-LR variants (single-threaded and sharded).
    pub fn all() -> [Method; 6] {
        [
            Method::MtNaive,
            Method::MtFo,
            Method::MtXorOnly,
            Method::MtLr,
            Method::MtLrIdx,
            Method::MtLrPar,
        ]
    }

    /// Short display name matching the paper (`MT-LR-IDX`/`MT-LR-PAR` for
    /// the single-threaded and sharded indexed engine, which the paper does
    /// not have).
    pub fn name(self) -> &'static str {
        match self {
            Method::MtNaive => "MT",
            Method::MtFo => "MT-FO",
            Method::MtXorOnly => "MT-XOR",
            Method::MtLr => "MT-LR",
            Method::MtLrIdx => "MT-LR-IDX",
            Method::MtLrPar => "MT-LR-PAR",
        }
    }

    /// The Step-2 strategy this preset stands for. `MT-LR` keeps the
    /// scan-based rewriter (it doubles as the differential oracle of the
    /// rewrite-equivalence harness); the indexed presets run Step 2 on the
    /// indexed store.
    pub fn rewrite_strategy(self) -> Box<dyn RewriteStrategy> {
        match self {
            Method::MtNaive => Box::new(NoRewrite),
            Method::MtFo => Box::new(FanoutRewrite),
            Method::MtXorOnly => Box::new(XorRewrite),
            Method::MtLr => Box::new(LogicReductionRewrite),
            Method::MtLrIdx | Method::MtLrPar => Box::new(IndexedLogicReductionRewrite),
        }
    }

    /// Whether this preset tries the final-stage-adder split before Step 2
    /// (see [`crate::adder_split`]): the indexed presets do, the paper's
    /// MT, MT-FO, MT-XOR and MT-LR do not.
    pub fn splits_final_adder(self) -> bool {
        matches!(self, Method::MtLrIdx | Method::MtLrPar)
    }

    /// The Step-3/4 strategy this preset stands for.
    pub fn reduction_strategy(self) -> Box<dyn ReductionStrategy> {
        match self {
            Method::MtNaive | Method::MtFo => Box::new(GreedyReduction { vanishing: false }),
            Method::MtXorOnly | Method::MtLr => Box::new(GreedyReduction { vanishing: true }),
            Method::MtLrIdx => Box::new(IndexedReduction { threads: 1 }),
            Method::MtLrPar => Box::new(IndexedReduction { threads: 0 }),
        }
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_names_match_paper() {
        assert_eq!(Method::MtLr.name(), "MT-LR");
        assert_eq!(Method::MtFo.name(), "MT-FO");
        assert_eq!(Method::MtLrIdx.name(), "MT-LR-IDX");
        assert_eq!(Method::MtLrPar.name(), "MT-LR-PAR");
        assert_eq!(Method::all().len(), 6);
        assert_eq!(format!("{}", Method::MtNaive), "MT");
    }

    #[test]
    fn presets_pair_the_paper_strategies() {
        assert_eq!(Method::MtLr.rewrite_strategy().name(), "logic-reduction");
        assert_eq!(Method::MtLr.reduction_strategy().name(), "greedy+vanishing");
        assert_eq!(Method::MtFo.rewrite_strategy().name(), "fanout");
        assert_eq!(Method::MtFo.reduction_strategy().name(), "greedy");
        assert_eq!(Method::MtNaive.rewrite_strategy().name(), "none");
        assert_eq!(Method::MtXorOnly.rewrite_strategy().name(), "xor");
        assert_eq!(
            Method::MtLrIdx.rewrite_strategy().name(),
            "logic-reduction-indexed"
        );
        assert_eq!(
            Method::MtLrIdx.reduction_strategy().name(),
            "indexed+vanishing"
        );
        assert_eq!(
            Method::MtLrPar.rewrite_strategy().name(),
            "logic-reduction-indexed"
        );
        assert_eq!(
            Method::MtLrPar.reduction_strategy().name(),
            "indexed+vanishing"
        );
    }
}
