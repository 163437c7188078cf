//! Gröbner basis reduction (Algorithm 1 of the paper).
//!
//! The specification polynomial is divided by the circuit model: every
//! iteration substitutes one gate-output variable by the tail of its gate
//! polynomial, following the reverse topological substitution order. Because
//! every model polynomial has the shape `-v + tail(v)` and the leading
//! monomials are relatively prime, the S-polynomial step degenerates into
//! variable substitution ([`gbmv_poly::Polynomial::substitute`]).
//!
//! The reduction tracks the statistics the paper reports (peak intermediate
//! size, number of substitutions, run time) and supports resource limits so
//! that intentionally diverging configurations (e.g. MT-FO on a Kogge-Stone
//! multiplier) terminate with [`ReductionOutcome::LimitExceeded`] instead of
//! exhausting memory.
//!
//! Two engines live here: the scan-based reference [`GbReduction`] (kept
//! deliberately simple — it is the differential oracle the indexed engine is
//! pinned against) and the incremental [`IndexedReduction`], which runs
//! `MT-LR-IDX` on one thread and `MT-LR-PAR` with sharded substitution
//! steps.

use std::time::{Duration, Instant};

use gbmv_poly::{FastMap, IndexedPolynomial, Int, Monomial, Polynomial, Var};

use crate::budget::DeadlineToken;
use crate::model::AlgebraicModel;
use crate::strategy::{PhaseContext, ReductionStrategy};
use crate::vanishing::{ClosureVanishing, VanishScratch, VanishingTracker};

/// Why a reduction run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReductionOutcome {
    /// All substitutions were performed; the remainder is final.
    Completed,
    /// The intermediate polynomial exceeded the configured term limit.
    LimitExceeded {
        /// Number of terms when the limit was hit.
        terms: usize,
    },
    /// The configured wall-clock budget (or the cancellation token's
    /// deadline) was exhausted.
    TimedOut,
    /// The cancellation token was cancelled from outside (e.g. another
    /// portfolio strategy finished first).
    Cancelled,
}

impl ReductionOutcome {
    /// Returns `true` if the reduction ran to completion.
    pub fn is_completed(&self) -> bool {
        matches!(self, ReductionOutcome::Completed)
    }
}

/// Statistics of one Gröbner basis reduction run.
#[derive(Debug, Clone, Default)]
pub struct ReductionStats {
    /// Number of variable substitutions performed.
    pub substitutions: usize,
    /// Peak number of terms of the intermediate remainder.
    pub peak_terms: usize,
    /// Number of terms of the final remainder (before modulo reduction).
    pub final_terms: usize,
    /// Number of monomials removed by the vanishing rules *during the
    /// reduction* (the reduction-phase share of `#CVM`; zero unless
    /// [`GbReduction::reduce_with_vanishing`] is used).
    pub cancelled_vanishing: u64,
    /// Number of terms the indexed engines retrieved through the inverted
    /// var→term index (one per extracted term; zero for the scan-based
    /// reference engine).
    pub index_hits: u64,
    /// Number of output columns that lost their last tracked-variable
    /// occurrence during an indexed reduction (their remaining terms are
    /// input-only and retire out of the indexed hot path; zero for the
    /// scan-based reference engine).
    pub columns_retired: usize,
    /// Wall-clock time of the reduction.
    pub elapsed: Duration,
}

/// The Gröbner basis reduction engine.
#[derive(Debug, Clone)]
pub struct GbReduction {
    /// Abort when the intermediate remainder exceeds this many terms.
    pub max_terms: usize,
    /// Abort when the reduction exceeds this wall-clock budget.
    pub timeout: Duration,
    /// Cooperative cancellation: the reduction returns
    /// [`ReductionOutcome::Cancelled`] (explicit cancel) or
    /// [`ReductionOutcome::TimedOut`] (deadline) at the next substitution
    /// after the token expires. The default token never expires.
    pub cancel: DeadlineToken,
    /// When set, drop terms whose coefficient is a multiple of `2^k` after
    /// every substitution instead of only at the end.
    ///
    /// For a `mod 2^k` specification this is sound — substitution maps every
    /// term to a sum of terms whose coefficients are multiples of the
    /// original coefficient, so divisibility by `2^k` is preserved and the
    /// dropped terms can never influence the final remainder mod `2^k`. For
    /// Booth and redundant-binary circuits it is also what keeps the
    /// intermediate remainder small: their bit-level implementations are only
    /// congruent (not equal) to the product, and without intermediate modular
    /// dropping the congruence excess accumulates millions of terms that the
    /// final `drop_multiples_of_pow2` would erase anyway.
    pub modulus_bits: Option<u32>,
}

impl Default for GbReduction {
    fn default() -> Self {
        GbReduction {
            max_terms: 5_000_000,
            timeout: Duration::from_secs(3600),
            cancel: DeadlineToken::new(),
            modulus_bits: None,
        }
    }
}

impl GbReduction {
    /// Creates a reduction engine with explicit limits.
    pub fn new(max_terms: usize, timeout: Duration) -> Self {
        GbReduction {
            max_terms,
            timeout,
            ..GbReduction::default()
        }
    }

    /// Enables intermediate `mod 2^k` coefficient dropping (see
    /// [`GbReduction::modulus_bits`]).
    pub fn with_modulus(mut self, k: u32) -> Self {
        self.modulus_bits = Some(k);
        self
    }

    /// Installs a cooperative cancellation token (see [`GbReduction::cancel`]).
    pub fn with_token(mut self, token: DeadlineToken) -> Self {
        self.cancel = token;
        self
    }

    /// Reduces (divides) `spec` with respect to the model. Returns the
    /// remainder, the outcome and the collected statistics.
    ///
    /// Because every model polynomial has the shape `-v + tail(v)` with
    /// `tail(v)` over variables strictly lower in the topological order, the
    /// substitution system is terminating and confluent: the remainder does
    /// not depend on the substitution order. The engine exploits that freedom
    /// and greedily substitutes the variable with the smallest estimated
    /// growth (`occurrences × (tail size - 1)`) first, which keeps the
    /// intermediate remainder orders of magnitude smaller than the fixed
    /// reverse-topological order on deep parallel-prefix carry networks
    /// (Kogge-Stone / Han-Carlson).
    ///
    /// The remainder only mentions primary-input variables when the outcome
    /// is [`ReductionOutcome::Completed`] and the model still contains a
    /// polynomial for every internal variable of `spec`'s cone.
    pub fn reduce(
        &self,
        model: &AlgebraicModel,
        spec: &Polynomial,
    ) -> (Polynomial, ReductionOutcome, ReductionStats) {
        self.reduce_greedy_inner(model, spec, None)
    }

    /// Like [`GbReduction::reduce`] but applying the structural vanishing
    /// rules after every substitution. At the synthesized gate level the
    /// reduction can re-create vanishing monomials by multiplying tails of
    /// different (individually clean) model polynomials; removing them here
    /// is the same logic reduction the paper applies during rewriting and is
    /// what keeps redundant-binary trees and wide parallel-prefix adders from
    /// blowing up during Step 3. The monomials removed are added to the
    /// tracker's cancelled count (`#CVM`).
    pub fn reduce_with_vanishing(
        &self,
        model: &AlgebraicModel,
        spec: &Polynomial,
        tracker: &mut VanishingTracker,
    ) -> (Polynomial, ReductionOutcome, ReductionStats) {
        self.reduce_greedy_inner(model, spec, Some(tracker))
    }

    /// Like [`GbReduction::reduce`] but with an explicit substitution order,
    /// used by the tests that reproduce the paper's worked examples.
    pub fn reduce_with_order(
        &self,
        model: &AlgebraicModel,
        spec: &Polynomial,
        order: &[Var],
    ) -> (Polynomial, ReductionOutcome, ReductionStats) {
        self.reduce_inner(model, spec, order, None)
    }

    /// Greedy-order reduction: repeatedly substitutes the present variable
    /// with the smallest estimated term growth. See [`GbReduction::reduce`]
    /// for why the order is free.
    fn reduce_greedy_inner(
        &self,
        model: &AlgebraicModel,
        spec: &Polynomial,
        mut tracker: Option<&mut VanishingTracker>,
    ) -> (Polynomial, ReductionOutcome, ReductionStats) {
        let start = Instant::now();
        let mut stats = ReductionStats::default();
        let mut r = spec.clone();
        let mut scratch = Polynomial::zero();
        let mut occurrences: FastMap<Var, usize> = FastMap::default();
        stats.peak_terms = r.num_terms();
        loop {
            // Count, per substitutable variable, the number of terms it
            // appears in. One pass over the remainder per step — the same
            // asymptotic cost as the substitution itself.
            occurrences.clear();
            for (m, _) in r.iter() {
                for u in m.vars() {
                    if !model.is_input(u) && model.tail(u).is_some() {
                        *occurrences.entry(u).or_insert(0) += 1;
                    }
                }
            }
            // Only variables of the highest present logic level are eligible:
            // any lower-level substitution could be undone by a later
            // higher-level one (tails only mention strictly lower levels), so
            // restricting to the top level guarantees every variable is
            // substituted at most once, exactly like the reverse topological
            // order. Within the level the order is free; take the smallest
            // estimated growth (`occurrences x (tail size - 1)`), tie-broken
            // by variable index for determinism.
            let top_level = occurrences.keys().map(|&u| model.level(u)).max();
            let candidate = occurrences
                .iter()
                .filter(|(&u, _)| Some(model.level(u)) == top_level)
                .map(|(&u, &occ)| {
                    let tail_terms = model.tail(u).map(Polynomial::num_terms).unwrap_or(0);
                    (occ * tail_terms.saturating_sub(1), u.0)
                })
                .min();
            let v = match candidate {
                Some((_, idx)) => Var(idx),
                None => break,
            };
            let tail = model.tail(v).expect("candidate has a tail");
            r.substitute_into(v, tail, &mut scratch);
            std::mem::swap(&mut r, &mut scratch);
            stats.substitutions += 1;
            if let Some(t) = tracker.as_deref_mut() {
                stats.cancelled_vanishing += t.apply(&mut r) as u64;
            }
            if let Some(k) = self.modulus_bits {
                r.retain_non_multiples_of_pow2(k);
            }
            stats.peak_terms = stats.peak_terms.max(r.num_terms());
            if r.num_terms() > self.max_terms {
                stats.final_terms = r.num_terms();
                stats.elapsed = start.elapsed();
                return (
                    r,
                    ReductionOutcome::LimitExceeded {
                        terms: stats.peak_terms,
                    },
                    stats,
                );
            }
            if self.cancel.is_cancelled() {
                stats.final_terms = r.num_terms();
                stats.elapsed = start.elapsed();
                return (r, ReductionOutcome::Cancelled, stats);
            }
            if start.elapsed() > self.timeout || self.cancel.deadline_expired() {
                stats.final_terms = r.num_terms();
                stats.elapsed = start.elapsed();
                return (r, ReductionOutcome::TimedOut, stats);
            }
        }
        stats.final_terms = r.num_terms();
        stats.elapsed = start.elapsed();
        (r, ReductionOutcome::Completed, stats)
    }

    fn reduce_inner(
        &self,
        model: &AlgebraicModel,
        spec: &Polynomial,
        order: &[Var],
        mut tracker: Option<&mut VanishingTracker>,
    ) -> (Polynomial, ReductionOutcome, ReductionStats) {
        let start = Instant::now();
        let mut stats = ReductionStats::default();
        let mut r = spec.clone();
        // Scratch polynomial reused across every substitution of the run.
        let mut scratch = Polynomial::zero();
        stats.peak_terms = r.num_terms();
        for &v in order {
            if model.is_input(v) {
                continue;
            }
            if !r.contains_var(v) {
                continue;
            }
            let tail = match model.tail(v) {
                Some(t) => t,
                None => continue,
            };
            r.substitute_into(v, tail, &mut scratch);
            std::mem::swap(&mut r, &mut scratch);
            stats.substitutions += 1;
            if let Some(t) = tracker.as_deref_mut() {
                stats.cancelled_vanishing += t.apply(&mut r) as u64;
            }
            if let Some(k) = self.modulus_bits {
                r.retain_non_multiples_of_pow2(k);
            }
            stats.peak_terms = stats.peak_terms.max(r.num_terms());
            if r.num_terms() > self.max_terms {
                stats.final_terms = r.num_terms();
                stats.elapsed = start.elapsed();
                return (
                    r,
                    ReductionOutcome::LimitExceeded {
                        terms: stats.peak_terms,
                    },
                    stats,
                );
            }
            if self.cancel.is_cancelled() {
                stats.final_terms = r.num_terms();
                stats.elapsed = start.elapsed();
                return (r, ReductionOutcome::Cancelled, stats);
            }
            if start.elapsed() > self.timeout || self.cancel.deadline_expired() {
                stats.final_terms = r.num_terms();
                stats.elapsed = start.elapsed();
                return (r, ReductionOutcome::TimedOut, stats);
            }
        }
        stats.final_terms = r.num_terms();
        stats.elapsed = start.elapsed();
        (r, ReductionOutcome::Completed, stats)
    }
}

/// Shard the expansion of one substitution step across threads once it
/// produces at least this many candidate product terms.
const SHARD_MIN_PRODUCTS: usize = 16 * 1024;

/// Poll the cancellation token every this many generated product terms, so
/// even a single multi-second substitution step reacts to cancellation.
const CANCEL_POLL_INTERVAL: usize = 64 * 1024;

/// The incremental indexed reduction engine, a [`ReductionStrategy`] that
/// divides the whole specification by the model in one run:
///
/// * the greedy level-restricted substitution order of [`GbReduction`],
///   with ties broken toward the variable reaching the lowest output column
///   so low columns lose their support (and retire their terms) early;
/// * an [`IndexedPolynomial`] working remainder whose inverted var→term
///   index makes each substitution step touch only the terms that mention
///   the substituted variable;
/// * canonical `mod 2^k` coefficients, so modular cancellation happens at
///   insert instead of in a post-step sweep;
/// * retirement of fully-substituted (input-only) terms into an inert
///   accumulator outside the hot path;
/// * vanishing checked on the ingested spec and on newly created monomials
///   only, through the run's unit-propagation closure index
///   ([`crate::ClosureVanishing`], when the run's rules enable it).
///
/// The candidate rule is [`GbReduction`]'s and the rewritten model stays a
/// Gröbner basis, so the normal form is order-independent: a completed run
/// gives the same remainder (and hence verdict and counterexample) as the
/// scan engine; the engines differ only in per-step cost.
///
/// The presets differ only in [`IndexedReduction::threads`]:
/// [`crate::Method::MtLrIdx`] runs on one thread, [`crate::Method::MtLrPar`]
/// shards the expansion of every large substitution step over term ranges
/// across [`crate::Budget::effective_threads`] scoped workers. Each worker
/// expands its range into a private exact partial that is folded into the
/// store afterwards; exact addition commutes with the canonical `mod 2^k`
/// residue, so remainders, counters, verdicts and counterexamples are
/// bit-identical for any thread count.
#[derive(Debug, Clone, Copy, Default)]
pub struct IndexedReduction {
    /// Threads a large substitution step is sharded over; `0` defers to
    /// [`crate::Budget::effective_threads`].
    pub threads: usize,
}

impl ReductionStrategy for IndexedReduction {
    fn name(&self) -> &str {
        "indexed+vanishing"
    }

    fn reduce(
        &self,
        model: &AlgebraicModel,
        spec: &Polynomial,
        modulus_bits: Option<u32>,
        ctx: &PhaseContext,
    ) -> (Polynomial, ReductionOutcome, ReductionStats) {
        let start = Instant::now();
        let closure = ctx.closure_index(model);
        let engine = FusedReduction {
            model,
            vanish: closure.enabled().then_some(&*closure),
            modulus_bits,
            max_terms: ctx.budget.max_terms,
            token: &ctx.token,
            shard_threads: match self.threads {
                0 => ctx.budget.effective_threads(),
                n => n,
            },
        };
        let (r, outcome, mut stats) = engine.reduce(spec);
        stats.elapsed = start.elapsed();
        (r, outcome, stats)
    }
}

/// One run of [`IndexedReduction`]: the borrowed model, closure index and
/// limits of the phase.
struct FusedReduction<'a> {
    model: &'a AlgebraicModel,
    vanish: Option<&'a ClosureVanishing>,
    modulus_bits: Option<u32>,
    max_terms: usize,
    token: &'a DeadlineToken,
    shard_threads: usize,
}

impl FusedReduction<'_> {
    fn reduce(&self, spec: &Polynomial) -> (Polynomial, ReductionOutcome, ReductionStats) {
        let model = self.model;
        let mut stats = ReductionStats::default();
        let mut scratch = self.vanish.map(ClosureVanishing::scratch);

        // The vanishing rules are applied to the incoming spec once;
        // afterwards only newly created monomials can vanish (the property is
        // static per monomial), so surviving terms are never re-checked.
        let mut initial = spec.clone();
        if let (Some(van), Some(s)) = (self.vanish, scratch.as_mut()) {
            stats.cancelled_vanishing += initial.retain_terms(|m| !van.vanishes(m, s)) as u64;
        }

        // The substitutable variables: everything with a model tail. Inputs
        // and tail-less variables are never substituted, so terms made only
        // of those retire out of the indexed hot path.
        let tracked: Vec<bool> = (0..model.var_count())
            .map(|i| {
                let v = Var(i as u32);
                !model.is_input(v) && model.tail(v).is_some()
            })
            .collect();

        // Ingest into the indexed store: coefficients become canonical
        // `mod 2^k` (multiples of `2^k` cancel at insert — the incremental
        // form of the old post-step drop sweep), occurrence counts and the
        // inverted index are maintained from here on by the store itself.
        let mut r = IndexedPolynomial::from_polynomial(&initial, tracked, self.modulus_bits);
        drop(initial);
        stats.peak_terms = r.num_terms();

        // Column retirement accounting: a column is "active" while some live
        // term mentions a tracked variable reaching it, and "retires" when it
        // loses its last such occurrence — from then on all of its terms are
        // input-only and sit in the inert accumulator, outside the indexed
        // hot path. The active mask is recomputed during the candidate scan
        // (which already walks every occurrence count).
        let mut active_cols = 0u64;
        for (i, &occ) in r.occurrence_counts().iter().enumerate() {
            if occ > 0 {
                active_cols |= model.column_mask(Var(i as u32));
            }
        }
        let mut retired_cols = 0u64;

        let done = |r: IndexedPolynomial, outcome: ReductionOutcome, mut stats: ReductionStats| {
            stats.index_hits = r.index_hits();
            stats.final_terms = r.num_terms();
            (r.into_polynomial(), outcome, stats)
        };

        loop {
            // Candidate selection — the same rule as `GbReduction`: among the
            // variables of the highest present logic level, the smallest
            // estimated growth `occurrences x (tail size - 1)`, tie-broken by
            // variable index. The column weight ranks before the growth
            // estimate, so low columns retire early; any tie-break yields the
            // same final remainder (the model is a Gröbner basis).
            let mut best: Option<(usize, u32, usize, u32)> = None; // (level, colw, growth, idx)
            let mut next_active = 0u64;
            for (i, &occ) in r.occurrence_counts().iter().enumerate() {
                if occ == 0 {
                    continue;
                }
                let v = Var(i as u32);
                let level = model.level(v);
                let mask = model.column_mask(v);
                next_active |= mask;
                let colw = if mask != 0 {
                    63 - mask.leading_zeros()
                } else {
                    0
                };
                let tail_terms = model.tail(v).map(Polynomial::num_terms).unwrap_or(0);
                let growth = occ as usize * tail_terms.saturating_sub(1);
                let replace = match best {
                    None => true,
                    Some((bl, bc, bg, bi)) => {
                        level > bl || (level == bl && (colw, growth, v.0) < (bc, bg, bi))
                    }
                };
                if replace {
                    best = Some((level, colw, growth, v.0));
                }
            }
            let newly_retired = active_cols & !next_active & !retired_cols;
            stats.columns_retired += newly_retired.count_ones() as usize;
            retired_cols |= newly_retired;
            active_cols = next_active;
            let v = match best {
                Some((_, _, _, idx)) => Var(idx),
                None => break,
            };

            // In-place substitution through the inverted index: only the
            // terms actually containing `v` are touched.
            let tail = model.tail(v).expect("candidate has a tail");
            let extracted = r.extract_terms_containing(v);

            let products = extracted.len() * tail.num_terms();
            let cancelled = if self.shard_threads > 1 && products >= SHARD_MIN_PRODUCTS {
                self.expand_sharded(&mut r, &extracted, tail, v)
            } else {
                self.expand_serial(&mut r, &extracted, tail, v, scratch.as_mut())
            };
            let cancelled = match cancelled {
                Some(c) => c,
                None => return done(r, self.token_stop(), stats),
            };
            stats.cancelled_vanishing += cancelled;
            stats.substitutions += 1;

            stats.peak_terms = stats.peak_terms.max(r.num_terms());
            if r.num_terms() > self.max_terms {
                let outcome = ReductionOutcome::LimitExceeded {
                    terms: stats.peak_terms,
                };
                return done(r, outcome, stats);
            }
            if self.token.expired() {
                return done(r, self.token_stop(), stats);
            }
        }
        done(r, ReductionOutcome::Completed, stats)
    }

    /// Why an expired token stopped the run: an explicit cancel wins over
    /// the deadline.
    fn token_stop(&self) -> ReductionOutcome {
        if self.token.is_cancelled() {
            ReductionOutcome::Cancelled
        } else {
            ReductionOutcome::TimedOut
        }
    }

    /// Expands `extracted x tail` into `r`, checking the vanishing rules on
    /// each product before it is materialized (when the extracted term's
    /// `rest` already vanishes on its own, the whole tail expansion is
    /// skipped). Returns the number of cancelled (vanishing) products, or
    /// `None` when the token fired mid-step.
    fn expand_serial(
        &self,
        r: &mut IndexedPolynomial,
        extracted: &[(Monomial, Int)],
        tail: &Polynomial,
        v: Var,
        mut scratch: Option<&mut VanishScratch>,
    ) -> Option<u64> {
        let mut cancelled = 0u64;
        let mut since_poll = 0usize;
        for (m, c) in extracted {
            let rest = m.without(v);
            if let (Some(van), Some(s)) = (self.vanish, scratch.as_deref_mut()) {
                if van.set_rest(&rest, s) {
                    cancelled += tail.num_terms() as u64;
                    continue;
                }
            }
            for (tm, tc) in tail.iter() {
                since_poll += 1;
                if since_poll >= CANCEL_POLL_INTERVAL {
                    since_poll = 0;
                    if self.token.expired() {
                        return None;
                    }
                }
                if let (Some(van), Some(s)) = (self.vanish, scratch.as_deref_mut()) {
                    if van.rest_union_vanishes(tm, s) {
                        cancelled += 1;
                        continue;
                    }
                }
                r.add_term(tm.mul(&rest), tc * c);
            }
        }
        Some(cancelled)
    }

    /// The sharded variant for large steps: the extracted terms are split
    /// into ranges, each worker expands its range into a private exact
    /// partial (with its own vanishing scratch), and the partials are folded
    /// into `r` afterwards. Addition is exact and
    /// commutative and the canonical `mod 2^k` residue of an exact sum
    /// equals the residue of the canonical sum, so the resulting term table
    /// (and hence the maintained occurrence counts) is bit-identical to the
    /// serial expansion.
    fn expand_sharded(
        &self,
        r: &mut IndexedPolynomial,
        extracted: &[(Monomial, Int)],
        tail: &Polynomial,
        v: Var,
    ) -> Option<u64> {
        let shards = self.shard_threads.min(extracted.len()).max(1);
        let chunk = extracted.len().div_ceil(shards);
        let results: Vec<Option<(Polynomial, u64)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = extracted
                .chunks(chunk)
                .map(|range| {
                    scope.spawn(move || {
                        let mut scratch = self.vanish.map(ClosureVanishing::scratch);
                        let mut local = Polynomial::zero();
                        let mut cancelled = 0u64;
                        let mut since_poll = 0usize;
                        for (m, c) in range {
                            let rest = m.without(v);
                            if let (Some(van), Some(s)) = (self.vanish, scratch.as_mut()) {
                                if van.set_rest(&rest, s) {
                                    cancelled += tail.num_terms() as u64;
                                    continue;
                                }
                            }
                            for (tm, tc) in tail.iter() {
                                since_poll += 1;
                                if since_poll >= CANCEL_POLL_INTERVAL {
                                    since_poll = 0;
                                    if self.token.expired() {
                                        return None;
                                    }
                                }
                                if let (Some(van), Some(s)) = (self.vanish, scratch.as_mut()) {
                                    if van.rest_union_vanishes(tm, s) {
                                        cancelled += 1;
                                        continue;
                                    }
                                }
                                local.add_term(tm.mul(&rest), tc * c);
                            }
                        }
                        Some((local, cancelled))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker"))
                .collect()
        });
        let mut cancelled = 0u64;
        for result in results {
            let (local, local_cancelled) = result?;
            cancelled += local_cancelled;
            for (m, c) in local.iter() {
                r.add_term(m.clone(), c.clone());
            }
        }
        Some(cancelled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::spec::Spec;
    use gbmv_genmul::MultiplierSpec;
    use gbmv_netlist::Netlist;
    use gbmv_poly::spec::{adder_spec, full_adder_spec};

    fn full_adder_netlist() -> Netlist {
        let mut nl = Netlist::new("fa");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let cin = nl.add_input("cin");
        let x = nl.xor2(a, b, "x");
        let s = nl.xor2(x, cin, "s");
        let d = nl.and2(a, b, "d");
        let t = nl.and2(x, cin, "t");
        let c = nl.or2(d, t, "c");
        nl.add_output("s", s);
        nl.add_output("c", c);
        nl
    }

    /// Example 1 of the paper: reducing the full adder specification
    /// `-2c - s + cin + b + a` by the circuit model gives remainder 0.
    #[test]
    fn full_adder_reduces_to_zero() {
        let nl = full_adder_netlist();
        let model = AlgebraicModel::from_netlist(&nl).unwrap();
        let var = |name: &str| Var(nl.find_net(name).unwrap().0);
        let spec = full_adder_spec(var("a"), var("b"), var("cin"), var("s"), var("c"));
        let (r, outcome, stats) = GbReduction::default().reduce(&model, &spec);
        assert!(outcome.is_completed());
        assert!(
            r.is_zero(),
            "remainder must vanish, got {}",
            model.render(&r)
        );
        assert_eq!(stats.substitutions, 5);
        assert!(stats.peak_terms >= 5);
    }

    #[test]
    fn faulty_full_adder_has_nonzero_remainder() {
        let mut nl = Netlist::new("fa_bad");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let cin = nl.add_input("cin");
        let x = nl.xor2(a, b, "x");
        let s = nl.xor2(x, cin, "s");
        let d = nl.and2(a, b, "d");
        let t = nl.or2(x, cin, "t"); // BUG: should be AND
        let c = nl.or2(d, t, "c");
        nl.add_output("s", s);
        nl.add_output("c", c);
        let model = AlgebraicModel::from_netlist(&nl).unwrap();
        let var = |name: &str| Var(nl.find_net(name).unwrap().0);
        let spec = full_adder_spec(var("a"), var("b"), var("cin"), var("s"), var("c"));
        let (r, outcome, _) = GbReduction::default().reduce(&model, &spec);
        assert!(outcome.is_completed());
        assert!(!r.is_zero(), "buggy adder must not verify");
        // The remainder only mentions primary inputs.
        for v in r.vars() {
            assert!(model.is_input(v), "remainder must be over inputs only");
        }
    }

    /// A 3-bit ripple carry adder verifies without any rewriting (the circuit
    /// of Example 2, on the raw gate-level model).
    #[test]
    fn ripple_carry_adder_3bit_reduces_to_zero() {
        let nl = gbmv_genmul::build_adder(3, gbmv_genmul::AdderKind::RippleCarry, false);
        let model = AlgebraicModel::from_netlist(&nl).unwrap();
        let a: Vec<Var> = (0..3)
            .map(|i| Var(nl.find_net(&format!("a{i}")).unwrap().0))
            .collect();
        let b: Vec<Var> = (0..3)
            .map(|i| Var(nl.find_net(&format!("b{i}")).unwrap().0))
            .collect();
        let s: Vec<Var> = nl.outputs().iter().map(|(_, n)| Var(n.0)).collect();
        let spec = adder_spec(&a, &b, &s, None);
        let (r, outcome, _) = GbReduction::default().reduce(&model, &spec);
        assert!(outcome.is_completed());
        assert!(r.is_zero());
    }

    /// A Kogge-Stone adder also reduces to zero on the raw model at small
    /// width (the blow-up only bites at larger widths / multipliers).
    #[test]
    fn kogge_stone_adder_4bit_reduces_to_zero() {
        let nl = gbmv_genmul::build_adder(4, gbmv_genmul::AdderKind::KoggeStone, false);
        let model = AlgebraicModel::from_netlist(&nl).unwrap();
        let a: Vec<Var> = (0..4)
            .map(|i| Var(nl.find_net(&format!("a{i}")).unwrap().0))
            .collect();
        let b: Vec<Var> = (0..4)
            .map(|i| Var(nl.find_net(&format!("b{i}")).unwrap().0))
            .collect();
        let s: Vec<Var> = nl.outputs().iter().map(|(_, n)| Var(n.0)).collect();
        let spec = adder_spec(&a, &b, &s, None);
        let (r, outcome, _) = GbReduction::default().reduce(&model, &spec);
        assert!(outcome.is_completed());
        assert!(r.is_zero());
    }

    #[test]
    fn term_limit_aborts_reduction() {
        let nl = gbmv_genmul::MultiplierSpec::parse("SP-WT-KS", 8)
            .unwrap()
            .build();
        let model = AlgebraicModel::from_netlist(&nl).unwrap();
        let a: Vec<Var> = (0..8)
            .map(|i| Var(nl.find_net(&format!("a{i}")).unwrap().0))
            .collect();
        let b: Vec<Var> = (0..8)
            .map(|i| Var(nl.find_net(&format!("b{i}")).unwrap().0))
            .collect();
        let s: Vec<Var> = nl.outputs().iter().map(|(_, n)| Var(n.0)).collect();
        let spec = gbmv_poly::spec::multiplier_spec(&a, &b, &s);
        let engine = GbReduction::new(50, Duration::from_secs(60));
        let (_, outcome, stats) = engine.reduce(&model, &spec);
        assert!(matches!(outcome, ReductionOutcome::LimitExceeded { .. }));
        assert!(stats.peak_terms > 50);
    }

    #[test]
    fn explicit_order_matches_default_for_full_adder() {
        let nl = full_adder_netlist();
        let model = AlgebraicModel::from_netlist(&nl).unwrap();
        let var = |name: &str| Var(nl.find_net(name).unwrap().0);
        let spec = full_adder_spec(var("a"), var("b"), var("cin"), var("s"), var("c"));
        let order = model.substitution_order();
        let (r1, o1, _) = GbReduction::default().reduce(&model, &spec);
        let (r2, o2, _) = GbReduction::default().reduce_with_order(&model, &spec, &order);
        assert_eq!(r1, r2);
        assert!(o1.is_completed() && o2.is_completed());
    }

    #[test]
    fn constant_gates_are_substituted() {
        let mut nl = Netlist::new("const");
        let a = nl.add_input("a");
        let zero = nl.const0("zero");
        let z = nl.or2(a, zero, "z");
        nl.add_output("z", z);
        let model = AlgebraicModel::from_netlist(&nl).unwrap();
        // spec: z - a == 0.
        let spec = Polynomial::from_terms(vec![
            (Monomial::var(Var(z.0)), Int::from(-1)),
            (Monomial::var(Var(a.0)), Int::one()),
        ]);
        let (r, outcome, _) = GbReduction::default().reduce(&model, &spec);
        assert!(outcome.is_completed());
        assert!(r.is_zero());
    }

    fn context(budget: Budget) -> PhaseContext {
        PhaseContext {
            budget,
            token: budget.token(),
            ..PhaseContext::default()
        }
    }

    fn model_and_spec(arch: &str, width: usize) -> (AlgebraicModel, Polynomial, Option<u32>) {
        let nl = MultiplierSpec::parse(arch, width).unwrap().build();
        let model = AlgebraicModel::from_netlist(&nl).unwrap();
        let (spec, modulus) = Spec::multiplier(width).instantiate(&model).unwrap();
        (model, spec, modulus)
    }

    #[test]
    fn matches_greedy_engine_remainder_mod_2k() {
        let (model, spec, modulus) = model_and_spec("SP-WT-CL", 4);
        let k = modulus.unwrap();
        let ctx = context(Budget::default());
        let engine = ctx.reduction_engine(modulus);
        let (greedy, outcome, _) = engine.reduce(&model, &spec);
        assert!(outcome.is_completed());
        for threads in [1, 2, 8] {
            let idx = IndexedReduction { threads };
            let (r, outcome, stats) = idx.reduce(&model, &spec, modulus, &ctx);
            assert!(outcome.is_completed(), "{threads} threads: {outcome:?}");
            assert_eq!(
                r.mod_coeffs_pow2(k),
                greedy.mod_coeffs_pow2(k),
                "{threads} threads must reproduce the greedy remainder"
            );
            assert!(stats.substitutions > 0);
            assert!(stats.index_hits > 0, "indexed extraction must be exercised");
        }
    }

    #[test]
    fn occurrence_counts_survive_a_full_reduction() {
        // A correct multiplier reduces to a zero remainder, which exercises
        // every incremental count-update path (insert, cancel, mod-drop,
        // vanishing skip) and ends with all counts back at zero — the loop
        // only terminates when no tracked variable is left.
        let (model, spec, modulus) = model_and_spec("SP-CT-BK", 4);
        let ctx = context(Budget::default());
        let idx = IndexedReduction::default();
        let (r, outcome, stats) = idx.reduce(&model, &spec, modulus, &ctx);
        assert!(outcome.is_completed());
        assert!(r.is_zero(), "correct multiplier must verify");
        assert!(stats.cancelled_vanishing > 0);
        assert!(
            stats.columns_retired > 0,
            "a completed reduction substitutes every column's support"
        );
    }

    #[test]
    fn term_limit_is_reported() {
        let (model, spec, modulus) = model_and_spec("SP-WT-KS", 6);
        let ctx = context(Budget::default().with_max_terms(50));
        let idx = IndexedReduction::default();
        let (_, outcome, stats) = idx.reduce(&model, &spec, modulus, &ctx);
        assert!(matches!(outcome, ReductionOutcome::LimitExceeded { .. }));
        assert!(stats.peak_terms > 50);
    }

    #[test]
    fn cancelled_token_stops_the_engine() {
        let (model, spec, modulus) = model_and_spec("SP-WT-CL", 4);
        let budget = Budget::default();
        let token = DeadlineToken::new();
        token.cancel();
        let ctx = PhaseContext {
            budget,
            token,
            ..PhaseContext::default()
        };
        let idx = IndexedReduction::default();
        let (_, outcome, _) = idx.reduce(&model, &spec, modulus, &ctx);
        assert_eq!(outcome, ReductionOutcome::Cancelled);
    }

    #[test]
    fn expired_deadline_stops_as_timed_out() {
        let (model, spec, modulus) = model_and_spec("SP-WT-CL", 4);
        let ctx = PhaseContext {
            token: DeadlineToken::with_deadline(Duration::ZERO),
            ..PhaseContext::default()
        };
        for threads in [1, 2] {
            let (_, outcome, _) = IndexedReduction { threads }.reduce(&model, &spec, modulus, &ctx);
            assert_eq!(outcome, ReductionOutcome::TimedOut, "{threads} threads");
        }
    }

    #[test]
    fn adder_exact_remainder_matches_greedy() {
        // No modulus: coefficients stay exact, so the remainder must equal
        // the greedy engine's bit for bit, sharded or not.
        let nl = gbmv_genmul::build_adder(6, gbmv_genmul::AdderKind::KoggeStone, false);
        let model = AlgebraicModel::from_netlist(&nl).unwrap();
        let (spec, modulus) = Spec::adder(6).instantiate(&model).unwrap();
        assert_eq!(modulus, None);
        let ctx = context(Budget::default());
        let (greedy, outcome, _) =
            GbReduction::new(10_000_000, std::time::Duration::MAX).reduce(&model, &spec);
        assert!(outcome.is_completed());
        for threads in [1, 4] {
            let idx = IndexedReduction { threads };
            let (r, outcome, _) = idx.reduce(&model, &spec, None, &ctx);
            assert!(outcome.is_completed());
            assert_eq!(r, greedy);
        }
    }
}
