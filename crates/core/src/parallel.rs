//! The parallel output-cone verification engine.
//!
//! [`ParallelReduction`] is a [`ReductionStrategy`] that decomposes the
//! Step-3 reduction along the circuit's output cones and runs the pieces on a
//! pool of scoped worker threads sharing one work queue:
//!
//! 1. **Cone decomposition.** Each primary output's backward slice is
//!    computed on the (rewritten) model and cones that overlap beyond a
//!    threshold are merged ([`gbmv_netlist::cone::group_overlapping_cones`]).
//!    Carry-propagate arithmetic merges into one group — splitting
//!    carry-coupled columns forfeits the word-level cancellation between
//!    adjacent output bits and blows up exponentially — while genuinely
//!    independent output clusters become separate work items.
//! 2. **Spec partitioning.** The specification polynomial is split into one
//!    partial per cone group (terms are routed by their output/internal
//!    variables; pure-input terms need no reduction and go to a residual
//!    bucket). Reduction is linear, so reducing the partials independently
//!    and summing the partial remainders yields exactly the remainder of the
//!    whole-spec reduction.
//! 3. **Fused indexed per-cone reduction.** Each partial is reduced by
//!    `FusedReduction`, which keeps the greedy level-restricted
//!    substitution order of [`crate::GbReduction`] but stores the working
//!    remainder in an [`IndexedPolynomial`]: an inverted var→term-handle
//!    index makes each substitution step touch only the terms that actually
//!    mention the substituted variable, coefficients are kept canonical
//!    `mod 2^k` so modular cancellation happens at insert instead of in a
//!    post-step sweep, and terms whose support is fully substituted retire
//!    into an input-only accumulator (the incremental form of column-wise
//!    spec reduction: once no live term mentions a tracked variable reaching
//!    an output column, that column's terms never re-enter the hot path).
//!    Ties in the greedy order are broken toward the lowest output column
//!    (`FusedReduction::column_order`) so low columns retire early.
//!    Vanishing is checked on newly created monomials only, through the
//!    unit-propagation closure index ([`crate::ClosureVanishing`]), which
//!    covers the paper's XOR-AND/NOR patterns as well as deeper
//!    XOR-chain/majority contradictions. For a single giant cone the
//!    expansion of one substitution step is sharded over term ranges across
//!    the worker threads.
//! 4. **Deterministic recombination.** Partial remainders are summed in cone
//!    order. Integer term arithmetic is exact and the cone grouping, the
//!    substitution order within each cone, and the vanishing/modular dropping
//!    are all independent of the thread count, so remainders, verdicts and
//!    counterexamples are bit-identical for any `threads` value. (For
//!    non-definitive stops the outcome *kind* is still thread-independent,
//!    but the `LimitExceeded` term diagnostic may differ: a single worker
//!    stops scheduling cones after the first failure, more workers may
//!    observe several.)
//!
//! All workers poll the session's shared [`DeadlineToken`]; a cancellation or
//! deadline expiry stops every cone at its next polling point and the scoped
//! pool joins before the strategy returns.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use gbmv_netlist::cone::group_overlapping_cones;
use gbmv_poly::{IndexedPolynomial, Int, Monomial, Polynomial, Var};

use crate::budget::DeadlineToken;
use crate::model::AlgebraicModel;
use crate::reduction::{ReductionOutcome, ReductionStats};
use crate::strategy::{PhaseContext, ReductionStrategy};
use crate::vanishing::{ClosureVanishing, VanishScratch};

/// Shard the expansion of one substitution step across threads once it
/// produces at least this many candidate product terms.
const SHARD_MIN_PRODUCTS: usize = 16 * 1024;

/// Poll the cancellation token every this many generated product terms, so
/// even a single multi-second substitution step reacts to cancellation.
const CANCEL_POLL_INTERVAL: usize = 64 * 1024;

/// A [`ReductionStrategy`] running the Gröbner basis reduction per output
/// cone on a scoped worker pool (see the module docs).
///
/// The preset [`crate::Method::MtLrPar`] pairs this engine (with the
/// vanishing rules on) with logic-reduction rewriting; the worker count
/// defaults to the budget's [`crate::Budget::threads`] knob.
///
/// [`crate::Budget::max_terms`] bounds every *individual* intermediate
/// polynomial, exactly as for [`crate::GbReduction`] — so with several
/// disjoint cone jobs in flight the aggregate resident terms can reach
/// `jobs x max_terms` (the same way a [`crate::Portfolio`] race holds one
/// budget per racing strategy). Size `max_terms` for the available memory
/// divided by the expected concurrency when that matters.
#[derive(Debug, Clone, Copy)]
pub struct ParallelReduction {
    /// Apply the structural vanishing rules during the reduction (required
    /// for the logic-reduction methods).
    pub vanishing: bool,
    /// Worker threads; `0` defers to [`crate::Budget::effective_threads`].
    pub threads: usize,
    /// Merge cones sharing at least this fraction of the smaller cone's
    /// variables (see [`gbmv_netlist::cone::DEFAULT_MERGE_OVERLAP`]).
    pub merge_overlap: f64,
}

impl Default for ParallelReduction {
    fn default() -> Self {
        ParallelReduction {
            vanishing: true,
            threads: 0,
            merge_overlap: gbmv_netlist::cone::DEFAULT_MERGE_OVERLAP,
        }
    }
}

impl ParallelReduction {
    /// The default engine with an explicit worker count (`0` = from the
    /// budget).
    pub fn with_threads(threads: usize) -> Self {
        ParallelReduction {
            threads,
            ..ParallelReduction::default()
        }
    }
}

impl ReductionStrategy for ParallelReduction {
    fn name(&self) -> &str {
        if self.vanishing {
            "parallel-cones+vanishing"
        } else {
            "parallel-cones"
        }
    }

    fn reduce(
        &self,
        model: &AlgebraicModel,
        spec: &Polynomial,
        modulus_bits: Option<u32>,
        ctx: &PhaseContext,
    ) -> (Polynomial, ReductionOutcome, ReductionStats) {
        let start = Instant::now();
        let threads = if self.threads > 0 {
            self.threads
        } else {
            ctx.budget.effective_threads()
        };
        let vanish = self
            .vanishing
            .then(|| ctx.closure_index(model))
            .filter(|index| index.enabled());

        // Cone decomposition over the (rewritten) model + spec partitioning.
        let groups = cone_groups(model, self.merge_overlap);
        let (mut jobs, residual) = partition_spec(model, spec, &groups);

        // Largest cones first: with more jobs than workers this keeps the
        // critical path short (the classic longest-processing-time schedule).
        let mut schedule: Vec<usize> = (0..jobs.len()).collect();
        schedule.sort_by_key(|&i| std::cmp::Reverse(jobs[i].cone_vars));

        let engine = FusedReduction {
            model,
            vanish: vanish.as_deref(),
            modulus_bits,
            max_terms: ctx.budget.max_terms,
            token: &ctx.token,
            // Threads not consumed by job-level parallelism go to intra-step
            // sharding, so a dominant merged cone still fans out when it is
            // accompanied by small disjoint jobs. (Momentary oversubscription
            // while several sharding jobs overlap is accepted — the OS
            // schedules it — in exchange for not idling workers once the
            // small jobs drain.)
            shard_threads: threads.saturating_sub(jobs.len().saturating_sub(1)).max(1),
            column_order: true,
        };

        let worker_count = threads.min(jobs.len()).max(1);
        if worker_count <= 1 {
            for &i in &schedule {
                let partial = std::mem::take(&mut jobs[i].partial);
                jobs[i].result = Some(engine.reduce(&partial));
                if !matches!(jobs[i].result, Some((_, ReductionOutcome::Completed, _))) {
                    break;
                }
            }
        } else {
            let next = AtomicUsize::new(0);
            let abort = AtomicBool::new(false);
            let slots: Vec<Mutex<Option<JobResult>>> =
                jobs.iter().map(|_| Mutex::new(None)).collect();
            let schedule = &schedule;
            let engine = &engine;
            let job_partials: Vec<Polynomial> = jobs
                .iter_mut()
                .map(|j| std::mem::take(&mut j.partial))
                .collect();
            let job_partials = &job_partials;
            std::thread::scope(|scope| {
                for _ in 0..worker_count {
                    let next = &next;
                    let abort = &abort;
                    let slots = &slots;
                    scope.spawn(move || loop {
                        let k = next.fetch_add(1, Ordering::SeqCst);
                        if k >= schedule.len() || abort.load(Ordering::SeqCst) {
                            break;
                        }
                        let i = schedule[k];
                        let result = engine.reduce(&job_partials[i]);
                        if !matches!(result.1, ReductionOutcome::Completed) {
                            abort.store(true, Ordering::SeqCst);
                        }
                        *slots[i].lock().expect("job slot") = Some(result);
                    });
                }
            });
            for (job, slot) in jobs.iter_mut().zip(slots) {
                job.result = slot.into_inner().expect("job slot");
            }
        }

        // Deterministic recombination in cone order; exact integer sums make
        // the result independent of which worker finished when.
        let mut stats = ReductionStats {
            peak_terms: spec.num_terms(),
            ..ReductionStats::default()
        };
        let mut outcome = ReductionOutcome::Completed;
        let mut combined = residual;
        for job in &jobs {
            match &job.result {
                Some((remainder, job_outcome, job_stats)) => {
                    stats.substitutions += job_stats.substitutions;
                    stats.peak_terms = stats.peak_terms.max(job_stats.peak_terms);
                    stats.cancelled_vanishing += job_stats.cancelled_vanishing;
                    stats.index_hits += job_stats.index_hits;
                    stats.columns_retired += job_stats.columns_retired;
                    merge_outcome(&mut outcome, job_outcome.clone());
                    if matches!(job_outcome, ReductionOutcome::Completed) {
                        for (m, c) in remainder.iter() {
                            combined.add_term(m.clone(), c.clone());
                        }
                    }
                }
                // Scheduled after another cone failed: the run is already
                // non-definitive, the skipped cone contributes no terms.
                None => merge_outcome(&mut outcome, ReductionOutcome::Cancelled),
            }
        }
        if let Some(k) = modulus_bits {
            combined.retain_non_multiples_of_pow2(k);
        }
        stats.peak_terms = stats.peak_terms.max(combined.num_terms());
        if combined.num_terms() > ctx.budget.max_terms {
            outcome = ReductionOutcome::LimitExceeded {
                terms: combined.num_terms(),
            };
        }
        // A cone skipped because of the shared token reports `Cancelled` even
        // when the deadline (not an explicit cancel) fired; normalize like
        // the session driver does.
        if matches!(outcome, ReductionOutcome::Cancelled)
            && !ctx.token.is_cancelled()
            && ctx.token.deadline_expired()
        {
            outcome = ReductionOutcome::TimedOut;
        }
        stats.final_terms = combined.num_terms();
        stats.elapsed = start.elapsed();
        (combined, outcome, stats)
    }
}

pub(crate) type JobResult = (Polynomial, ReductionOutcome, ReductionStats);

/// One cone group's share of the specification.
struct ConeJob {
    /// Number of model variables in the cone (scheduling weight).
    cone_vars: usize,
    /// The spec terms routed to this cone.
    partial: Polynomial,
    result: Option<JobResult>,
}

/// Keeps `LimitExceeded` over cancellation (a genuine divergence must not be
/// masked by a concurrent cancel) and any non-completion over `Completed`;
/// concurrent `LimitExceeded`s keep the largest term count. The outcome
/// *kind* is thread-count-independent for deterministic (term-limit) stops;
/// the `terms` diagnostic can still vary with scheduling, because a
/// single-worker run stops scheduling cones after the first failure while a
/// multi-worker run may observe several.
fn merge_outcome(acc: &mut ReductionOutcome, next: ReductionOutcome) {
    use ReductionOutcome::*;
    match (&mut *acc, next) {
        (LimitExceeded { terms: a }, LimitExceeded { terms: b }) => *a = (*a).max(b),
        (LimitExceeded { .. }, _) => {}
        (_, next @ LimitExceeded { .. }) => *acc = next,
        (Cancelled | TimedOut, _) => {}
        (_, next @ (Cancelled | TimedOut)) => *acc = next,
        _ => {}
    }
}

/// Computes the backward cone of every primary output over the model's tails
/// and merges overlapping cones. Returns, per group, the sorted variable
/// indices of the merged slice.
fn cone_groups(model: &AlgebraicModel, merge_overlap: f64) -> Vec<ConeGroup> {
    let outputs = model.outputs();
    let mut per_output: Vec<Vec<u32>> = Vec::with_capacity(outputs.len());
    for &out in outputs {
        per_output.push(model_cone(model, &[out]));
    }
    let grouping = group_overlapping_cones(&per_output, merge_overlap);
    grouping
        .into_iter()
        .map(|members| {
            let roots: Vec<Var> = members.iter().map(|&i| outputs[i]).collect();
            ConeGroup {
                vars: model_cone(model, &roots),
            }
        })
        .collect()
}

struct ConeGroup {
    /// Sorted variable indices of the merged backward slice.
    vars: Vec<u32>,
}

/// The transitive fan-in of `roots` following the model's (possibly
/// rewritten) tails; sorted variable indices, roots included.
fn model_cone(model: &AlgebraicModel, roots: &[Var]) -> Vec<u32> {
    let mut visited = vec![false; model.var_count()];
    let mut stack: Vec<Var> = roots.to_vec();
    let mut cone = Vec::new();
    while let Some(v) = stack.pop() {
        if visited[v.index()] {
            continue;
        }
        visited[v.index()] = true;
        cone.push(v.0);
        if let Some(tail) = model.tail(v) {
            for u in tail.vars() {
                if !visited[u.index()] {
                    stack.push(u);
                }
            }
        }
    }
    cone.sort_unstable();
    cone
}

/// Splits the spec into per-cone partials plus a residual of pure-input
/// terms. Terms are routed by their first non-input variable; a term whose
/// variables fall outside every cone lands in a catch-all job (reduction is
/// global over the model, so any routing is sound — the cones only shape the
/// parallelism).
fn partition_spec(
    model: &AlgebraicModel,
    spec: &Polynomial,
    groups: &[ConeGroup],
) -> (Vec<ConeJob>, Polynomial) {
    let mut var_to_group: Vec<usize> = vec![usize::MAX; model.var_count()];
    for (g, group) in groups.iter().enumerate().rev() {
        for &v in &group.vars {
            var_to_group[v as usize] = g;
        }
    }
    let mut jobs: Vec<ConeJob> = groups
        .iter()
        .map(|g| ConeJob {
            cone_vars: g.vars.len(),
            partial: Polynomial::zero(),
            result: None,
        })
        .collect();
    let mut residual = Polynomial::zero();
    let mut catch_all: Option<usize> = None;
    for (m, c) in spec.iter() {
        match m.vars().find(|&v| !model.is_input(v)) {
            None => residual.add_term(m.clone(), c.clone()),
            Some(v) => {
                let g = var_to_group[v.index()];
                let g = if g != usize::MAX {
                    g
                } else {
                    *catch_all.get_or_insert_with(|| {
                        jobs.push(ConeJob {
                            cone_vars: 0,
                            partial: Polynomial::zero(),
                            result: None,
                        });
                        jobs.len() - 1
                    })
                };
                jobs[g].partial.add_term(m.clone(), c.clone());
            }
        }
    }
    jobs.retain(|j| !j.partial.is_zero());
    (jobs, residual)
}

/// The fused incremental reduction engine shared by [`ParallelReduction`]
/// (per cone group) and [`crate::reduction::IndexedReduction`] (whole spec):
/// greedy level-restricted substitution order (identical candidate rule to
/// [`crate::GbReduction`], optionally tie-broken toward the lowest output
/// column), an [`IndexedPolynomial`] working remainder whose inverted
/// var→term index makes each step touch only the affected terms, canonical
/// `mod 2^k` coefficients (modular cancellation at insert, no post-step
/// sweep), retirement of fully-substituted (input-only) terms out of the hot
/// path, closure-based vanishing checks on newly created monomials only, and
/// optional term-range sharding of the expansion across scoped threads.
pub(crate) struct FusedReduction<'a> {
    pub(crate) model: &'a AlgebraicModel,
    pub(crate) vanish: Option<&'a ClosureVanishing>,
    pub(crate) modulus_bits: Option<u32>,
    pub(crate) max_terms: usize,
    pub(crate) token: &'a DeadlineToken,
    pub(crate) shard_threads: usize,
    /// Break greedy ties toward the variable reaching the lowest output
    /// column, so low columns lose their support (and retire their terms)
    /// early. Any tie-break yields the same final remainder — the rewritten
    /// model stays a Gröbner basis, so the normal form is order-independent.
    pub(crate) column_order: bool,
}

impl FusedReduction<'_> {
    pub(crate) fn reduce(&self, partial: &Polynomial) -> JobResult {
        let model = self.model;
        let mut stats = ReductionStats::default();
        let mut scratch = self.vanish.map(ClosureVanishing::scratch);

        // The vanishing rules are applied to the incoming partial once;
        // afterwards only newly created monomials can vanish (the property is
        // static per monomial), so surviving terms are never re-checked.
        let mut initial = partial.clone();
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
        let trace = std::env::var("GBMV_TRACE_RED").is_ok_and(|v| v == "1");

        let done = |r: IndexedPolynomial, outcome: ReductionOutcome, mut stats: ReductionStats| {
            stats.index_hits = r.index_hits();
            stats.final_terms = r.num_terms();
            (r.into_polynomial(), outcome, stats)
        };

        loop {
            // Candidate selection — the same rule as `GbReduction`: among the
            // variables of the highest present logic level, the smallest
            // estimated growth `occurrences x (tail size - 1)`, tie-broken by
            // variable index; with `column_order` the column weight ranks
            // before the growth estimate.
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
                let colw = if self.column_order && mask != 0 {
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
            if trace {
                eprintln!(
                    "red step {} var {} level {} occ {} tail {} store {}",
                    stats.substitutions,
                    model.name(v),
                    model.level(v),
                    extracted.len(),
                    tail.num_terms(),
                    r.num_terms(),
                );
            }

            let products = extracted.len() * tail.num_terms();
            let cancelled = if self.shard_threads > 1 && products >= SHARD_MIN_PRODUCTS {
                self.expand_sharded(&mut r, &extracted, tail, v)
            } else {
                self.expand_serial(&mut r, &extracted, tail, v, scratch.as_mut())
            };
            let cancelled = match cancelled {
                Some(c) => c,
                None => return done(r, ReductionOutcome::Cancelled, stats),
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
            if self.token.is_cancelled() {
                return done(r, ReductionOutcome::Cancelled, stats);
            }
            if self.token.deadline_expired() {
                return done(r, ReductionOutcome::TimedOut, stats);
            }
        }
        done(r, ReductionOutcome::Completed, stats)
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

    /// The sharded variant for the single-giant-cone case: the extracted
    /// terms are split into ranges, each worker expands its range into a
    /// private exact partial (with its own vanishing scratch), and the
    /// partials are folded into `r` afterwards. Addition is exact and
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
    use crate::reduction::GbReduction;
    use crate::spec::Spec;
    use gbmv_genmul::MultiplierSpec;

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
            let par = ParallelReduction::with_threads(threads);
            let (r, outcome, stats) = par.reduce(&model, &spec, modulus, &ctx);
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
        let par = ParallelReduction::default();
        let (r, outcome, stats) = par.reduce(&model, &spec, modulus, &ctx);
        assert!(outcome.is_completed());
        assert!(r.is_zero(), "correct multiplier must verify");
        assert!(stats.cancelled_vanishing > 0);
        assert!(
            stats.columns_retired > 0,
            "a completed reduction substitutes every cone's support"
        );
    }

    #[test]
    fn term_limit_is_reported() {
        let (model, spec, modulus) = model_and_spec("SP-WT-KS", 6);
        let ctx = context(Budget::default().with_max_terms(50));
        let par = ParallelReduction::default();
        let (_, outcome, stats) = par.reduce(&model, &spec, modulus, &ctx);
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
        let par = ParallelReduction::default();
        let (_, outcome, _) = par.reduce(&model, &spec, modulus, &ctx);
        assert_eq!(outcome, ReductionOutcome::Cancelled);
    }

    #[test]
    fn adder_exact_remainder_matches_greedy() {
        // No modulus: the partial sums are exact, so the combined remainder
        // must equal the greedy engine's bit for bit.
        let nl = gbmv_genmul::build_adder(6, gbmv_genmul::AdderKind::KoggeStone, false);
        let model = AlgebraicModel::from_netlist(&nl).unwrap();
        let (spec, modulus) = Spec::adder(6).instantiate(&model).unwrap();
        assert_eq!(modulus, None);
        let ctx = context(Budget::default());
        let (greedy, outcome, _) =
            GbReduction::new(10_000_000, std::time::Duration::MAX).reduce(&model, &spec);
        assert!(outcome.is_completed());
        for threads in [1, 4] {
            let par = ParallelReduction::with_threads(threads);
            let (r, outcome, _) = par.reduce(&model, &spec, None, &ctx);
            assert!(outcome.is_completed());
            assert_eq!(r, greedy);
        }
    }
}
