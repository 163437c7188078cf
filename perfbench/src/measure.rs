//! One operation: an instance verified from netlist to verdict through the
//! public `Session` API, optionally traced layer by layer.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::{Duration, Instant};

use gbmv_core::{Outcome, Phase, Progress, Report, Session, Spec};
use gbmv_netlist::cone;
use gbmv_sat::{check_against_product, EquivalenceResult};

use crate::oracle::{self, Class};
use crate::trace::Tracer;
use crate::workload::{Instance, Workload, DEADLINE};

/// Conflict budget of the SAT miter baseline in traced runs.
pub const SAT_CONFLICTS: u64 = 20_000;

/// Names of the deterministic counters of one operation, in the order of
/// [`Op::counters`].
pub const COUNTERS: [&str; 14] = [
    "extract.model_vars",
    "model.polynomials",
    "model.monomials",
    "rewrite.substitutions",
    "rewrite.index_hits",
    "rewrite.peak_terms",
    "rewrite.cancelled_vanishing",
    "rewrite.columns_retired",
    "reduce.substitutions",
    "reduce.index_hits",
    "reduce.peak_terms",
    "reduce.final_terms",
    "reduce.columns_retired",
    "reduce.cancelled_vanishing",
];

/// Layer times and counts measured only by a traced operation.
#[derive(Default, Clone)]
pub struct Layers {
    pub extract: Duration,
    pub column_masks: Duration,
    pub spec: Duration,
    pub spec_terms: usize,
    pub run: Duration,
    pub rewrite: Duration,
    pub reduce: Duration,
    pub cex: Duration,
    /// SAT miter time and whether it reached a verdict (mutants only).
    pub sat: Option<(Duration, bool)>,
}

/// Why an undecided operation stopped.
#[derive(Clone)]
pub struct Stop {
    pub phase: Phase,
    /// Peak terms of the phase that stopped.
    pub peak_terms: usize,
}

pub struct Op {
    /// Netlist to verdict: `Session::extract` plus `Session::run`.
    pub elapsed: Duration,
    pub class: Class,
    /// One letter per outcome, for the verdict vector: `V` verified, `M`
    /// mismatch with counterexample, `m` without, `W`/`D` budget stop in
    /// rewriting/reduction, `C` cancelled, `E` error or panic.
    pub verdict: char,
    /// Why the operation is not `Decided`, if it is not.
    pub detail: String,
    pub counters: [u64; COUNTERS.len()],
    pub stop: Option<Stop>,
    pub layers: Layers,
}

fn counters(report: &Report, model_vars: usize) -> [u64; COUNTERS.len()] {
    let s = &report.stats;
    let (rw, rd) = (&s.rewrite, &s.reduction);
    [
        model_vars as u64,
        s.model_polynomials as u64,
        s.model_monomials as u64,
        rw.substitutions as u64,
        rw.index_hits,
        rw.peak_terms as u64,
        rw.cancelled_vanishing,
        rw.columns_retired as u64,
        rd.substitutions as u64,
        rd.index_hits,
        rd.peak_terms as u64,
        rd.final_terms as u64,
        rd.columns_retired as u64,
        rd.cancelled_vanishing,
    ]
}

fn verdict_letter(outcome: &Outcome) -> char {
    match outcome {
        Outcome::Verified => 'V',
        Outcome::Mismatch {
            counterexample: Some(_),
            ..
        } => 'M',
        Outcome::Mismatch { .. } => 'm',
        Outcome::ResourceLimit {
            phase: Phase::Rewrite,
        } => 'W',
        Outcome::ResourceLimit { .. } => 'D',
        Outcome::Cancelled => 'C',
    }
}

type Events = Rc<RefCell<Vec<(Progress, Instant)>>>;

/// Verifies one instance. With a tracer, phase events are collected through
/// the `Progress` observer, and the layers the run does not time on its own
/// (column masks, spec instantiation, the SAT miter) are called once more
/// after the verdict, outside `elapsed`.
pub fn verify(w: &Workload, inst: &Instance, id: usize, tracer: Option<&mut Tracer>) -> Op {
    let events: Events = Rc::default();
    let traced = tracer.is_some();
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let session = Session::extract(&inst.netlist).map_err(|e| e.to_string())?;
        let extracted = Instant::now();
        let mut session = session
            .spec(Spec::multiplier(inst.width))
            .strategy(w.method)
            .budget(w.budget());
        if traced {
            let sink = Rc::clone(&events);
            session =
                session.observer(move |p| sink.borrow_mut().push((p.clone(), Instant::now())));
        }
        let report = session.run().map_err(|e| e.to_string())?;
        Ok::<_, String>((session, report, extracted))
    }));
    let end = Instant::now();
    let elapsed = end - start;

    let (session, report, extracted) = match result {
        Ok(Ok(done)) => done,
        failure => {
            let detail = match failure {
                Ok(Err(e)) => format!("error: {e}"),
                _ => "panic".to_string(),
            };
            return Op {
                elapsed,
                class: Class::Failed,
                verdict: 'E',
                detail,
                counters: [0; COUNTERS.len()],
                stop: None,
                layers: Layers::default(),
            };
        }
    };
    let (class, detail) = oracle::judge(inst, &report.outcome);
    let stop = match report.outcome {
        Outcome::ResourceLimit { phase } => Some(Stop {
            phase,
            peak_terms: match phase {
                Phase::Rewrite => report.stats.rewrite.peak_terms,
                _ => report.stats.reduction.peak_terms,
            },
        }),
        _ => None,
    };
    let mut op = Op {
        elapsed,
        class,
        verdict: verdict_letter(&report.outcome),
        detail,
        counters: counters(&report, session.model().var_count()),
        stop,
        layers: Layers::default(),
    };
    if let Some(t) = tracer {
        op.layers = trace_layers(t, inst, id, &session, (start, extracted, end), &events);
    }
    op
}

/// Records the spans of a traced operation and probes the layers that
/// `Session::run` does not report on its own.
fn trace_layers(
    t: &mut Tracer,
    inst: &Instance,
    id: usize,
    session: &Session,
    (start, extracted, end): (Instant, Instant, Instant),
    events: &Events,
) -> Layers {
    let mut layers = Layers {
        extract: extracted - start,
        run: end - extracted,
        ..Layers::default()
    };
    let root = t.span("verify", start, end, None, id);
    t.span("extract", start, extracted, Some(root), id);
    let run = t.span("session.run", extracted, end, Some(root), id);
    let mut open: Option<Instant> = None;
    for (event, at) in events.borrow().iter() {
        match *event {
            Progress::PhaseStarted { .. } => open = Some(*at),
            Progress::PhaseFinished { phase, .. } => {
                let Some(began) = open.take() else {
                    continue;
                };
                let (name, total) = match phase {
                    Phase::Rewrite => ("rewrite", &mut layers.rewrite),
                    Phase::Reduce => ("reduce", &mut layers.reduce),
                    Phase::Counterexample | Phase::Sat => ("counterexample", &mut layers.cex),
                };
                *total += *at - began;
                t.span(name, began, *at, Some(run), id);
            }
            Progress::RewriteIndexStats { .. } => {}
        }
    }

    let probe = t.open("probe", None, id);
    let began = Instant::now();
    std::hint::black_box(cone::output_column_masks(&inst.netlist));
    let done = Instant::now();
    layers.column_masks = done - began;
    t.span("extract.column_masks", began, done, Some(probe), id);

    let began = Instant::now();
    let spec = Spec::multiplier(inst.width).instantiate(session.model());
    let done = Instant::now();
    layers.spec = done - began;
    layers.spec_terms = spec.map_or(0, |(poly, _)| poly.num_terms());
    t.span("spec.instantiate", began, done, Some(probe), id);

    if inst.buggy {
        let began = Instant::now();
        let result = check_against_product(&inst.netlist, inst.width, Some(SAT_CONFLICTS));
        let done = Instant::now();
        layers.sat = Some((
            done - began,
            matches!(result, EquivalenceResult::NotEquivalent(_)),
        ));
        t.span("sat.miter", began, done, Some(probe), id);
    }
    t.close(probe);
    layers
}

/// Whether an operation stopped at the wall deadline rather than the term
/// budget (the deadline only guards against a misbehaving run).
pub fn hit_deadline(op: &Op) -> bool {
    op.stop.is_some() && op.elapsed >= DEADLINE
}
