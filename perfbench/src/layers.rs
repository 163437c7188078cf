//! Per-layer metrics of a traced run, and the trace file.
//!
//! Each metric names the end-to-end metric and workload it should move, as
//! predicted before measuring; a change to one layer that moves something
//! else has a different explanation than the one it claims.

use std::fmt::Write as _;
use std::path::Path;

use crate::measure::{Layers, Op, COUNTERS};
use crate::oracle::Class;
use crate::trace::Tracer;
use crate::workload::{Instance, SetupStats, DEADLINE};
use crate::{instance_fastest, instance_medians, seconds, Pass};

/// (metric, unit, what it should move). Times are sums over the instance
/// set of each instance's median over the traced passes. The shares quoted
/// are of the traced wall time, measured on a 2-core x86-64 VM.
pub const LAYERS: [(&str, &str, &str); 34] = [
    ("genmul.build_ms", "ms", "setup_s on every workload"),
    ("format.parse_ms", "ms", "setup_s on every workload"),
    ("format.bytes", "bytes", "setup_s on every workload"),
    ("fault.mutants", "count", "setup_s on buggy"),
    ("extract.ms", "ms", "wall_s, verdict_s.* on buggy (~19%); not the others (<1%)"),
    ("extract.column_masks_ms", "ms", "wall_s, verdict_s.* on buggy (~60% of extract.ms there)"),
    ("extract.model_vars", "count", "wall_s, verdict_s.* on buggy"),
    ("spec.ms", "ms", "nothing measurable: ~0.2% of wall_s on buggy"),
    ("spec.terms", "count", "nothing measurable: ~0.2% of wall_s on buggy"),
    ("rewrite.ms", "ms", "wall_s (~61%), peak_rss_mb on booth-rewrite"),
    ("rewrite.substitutions", "count", "wall_s, peak_rss_mb on booth-rewrite"),
    ("rewrite.index_hits", "count", "wall_s, peak_rss_mb on booth-rewrite"),
    ("rewrite.peak_terms", "count", "wall_s, peak_rss_mb on booth-rewrite"),
    ("rewrite.cancelled_vanishing", "count", "wall_s, peak_rss_mb on booth-rewrite"),
    ("rewrite.columns_retired", "count", "wall_s, peak_rss_mb on booth-rewrite"),
    ("model.polynomials", "count", "wall_s, peak_rss_mb on booth-rewrite"),
    ("model.monomials", "count", "wall_s, peak_rss_mb on booth-rewrite"),
    ("reduce.ms", "ms", "wall_s, verdict_s.* on prefix-reduce (~99%), buggy (~57%), booth-rewrite (~24%); decided_frac on prefix-reduce, buggy"),
    ("reduce.substitutions", "count", "wall_s, verdict_s.* on prefix-reduce; decided_frac on prefix-reduce, buggy"),
    ("reduce.index_hits", "count", "wall_s, verdict_s.* on prefix-reduce; decided_frac on prefix-reduce, buggy"),
    ("reduce.peak_terms", "count", "decided_frac, peak_rss_mb on prefix-reduce, buggy"),
    ("reduce.final_terms", "count", "wall_s, verdict_s.* on buggy"),
    ("reduce.columns_retired", "count", "wall_s, verdict_s.* on prefix-reduce, booth-rewrite"),
    ("reduce.cancelled_vanishing", "count", "wall_s, verdict_s.* on prefix-reduce"),
    ("reduce.useful_frac", "1", "decided_frac, wall_s on buggy, prefix-reduce"),
    ("reduce.wasted_s", "s", "decided_frac, wall_s on buggy, prefix-reduce"),
    ("limit.rewrite_frac", "1", "decided_frac on buggy"),
    ("limit.reduce_frac", "1", "decided_frac on buggy, prefix-reduce"),
    ("cex.ms", "ms", "verdict_s.* on buggy; predicted nothing (~0.5 ms per mismatch)"),
    ("cex.found_frac", "1", "decided_frac, verdict_s.* on buggy"),
    ("session.self_ms", "ms", "wall_s on booth-rewrite (~7%, model clone), buggy (~6%)"),
    ("sat.ms", "ms", "bounds what SAT assistance could do for decided_frac on buggy"),
    ("sat.decided_frac", "1", "bounds what SAT assistance could do for decided_frac on buggy"),
    ("trace.overhead_frac", "1", "none: traced over untraced wall_s, minus one"),
];

pub struct Context<'a> {
    pub instances: &'a [Instance],
    pub passes: &'a [Pass],
    pub setup: &'a SetupStats,
}

impl Context<'_> {
    /// The first traced pass: its counters are those of every pass (the
    /// steadiness check reports any that differ).
    fn first(&self) -> &[Op] {
        &self
            .passes
            .iter()
            .find(|p| p.traced)
            .expect("a traced pass")
            .ops
    }

    /// Sum over instances of each instance's median (over traced passes) of
    /// a per-operation time in seconds.
    fn time(&self, f: impl Fn(&Op) -> f64) -> f64 {
        instance_medians(self.passes, true, f).iter().sum()
    }

    fn layer_ms(&self, f: impl Fn(&Layers) -> std::time::Duration) -> f64 {
        self.time(|op| f(&op.layers).as_secs_f64()) * 1e3
    }

    fn counter(&self, name: &str) -> f64 {
        let k = COUNTERS
            .iter()
            .position(|c| *c == name)
            .expect("known counter");
        let values = self.first().iter().map(|op| op.counters[k]);
        if name.ends_with("peak_terms") {
            values.max().unwrap_or(0) as f64
        } else {
            values.sum::<u64>() as f64
        }
    }

    /// Share of the instances whose first traced verdict is one of `letters`.
    fn share(&self, letters: &str) -> f64 {
        let ops = self.first();
        ops.iter().filter(|op| letters.contains(op.verdict)).count() as f64 / ops.len() as f64
    }

    fn value(&self, name: &str) -> f64 {
        let wall = |traced: bool| {
            instance_fastest(self.passes, traced, seconds)
                .iter()
                .sum::<f64>()
        };
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        match name {
            "genmul.build_ms" => self.setup.build.as_secs_f64() * 1e3,
            "format.parse_ms" => self.setup.parse.as_secs_f64() * 1e3,
            "format.bytes" => self.setup.bytes as f64,
            "fault.mutants" => self.setup.mutants as f64,
            "extract.ms" => self.layer_ms(|l| l.extract),
            "extract.column_masks_ms" => self.layer_ms(|l| l.column_masks),
            "spec.ms" => self.layer_ms(|l| l.spec),
            "spec.terms" => self
                .first()
                .iter()
                .map(|op| op.layers.spec_terms)
                .sum::<usize>() as f64,
            "rewrite.ms" => self.layer_ms(|l| l.rewrite),
            "reduce.ms" => self.layer_ms(|l| l.reduce),
            // Reductions that ended in a verdict over reductions attempted
            // (every operation not stopped in rewriting or failed).
            "reduce.useful_frac" => ratio(self.share("VMm"), self.share("VMmD")),
            "reduce.wasted_s" => self.time(|op| {
                if op.verdict == 'D' {
                    op.layers.reduce.as_secs_f64()
                } else {
                    0.0
                }
            }),
            "limit.rewrite_frac" => self.share("W"),
            "limit.reduce_frac" => self.share("D"),
            "cex.ms" => self.layer_ms(|l| l.cex),
            "cex.found_frac" => ratio(self.share("M"), self.share("Mm")),
            "session.self_ms" => {
                self.layer_ms(|l| l.run.saturating_sub(l.rewrite + l.reduce + l.cex))
            }
            "sat.ms" => self.layer_ms(|l| l.sat.map_or(Default::default(), |(t, _)| t)),
            "sat.decided_frac" => {
                let sat: Vec<bool> = self
                    .first()
                    .iter()
                    .filter_map(|op| op.layers.sat.map(|s| s.1))
                    .collect();
                ratio(sat.iter().filter(|d| **d).count() as f64, sat.len() as f64)
            }
            "trace.overhead_frac" => wall(true) / wall(false) - 1.0,
            counter => self.counter(counter),
        }
    }
}

/// The per-layer metrics of a traced run, in [`LAYERS`] order.
pub fn report(ctx: &Context<'_>) -> Vec<(&'static str, f64, &'static str)> {
    let values: Vec<_> = LAYERS
        .iter()
        .map(|&(name, unit, _)| (name, ctx.value(name), unit))
        .collect();
    for (&(name, unit, moves), (_, value, _)) in LAYERS.iter().zip(&values) {
        println!("  {name:<28} {value:>14.4} {unit:<5}  moves {moves}");
    }
    values
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Budget-stop diagnostics, one per undecided operation of the first traced
/// pass: the phase that stopped, its peak terms, and elapsed time against
/// the deadline.
fn stops(ctx: &Context<'_>) -> Vec<String> {
    ctx.instances
        .iter()
        .zip(ctx.first())
        .enumerate()
        .filter(|(_, (_, op))| op.class != Class::Decided)
        .map(|(id, (inst, op))| {
            let (phase, peak) = op
                .stop
                .as_ref()
                .map_or(("none".to_string(), 0), |s| (s.phase.to_string(), s.peak_terms));
            format!(
                "{{\"instance\":{id},\"label\":{},\"detail\":{},\"phase\":\"{phase}\",\"peak_terms\":{peak},\"elapsed_s\":{},\"deadline_s\":{}}}",
                json_str(&inst.label),
                json_str(&op.detail),
                op.elapsed.as_secs_f64(),
                DEADLINE.as_secs()
            )
        })
        .collect()
}

/// Writes the trace file: run metadata, metrics with their predictions,
/// budget stops, per-instance verdicts and counters, and every span.
pub fn write_trace(
    path: &Path,
    meta: &str,
    ctx: &Context<'_>,
    values: &[(&str, f64, &str)],
    tracer: &Tracer,
) -> Result<(), String> {
    let mut out = format!("{{\"meta\":{meta},\n\"metrics\":[");
    for (i, ((name, value, unit), (_, _, moves))) in values.iter().zip(LAYERS).enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n{{\"name\":\"{name}\",\"value\":{value},\"unit\":\"{unit}\",\"moves\":{}}}",
            json_str(moves)
        );
    }
    let stops = stops(ctx);
    if let Some(first) = stops.first() {
        println!(
            "  {} undecided, listed in the trace file; the first: {first}",
            stops.len()
        );
    }
    let _ = write!(
        out,
        "],\n\"stops\":[{}],\n\"instances\":[",
        stops.join(",\n")
    );
    for (id, (inst, op)) in ctx.instances.iter().zip(ctx.first()).enumerate() {
        let sep = if id == 0 { "" } else { "," };
        let counters: Vec<String> = COUNTERS
            .iter()
            .zip(op.counters)
            .map(|(n, v)| format!("\"{n}\":{v}"))
            .collect();
        let _ = write!(
            out,
            "{sep}\n{{\"id\":{id},\"label\":{},\"verdict\":\"{}\",{}}}",
            json_str(&inst.label),
            op.verdict,
            counters.join(",")
        );
    }
    let _ = write!(out, "],\n\"spans\":{}}}\n", tracer.to_json());
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}
