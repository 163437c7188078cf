//! Benchmark of the gbmv verifier: time to verdict, decided share and peak
//! memory per workload, and, in a separate traced run, where the time went
//! layer by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload buggy --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One run builds the workload's instances several times, then verifies the
//! whole instance set again and again, one instance after another (a closed
//! loop with one client), while the next pass still fits into `--seconds`.
//! Between operations it builds the instances again, for a fixed share of
//! the time, so that set-up is sampled across the whole run. An instance's
//! time to verdict is its fastest over the passes; `wall_s` is their sum,
//! and `verdict_s.p50` and `verdict_s.tail` are taken over the instances.
//! Likewise `setup_s` is the sum over the set-up's steps of each step's
//! fastest time. The fastest time, not the median: on a shared 2-vCPU
//! x86-64 VM the program's speed swings by up to 1.6 times within seconds,
//! and a median follows the mix of slow and fast spells in a run, while the
//! fastest of several samples does much less so. Every verdict is checked
//! against the known answer. The last line of standard output is a JSON
//! object with the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). A traced run alternates untraced and traced passes, so it
//! can report the tracing overhead, and writes its spans to
//! `perfbench/out/`.

mod layers;
mod measure;
mod oracle;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use measure::{Op, COUNTERS};
use oracle::Class;
use trace::Tracer;
use workload::{Instance, Workload, DEADLINE, WORKLOADS};

/// Set-ups before the first pass: at least `SETUPS_MIN` and until
/// `SETUP_SECONDS` are spent. Between operations, more set-ups while they
/// have taken less than `SETUP_SHARE` of the time since the first pass
/// began.
const SETUPS_MIN: usize = 5;
const SETUP_SECONDS: f64 = 1.0;
const SETUP_SHARE: f64 = 0.05;
/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Samples a tail percentile must leave beyond it.
const TAIL_BEYOND: usize = 10;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(workload::find(&value).ok_or_else(|| {
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One verification of every instance, in order.
pub struct Pass {
    pub ops: Vec<Op>,
    pub traced: bool,
}

impl Pass {
    /// Sum of the netlist-to-verdict times of the pass's operations.
    pub fn wall(&self) -> f64 {
        self.ops.iter().map(seconds).sum()
    }
}

/// Per instance, the values of `f` over the traced or the untraced passes.
fn instance_values(passes: &[Pass], traced: bool, f: impl Fn(&Op) -> f64) -> Vec<Vec<f64>> {
    let chosen: Vec<&Pass> = passes.iter().filter(|p| p.traced == traced).collect();
    (0..passes[0].ops.len())
        .map(|i| chosen.iter().map(|p| f(&p.ops[i])).collect())
        .collect()
}

/// Per instance, the median of `f` over the traced or the untraced passes.
pub fn instance_medians(passes: &[Pass], traced: bool, f: impl Fn(&Op) -> f64) -> Vec<f64> {
    instance_values(passes, traced, f)
        .iter_mut()
        .map(|v| median(v))
        .collect()
}

/// Per instance, the smallest `f` over the traced or the untraced passes.
pub fn instance_fastest(passes: &[Pass], traced: bool, f: impl Fn(&Op) -> f64) -> Vec<f64> {
    instance_values(passes, traced, f)
        .iter()
        .map(|v| fastest(v.iter().copied()))
        .collect()
}

fn fastest(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(f64::INFINITY, f64::min)
}

/// The set-ups of a run: how many, and each set-up step's fastest time.
struct Setups {
    fastest: Vec<f64>,
    count: usize,
}

impl Setups {
    fn new(steps: &[Duration]) -> Self {
        Setups {
            fastest: steps.iter().map(Duration::as_secs_f64).collect(),
            count: 1,
        }
    }

    /// Builds the workload's instances once more.
    fn again(&mut self, w: &Workload, seed: u64) -> Result<(), String> {
        let (instances, stats) = workload::setup(w, seed, None)?;
        std::hint::black_box(instances);
        for (best, step) in self.fastest.iter_mut().zip(&stats.steps) {
            *best = best.min(step.as_secs_f64());
        }
        self.count += 1;
        Ok(())
    }

    /// The sum over the set-up steps of each step's fastest time.
    fn seconds(&self) -> f64 {
        self.fastest.iter().sum()
    }
}

/// Netlist-to-verdict time of an operation in seconds.
pub fn seconds(op: &Op) -> f64 {
    op.elapsed.as_secs_f64()
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The highest nearest-rank percentile that leaves at least
/// [`TAIL_BEYOND`] samples beyond it: (value, percentile, samples beyond).
/// With too few samples it is the maximum, with none beyond.
fn tail(sorted: &[f64]) -> (f64, f64, usize) {
    let n = sorted.len();
    if n > TAIL_BEYOND {
        let rank = n - TAIL_BEYOND;
        (
            sorted[rank - 1],
            100.0 * rank as f64 / n as f64,
            TAIL_BEYOND,
        )
    } else {
        (sorted.last().copied().unwrap_or(0.0), 100.0, 0)
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The deterministic counters and verdict vector of a pass, one line per
/// instance.
fn counter_lines(instances: &[Instance], pass: &Pass) -> Vec<String> {
    instances
        .iter()
        .zip(&pass.ops)
        .map(|(inst, op)| {
            let mut line = format!("{} {}", inst.label, op.verdict);
            for (name, value) in COUNTERS.iter().zip(op.counters) {
                let _ = write!(line, " {name}={value}");
            }
            line
        })
        .collect()
}

/// The fields of `now` that differ from `before`, as `old -> new`.
fn changed(before: &str, now: &str) -> Vec<String> {
    before
        .split(' ')
        .zip(now.split(' '))
        .filter(|(a, b)| a != b)
        .map(|(a, b)| format!("{a} -> {b}"))
        .collect()
}

/// Compares the counters of every pass with the first, and the first with
/// the previous run of the same workload and seed (stored under
/// `perfbench/out/`). Returns the differences found.
fn steadiness(args: &Args, instances: &[Instance], passes: &[Pass]) -> Vec<String> {
    let first = counter_lines(instances, &passes[0]);
    let mut diffs = Vec::new();
    let mut compare = |what: &str, before: &str, now: &str, label: &str| {
        let fields = changed(before, now);
        if !fields.is_empty() {
            diffs.push(format!("{what}: {label}: {}", fields.join(", ")));
        }
    };
    for (p, pass) in passes.iter().enumerate().skip(1) {
        for ((a, b), inst) in first
            .iter()
            .zip(counter_lines(instances, pass))
            .zip(instances)
        {
            compare(&format!("pass {p} vs pass 0"), a, &b, &inst.label);
        }
    }
    let path = out_dir().join(format!(
        "counters-{}-seed{}.txt",
        args.workload.name, args.seed
    ));
    match std::fs::read_to_string(&path) {
        Ok(previous) => {
            for ((a, b), inst) in previous.lines().zip(&first).zip(instances) {
                compare("previous run vs now", a, b, &inst.label);
            }
        }
        Err(_) => println!("counters: no previous run of this workload and seed to compare with"),
    }
    let stored = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, first.join("\n") + "\n"));
    if let Err(e) = stored {
        eprintln!(
            "perfbench: cannot store counters in {}: {e}",
            path.display()
        );
    }
    diffs
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let w = args.workload;
    let mut tracer = args.trace.then(Tracer::new);

    // The first set-up is traced; its result is the one verified.
    let (instances, setup_stats) = workload::setup(w, args.seed, tracer.as_mut())?;
    let mut setups = Setups::new(&setup_stats.steps);
    let start = Instant::now();
    while setups.count < SETUPS_MIN || start.elapsed().as_secs_f64() < SETUP_SECONDS {
        setups.again(w, args.seed)?;
    }
    let mut wrong: Vec<String> = oracle::check_setup(&instances, args.seed);

    let budget = Duration::from_secs_f64(args.seconds);
    let min_passes = if args.trace { 2 } else { 1 };
    let begin = Instant::now();
    let mut setup_spent = Duration::ZERO;
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        // A traced run alternates untraced and traced passes.
        let traced = args.trace && passes.len() % 2 == 1;
        let mut ops = Vec::with_capacity(instances.len());
        for (id, inst) in instances.iter().enumerate() {
            ops.push(measure::verify(w, inst, id, if traced { tracer.as_mut() } else { None }));
            while setup_spent.as_secs_f64() < SETUP_SHARE * begin.elapsed().as_secs_f64() {
                let start = Instant::now();
                setups.again(w, args.seed)?;
                setup_spent += start.elapsed();
            }
        }
        passes.push(Pass { ops, traced });
        let spent = begin.elapsed();
        let per_pass = spent / passes.len() as u32;
        if passes.len() >= min_passes && spent + per_pass > budget {
            break;
        }
    }

    for pass in &passes {
        for (inst, op) in instances.iter().zip(&pass.ops) {
            if op.class == Class::Wrong {
                wrong.push(format!("{}: {}", inst.label, op.detail));
            }
        }
    }
    let ops = || passes.iter().flat_map(|p| &p.ops);
    let plain: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let plain_ops = || plain.iter().flat_map(|p| &p.ops);
    let attempted = ops().count();
    let failed = ops()
        .filter(|op| matches!(op.class, Class::Failed | Class::Wrong))
        .count();
    let decided = plain_ops().filter(|op| op.class == Class::Decided).count();
    let plain_count = plain_ops().count();
    let mut times = instance_fastest(&passes, false, seconds);
    // The sum of per-instance times, rather than the fastest pass, so that a
    // slow spell of the machine during one pass is filtered per instance.
    let wall: f64 = times.iter().sum();
    let p50 = median(&mut times);
    let (tail_value, tail_pct, beyond) = tail(&times);
    let setup_s = setups.seconds();
    let rss = peak_rss_mb()?;
    let diffs = steadiness(&args, &instances, &passes);

    let n = instances.len();
    println!("perfbench {}", meta(&args, n, passes.len()));
    println!(
        "  setup_s         {setup_s:.4} s    sum over {} steps of the fastest of {} set-ups",
        setups.fastest.len(),
        setups.count
    );
    let walls: Vec<String> = plain.iter().map(|p| format!("{:.3}", p.wall())).collect();
    println!(
        "  wall_s          {wall:.4} s    sum of instance times; untraced passes took [{}] s",
        walls.join(" ")
    );
    println!(
        "  verdict_s.p50   {p50:.4} s    {n} instances, each the fastest of its untraced passes"
    );
    println!(
        "  verdict_s.tail  {tail_value:.4} s    p{tail_pct:.0}, {beyond} of {n} instances beyond"
    );
    println!(
        "  decided_frac    {:.4}      {decided} of {plain_count} operations",
        decided as f64 / plain_count as f64
    );
    println!("  wrong_verdicts  {}  count", wrong.len());
    println!("  peak_rss_mb     {rss:.1} MB");
    for (i, inst) in instances.iter().enumerate() {
        let op = &passes[0].ops[i];
        eprintln!(
            "instance {i} {} {} {:.4} s {}",
            inst.label,
            op.verdict,
            op.elapsed.as_secs_f64(),
            op.detail
        );
    }
    let verdicts: String = passes[0].ops.iter().map(|op| op.verdict).collect();
    println!("verdicts {verdicts}");
    if diffs.is_empty() {
        println!("counters steady: identical in every pass (and as in the previous run, if any)");
    } else {
        println!("counters NOT steady:");
        diffs.iter().for_each(|d| println!("  {d}"));
    }
    for why in &wrong {
        println!("WRONG {why}");
    }
    for op in ops().filter(|op| op.class == Class::Failed) {
        println!("FAILED {}", op.detail);
    }
    if let Some(op) = ops().find(|op| measure::hit_deadline(op)) {
        println!(
            "WARNING an operation stopped at the {} s deadline, not the term budget: {}",
            DEADLINE.as_secs(),
            op.detail
        );
    }

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if let Some(tracer) = &tracer {
        let ctx = layers::Context {
            instances: &instances,
            passes: &passes,
            setup: &setup_stats,
        };
        let values = layers::report(&ctx);
        let path = out_dir().join(format!("trace-{}-seed{}.json", w.name, args.seed));
        layers::write_trace(&path, &meta(&args, n, passes.len()), &ctx, &values, tracer)?;
        println!(
            "trace written to {} ({} spans)",
            path.display(),
            tracer.spans.len()
        );
        metrics = values;
    } else {
        metrics.extend([
            ("setup_s", setup_s, "s"),
            ("wall_s", wall, "s"),
            ("verdict_s.p50", p50, "s"),
            ("verdict_s.tail", tail_value, "s"),
            ("decided_frac", decided as f64 / plain_count as f64, "1"),
            ("peak_rss_mb", rss, "MB"),
        ]);
    }

    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        wrong.is_empty()
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
    Ok(if wrong.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Run metadata, printed first and recorded in the trace file.
fn meta(args: &Args, instances: usize, passes: usize) -> String {
    let w = args.workload;
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"rev\":\"{}\",\"nproc\":{},\"preset\":\"{}\",\"threads\":{},\"max_terms\":{},\"deadline_s\":{},\"instances\":{instances},\"passes\":{passes}}}",
        w.name,
        args.seed,
        git_rev(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        w.method.name(),
        w.threads,
        w.max_terms,
        DEADLINE.as_secs(),
    )
}
