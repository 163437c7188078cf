//! The benchmark's workloads and the set-up that turns one into verifier
//! inputs: generated multipliers, seeded mutants, and the netlist file
//! round trip a user's netlist goes through.

use std::time::{Duration, Instant};

use gbmv_core::{Budget, Method};
use gbmv_genmul::MultiplierSpec;
use gbmv_netlist::{
    analysis, parse_netlist, sim, write_netlist, Fault, FaultKind, GateKind, NetId, Netlist,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::Tracer;

/// Wall-clock cap of one verification. The term budget, not this deadline,
/// is what stops an instance, so verdicts and counters repeat exactly; the
/// deadline only bounds a run that misbehaves.
pub const DEADLINE: Duration = Duration::from_secs(60);

/// Fault draws per mutant before giving up.
const MUTANT_TRIES: usize = 10_000;

/// One named set of verifier inputs with its fixed strategy and budget.
pub struct Workload {
    pub name: &'static str,
    /// Preset run on every instance.
    pub method: Method,
    /// Worker threads, set explicitly so neither `GBMV_THREADS` nor the
    /// machine's core count changes what is measured.
    pub threads: usize,
    /// Term budget of every instance.
    pub max_terms: usize,
    /// Correct multipliers: (architecture, width).
    pub clean: &'static [(&'static str, usize)],
    /// Seeded mutants: (architecture, width, count). Only this list depends
    /// on the seed.
    pub mutants: &'static [(&'static str, usize, usize)],
}

impl Workload {
    pub fn budget(&self) -> Budget {
        Budget {
            max_terms: self.max_terms,
            deadline: Some(DEADLINE),
            threads: self.threads,
        }
    }
}

/// There is no workload of correct wide (w32-w64) array and tree
/// multipliers: Step 1 extraction is measured on `buggy`, where it takes
/// about a fifth of the time, and each workload more makes a full set of
/// benchmark runs longer, so a slow drift of the host moves its figures more.
pub const WORKLOADS: [Workload; 3] = [
    // Booth partial products: Step 2 rewriting dominates time and memory.
    Workload {
        name: "booth-rewrite",
        method: Method::MtLrIdx,
        threads: 1,
        max_terms: 10_000_000,
        clean: &[("BP-AR-RC", 16), ("BP-WT-CL", 16), ("BP-CT-BK", 16)],
        mutants: &[],
    },
    // Parallel-prefix final adders: Step 3 reduction blows up, and this is
    // the only workload on the parallel cone engine. SP-RT-KS w7 and
    // SP-DT-HC w7 peak at about 110 k terms; SP-DT-KS w6 needs about 885 k,
    // over the budget: the frontier instance. The instances are small enough
    // for several passes per run, so each has a steady fastest time. One
    // thread: on a 2-vCPU host, two threads ran about 10% slower than one
    // (these carry-propagate cones merge into one group, so the second
    // thread only shards substitution steps) and drifted most from run to run.
    Workload {
        name: "prefix-reduce",
        method: Method::MtLrPar,
        threads: 1,
        max_terms: 300_000,
        clean: &[("SP-RT-KS", 7), ("SP-DT-HC", 7), ("SP-DT-KS", 6)],
        mutants: &[],
    },
    // Mismatch path: the remainder does not cancel, counterexample search
    // and grounding run, and about half of the mutants exhaust the budget.
    // The seed draws the mutants, so the set is large and the budget small:
    // a budget stop then costs about as much as a verdict (tens of ms), and
    // the workload's figures hardly move with the seed. The w32 mutants are
    // the slowest fifth, so the tail falls among them and not on a boundary.
    Workload {
        name: "buggy",
        method: Method::MtLrIdx,
        threads: 1,
        max_terms: 20_000,
        clean: &[],
        mutants: &[
            ("SP-AR-RC", 16, 32),
            ("SP-WT-CL", 16, 32),
            ("SP-CT-BK", 16, 32),
            ("SP-CT-BK", 32, 24),
        ],
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One verifier input with its known answer.
pub struct Instance {
    /// e.g. `SP-CT-BK w32` or `SP-CT-BK w32 m3`.
    pub label: String,
    pub width: usize,
    /// True for a seeded mutant, which must end `Mismatch`.
    pub buggy: bool,
    /// The netlist as generated (or mutated), kept for the simulation oracle.
    pub generated: Netlist,
    /// The netlist after `write_netlist` / `parse_netlist`: what is verified.
    pub netlist: Netlist,
}

/// Set-up work counters, for the traced run, and the set-up's step times.
#[derive(Default)]
pub struct SetupStats {
    pub build: Duration,
    pub parse: Duration,
    pub bytes: usize,
    pub mutants: usize,
    /// Times of the set-up's consecutive steps (one generation, one mutant,
    /// one netlist round trip), in a fixed order; they add up to the whole
    /// set-up.
    pub steps: Vec<Duration>,
}

impl SetupStats {
    /// Ends the current set-up step, which began where the last one ended.
    fn step(&mut self, last: &mut Instant) {
        let now = Instant::now();
        self.steps.push(now - *last);
        *last = now;
    }
}

/// Draws a mutant whose faulty gate lies in stratum `k` of `strata` equal
/// slices of the gate list and that simulation tells apart from `golden`.
/// Stratifying the fault sites keeps the mix of easy and hard mutants, and
/// so the workload's figures, from swinging with the seed. `levels` are the
/// logic levels of `golden`; a rewired input comes from a lower level, so
/// the mutant stays acyclic.
fn mutant(
    golden: &Netlist,
    levels: &[usize],
    k: usize,
    strata: usize,
    rng: &mut StdRng,
) -> Option<Netlist> {
    let gates = golden.gates();
    let stratum = k * gates.len() / strata..(k + 1) * gates.len() / strata;
    for _ in 0..MUTANT_TRIES {
        let gate_index = rng.gen_range(stratum.clone());
        let gate = &gates[gate_index];
        let kind = match rng.gen_range(0..3u8) {
            0 if gate.inputs.len() == 2 => {
                let kinds = [
                    GateKind::And,
                    GateKind::Or,
                    GateKind::Xor,
                    GateKind::Nand,
                    GateKind::Nor,
                    GateKind::Xnor,
                ];
                let new_kind = kinds[rng.gen_range(0..kinds.len())];
                if new_kind == gate.kind {
                    continue;
                }
                FaultKind::GateSwap { new_kind }
            }
            1 if !gate.inputs.is_empty() => {
                let level = levels[gate.output.index()];
                let new_net = NetId(rng.gen_range(0..golden.net_count() as u32));
                if levels[new_net.index()] >= level || gate.inputs.contains(&new_net) {
                    continue;
                }
                FaultKind::WrongWire {
                    input_index: rng.gen_range(0..gate.inputs.len()),
                    new_net,
                }
            }
            _ => FaultKind::OutputNegation,
        };
        let mutant = Fault { gate_index, kind }.apply(golden);
        if sim::random_equivalence_check(golden, &mutant, 4, rng).is_some() {
            return Some(mutant);
        }
    }
    None
}

/// Generates one multiplier, as a span of the tracer when one is given.
fn build(
    arch: &str,
    width: usize,
    id: usize,
    stats: &mut SetupStats,
    tracer: &mut Option<&mut Tracer>,
) -> Result<Netlist, String> {
    let spec =
        MultiplierSpec::parse(arch, width).ok_or_else(|| format!("unknown architecture {arch}"))?;
    let start = Instant::now();
    let netlist = spec.build();
    let end = Instant::now();
    stats.build += end - start;
    if let Some(t) = tracer {
        t.span("genmul.build", start, end, None, id);
    }
    Ok(netlist)
}

/// Builds the workload's instances. The tracer, when given, receives one
/// span per layer call (generation, fault injection, write and parse).
pub fn setup(
    w: &Workload,
    seed: u64,
    mut tracer: Option<&mut Tracer>,
) -> Result<(Vec<Instance>, SetupStats), String> {
    let mut stats = SetupStats::default();
    let mut last = Instant::now();
    let mut generated: Vec<(String, usize, bool, Netlist)> = Vec::new();
    for &(arch, width) in w.clean {
        let netlist = build(arch, width, generated.len(), &mut stats, &mut tracer)?;
        generated.push((format!("{arch} w{width}"), width, false, netlist));
        stats.step(&mut last);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for &(arch, width, count) in w.mutants {
        let golden = build(arch, width, generated.len(), &mut stats, &mut tracer)?;
        let levels = analysis::logic_levels(&golden);
        stats.step(&mut last);
        for m in 0..count {
            let start = Instant::now();
            let mutant = mutant(&golden, &levels, m, count, &mut rng)
                .ok_or_else(|| format!("no distinguishable mutant of {arch} w{width}"))?;
            if let Some(t) = tracer.as_deref_mut() {
                t.span("fault.mutant", start, Instant::now(), None, generated.len());
            }
            stats.mutants += 1;
            generated.push((format!("{arch} w{width} m{m}"), width, true, mutant));
            stats.step(&mut last);
        }
    }
    let mut instances = Vec::with_capacity(generated.len());
    for (id, (label, width, buggy, netlist)) in generated.into_iter().enumerate() {
        let start = Instant::now();
        let text = write_netlist(&netlist);
        let written = Instant::now();
        let parsed = parse_netlist(&text).map_err(|e| format!("{label}: {e}"))?;
        let end = Instant::now();
        stats.parse += end - written;
        stats.bytes += text.len();
        if let Some(t) = tracer.as_deref_mut() {
            t.span("format.write", start, written, None, id);
            t.span("format.parse", written, end, None, id);
        }
        instances.push(Instance {
            label,
            width,
            buggy,
            generated: netlist,
            netlist: parsed,
        });
        stats.step(&mut last);
    }
    Ok((instances, stats))
}
