//! Quickstart: generate a multiplier, verify it through the `Session` API
//! with a progress observer, inspect the statistics, then race MT-LR against
//! the SAT miter baseline with a `Portfolio`.
//!
//! Run with `cargo run --release --example quickstart`.

use gbmv::core::Progress;
use gbmv::genmul::MultiplierSpec;
use gbmv::{Budget, Method, Portfolio, Session, Spec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An 8x8 Booth-encoded Wallace-tree multiplier with a carry-lookahead
    // final adder: one of the "complex parallel" architectures that only
    // MT-LR handles in the paper.
    let width = 8;
    let spec = MultiplierSpec::parse("BP-WT-CL", width).expect("known architecture");
    let netlist = spec.build();
    println!("circuit: {}", netlist.summary());

    // Algebraic verification with logic reduction rewriting (MT-LR). Phase
    // timings arrive at the observer as structured events.
    let report = Session::extract(&netlist)?
        .spec(Spec::multiplier(width))
        .strategy(Method::MtLr)
        .observer(|progress| {
            if let Progress::PhaseFinished { phase, elapsed } = progress {
                println!("  [observer] {phase} finished in {elapsed:?}");
            }
        })
        .run()?;
    println!("MT-LR outcome: {:?}", report.outcome);
    println!(
        "  cancelled vanishing monomials (#CVM): {}",
        report.stats.cancelled_vanishing()
    );
    println!(
        "  rewritten model: #P={} #M={} #MP={} #VM={}",
        report.stats.model_polynomials,
        report.stats.model_monomials,
        report.stats.max_polynomial_terms,
        report.stats.max_monomial_vars
    );
    println!(
        "  rewriting: {:?}, GB reduction: {:?}, total: {:?}",
        report.stats.rewrite.elapsed, report.stats.reduction.elapsed, report.stats.total_time
    );
    assert!(report.outcome.is_verified());

    // Portfolio race: MT-LR and the SAT miter baseline share one extracted
    // model and one deadline; the first definitive verdict cancels the other.
    let race = Portfolio::extract(&netlist)?
        .spec(Spec::multiplier(width))
        .budget(Budget::default())
        .method(Method::MtLr)
        .sat_baseline(Some(1_000_000))
        .race()?;
    let winner = race.winner().expect("one strategy finishes");
    println!(
        "portfolio race winner: {} in {:?} ({:?})",
        winner.strategy, winner.elapsed, winner.outcome
    );
    for run in &race.runs {
        println!(
            "  {}: {:?} after {:?}",
            run.strategy, run.outcome, run.elapsed
        );
    }
    assert!(race.verdict().expect("definitive verdict").is_verified());
    Ok(())
}
