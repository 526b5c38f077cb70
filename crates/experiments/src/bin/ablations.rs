//! Runs the ablation studies that go beyond the paper's figures:
//! instruction-queue depth, MSHR count, issue-width asymmetry and L1
//! associativity.
//!
//! Usage: `cargo run --release -p dsmt-experiments --bin ablations`
//! Set `DSMT_INSTS` to change the number of instructions per data point and
//! `DSMT_SWEEP_CACHE` to relocate or disable the result cache.

use dsmt_experiments::{ablations, ExperimentParams};

fn main() {
    let params = ExperimentParams::from_env();
    eprintln!(
        "running ablations ({} instructions/point, {} workers)...",
        params.instructions_per_point, params.workers
    );
    let sweep = ablations::sweep(&params);
    println!("{}", sweep.results.to_markdown());
    println!("### Shape checks\n");
    for (claim, ok) in sweep.results.shape_checks() {
        println!("- [{}] {claim}", if ok { "x" } else { " " });
    }
    eprintln!(
        "{} cells ({} cached, {} simulated)",
        sweep.report.records.len(),
        sweep.report.cache_hits,
        sweep.report.cache_misses
    );
}
