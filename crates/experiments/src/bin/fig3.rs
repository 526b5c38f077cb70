//! Regenerates Figure 3: issue-slot breakdown of the multithreaded
//! decoupled processor for 1–6 hardware contexts.
//!
//! Usage: `cargo run --release -p dsmt-experiments --bin fig3`
//! Set `DSMT_INSTS` to change the number of instructions per data point and
//! `DSMT_SWEEP_CACHE` to relocate or disable the result cache.

use dsmt_experiments::{fig3, ExperimentParams};

fn main() {
    let params = ExperimentParams::from_env();
    eprintln!(
        "running Figure 3 sweep ({} instructions/point, {} workers)...",
        params.instructions_per_point, params.workers
    );
    let sweep = fig3::sweep(&params);
    println!("{}", sweep.results.table().to_markdown());
    println!("### Shape checks vs the paper\n");
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
