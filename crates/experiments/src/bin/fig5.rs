//! Regenerates Figure 5: IPC versus number of hardware contexts at L2 = 16
//! and L2 = 64 for the decoupled and non-decoupled machines, plus external
//! bus utilisation.
//!
//! Usage: `cargo run --release -p dsmt-experiments --bin fig5`
//! Set `DSMT_INSTS` to change the number of instructions per data point and
//! `DSMT_SWEEP_CACHE` to relocate or disable the result cache.

use dsmt_experiments::{fig5, ExperimentParams};

fn main() {
    let params = ExperimentParams::from_env();
    eprintln!(
        "running Figure 5 sweep ({} instructions/point, {} workers)...",
        params.instructions_per_point, params.workers
    );
    let sweep = fig5::sweep(&params);
    println!("{}", sweep.results.table(16).to_markdown());
    println!("{}", sweep.results.table(64).to_markdown());
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
