//! Regenerates Figure 4 (a–c): perceived latency, relative IPC loss and IPC
//! for 1–4 threads, with and without decoupling, across L2 latencies.
//!
//! Usage: `cargo run --release -p dsmt-experiments --bin fig4`
//! Set `DSMT_INSTS` to change the number of instructions per data point and
//! `DSMT_SWEEP_CACHE` to relocate or disable the result cache.

use dsmt_experiments::{fig4, ExperimentParams};

fn main() {
    let params = ExperimentParams::from_env();
    eprintln!(
        "running Figure 4 sweep ({} instructions/point, {} workers)...",
        params.instructions_per_point, params.workers
    );
    let sweep = fig4::sweep(&params);
    println!("{}", sweep.results.table_fig4a().to_markdown());
    println!("{}", sweep.results.table_fig4b().to_markdown());
    println!("{}", sweep.results.table_fig4c().to_markdown());
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
