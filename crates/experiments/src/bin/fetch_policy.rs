//! Regenerates the Section 3.1 fetch-policy figure: I-COUNT vs
//! round-robin thread selection across hardware-context counts.
//!
//! Usage: `cargo run --release -p dsmt-experiments --bin fetch_policy`
//! Set `DSMT_INSTS` to change the number of instructions per data point and
//! `DSMT_SWEEP_CACHE` to relocate or disable the result cache.

use dsmt_experiments::{fetch_policy, ExperimentParams};

fn main() {
    let params = ExperimentParams::from_env();
    eprintln!(
        "running fetch-policy sweep ({} instructions/point, {} workers)...",
        params.instructions_per_point, params.workers
    );
    let sweep = fetch_policy::sweep(&params);
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
