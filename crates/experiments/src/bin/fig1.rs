//! Regenerates Figure 1 (a–d): latency-hiding effectiveness of the
//! single-threaded decoupled processor over the SPEC FP95 profiles.
//!
//! Usage: `cargo run --release -p dsmt-experiments --bin fig1`
//! Set `DSMT_INSTS` to change the number of instructions per data point and
//! `DSMT_SWEEP_CACHE` to relocate or disable the result cache.

use dsmt_experiments::{fig1, ExperimentParams};

fn main() {
    let params = ExperimentParams::from_env();
    eprintln!(
        "running Figure 1 sweep ({} instructions/point, {} workers)...",
        params.instructions_per_point, params.workers
    );
    let sweep = fig1::sweep(&params);
    println!("{}", sweep.results.table_fig1a().to_markdown());
    println!("{}", sweep.results.table_fig1b().to_markdown());
    println!("{}", sweep.results.table_fig1c().to_markdown());
    println!("{}", sweep.results.table_fig1d().to_markdown());
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
