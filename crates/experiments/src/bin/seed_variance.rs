//! Regenerates the per-cell seed-variance study: every grid point
//! simulated under several decorrelated seeds, with mean/stddev columns.
//!
//! Usage: `cargo run --release -p dsmt-experiments --bin seed_variance`
//! Set `DSMT_INSTS` to change the number of instructions per data point and
//! `DSMT_SWEEP_CACHE` to relocate or disable the result cache.

use dsmt_experiments::{seed_variance, ExperimentParams};

fn main() {
    let params = ExperimentParams::from_env();
    eprintln!(
        "running seed-variance sweep ({} instructions/point, {} workers, {} seeds/point)...",
        params.instructions_per_point,
        params.workers,
        seed_variance::REPLICAS
    );
    let sweep = seed_variance::sweep(&params);
    println!("{}", sweep.results.table().to_markdown());
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
