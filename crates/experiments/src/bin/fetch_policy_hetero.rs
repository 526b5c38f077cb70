//! Regenerates the heterogeneous fetch-policy figure: I-COUNT vs
//! round-robin on assembled `dsmt-asm` corpus mixes, with the advantage
//! asserted against measured seed noise.
//!
//! Usage: `cargo run --release -p dsmt-experiments --bin fetch_policy_hetero`
//! Set `DSMT_INSTS` to change the number of instructions per data point and
//! `DSMT_SWEEP_CACHE` to relocate or disable the result cache.

use dsmt_experiments::{fetch_policy_hetero, ExperimentParams};

fn main() {
    let params = ExperimentParams::from_env();
    eprintln!(
        "running hetero fetch-policy sweep ({} instructions/point, {} workers)...",
        params.instructions_per_point, params.workers
    );
    let sweep = fetch_policy_hetero::sweep(&params);
    println!("{}", sweep.results.table().to_markdown());
    println!("### Shape checks\n");
    let mut failed = false;
    for (claim, ok) in sweep.results.shape_checks() {
        println!("- [{}] {claim}", if ok { "x" } else { " " });
        failed |= !ok;
    }
    eprintln!(
        "{} cells ({} cached, {} simulated)",
        sweep.report.records.len(),
        sweep.report.cache_hits,
        sweep.report.cache_misses
    );
    if failed {
        eprintln!("error: shape checks failed");
        std::process::exit(1);
    }
}
