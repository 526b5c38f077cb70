//! Runs every experiment (Figures 1, 3, 4, 5 and the ablations) through the
//! `dsmt-sweep` engine, prints a consolidated report suitable for pasting
//! into EXPERIMENTS.md, and writes the raw sweep records as JSON and CSV
//! under `results/`.
//!
//! Usage: `cargo run --release -p dsmt-experiments --bin all_experiments`
//!
//! * `DSMT_INSTS=<n>` — instructions per data point (default 400000).
//! * `DSMT_SWEEP_CACHE=<dir>|off` — result cache location (default
//!   `target/sweep-cache`). With the cache enabled, a re-run only simulates
//!   cells whose parameters changed and reports `0 simulated` otherwise.
//! * `DSMT_RESULTS=<dir>` — export directory (default `results`).

use dsmt_experiments::{
    ablations, fetch_policy, fetch_policy_hetero, fig1, fig3, fig4, fig5, seed_variance,
    ExperimentParams,
};
use dsmt_sweep::{export, SweepReport};

fn print_checks(checks: &[(String, bool)]) {
    for (claim, ok) in checks {
        println!("- [{}] {claim}", if *ok { "x" } else { " " });
    }
    println!();
}

/// Exports a report and returns a one-line summary for the run footer.
fn export_report(report: &SweepReport, out_dir: &str) -> String {
    let json = format!("{out_dir}/{}.json", report.grid);
    let csv = format!("{out_dir}/{}.csv", report.grid);
    export::write_json(report, &json).unwrap_or_else(|e| eprintln!("warn: {json}: {e}"));
    export::write_csv(report, &csv).unwrap_or_else(|e| eprintln!("warn: {csv}: {e}"));
    format!(
        "{:<6} {:>3} cells, {:>3} cached, {:>3} simulated -> {json}, {csv}",
        report.grid, // grid name
        report.records.len(),
        report.cache_hits,
        report.cache_misses,
    )
}

fn main() {
    let params = ExperimentParams::from_env();
    let out_dir = std::env::var("DSMT_RESULTS").unwrap_or_else(|_| "results".to_string());
    eprintln!(
        "running all experiments ({} instructions/point, {} workers)",
        params.instructions_per_point, params.workers
    );
    let mut footer = Vec::new();

    println!("## Figure 1 — latency hiding of single-threaded decoupling\n");
    let f1 = fig1::sweep(&params);
    println!("{}", f1.results.table_fig1a().to_markdown());
    println!("{}", f1.results.table_fig1b().to_markdown());
    println!("{}", f1.results.table_fig1c().to_markdown());
    println!("{}", f1.results.table_fig1d().to_markdown());
    print_checks(&f1.results.shape_checks());
    footer.push(export_report(&f1.report, &out_dir));

    println!("## Figure 3 — issue-slot breakdown vs thread count\n");
    let f3 = fig3::sweep(&params);
    println!("{}", f3.results.table().to_markdown());
    print_checks(&f3.results.shape_checks());
    footer.push(export_report(&f3.report, &out_dir));

    println!("## Figure 4 — latency tolerance of the multithreaded decoupled machine\n");
    let f4 = fig4::sweep(&params);
    println!("{}", f4.results.table_fig4a().to_markdown());
    println!("{}", f4.results.table_fig4b().to_markdown());
    println!("{}", f4.results.table_fig4c().to_markdown());
    print_checks(&f4.results.shape_checks());
    footer.push(export_report(&f4.report, &out_dir));

    println!("## Figure 5 — hardware contexts and bus saturation\n");
    let f5 = fig5::sweep(&params);
    println!("{}", f5.results.table(16).to_markdown());
    println!("{}", f5.results.table(64).to_markdown());
    print_checks(&f5.results.shape_checks());
    footer.push(export_report(&f5.report, &out_dir));

    println!("## Fetch policy (Section 3.1) — I-COUNT vs round-robin\n");
    let fp = fetch_policy::sweep(&params);
    println!("{}", fp.results.table().to_markdown());
    print_checks(&fp.results.shape_checks());
    footer.push(export_report(&fp.report, &out_dir));

    println!("## Fetch policy on heterogeneous assembled workloads\n");
    let fph = fetch_policy_hetero::sweep(&params);
    println!("{}", fph.results.table().to_markdown());
    print_checks(&fph.results.shape_checks());
    footer.push(export_report(&fph.report, &out_dir));

    println!("## Seed variance — how representative are single-seed figures?\n");
    let sv = seed_variance::sweep(&params);
    println!("{}", sv.results.table().to_markdown());
    print_checks(&sv.results.shape_checks());
    footer.push(export_report(&sv.report, &out_dir));

    println!("## Ablations (beyond the paper)\n");
    let ab = ablations::sweep(&params);
    println!("{}", ab.results.to_markdown());
    print_checks(&ab.results.shape_checks());
    footer.push(export_report(&ab.report, &out_dir));

    let (cells, hits, misses) = [
        &f1.report,
        &f3.report,
        &f4.report,
        &f5.report,
        &fp.report,
        &fph.report,
        &sv.report,
        &ab.report,
    ]
    .iter()
    .fold((0, 0, 0), |(c, h, m), r| {
        (c + r.records.len(), h + r.cache_hits, m + r.cache_misses)
    });
    eprintln!("sweep summary:");
    for line in &footer {
        eprintln!("  {line}");
    }
    eprintln!("  total: {cells} cells, {hits} cached, {misses} simulated");
}
