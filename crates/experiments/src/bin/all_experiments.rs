//! The experiment driver: runs the figures of [`FIGURES`] through one
//! `dsmt-sweep` engine, prints each figure's report section (tables and
//! shape checks) as markdown suitable for pasting into EXPERIMENTS.md, and
//! writes each figure's raw sweep records as JSON and CSV under `results/`.
//!
//! Usage: `cargo run --release -p dsmt-experiments --bin all_experiments [FIGURE...]`
//!
//! With no argument it runs every figure; with names it runs just those
//! (`fig1 fig3 fig4 fig5 fetch-policy fetch-policy-hetero seed-variance
//! ablations`), in report order. An unknown name exits 2 before anything
//! runs.
//!
//! * `DSMT_INSTS=<n>` — instructions per data point (default 400000).
//! * `DSMT_SWEEP_CACHE=<dir>|off` — result cache location (default
//!   `target/sweep-cache`). With the cache enabled, a re-run only simulates
//!   cells whose parameters changed and reports `0 simulated` otherwise.
//! * `DSMT_RESULTS=<dir>` — export directory (default `results`).
//!
//! The exit status is 1 when an export file could not be written or a
//! gating figure's shape check failed (see [`Figure::gates`]); every
//! section and the summary are printed first.

use std::process::ExitCode;

use dsmt_experiments::{figure, ExperimentParams, Figure, FIGURES};
use dsmt_sweep::{export, SweepReport};

/// Exports a report and returns a one-line summary for the run footer,
/// naming only the files written, and the number that could not be.
fn export_report(report: &SweepReport, out_dir: &str) -> (String, usize) {
    let json = format!("{out_dir}/{}.json", report.grid);
    let csv = format!("{out_dir}/{}.csv", report.grid);
    let mut written = Vec::new();
    for (path, result) in [
        (json.clone(), export::write_json(report, &json)),
        (csv.clone(), export::write_csv(report, &csv)),
    ] {
        match result {
            Ok(()) => written.push(path),
            Err(e) => eprintln!("warn: {path}: {e}"),
        }
    }
    let failed = 2 - written.len();
    let files = if written.is_empty() {
        "nothing written".to_string()
    } else {
        written.join(", ")
    };
    let line = format!(
        "{:<6} {:>3} cells, {:>3} cached, {:>3} simulated -> {files}",
        report.grid, // grid name
        report.records.len(),
        report.cache_hits,
        report.cache_misses,
    );
    (line, failed)
}

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = names.iter().find(|name| figure(name).is_none()) {
        let valid: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        eprintln!(
            "error: unknown figure `{unknown}`\nusage: all_experiments [FIGURE...]\nfigures: {}",
            valid.join(" ")
        );
        return ExitCode::from(2);
    }
    let figures: Vec<&Figure> = FIGURES
        .iter()
        .filter(|f| names.is_empty() || names.iter().any(|name| name == f.name))
        .collect();

    let params = ExperimentParams::from_env();
    let out_dir = std::env::var("DSMT_RESULTS").unwrap_or_else(|_| "results".to_string());
    let what = if names.is_empty() {
        "all experiments".to_string()
    } else {
        let selected: Vec<&str> = figures.iter().map(|f| f.name).collect();
        selected.join(" ")
    };
    eprintln!(
        "running {what} ({} instructions/point, {} workers)",
        params.instructions_per_point, params.workers
    );
    let engine = params.engine();
    let mut footer = Vec::new();
    let (mut cells, mut hits, mut misses) = (0, 0, 0);
    let mut failed_exports = 0;
    let mut failed_gates = Vec::new();
    for fig in figures {
        let report = fig.run(&engine, &params);
        let (section, holds) = fig.section(&report);
        print!("{section}");
        if fig.gates && !holds {
            failed_gates.push(fig.name);
        }
        let (line, failed) = export_report(&report, &out_dir);
        footer.push(line);
        failed_exports += failed;
        cells += report.records.len();
        hits += report.cache_hits;
        misses += report.cache_misses;
    }

    eprintln!("sweep summary:");
    for line in &footer {
        eprintln!("  {line}");
    }
    eprintln!("  total: {cells} cells, {hits} cached, {misses} simulated");
    for name in &failed_gates {
        eprintln!("error: {name}: shape checks failed");
    }
    if failed_exports > 0 {
        eprintln!("error: {failed_exports} export file(s) not written under {out_dir}");
    }
    if failed_gates.is_empty() && failed_exports == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
