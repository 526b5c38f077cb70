//! The `all_experiments` driver end to end at a tiny budget: a named
//! figure prints just its section and exports its files, a failed export
//! fails the run without the footer naming the missing files, and an
//! unknown name exits 2 before anything runs.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh directory for one test's outputs.
fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("dsmt-all-experiments-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs the driver uncached at the smallest budget, exporting to `results`.
fn run(args: &[&str], results: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_all_experiments"))
        .args(args)
        .env("DSMT_INSTS", "1000")
        .env("DSMT_SWEEP_CACHE", "off")
        .env("DSMT_RESULTS", results)
        .env("DSMT_LOG", "off")
        .output()
        .expect("run all_experiments")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn a_named_figure_prints_its_section_and_exports_its_files() {
    let dir = scratch("named");
    let results = dir.join("results");
    let out = run(&["fig3"], &results);
    let (stdout, stderr) = (text(&out.stdout), text(&out.stderr));
    assert!(out.status.success(), "exit {:?}\n{stderr}", out.status);
    assert!(stdout.starts_with("## Figure 3 — "), "{stdout}");
    assert_eq!(stdout.matches("\n## ").count(), 0, "one section only");
    let json = results.join("fig3.json");
    let csv = results.join("fig3.csv");
    assert!(json.is_file() && csv.is_file());
    assert!(
        stderr.contains(&format!("-> {}, {}", json.display(), csv.display())),
        "{stderr}"
    );
    assert!(
        stderr.contains("total: 6 cells, 0 cached, 6 simulated"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_failed_export_fails_the_run_after_printing_everything() {
    let dir = scratch("export");
    let file = dir.join("plain-file");
    std::fs::write(&file, "not a directory").expect("write file");
    let results = file.join("results");
    let out = run(&["fig3"], &results);
    let (stdout, stderr) = (text(&out.stdout), text(&out.stderr));
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stdout.starts_with("## Figure 3 — "), "{stdout}");
    assert!(stderr.contains("total: 6 cells"), "{stderr}");
    assert!(stderr.contains("-> nothing written"), "{stderr}");
    assert!(
        !stderr.contains("fig3.json,"),
        "footer names an unwritten file:\n{stderr}"
    );
    assert!(
        stderr.contains("error: 2 export file(s) not written"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unknown_figure_exits_2_and_lists_the_figures() {
    let dir = scratch("unknown");
    let results = dir.join("results");
    let out = run(&["fig3", "fig2"], &results);
    let stderr = text(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(out.stdout.is_empty());
    assert!(stderr.contains("unknown figure `fig2`"), "{stderr}");
    assert!(
        stderr.contains(
            "fig1 fig3 fig4 fig5 fetch-policy fetch-policy-hetero seed-variance ablations"
        ),
        "{stderr}"
    );
    assert!(
        !stderr.contains("running"),
        "simulated before rejecting:\n{stderr}"
    );
    assert!(!results.exists());
    let _ = std::fs::remove_dir_all(&dir);
}
