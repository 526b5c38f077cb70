//! `dsmt sweep run` resolves `demo` and every figure grid by name, and
//! its `DSMT_METRICS` dump carries the counters CI greps.

use std::process::Command;

#[test]
fn sweep_run_accepts_demo_and_every_figure_grid() {
    let names = [
        "demo",
        "fig1",
        "fig3",
        "fig4",
        "fig5-l2-16",
        "fig5-l2-64",
        "fetch-policy",
        "fetch-policy-hetero",
        "seed-variance",
        "ablation-iq-depth",
        "ablation-mshr",
        "ablation-unit-split",
        "ablation-l1-assoc",
    ];
    for name in names {
        let out = Command::new(env!("CARGO_BIN_EXE_dsmt"))
            .args(["sweep", "run", name])
            .env("DSMT_INSTS", "1000")
            .env("DSMT_SWEEP_CACHE", "off")
            .env("DSMT_LOG", "off")
            .output()
            .expect("run dsmt");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "dsmt sweep run {name}: {:?}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.starts_with(&format!("`{name}`: ")), "{stdout}");
    }
}

/// `DSMT_METRICS` writes sorted `name,value` lines under a `name,value`
/// header — the form CI greps directly. The demo grid (2 thread counts ×
/// decoupled on/off × 3 L2 latencies) reaches L2 latency 256, so the
/// stall fast-forward must have skipped cycles.
#[test]
fn metrics_dump_counts_every_demo_cell_and_skipped_cycles() {
    let dump = std::env::temp_dir().join(format!("dsmt-metrics-{}.csv", std::process::id()));
    let _ = std::fs::remove_file(&dump);
    let out = Command::new(env!("CARGO_BIN_EXE_dsmt"))
        .args(["sweep", "run", "demo"])
        .env("DSMT_SWEEP_CACHE", "off")
        .env("DSMT_LOG", "off")
        .env("DSMT_METRICS", &dump)
        .output()
        .expect("run dsmt");
    assert!(
        out.status.success(),
        "{:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with("`demo`: 12 cells (0 cached, 12 simulated)"),
        "{stdout}"
    );

    let text = std::fs::read_to_string(&dump).expect("metrics dump written");
    let _ = std::fs::remove_file(&dump);
    let mut lines = text.lines();
    assert_eq!(lines.next(), Some("name,value"), "{text}");
    let counters: Vec<(&str, u64)> = lines
        .map(|line| {
            let (name, value) = line.split_once(',').expect("name,value line");
            (name, value.parse().expect("counter value"))
        })
        .collect();
    assert!(
        counters.windows(2).all(|w| w[0].0 < w[1].0),
        "names sorted and unique: {text}"
    );
    let counter = |name: &str| counters.iter().find(|(n, _)| *n == name).map(|c| c.1);
    assert_eq!(counter("sweep.cells_simulated"), Some(12), "{text}");
    assert!(
        counter("core.busy_cycles_skipped").is_some_and(|n| n > 0),
        "{text}"
    );
}
