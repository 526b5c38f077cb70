//! `dsmt sweep run` resolves `demo` and every figure grid by name, its
//! `DSMT_METRICS` dump carries the counters CI greps, and the shard
//! commands plan, run, report and merge a figure grid to the bytes of a
//! monolithic run.

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

/// The shard CLI path end to end: plan `fig1` into 2 strided shards, run
/// both into one store, read the status, and merge to a `.dsr` that is
/// byte-identical to a monolithic `sweep run`. The options the shard and
/// store commands no longer have are usage errors.
#[test]
fn shard_plan_run_status_merge_matches_a_monolithic_run() {
    let dir = std::env::temp_dir().join(format!("dsmt-shard-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let dsmt = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_dsmt"))
            .args(args)
            .env("DSMT_INSTS", "1000")
            .env("DSMT_SWEEP_CACHE", "off")
            .env("DSMT_LOG", "off")
            .output()
            .expect("run dsmt")
    };
    let ok = |args: &[&str]| {
        let out = dsmt(args);
        assert!(
            out.status.success(),
            "dsmt {args:?}: {:?}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let (plan, store) = (path("plan.json"), path("store"));
    let (merged, mono) = (path("merged.dsr"), path("mono.dsr"));

    ok(&["shard", "plan", "fig1", "--shards", "2", "--out", &plan]);
    let manifest = dsmt_shard::ShardManifest::load(&plan).expect("plan loads");
    let cells = manifest.grid.len();
    assert_eq!(
        manifest.shards,
        vec![
            (0..cells).step_by(2).collect::<Vec<_>>(),
            (1..cells).step_by(2).collect::<Vec<_>>(),
        ],
        "shard 0 owns the even cells"
    );
    for index in ["0", "1"] {
        ok(&["shard", "run", &plan, "--index", index, "--store", &store]);
    }
    let status = ok(&["shard", "status", &plan, "--store", &store]);
    assert!(status.contains("2 done, 0 claimed, 0 missing"), "{status}");
    ok(&["shard", "merge", &plan, "--store", &store, "--dsr", &merged]);
    ok(&["sweep", "run", "fig1", "--dsr", &mono]);
    assert!(
        std::fs::read(&merged).expect("merged .dsr") == std::fs::read(&mono).expect("mono .dsr"),
        "merged .dsr differs from the monolithic run's"
    );

    let rejected: [(&[&str], &str); 5] = [
        (
            &[
                "shard",
                "plan",
                "fig1",
                "--shards",
                "2",
                "--strategy",
                "strided",
            ],
            "unknown flag `--strategy`",
        ),
        (
            &["shard", "status", &plan, "--store", &store, "--watch", "1"],
            "unknown flag `--watch`",
        ),
        (
            &["shard", "merge", &plan, "--store", &store, "--wait", "1"],
            "unknown flag `--wait`",
        ),
        (
            &["report", &mono, "--json", &path("report.json")],
            "unknown flag `--json`",
        ),
        (
            &["store", "synth", &path("synth"), "--records", "10"],
            "usage: dsmt store stat",
        ),
    ];
    for (args, why) in rejected {
        let out = dsmt(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "dsmt {args:?}: {stderr}");
        assert!(stderr.contains(why), "dsmt {args:?}: {stderr}");
    }
    assert!(!dir.join("report.json").exists() && !dir.join("synth").exists());
    let _ = std::fs::remove_dir_all(&dir);
}
