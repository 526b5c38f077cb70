//! Integration tests for the sweep engine's two load-bearing guarantees:
//! bit-identical records at any worker count, and a fully-cached second run
//! that simulates nothing — plus the store-backed cache's size,
//! concurrent-writer and read-only-replay guarantees.

use std::path::Path;
use std::time::{Duration, SystemTime};

use dsmt_core::SimConfig;
use dsmt_store::Store;
use dsmt_sweep::{
    Axis, SeedMode, SweepEngine, SweepGrid, SweepReport, WorkloadSpec, CACHE_SCHEMA_VERSION,
};
use serde::{Serialize, Value};

fn figure_like_grid(seed_mode: SeedMode) -> SweepGrid {
    // A miniature Figure-4-shaped grid: threads × decoupling × latency,
    // plus a single-benchmark workload next to the SPEC mix.
    SweepGrid::new(
        "integration",
        SimConfig::paper_multithreaded(1).with_queue_scaling(true),
    )
    .with_workload(WorkloadSpec::spec_mix(3_000))
    .with_workload(WorkloadSpec::benchmark("hydro2d"))
    .with_axis(Axis::threads(&[1, 2]))
    .with_axis(Axis::decoupled(&[true, false]))
    .with_axis(Axis::l2_latencies(&[16, 64]))
    .with_budget(8_000)
    .with_seed(42)
    .with_seed_mode(seed_mode)
}

/// Opens a cache directory as a plain store, for inspection.
fn open_store(dir: &Path) -> Store {
    Store::open(dir, CACHE_SCHEMA_VERSION).expect("open the cache's store")
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dsmt-sweep-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn records_are_bit_identical_at_1_4_and_8_workers() {
    for seed_mode in [SeedMode::Shared, SeedMode::PerCell] {
        let grid = figure_like_grid(seed_mode);
        let reference = SweepEngine::new(1).without_cache().run(&grid);
        assert_eq!(reference.records.len(), 16);
        for workers in [4, 8] {
            let got = SweepEngine::new(workers).without_cache().run(&grid);
            assert_eq!(
                got.records, reference.records,
                "worker count must not change results ({seed_mode:?}, {workers} workers)"
            );
        }
        // The serialized form is identical too (what export writes to disk).
        let a = serde::to_string(&reference.records);
        let b = serde::to_string(&SweepEngine::new(4).without_cache().run(&grid).records);
        assert_eq!(a, b);
    }
}

#[test]
fn second_run_is_a_full_cache_hit_with_identical_records() {
    let grid = figure_like_grid(SeedMode::Shared);
    let dir = temp_dir("roundtrip");

    let first = SweepEngine::new(4).with_cache_dir(&dir).run(&grid);
    assert_eq!(first.cache_hits, 0, "cold cache");
    assert_eq!(first.cache_misses, grid.len());

    let second = SweepEngine::new(2).with_cache_dir(&dir).run(&grid);
    assert_eq!(second.cache_misses, 0, "warm cache simulates nothing");
    assert_eq!(second.cache_hits, grid.len());
    assert!(second.fully_cached());
    assert_eq!(
        second.records, first.records,
        "cached records are bit-identical to simulated ones"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn changed_cells_miss_while_unchanged_cells_still_hit() {
    let dir = temp_dir("partial");
    let grid = figure_like_grid(SeedMode::Shared);
    let engine = SweepEngine::new(4).with_cache_dir(&dir);
    let _ = engine.run(&grid);

    // Growing one axis re-simulates only the new cells.
    let mut wider = figure_like_grid(SeedMode::Shared);
    wider.axes[2] = Axis::l2_latencies(&[16, 64, 256]);
    let report = engine.run(&wider);
    assert_eq!(report.records.len(), 24);
    assert_eq!(report.cache_hits, 16, "old cells hit");
    assert_eq!(report.cache_misses, 8, "only the L2=256 cells simulate");

    // Changing the budget invalidates everything (it is part of the key).
    let rebudgeted = figure_like_grid(SeedMode::Shared).with_budget(9_000);
    let report = engine.run(&rebudgeted);
    assert_eq!(report.cache_hits, 0);
    assert_eq!(report.cache_misses, 16);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn merged_reports_preserve_per_grid_telemetry() {
    let dir = temp_dir("merged");
    let engine = SweepEngine::new(4).with_cache_dir(&dir);
    let a = engine.run(&figure_like_grid(SeedMode::Shared));
    let b = engine.run(&figure_like_grid(SeedMode::Shared));
    let merged = SweepReport::merged("both", vec![a, b]);
    assert_eq!(merged.len(), 32);
    assert_eq!(merged.cache_hits, 16);
    assert_eq!(merged.cache_misses, 16);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn telemetry_enabled_run_keeps_records_identical_and_trace_parses() {
    let grid = figure_like_grid(SeedMode::Shared);
    let baseline = SweepEngine::new(1).without_cache().run(&grid);

    let trace = std::env::temp_dir().join(format!("dsmt-sweep-trace-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&trace);
    dsmt_obs::init_from_spec(&format!("jsonl:{}", trace.display()));
    let traced = SweepEngine::new(4)
        .without_cache()
        .with_progress()
        .run(&grid);
    dsmt_obs::init_from_spec("off");

    // Records — the sweep's identity — are untouched by full tracing,
    // live progress and metrics collection, down to the serialized bytes.
    assert_eq!(traced.records, baseline.records);
    assert_eq!(
        serde::to_string(&traced.records),
        serde::to_string(&baseline.records)
    );

    // The run counted its cells in the process-wide registry, which the
    // `DSMT_METRICS` dump reads; the report carries no copy of it.
    let snap = dsmt_obs::registry().snapshot();
    assert!(snap
        .counters
        .iter()
        .any(|(name, _)| name == "sweep.cells_simulated"));

    // Every trace line is one self-contained JSON object with the
    // envelope fields, and the run left its `sweep.done` marker.
    let text = std::fs::read_to_string(&trace).expect("trace written");
    assert!(!text.is_empty());
    for line in text.lines() {
        let v: serde::Value = serde::from_str(line)
            .unwrap_or_else(|e| panic!("unparseable trace line ({e}): {line}"));
        for key in ["ts_ms", "seq", "pid", "level", "event", "fields"] {
            assert!(v.field(key).is_ok(), "trace line missing `{key}`: {line}");
        }
    }
    assert!(text.lines().any(|l| l.contains("\"sweep.done\"")));
    let _ = std::fs::remove_file(&trace);
}

/// The 12-cell grid shape shared by the perf gates (`perf_gates.rs`), the
/// CLI `demo` grid and the CI size assertion.
fn bench_grid() -> SweepGrid {
    SweepGrid::new(
        "bench",
        SimConfig::paper_multithreaded(1).with_queue_scaling(true),
    )
    .with_workload(WorkloadSpec::spec_mix(3_000))
    .with_axis(Axis::threads(&[1, 2]))
    .with_axis(Axis::decoupled(&[true, false]))
    .with_axis(Axis::l2_latencies(&[16, 64, 256]))
    .with_budget(10_000)
}

/// Renders a record the way the v2 cache did: one pretty-JSON
/// `{schema: 2, scenario, results}` file per scenario. Only its size is
/// used, as the baseline the v3 store must beat.
fn v2_entry_text(scenario: &dsmt_sweep::Scenario, results: &dsmt_core::SimResults) -> String {
    let entry = Value::Object(vec![
        ("schema".to_string(), Value::U64(2)),
        ("scenario".to_string(), scenario.to_value()),
        ("results".to_string(), results.to_value()),
    ]);
    serde::to_string_pretty(&entry)
}

#[test]
fn warm_v3_store_is_at_least_5x_smaller_than_the_v2_layout() {
    let dir = temp_dir("size");
    let grid = bench_grid();
    let report = SweepEngine::new(2).with_cache_dir(&dir).run(&grid);
    assert_eq!(report.cache_misses, grid.len());

    let v3_bytes = open_store(&dir).total_bytes();
    assert!(v3_bytes > 0);
    // What the same entries would have cost in the v2 layout.
    let v2_bytes: u64 = report
        .records
        .iter()
        .map(|r| v2_entry_text(&r.scenario, &r.results).len() as u64)
        .sum();
    assert!(
        v3_bytes * 5 <= v2_bytes,
        "v3 store ({v3_bytes} bytes) must be >=5x smaller than the v2 layout ({v2_bytes} bytes)"
    );

    // The warm store then answers a second engine run completely.
    let warm = SweepEngine::new(4).with_cache_dir(&dir).run(&grid);
    assert!(warm.fully_cached());
    assert_eq!(warm.records, report.records);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_sweeps_share_one_store_without_corruption() {
    // Two engines over overlapping subsets racing into one store — the
    // shard executors' sharing pattern. Both publish; a fresh open then
    // verifies every segment and replays the union.
    let dir = temp_dir("race");
    let grid = bench_grid();
    let indices: Vec<usize> = (0..grid.len()).collect();
    std::thread::scope(|s| {
        for half in [&indices[..8], &indices[4..]] {
            let dir = &dir;
            let grid = &grid;
            s.spawn(move || {
                let _ = SweepEngine::new(2)
                    .with_cache_dir(dir)
                    .run_subset(grid, half);
            });
        }
    });
    let replay = SweepEngine::new(2).with_cache_dir(&dir).run(&grid);
    assert!(replay.fully_cached(), "union of subsets covers the grid");
    assert_eq!(
        replay.records,
        SweepEngine::new(1).without_cache().run(&grid).records
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A 4-cell grid small enough to run several times per test.
fn reuse_grid() -> SweepGrid {
    SweepGrid::new("reuse", SimConfig::paper_multithreaded(1))
        .with_workload(WorkloadSpec::spec_mix(1_000))
        .with_axis(Axis::decoupled(&[true, false]))
        .with_axis(Axis::l2_latencies(&[16, 64]))
        .with_budget(3_000)
}

#[test]
fn a_reused_engine_re_simulates_cells_a_peer_published_between_its_runs() {
    let dir = temp_dir("reuse-peer-publish");
    let grid = reuse_grid();
    let engine = SweepEngine::new(2).with_cache_dir(&dir);
    let first = engine.run_subset(&grid, &[0, 1]);
    assert_eq!((first.cache_hits, first.cache_misses), (0, 2));
    // A peer engine simulates and publishes the other two cells.
    let peer = SweepEngine::new(1)
        .with_cache_dir(&dir)
        .run_subset(&grid, &[2, 3]);
    assert_eq!((peer.cache_hits, peer.cache_misses), (0, 2));
    // The reused engine's handle is a snapshot of the directory at its
    // first run plus its own publishes: its own cells hit, the peer's
    // re-simulate, and the records are those of an uncached run.
    let second = engine.run(&grid);
    assert_eq!((second.cache_hits, second.cache_misses), (2, 2));
    assert_eq!(
        second.records,
        SweepEngine::new(1).without_cache().run(&grid).records
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_reused_engine_survives_a_peer_compacting_or_collecting_its_store() {
    let grid = reuse_grid();
    let fresh = SweepEngine::new(1).without_cache().run(&grid).records;
    for compact in [true, false] {
        let dir = temp_dir(&format!("reuse-peer-compact-{compact}"));
        let engine = SweepEngine::new(2).with_cache_dir(&dir);
        // Two segments, so the peer really replaces files.
        let _ = engine.run_subset(&grid, &[0, 1]);
        let _ = engine.run_subset(&grid, &[2, 3]);
        // The peer deletes every segment file; when it compacts, it first
        // publishes the live records as one new segment.
        let mut peer = open_store(&dir);
        let old = peer.segment_infos();
        assert_eq!(old.len(), 2);
        if compact {
            let live = grid
                .cells()
                .iter()
                .map(|cell| {
                    let key = cell.scenario.cache_identity().key;
                    (key, peer.get(key).expect("live record"))
                })
                .collect();
            peer.publish(live).expect("publish");
        }
        for info in &old {
            std::fs::remove_file(dir.join("segments").join(&info.name)).unwrap();
        }
        // The engine's snapshot still indexes the deleted files: their
        // records read as absent, so every cell re-simulates.
        let next = engine.run(&grid);
        assert_eq!(next.records, fresh, "compact: {compact}");
        assert_eq!((next.cache_hits, next.cache_misses), (0, 4));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn an_engine_pointed_at_another_directory_writes_there() {
    let (first_dir, second_dir) = (temp_dir("reuse-dir-a"), temp_dir("reuse-dir-b"));
    let grid = reuse_grid();
    let engine = SweepEngine::new(2).with_cache_dir(&first_dir);
    let _ = engine.run(&grid);
    let first_segments = open_store(&first_dir).segment_infos();
    let engine = engine.with_cache_dir(&second_dir);
    let moved = engine.run(&grid);
    assert_eq!(
        moved.cache_misses,
        grid.len(),
        "the second directory is cold"
    );
    assert_eq!(open_store(&second_dir).record_count(), 4);
    assert_eq!(
        open_store(&first_dir).segment_infos(),
        first_segments,
        "nothing was written into the first directory"
    );
    let _ = std::fs::remove_dir_all(&first_dir);
    let _ = std::fs::remove_dir_all(&second_dir);
}

/// Everything a replay could write: the store directory's and the
/// `segments/` directory's own mtimes, and each segment's name and mtime.
fn disk_state(dir: &Path) -> (SystemTime, SystemTime, Vec<(String, SystemTime)>) {
    let mtime = |p: &Path| std::fs::metadata(p).unwrap().modified().unwrap();
    let segments_dir = dir.join("segments");
    let mut segments: Vec<(String, SystemTime)> = std::fs::read_dir(&segments_dir)
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, mtime(&path))
        })
        .collect();
    segments.sort();
    (mtime(dir), mtime(&segments_dir), segments)
}

#[test]
fn a_fully_warm_replay_writes_nothing() {
    let dir = temp_dir("warm-read-only");
    let grid = reuse_grid();
    let engine = SweepEngine::new(2).with_cache_dir(&dir);
    let _ = engine.run_subset(&grid, &[0, 1]);
    let cold = engine.run(&grid);
    drop(engine);
    // Backdate every mtime, so any write the replay makes, however coarse
    // the filesystem's clock, moves one of them.
    let past = SystemTime::now() - Duration::from_secs(3600);
    let segments_dir = dir.join("segments");
    for entry in std::fs::read_dir(&segments_dir).unwrap() {
        let file = std::fs::File::options()
            .write(true)
            .open(entry.unwrap().path())
            .unwrap();
        file.set_modified(past).unwrap();
    }
    for d in [&segments_dir, &dir] {
        std::fs::File::open(d).unwrap().set_modified(past).unwrap();
    }
    let before = disk_state(&dir);
    assert_eq!(before.2.len(), 2, "two segments published");

    let warm = SweepEngine::new(2).with_cache_dir(&dir).run(&grid);
    assert_eq!((warm.cache_hits, warm.cache_misses), (grid.len(), 0));
    assert_eq!(warm.records, cold.records);
    assert_eq!(disk_state(&dir), before, "a warm replay wrote to the store");
    let _ = std::fs::remove_dir_all(&dir);
}
