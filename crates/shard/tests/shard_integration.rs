//! End-to-end sharding guarantees: a grid planned into shards, executed in
//! arbitrary order (optionally on a shared cache), merges into a report that
//! is **byte-identical** to a monolithic run — the subsystem's acceptance
//! criterion.

use dsmt_core::SimConfig;
use dsmt_shard::{
    merge_from, merge_shards, plan, recover, run_shard, DsrFile, MergeError, RecoverOptions,
    ShardManifest, ShardStrategy, Transport,
};
use dsmt_sweep::{Axis, SweepEngine, SweepGrid, WorkloadSpec};

fn grid() -> SweepGrid {
    SweepGrid::new("integ", SimConfig::paper_multithreaded(1))
        .with_workload(WorkloadSpec::spec_mix(1_500))
        .with_axis(Axis::threads(&[1, 2]))
        .with_axis(Axis::l2_latencies(&[1, 16, 64]))
        .with_axis(Axis::decoupled(&[true, false]))
        .with_budget(5_000)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dsmt-shard-integ-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The core determinism claim: plan 4 shards, run them in arbitrary
/// order, merge, and compare against a monolithic run — logical records,
/// canonical JSON, and packaged `.dsr` bytes.
#[test]
fn four_shards_any_order_merge_bit_identical_to_monolithic() {
    let grid = grid();
    let mono = SweepEngine::new(2).without_cache().run(&grid);
    let mono_dsr = DsrFile::from_report(&grid, &mono, 0, 1);

    let manifest = plan(&grid, 4, ShardStrategy::Strided).expect("plan");
    // Arbitrary execution order, mixed worker counts per shard.
    let order = [2usize, 0, 3, 1];
    let mut shard_files = Vec::new();
    for (slot, &index) in order.iter().enumerate() {
        let engine = SweepEngine::new(1 + slot % 3).without_cache();
        let run = run_shard(&manifest, index, &engine).expect("shard run");
        shard_files.push(run.dsr);
    }
    let merged = merge_shards(&manifest, &shard_files).expect("merge");

    assert_eq!(
        merged.records, mono.records,
        "merged records differ from monolithic"
    );
    assert_eq!(
        serde::to_string(&merged.records),
        serde::to_string(&mono.records),
        "canonical JSON differs"
    );
    let merged_dsr = DsrFile::from_report(&grid, &merged, 0, 1);
    assert_eq!(
        merged_dsr.encode(),
        mono_dsr.encode(),
        "packaged .dsr bytes differ"
    );
}

/// Shards running against one shared cache dedup their work: the total
/// simulated-cell count across all shards equals the grid size, and a
/// second pass over any shard is a pure replay.
#[test]
fn shards_share_and_dedup_the_result_cache() {
    let cache_dir = temp_dir("cache");
    let grid = grid();
    let manifest = plan(&grid, 4, ShardStrategy::Strided).expect("plan");

    let engine = SweepEngine::new(2).with_cache_dir(&cache_dir);
    let mut total_misses = 0;
    let mut total_hits = 0;
    for index in [3, 1, 0, 2] {
        let run = run_shard(&manifest, index, &engine).expect("shard run");
        total_misses += run.report.cache_misses;
        total_hits += run.report.cache_hits;
    }
    assert_eq!(
        total_misses,
        grid.len(),
        "every cell simulated exactly once across the 4 shards"
    );
    assert_eq!(total_hits, 0);

    // Re-running a shard replays entirely from the shared cache...
    let replay = run_shard(&manifest, 2, &engine).expect("replay");
    assert_eq!(replay.report.cache_misses, 0);
    assert_eq!(replay.report.cache_hits, manifest.shards[2].len());
    // ...and a monolithic run over the same cache simulates nothing new,
    // proving shard and monolithic cache keys agree.
    let mono = engine.run(&grid);
    assert_eq!(mono.cache_misses, 0);
    assert_eq!(mono.cache_hits, grid.len());

    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// The store transport end-to-end, sharing **one** directory between the
/// sweep cache and the shard outputs (the one-directory fleet protocol):
/// shards publish into the store, a merger opened afterwards reads them
/// back out, and the merged `.dsr` is byte-identical to a monolithic
/// run's.
#[test]
fn store_transport_merges_bit_identical_from_one_shared_directory() {
    let dir = temp_dir("store-transport");
    let grid = grid();
    let manifest = plan(&grid, 3, ShardStrategy::Strided).expect("plan");

    // Workers simulate through the store-as-cache AND publish their shard
    // outputs into the same store directory.
    let engine = SweepEngine::new(2).with_cache_dir(&dir);
    for index in [2, 0, 1] {
        let run = run_shard(&manifest, index, &engine).expect("shard run");
        let mut worker = Transport::store(&dir).expect("worker transport");
        worker.publish(&manifest, &run.dsr).expect("publish");
    }

    let merger = Transport::store(&dir).expect("merger transport");
    let merged = merge_from(&manifest, &merger).expect("merge from store");
    let mono = SweepEngine::new(1).without_cache().run(&grid);
    assert_eq!(merged.records, mono.records);
    assert_eq!(
        DsrFile::from_report(&grid, &merged, 0, 1).encode(),
        DsrFile::from_report(&grid, &mono, 0, 1).encode(),
        "store-transport merge must stay byte-identical to monolithic"
    );

    // The same directory still answers as a sweep cache: a monolithic run
    // over it simulates nothing (scenario records and shard outputs
    // coexist under disjoint key namespaces).
    let warm = engine.run(&grid);
    assert_eq!(warm.cache_misses, 0);
    assert_eq!(warm.cache_hits, grid.len());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Self-healing over the store transport: a partially-run fleet is
/// completed by `recover`, and a merge before completion names the first
/// missing shard.
#[test]
fn store_transport_recovery_completes_a_partial_fleet() {
    let dir = temp_dir("store-recover");
    let grid = grid();
    let manifest = plan(&grid, 4, ShardStrategy::Strided).expect("plan");
    let engine = SweepEngine::new(2).with_cache_dir(&dir);

    let mut transport = Transport::store(&dir).expect("transport");
    let run = run_shard(&manifest, 1, &engine).expect("shard run");
    transport.publish(&manifest, &run.dsr).expect("publish");

    assert_eq!(
        merge_from(&manifest, &transport),
        Err(MergeError::MissingShard(0)),
        "merging a partial store names the missing shard"
    );
    let status = transport.status(&manifest);
    assert_eq!((status.done(), status.missing()), (1, 3));

    let outcome = recover(
        &manifest,
        &mut transport,
        &engine,
        &RecoverOptions::default(),
    )
    .expect("recover");
    assert_eq!(outcome.executed(), vec![0, 2, 3]);
    assert!(transport.status(&manifest).complete());

    let merged = merge_from(&manifest, &transport).expect("merge");
    let mono = SweepEngine::new(1).without_cache().run(&grid);
    assert_eq!(merged.records, mono.records);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The full file-based workflow the CLI drives: manifest and `.dsr` files
/// on disk, loaded back, merged, compared.
#[test]
fn on_disk_plan_run_merge_round_trip() {
    let work_dir = temp_dir("files");
    std::fs::create_dir_all(&work_dir).expect("work dir");
    let grid = grid();
    let manifest = plan(&grid, 2, ShardStrategy::Strided).expect("plan");
    let manifest_path = work_dir.join("plan.json");
    manifest.save(&manifest_path).expect("save manifest");

    let loaded = ShardManifest::load(&manifest_path).expect("load manifest");
    assert_eq!(loaded, manifest);

    let engine = SweepEngine::new(2).without_cache();
    for index in 0..loaded.num_shards() {
        let run = run_shard(&loaded, index, &engine).expect("run");
        run.dsr
            .write(work_dir.join(format!("shard-{index}.dsr")))
            .expect("write dsr");
    }

    let files: Vec<DsrFile> = (0..loaded.num_shards())
        .map(|index| DsrFile::read(work_dir.join(format!("shard-{index}.dsr"))).expect("read dsr"))
        .collect();
    let merged = merge_shards(&loaded, &files).expect("merge");
    let mono = SweepEngine::new(1).without_cache().run(&grid);
    assert_eq!(merged.records, mono.records);

    let _ = std::fs::remove_dir_all(&work_dir);
}

/// The byte-identity acceptance criterion survives fully-enabled
/// telemetry: a sharded fleet traced at debug level (with heartbeats on)
/// still merges to the exact `.dsr` bytes of an untraced monolithic run.
#[test]
fn telemetry_enabled_fleet_merges_byte_identical() {
    let grid = grid();
    let mono = SweepEngine::new(2).without_cache().run(&grid);
    let mono_dsr = DsrFile::from_report(&grid, &mono, 0, 1);

    let dir = temp_dir("telemetry");
    let trace = std::env::temp_dir().join(format!("dsmt-shard-trace-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&trace);
    dsmt_obs::init_from_spec(&format!("jsonl:{}", trace.display()));

    let manifest = plan(&grid, 3, ShardStrategy::Strided).expect("plan");
    let mut transport = Transport::store(&dir).expect("store transport");
    let engine = SweepEngine::new(2).without_cache();
    let outcome = recover(
        &manifest,
        &mut transport,
        &engine,
        &RecoverOptions {
            steal_after: None,
            heartbeat: Some(std::time::Duration::from_millis(50)),
        },
    )
    .expect("traced recovery pass");
    assert_eq!(outcome.executed(), vec![0, 1, 2]);
    let merged = merge_from(&manifest, &transport).expect("merge");
    dsmt_obs::init_from_spec("off");

    let merged_dsr = DsrFile::from_report(&grid, &merged, 0, 1);
    assert_eq!(
        merged_dsr.encode(),
        mono_dsr.encode(),
        "telemetry must never leak into the merged .dsr bytes"
    );

    // The trace recorded the fleet protocol, one JSON object per line.
    let text = std::fs::read_to_string(&trace).expect("trace written");
    assert!(text.lines().any(|l| l.contains("\"shard.claim_acquired\"")));
    assert!(text.lines().any(|l| l.contains("\"shard.merged\"")));
    for line in text.lines() {
        let _: serde::Value = serde::from_str(line)
            .unwrap_or_else(|e| panic!("unparseable trace line ({e}): {line}"));
    }

    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_dir_all(&dir);
}
