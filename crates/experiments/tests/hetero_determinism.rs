//! Determinism of the assembled heterogeneous grid: the
//! `fetch-policy-hetero` figure must produce bit-identical records at any
//! worker count and any pool claim cap, and a sharded fleet's
//! merged `.dsr` must encode to the same bytes as a monolithic run —
//! assembled `ProgramWorkload`s get no special dispensation from the
//! sweep engine's reproducibility contract.

use dsmt_experiments::{fetch_policy_hetero, ExperimentParams};
use dsmt_shard::{merge_shards, plan, run_shard, DsrFile, ShardStrategy};
use dsmt_sweep::SweepEngine;

fn tiny() -> ExperimentParams {
    ExperimentParams {
        instructions_per_point: 8_000,
        insts_per_program: 3_000,
        seed: 42,
        workers: 1,
    }
}

#[test]
fn hetero_grid_is_bit_identical_across_workers_and_claim_sizes() {
    let grid = fetch_policy_hetero::grid(&tiny());
    let reference = SweepEngine::new(1).without_cache().with_batch(1).run(&grid);
    for (workers, batch) in [(2, 1), (4, 3), (3, 64)] {
        let report = SweepEngine::new(workers)
            .without_cache()
            .with_batch(batch)
            .run(&grid);
        assert_eq!(
            report.records, reference.records,
            "workers={workers} batch={batch}: records differ from single-worker run"
        );
    }
}

#[test]
fn sharded_hetero_grid_merges_byte_identical_to_monolithic() {
    let grid = fetch_policy_hetero::grid(&tiny());
    let mono = SweepEngine::new(2).without_cache().run(&grid);
    let mono_dsr = DsrFile::from_report(&grid, &mono, 0, 1);

    let manifest = plan(&grid, 3, ShardStrategy::Strided).expect("plan");
    // Arbitrary execution order, mixed worker counts per shard.
    let mut shard_files = Vec::new();
    for (slot, index) in [2usize, 0, 1].into_iter().enumerate() {
        let engine = SweepEngine::new(1 + slot).without_cache();
        let run = run_shard(&manifest, index, &engine).expect("shard run");
        shard_files.push(run.dsr);
    }
    let merged = merge_shards(&manifest, &shard_files).expect("merge");

    assert_eq!(merged.records, mono.records);
    assert_eq!(
        DsrFile::from_report(&grid, &merged, 0, 1).encode(),
        mono_dsr.encode(),
        "merged sharded .dsr bytes differ from the monolithic run"
    );
}
