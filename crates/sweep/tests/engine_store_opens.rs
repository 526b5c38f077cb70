//! How often one engine opens its store. The count is read from the
//! process-wide `store.opens` counter, so this file holds exactly one
//! test: no other test's opens run in its process.

use dsmt_core::SimConfig;
use dsmt_sweep::{Axis, SweepEngine, SweepGrid, WorkloadSpec};

#[test]
fn five_runs_of_one_engine_open_its_store_once() {
    let dir = std::env::temp_dir().join(format!("dsmt-sweep-opens-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let grid = SweepGrid::new("opens", SimConfig::paper_multithreaded(1))
        .with_workload(WorkloadSpec::spec_mix(1_000))
        .with_axis(Axis::l2_latencies(&[16, 64]))
        .with_budget(2_000);
    let engine = SweepEngine::new(2).with_cache_dir(&dir);
    let opens = dsmt_obs::registry().counter("store.opens");
    let before = opens.get();
    for _ in 0..5 {
        let _ = engine.run_many(std::slice::from_ref(&grid));
    }
    assert_eq!(opens.get() - before, 1);
    let _ = std::fs::remove_dir_all(&dir);
}
