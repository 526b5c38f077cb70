//! The derived and hand-written `Serialize` impls write, straight to text,
//! the same JSON that writing their `Value` tree gives, compact and pretty,
//! for every type the sweep persists, exports or hashes.

use dsmt_core::SimConfig;
use dsmt_experiments::{figure_grids, ExperimentParams};
use dsmt_sweep::{Axis, SweepEngine, SweepGrid, WorkloadSpec};
use serde::Serialize;

fn assert_paths_agree<T: Serialize>(x: &T, what: &str) {
    let tree = x.to_value();
    assert_eq!(
        serde::to_string(x),
        serde::to_string(&tree),
        "compact JSON of {what}"
    );
    assert_eq!(
        serde::to_string_pretty(x),
        serde::to_string_pretty(&tree),
        "pretty JSON of {what}"
    );
}

#[test]
fn every_figure_grid_and_cell_writes_its_tree_text() {
    let grids = figure_grids(&ExperimentParams::standard());
    let mut cells = 0;
    for grid in &grids {
        assert_paths_agree(grid, &format!("grid {}", grid.name));
        for cell in grid.cells() {
            assert_paths_agree(
                &cell.scenario,
                &format!("{} cell {}", grid.name, cell.index),
            );
            cells += 1;
        }
    }
    assert!(cells > 200, "only {cells} cells enumerated");
}

#[test]
fn results_records_and_reports_write_their_tree_text() {
    let grid = SweepGrid::new("typed-json", SimConfig::paper_multithreaded(1))
        .with_workload(WorkloadSpec::spec_mix(1_000))
        .with_axis(Axis::threads(&[1, 2]))
        .with_budget(2_000);
    let report = SweepEngine::new(1).without_cache().run(&grid);
    assert_eq!(report.records.len(), 2);
    let record = &report.records[1];
    assert_paths_agree(&record.results, "SimResults");
    assert_paths_agree(record, "RunRecord");
    assert_paths_agree(&report, "SweepReport");
}
