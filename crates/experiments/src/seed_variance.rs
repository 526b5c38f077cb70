//! Per-cell seed variance study: how sensitive the headline numbers are
//! to the synthetic-workload seed.
//!
//! Every figure of the reproduction uses [`SeedMode::Shared`] for
//! continuity with the seed harness — one seed, so a swept knob is the
//! only difference between neighbouring cells. This study quantifies what
//! that choice hides: the same grid point is simulated [`REPLICAS`] times
//! under decorrelated seeds ([`SeedMode::PerCell`] over replicated
//! workload entries), and the report carries mean, standard deviation and
//! spread of IPC per configuration. Small relative deviations are what
//! justify quoting single-seed numbers everywhere else.

use dsmt_core::SimConfig;
use dsmt_sweep::{Axis, RunRecord, SeedMode, SweepGrid, SweepReport};

use crate::report::{fmt_f, fmt_pct};
use crate::{ExperimentParams, Table};

/// Seeds per grid point.
pub const REPLICAS: usize = 4;

/// The variance grid: the paper's multithreaded machine at 2 and 4
/// contexts, L2 at 16 and 64 cycles, with the spec mix replicated
/// [`REPLICAS`] times under per-cell seeding.
#[must_use]
pub fn grid(params: &ExperimentParams) -> SweepGrid {
    SweepGrid::new("seed-variance", SimConfig::paper_multithreaded(1))
        .with_workloads(std::iter::repeat_n(params.spec_mix(), REPLICAS))
        .with_axis(Axis::threads(&[2, 4]))
        .with_axis(Axis::l2_latencies(&[16, 64]))
        .with_seed(params.seed)
        .with_seed_mode(SeedMode::PerCell)
        .with_budget(params.instructions_per_point)
}

/// Mean/deviation of one grid point across seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct VarianceRow {
    /// (axis name, value label) pairs identifying the configuration.
    pub labels: Vec<(String, String)>,
    /// Per-replica IPC samples, in replica order.
    pub samples: Vec<f64>,
    /// Mean IPC across replicas.
    pub mean: f64,
    /// Population standard deviation of IPC across replicas.
    pub stddev: f64,
}

impl VarianceRow {
    /// Builds a row from raw IPC samples, computing mean and population
    /// standard deviation (also used by the fetch-policy-hetero figure to
    /// quote its separations in units of seed noise).
    #[must_use]
    pub fn from_samples(labels: Vec<(String, String)>, samples: Vec<f64>) -> Self {
        let n = samples.len().max(1) as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n;
        VarianceRow {
            labels,
            samples,
            mean,
            stddev: var.sqrt(),
        }
    }

    /// Coefficient of variation (stddev over mean).
    #[must_use]
    pub fn relative_stddev(&self) -> f64 {
        self.stddev / self.mean.max(1e-12)
    }

    /// Smallest sample.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Largest sample.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// The complete variance data set.
#[derive(Debug, Clone, PartialEq)]
pub struct VarianceResults {
    /// One row per grid configuration.
    pub rows: Vec<VarianceRow>,
}

/// Distils a seed-variance report: records are grouped by their position
/// within each workload-replica block (replicas are the outermost grid
/// dimension, so cell `i` belongs to configuration `i % block`).
#[must_use]
pub fn distill(report: &SweepReport) -> VarianceResults {
    let n = report.records.len();
    assert!(
        n.is_multiple_of(REPLICAS) && n > 0,
        "seed-variance report must hold {REPLICAS} full replica blocks, got {n} records"
    );
    let block = n / REPLICAS;
    let rows = (0..block)
        .map(|j| {
            let samples: Vec<&RunRecord> = (0..REPLICAS)
                .map(|w| &report.records[w * block + j])
                .collect();
            debug_assert!(samples
                .iter()
                .all(|r| r.labels == samples[0].labels && r.workload == samples[0].workload));
            VarianceRow::from_samples(
                samples[0].labels.clone(),
                samples.iter().map(|r| r.results.ipc()).collect(),
            )
        })
        .collect();
    VarianceResults { rows }
}

impl VarianceResults {
    /// The study table: mean, stddev and spread per configuration.
    #[must_use]
    pub fn table(&self) -> Table {
        let mut headers: Vec<String> = self
            .rows
            .first()
            .map(|r| r.labels.iter().map(|(k, _)| k.clone()).collect())
            .unwrap_or_default();
        headers.extend(
            ["mean IPC", "stddev", "rel dev", "min", "max", "seeds"]
                .iter()
                .map(ToString::to_string),
        );
        let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut table = Table::new(
            format!("Seed variance ({REPLICAS} decorrelated seeds per point)"),
            &headers_ref,
        );
        for row in &self.rows {
            let mut cells: Vec<String> = row.labels.iter().map(|(_, v)| v.clone()).collect();
            cells.push(fmt_f(row.mean, 3));
            cells.push(fmt_f(row.stddev, 4));
            cells.push(fmt_pct(row.relative_stddev()));
            cells.push(fmt_f(row.min(), 3));
            cells.push(fmt_f(row.max(), 3));
            cells.push(row.samples.len().to_string());
            table.add_row(cells);
        }
        table
    }

    /// The claims this study documents, with pass/fail.
    #[must_use]
    pub fn shape_checks(&self) -> Vec<(String, bool)> {
        let mut checks = vec![(
            format!("every configuration carries {REPLICAS} seed samples"),
            !self.rows.is_empty() && self.rows.iter().all(|r| r.samples.len() == REPLICAS),
        )];
        checks.push((
            "seeds genuinely differ (no configuration has all-identical samples)".to_string(),
            self.rows
                .iter()
                .all(|r| r.samples.iter().any(|&s| s != r.samples[0])),
        ));
        checks.push((
            "single-seed figures are representative (relative stddev < 10% everywhere)".to_string(),
            self.rows.iter().all(|r| r.relative_stddev() < 0.10),
        ));
        checks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentParams {
        ExperimentParams {
            instructions_per_point: 20_000,
            insts_per_program: 6_000,
            seed: 42,
            workers: 4,
        }
    }

    #[test]
    fn grid_replicates_workloads_under_per_cell_seeding() {
        let g = grid(&tiny());
        assert_eq!(g.len(), REPLICAS * 4);
        assert_eq!(g.seed_mode, SeedMode::PerCell);
        let cells = g.cells();
        // Replicas of one configuration differ only in seed.
        let block = cells.len() / REPLICAS;
        let (a, b) = (&cells[0], &cells[block]);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.scenario.config, b.scenario.config);
        assert_ne!(a.scenario.seed, b.scenario.seed);
    }

    #[test]
    fn study_distills_and_passes_its_shape_checks() {
        let params = tiny();
        let results = distill(&params.engine().run(&grid(&params)));
        assert_eq!(results.rows.len(), 4);
        assert_eq!(results.table().num_rows(), 4);
        for (claim, ok) in results.shape_checks() {
            assert!(ok, "shape check failed: {claim}");
        }
        // Mean sits inside the sample spread.
        for row in &results.rows {
            assert!(row.min() <= row.mean && row.mean <= row.max());
            assert!(row.stddev >= 0.0);
        }
    }
}
