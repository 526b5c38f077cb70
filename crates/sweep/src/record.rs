//! Structured sweep results: one record per cell, one report per grid.

use dsmt_core::SimResults;
use serde::{Deserialize, Serialize};

use crate::Scenario;

/// Wall-clock throughput telemetry for one simulated (or replayed) cell.
///
/// Unlike `results`, these numbers depend on the host machine, the worker
/// count and the cache state; they are exported for performance tracking
/// but deliberately excluded from record equality, which covers only the
/// deterministic simulation outcome.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CellPerf {
    /// Wall-clock seconds spent producing this cell's results (simulation,
    /// or cache replay on a hit).
    pub wall_secs: f64,
    /// Graduated instructions per wall-clock second.
    pub instructions_per_sec: f64,
    /// Simulated cycles per wall-clock second.
    pub sim_cycles_per_sec: f64,
}

impl CellPerf {
    /// Derives the throughput rates for `results` produced in `wall_secs`.
    #[must_use]
    pub fn new(results: &SimResults, wall_secs: f64) -> Self {
        let denom = wall_secs.max(1e-12);
        CellPerf {
            wall_secs,
            instructions_per_sec: results.instructions as f64 / denom,
            sim_cycles_per_sec: results.cycles as f64 / denom,
        }
    }
}

/// The result of one sweep cell, with full provenance: the record alone is
/// enough to reproduce the simulation (`scenario`) and to place it in the
/// grid (`labels`).
///
/// Records deliberately exclude anything scheduling-dependent from their
/// *identity*: both equality and the canonical JSON form ignore `perf`
/// (wall time is machine- and scheduling-dependent), so a grid's records —
/// in memory and on disk — stay bit-identical across worker counts and
/// across cached/uncached runs. Per-cell throughput is still exported via
/// the CSV telemetry columns (see `export::CSV_METRICS`) and the in-memory
/// field.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Cell index in grid order.
    pub cell: usize,
    /// Grid name.
    pub grid: String,
    /// Workload label.
    pub workload: String,
    /// (axis name, value label) pairs in axis order.
    pub labels: Vec<(String, String)>,
    /// Cache key of the scenario (hex).
    pub key: String,
    /// The fully specified simulation that produced `results`.
    pub scenario: Scenario,
    /// The simulation results.
    pub results: SimResults,
    /// Host throughput while producing this cell (not part of equality).
    pub perf: CellPerf,
}

impl PartialEq for RunRecord {
    fn eq(&self, other: &Self) -> bool {
        // `perf` intentionally omitted: see the struct docs.
        self.cell == other.cell
            && self.grid == other.grid
            && self.workload == other.workload
            && self.labels == other.labels
            && self.key == other.key
            && self.scenario == other.scenario
            && self.results == other.results
    }
}

impl RunRecord {
    /// The value label for a named axis, if the grid swept it.
    #[must_use]
    pub fn label(&self, axis: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(name, _)| name == axis)
            .map(|(_, v)| v.as_str())
    }
}

// Hand-written (not derived) so the canonical JSON form excludes `perf`:
// exported record files must stay byte-identical across worker counts,
// cache state and host machines.
impl Serialize for RunRecord {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("cell".to_string(), self.cell.to_value()),
            ("grid".to_string(), self.grid.to_value()),
            ("workload".to_string(), self.workload.to_value()),
            ("labels".to_string(), self.labels.to_value()),
            ("key".to_string(), self.key.to_value()),
            ("scenario".to_string(), self.scenario.to_value()),
            ("results".to_string(), self.results.to_value()),
        ])
    }
}

impl Deserialize for RunRecord {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(RunRecord {
            cell: Deserialize::from_value(v.field("cell")?)?,
            grid: Deserialize::from_value(v.field("grid")?)?,
            workload: Deserialize::from_value(v.field("workload")?)?,
            labels: Deserialize::from_value(v.field("labels")?)?,
            key: Deserialize::from_value(v.field("key")?)?,
            scenario: Deserialize::from_value(v.field("scenario")?)?,
            results: Deserialize::from_value(v.field("results")?)?,
            // Telemetry is not persisted in the canonical form.
            perf: CellPerf {
                wall_secs: 0.0,
                instructions_per_sec: 0.0,
                sim_cycles_per_sec: 0.0,
            },
        })
    }
}

/// Everything a sweep produced: records in grid order plus cache telemetry.
///
/// The JSON form additionally carries the derived `instructions_per_sec`
/// and `sim_cycles_per_sec` aggregate rates (computed, not stored).
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Grid name.
    pub grid: String,
    /// One record per cell, in grid order.
    pub records: Vec<RunRecord>,
    /// Cells answered from the on-disk cache.
    pub cache_hits: usize,
    /// Cells that had to simulate.
    pub cache_misses: usize,
    /// Aggregate compute seconds for this report's cells: the sum of the
    /// per-cell wall times. Equals wall-clock time for a serial run and is
    /// additive across grids and merges (a shared engine wall clock would
    /// double-count when several grids share one pool). Not part of
    /// equality, like [`RunRecord::perf`].
    pub wall_secs: f64,
}

impl PartialEq for SweepReport {
    fn eq(&self, other: &Self) -> bool {
        // `wall_secs` intentionally omitted: see its field docs.
        self.grid == other.grid
            && self.records == other.records
            && self.cache_hits == other.cache_hits
            && self.cache_misses == other.cache_misses
    }
}

impl SweepReport {
    /// Total graduated instructions per compute second across the report
    /// (total work over [`SweepReport::wall_secs`]) — a per-core
    /// throughput figure that is stable across worker counts.
    #[must_use]
    pub fn instructions_per_sec(&self) -> f64 {
        let insts: u64 = self.records.iter().map(|r| r.results.instructions).sum();
        insts as f64 / self.wall_secs.max(1e-12)
    }

    /// Total simulated cycles per compute second across the report.
    #[must_use]
    pub fn sim_cycles_per_sec(&self) -> f64 {
        let cycles: u64 = self.records.iter().map(|r| r.results.cycles).sum();
        cycles as f64 / self.wall_secs.max(1e-12)
    }

    /// Merges several reports (e.g. the two Figure-5 grids) into one,
    /// renumbering cells sequentially.
    ///
    /// # Panics
    ///
    /// Panics if `reports` is empty.
    #[must_use]
    pub fn merged(name: impl Into<String>, reports: Vec<SweepReport>) -> SweepReport {
        assert!(!reports.is_empty(), "nothing to merge");
        let mut out = SweepReport {
            grid: name.into(),
            records: Vec::new(),
            cache_hits: 0,
            cache_misses: 0,
            wall_secs: 0.0,
        };
        for report in reports {
            out.cache_hits += report.cache_hits;
            out.cache_misses += report.cache_misses;
            out.wall_secs += report.wall_secs;
            for mut record in report.records {
                record.cell = out.records.len();
                out.records.push(record);
            }
        }
        out
    }

    /// Total cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the report is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// `true` when every cell came from the cache.
    #[must_use]
    pub fn fully_cached(&self) -> bool {
        self.cache_misses == 0 && !self.records.is_empty()
    }

    /// The union of axis names across all records, in first-seen order.
    ///
    /// Within one grid every record has the same axes; merged reports may
    /// differ. Both the CSV exporter and table renderers derive their axis
    /// columns from this, so they always agree.
    #[must_use]
    pub fn axis_names(&self) -> Vec<String> {
        let mut axes: Vec<String> = Vec::new();
        for record in &self.records {
            for (name, _) in &record.labels {
                if !axes.iter().any(|a| a == name) {
                    axes.push(name.clone());
                }
            }
        }
        axes
    }
}

// Hand-written so the JSON form can include the derived aggregate rates
// alongside the stored fields.
impl Serialize for SweepReport {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("grid".to_string(), self.grid.to_value()),
            ("records".to_string(), self.records.to_value()),
            ("cache_hits".to_string(), self.cache_hits.to_value()),
            ("cache_misses".to_string(), self.cache_misses.to_value()),
            ("wall_secs".to_string(), self.wall_secs.to_value()),
            (
                "instructions_per_sec".to_string(),
                self.instructions_per_sec().to_value(),
            ),
            (
                "sim_cycles_per_sec".to_string(),
                self.sim_cycles_per_sec().to_value(),
            ),
        ])
    }
}

impl Deserialize for SweepReport {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(SweepReport {
            grid: Deserialize::from_value(v.field("grid")?)?,
            records: Deserialize::from_value(v.field("records")?)?,
            cache_hits: Deserialize::from_value(v.field("cache_hits")?)?,
            cache_misses: Deserialize::from_value(v.field("cache_misses")?)?,
            // Absent in pre-telemetry report files; the derived rate fields
            // are recomputed, never read back.
            wall_secs: v
                .field("wall_secs")
                .ok()
                .map_or(Ok(0.0), Deserialize::from_value)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SweepEngine, SweepGrid, WorkloadSpec};
    use dsmt_core::SimConfig;

    fn small_report() -> SweepReport {
        let grid = SweepGrid::new("rec", SimConfig::paper_multithreaded(1))
            .with_workload(WorkloadSpec::benchmark("swim"))
            .with_axis(crate::Axis::l2_latencies(&[1, 16]))
            .with_budget(4_000);
        SweepEngine::new(2).without_cache().run(&grid)
    }

    #[test]
    fn records_carry_provenance_and_labels() {
        let report = small_report();
        assert_eq!(report.len(), 2);
        assert!(!report.is_empty());
        let r = &report.records[1];
        assert_eq!(r.label("l2_latency"), Some("16"));
        assert_eq!(r.label("nope"), None);
        assert_eq!(r.scenario.config.mem.l2_latency, 16);
        assert_eq!(r.key, r.scenario.cache_key_hex());
        // No cache attached: every cell simulated.
        assert_eq!(report.cache_hits, 0);
        assert_eq!(report.cache_misses, 2);
        assert!(!report.fully_cached());
    }

    #[test]
    fn merged_renumbers_cells() {
        let a = small_report();
        let b = small_report();
        let m = SweepReport::merged("both", vec![a, b]);
        assert_eq!(m.len(), 4);
        assert_eq!(
            m.records.iter().map(|r| r.cell).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert_eq!(m.cache_misses, 4);
        assert_eq!(m.grid, "both");
    }

    #[test]
    fn report_json_round_trips() {
        let report = small_report();
        let text = serde::to_string(&report);
        let back: SweepReport = serde::from_str(&text).expect("report round-trips");
        assert_eq!(back, report);
    }

    #[test]
    fn per_cell_perf_is_populated_but_not_identity() {
        let report = small_report();
        for r in &report.records {
            assert!(r.perf.wall_secs > 0.0, "cell {} has no wall time", r.cell);
            assert!(r.perf.instructions_per_sec > 0.0);
            assert!(r.perf.sim_cycles_per_sec > r.perf.instructions_per_sec * 0.05);
        }
        assert!(report.wall_secs > 0.0);
        assert!(report.instructions_per_sec() > 0.0);
        assert!(report.sim_cycles_per_sec() > 0.0);
        // Report compute-seconds are the sum of per-cell wall times, so
        // they stay additive under merging (no double-counted engine wall).
        let cell_sum: f64 = report.records.iter().map(|r| r.perf.wall_secs).sum();
        assert!((report.wall_secs - cell_sum).abs() < 1e-9);
        let merged = SweepReport::merged("m", vec![report.clone(), report.clone()]);
        assert!((merged.wall_secs - 2.0 * report.wall_secs).abs() < 1e-9);
        // Identity (equality + canonical JSON) excludes the telemetry:
        // records with different perf still compare and serialize equal.
        let mut a = report.records[0].clone();
        let b = a.clone();
        a.perf.wall_secs *= 1000.0;
        a.perf.instructions_per_sec = 0.0;
        assert_eq!(a, b);
        assert_eq!(serde::to_string(&a), serde::to_string(&b));
        // The JSON report carries the aggregate rates for perf tracking.
        let text = serde::to_string(&report);
        assert!(text.contains("\"instructions_per_sec\""));
        assert!(text.contains("\"sim_cycles_per_sec\""));
        assert!(text.contains("\"wall_secs\""));
    }
}
