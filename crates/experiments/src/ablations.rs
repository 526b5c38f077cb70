//! Ablation studies beyond the paper's figures.
//!
//! These quantify the design choices the paper takes as given:
//!
//! * **Instruction-queue depth** — how much slippage is actually required to
//!   hide a given L2 latency (the paper fixes 48 entries and scales them).
//! * **MSHR count** — how much lockup-freedom the latency tolerance needs.
//! * **Issue-width asymmetry** — Section 3.1 notes a 15% peak loss from
//!   AP/EP load imbalance and leaves asymmetric widths as future work.
//! * **L1 associativity** — the paper's cache is direct mapped; inter-thread
//!   conflicts are part of why miss ratios grow with the thread count.

use dsmt_core::SimConfig;
use dsmt_sweep::{Axis, Setting, SweepGrid, SweepReport};

use crate::report::{fmt_f, fmt_pct};
use crate::{ExperimentParams, Table};

/// One ablation data point.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationPoint {
    /// Which study this point belongs to.
    pub study: String,
    /// Human-readable value of the swept parameter.
    pub setting: String,
    /// Instructions per cycle.
    pub ipc: f64,
    /// Average perceived load-miss latency.
    pub perceived: f64,
    /// External bus utilisation.
    pub bus_utilization: f64,
}

/// All ablation results.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationResults {
    /// Every evaluated point.
    pub points: Vec<AblationPoint>,
}

/// Instruction-queue depths swept.
pub const IQ_DEPTHS: [usize; 6] = [4, 8, 16, 32, 48, 96];
/// MSHR counts swept.
pub const MSHR_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];
/// (AP units, EP units) splits swept (total fixed at 8).
pub const UNIT_SPLITS: [(usize, usize); 3] = [(4, 4), (5, 3), (3, 5)];
/// L1 associativities swept.
pub const L1_ASSOCIATIVITIES: [usize; 3] = [1, 2, 4];

/// Each study's grid name and its one swept axis, in run order.
fn study_axes() -> [(&'static str, Axis); 4] {
    [
        ("ablation-iq-depth", Axis::iq_capacities(&IQ_DEPTHS)),
        ("ablation-mshr", Axis::mshr_counts(&MSHR_COUNTS)),
        ("ablation-unit-split", Axis::unit_splits(&UNIT_SPLITS)),
        (
            "ablation-l1-assoc",
            Axis::l1_associativities(&L1_ASSOCIATIVITIES),
        ),
    ]
}

/// The ablation grids, one per study. All studies use the Figure-2 machine
/// with 4 threads and a 64-cycle L2 (a point where both latency tolerance
/// and bandwidth matter).
#[must_use]
pub fn grids(params: &ExperimentParams) -> Vec<SweepGrid> {
    let base = SimConfig::paper_multithreaded(4).with_l2_latency(64);
    study_axes()
        .into_iter()
        .map(|(name, axis)| {
            SweepGrid::new(name, base.clone())
                .with_workload(params.spec_mix())
                .with_axis(axis)
                .with_seed(params.seed)
                .with_budget(params.instructions_per_point)
        })
        .collect()
}

/// Human-readable (study, setting) labels for one swept setting.
fn describe(setting: &Setting) -> (String, String) {
    match *setting {
        Setting::IqCapacity(depth) => (
            "instruction-queue depth".to_string(),
            format!("{depth} entries"),
        ),
        Setting::Mshrs(count) => ("MSHR count".to_string(), format!("{count} MSHRs")),
        Setting::UnitSplit { ap, ep } => (
            "issue-width asymmetry".to_string(),
            format!("{ap} AP + {ep} EP units"),
        ),
        Setting::L1Associativity(assoc) => ("L1 associativity".to_string(), format!("{assoc}-way")),
        ref other => (other.axis_name().to_string(), other.value_label()),
    }
}

/// Distils the merged report of every ablation grid into one point per
/// (study, setting) cell.
///
/// # Panics
///
/// Panics if the records are not exactly the studies' cells in run order.
#[must_use]
pub fn distill(report: &SweepReport) -> AblationResults {
    // One (grid, study, setting) triple per cell, in run order. Each study
    // grid is one workload x one axis, so its cells are exactly its axis
    // settings in order.
    let cells: Vec<(&str, (String, String))> = study_axes()
        .iter()
        .flat_map(|(grid, axis)| axis.settings.iter().map(|s| (*grid, describe(s))))
        .collect();
    assert_eq!(
        report.records.len(),
        cells.len(),
        "an ablation report holds one record per study setting"
    );
    let points = report
        .records
        .iter()
        .zip(cells)
        .map(|(rec, (grid, (study, setting)))| {
            assert_eq!(rec.grid, grid, "ablation records out of study order");
            AblationPoint {
                study,
                setting,
                ipc: rec.results.ipc(),
                perceived: rec.results.perceived.combined(),
                bus_utilization: rec.results.bus_utilization,
            }
        })
        .collect();
    AblationResults { points }
}

impl AblationResults {
    /// The points belonging to one study, in sweep order.
    #[must_use]
    pub fn study(&self, name: &str) -> Vec<&AblationPoint> {
        self.points.iter().filter(|p| p.study == name).collect()
    }

    /// The names of the studies present.
    #[must_use]
    pub fn studies(&self) -> Vec<String> {
        let mut names = Vec::new();
        for p in &self.points {
            if !names.contains(&p.study) {
                names.push(p.study.clone());
            }
        }
        names
    }

    /// One table per study, concatenated as markdown.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        for study in self.studies() {
            let mut table = Table::new(
                format!("Ablation: {study} (4 threads, L2 = 64)"),
                &["setting", "IPC", "perceived load-miss latency", "bus util"],
            );
            for p in self.study(&study) {
                table.add_row(vec![
                    p.setting.clone(),
                    fmt_f(p.ipc, 2),
                    fmt_f(p.perceived, 1),
                    fmt_pct(p.bus_utilization),
                ]);
            }
            out.push_str(&table.to_markdown());
            out.push('\n');
        }
        out
    }

    /// Qualitative expectations for the ablations.
    #[must_use]
    pub fn shape_checks(&self) -> Vec<(String, bool)> {
        let mut checks = Vec::new();
        let iq = self.study("instruction-queue depth");
        if iq.len() >= 2 {
            let shallow = iq.first().map(|p| p.ipc).unwrap_or(0.0);
            let deep = iq.last().map(|p| p.ipc).unwrap_or(0.0);
            checks.push((
                format!(
                    "deeper instruction queues improve IPC at L2=64 \
                     ({shallow:.2} with {} -> {deep:.2} with {})",
                    iq.first().map(|p| p.setting.as_str()).unwrap_or("-"),
                    iq.last().map(|p| p.setting.as_str()).unwrap_or("-"),
                ),
                deep > shallow,
            ));
        }
        let mshr = self.study("MSHR count");
        if mshr.len() >= 2 {
            let one = mshr.first().map(|p| p.ipc).unwrap_or(0.0);
            let many = mshr.last().map(|p| p.ipc).unwrap_or(0.0);
            checks.push((
                format!("lockup-freedom matters: 1 MSHR {one:.2} IPC vs 16 MSHRs {many:.2} IPC"),
                many > one,
            ));
        }
        checks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_ablation_sweep() {
        let params = ExperimentParams {
            instructions_per_point: 6_000,
            insts_per_program: 3_000,
            seed: 11,
            workers: 8,
        };
        let reports = params.engine().run_many(&grids(&params));
        let r = distill(&SweepReport::merged("ablations", reports));
        assert_eq!(
            r.points.len(),
            IQ_DEPTHS.len() + MSHR_COUNTS.len() + UNIT_SPLITS.len() + L1_ASSOCIATIVITIES.len()
        );
        assert_eq!(r.studies().len(), 4);
        assert_eq!(r.study("MSHR count").len(), MSHR_COUNTS.len());
        let md = r.to_markdown();
        assert!(md.contains("MSHR"));
        assert!(md.contains("associativity"));
        for p in &r.points {
            assert!(p.ipc > 0.0);
        }
    }
}
