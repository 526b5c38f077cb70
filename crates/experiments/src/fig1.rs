//! Figure 1 (Section 2): latency-hiding effectiveness of a single-threaded
//! decoupled processor.
//!
//! The paper runs each SPEC FP95 benchmark on a 4-way-issue, single-threaded
//! decoupled machine (4 general-purpose functional units, 2-port L1D) while
//! sweeping the L2 latency from 1 to 256 cycles, with all queues and
//! register files scaled proportionally to the latency. It reports:
//!
//! * **Figure 1-a** — average perceived FP-load miss latency;
//! * **Figure 1-b** — average perceived integer-load miss latency;
//! * **Figure 1-c** — load/store miss ratios at L2 = 256;
//! * **Figure 1-d** — % IPC loss relative to the 1-cycle-latency machine.

use dsmt_core::SimConfig;
use dsmt_sweep::{Axis, SweepGrid, SweepReport, WorkloadSpec};
use dsmt_trace::spec_fp95_profiles;

use crate::report::{fmt_f, fmt_pct};
use crate::{ExperimentParams, Table, L2_LATENCIES};

/// One (benchmark, L2 latency) data point.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1Point {
    /// Benchmark name.
    pub benchmark: String,
    /// L2 hit latency in cycles.
    pub l2_latency: u64,
    /// Average perceived FP-load miss latency in cycles (Figure 1-a).
    pub perceived_fp: f64,
    /// Average perceived integer-load miss latency in cycles (Figure 1-b).
    pub perceived_int: f64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// L1 load miss ratio.
    pub load_miss_ratio: f64,
    /// L1 store miss ratio.
    pub store_miss_ratio: f64,
}

/// All Figure 1 data points.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1Results {
    /// One point per (benchmark, latency) pair.
    pub points: Vec<Fig1Point>,
}

/// The simulator configuration used for the Section 2 experiments.
#[must_use]
pub fn fig1_config(l2_latency: u64) -> SimConfig {
    SimConfig::paper_single_thread_4wide().with_l2_latency(l2_latency)
}

/// The Figure 1 sweep as a declarative grid: every SPEC FP95 profile at
/// every L2 latency on the Section 2 machine.
#[must_use]
pub fn grid(params: &ExperimentParams) -> SweepGrid {
    SweepGrid::new("fig1", SimConfig::paper_single_thread_4wide())
        .with_workloads(
            spec_fp95_profiles()
                .iter()
                .map(|p| WorkloadSpec::benchmark(&p.name)),
        )
        .with_axis(Axis::l2_latencies(&L2_LATENCIES))
        .with_seed(params.seed)
        .with_budget(params.instructions_per_point)
}

/// Distils a Figure 1 report into one point per (benchmark, latency) cell.
#[must_use]
pub fn distill(report: &SweepReport) -> Fig1Results {
    let points = report
        .records
        .iter()
        .map(|rec| {
            let r = &rec.results;
            Fig1Point {
                benchmark: rec.workload.clone(),
                l2_latency: rec.scenario.config.mem.l2_latency,
                perceived_fp: r.perceived.fp(),
                perceived_int: r.perceived.int(),
                ipc: r.ipc(),
                load_miss_ratio: r.load_miss_ratio(),
                store_miss_ratio: r.store_miss_ratio(),
            }
        })
        .collect();
    Fig1Results { points }
}

impl Fig1Results {
    /// Looks up the point for a benchmark at a latency.
    #[must_use]
    pub fn point(&self, benchmark: &str, l2_latency: u64) -> Option<&Fig1Point> {
        self.points
            .iter()
            .find(|p| p.benchmark == benchmark && p.l2_latency == l2_latency)
    }

    /// The benchmarks present, in first-seen order.
    #[must_use]
    pub fn benchmarks(&self) -> Vec<String> {
        let mut names = Vec::new();
        for p in &self.points {
            if !names.contains(&p.benchmark) {
                names.push(p.benchmark.clone());
            }
        }
        names
    }

    /// IPC loss (percent) of `benchmark` at `l2_latency` relative to the
    /// 1-cycle configuration (Figure 1-d's metric).
    #[must_use]
    pub fn ipc_loss_pct(&self, benchmark: &str, l2_latency: u64) -> f64 {
        let base = self.point(benchmark, 1).map(|p| p.ipc).unwrap_or(0.0);
        let now = self
            .point(benchmark, l2_latency)
            .map(|p| p.ipc)
            .unwrap_or(0.0);
        if base == 0.0 {
            0.0
        } else {
            (1.0 - now / base) * 100.0
        }
    }

    fn latency_table(&self, title: &str, value: impl Fn(&Fig1Point) -> String) -> Table {
        let mut headers = vec!["benchmark".to_string()];
        headers.extend(L2_LATENCIES.iter().map(|l| format!("L2={l}")));
        let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut table = Table::new(title, &headers_ref);
        for bench in self.benchmarks() {
            let mut row = vec![bench.clone()];
            for &lat in &L2_LATENCIES {
                row.push(
                    self.point(&bench, lat)
                        .map(&value)
                        .unwrap_or_else(|| "-".to_string()),
                );
            }
            table.add_row(row);
        }
        table
    }

    /// Figure 1-a: average perceived FP-load miss latency (cycles).
    #[must_use]
    pub fn table_fig1a(&self) -> Table {
        self.latency_table(
            "Figure 1-a: avg perceived FP-load miss latency (cycles)",
            |p| fmt_f(p.perceived_fp, 1),
        )
    }

    /// Figure 1-b: average perceived integer-load miss latency (cycles).
    #[must_use]
    pub fn table_fig1b(&self) -> Table {
        self.latency_table(
            "Figure 1-b: avg perceived integer-load miss latency (cycles)",
            |p| fmt_f(p.perceived_int, 1),
        )
    }

    /// Figure 1-c: load and store miss ratios at L2 = 256.
    #[must_use]
    pub fn table_fig1c(&self) -> Table {
        let mut table = Table::new(
            "Figure 1-c: L1 miss ratios at L2 latency = 256",
            &["benchmark", "load miss ratio", "store miss ratio"],
        );
        for bench in self.benchmarks() {
            if let Some(p) = self.point(&bench, 256) {
                table.add_row(vec![
                    bench.clone(),
                    fmt_pct(p.load_miss_ratio),
                    fmt_pct(p.store_miss_ratio),
                ]);
            }
        }
        table
    }

    /// Figure 1-d: % IPC loss relative to the 1-cycle L2.
    #[must_use]
    pub fn table_fig1d(&self) -> Table {
        let benches = self.benchmarks();
        let mut headers = vec!["benchmark".to_string()];
        headers.extend(L2_LATENCIES.iter().map(|l| format!("L2={l}")));
        let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut table = Table::new(
            "Figure 1-d: % IPC loss relative to L2 latency = 1",
            &headers_ref,
        );
        for bench in benches {
            let mut row = vec![bench.clone()];
            for &lat in &L2_LATENCIES {
                row.push(fmt_f(self.ipc_loss_pct(&bench, lat), 1));
            }
            table.add_row(row);
        }
        table
    }

    /// Checks the paper's qualitative claims for Figure 1 and returns a list
    /// of (claim, holds) pairs.
    #[must_use]
    pub fn shape_checks(&self) -> Vec<(String, bool)> {
        let mut checks = Vec::new();
        // Claim 1: fpppp has the largest perceived FP-load latency at 256
        // (it is the one program that decouples badly).
        if let Some(fpppp) = self.point("fpppp", 256) {
            let max_other = self
                .points
                .iter()
                .filter(|p| p.l2_latency == 256 && p.benchmark != "fpppp")
                .map(|p| p.perceived_fp)
                .fold(0.0_f64, f64::max);
            checks.push((
                "fpppp perceives the largest FP-load miss latency at L2=256".to_string(),
                fpppp.perceived_fp > max_other,
            ));
        }
        // Claim 2: well-decoupled benchmarks hide the vast majority of the
        // FP-load miss latency even at 256 cycles.
        let hidden_ok = ["tomcatv", "swim", "mgrid", "applu", "apsi"]
            .iter()
            .all(|b| {
                self.point(b, 256)
                    .map(|p| p.perceived_fp < 0.25 * 256.0)
                    .unwrap_or(false)
            });
        checks.push((
            "tomcatv/swim/mgrid/applu/apsi hide >75% of FP-load miss latency at L2=256".to_string(),
            hidden_ok,
        ));
        // Claim 3: programs with poorly scheduled integer loads perceive
        // more integer-load latency than the well-scheduled ones.
        let poor: f64 = ["su2cor", "turb3d", "wave5", "fpppp"]
            .iter()
            .filter_map(|b| self.point(b, 256).map(|p| p.perceived_int))
            .sum::<f64>()
            / 4.0;
        let good: f64 = ["tomcatv", "swim", "mgrid", "applu", "apsi"]
            .iter()
            .filter_map(|b| self.point(b, 256).map(|p| p.perceived_int))
            .sum::<f64>()
            / 5.0;
        checks.push((
            "su2cor/turb3d/wave5/fpppp perceive more integer-load latency than the rest"
                .to_string(),
            poor > good,
        ));
        // Claim 4: fpppp and turb3d have very low miss ratios.
        let low_miss = ["fpppp", "turb3d"].iter().all(|b| {
            self.point(b, 256)
                .map(|p| p.load_miss_ratio < 0.05)
                .unwrap_or(false)
        });
        checks.push((
            "fpppp and turb3d have very low L1 miss ratios".to_string(),
            low_miss,
        ));
        // Claim 5: the most latency-degraded programs include hydro2d,
        // su2cor and wave5 (high perceived latency AND real miss ratios),
        // while fpppp/turb3d are barely degraded.
        let degraded: f64 = ["hydro2d", "su2cor", "wave5"]
            .iter()
            .map(|b| self.ipc_loss_pct(b, 256))
            .sum::<f64>()
            / 3.0;
        let spared: f64 = ["fpppp", "turb3d"]
            .iter()
            .map(|b| self.ipc_loss_pct(b, 256))
            .sum::<f64>()
            / 2.0;
        checks.push((
            "hydro2d/su2cor/wave5 are degraded more by L2 latency than fpppp/turb3d".to_string(),
            degraded > spared,
        ));
        checks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params() -> ExperimentParams {
        ExperimentParams {
            instructions_per_point: 12_000,
            insts_per_program: 12_000,
            seed: 7,
            workers: 8,
        }
    }

    #[test]
    fn fig1_config_matches_section2_machine() {
        let cfg = fig1_config(64);
        assert_eq!(cfg.num_threads, 1);
        assert_eq!(cfg.ap_units + cfg.ep_units, 4);
        assert_eq!(cfg.mem.l2_latency, 64);
        assert!(cfg.scale_queues_with_latency);
    }

    #[test]
    fn small_sweep_produces_all_points_and_tables() {
        // Only exercise structure on a reduced latency set by filtering after
        // a tiny run would still be 60 points; keep it but with few
        // instructions per point so the debug-mode test stays fast.
        let params = tiny_params();
        let r = distill(&params.engine().run(&grid(&params)));
        assert_eq!(r.points.len(), 10 * L2_LATENCIES.len());
        assert_eq!(r.benchmarks().len(), 10);
        assert!(r.point("tomcatv", 16).is_some());
        assert!(r.point("nonexistent", 16).is_none());
        let a = r.table_fig1a();
        let d = r.table_fig1d();
        assert_eq!(a.num_rows(), 10);
        assert_eq!(d.num_rows(), 10);
        assert!(r.table_fig1c().to_markdown().contains("fpppp"));
        // IPC must drop (or stay equal) as the latency grows for the
        // bandwidth-bound benchmarks; at minimum it must stay positive.
        for p in &r.points {
            assert!(p.ipc > 0.0, "{p:?}");
            assert!(p.perceived_fp >= 0.0);
            assert!(p.perceived_int >= 0.0);
        }
        // Loss relative to itself is zero.
        assert_eq!(r.ipc_loss_pct("tomcatv", 1), 0.0);
    }
}
