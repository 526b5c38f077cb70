//! Figure 4 (Section 3.2): latency-hiding effectiveness of the
//! multithreaded decoupled architecture.
//!
//! Eight configurations (1–4 threads, with and without decoupling) are swept
//! over L2 latencies from 1 to 256 cycles. The paper reports:
//!
//! * **Figure 4-a** — average perceived load-miss latency;
//! * **Figure 4-b** — relative IPC loss versus the 1-cycle-latency machine;
//! * **Figure 4-c** — absolute IPC.
//!
//! As in the paper's Section 2, the architectural queues and register files
//! are scaled with the L2 latency; disabling decoupling restricts the
//! instruction queues regardless of that scaling.

use dsmt_core::SimConfig;
use dsmt_sweep::{Axis, SweepGrid, SweepReport};

use crate::report::fmt_f;
use crate::{ExperimentParams, Table, L2_LATENCIES};

/// Thread counts evaluated (1 to 4, as in the paper).
pub const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 4];

/// One configuration's result at one L2 latency.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Point {
    /// Number of hardware contexts.
    pub threads: usize,
    /// Whether decoupling (the instruction queues) was enabled.
    pub decoupled: bool,
    /// L2 hit latency in cycles.
    pub l2_latency: u64,
    /// Average perceived load-miss latency, all loads (Figure 4-a).
    pub perceived: f64,
    /// Instructions per cycle (Figure 4-c).
    pub ipc: f64,
}

/// The complete Figure 4 data set.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Results {
    /// One point per (threads, decoupled, latency) combination.
    pub points: Vec<Fig4Point>,
}

/// The simulator configuration used for Figure 4.
#[must_use]
pub fn fig4_config(threads: usize, decoupled: bool, l2_latency: u64) -> SimConfig {
    SimConfig::paper_multithreaded(threads)
        .with_decoupled(decoupled)
        .with_l2_latency(l2_latency)
        .with_queue_scaling(true)
}

/// The Figure 4 sweep as a declarative grid: (1–4 threads) × (decoupled
/// on/off) × (six L2 latencies), queues scaled with latency.
#[must_use]
pub fn grid(params: &ExperimentParams) -> SweepGrid {
    SweepGrid::new(
        "fig4",
        SimConfig::paper_multithreaded(1).with_queue_scaling(true),
    )
    .with_workload(params.spec_mix())
    .with_axis(Axis::threads(&THREAD_COUNTS))
    .with_axis(Axis::decoupled(&[true, false]))
    .with_axis(Axis::l2_latencies(&L2_LATENCIES))
    .with_seed(params.seed)
    .with_budget(params.instructions_per_point)
}

/// Distils a Figure 4 report into one point per (threads, decoupling,
/// latency) cell.
#[must_use]
pub fn distill(report: &SweepReport) -> Fig4Results {
    let points = report
        .records
        .iter()
        .map(|rec| Fig4Point {
            threads: rec.scenario.config.num_threads,
            decoupled: rec.scenario.config.decoupled,
            l2_latency: rec.scenario.config.mem.l2_latency,
            perceived: rec.results.perceived.combined(),
            ipc: rec.results.ipc(),
        })
        .collect();
    Fig4Results { points }
}

impl Fig4Results {
    /// Looks up one point.
    #[must_use]
    pub fn point(&self, threads: usize, decoupled: bool, l2_latency: u64) -> Option<&Fig4Point> {
        self.points.iter().find(|p| {
            p.threads == threads && p.decoupled == decoupled && p.l2_latency == l2_latency
        })
    }

    /// IPC loss (percent) relative to the same configuration at L2 = 1
    /// (Figure 4-b's metric).
    #[must_use]
    pub fn ipc_loss_pct(&self, threads: usize, decoupled: bool, l2_latency: u64) -> f64 {
        let base = self
            .point(threads, decoupled, 1)
            .map(|p| p.ipc)
            .unwrap_or(0.0);
        let now = self
            .point(threads, decoupled, l2_latency)
            .map(|p| p.ipc)
            .unwrap_or(0.0);
        if base == 0.0 {
            0.0
        } else {
            (1.0 - now / base) * 100.0
        }
    }

    fn config_label(threads: usize, decoupled: bool) -> String {
        format!(
            "{threads}T {}",
            if decoupled {
                "decoupled"
            } else {
                "non-decoupled"
            }
        )
    }

    fn grid_table(&self, title: &str, value: impl Fn(&Self, usize, bool, u64) -> String) -> Table {
        let mut headers = vec!["configuration".to_string()];
        headers.extend(L2_LATENCIES.iter().map(|l| format!("L2={l}")));
        let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut table = Table::new(title, &headers_ref);
        for decoupled in [true, false] {
            for &threads in &THREAD_COUNTS {
                let mut row = vec![Self::config_label(threads, decoupled)];
                for &lat in &L2_LATENCIES {
                    row.push(value(self, threads, decoupled, lat));
                }
                table.add_row(row);
            }
        }
        table
    }

    /// Figure 4-a: perceived load-miss latency (cycles).
    #[must_use]
    pub fn table_fig4a(&self) -> Table {
        self.grid_table(
            "Figure 4-a: avg perceived load-miss latency (cycles)",
            |s, t, d, l| {
                s.point(t, d, l)
                    .map(|p| fmt_f(p.perceived, 1))
                    .unwrap_or_else(|| "-".to_string())
            },
        )
    }

    /// Figure 4-b: % IPC loss relative to L2 = 1.
    #[must_use]
    pub fn table_fig4b(&self) -> Table {
        self.grid_table(
            "Figure 4-b: % IPC loss relative to L2 latency = 1",
            |s, t, d, l| fmt_f(s.ipc_loss_pct(t, d, l), 1),
        )
    }

    /// Figure 4-c: absolute IPC.
    #[must_use]
    pub fn table_fig4c(&self) -> Table {
        self.grid_table("Figure 4-c: IPC", |s, t, d, l| {
            s.point(t, d, l)
                .map(|p| fmt_f(p.ipc, 2))
                .unwrap_or_else(|| "-".to_string())
        })
    }

    /// Checks the paper's qualitative claims for Figure 4.
    #[must_use]
    pub fn shape_checks(&self) -> Vec<(String, bool)> {
        let mut checks = Vec::new();

        // Claim 1: decoupled configurations hide almost all of the load miss
        // latency even at 256 cycles; non-decoupled ones do not.
        let dec_perc: f64 = THREAD_COUNTS
            .iter()
            .filter_map(|&t| self.point(t, true, 256).map(|p| p.perceived))
            .fold(0.0, f64::max);
        let non_perc: f64 = THREAD_COUNTS
            .iter()
            .filter_map(|&t| self.point(t, false, 256).map(|p| p.perceived))
            .fold(f64::INFINITY, f64::min);
        checks.push((
            format!(
                "at L2=256 every decoupled config perceives less latency than every \
                 non-decoupled one (max dec {dec_perc:.1} < min non-dec {non_perc:.1})"
            ),
            dec_perc < non_perc,
        ));

        // Claim 2: at L2=32 decoupled configurations lose only a small
        // fraction of their IPC while non-decoupled ones lose much more.
        let dec_loss_32: f64 = THREAD_COUNTS
            .iter()
            .map(|&t| self.ipc_loss_pct(t, true, 32))
            .fold(0.0, f64::max);
        let non_loss_32: f64 = THREAD_COUNTS
            .iter()
            .map(|&t| self.ipc_loss_pct(t, false, 32))
            .fold(f64::INFINITY, f64::min);
        checks.push((
            format!(
                "at L2=32 decoupled IPC loss (max {dec_loss_32:.1}%) is far below \
                 non-decoupled loss (min {non_loss_32:.1}%); paper: <4% vs >23%"
            ),
            dec_loss_32 < non_loss_32,
        ));

        // Claim 3: at L2=256 decoupled loss stays well below non-decoupled
        // loss (paper: <39% vs >79%).
        let dec_loss_256: f64 = THREAD_COUNTS
            .iter()
            .map(|&t| self.ipc_loss_pct(t, true, 256))
            .fold(0.0, f64::max);
        let non_loss_256: f64 = THREAD_COUNTS
            .iter()
            .map(|&t| self.ipc_loss_pct(t, false, 256))
            .fold(f64::INFINITY, f64::min);
        checks.push((
            format!(
                "at L2=256 decoupled IPC loss (max {dec_loss_256:.1}%) stays below \
                 non-decoupled loss (min {non_loss_256:.1}%); paper: <39% vs >79%"
            ),
            dec_loss_256 < non_loss_256,
        ));

        // Claim 4: multithreading raises the IPC curves (more threads, more
        // IPC at the baseline latency), decoupling flattens them.
        let raising = self
            .point(4, true, 16)
            .zip(self.point(1, true, 16))
            .map(|(four, one)| four.ipc > one.ipc)
            .unwrap_or(false);
        checks.push((
            "multithreading raises the IPC curves (4T > 1T at L2=16)".to_string(),
            raising,
        ));
        let dec_slope = self.ipc_loss_pct(4, true, 256);
        let non_slope = self.ipc_loss_pct(4, false, 256);
        checks.push((
            format!(
                "decoupling flattens the latency curve (4T loss at 256: {dec_slope:.1}% \
                 decoupled vs {non_slope:.1}% non-decoupled)"
            ),
            dec_slope < non_slope,
        ));
        checks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_config_combines_knobs() {
        let cfg = fig4_config(3, false, 128);
        assert_eq!(cfg.num_threads, 3);
        assert!(!cfg.decoupled);
        assert_eq!(cfg.mem.l2_latency, 128);
        assert!(cfg.scale_queues_with_latency);
        assert_eq!(cfg.effective_iq_capacity(), cfg.non_decoupled_iq_capacity);
    }

    #[test]
    fn reduced_grid_has_expected_shape() {
        // Full 48-point grid with tiny runs (debug-mode friendly).
        let params = ExperimentParams {
            instructions_per_point: 8_000,
            insts_per_program: 4_000,
            seed: 9,
            workers: 8,
        };
        let r = distill(&params.engine().run(&grid(&params)));
        assert_eq!(r.points.len(), THREAD_COUNTS.len() * 2 * L2_LATENCIES.len());
        assert!(r.point(2, true, 64).is_some());
        assert_eq!(r.table_fig4a().num_rows(), 8);
        assert_eq!(r.table_fig4b().num_rows(), 8);
        assert_eq!(r.table_fig4c().num_rows(), 8);
        for p in &r.points {
            assert!(p.ipc > 0.0);
            assert!(p.perceived >= 0.0);
        }
        assert_eq!(r.ipc_loss_pct(1, true, 1), 0.0);
    }
}
