//! Figure 5 (Section 3.3): decoupling reduces the number of hardware
//! contexts and avoids external bus saturation.
//!
//! The paper sweeps the number of hardware contexts — 1 to 8 at the
//! baseline 16-cycle L2 latency, and 1 to 16 at a 64-cycle latency — for
//! the decoupled and non-decoupled machines, and observes:
//!
//! * the decoupled machine reaches its peak IPC with only 3–4 threads
//!   (4–5 at the higher latency);
//! * the non-decoupled machine needs ~6 threads at L2 = 16 and cannot reach
//!   the decoupled machine's performance at L2 = 64 for *any* thread count,
//!   because the external L1–L2 bus saturates (89% utilisation at 12
//!   threads, 98% at 16).

use dsmt_core::SimConfig;
use dsmt_sweep::{Axis, SweepGrid, SweepReport};

use crate::report::{fmt_f, fmt_pct};
use crate::{ExperimentParams, Table};

/// One configuration's result.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Point {
    /// L2 hit latency in cycles (16 or 64 in the paper).
    pub l2_latency: u64,
    /// Number of hardware contexts.
    pub threads: usize,
    /// Whether decoupling was enabled.
    pub decoupled: bool,
    /// Instructions per cycle.
    pub ipc: f64,
    /// External L1–L2 bus utilisation over the run.
    pub bus_utilization: f64,
    /// Combined L1 load miss ratio (grows with the thread count as the
    /// combined working set outgrows the shared cache).
    pub load_miss_ratio: f64,
}

/// The complete Figure 5 data set.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Results {
    /// All evaluated points.
    pub points: Vec<Fig5Point>,
}

/// Thread counts evaluated at L2 = 16 (solid lines in the paper).
pub const THREADS_L2_16: [usize; 8] = [1, 2, 3, 4, 5, 6, 7, 8];
/// Thread counts evaluated at L2 = 64 (dotted lines in the paper).
pub const THREADS_L2_64: [usize; 9] = [1, 2, 3, 4, 6, 8, 10, 12, 16];

/// The simulator configuration used for Figure 5.
///
/// As for the other latency sweeps, the per-thread queues and register
/// files scale with the L2 latency (the paper's Section 2 rule); at the
/// baseline 16-cycle latency this leaves the Figure-2 sizes unchanged.
/// Disabling decoupling restricts the instruction queue regardless.
#[must_use]
pub fn fig5_config(threads: usize, decoupled: bool, l2_latency: u64) -> SimConfig {
    SimConfig::paper_multithreaded(threads)
        .with_decoupled(decoupled)
        .with_l2_latency(l2_latency)
        .with_queue_scaling(true)
}

/// The Figure 5 sweep for one L2 latency: thread count × decoupling.
#[must_use]
pub fn grid_at_latency(params: &ExperimentParams, l2_latency: u64, threads: &[usize]) -> SweepGrid {
    SweepGrid::new(
        format!("fig5-l2-{l2_latency}"),
        SimConfig::paper_multithreaded(1)
            .with_l2_latency(l2_latency)
            .with_queue_scaling(true),
    )
    .with_workload(params.spec_mix())
    .with_axis(Axis::threads(threads))
    .with_axis(Axis::decoupled(&[true, false]))
    .with_seed(params.seed)
    .with_budget(params.instructions_per_point)
}

/// The two Figure 5 grids (L2 = 16 and L2 = 64), in run order.
#[must_use]
pub fn grids(params: &ExperimentParams) -> Vec<SweepGrid> {
    vec![
        grid_at_latency(params, 16, &THREADS_L2_16),
        grid_at_latency(params, 64, &THREADS_L2_64),
    ]
}

/// Distils the merged report of both Figure 5 grids into one point per
/// (latency, threads, decoupling) cell.
#[must_use]
pub fn distill(report: &SweepReport) -> Fig5Results {
    let points = report
        .records
        .iter()
        .map(|rec| Fig5Point {
            l2_latency: rec.scenario.config.mem.l2_latency,
            threads: rec.scenario.config.num_threads,
            decoupled: rec.scenario.config.decoupled,
            ipc: rec.results.ipc(),
            bus_utilization: rec.results.bus_utilization,
            load_miss_ratio: rec.results.load_miss_ratio(),
        })
        .collect();
    Fig5Results { points }
}

impl Fig5Results {
    /// Looks up one point.
    #[must_use]
    pub fn point(&self, l2_latency: u64, threads: usize, decoupled: bool) -> Option<&Fig5Point> {
        self.points.iter().find(|p| {
            p.l2_latency == l2_latency && p.threads == threads && p.decoupled == decoupled
        })
    }

    /// The peak IPC over all thread counts for a (latency, decoupled) line,
    /// together with the smallest thread count achieving at least 95% of it
    /// (the "knee" of the curve).
    #[must_use]
    pub fn peak(&self, l2_latency: u64, decoupled: bool) -> Option<(f64, usize)> {
        let line: Vec<&Fig5Point> = self
            .points
            .iter()
            .filter(|p| p.l2_latency == l2_latency && p.decoupled == decoupled)
            .collect();
        let peak = line.iter().map(|p| p.ipc).fold(f64::NAN, f64::max);
        if !peak.is_finite() {
            return None;
        }
        let threads = line
            .iter()
            .filter(|p| p.ipc >= 0.95 * peak)
            .map(|p| p.threads)
            .min()?;
        Some((peak, threads))
    }

    /// The IPC-vs-threads table for one latency.
    #[must_use]
    pub fn table(&self, l2_latency: u64) -> Table {
        let mut table = Table::new(
            format!("Figure 5 (L2 latency = {l2_latency}): IPC and bus utilisation vs threads"),
            &[
                "threads",
                "decoupled IPC",
                "decoupled bus",
                "non-dec IPC",
                "non-dec bus",
                "non-dec load miss",
            ],
        );
        let mut threads: Vec<usize> = self
            .points
            .iter()
            .filter(|p| p.l2_latency == l2_latency)
            .map(|p| p.threads)
            .collect();
        threads.sort_unstable();
        threads.dedup();
        for t in threads {
            let dec = self.point(l2_latency, t, true);
            let non = self.point(l2_latency, t, false);
            table.add_row(vec![
                t.to_string(),
                dec.map(|p| fmt_f(p.ipc, 2)).unwrap_or_else(|| "-".into()),
                dec.map(|p| fmt_pct(p.bus_utilization))
                    .unwrap_or_else(|| "-".into()),
                non.map(|p| fmt_f(p.ipc, 2)).unwrap_or_else(|| "-".into()),
                non.map(|p| fmt_pct(p.bus_utilization))
                    .unwrap_or_else(|| "-".into()),
                non.map(|p| fmt_pct(p.load_miss_ratio))
                    .unwrap_or_else(|| "-".into()),
            ]);
        }
        table
    }

    /// Checks the paper's qualitative claims for Figure 5.
    #[must_use]
    pub fn shape_checks(&self) -> Vec<(String, bool)> {
        let mut checks = Vec::new();
        if let (Some((dec_peak, dec_t)), Some((non_peak, non_t))) =
            (self.peak(16, true), self.peak(16, false))
        {
            checks.push((
                format!(
                    "L2=16: decoupled reaches its peak with fewer threads than non-decoupled \
                     ({dec_t} vs {non_t} threads; paper: 3-4 vs ~6)"
                ),
                dec_t < non_t,
            ));
            checks.push((
                format!(
                    "L2=16: decoupled peak IPC ({dec_peak:.2}) is at least as high as \
                     non-decoupled ({non_peak:.2})"
                ),
                dec_peak >= 0.95 * non_peak,
            ));
        }
        if let (Some((dec_peak, dec_t)), Some((non_peak, _))) =
            (self.peak(64, true), self.peak(64, false))
        {
            checks.push((
                format!(
                    "L2=64: decoupled reaches its peak ({dec_peak:.2}) with few threads \
                     ({dec_t}; paper: 4-5)"
                ),
                dec_t <= 6,
            ));
            checks.push((
                format!(
                    "L2=64: non-decoupled never reaches the decoupled peak \
                     (non-dec best {non_peak:.2} < dec peak {dec_peak:.2})"
                ),
                non_peak < dec_peak,
            ));
        }
        // Bus saturation for the many-thread non-decoupled configurations at
        // L2 = 64 (paper: 89% at 12 threads, 98% at 16).
        if let Some(p12) = self.point(64, 12, false) {
            checks.push((
                format!(
                    "L2=64, 12 non-decoupled threads: external bus is close to saturation \
                     ({:.0}%; paper 89%)",
                    p12.bus_utilization * 100.0
                ),
                p12.bus_utilization > 0.75,
            ));
        }
        // Miss ratios grow with the number of threads (shared-cache
        // contention), which is what drives the bandwidth wall.
        let few = self.point(64, 1, false).map(|p| p.load_miss_ratio);
        let many = self.point(64, 16, false).map(|p| p.load_miss_ratio);
        if let (Some(few), Some(many)) = (few, many) {
            checks.push((
                format!(
                    "L2=64 non-decoupled: load miss ratio grows with thread count \
                     ({:.1}% at 1T -> {:.1}% at 16T)",
                    few * 100.0,
                    many * 100.0
                ),
                many > few,
            ));
        }
        checks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_config_scales_queues_with_latency() {
        let cfg = fig5_config(12, false, 64);
        assert_eq!(cfg.num_threads, 12);
        assert!(!cfg.decoupled);
        assert_eq!(cfg.mem.l2_latency, 64);
        assert!(cfg.scale_queues_with_latency);
        // At the baseline latency the scaling is a no-op.
        assert_eq!(fig5_config(4, true, 16).effective_iq_capacity(), 48);
    }

    #[test]
    fn peak_and_table_on_synthetic_points() {
        // Hand-built points exercise the analysis helpers without running
        // the simulator.
        let mk = |lat, threads, dec, ipc, bus| Fig5Point {
            l2_latency: lat,
            threads,
            decoupled: dec,
            ipc,
            bus_utilization: bus,
            load_miss_ratio: 0.1,
        };
        let r = Fig5Results {
            points: vec![
                mk(16, 1, true, 2.5, 0.2),
                mk(16, 3, true, 6.5, 0.5),
                mk(16, 6, true, 6.6, 0.6),
                mk(16, 1, false, 1.8, 0.3),
                mk(16, 3, false, 4.0, 0.6),
                mk(16, 6, false, 6.3, 0.9),
            ],
        };
        let (peak, threads) = r.peak(16, true).unwrap();
        assert!((peak - 6.6).abs() < 1e-12);
        assert_eq!(threads, 3, "3 threads already reach 95% of the peak");
        let (_, non_threads) = r.peak(16, false).unwrap();
        assert_eq!(non_threads, 6);
        let table = r.table(16);
        assert_eq!(table.num_rows(), 3);
        assert!(r.peak(64, true).is_none());
    }

    #[test]
    fn tiny_simulated_sweep_produces_all_points() {
        let params = ExperimentParams {
            instructions_per_point: 6_000,
            insts_per_program: 3_000,
            seed: 5,
            workers: 8,
        };
        let reports = params.engine().run_many(&grids(&params));
        let r = distill(&SweepReport::merged("fig5", reports));
        assert_eq!(
            r.points.len(),
            THREADS_L2_16.len() * 2 + THREADS_L2_64.len() * 2
        );
        for p in &r.points {
            assert!(p.ipc > 0.0);
            assert!((0.0..=1.0).contains(&p.bus_utilization));
        }
        assert!(r.point(64, 16, false).is_some());
    }
}
