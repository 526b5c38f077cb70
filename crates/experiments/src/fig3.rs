//! Figure 3 (Section 3.1): sources of wasted issue slots in the
//! multithreaded decoupled processor.
//!
//! The paper runs the Figure-2 machine (8-wide, 4 AP + 4 EP units, 16-cycle
//! L2) on the multiprogrammed SPEC FP95 workload with 1 to 6 hardware
//! contexts and breaks every AP and EP issue slot into: useful work, waiting
//! for an operand from memory, waiting for an operand from a functional
//! unit, wrong-path/idle, and other.

use dsmt_core::{SimConfig, SlotUse, UnitSlots};
use dsmt_sweep::{Axis, SweepGrid, SweepReport};

use crate::report::{fmt_f, fmt_pct};
use crate::{ExperimentParams, Table};

/// Thread counts evaluated (the paper's x-axis runs from 1 to 6).
pub const THREAD_COUNTS: [usize; 6] = [1, 2, 3, 4, 5, 6];

/// One row of Figure 3: the breakdown for a given number of threads.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Row {
    /// Number of hardware contexts.
    pub threads: usize,
    /// Instructions per cycle.
    pub ipc: f64,
    /// AP issue-slot breakdown.
    pub ap: UnitSlots,
    /// EP issue-slot breakdown.
    pub ep: UnitSlots,
}

/// The complete Figure 3 data set.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Results {
    /// One row per thread count.
    pub rows: Vec<Fig3Row>,
}

/// The simulator configuration used for Figure 3.
#[must_use]
pub fn fig3_config(threads: usize) -> SimConfig {
    SimConfig::paper_multithreaded(threads)
}

/// The Figure 3 sweep as a declarative grid: the Figure-2 machine over
/// 1–6 hardware contexts on the multiprogrammed SPEC FP95 workload.
#[must_use]
pub fn grid(params: &ExperimentParams) -> SweepGrid {
    SweepGrid::new("fig3", SimConfig::paper_multithreaded(1))
        .with_workload(params.spec_mix())
        .with_axis(Axis::threads(&THREAD_COUNTS))
        .with_seed(params.seed)
        .with_budget(params.instructions_per_point)
}

/// Distils a Figure 3 report into one row per thread count.
#[must_use]
pub fn distill(report: &SweepReport) -> Fig3Results {
    let rows = report
        .records
        .iter()
        .map(|rec| Fig3Row {
            threads: rec.scenario.config.num_threads,
            ipc: rec.results.ipc(),
            ap: rec.results.ap_slots,
            ep: rec.results.ep_slots,
        })
        .collect();
    Fig3Results { rows }
}

impl Fig3Results {
    /// The row for a given thread count.
    #[must_use]
    pub fn row(&self, threads: usize) -> Option<&Fig3Row> {
        self.rows.iter().find(|r| r.threads == threads)
    }

    /// The Figure 3 table: per-unit slot breakdown (percent of unit slots)
    /// plus IPC, one row per thread count.
    #[must_use]
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            "Figure 3: issue-slot breakdown (fraction of unit issue slots)",
            &[
                "threads", "IPC", "unit", "useful", "wait-mem", "wait-fu", "idle", "other",
            ],
        );
        for row in &self.rows {
            for (unit_name, slots) in [("AP", &row.ap), ("EP", &row.ep)] {
                table.add_row(vec![
                    row.threads.to_string(),
                    fmt_f(row.ipc, 2),
                    unit_name.to_string(),
                    fmt_pct(slots.fraction(SlotUse::Useful)),
                    fmt_pct(slots.fraction(SlotUse::WaitMemory)),
                    fmt_pct(slots.fraction(SlotUse::WaitFu)),
                    fmt_pct(slots.fraction(SlotUse::WrongPathOrIdle)),
                    fmt_pct(slots.fraction(SlotUse::Other)),
                ]);
            }
        }
        table
    }

    /// Checks the paper's qualitative claims for Figure 3.
    #[must_use]
    pub fn shape_checks(&self) -> Vec<(String, bool)> {
        let mut checks = Vec::new();
        if let (Some(one), Some(three)) = (self.row(1), self.row(3)) {
            // Claim 1: with one thread, the dominant EP waste is waiting for
            // operands from functional units.
            let ep_waste_fu = one.ep.fraction(SlotUse::WaitFu);
            let other_waste =
                one.ep.fraction(SlotUse::WaitMemory) + one.ep.fraction(SlotUse::Other);
            checks.push((
                "1 thread: EP slots are mostly lost waiting on FU results".to_string(),
                ep_waste_fu > other_waste && ep_waste_fu > 0.3,
            ));
            // Claim 2: going from 1 to 3 threads yields a large speed-up
            // (the paper reports 2.31x).
            checks.push((
                format!(
                    "3 threads speed up 1 thread substantially (got {:.2}x, paper 2.31x)",
                    three.ipc / one.ipc
                ),
                three.ipc / one.ipc > 1.6,
            ));
            // Claim 3: with 3 threads the AP is close to saturation.
            checks.push((
                format!(
                    "3 threads: AP utilisation approaches saturation ({:.0}%, paper 90.7%)",
                    three.ap.utilization() * 100.0
                ),
                three.ap.utilization() > 0.75,
            ));
        }
        if let (Some(three), Some(six)) = (self.row(3), self.row(6)) {
            // Claim 4: beyond 3-4 threads the gains are small.
            checks.push((
                format!(
                    "gains beyond 3 threads are modest (6T/3T = {:.2}x)",
                    six.ipc / three.ipc
                ),
                six.ipc / three.ipc < 1.35,
            ));
        }
        checks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_config_is_paper_machine() {
        let cfg = fig3_config(4);
        assert_eq!(cfg.num_threads, 4);
        assert_eq!(cfg.mem.l2_latency, 16);
        assert!(cfg.decoupled);
        assert!(!cfg.scale_queues_with_latency);
    }

    #[test]
    fn small_sweep_structure_and_monotonicity() {
        let params = ExperimentParams {
            instructions_per_point: 20_000,
            insts_per_program: 5_000,
            seed: 3,
            workers: 6,
        };
        let r = distill(&params.engine().run(&grid(&params)));
        assert_eq!(r.rows.len(), THREAD_COUNTS.len());
        let table = r.table();
        assert_eq!(table.num_rows(), THREAD_COUNTS.len() * 2);
        // Multithreading must not reduce throughput.
        let one = r.row(1).unwrap().ipc;
        let four = r.row(4).unwrap().ipc;
        assert!(four > one, "4T {four} vs 1T {one}");
        // Slot fractions sum to ~1 for each unit.
        for row in &r.rows {
            let total: f64 = SlotUse::ALL.iter().map(|k| row.ap.fraction(*k)).sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
    }
}
