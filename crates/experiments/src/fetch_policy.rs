//! The Section 3.1 fetch-policy study: I-COUNT vs plain round-robin
//! thread selection, across hardware-context counts.
//!
//! The paper argues (Section 3.1) that fetching from the two
//! least-represented threads — Tullsen's I-COUNT — keeps the instruction
//! mix balanced and should do no worse than blind round-robin rotation.
//! On the multiprogrammed SPEC FP95 workload the threads are statistically
//! homogeneous, so the two policies converge: this figure documents that
//! I-COUNT matches round-robin within a small tolerance at every thread
//! count (and is bit-identical below the fetch-gang width, where the
//! policy cannot make a different choice), rather than claiming a dramatic
//! win the workload cannot show.

use dsmt_core::{FetchPolicy, SimConfig};
use dsmt_sweep::{Axis, SweepGrid, SweepReport};

use crate::report::fmt_f;
use crate::{ExperimentParams, Table};

/// Thread counts evaluated (the paper's Section 3 x-axis).
pub const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 6];

/// Round-robin may beat I-COUNT by at most this relative margin on the
/// homogeneous mix (measured drift is under 0.5% across budgets; the
/// paper's claim is that I-COUNT does not lose, not that it dominates).
pub const TOLERANCE: f64 = 0.01;

/// The fetch-policy sweep: I-COUNT vs round-robin across thread counts at
/// the paper's 16-cycle L2.
#[must_use]
pub fn grid(params: &ExperimentParams) -> SweepGrid {
    SweepGrid::new("fetch-policy", SimConfig::paper_multithreaded(1))
        .with_workload(params.spec_mix())
        .with_axis(Axis::threads(&THREAD_COUNTS))
        .with_axis(Axis::fetch_policies(&[
            FetchPolicy::ICount,
            FetchPolicy::RoundRobin,
        ]))
        .with_seed(params.seed)
        .with_budget(params.instructions_per_point)
}

/// One row of the figure: both policies' IPC at a thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct FetchPolicyRow {
    /// Number of hardware contexts.
    pub threads: usize,
    /// IPC under I-COUNT selection.
    pub icount_ipc: f64,
    /// IPC under round-robin selection.
    pub round_robin_ipc: f64,
}

impl FetchPolicyRow {
    /// I-COUNT's relative advantage over round-robin (positive = I-COUNT
    /// faster).
    #[must_use]
    pub fn advantage_pct(&self) -> f64 {
        (self.icount_ipc / self.round_robin_ipc - 1.0) * 100.0
    }
}

/// The complete fetch-policy data set.
#[derive(Debug, Clone, PartialEq)]
pub struct FetchPolicyResults {
    /// One row per thread count.
    pub rows: Vec<FetchPolicyRow>,
}

/// Distils a fetch-policy report into one row per thread count.
///
/// # Panics
///
/// Panics if the records do not cover both policies at every thread count
/// (a grid construction bug).
#[must_use]
pub fn distill(report: &SweepReport) -> FetchPolicyResults {
    let ipc_of = |threads: usize, policy: &str| -> f64 {
        report
            .records
            .iter()
            .find(|r| {
                r.scenario.config.num_threads == threads && r.label("fetch_policy") == Some(policy)
            })
            .unwrap_or_else(|| panic!("missing cell: {threads} threads, {policy}"))
            .results
            .ipc()
    };
    let rows = THREAD_COUNTS
        .iter()
        .map(|&threads| FetchPolicyRow {
            threads,
            icount_ipc: ipc_of(threads, "icount"),
            round_robin_ipc: ipc_of(threads, "round-robin"),
        })
        .collect();
    FetchPolicyResults { rows }
}

impl FetchPolicyResults {
    /// The row for a given thread count.
    #[must_use]
    pub fn row(&self, threads: usize) -> Option<&FetchPolicyRow> {
        self.rows.iter().find(|r| r.threads == threads)
    }

    /// The figure table: IPC per policy and I-COUNT's relative advantage,
    /// one row per thread count.
    #[must_use]
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            "Fetch policy (Section 3.1): I-COUNT vs round-robin",
            &["threads", "I-COUNT IPC", "round-robin IPC", "I-COUNT adv"],
        );
        for row in &self.rows {
            table.add_row(vec![
                row.threads.to_string(),
                fmt_f(row.icount_ipc, 3),
                fmt_f(row.round_robin_ipc, 3),
                format!("{:+.2}%", row.advantage_pct()),
            ]);
        }
        table
    }

    /// The claims this figure documents, with pass/fail.
    #[must_use]
    pub fn shape_checks(&self) -> Vec<(String, bool)> {
        let single = self.row(1);
        let mut checks = vec![(
            "1 thread: both policies are bit-identical (no choice to make)".to_string(),
            single.is_some_and(|r| r.icount_ipc == r.round_robin_ipc),
        )];
        for row in self.rows.iter().filter(|r| r.threads >= 2) {
            checks.push((
                format!(
                    "{} threads: I-COUNT IPC >= round-robin IPC (within {:.0}%)",
                    row.threads,
                    TOLERANCE * 100.0
                ),
                row.icount_ipc >= row.round_robin_ipc * (1.0 - TOLERANCE),
            ));
        }
        if let (Some(one), Some(four)) = (self.row(1), self.row(4)) {
            checks.push((
                "multithreading pays under either policy (4T > 1.5x 1T)".to_string(),
                four.icount_ipc > 1.5 * one.icount_ipc
                    && four.round_robin_ipc > 1.5 * one.round_robin_ipc,
            ));
        }
        checks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentParams {
        ExperimentParams {
            instructions_per_point: 25_000,
            insts_per_program: 8_000,
            seed: 42,
            workers: 4,
        }
    }

    #[test]
    fn grid_covers_both_policies_at_every_thread_count() {
        let g = grid(&tiny());
        assert_eq!(g.len(), THREAD_COUNTS.len() * 2);
        assert_eq!(g.name, "fetch-policy");
    }

    #[test]
    fn figure_distills_and_passes_its_shape_checks() {
        let params = tiny();
        let results = distill(&params.engine().run(&grid(&params)));
        assert_eq!(results.rows.len(), THREAD_COUNTS.len());
        let table = results.table();
        assert_eq!(table.num_rows(), THREAD_COUNTS.len());
        for (claim, ok) in results.shape_checks() {
            assert!(ok, "shape check failed: {claim}");
        }
    }
}
