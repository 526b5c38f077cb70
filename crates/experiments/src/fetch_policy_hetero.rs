//! The heterogeneous fetch-policy figure: I-COUNT vs round-robin on
//! assembled multiprogrammed workloads where the policies finally separate.
//!
//! The [`crate::fetch_policy`] figure documents that on the *homogeneous*
//! SPEC FP95 mix the two policies converge — every thread has the same
//! statistics, so it barely matters which one fetches. This figure runs
//! the complementary experiment the paper's Section 3.1 argument actually
//! predicts a winner for: heterogeneous mixes of assembled `dsmt-asm`
//! programs (see [`dsmt_asm::corpus`]), measured where the pick is
//! decisive — a fetch gang of **one** thread per cycle ([`grid`] narrows
//! the paper's RR-2.8 gang to a single slot). With the paper's two-slot
//! gang, fetch bandwidth (2 × 8 wide) is so overprovisioned relative to
//! these workloads' IPC that both policies keep every buffer topped up and
//! converge on *any* mix; with one slot per cycle, each cycle's choice is
//! the whole fetch-allocation decision.
//!
//! Two findings the mixes are chosen to document. First, threads that
//! differ in *drain rate while staying fetch-eligible* — branchy scanners
//! throttled by the 4-unresolved-branch limit next to a steadily draining
//! FP kernel — are exactly where I-COUNT's least-pending pick beats blind
//! rotation. Second, a memory-clogged pointer chaser does **not** reward
//! I-COUNT: its full fetch buffer makes it *ineligible* for both policies
//! alike, so eligibility, not the pick, dominates — those mixes converge.
//!
//! Because the claim is a *difference between policies*, it is asserted as
//! signal, not noise: every (mix, policy) point is simulated
//! [`REPLICAS`] times under decorrelated per-cell seeds, and the shape
//! check requires I-COUNT's advantage to exceed
//! [`SEPARATION_FACTOR`] × the measured relative seed stddev on at least
//! one heterogeneous mix. A homogeneous assembled control mix rides along
//! to show the separation is a property of heterogeneity, not of assembled
//! workloads per se.

use dsmt_asm::corpus;
use dsmt_core::{FetchPolicy, SimConfig};
use dsmt_sweep::{Axis, SeedMode, SweepGrid, SweepReport, WorkloadSpec};

use crate::report::{fmt_f, fmt_pct};
use crate::seed_variance::{VarianceRow, REPLICAS};
use crate::{ExperimentParams, Table};

/// Hardware contexts (one per corpus mix slot; program `t mod n` runs on
/// thread `t`).
pub const THREADS: usize = 4;

/// The advantage must exceed this multiple of the measured seed noise to
/// count as separation.
pub const SEPARATION_FACTOR: f64 = 3.0;

/// Floor on the noise estimate (relative stddev), so a mix whose samples
/// happen to coincide cannot claim infinite separation.
pub const NOISE_FLOOR: f64 = 0.002;

fn corpus_source(name: &str) -> (&'static str, &'static str) {
    corpus::CORPUS
        .iter()
        .copied()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("unknown corpus program `{name}`"))
}

/// The evaluated mixes: heterogeneous combinations of the corpus programs
/// plus one homogeneous control. Labels are the workload labels
/// (`asm:<names>`); a `+` marks a heterogeneous mix.
///
/// * `branchy ×3 + fp_kernel` — the headline separator: branch-throttled
///   threads next to a steady FP drain.
/// * `ptr_chase + fp_kernel + branchy (+ ptr_chase)` — all three
///   characters; the chasers' ineligibility mutes the pick.
/// * `ptr_chase + fp_kernel` — memory-clogged vs compute: converges
///   (eligibility dominates).
/// * `fp_kernel` alone — homogeneous control, must not separate.
#[must_use]
pub fn mixes() -> Vec<WorkloadSpec> {
    let chase = corpus_source("ptr_chase");
    let fp = corpus_source("fp_kernel");
    let branchy = corpus_source("branchy");
    vec![
        WorkloadSpec::programs(&[branchy, branchy, branchy, fp]),
        WorkloadSpec::programs(&[chase, fp, branchy]),
        WorkloadSpec::programs(&[chase, fp]),
        WorkloadSpec::programs(&[fp]),
    ]
}

/// The hetero fetch-policy sweep: every mix replicated [`REPLICAS`] times
/// under decorrelated per-cell seeds, crossed with the two fetch policies,
/// on the paper's 4-context machine narrowed to a one-thread fetch gang
/// (see the module docs for why the gang is 1).
#[must_use]
pub fn grid(params: &ExperimentParams) -> SweepGrid {
    let workloads = mixes()
        .into_iter()
        .flat_map(|m| std::iter::repeat_n(m, REPLICAS));
    let mut base = SimConfig::paper_multithreaded(THREADS);
    base.fetch_threads_per_cycle = 1;
    SweepGrid::new("fetch-policy-hetero", base)
        .with_workloads(workloads)
        .with_axis(Axis::fetch_policies(&[
            FetchPolicy::ICount,
            FetchPolicy::RoundRobin,
        ]))
        .with_seed(params.seed)
        .with_seed_mode(SeedMode::PerCell)
        .with_budget(params.instructions_per_point)
}

/// One mix's IPC statistics under both policies.
#[derive(Debug, Clone, PartialEq)]
pub struct HeteroRow {
    /// Workload label (`asm:<names>`); heterogeneous mixes contain `+`.
    pub mix: String,
    /// IPC across seeds under I-COUNT.
    pub icount: VarianceRow,
    /// IPC across seeds under round-robin.
    pub round_robin: VarianceRow,
}

impl HeteroRow {
    /// Whether the mix runs different programs on different threads.
    #[must_use]
    pub fn is_heterogeneous(&self) -> bool {
        self.mix.contains('+')
    }

    /// I-COUNT's relative advantage over round-robin (mean over mean,
    /// positive = I-COUNT faster).
    #[must_use]
    pub fn advantage(&self) -> f64 {
        self.icount.mean / self.round_robin.mean.max(1e-12) - 1.0
    }

    /// The seed-noise scale the advantage is compared against: the larger
    /// of the two policies' relative stddevs, floored at [`NOISE_FLOOR`].
    #[must_use]
    pub fn noise(&self) -> f64 {
        self.icount
            .relative_stddev()
            .max(self.round_robin.relative_stddev())
            .max(NOISE_FLOOR)
    }

    /// The advantage in units of seed noise.
    #[must_use]
    pub fn separation(&self) -> f64 {
        self.advantage() / self.noise()
    }

    /// Whether the policies are separated by more than
    /// [`SEPARATION_FACTOR`] × the seed noise.
    #[must_use]
    pub fn separated(&self) -> bool {
        self.separation() > SEPARATION_FACTOR
    }
}

/// The complete hetero fetch-policy data set.
#[derive(Debug, Clone, PartialEq)]
pub struct HeteroResults {
    /// One row per mix, in [`mixes`] order.
    pub rows: Vec<HeteroRow>,
}

/// Distils a hetero report: records are ordered mix-outermost (each mix
/// contiguous for its [`REPLICAS`] replicas) with the policy axis fastest.
///
/// # Panics
///
/// Panics if the record count does not match the grid shape.
#[must_use]
pub fn distill(report: &SweepReport) -> HeteroResults {
    let n = report.records.len();
    let per_mix = REPLICAS * 2;
    assert!(
        n.is_multiple_of(per_mix) && n > 0,
        "hetero report must hold blocks of {per_mix} records, got {n}"
    );
    let rows = (0..n / per_mix)
        .map(|m| {
            let policy_samples = |p: usize| -> (Vec<(String, String)>, Vec<f64>) {
                let records: Vec<_> = (0..REPLICAS)
                    .map(|r| &report.records[(m * REPLICAS + r) * 2 + p])
                    .collect();
                debug_assert!(records
                    .iter()
                    .all(|r| r.labels == records[0].labels && r.workload == records[0].workload));
                (
                    records[0].labels.clone(),
                    records.iter().map(|r| r.results.ipc()).collect(),
                )
            };
            let (ic_labels, ic_samples) = policy_samples(0);
            let (rr_labels, rr_samples) = policy_samples(1);
            HeteroRow {
                mix: report.records[m * per_mix].workload.clone(),
                icount: VarianceRow::from_samples(ic_labels, ic_samples),
                round_robin: VarianceRow::from_samples(rr_labels, rr_samples),
            }
        })
        .collect();
    HeteroResults { rows }
}

impl HeteroResults {
    /// The figure table: both policies' mean IPC, I-COUNT's advantage, the
    /// seed noise and the separation in noise units, one row per mix.
    #[must_use]
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            "Fetch policy on heterogeneous assembled workloads \
             (I-COUNT vs round-robin)",
            &[
                "mix",
                "I-COUNT IPC",
                "round-robin IPC",
                "advantage",
                "seed noise",
                "separation",
            ],
        );
        for row in &self.rows {
            table.add_row(vec![
                row.mix.clone(),
                fmt_f(row.icount.mean, 3),
                fmt_f(row.round_robin.mean, 3),
                fmt_pct(row.advantage()),
                fmt_pct(row.noise()),
                format!("{:.1}x", row.separation()),
            ]);
        }
        table
    }

    /// The claims this figure documents, with pass/fail.
    #[must_use]
    pub fn shape_checks(&self) -> Vec<(String, bool)> {
        let hetero: Vec<&HeteroRow> = self.rows.iter().filter(|r| r.is_heterogeneous()).collect();
        let homog: Vec<&HeteroRow> = self.rows.iter().filter(|r| !r.is_heterogeneous()).collect();
        let mut checks = vec![(
            format!("every (mix, policy) point carries {REPLICAS} seed samples"),
            !self.rows.is_empty()
                && self.rows.iter().all(|r| {
                    r.icount.samples.len() == REPLICAS && r.round_robin.samples.len() == REPLICAS
                }),
        )];
        checks.push((
            format!(
                "some heterogeneous mix separates the policies \
                 (I-COUNT advantage > {SEPARATION_FACTOR}x seed noise)"
            ),
            hetero.iter().any(|r| r.separated()),
        ));
        checks.push((
            "I-COUNT never loses to round-robin beyond seed noise".to_string(),
            self.rows
                .iter()
                .all(|r| r.advantage() > -SEPARATION_FACTOR * r.noise()),
        ));
        checks.push((
            "the homogeneous assembled control does not separate \
             (heterogeneity, not assembly, is what I-COUNT exploits)"
                .to_string(),
            homog.iter().all(|r| !r.separated()),
        ));
        checks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentParams {
        ExperimentParams {
            instructions_per_point: 30_000,
            insts_per_program: 8_000,
            seed: 42,
            workers: 4,
        }
    }

    #[test]
    fn grid_replicates_every_mix_under_both_policies() {
        let g = grid(&tiny());
        assert_eq!(g.len(), mixes().len() * REPLICAS * 2);
        assert_eq!(g.name, "fetch-policy-hetero");
        assert_eq!(g.seed_mode, SeedMode::PerCell);
        let cells = g.cells();
        // Replicas of one (mix, policy) point differ only in seed.
        let (a, b) = (&cells[0], &cells[2]);
        assert_eq!(a.workload_label, b.workload_label);
        assert_eq!(a.labels, b.labels);
        assert_ne!(a.scenario.seed, b.scenario.seed);
    }

    #[test]
    fn figure_distills_and_passes_its_shape_checks() {
        let params = tiny();
        let results = distill(&params.engine().run(&grid(&params)));
        assert_eq!(results.rows.len(), mixes().len());
        let table = results.table();
        assert_eq!(table.num_rows(), mixes().len());
        for (claim, ok) in results.shape_checks() {
            assert!(
                ok,
                "shape check failed: {claim}\n{}",
                results.table().to_markdown()
            );
        }
        // The headline separation survives at the tiny test scale; print
        // the table so threshold drift is easy to diagnose from test logs.
        println!("{}", results.table().to_markdown());
    }
}
