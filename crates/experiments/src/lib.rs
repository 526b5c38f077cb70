//! # dsmt-experiments
//!
//! The experiment harness that regenerates every table and figure of
//! *"The Synergy of Multithreading and Access/Execute Decoupling"*
//! (HPCA 1999) on top of the [`dsmt_core`] simulator:
//!
//! * [`fig1`] — Section 2, Figures 1-a..1-d: latency-hiding effectiveness of
//!   a single-threaded decoupled processor across the SPEC FP95 profiles.
//! * [`fig3`] — Section 3.1, Figure 3: issue-slot breakdown of the
//!   multithreaded decoupled processor for 1–6 threads.
//! * [`fig4`] — Section 3.2, Figure 4: perceived latency, relative IPC loss
//!   and absolute IPC for 1–4 threads with and without decoupling, across
//!   L2 latencies.
//! * [`fig5`] — Section 3.3, Figure 5: IPC versus number of hardware
//!   contexts at L2 = 16 and L2 = 64, decoupled vs non-decoupled, plus
//!   external bus utilisation.
//! * [`fetch_policy`] — Section 3.1: I-COUNT vs round-robin thread
//!   selection across hardware-context counts.
//! * [`fetch_policy_hetero`] — I-COUNT vs round-robin on heterogeneous
//!   assembled workloads (`dsmt-asm` corpus mixes), where the policies
//!   separate; the advantage is asserted against measured seed noise.
//! * [`seed_variance`] — per-cell seed study: every grid point replicated
//!   under decorrelated seeds, with mean/stddev columns quantifying how
//!   representative the single-seed figures are.
//! * [`ablations`] — studies beyond the paper: instruction-queue depth,
//!   MSHR count, issue-width asymmetry and L1 associativity.
//!
//! Each module exposes its sweep as a declarative [`dsmt_sweep::SweepGrid`]
//! (`grid`/`grids`), a `sweep(&ExperimentParams)` function returning the
//! distilled figure data *plus* the raw [`dsmt_sweep::SweepReport`] (for
//! JSON/CSV export and cache telemetry), and a `run(&ExperimentParams)`
//! convenience returning just the figure data. The binaries (`fig1`,
//! `fig3`, `fig4`, `fig5`, `ablations`, `all_experiments`) wrap those
//! functions.
//!
//! Sweeps execute on the `dsmt-sweep` work-stealing engine: cells run in
//! parallel with deterministic per-cell seeding (results are bit-identical
//! at any worker count) and an on-disk result cache keyed by
//! (config, workload, seed, budget) — re-running a figure only simulates
//! cells whose parameters changed. Each individual simulation stays
//! single-threaded and deterministic.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablations;
pub mod fetch_policy;
pub mod fetch_policy_hetero;
pub mod fig1;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod report;
pub mod runner;
pub mod seed_variance;

pub use dsmt_sweep::{
    Axis, RunRecord, Scenario, Setting, SweepEngine, SweepGrid, SweepReport, WorkloadSpec,
};
pub use report::Table;
pub use runner::ExperimentParams;

/// Every figure grid at `params`: Figures 1, 3 and 4, both fetch-policy
/// studies, the seed study, Figure 5's grids and the ablations.
#[must_use]
pub fn figure_grids(params: &ExperimentParams) -> Vec<SweepGrid> {
    let mut grids = vec![
        fig1::grid(params),
        fig3::grid(params),
        fig4::grid(params),
        fetch_policy::grid(params),
        fetch_policy_hetero::grid(params),
        seed_variance::grid(params),
    ];
    grids.extend(fig5::grids(params));
    grids.extend(ablations::grids(params));
    grids
}

/// The L2 latencies swept by the paper (Figures 1 and 4).
pub const L2_LATENCIES: [u64; 6] = [1, 16, 32, 64, 128, 256];
