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
//! Each module exposes its sweep as declarative [`dsmt_sweep::SweepGrid`]s
//! (`grid`/`grids`) and a `distill(&SweepReport)` that turns the figure's
//! report into its data, tables and shape checks. [`FIGURES`] lists every
//! figure once — its name, its report heading, its grids and how it
//! renders — and the one driver, `all_experiments [FIGURE...]`, runs any
//! of them from that table.
//!
//! Sweeps execute on the `dsmt-sweep` engine: cells run in
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

/// One figure of the report: how to select it, its section heading, the
/// grids it sweeps and how its report renders.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// The name `all_experiments` selects it by. A figure of several grids
    /// merges their reports under this name.
    pub name: &'static str,
    /// The heading of its report section.
    pub heading: &'static str,
    /// Its sweep grids, in run order.
    pub grids: fn(&ExperimentParams) -> Vec<SweepGrid>,
    /// Its tables and shape checks, distilled from its report.
    pub render: fn(&SweepReport) -> Rendered,
    /// Whether a failed shape check fails the run. Only the heterogeneous
    /// fetch-policy figure gates: its checks are measured against seed
    /// noise and hold at small budgets, where the others' may not.
    pub gates: bool,
}

impl Figure {
    /// Runs the figure's grids on `engine` through one shared worker pool
    /// and returns its report: the grid's own for a one-grid figure, the
    /// grids' reports merged under [`Figure::name`] otherwise.
    #[must_use]
    pub fn run(&self, engine: &SweepEngine, params: &ExperimentParams) -> SweepReport {
        let mut reports = engine.run_many(&(self.grids)(params));
        if reports.len() == 1 {
            reports.pop().expect("one report")
        } else {
            SweepReport::merged(self.name, reports)
        }
    }

    /// The figure's report section — heading, tables, then one `- [x]` or
    /// `- [ ]` line per shape check — and whether every check holds.
    #[must_use]
    pub fn section(&self, report: &SweepReport) -> (String, bool) {
        let Rendered { tables, checks } = (self.render)(report);
        let mut out = format!("## {}\n\n{tables}", self.heading);
        for (claim, ok) in &checks {
            out.push_str(&format!("- [{}] {claim}\n", if *ok { "x" } else { " " }));
        }
        out.push('\n');
        (out, checks.iter().all(|(_, ok)| *ok))
    }
}

/// A figure's report, rendered.
#[derive(Debug, Clone, PartialEq)]
pub struct Rendered {
    /// Its tables as markdown, each followed by a blank line.
    pub tables: String,
    /// Its shape checks as `(claim, holds)`.
    pub checks: Vec<(String, bool)>,
}

impl Rendered {
    fn new(tables: &[Table], checks: Vec<(String, bool)>) -> Self {
        let tables = tables.iter().map(|t| t.to_markdown() + "\n").collect();
        Rendered { tables, checks }
    }
}

/// Every figure, in report order.
pub static FIGURES: [Figure; 8] = [
    Figure {
        name: "fig1",
        heading: "Figure 1 — latency hiding of single-threaded decoupling",
        grids: |p| vec![fig1::grid(p)],
        render: |report| {
            let r = fig1::distill(report);
            let tables = [
                r.table_fig1a(),
                r.table_fig1b(),
                r.table_fig1c(),
                r.table_fig1d(),
            ];
            Rendered::new(&tables, r.shape_checks())
        },
        gates: false,
    },
    Figure {
        name: "fig3",
        heading: "Figure 3 — issue-slot breakdown vs thread count",
        grids: |p| vec![fig3::grid(p)],
        render: |report| {
            let r = fig3::distill(report);
            Rendered::new(&[r.table()], r.shape_checks())
        },
        gates: false,
    },
    Figure {
        name: "fig4",
        heading: "Figure 4 — latency tolerance of the multithreaded decoupled machine",
        grids: |p| vec![fig4::grid(p)],
        render: |report| {
            let r = fig4::distill(report);
            let tables = [r.table_fig4a(), r.table_fig4b(), r.table_fig4c()];
            Rendered::new(&tables, r.shape_checks())
        },
        gates: false,
    },
    Figure {
        name: "fig5",
        heading: "Figure 5 — hardware contexts and bus saturation",
        grids: fig5::grids,
        render: |report| {
            let r = fig5::distill(report);
            Rendered::new(&[r.table(16), r.table(64)], r.shape_checks())
        },
        gates: false,
    },
    Figure {
        name: "fetch-policy",
        heading: "Fetch policy (Section 3.1) — I-COUNT vs round-robin",
        grids: |p| vec![fetch_policy::grid(p)],
        render: |report| {
            let r = fetch_policy::distill(report);
            Rendered::new(&[r.table()], r.shape_checks())
        },
        gates: false,
    },
    Figure {
        name: "fetch-policy-hetero",
        heading: "Fetch policy on heterogeneous assembled workloads",
        grids: |p| vec![fetch_policy_hetero::grid(p)],
        render: |report| {
            let r = fetch_policy_hetero::distill(report);
            Rendered::new(&[r.table()], r.shape_checks())
        },
        gates: true,
    },
    Figure {
        name: "seed-variance",
        heading: "Seed variance — how representative are single-seed figures?",
        grids: |p| vec![seed_variance::grid(p)],
        render: |report| {
            let r = seed_variance::distill(report);
            Rendered::new(&[r.table()], r.shape_checks())
        },
        gates: false,
    },
    Figure {
        name: "ablations",
        heading: "Ablations (beyond the paper)",
        grids: ablations::grids,
        render: |report| {
            let r = ablations::distill(report);
            Rendered {
                tables: r.to_markdown() + "\n",
                checks: r.shape_checks(),
            }
        },
        gates: false,
    },
];

/// The figure `all_experiments` selects by `name`.
#[must_use]
pub fn figure(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

/// Every figure grid at `params`, in report order.
#[must_use]
pub fn figure_grids(params: &ExperimentParams) -> Vec<SweepGrid> {
    FIGURES.iter().flat_map(|f| (f.grids)(params)).collect()
}

/// The L2 latencies swept by the paper (Figures 1 and 4).
pub const L2_LATENCIES: [u64; 6] = [1, 16, 32, 64, 128, 256];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_names_are_unique_and_select_their_figure() {
        let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        for (i, name) in names.iter().enumerate() {
            assert!(!names[..i].contains(name), "figure {name} listed twice");
            assert_eq!(figure(name).map(|f| f.name), Some(*name));
        }
        assert!(figure("fig2").is_none());
    }

    #[test]
    fn figure_grids_are_the_twelve_grids_each_named_once() {
        let params = ExperimentParams::standard();
        let mut names: Vec<String> = figure_grids(&params).into_iter().map(|g| g.name).collect();
        names.sort();
        let mut expected = vec![
            "fig1",
            "fig3",
            "fig4",
            "fetch-policy",
            "fetch-policy-hetero",
            "seed-variance",
            "fig5-l2-16",
            "fig5-l2-64",
            "ablation-iq-depth",
            "ablation-mshr",
            "ablation-unit-split",
            "ablation-l1-assoc",
        ];
        expected.sort_unstable();
        assert_eq!(names, expected);
    }

    #[test]
    fn every_figure_sweeps_its_modules_grids() {
        let params = ExperimentParams {
            instructions_per_point: 5_000,
            insts_per_program: 1_000,
            seed: 9,
            workers: 1,
        };
        for fig in &FIGURES {
            let expected = match fig.name {
                "fig1" => vec![fig1::grid(&params)],
                "fig3" => vec![fig3::grid(&params)],
                "fig4" => vec![fig4::grid(&params)],
                "fig5" => fig5::grids(&params),
                "fetch-policy" => vec![fetch_policy::grid(&params)],
                "fetch-policy-hetero" => vec![fetch_policy_hetero::grid(&params)],
                "seed-variance" => vec![seed_variance::grid(&params)],
                "ablations" => ablations::grids(&params),
                other => panic!("figure {other} has no module"),
            };
            assert_eq!((fig.grids)(&params), expected, "grids of {}", fig.name);
        }
    }

    #[test]
    fn only_the_hetero_fetch_policy_figure_gates() {
        let gating: Vec<&str> = FIGURES.iter().filter(|f| f.gates).map(|f| f.name).collect();
        assert_eq!(gating, ["fetch-policy-hetero"]);
    }
}
