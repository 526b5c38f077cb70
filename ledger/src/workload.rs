//! The three workloads: which figure grids each runs, at what scale, how
//! set-up builds them, and the record checks every pass goes through.

use std::path::{Path, PathBuf};

use dsmt_experiments::{
    ablations, fetch_policy, fetch_policy_hetero, fig1, fig3, fig4, fig5, seed_variance,
    ExperimentParams,
};
use dsmt_store::{Fnv64, Store};
use dsmt_sweep::{Cell, RunRecord, SweepEngine, SweepGrid, SweepReport, CACHE_SCHEMA_VERSION};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `fig1` + `fig4`: single-context latency hiding, stall-path heavy.
    LatencySweep,
    /// Every other figure grid: multi-context machines, stepped-cycle heavy.
    ThreadSweep,
    /// Re-render, shard, recover and merge every grid from a warm store.
    WarmFleet,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::LatencySweep,
        Workload::ThreadSweep,
        Workload::WarmFleet,
    ];

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::LatencySweep => "latency_sweep",
            Workload::ThreadSweep => "thread_sweep",
            Workload::WarmFleet => "warm_fleet",
        }
    }

    /// Whether the timed phase simulates (cold) or replays (warm).
    #[must_use]
    pub fn is_cold(self) -> bool {
        self != Workload::WarmFleet
    }
}

/// How much work one run does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Instructions simulated per cell.
    pub budget: u64,
    /// Grid seeds held in the warm store (1 for the cold workloads).
    pub seeds: u64,
    /// Shards each grid is planned into (warm fleet only).
    pub shards: usize,
}

impl Scale {
    /// The scale a workload runs at; `smoke` shrinks every workload to a
    /// few seconds for the test suite.
    #[must_use]
    pub fn of(workload: Workload, smoke: bool) -> Self {
        let (budget, seeds, shards) = match (workload, smoke) {
            // An eighth of the figures' 400k default: the grids keep their
            // shape and cost mix, and one run takes a dozen paired samples
            // of each side, enough for a median that rides out the
            // host's slow phases.
            (Workload::LatencySweep | Workload::ThreadSweep, false) => (50_000, 1, 1),
            (Workload::LatencySweep | Workload::ThreadSweep, true) => (3_000, 1, 1),
            // 45 seeds x 221 cells ~ 10^4 records; cells are tiny because
            // the timed phase replays them and never simulates.
            (Workload::WarmFleet, false) => (2_000, 45, 4),
            (Workload::WarmFleet, true) => (1_000, 2, 2),
        };
        Scale {
            budget,
            seeds,
            shards,
        }
    }
}

/// One figure as the figure binaries run it: all of its grids go through
/// one `SweepEngine::run_many` call.
pub type Figure = Vec<SweepGrid>;

fn params(seed: u64, budget: u64) -> ExperimentParams {
    ExperimentParams {
        instructions_per_point: budget,
        // The figures' 10:1 budget-to-segment ratio (400k / 40k).
        insts_per_program: (budget / 10).max(1),
        seed,
        workers: workers(),
    }
}

fn latency_figures(p: &ExperimentParams) -> Vec<Figure> {
    vec![vec![fig1::grid(p)], vec![fig4::grid(p)]]
}

fn thread_figures(p: &ExperimentParams) -> Vec<Figure> {
    vec![
        vec![fig3::grid(p)],
        fig5::grids(p),
        vec![fetch_policy::grid(p)],
        vec![fetch_policy_hetero::grid(p)],
        vec![seed_variance::grid(p)],
        ablations::grids(p),
    ]
}

/// The figures a workload runs at `seed`. The warm fleet holds every figure
/// grid at `scale.seeds` consecutive seeds, one `run_many` per seed; its
/// first figure is the one at `seed` itself.
#[must_use]
pub fn figures(workload: Workload, seed: u64, scale: Scale) -> Vec<Figure> {
    match workload {
        Workload::LatencySweep => latency_figures(&params(seed, scale.budget)),
        Workload::ThreadSweep => thread_figures(&params(seed, scale.budget)),
        Workload::WarmFleet => (0..scale.seeds)
            .map(|s| {
                let p = params(seed.wrapping_add(s), scale.budget);
                latency_figures(&p)
                    .into_iter()
                    .chain(thread_figures(&p))
                    .flatten()
                    .collect()
            })
            .collect(),
    }
}

/// Workers a parallel sweep uses: every core the process may run on.
#[must_use]
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A sweep engine with the program's defaults (batched drive, cache on)
/// caching into `store`.
#[must_use]
pub fn engine(workers: usize, store: &Path) -> SweepEngine {
    SweepEngine::new(workers)
        .with_batch(dsmt_sweep::batch::DEFAULT_BATCH)
        .with_cache_dir(store)
}

/// Runs every figure through an engine over `store`, figure by figure as
/// the figure binaries do, returning one report per grid in order.
#[must_use]
pub fn run_figures(figures: &[Figure], workers: usize, store: &Path) -> Vec<SweepReport> {
    let engine = engine(workers, store);
    figures.iter().flat_map(|f| engine.run_many(f)).collect()
}

/// The records of `reports`, flattened in order.
#[must_use]
pub fn records(reports: &[SweepReport]) -> Vec<&RunRecord> {
    reports.iter().flat_map(|r| &r.records).collect()
}

/// FNV-1a over the canonical JSON of every record (which excludes host
/// telemetry), one record per line.
#[must_use]
pub fn digest(records: &[&RunRecord]) -> u64 {
    let mut fnv = Fnv64::new();
    for record in records {
        fnv.update(serde::to_string(*record).as_bytes());
        fnv.update(b"\n");
    }
    fnv.finish()
}

/// Cells of `got` that differ from `want` (a length mismatch counts every
/// missing or extra cell).
#[must_use]
pub fn mismatches(got: &[&RunRecord], want: &[&RunRecord]) -> usize {
    let differing = got.iter().zip(want).filter(|(g, w)| g != w).count();
    differing + got.len().abs_diff(want.len())
}

/// The pinned digest for `(workload, seed, budget)`, if one is pinned.
#[must_use]
pub fn pinned(workload: Workload, seed: u64, budget: u64) -> Option<u64> {
    include_str!("../digests.txt")
        .lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .find_map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            match f.as_slice() {
                [w, s, b, d]
                    if *w == workload.name()
                        && s.parse() == Ok(seed)
                        && b.parse() == Ok(budget) =>
                {
                    u64::from_str_radix(d, 16).ok()
                }
                _ => None,
            }
        })
}

/// Everything set-up builds before the timed phase.
#[derive(Debug)]
pub struct Setup {
    /// The workload's figures.
    pub figures: Vec<Figure>,
    /// Every cell of every grid, in grid order, with its scenario built.
    pub cells: Vec<Cell>,
    /// The store set-up created (and, for the warm fleet, populated).
    pub store: PathBuf,
    /// The cold reports the warm fleet's store was populated with.
    pub cold: Vec<SweepReport>,
}

/// Builds grids and scenarios, assembles the asm corpus and creates an
/// empty store at `store`. The warm fleet also populates that store with
/// every figure grid at every seed, simulated cold on `workers` workers.
///
/// # Panics
///
/// If the corpus fails to assemble or the store cannot be created.
#[must_use]
pub fn setup(workload: Workload, seed: u64, scale: Scale, store: PathBuf) -> Setup {
    let figures = figures(workload, seed, scale);
    let cells = figures
        .iter()
        .flatten()
        .flat_map(SweepGrid::cells)
        .collect();
    // The hetero figure assembles its programs when each processor is
    // built; assembling the corpus up front fails set-up on a broken one.
    for (name, source) in dsmt_asm::corpus::CORPUS {
        dsmt_asm::assemble(name, source).expect("corpus assembles");
    }
    Store::open(&store, CACHE_SCHEMA_VERSION).expect("create the store");
    let cold = if workload.is_cold() {
        Vec::new()
    } else {
        run_figures(&figures, workers(), &store)
    };
    Setup {
        figures,
        cells,
        store,
        cold,
    }
}

/// Fresh, uniquely named directories under one per-run root, removed when
/// the run ends.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
    next: usize,
}

impl Scratch {
    /// A scratch root under the build directory of the checkout
    /// (`$CARGO_TARGET_DIR`, else `target`), unique to this process.
    ///
    /// # Panics
    ///
    /// If the directory cannot be created.
    #[must_use]
    pub fn new() -> Self {
        let build =
            std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
        let root = build
            .join("ledger-work")
            .join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create the scratch directory");
        Scratch { root, next: 0 }
    }

    /// A new path (not yet created) under the root.
    pub fn fresh(&mut self, tag: &str) -> PathBuf {
        self.next += 1;
        self.root.join(format!("{tag}-{}", self.next))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Copies the directory tree at `from` to `to` (which must not exist).
///
/// # Errors
///
/// The first I/O error.
pub fn copy_tree(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)?;
        }
    }
    Ok(())
}
