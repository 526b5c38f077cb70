//! The sweep engine: grid → cells → pool (→ cache, → execute) → report.

use std::sync::OnceLock;
use std::time::Instant;

use crate::cache::{CacheMode, CacheStats, ResultCache};
use crate::{batch, pool, Cell, CellPerf, RunRecord, SweepGrid, SweepReport};

/// One unit of sweep work: the name and counters of the grid a cell
/// belongs to, and the cell.
type Job<'a> = (&'a str, &'a CacheStats, &'a Cell);

/// Executes [`SweepGrid`]s on the worker [`pool`] with optional caching.
/// Every cell runs alone through [`Scenario::execute`](crate::Scenario::execute)
/// on the worker that claimed it.
///
/// An engine keeps **one** cache handle for its whole life: it opens the
/// cache directory on its first cached run and every later run reuses
/// that handle. The handle is a snapshot of the directory at open plus
/// the engine's own publishes: a cell another process published since is
/// re-simulated, to the same bytes (see the cache module's visibility
/// contract). Reuse an engine across the runs of one job — the figures of
/// a binary, the shards of a recovery pass — rather than building one per
/// run.
#[derive(Debug)]
pub struct SweepEngine {
    /// Maximum concurrent cells.
    pub workers: usize,
    /// The most cells one pool claim takes.
    batch: usize,
    /// Cache policy; set by the builders, which also reset `handle`.
    cache: CacheMode,
    /// Render a live `cells/s + ETA` progress line on stderr while running
    /// (`dsmt sweep run --progress`).
    progress: bool,
    /// The cache handle, opened on the first cached run.
    handle: OnceLock<ResultCache>,
}

impl SweepEngine {
    /// An engine with `workers` workers, the environment's cache policy
    /// (`DSMT_SWEEP_CACHE`, see [`CacheMode::from_env`]) and the
    /// [`batch::DEFAULT_BATCH`] claim cap.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        SweepEngine {
            workers: workers.max(1),
            batch: batch::DEFAULT_BATCH,
            cache: CacheMode::from_env(),
            progress: false,
            handle: OnceLock::new(),
        }
    }

    /// Sets the pool claim cap: the most cells one claim takes (min 1).
    /// Records do not depend on it.
    #[must_use]
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// An engine sized to the machine.
    #[must_use]
    pub fn from_env() -> Self {
        let workers = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4);
        SweepEngine::new(workers)
    }

    /// Disables the cache.
    #[must_use]
    pub fn without_cache(mut self) -> Self {
        self.cache = CacheMode::Disabled;
        self.handle = OnceLock::new();
        self
    }

    /// Caches under an explicit directory; the next cached run opens it.
    #[must_use]
    pub fn with_cache_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.cache = CacheMode::Dir(dir.into());
        self.handle = OnceLock::new();
        self
    }

    /// Enables the live progress line.
    #[must_use]
    pub fn with_progress(mut self) -> Self {
        self.progress = true;
        self
    }

    /// Runs every cell of the grid and returns the records in grid order.
    ///
    /// Records are bit-identical for any `workers` value and whether or not
    /// cells were answered from the cache; only the report's hit/miss
    /// counters reveal the difference.
    ///
    /// # Panics
    ///
    /// Panics if a cell's configuration is invalid or a workload names an
    /// unknown benchmark (grid construction bugs), or if the cache
    /// directory cannot be created or opened.
    #[must_use]
    pub fn run(&self, grid: &SweepGrid) -> SweepReport {
        self.run_many(std::slice::from_ref(grid))
            .pop()
            .expect("one report per grid")
    }

    /// Runs several grids through **one** shared worker pool and returns one
    /// report per grid, in input order.
    ///
    /// Prefer this over sequential [`SweepEngine::run`] calls when a figure
    /// is made of several small grids (Figure 5's two latencies, the four
    /// ablation studies): cells of all grids interleave across the workers,
    /// so wall-clock tracks the single slowest cell instead of the sum of
    /// each grid's slowest.
    ///
    /// # Panics
    ///
    /// As for [`SweepEngine::run`].
    #[must_use]
    pub fn run_many(&self, grids: &[SweepGrid]) -> Vec<SweepReport> {
        let stats: Vec<CacheStats> = grids.iter().map(|_| CacheStats::default()).collect();
        let cells: Vec<Vec<Cell>> = grids.iter().map(SweepGrid::cells).collect();
        // Jobs concatenated in grid order.
        let jobs: Vec<Job<'_>> = grids
            .iter()
            .zip(&stats)
            .zip(&cells)
            .flat_map(|((grid, stats), cells)| {
                cells.iter().map(move |c| (grid.name.as_str(), stats, c))
            })
            .collect();
        let span = dsmt_obs::span("sweep.run").field("grids", grids.len());
        let records = self.run_jobs(span, &jobs);
        // Split the flat record list back into per-grid reports; run_jobs
        // keeps job order.
        let mut records = records.into_iter();
        grids
            .iter()
            .zip(&stats)
            .map(|(grid, stats)| {
                let records: Vec<RunRecord> = records.by_ref().take(grid.len()).collect();
                // Per-grid compute seconds: the sum of this grid's own cell
                // wall times. Additive across grids and across merges (the
                // engine wall clock is shared by every grid in the batch and
                // would double-count).
                let wall_secs = records.iter().map(|r| r.perf.wall_secs).sum();
                dsmt_obs::info!(
                    "sweep.done",
                    grid = grid.name.as_str(),
                    cells = records.len(),
                    cache_hits = stats.hits(),
                    cache_misses = stats.misses(),
                    wall_secs = wall_secs
                );
                SweepReport {
                    grid: grid.name.clone(),
                    records,
                    cache_hits: stats.hits(),
                    cache_misses: stats.misses(),
                    wall_secs,
                }
            })
            .collect()
    }

    /// Runs only the cells of `grid` selected by `indices` (original grid
    /// positions), returning the records in the order given. This is the
    /// shard-execution entry point: a manifest hands each host a slice of
    /// the cell space, the shared cache dedups any overlap, and records keep
    /// their grid-order `cell` indices so shards reassemble exactly.
    ///
    /// Under the store transport the cache directory does double duty:
    /// point this engine's cache at the fleet's store directory and the
    /// scenario results simulated here share segments with the shard
    /// outputs the executor publishes there afterwards — the "one store
    /// directory" protocol (see `dsmt_shard::transport`).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range, plus the cases of
    /// [`SweepEngine::run`].
    #[must_use]
    pub fn run_subset(&self, grid: &SweepGrid, indices: &[usize]) -> SweepReport {
        let stats = CacheStats::default();
        let all_cells = grid.cells();
        let jobs: Vec<Job<'_>> = indices
            .iter()
            .map(|&i| {
                let cell = all_cells.get(i).unwrap_or_else(|| {
                    panic!(
                        "cell index {i} out of range (grid has {} cells)",
                        all_cells.len()
                    )
                });
                (grid.name.as_str(), &stats, cell)
            })
            .collect();
        let span = dsmt_obs::span("sweep.run_subset").field("grid", grid.name.as_str());
        let records = self.run_jobs(span, &jobs);
        let wall_secs = records.iter().map(|r| r.perf.wall_secs).sum();
        SweepReport {
            grid: grid.name.clone(),
            records,
            cache_hits: stats.hits(),
            cache_misses: stats.misses(),
            wall_secs,
        }
    }

    /// The body [`SweepEngine::run_many`] and [`SweepEngine::run_subset`]
    /// share: drives `jobs` through the pool and the (optional) cache
    /// under `span`, with the progress line when enabled, and returns one
    /// record per job in job order.
    ///
    /// The remaining misses are published before it returns (Drop would
    /// too, but an explicit flush keeps the publish point well-defined).
    /// Runs with at most [`crate::cache::FLUSH_THRESHOLD`] misses publish
    /// exactly one key-sorted segment; larger ones flush incrementally,
    /// with scheduling-dependent batch boundaries.
    fn run_jobs(&self, span: dsmt_obs::Span, jobs: &[Job<'_>]) -> Vec<RunRecord> {
        let cache = self.cache_handle();
        let span = span
            .field("cells", jobs.len())
            .field("workers", self.workers);
        let progress = self
            .progress
            .then(|| crate::ProgressLine::start(jobs.len()));
        let done = progress.as_ref().map(crate::ProgressLine::counter);
        let records = pool::run_batched(jobs, self.workers, self.batch, |_, slice| {
            let records: Vec<RunRecord> =
                slice.iter().map(|job| build_record(cache, job)).collect();
            if let Some(done) = &done {
                done.fetch_add(slice.len(), std::sync::atomic::Ordering::Relaxed);
            }
            records
        });
        if let Some(progress) = progress {
            progress.finish();
        }
        drop(span);
        if let Some(cache) = cache {
            cache.flush();
        }
        records
    }

    /// The engine's cache handle, opened on the first cached run.
    fn cache_handle(&self) -> Option<&ResultCache> {
        let CacheMode::Dir(dir) = &self.cache else {
            return None;
        };
        Some(self.handle.get_or_init(|| {
            ResultCache::open(dir)
                .unwrap_or_else(|e| panic!("cannot open sweep cache at {}: {e}", dir.display()))
        }))
    }
}

impl Default for SweepEngine {
    fn default() -> Self {
        SweepEngine::from_env()
    }
}

/// Produces the [`RunRecord`] of one [`Job`] through the (optional) cache
/// — the **single** record-construction path shared by
/// [`SweepEngine::run_many`] and [`SweepEngine::run_subset`], so sharded
/// and monolithic runs cannot drift apart and break their bit-identity
/// guarantee.
///
/// One serialization per cell: its cache identity serves the lookup, the
/// miss's publish and the record's key. A hit's `wall_secs` covers the
/// identity and the lookup; a miss's covers [`Scenario::execute`].
///
/// [`Scenario::execute`]: crate::Scenario::execute
fn build_record(cache: Option<&ResultCache>, (grid_name, stats, cell): &Job<'_>) -> RunRecord {
    let started = Instant::now();
    let id = cell.scenario.cache_identity();
    let (results, wall_secs) = match cache.and_then(|c| c.try_hit(id, stats)) {
        Some(results) => (results, started.elapsed().as_secs_f64()),
        None => {
            let started = Instant::now();
            let results = cell.scenario.execute();
            let wall_secs = started.elapsed().as_secs_f64();
            match cache {
                Some(cache) => cache.publish_miss(id, &results, stats),
                None => stats.count_uncached_miss(),
            }
            (results, wall_secs)
        }
    };
    let perf = CellPerf::new(&results, wall_secs);
    RunRecord {
        cell: cell.index,
        grid: grid_name.to_string(),
        workload: cell.workload_label.clone(),
        labels: cell.labels.clone(),
        key: id.key_hex(),
        scenario: cell.scenario.clone(),
        results,
        perf,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Axis, WorkloadSpec};
    use dsmt_core::SimConfig;

    fn tiny_grid(name: &str) -> SweepGrid {
        SweepGrid::new(name, SimConfig::paper_multithreaded(1))
            .with_workload(WorkloadSpec::spec_mix(2_000))
            .with_axis(Axis::l2_latencies(&[1, 16, 64]))
            .with_axis(Axis::decoupled(&[true, false]))
            .with_budget(6_000)
    }

    #[test]
    fn identical_records_across_worker_counts() {
        let grid = tiny_grid("det");
        let reference = SweepEngine::new(1).without_cache().run(&grid);
        for workers in [2, 4, 8] {
            let got = SweepEngine::new(workers).without_cache().run(&grid);
            assert_eq!(got.records, reference.records, "workers={workers}");
        }
        assert_eq!(reference.len(), 6);
        assert_eq!(reference.cache_misses, 6);
    }

    #[test]
    fn identical_records_across_claim_sizes() {
        let grid = tiny_grid("det-batch");
        let reference = SweepEngine::new(1).without_cache().with_batch(1).run(&grid);
        for (workers, batch) in [(1, 3), (1, 8), (2, 2), (4, 3), (8, 8)] {
            let got = SweepEngine::new(workers)
                .without_cache()
                .with_batch(batch)
                .run(&grid);
            assert_eq!(
                got.records, reference.records,
                "workers={workers} batch={batch}"
            );
        }
    }

    #[test]
    fn subset_records_match_across_claim_sizes() {
        let grid = tiny_grid("det-batch-subset");
        let reference = SweepEngine::new(1)
            .without_cache()
            .with_batch(1)
            .run_subset(&grid, &[5, 0, 2, 4]);
        let got = SweepEngine::new(2)
            .without_cache()
            .with_batch(4)
            .run_subset(&grid, &[5, 0, 2, 4]);
        assert_eq!(got.records, reference.records);
        assert_eq!(got.cache_misses, 4);
    }

    #[test]
    fn run_many_splits_reports_per_grid() {
        let a = tiny_grid("many-a");
        let mut b = tiny_grid("many-b");
        b.axes.pop(); // 3 cells instead of 6
        let reports = SweepEngine::new(4)
            .without_cache()
            .run_many(&[a.clone(), b.clone()]);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].grid, "many-a");
        assert_eq!(reports[1].grid, "many-b");
        assert_eq!(reports[0].records.len(), 6);
        assert_eq!(reports[1].records.len(), 3);
        assert_eq!(reports[0].cache_misses, 6);
        assert_eq!(reports[1].cache_misses, 3);
        // Same results as running the grids separately.
        assert_eq!(
            reports[0].records,
            SweepEngine::new(1).without_cache().run(&a).records
        );
        assert_eq!(
            reports[1].records,
            SweepEngine::new(1).without_cache().run(&b).records
        );
    }

    #[test]
    fn engine_reports_grid_name_and_order() {
        let report = SweepEngine::new(3).without_cache().run(&tiny_grid("order"));
        assert_eq!(report.grid, "order");
        let cells: Vec<usize> = report.records.iter().map(|r| r.cell).collect();
        assert_eq!(cells, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn run_subset_matches_the_full_run_cell_for_cell() {
        let grid = tiny_grid("subset");
        let full = SweepEngine::new(2).without_cache().run(&grid);
        let subset = SweepEngine::new(2)
            .without_cache()
            .run_subset(&grid, &[4, 1, 3]);
        assert_eq!(subset.records.len(), 3);
        assert_eq!(subset.cache_misses, 3);
        for (record, &want) in subset.records.iter().zip(&[4usize, 1, 3]) {
            assert_eq!(record.cell, want);
            assert_eq!(record, &full.records[want]);
        }
        // The empty subset is a valid (empty) report.
        let empty = SweepEngine::new(2).without_cache().run_subset(&grid, &[]);
        assert!(empty.records.is_empty());
        assert_eq!(empty.grid, "subset");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn run_subset_rejects_out_of_range_indices() {
        let grid = tiny_grid("subset-oob");
        let _ = SweepEngine::new(1).without_cache().run_subset(&grid, &[6]);
    }

    #[test]
    fn run_subset_shares_the_cache_with_full_runs() {
        let dir =
            std::env::temp_dir().join(format!("dsmt-engine-subset-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let grid = tiny_grid("subset-cache");
        let engine = SweepEngine::new(2).with_cache_dir(&dir);
        let warm = engine.run_subset(&grid, &[0, 1, 2]);
        assert_eq!(warm.cache_misses, 3);
        // A full run replays those three cells from the cache.
        let full = engine.run(&grid);
        assert_eq!(full.cache_hits, 3);
        assert_eq!(full.cache_misses, 3);
        // And re-running the subset is a pure replay.
        let replay = engine.run_subset(&grid, &[2, 0]);
        assert_eq!((replay.cache_hits, replay.cache_misses), (2, 0));
        assert_eq!(replay.records[0], full.records[2]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_claim_mixing_hits_and_misses_builds_records_in_grid_order() {
        let dir =
            std::env::temp_dir().join(format!("dsmt-engine-mixed-claim-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let grid = tiny_grid("mixed-claim");
        let uncached = SweepEngine::new(1).without_cache().run(&grid);
        // A lone worker's first claim is half the grid, cells 0..3 (the
        // cap of 8 does not bind), and cells 0, 2 and 4 are already cached:
        // that claim holds a hit, a miss and a hit.
        let engine = SweepEngine::new(1).with_batch(8).with_cache_dir(&dir);
        let warm = engine.run_subset(&grid, &[0, 2, 4]);
        assert_eq!((warm.cache_hits, warm.cache_misses), (0, 3));
        let mixed = engine.run(&grid);
        assert_eq!((mixed.cache_hits, mixed.cache_misses), (3, 3));
        assert_eq!(mixed.records, uncached.records);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
