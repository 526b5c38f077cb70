//! Shared experiment infrastructure: parameters and single runs.
//!
//! All sweep mechanics (parallel scheduling, caching, export) live in
//! [`dsmt_sweep`]; this module only holds the experiment-wide parameters and
//! thin wrappers that express single runs as [`Scenario`]s so every
//! simulation — swept or not — goes down one code path.

use dsmt_core::{SimConfig, SimResults};
use dsmt_shard::{plan, run_shard, ShardManifest, ShardRun, ShardStrategy, Transport};
use dsmt_sweep::{CacheMode, Scenario, SweepEngine, SweepGrid, WorkloadSpec};

/// Knobs shared by every experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentParams {
    /// Instructions simulated per data point.
    pub instructions_per_point: u64,
    /// Instructions per benchmark segment in multithreaded workloads.
    pub insts_per_program: u64,
    /// Workload / generator seed.
    pub seed: u64,
    /// Maximum worker threads for the parameter sweep.
    pub workers: usize,
}

impl ExperimentParams {
    /// Sensible defaults for regenerating the figures on a laptop:
    /// 400k instructions per point, 40k-instruction program segments.
    #[must_use]
    pub fn standard() -> Self {
        ExperimentParams {
            instructions_per_point: 400_000,
            insts_per_program: 40_000,
            seed: 42,
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4),
        }
    }

    /// A reduced configuration for quick smoke tests and benchmarks.
    #[must_use]
    pub fn quick() -> Self {
        ExperimentParams {
            instructions_per_point: 60_000,
            insts_per_program: 15_000,
            seed: 42,
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4),
        }
    }

    /// Reads the scale from the `DSMT_INSTS` environment variable
    /// (instructions per point), falling back to [`ExperimentParams::standard`].
    #[must_use]
    pub fn from_env() -> Self {
        let mut p = ExperimentParams::standard();
        if let Ok(v) = std::env::var("DSMT_INSTS") {
            if let Ok(n) = v.trim().parse::<u64>() {
                p.instructions_per_point = n.max(1_000);
            }
        }
        p
    }

    /// The multithreaded SPEC FP95 workload used by the Section 3
    /// experiments, as a sweep [`WorkloadSpec`].
    #[must_use]
    pub fn spec_mix(&self) -> WorkloadSpec {
        WorkloadSpec::spec_mix(self.insts_per_program)
    }

    /// A sweep engine sized by these parameters (cache policy comes from
    /// `DSMT_SWEEP_CACHE`, see [`dsmt_sweep::CacheMode::from_env`]; this
    /// crate's unit tests always run uncached, so they share no on-disk
    /// state).
    #[must_use]
    pub fn engine(&self) -> SweepEngine {
        let engine = SweepEngine::new(self.workers);
        if cfg!(test) {
            engine.without_cache()
        } else {
            engine
        }
    }
}

impl Default for ExperimentParams {
    fn default() -> Self {
        ExperimentParams::standard()
    }
}

/// Parses a `--shard i/n` (or `--shard=i/n`) selector from explicit
/// argument strings. Returns `None` when the flag is absent.
///
/// # Errors
///
/// A human-readable message when the flag is present but malformed
/// (`i >= n`, zero shards, not two integers).
pub fn parse_shard_selector(args: &[String]) -> Result<Option<(usize, usize)>, String> {
    let mut spec: Option<&str> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--shard" {
            spec = Some(
                it.next()
                    .ok_or("--shard expects a value like `0/4`")?
                    .as_str(),
            );
        } else if let Some(v) = arg.strip_prefix("--shard=") {
            spec = Some(v);
        }
    }
    let Some(spec) = spec else { return Ok(None) };
    let (index, count) = spec
        .split_once('/')
        .ok_or_else(|| format!("--shard expects `i/n`, got `{spec}`"))?;
    let index: usize = index
        .trim()
        .parse()
        .map_err(|_| format!("--shard index `{index}` is not a number"))?;
    let count: usize = count
        .trim()
        .parse()
        .map_err(|_| format!("--shard count `{count}` is not a number"))?;
    if count == 0 {
        return Err("--shard count must be at least 1".to_string());
    }
    if index >= count {
        return Err(format!("--shard index {index} out of range (0..{count})"));
    }
    Ok(Some((index, count)))
}

/// One grid's shard executed by [`run_shard_grids`]: the strided plan it
/// belongs to, the executed run, and whether its shard-output record made
/// it into the engine's cache store.
#[derive(Debug)]
pub struct ShardedGridRun {
    /// The strided plan the shard was cut from.
    pub manifest: ShardManifest,
    /// The executed shard (partial report plus packaged `.dsr`).
    pub run: ShardRun,
    /// `Some(Ok(()))` when the output record (and the grid's `plan.json`)
    /// was published to the engine's cache directory, `Some(Err(..))` when
    /// publishing was attempted but failed, `None` when the engine has no
    /// cache directory to publish into.
    pub published: Option<Result<(), String>>,
}

/// The conventional name of a figure grid's shard plan inside a store
/// directory: `<grid>.plan.json`. Every shard of the same fleet writes the
/// identical (deterministic) manifest, so the write is idempotent.
#[must_use]
pub fn plan_file_name(grid: &SweepGrid) -> String {
    format!("{}.plan.json", grid.name)
}

/// Runs shard `index` of `count` for every grid, and — when the engine
/// caches to a directory — publishes each shard's output record into that
/// store, next to the scenario cache ("one store directory"), along with
/// the grid's manifest as [`plan_file_name`]. That is what lets
/// `dsmt shard status <store>/<grid>.plan.json --store <store>` watch a
/// full-figure fleet live; before, the figure binaries' shards shared only
/// the scenario cache, so fleet progress was invisible until the final
/// replay run.
///
/// Publishing is best-effort: the cells are already safe in the scenario
/// cache, so a failure (e.g. a directory whose store schema differs)
/// is reported in [`ShardedGridRun::published`] rather than aborting the
/// run.
///
/// # Panics
///
/// Panics on an unplannable grid or an out-of-range shard index — argument
/// and grid construction errors, not runtime conditions.
#[must_use]
pub fn run_shard_grids(
    grids: &[SweepGrid],
    index: usize,
    count: usize,
    engine: &SweepEngine,
) -> Vec<ShardedGridRun> {
    grids
        .iter()
        .map(|grid| {
            let manifest = plan(grid, count, ShardStrategy::Strided)
                .unwrap_or_else(|e| panic!("cannot shard `{}`: {e}", grid.name));
            let run = run_shard(&manifest, index, engine)
                .unwrap_or_else(|e| panic!("cannot run shard {index} of `{}`: {e}", grid.name));
            let published = match &engine.cache {
                CacheMode::Dir(dir) => Some(publish_to_store(dir, grid, &manifest, &run)),
                CacheMode::Disabled => None,
            };
            ShardedGridRun {
                manifest,
                run,
                published,
            }
        })
        .collect()
}

/// Publishes one grid-shard's plan and output record into the store at
/// `dir` (the engine's cache directory).
fn publish_to_store(
    dir: &std::path::Path,
    grid: &SweepGrid,
    manifest: &ShardManifest,
    run: &ShardRun,
) -> Result<(), String> {
    manifest
        .save(dir.join(plan_file_name(grid)))
        .map_err(|e| format!("cannot save plan for `{}`: {e}", grid.name))?;
    Transport::store(dir)?.publish(manifest, &run.dsr)
}

/// The figure binaries' `--shard i/n` path: if the process arguments carry
/// a shard selector, runs only that shard of each grid (strided plan, so
/// every shard sees a slice of every cost regime) and returns `true` — the
/// caller then skips rendering. Cells land in the shared result cache and
/// each grid's shard-output record is published to the same store (see
/// [`run_shard_grids`]), so `dsmt shard status` can watch the fleet and,
/// once all `n` shards have run (on any mix of hosts pointing
/// `DSMT_SWEEP_CACHE` at a shared directory), a plain figure run replays
/// everything from cache and renders the tables.
///
/// # Panics
///
/// Panics on a malformed selector or an unplannable grid — argument and
/// grid construction errors, not runtime conditions.
#[must_use]
pub fn maybe_run_shard(grids: &[SweepGrid], params: &ExperimentParams) -> bool {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selector = parse_shard_selector(&args).unwrap_or_else(|e| panic!("{e}"));
    let Some((index, count)) = selector else {
        return false;
    };
    let engine = params.engine();
    for sharded in run_shard_grids(grids, index, count, &engine) {
        let grid = &sharded.manifest.grid;
        eprintln!(
            "shard {index}/{count} of `{}`: {} cells ({} cached, {} simulated) in {:.2}s",
            grid.name,
            sharded.run.report.records.len(),
            sharded.run.report.cache_hits,
            sharded.run.report.cache_misses,
            sharded.run.report.wall_secs,
        );
        match &sharded.published {
            Some(Ok(())) => eprintln!(
                "  published shard output; watch with: dsmt shard status \
                 <cache>/{} --store <cache> (same DSMT_INSTS)",
                plan_file_name(grid),
            ),
            Some(Err(e)) => eprintln!("  warn: shard output not published: {e}"),
            None => {}
        }
    }
    eprintln!(
        "shard {index}/{count} done; run without --shard once all shards finished \
         (shared DSMT_SWEEP_CACHE) to render the figures from cache"
    );
    true
}

/// Runs one simulation of the multithreaded SPEC FP95 workload under
/// `config`.
#[must_use]
pub fn run_spec(config: SimConfig, params: &ExperimentParams) -> SimResults {
    Scenario {
        config,
        workload: params.spec_mix(),
        seed: params.seed,
        budget: params.instructions_per_point,
    }
    .execute()
}

/// Runs one single-benchmark simulation (Section 2 style).
#[must_use]
pub fn run_single_benchmark(
    config: SimConfig,
    profile: &dsmt_trace::BenchmarkProfile,
    params: &ExperimentParams,
) -> SimResults {
    Scenario {
        config,
        workload: WorkloadSpec::Profile {
            profile: profile.clone(),
        },
        seed: params.seed,
        budget: params.instructions_per_point,
    }
    .execute()
}

/// Applies `f` to every item of `inputs`, running up to `workers` items
/// concurrently on the sweep crate's work-stealing pool, and returns the
/// outputs in input order.
pub fn parallel_map<I, O, F>(inputs: Vec<I>, workers: usize, f: F) -> Vec<O>
where
    I: Send + Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    dsmt_sweep::pool::parallel_map(inputs, workers, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let inputs: Vec<u64> = (0..37).collect();
        let out = parallel_map(inputs.clone(), 8, |x| x * 2);
        assert_eq!(out, inputs.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_empty_and_single_worker() {
        let empty: Vec<u64> = Vec::new();
        assert!(parallel_map(empty, 4, |x: &u64| *x).is_empty());
        let out = parallel_map(vec![1u64, 2, 3], 1, |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn shard_selector_parsing() {
        let args = |s: &[&str]| -> Vec<String> { s.iter().map(ToString::to_string).collect() };
        assert_eq!(parse_shard_selector(&args(&[])), Ok(None));
        assert_eq!(parse_shard_selector(&args(&["--other", "1"])), Ok(None));
        assert_eq!(
            parse_shard_selector(&args(&["--shard", "0/4"])),
            Ok(Some((0, 4)))
        );
        assert_eq!(
            parse_shard_selector(&args(&["--shard=3/4"])),
            Ok(Some((3, 4)))
        );
        // Last occurrence wins, like most CLI flag conventions.
        assert_eq!(
            parse_shard_selector(&args(&["--shard", "0/4", "--shard", "1/2"])),
            Ok(Some((1, 2)))
        );
        assert!(parse_shard_selector(&args(&["--shard"])).is_err());
        assert!(parse_shard_selector(&args(&["--shard", "4"])).is_err());
        assert!(parse_shard_selector(&args(&["--shard", "4/4"])).is_err());
        assert!(parse_shard_selector(&args(&["--shard", "0/0"])).is_err());
        assert!(parse_shard_selector(&args(&["--shard", "x/2"])).is_err());
    }

    #[test]
    fn params_constructors() {
        let std = ExperimentParams::standard();
        assert!(std.instructions_per_point >= 100_000);
        let quick = ExperimentParams::quick();
        assert!(quick.instructions_per_point < std.instructions_per_point);
        assert!(std.workers >= 1);
        assert_eq!(ExperimentParams::default(), std);
    }

    #[test]
    fn quick_spec_run_produces_sane_results() {
        let params = ExperimentParams {
            instructions_per_point: 20_000,
            insts_per_program: 5_000,
            seed: 1,
            workers: 2,
        };
        let r = run_spec(dsmt_core::SimConfig::paper_multithreaded(2), &params);
        assert!(r.instructions >= 20_000);
        assert!(r.ipc() > 0.3 && r.ipc() < 8.0);
    }

    #[test]
    fn quick_single_benchmark_run() {
        let params = ExperimentParams {
            instructions_per_point: 15_000,
            insts_per_program: 5_000,
            seed: 1,
            workers: 1,
        };
        let profile = dsmt_trace::spec_fp95_profile("mgrid").unwrap();
        let cfg = dsmt_core::SimConfig::paper_single_thread_4wide();
        let r = run_single_benchmark(cfg, &profile, &params);
        assert!(r.instructions >= 15_000);
        assert!(r.ipc() > 0.2 && r.ipc() < 4.0);
    }

    #[test]
    fn sharded_grids_publish_status_records_to_the_cache_store() {
        let dir =
            std::env::temp_dir().join(format!("dsmt-exp-shard-publish-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let grids = vec![
            SweepGrid::new("exp-shard-a", SimConfig::paper_multithreaded(1))
                .with_workload(WorkloadSpec::spec_mix(1_500))
                .with_axis(dsmt_sweep::Axis::l2_latencies(&[1, 16, 64]))
                .with_budget(4_000),
            SweepGrid::new("exp-shard-b", SimConfig::paper_single_thread_4wide())
                .with_workload(WorkloadSpec::spec_mix(1_500))
                .with_axis(dsmt_sweep::Axis::l2_latencies(&[16, 256]))
                .with_budget(4_000),
        ];
        let engine = SweepEngine::new(2).with_cache_dir(&dir);
        let count = 2;
        for index in 0..count {
            for sharded in run_shard_grids(&grids, index, count, &engine) {
                assert_eq!(sharded.run.shard_index, index);
                assert_eq!(sharded.published, Some(Ok(())), "publish failed");
            }
        }
        // Every grid's fleet is now watchable from the one store directory:
        // the plan is on disk and `status` over the store sees every shard.
        for grid in &grids {
            let manifest = ShardManifest::load(dir.join(plan_file_name(grid))).expect("plan saved");
            assert_eq!(&manifest.grid, grid);
            let mut transport = Transport::store(&dir).expect("store transport");
            let status = transport.status(&manifest);
            assert_eq!(status.done(), count);
            assert!(status.complete());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_grids_without_cache_skip_publishing() {
        let grids = vec![
            SweepGrid::new("exp-shard-nocache", SimConfig::paper_multithreaded(1))
                .with_workload(WorkloadSpec::spec_mix(1_500))
                .with_axis(dsmt_sweep::Axis::l2_latencies(&[16]))
                .with_budget(3_000),
        ];
        let engine = SweepEngine::new(1).without_cache();
        let runs = run_shard_grids(&grids, 0, 1, &engine);
        assert_eq!(runs.len(), 1);
        assert!(runs[0].published.is_none());
        assert_eq!(runs[0].run.report.records.len(), 1);
    }

    #[test]
    fn spec_mix_and_engine_reflect_params() {
        let params = ExperimentParams {
            instructions_per_point: 1_000,
            insts_per_program: 123,
            seed: 5,
            workers: 3,
        };
        assert_eq!(params.spec_mix(), WorkloadSpec::spec_mix(123));
        assert_eq!(params.engine().workers, 3);
    }
}
