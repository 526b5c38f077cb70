//! Shared experiment infrastructure: parameters and single runs.
//!
//! All sweep mechanics (parallel scheduling, caching, export) live in
//! [`dsmt_sweep`]; this module only holds the experiment-wide parameters and
//! thin wrappers that express single runs as [`Scenario`]s so every
//! simulation — swept or not — goes down one code path.

use dsmt_core::{SimConfig, SimResults};
use dsmt_sweep::{Scenario, SweepEngine, WorkloadSpec};

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
    /// A value that is not a plain integer warns (on stderr) and keeps the
    /// default: a typo such as `50k` must not pass for the 400k budget.
    #[must_use]
    pub fn from_env() -> Self {
        let mut p = ExperimentParams::standard();
        if let Ok(v) = std::env::var("DSMT_INSTS") {
            match parse_insts(&v) {
                Some(n) => p.instructions_per_point = n,
                None => dsmt_obs::warn!(
                    "experiments.bad_insts_env",
                    value = v.as_str(),
                    default = p.instructions_per_point,
                    hint = "expected a plain instruction count, e.g. 50000"
                ),
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

/// Parses a `DSMT_INSTS` value: a plain integer, clamped to at least
/// 1000 instructions. `None` when it is not one.
fn parse_insts(value: &str) -> Option<u64> {
    value.trim().parse::<u64>().ok().map(|n| n.max(1_000))
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insts_values_parse_as_plain_integers_or_not_at_all() {
        assert_eq!(parse_insts("50000"), Some(50_000));
        assert_eq!(parse_insts(" 20000\n"), Some(20_000));
        assert_eq!(parse_insts("10"), Some(1_000));
        for typo in ["50k", "50_000", "5e4", "-1", ""] {
            assert_eq!(parse_insts(typo), None, "`{typo}` must not parse");
        }
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
