//! The experiment-wide parameters.
//!
//! All sweep mechanics (parallel scheduling, caching, export) live in
//! [`dsmt_sweep`]; a single run is a [`dsmt_sweep::Scenario`] built from
//! these parameters, so every simulation — swept or not — goes down one
//! code path.

use dsmt_sweep::{SweepEngine, WorkloadSpec};

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
        assert!(std.workers >= 1);
        assert_eq!(ExperimentParams::default(), std);
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
