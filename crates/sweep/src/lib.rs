//! # dsmt-sweep
//!
//! A parallel **scenario-sweep engine** for the DSMT simulator. Every figure
//! of Parcerisa & González (HPCA 1999) is a parameter sweep — L2 latencies,
//! thread counts, instruction-queue depths, decoupling on/off — and this
//! crate is the one place that knows how to run such sweeps well:
//!
//! * **Declarative grids** — [`SweepGrid`] describes a cartesian space of
//!   [`Setting`] axes over [`SimConfig`](dsmt_core::SimConfig) knobs crossed
//!   with [`WorkloadSpec`] workloads (the ten SPEC FP95 profiles,
//!   multiprogram mixes, custom profiles).
//! * **Deterministic parallelism** — a worker pool over `std::thread`
//!   executes cells concurrently, claiming them from one shared cursor;
//!   each cell runs alone through [`Scenario::execute`]. Each cell's seed
//!   is a pure function of the grid seed (and, in per-cell mode, the cell
//!   index), so the resulting [`RunRecord`]s are bit-identical at any
//!   worker count.
//! * **Result caching** — an on-disk cache keyed by a hash of
//!   (config, workload, seed, instruction budget) lets a re-run of
//!   `all_experiments` simulate only changed cells. See [`cache`].
//! * **Structured export** — [`SweepReport`] serializes to JSON and CSV for
//!   downstream tooling; `dsmt-experiments` renders the same records as
//!   tables.
//!
//! ## Quick start
//!
//! ```
//! use dsmt_core::SimConfig;
//! use dsmt_sweep::{Axis, SweepEngine, SweepGrid, WorkloadSpec};
//!
//! let grid = SweepGrid::new("demo", SimConfig::paper_multithreaded(1))
//!     .with_workload(WorkloadSpec::spec_mix(4_000))
//!     .with_axis(Axis::l2_latencies(&[1, 16]))
//!     .with_axis(Axis::threads(&[1, 2]))
//!     .with_seed(42)
//!     .with_budget(10_000);
//! assert_eq!(grid.len(), 4);
//!
//! let report = SweepEngine::new(2).without_cache().run(&grid);
//! assert_eq!(report.records.len(), 4);
//! assert!(report.records.iter().all(|r| r.results.ipc() > 0.0));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod cache;
pub mod engine;
pub mod export;
pub mod grid;
pub mod pool;
pub mod record;
pub mod scenario;
pub mod telemetry;

pub use cache::{CacheMode, CacheStats, ResultCache};
pub use engine::SweepEngine;
pub use grid::{Axis, Cell, SeedMode, Setting, SweepGrid};
pub use record::{CellPerf, RunRecord, SweepReport};
pub use scenario::{AsmSource, CacheIdentity, Scenario, WorkloadSpec};
pub use telemetry::ProgressLine;

// The persistence layer's hash, re-exported so sweep consumers need not
// depend on `dsmt-store` directly.
pub use dsmt_store::fnv1a64;

/// Bumped whenever the cache key derivation or the serialized record layout
/// changes; stale entries then miss instead of deserializing garbage.
/// Version 2: `SimConfig` gained the `fetch_policy` knob.
/// Version 3: entries moved from per-scenario JSON files into the
/// `dsmt-store` segment layout (see [`cache`]).
pub const CACHE_SCHEMA_VERSION: u32 = 3;

/// SplitMix64 step, used to derive per-cell seeds from a grid seed.
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_spreads_nearby_seeds() {
        assert_ne!(splitmix64(1), splitmix64(2));
        assert_ne!(splitmix64(0), 0);
    }
}
