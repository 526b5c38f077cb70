//! # dsmt-shard
//!
//! Turns `dsmt-sweep` into a **distributable system**: a sweep grid is split
//! into deterministic shards that any number of hosts can execute
//! independently — sharing nothing but a filesystem — and the shard outputs
//! reassemble into a report that is bit-identical to a monolithic run.
//!
//! The subsystem has five layers (the `dsmt` CLI at the workspace root
//! drives all of them):
//!
//! * [`partition`] — a deterministic partitioner. [`plan`] splits any
//!   [`SweepGrid`](dsmt_sweep::SweepGrid) into `N` strided shards (cell
//!   `c` goes to shard `c % N`, [`ShardStrategy::Strided`]) and emits a JSON
//!   [`ShardManifest`] carrying the grid *and* its content hash, so a
//!   manifest that no longer matches its grid is rejected instead of
//!   silently mis-partitioning (deterministic work distribution in the
//!   spirit of the Bobpp framework, arXiv:1406.2844).
//! * [`dsr`] — a compact binary record format. A [`DsrFile`] stores the
//!   grid once (its canonical JSON, hash-checked) and then one
//!   varint-packed record per cell — provenance is *derived*, not
//!   duplicated, so `.dsr` files are typically an order of magnitude
//!   smaller than the JSON export. A trailing FNV-1a checksum plus the
//!   canonical-varint rule make corruption and truncation detectable.
//! * [`executor`] — [`run_shard`] executes one manifest shard against the
//!   shared content-addressed result cache and packages the outcome as a
//!   `.dsr` file; [`recover`] heals a fleet by claiming and re-running
//!   every shard without a verified output, stealing claims whose holder
//!   died ([`RecoverOptions::steal_after`]).
//! * [`transport`] — where shard outputs travel: published **into the
//!   result store** keyed by `(grid content hash, shard index)` — one
//!   shared directory carrying scenario cache and shard outputs alike,
//!   with checksums and atomic publishes for free. [`Transport`]
//!   wraps the store; `dsmt shard status` reports done/claimed/missing
//!   per shard.
//! * [`merge`] — [`merge_shards`] (and the transport-aware
//!   [`merge_from`]) reassembles shard outputs into a full
//!   [`SweepReport`](dsmt_sweep::SweepReport), detecting missing,
//!   duplicate, foreign and incomplete shards. Merged records are in grid
//!   order, so the merged `.dsr` is byte-identical to one produced by a
//!   monolithic run.
//!
//! ## The multi-host workflow
//!
//! ```text
//! host 0:  dsmt shard plan demo --shards 4 --out plan.json
//! host i:  dsmt shard run plan.json --index i --store /mnt/fleet/store
//! any:     dsmt shard status plan.json --store /mnt/fleet/store
//! any:     dsmt shard run plan.json --missing --steal-after 600 --store /mnt/fleet/store
//! host 0:  dsmt shard merge plan.json --store /mnt/fleet/store --out report.json
//! ```
//!
//! ## Example (in-process)
//!
//! ```
//! use dsmt_core::SimConfig;
//! use dsmt_shard::{merge_shards, plan, run_shard, ShardStrategy};
//! use dsmt_sweep::{Axis, SweepEngine, SweepGrid, WorkloadSpec};
//!
//! let grid = SweepGrid::new("demo", SimConfig::paper_multithreaded(1))
//!     .with_workload(WorkloadSpec::spec_mix(2_000))
//!     .with_axis(Axis::l2_latencies(&[1, 16]))
//!     .with_budget(5_000);
//! let manifest = plan(&grid, 2, ShardStrategy::Strided).unwrap();
//!
//! let engine = SweepEngine::new(1).without_cache();
//! let shard0 = run_shard(&manifest, 0, &engine).unwrap();
//! let shard1 = run_shard(&manifest, 1, &engine).unwrap();
//!
//! let merged = merge_shards(&manifest, &[shard1.dsr, shard0.dsr]).unwrap();
//! assert_eq!(merged.records, engine.run(&grid).records);
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dsr;
pub mod executor;
pub mod merge;
pub mod partition;
pub mod transport;

pub use dsr::{DsrError, DsrFile, DsrRecord, DSR_FORMAT_VERSION};
pub use executor::{
    recover, run_shard, MissingRun, RecoverOptions, ShardDisposition, ShardRun, StealRecord,
    DEFAULT_HEARTBEAT,
};
pub use merge::{merge_from, merge_shards, MergeError};
pub use partition::{
    grid_content_hash, plan, ShardManifest, ShardPlanError, ShardStrategy, MANIFEST_SCHEMA_VERSION,
};
pub use transport::{ShardState, ShardStatus, StatusReport, Transport, SHARD_VALUE_SCHEMA};
