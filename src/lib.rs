//! # dsmt-repro
//!
//! Umbrella crate for the reproduction of *"The Synergy of Multithreading
//! and Access/Execute Decoupling"* (Parcerisa & González, HPCA 1999).
//!
//! It re-exports the workspace crates so that examples, integration tests
//! and downstream users can depend on a single crate:
//!
//! * [`isa`] — the Alpha-like instruction model;
//! * [`trace`] — synthetic SPEC FP95-like workloads and assembled
//!   programs, generated in process;
//! * [`mem`] — the L1/L2/bus memory hierarchy model;
//! * [`uarch`] — branch prediction, renaming, queues, functional units;
//! * [`core`] — the cycle-accurate multithreaded decoupled processor;
//! * [`store`] — the shared result-persistence layer (value codec,
//!   checksummed content-addressed segments, lockfile claims);
//! * [`sweep`] — the parallel scenario-sweep engine (grids, deterministic
//!   seeding, store-backed result caching, JSON/CSV export);
//! * [`shard`] — deterministic sweep sharding (manifests, `.dsr` files,
//!   lockfile-claimed recovery, bit-exact merge);
//! * [`experiments`] — the harness that regenerates every figure of the
//!   paper on top of the sweep engine.
//!
//! # Example
//!
//! ```
//! use dsmt_repro::core::{Processor, SimConfig};
//!
//! let mut cpu = Processor::with_spec_workload(SimConfig::paper_multithreaded(2), 1);
//! let results = cpu.run(20_000);
//! assert!(results.ipc() > 0.5);
//! ```

#![warn(missing_docs)]

pub use dsmt_core as core;
pub use dsmt_experiments as experiments;
pub use dsmt_isa as isa;
pub use dsmt_mem as mem;
pub use dsmt_shard as shard;
pub use dsmt_store as store;
pub use dsmt_sweep as sweep;
pub use dsmt_trace as trace;
pub use dsmt_uarch as uarch;
