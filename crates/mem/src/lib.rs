//! # dsmt-mem
//!
//! The memory hierarchy model for the DSMT simulator (reproduction of
//! *"The Synergy of Multithreading and Access/Execute Decoupling"*,
//! HPCA 1999).
//!
//! The paper's memory system is:
//!
//! * an on-chip L1 data cache: 64 KB, direct mapped, 32-byte lines,
//!   write back, 4 ports, lockup-free with 16 MSHRs, 1-cycle hits;
//! * an on-chip L1 instruction cache: infinite, 2 ports (modelled by the
//!   fetch stage, not here);
//! * an off-chip L2 cache: infinite, multibanked, with a configurable hit
//!   latency (the paper sweeps 1–256 cycles);
//! * a 128-bit L1–L2 bus transferring 16 bytes/cycle, whose contention and
//!   utilisation matter when many threads miss concurrently (Figure 5).
//!
//! [`MemorySystem`] is the facade the processor core uses: it arbitrates
//! D-cache ports, performs the tag lookup, allocates/merges MSHRs, schedules
//! the L2 access and the bus transfer, and accumulates the statistics
//! (miss ratios, bus utilisation) that the paper's figures report.
//!
//! # Example
//!
//! ```
//! use dsmt_mem::{MemConfig, MemorySystem, AccessKind, AccessResponse};
//!
//! let mut mem = MemorySystem::new(MemConfig::paper_default());
//! mem.begin_cycle(0);
//! match mem.try_access(0, 0x1000, AccessKind::Load) {
//!     AccessResponse::Done { hit, ready_cycle } => {
//!         assert!(!hit);                       // cold miss
//!         assert!(ready_cycle > 16);           // paid the L2 latency + bus
//!     }
//!     other => panic!("unexpected {other:?}"),
//! }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bus;
mod cache;
mod config;
mod mshr;
mod stats;
mod system;

pub use bus::Bus;
pub use cache::{Cache, CacheAccess, CacheStats};
pub use config::{CacheConfig, MemConfig};
pub use mshr::MshrFile;
pub use stats::MemStats;
pub use system::{AccessKind, AccessResponse, MemorySystem};
