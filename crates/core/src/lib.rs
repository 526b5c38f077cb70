//! # dsmt-core
//!
//! A cycle-accurate simulator of a **multithreaded access/execute-decoupled
//! processor**, reproducing the architecture evaluated in
//! *"The Synergy of Multithreading and Access/Execute Decoupling"*
//! (Parcerisa & González, HPCA 1999).
//!
//! ## The architecture in one paragraph
//!
//! Every hardware context executes in decoupled mode: its instruction
//! stream is split at dispatch into an **Address Processor** (integer
//! computation, all memory operations, branches; 1-cycle functional units)
//! and an **Execute Processor** (floating-point computation; 4-cycle
//! functional units). Both issue *in order*, per thread, per unit. A
//! per-thread **Instruction Queue** in front of the EP lets the AP slip
//! ahead, so load data usually arrives long before the EP reaches the
//! consumer — that is how decoupling hides memory latency without
//! out-of-order issue. Simultaneous multithreading shares the 8 issue slots,
//! the functional units and the caches among contexts (round-robin priority,
//! 2-thread/8-wide I-COUNT fetch), supplying the parallelism that a single
//! in-order thread lacks to cover functional-unit latency.
//!
//! ## Quick start
//!
//! ```
//! use dsmt_core::{Processor, SimConfig};
//!
//! // The paper's Figure-2 machine with 3 hardware threads and a 16-cycle L2.
//! let config = SimConfig::paper_multithreaded(3);
//! let mut cpu = Processor::with_spec_workload(config, 42);
//! let results = cpu.run(50_000);
//! println!("IPC = {:.2}", results.ipc());
//! assert!(results.ipc() > 1.0);
//! ```
//!
//! The crate exposes everything the paper's figures need:
//! [`SimResults::ipc`], the per-unit issue-slot breakdown
//! ([`SimResults::ap_slots`] / [`SimResults::ep_slots`], Figure 3), the
//! perceived load-miss latency ([`SimResults::perceived`], Figures 1 and 4),
//! cache miss ratios and external-bus utilisation (Figures 1-c and 5).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod processor;
mod stats;
mod thread;

pub use config::{FetchPolicy, SimConfig};
pub use processor::{fold_commit, CorePerf, Processor, COMMIT_DIGEST_BASIS};
pub use stats::{PerceivedLatency, SimResults, SlotUse, UnitSlots};
