//! # dsmt-uarch
//!
//! Reusable micro-architecture building blocks for the DSMT simulator
//! (reproduction of *"The Synergy of Multithreading and Access/Execute
//! Decoupling"*, HPCA 1999):
//!
//! * [`BranchPredictor`] — the paper's 2K-entry, 2-bit branch history table;
//! * [`RegisterFile`] — register rename map, free list and physical
//!   register ready times (one instance per thread per unit);
//! * [`BoundedQueue`] — the per-thread Instruction Queue and Store Address
//!   Queue;
//! * [`FuPool`] — a pool of pipelined functional units;
//! * [`RoundRobin`] — the rotating thread priority used by the shared issue
//!   stage;
//! * [`icount_pick_into`] — the RR-2.8 / I-COUNT fetch thread selection
//!   policy.
//!
//! These pieces are deliberately independent of the simulator's main loop so
//! that they can be unit-tested (and reused in ablation studies) in
//! isolation.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arbiter;
mod fetch_policy;
mod fu;
mod predictor;
mod queue;
mod regfile;

pub use arbiter::RoundRobin;
pub use fetch_policy::{icount_pick_into, round_robin_pick_into};
pub use fu::FuPool;
pub use predictor::{BranchPredictor, PredictorStats};
pub use queue::BoundedQueue;
pub use regfile::{PhysReg, RegisterFile, RenameOutcome};
