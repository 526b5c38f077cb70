//! # dsmt-asm
//!
//! An assembler front-end for the DSMT simulator (reproduction of *"The
//! Synergy of Multithreading and Access/Execute Decoupling"*, HPCA 1999).
//!
//! Every workload so far has been a synthetic statistical profile; this
//! crate turns checked-in `.s` programs into executable
//! [`dsmt_trace::Program`]s, which is what makes genuinely heterogeneous
//! multiprogrammed workloads — and therefore a meaningful I-COUNT vs
//! round-robin fetch-policy comparison — possible. It provides:
//!
//! * [`assemble`] — a two-pass assembler (labels, `.org`/`.word`
//!   directives, typed [`AsmError`]s with line/column spans); grammar in
//!   [`assemble`]'s module docs and `ARCHITECTURE.md`;
//! * [`corpus`] — the compiled-in `examples/asm` corpus (pointer chaser,
//!   FP kernel, branchy scanner).
//!
//! # Example
//!
//! ```
//! use dsmt_trace::TraceSource;
//!
//! let program = dsmt_asm::assemble(
//!     "demo",
//!     "start: li r1, 2\n       subi r1, r1, 1\n       bnz r1, start\n       halt",
//! )
//! .expect("assembles");
//! let mut trace = dsmt_trace::ProgramTrace::new(program, 42, 0);
//! let first = trace.next_instruction().expect("programs restart forever");
//! assert!(first.validate().is_ok());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod assemble;
pub mod corpus;
mod error;

pub use assemble::assemble;
pub use error::{AsmError, AsmErrorKind};
