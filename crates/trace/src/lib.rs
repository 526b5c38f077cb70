//! # dsmt-trace
//!
//! Workload traces for the DSMT simulator (reproduction of *"The Synergy of
//! Multithreading and Access/Execute Decoupling"*, HPCA 1999).
//!
//! The paper drives its simulator with traces of the SPEC FP95 benchmarks
//! obtained by instrumenting DEC Alpha binaries with ATOM. Neither the
//! binaries, the inputs, nor ATOM are available today, so this crate
//! provides the substitution documented in `DESIGN.md`:
//!
//! * [`BenchmarkProfile`] — a parameterised description of a benchmark's
//!   *observable* behaviour: instruction mix, array footprints and strides,
//!   floating-point dependence-chain shape, loss-of-decoupling events,
//!   integer-load scheduling distance and branch predictability;
//! * [`SyntheticTrace`] — a deterministic (seeded) generator that turns a
//!   profile into an infinite instruction stream with those properties;
//! * [`spec_fp95_profiles`] — ten profiles calibrated to the qualitative
//!   characteristics the paper reports for tomcatv, swim, su2cor, hydro2d,
//!   mgrid, applu, turb3d, apsi, fpppp and wave5;
//! * [`MultiProgramTrace`] / [`ThreadWorkload`] — the paper's multithreaded
//!   workload construction ("each thread consists of a sequence of traces
//!   from all SpecFP95 programs, in a different order for each thread");
//! * [`Program`] / [`ProgramTrace`] / [`ProgramWorkload`] — *assembled*
//!   workloads: static programs (built by hand or by the `dsmt-asm`
//!   assembler) interpreted into dynamic instruction streams, so threads
//!   can run genuinely heterogeneous code.
//!
//! Workloads are never stored: a scenario names a profile and a seed, or
//! carries assembly source, and the stream is rebuilt in process.
//!
//! # Example
//!
//! ```
//! use dsmt_trace::{spec_fp95_profiles, SyntheticTrace, TraceSource};
//!
//! let profiles = spec_fp95_profiles();
//! let mut trace = SyntheticTrace::new(&profiles[0], 42);
//! let inst = trace.next_instruction().expect("synthetic traces are infinite");
//! assert!(inst.validate().is_ok());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod addr;
mod profile;
mod program;
mod source;
mod synth;
mod workload;

pub use addr::{ArrayStream, ScalarRegion};
pub use profile::{spec_fp95_profile, spec_fp95_profiles, BenchmarkProfile};
pub use program::{
    AluOp, Cond, Operand, ProgInst, ProgOp, Program, ProgramTrace, ProgramWorkload, ACCESS_BYTES,
    INST_BYTES,
};
pub use source::{TraceSource, VecTrace};
pub use synth::SyntheticTrace;
pub use workload::{MultiProgramTrace, ThreadWorkload};

/// Address-space separation between hardware threads, in bytes: thread `t`
/// offsets every data address by `t * THREAD_ADDR_STRIDE`, in both
/// [`ThreadWorkload`] and [`ProgramWorkload`]. The stride is deliberately
/// *not* a multiple of typical L1 capacities, so each thread's hot (scalar)
/// region maps to different cache sets: threads then compete for capacity,
/// not for one pathological set.
pub const THREAD_ADDR_STRIDE: u64 = 0x4000_0000 + 0x1_a000;
