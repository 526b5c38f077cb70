//! # dsmt-isa
//!
//! An Alpha-like RISC instruction model used by the DSMT (Decoupled
//! Simultaneous MultiThreading) simulator, a reproduction of
//! *"The Synergy of Multithreading and Access/Execute Decoupling"*
//! (Parcerisa & González, HPCA 1999).
//!
//! The paper's simulator is trace driven: it never interprets real opcode
//! encodings, it only needs to know, for every dynamic instruction,
//!
//! * its **operation class** (integer ALU, FP add/mul/div, load, store,
//!   branch, ...) — see [`OpClass`],
//! * its **architectural register** operands — see [`ArchReg`],
//! * the **effective address** of memory operations — see [`MemRef`],
//! * the **outcome** of branches — see [`BranchInfo`].
//!
//! [`Instruction`] bundles those together, and [`steer`] implements the
//! paper's dispatch steering rule (integer/memory/control instructions go to
//! the Address Processor, floating-point computation goes to the Execute
//! Processor).
//!
//! # Example
//!
//! ```
//! use dsmt_isa::{ArchReg, Instruction, OpClass, Unit, steer};
//!
//! // An FP load: executed by the AP (it is a memory instruction) but its
//! // destination lives in the EP register file.
//! let ld = Instruction::new(0x1000, OpClass::LoadFp)
//!     .with_dest(ArchReg::fp(2))
//!     .with_src1(ArchReg::int(4))
//!     .with_mem(0x8000_0000, 8);
//! assert_eq!(steer(ld.op), Unit::Ap);
//! assert!(ld.op.is_load());
//! assert!(ld.validate().is_ok());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod hash;
mod inst;
mod op;
mod reg;
mod steer;
pub mod text;
pub mod varint;

pub use error::InstructionError;
pub use hash::fnv1a64;
pub use inst::{BranchInfo, Instruction, MemRef};
pub use op::OpClass;
pub use reg::{ArchReg, RegClass, NUM_FP_REGS, NUM_INT_REGS};
pub use steer::{steer, Unit};
pub use varint::{get_ivarint, get_uvarint, put_ivarint, put_uvarint, VarintError};
