//! Dynamic operation classes.
//!
//! Trace-driven simulation does not need full opcode semantics, only the
//! classification that determines steering (AP vs EP), functional-unit
//! latency and memory behaviour.

use std::fmt;

use serde::{Deserialize, Serialize};

/// The class of a dynamic instruction.
///
/// The classes mirror the distinctions the HPCA'99 paper needs:
/// integer vs floating-point computation (steering and functional-unit
/// latency), loads vs stores (cache behaviour, store-address-queue
/// occupancy), and control transfers (branch prediction, control
/// speculation limits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum OpClass {
    /// Integer ALU operation (add, logical, shift, compare). Executes on the AP.
    IntAlu,
    /// Integer multiply. Executes on the AP.
    IntMul,
    /// Floating-point add/subtract/compare. Executes on the EP.
    FpAdd,
    /// Floating-point multiply. Executes on the EP.
    FpMul,
    /// Floating-point divide / square root. Executes on the EP.
    FpDiv,
    /// Integer load (destination in the integer/AP register file).
    LoadInt,
    /// Floating-point load (destination in the FP/EP register file).
    LoadFp,
    /// Integer store.
    StoreInt,
    /// Floating-point store.
    StoreFp,
    /// Conditional branch.
    CondBranch,
    /// Unconditional direct branch.
    UncondBranch,
    /// Indirect jump (jsr/ret style).
    Jump,
    /// No-operation (still consumes fetch/dispatch bandwidth).
    Nop,
}

impl OpClass {
    /// All operation classes, in a fixed order (useful for building
    /// per-class statistics tables).
    pub const ALL: [OpClass; 13] = [
        OpClass::IntAlu,
        OpClass::IntMul,
        OpClass::FpAdd,
        OpClass::FpMul,
        OpClass::FpDiv,
        OpClass::LoadInt,
        OpClass::LoadFp,
        OpClass::StoreInt,
        OpClass::StoreFp,
        OpClass::CondBranch,
        OpClass::UncondBranch,
        OpClass::Jump,
        OpClass::Nop,
    ];

    /// Whether the instruction reads memory.
    #[must_use]
    pub fn is_load(&self) -> bool {
        matches!(self, OpClass::LoadInt | OpClass::LoadFp)
    }

    /// Whether the instruction writes memory.
    #[must_use]
    pub fn is_store(&self) -> bool {
        matches!(self, OpClass::StoreInt | OpClass::StoreFp)
    }

    /// Whether the instruction accesses memory at all.
    #[must_use]
    pub fn is_mem(&self) -> bool {
        self.is_load() || self.is_store()
    }

    /// Whether the instruction is a control transfer.
    #[must_use]
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            OpClass::CondBranch | OpClass::UncondBranch | OpClass::Jump
        )
    }

    /// Whether the instruction is a *conditional* control transfer (the only
    /// kind that occupies one of the AP's limited unresolved-branch slots).
    #[must_use]
    pub fn is_cond_branch(&self) -> bool {
        matches!(self, OpClass::CondBranch)
    }

    /// Whether the instruction is floating-point *computation* (executes on
    /// an EP functional unit).
    #[must_use]
    pub fn is_fp_compute(&self) -> bool {
        matches!(self, OpClass::FpAdd | OpClass::FpMul | OpClass::FpDiv)
    }

    /// Whether the instruction is integer computation (executes on an AP
    /// functional unit).
    #[must_use]
    pub fn is_int_compute(&self) -> bool {
        matches!(self, OpClass::IntAlu | OpClass::IntMul)
    }

    /// Whether the instruction produces a floating-point result.
    #[must_use]
    pub fn writes_fp(&self) -> bool {
        self.is_fp_compute() || matches!(self, OpClass::LoadFp)
    }

    /// Whether the instruction produces an integer result.
    #[must_use]
    pub fn writes_int(&self) -> bool {
        self.is_int_compute() || matches!(self, OpClass::LoadInt)
    }

    /// A compact numeric tag: the byte the commit-stream digest
    /// (`dsmt_core::fold_commit`) folds for the operation class.
    #[must_use]
    pub fn tag(&self) -> u8 {
        match self {
            OpClass::IntAlu => 0,
            OpClass::IntMul => 1,
            OpClass::FpAdd => 2,
            OpClass::FpMul => 3,
            OpClass::FpDiv => 4,
            OpClass::LoadInt => 5,
            OpClass::LoadFp => 6,
            OpClass::StoreInt => 7,
            OpClass::StoreFp => 8,
            OpClass::CondBranch => 9,
            OpClass::UncondBranch => 10,
            OpClass::Jump => 11,
            OpClass::Nop => 12,
        }
    }

    /// A short lowercase mnemonic, used by `Display` and trace dumps.
    #[must_use]
    pub fn mnemonic(&self) -> &'static str {
        match self {
            OpClass::IntAlu => "ialu",
            OpClass::IntMul => "imul",
            OpClass::FpAdd => "fadd",
            OpClass::FpMul => "fmul",
            OpClass::FpDiv => "fdiv",
            OpClass::LoadInt => "ldq",
            OpClass::LoadFp => "ldt",
            OpClass::StoreInt => "stq",
            OpClass::StoreFp => "stt",
            OpClass::CondBranch => "br.c",
            OpClass::UncondBranch => "br",
            OpClass::Jump => "jmp",
            OpClass::Nop => "nop",
        }
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_store_classification() {
        assert!(OpClass::LoadInt.is_load());
        assert!(OpClass::LoadFp.is_load());
        assert!(!OpClass::StoreInt.is_load());
        assert!(OpClass::StoreInt.is_store());
        assert!(OpClass::StoreFp.is_store());
        assert!(!OpClass::LoadFp.is_store());
        assert!(OpClass::LoadFp.is_mem());
        assert!(OpClass::StoreInt.is_mem());
        assert!(!OpClass::IntAlu.is_mem());
        assert!(!OpClass::FpMul.is_mem());
    }

    #[test]
    fn control_classification() {
        assert!(OpClass::CondBranch.is_control());
        assert!(OpClass::UncondBranch.is_control());
        assert!(OpClass::Jump.is_control());
        assert!(!OpClass::IntAlu.is_control());
        assert!(OpClass::CondBranch.is_cond_branch());
        assert!(!OpClass::UncondBranch.is_cond_branch());
    }

    #[test]
    fn compute_classification() {
        assert!(OpClass::FpAdd.is_fp_compute());
        assert!(OpClass::FpMul.is_fp_compute());
        assert!(OpClass::FpDiv.is_fp_compute());
        assert!(!OpClass::LoadFp.is_fp_compute());
        assert!(OpClass::IntAlu.is_int_compute());
        assert!(OpClass::IntMul.is_int_compute());
        assert!(!OpClass::LoadInt.is_int_compute());
    }

    #[test]
    fn result_class() {
        assert!(OpClass::LoadFp.writes_fp());
        assert!(OpClass::FpAdd.writes_fp());
        assert!(!OpClass::LoadInt.writes_fp());
        assert!(OpClass::LoadInt.writes_int());
        assert!(OpClass::IntAlu.writes_int());
        assert!(!OpClass::FpMul.writes_int());
        assert!(!OpClass::StoreInt.writes_int());
    }

    #[test]
    fn tags_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for op in OpClass::ALL {
            assert!(seen.insert(op.tag()), "duplicate tag for {op:?}");
        }
    }

    #[test]
    fn display_uses_mnemonic() {
        assert_eq!(OpClass::FpMul.to_string(), "fmul");
        assert_eq!(OpClass::LoadInt.to_string(), "ldq");
        assert_eq!(OpClass::CondBranch.to_string(), "br.c");
    }
}
