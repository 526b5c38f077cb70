//! Error types for instruction construction and validation.

use std::error::Error;
use std::fmt;

/// Errors produced when validating an [`crate::Instruction`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum InstructionError {
    /// A memory instruction is missing its memory reference.
    MissingMemRef,
    /// A non-memory instruction carries a memory reference.
    UnexpectedMemRef,
    /// A control-transfer instruction is missing its branch outcome.
    MissingBranchInfo,
    /// A non-control instruction carries branch outcome information.
    UnexpectedBranchInfo,
    /// A load or computation instruction is missing a destination register.
    MissingDest,
    /// The destination register class does not match the operation class
    /// (e.g. an FP load writing an integer register).
    DestClassMismatch,
}

impl fmt::Display for InstructionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstructionError::MissingMemRef => {
                write!(f, "memory instruction has no memory reference")
            }
            InstructionError::UnexpectedMemRef => {
                write!(f, "non-memory instruction carries a memory reference")
            }
            InstructionError::MissingBranchInfo => {
                write!(f, "control instruction has no branch outcome")
            }
            InstructionError::UnexpectedBranchInfo => {
                write!(f, "non-control instruction carries branch outcome")
            }
            InstructionError::MissingDest => {
                write!(f, "instruction requires a destination register")
            }
            InstructionError::DestClassMismatch => {
                write!(f, "destination register class does not match operation")
            }
        }
    }
}

impl Error for InstructionError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_nonempty() {
        let variants = [
            InstructionError::MissingMemRef,
            InstructionError::UnexpectedMemRef,
            InstructionError::MissingBranchInfo,
            InstructionError::UnexpectedBranchInfo,
            InstructionError::MissingDest,
            InstructionError::DestClassMismatch,
        ];
        for v in variants {
            let msg = v.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
            assert!(!msg.ends_with('.'));
        }
    }

    #[test]
    fn error_trait_is_implemented() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<InstructionError>();
    }
}
