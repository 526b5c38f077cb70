//! Typed assembler errors with line/column spans.

use std::error::Error;
use std::fmt;

use dsmt_isa::RegClass;

/// An assembler error, located in the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based source line.
    pub line: u32,
    /// 1-based column of the offending token.
    pub col: u32,
    /// What went wrong.
    pub kind: AsmErrorKind,
}

impl AsmError {
    /// Builds an error at a source position.
    #[must_use]
    pub fn new(line: u32, col: u32, kind: AsmErrorKind) -> Self {
        AsmError { line, col, kind }
    }
}

/// The failure classes the assembler can report.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AsmErrorKind {
    /// A character no token may contain.
    UnexpectedChar(char),
    /// A numeric literal that does not parse (or overflows 64 bits).
    BadNumber(String),
    /// A mnemonic the ISA does not define.
    UnknownMnemonic(String),
    /// A directive other than `.org` / `.word`.
    UnknownDirective(String),
    /// An operand that should be a register but is not `rN` / `fN`.
    BadRegister(String),
    /// A register of the wrong class for this operand slot.
    WrongRegClass {
        /// The class the mnemonic requires here.
        want: RegClass,
    },
    /// The parser expected a specific token (described in prose).
    Expected(&'static str),
    /// Extra tokens after a complete statement.
    TrailingTokens,
    /// The same label defined twice.
    DuplicateLabel(String),
    /// A reference to a label that is never defined.
    UnknownLabel(String),
    /// Two instructions (or data words) placed at the same address via
    /// `.org`.
    OverlappingPlacement(u64),
    /// The source contains no instructions.
    EmptyProgram,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, col {}: {}", self.line, self.col, self.kind)
    }
}

impl fmt::Display for AsmErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmErrorKind::UnexpectedChar(c) => write!(f, "unexpected character {c:?}"),
            AsmErrorKind::BadNumber(s) => write!(f, "bad numeric literal `{s}`"),
            AsmErrorKind::UnknownMnemonic(s) => write!(f, "unknown mnemonic `{s}`"),
            AsmErrorKind::UnknownDirective(s) => write!(f, "unknown directive `{s}`"),
            AsmErrorKind::BadRegister(s) => write!(f, "`{s}` is not a register"),
            AsmErrorKind::WrongRegClass { want } => {
                write!(f, "operand must be an {want} register")
            }
            AsmErrorKind::Expected(what) => write!(f, "expected {what}"),
            AsmErrorKind::TrailingTokens => write!(f, "trailing tokens after statement"),
            AsmErrorKind::DuplicateLabel(s) => write!(f, "label `{s}` defined twice"),
            AsmErrorKind::UnknownLabel(s) => write!(f, "unknown label `{s}`"),
            AsmErrorKind::OverlappingPlacement(pc) => {
                write!(f, "two placements at address {pc:#x}")
            }
            AsmErrorKind::EmptyProgram => write!(f, "program has no instructions"),
        }
    }
}

impl Error for AsmError {}
