//! Canonical text rendering of dynamic instructions.
//!
//! One instruction renders to one line:
//!
//! ```text
//! 0x<pc>: <mnemonic>[ <operand>[, <operand>]*]
//! ```
//!
//! where operands appear in a fixed order — `dest`, `src1`, `src2`, the
//! memory reference (`[0x<addr>+<size>]`), then the branch outcome
//! (`-> 0x<target>` when taken, `not-taken` otherwise) — and absent fields
//! are simply omitted. The rendering is exactly [`Instruction`]'s `Display`
//! implementation; this module gives it the multi-line form that
//! `dsmt asm inspect --expand` prints.

use crate::Instruction;

/// Renders a sequence of instructions, one line each, with a trailing
/// newline after every line.
#[must_use]
pub fn render_trace(insts: &[Instruction]) -> String {
    let mut out = String::with_capacity(insts.len() * 32);
    for inst in insts {
        out.push_str(&inst.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArchReg, OpClass};

    #[test]
    fn rendering_matches_display() {
        let ld = Instruction::new(0x1000, OpClass::LoadFp)
            .with_dest(ArchReg::fp(2))
            .with_src1(ArchReg::int(4))
            .with_mem(0x8000, 8);
        let text = render_trace(&[ld, Instruction::new(0x1004, OpClass::Nop)]);
        assert_eq!(text, "0x1000: ldt f2, r4, [0x8000+8]\n0x1004: nop\n");
    }
}
