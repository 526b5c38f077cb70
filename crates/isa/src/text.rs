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
    use crate::{ArchReg, BranchInfo, OpClass};

    #[test]
    fn rendering_matches_display() {
        let ld = Instruction::new(0x1000, OpClass::LoadFp)
            .with_dest(ArchReg::fp(2))
            .with_src1(ArchReg::int(4))
            .with_mem(0x8000, 8);
        let text = render_trace(&[ld, Instruction::new(0x1004, OpClass::Nop)]);
        assert_eq!(text, "0x1000: ldt f2, r4, [0x8000+8]\n0x1004: nop\n");
    }

    /// Changing any one field the simulator reads changes the rendered
    /// line, so a digest of the text pins the stream itself.
    #[test]
    fn every_field_the_simulator_reads_changes_the_rendering() {
        let load = Instruction::new(0x1000, OpClass::LoadFp)
            .with_dest(ArchReg::fp(2))
            .with_src1(ArchReg::int(4))
            .with_src2(ArchReg::int(5))
            .with_mem(0x8000, 8);
        let branch = Instruction::new(0x2000, OpClass::CondBranch)
            .with_src1(ArchReg::int(3))
            .with_branch(BranchInfo::taken(0x3000));
        let cases = [
            (
                "op",
                load,
                Instruction {
                    op: OpClass::LoadInt,
                    ..load
                },
            ),
            ("pc", load, Instruction { pc: 0x1004, ..load }),
            ("dest", load, load.with_dest(ArchReg::fp(3))),
            ("dest class", load, load.with_dest(ArchReg::int(2))),
            ("dest absent", load, Instruction { dest: None, ..load }),
            ("src1", load, load.with_src1(ArchReg::int(6))),
            ("src1 absent", load, Instruction { src1: None, ..load }),
            ("src2", load, load.with_src2(ArchReg::int(6))),
            ("src2 absent", load, Instruction { src2: None, ..load }),
            ("mem addr", load, load.with_mem(0x8008, 8)),
            ("mem size", load, load.with_mem(0x8000, 4)),
            ("mem absent", load, Instruction { mem: None, ..load }),
            ("taken", branch, branch.with_branch(BranchInfo::not_taken())),
            (
                "target",
                branch,
                branch.with_branch(BranchInfo::taken(0x3004)),
            ),
        ];
        for (field, a, b) in cases {
            assert_ne!(a, b, "{field}: the variant must differ");
            assert_ne!(
                render_trace(&[a]),
                render_trace(&[b]),
                "{field}: two instructions render alike"
            );
        }
    }
}
