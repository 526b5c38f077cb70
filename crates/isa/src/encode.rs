//! The canonical byte form of a dynamic instruction.
//!
//! Two instruction streams are equal exactly when their encodings are, so
//! the golden tests pin an assembled program's expansion by hashing
//! [`encode_stream`] with [`crate::fnv1a64`]. The form is a simple
//! self-describing byte stream:
//!
//! ```text
//! op-tag: u8
//! flags:  u8   bit 0: has dest     bit 1: has src1    bit 2: has src2
//!              bit 3: has mem      bit 4: has branch  bit 5: branch taken
//! pc:     u64  little endian
//! [dest]  u8   bit 7: class (0 = int, 1 = fp), bits 0..5: index
//! [src1]  u8
//! [src2]  u8
//! [mem]   u64 addr + u8 size
//! [branch target] u64
//! ```
//!
//! The encoding favours simplicity over density: a typical record is 11–20
//! bytes. [`decode_stream`] inverts it, which is what makes it injective.

use bytes::{Buf, BufMut};

use crate::{ArchReg, BranchInfo, Instruction, InstructionError, OpClass, RegClass};

const FLAG_DEST: u8 = 1 << 0;
const FLAG_SRC1: u8 = 1 << 1;
const FLAG_SRC2: u8 = 1 << 2;
const FLAG_MEM: u8 = 1 << 3;
const FLAG_BRANCH: u8 = 1 << 4;
const FLAG_TAKEN: u8 = 1 << 5;

const REG_CLASS_BIT: u8 = 1 << 7;
const REG_INDEX_MASK: u8 = 0x3f;

fn encode_reg(reg: ArchReg) -> u8 {
    let class_bit = match reg.class() {
        RegClass::Int => 0,
        RegClass::Fp => REG_CLASS_BIT,
    };
    class_bit | (reg.index() & REG_INDEX_MASK)
}

fn decode_reg(byte: u8) -> Result<ArchReg, InstructionError> {
    let index = byte & REG_INDEX_MASK;
    if index >= 32 {
        return Err(InstructionError::InvalidRegisterByte(byte));
    }
    if byte & REG_CLASS_BIT != 0 {
        Ok(ArchReg::fp(index))
    } else {
        Ok(ArchReg::int(index))
    }
}

/// Appends the binary encoding of `inst` to `buf`.
///
/// # Example
///
/// ```
/// use bytes::BytesMut;
/// use dsmt_isa::{encode_instruction, decode_instruction, Instruction, OpClass, ArchReg};
///
/// let inst = Instruction::new(0x10, OpClass::IntAlu)
///     .with_dest(ArchReg::int(1))
///     .with_src1(ArchReg::int(2));
/// let mut buf = BytesMut::new();
/// encode_instruction(&inst, &mut buf);
/// let mut bytes = buf.freeze();
/// assert_eq!(decode_instruction(&mut bytes).unwrap(), inst);
/// ```
pub fn encode_instruction<B: BufMut>(inst: &Instruction, buf: &mut B) {
    let mut flags = 0u8;
    if inst.dest.is_some() {
        flags |= FLAG_DEST;
    }
    if inst.src1.is_some() {
        flags |= FLAG_SRC1;
    }
    if inst.src2.is_some() {
        flags |= FLAG_SRC2;
    }
    if inst.mem.is_some() {
        flags |= FLAG_MEM;
    }
    if let Some(b) = inst.branch {
        flags |= FLAG_BRANCH;
        if b.taken {
            flags |= FLAG_TAKEN;
        }
    }
    buf.put_u8(inst.op.tag());
    buf.put_u8(flags);
    buf.put_u64_le(inst.pc);
    if let Some(d) = inst.dest {
        buf.put_u8(encode_reg(d));
    }
    if let Some(s) = inst.src1 {
        buf.put_u8(encode_reg(s));
    }
    if let Some(s) = inst.src2 {
        buf.put_u8(encode_reg(s));
    }
    if let Some(m) = inst.mem {
        buf.put_u64_le(m.addr);
        buf.put_u8(m.size);
    }
    if let Some(b) = inst.branch {
        buf.put_u64_le(b.target);
    }
}

/// Decodes one instruction from the front of `buf`, consuming its bytes.
///
/// # Errors
///
/// Returns [`InstructionError::TruncatedEncoding`] if the buffer ends in the
/// middle of a record, [`InstructionError::UnknownOpTag`] for an
/// unrecognised operation tag and [`InstructionError::InvalidRegisterByte`]
/// for a malformed register byte.
pub fn decode_instruction<B: Buf>(buf: &mut B) -> Result<Instruction, InstructionError> {
    if buf.remaining() < 10 {
        return Err(InstructionError::TruncatedEncoding);
    }
    let tag = buf.get_u8();
    let op = OpClass::from_tag(tag).ok_or(InstructionError::UnknownOpTag(tag))?;
    let flags = buf.get_u8();
    let pc = buf.get_u64_le();
    let mut inst = Instruction::new(pc, op);

    let mut need = 0usize;
    if flags & FLAG_DEST != 0 {
        need += 1;
    }
    if flags & FLAG_SRC1 != 0 {
        need += 1;
    }
    if flags & FLAG_SRC2 != 0 {
        need += 1;
    }
    if flags & FLAG_MEM != 0 {
        need += 9;
    }
    if flags & FLAG_BRANCH != 0 {
        need += 8;
    }
    if buf.remaining() < need {
        return Err(InstructionError::TruncatedEncoding);
    }

    if flags & FLAG_DEST != 0 {
        inst.dest = Some(decode_reg(buf.get_u8())?);
    }
    if flags & FLAG_SRC1 != 0 {
        inst.src1 = Some(decode_reg(buf.get_u8())?);
    }
    if flags & FLAG_SRC2 != 0 {
        inst.src2 = Some(decode_reg(buf.get_u8())?);
    }
    if flags & FLAG_MEM != 0 {
        let addr = buf.get_u64_le();
        let size = buf.get_u8();
        inst = inst.with_mem(addr, size);
    }
    if flags & FLAG_BRANCH != 0 {
        let target = buf.get_u64_le();
        inst = inst.with_branch(BranchInfo::new(flags & FLAG_TAKEN != 0, target));
    }
    Ok(inst)
}

/// Encodes a whole slice of instructions into a fresh byte vector.
#[must_use]
pub fn encode_stream(insts: &[Instruction]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(insts.len() * 16);
    for inst in insts {
        encode_instruction(inst, &mut buf);
    }
    buf
}

/// Decodes every instruction from a byte slice.
///
/// # Errors
///
/// Propagates the first decoding error encountered.
pub fn decode_stream(mut bytes: &[u8]) -> Result<Vec<Instruction>, InstructionError> {
    let mut out = Vec::new();
    while !bytes.is_empty() {
        out.push(decode_instruction(&mut bytes)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemRef;

    fn sample_instructions() -> Vec<Instruction> {
        vec![
            Instruction::new(0x1000, OpClass::IntAlu)
                .with_dest(ArchReg::int(1))
                .with_src1(ArchReg::int(2))
                .with_src2(ArchReg::int(3)),
            Instruction::new(0x1004, OpClass::LoadFp)
                .with_dest(ArchReg::fp(4))
                .with_src1(ArchReg::int(9))
                .with_mem(0x000d_eadb_eef0, 8),
            Instruction::new(0x1008, OpClass::StoreFp)
                .with_src1(ArchReg::fp(4))
                .with_src2(ArchReg::int(9))
                .with_mem(0x1_0000_0000, 8),
            Instruction::new(0x100c, OpClass::CondBranch)
                .with_src1(ArchReg::int(1))
                .with_branch(BranchInfo::taken(0x1000)),
            Instruction::new(0x1010, OpClass::CondBranch)
                .with_src1(ArchReg::int(1))
                .with_branch(BranchInfo::not_taken()),
            Instruction::new(0x1014, OpClass::Nop),
        ]
    }

    #[test]
    fn roundtrip_single() {
        for inst in sample_instructions() {
            let mut buf = Vec::new();
            encode_instruction(&inst, &mut buf);
            let decoded = decode_instruction(&mut buf.as_slice()).unwrap();
            assert_eq!(decoded, inst);
        }
    }

    #[test]
    fn roundtrip_stream() {
        let insts = sample_instructions();
        let bytes = encode_stream(&insts);
        let decoded = decode_stream(&bytes).unwrap();
        assert_eq!(decoded, insts);
    }

    #[test]
    fn truncated_stream_errors() {
        let insts = sample_instructions();
        let bytes = encode_stream(&insts);
        let err = decode_stream(&bytes[..bytes.len() - 1]).unwrap_err();
        assert_eq!(err, InstructionError::TruncatedEncoding);
        assert_eq!(
            decode_stream(&bytes[..5]).unwrap_err(),
            InstructionError::TruncatedEncoding
        );
    }

    #[test]
    fn unknown_tag_errors() {
        let mut bytes = encode_stream(&sample_instructions()[..1]);
        bytes[0] = 0xfe;
        assert_eq!(
            decode_stream(&bytes).unwrap_err(),
            InstructionError::UnknownOpTag(0xfe)
        );
    }

    #[test]
    fn invalid_register_byte_errors() {
        // Encode an IntAlu with a dest, then corrupt the register byte to
        // index 33 (> 31) which cannot be produced by encode_reg.
        let inst = Instruction::new(0, OpClass::IntAlu).with_dest(ArchReg::int(1));
        let mut bytes = encode_stream(&[inst]);
        let reg_byte_pos = bytes.len() - 1;
        bytes[reg_byte_pos] = 33;
        match decode_stream(&bytes).unwrap_err() {
            InstructionError::InvalidRegisterByte(b) => assert_eq!(b, 33),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn mem_ref_precision_preserved() {
        let inst = Instruction::new(u64::MAX - 8, OpClass::LoadInt)
            .with_dest(ArchReg::int(30))
            .with_mem(u64::MAX - 64, 4);
        let bytes = encode_stream(&[inst]);
        let decoded = decode_stream(&bytes).unwrap();
        assert_eq!(decoded[0].mem, Some(MemRef::new(u64::MAX - 64, 4)));
        assert_eq!(decoded[0].pc, u64::MAX - 8);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_reg() -> impl Strategy<Value = ArchReg> {
        (0u8..32, prop::bool::ANY).prop_map(|(idx, fp)| {
            if fp {
                ArchReg::fp(idx)
            } else {
                ArchReg::int(idx)
            }
        })
    }

    fn arb_instruction() -> impl Strategy<Value = Instruction> {
        (
            prop::num::u64::ANY,
            0u8..13,
            prop::option::of(arb_reg()),
            prop::option::of(arb_reg()),
            prop::option::of(arb_reg()),
            prop::num::u64::ANY,
            1u8..=16,
            prop::bool::ANY,
            prop::num::u64::ANY,
        )
            .prop_map(|(pc, tag, dest, src1, src2, addr, size, taken, target)| {
                let op = OpClass::from_tag(tag).unwrap();
                let mut inst = Instruction::new(pc, op);
                inst.dest = dest;
                inst.src1 = src1;
                inst.src2 = src2;
                if op.is_mem() {
                    inst = inst.with_mem(addr, size);
                }
                if op.is_control() {
                    inst = inst.with_branch(BranchInfo::new(taken, target));
                }
                inst
            })
    }

    proptest! {
        #[test]
        fn encode_decode_roundtrip(insts in prop::collection::vec(arb_instruction(), 0..64)) {
            let bytes = encode_stream(&insts);
            let decoded = decode_stream(&bytes).unwrap();
            prop_assert_eq!(decoded, insts);
        }

        #[test]
        fn decoding_arbitrary_bytes_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
            // May error, must not panic.
            let _ = decode_stream(&bytes);
        }

        #[test]
        fn encoded_records_stay_within_documented_bounds(insts in prop::collection::vec(arb_instruction(), 1..64)) {
            // The module docs promise 10..=27 bytes per record (2-byte
            // header + 8-byte pc + up to 3 register bytes + 9-byte memory
            // reference + 8-byte branch target).
            let bytes = encode_stream(&insts);
            prop_assert!(bytes.len() >= insts.len() * 10);
            prop_assert!(bytes.len() <= insts.len() * 27);
            // And decoding consumes every byte exactly.
            let decoded = decode_stream(&bytes).unwrap();
            prop_assert_eq!(decoded.len(), insts.len());
        }
    }
}
