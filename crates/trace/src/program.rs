//! Assembled-program workloads: a static program model, the interpreter
//! that expands a program into a dynamic instruction stream, and the
//! per-thread workload builder.
//!
//! Synthetic profiles ([`crate::SyntheticTrace`]) draw every instruction
//! from a statistical mix, which makes all threads of a multiprogrammed
//! workload statistically alike. A [`Program`] is the opposite: a small
//! *static* instruction listing (produced by the `dsmt-asm` assembler or
//! built by hand) whose dynamic behaviour — effective addresses, branch
//! outcomes, loop trip counts — is computed by actually interpreting it.
//! That is what lets heterogeneous mixes exist at all: a pointer-chaser is
//! memory-bound because its loads *are* serially dependent, not because a
//! profile says so.
//!
//! The interpreter models exactly as much architectural state as trace
//! generation needs: 32 integer registers (`r31` hard-wired to zero), a
//! sparse 8-byte-cell memory, and nothing else. Floating-point registers
//! carry no values — FP instructions exist for their dependence shape and
//! unit occupancy, which is all a trace-driven simulator consumes. Loads
//! from cells that were never stored return a deterministic hash of
//! `(seed, address)`, so pointer chases walk a seedable pseudo-random
//! permutation without materialising gigantic initialisation loops.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use dsmt_isa::{ArchReg, BranchInfo, Instruction, OpClass};

use crate::TraceSource;

/// Byte distance between consecutive instructions (Alpha-style fixed
/// 4-byte encoding); the assembler and the interpreter agree on it.
pub const INST_BYTES: u64 = 4;

/// Memory access size of every load/store the program model emits.
pub const ACCESS_BYTES: u8 = 8;

/// Integer ALU operations with full semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive or.
    Xor,
    /// Logical shift left (amount taken modulo 64).
    Sll,
    /// Logical shift right (amount taken modulo 64).
    Srl,
}

impl AluOp {
    /// Applies the operation to two 64-bit values.
    #[must_use]
    pub fn eval(self, a: u64, b: u64) -> u64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Sll => a.wrapping_shl((b & 63) as u32),
            AluOp::Srl => a.wrapping_shr((b & 63) as u32),
        }
    }
}

/// Conditional-branch predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cond {
    /// Taken when `src1 == 0`.
    Eq0,
    /// Taken when `src1 != 0`.
    Ne0,
    /// Taken when `src1 < src2` (signed).
    Lt,
    /// Taken when `src1 >= src2` (signed).
    Ge,
}

impl Cond {
    /// Evaluates the predicate over two register values.
    #[must_use]
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            Cond::Eq0 => a == 0,
            Cond::Ne0 => a != 0,
            Cond::Lt => (a as i64) < (b as i64),
            Cond::Ge => (a as i64) >= (b as i64),
        }
    }
}

/// A second ALU operand: register or immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// A register operand.
    Reg(ArchReg),
    /// An immediate operand.
    Imm(i64),
}

/// One static instruction with enough semantics to interpret.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgOp {
    /// `dest = imm` (emitted as an [`OpClass::IntAlu`] with dest only).
    LoadImm {
        /// Destination (integer) register.
        dest: ArchReg,
        /// The immediate value.
        imm: i64,
    },
    /// `dest = alu(src1, rhs)` on the integer ALU.
    IntAlu {
        /// The operation.
        alu: AluOp,
        /// Destination register.
        dest: ArchReg,
        /// First source register.
        src1: ArchReg,
        /// Second operand (register or immediate).
        rhs: Operand,
    },
    /// `dest = src1 * rhs` on the integer multiplier.
    IntMul {
        /// Destination register.
        dest: ArchReg,
        /// First source register.
        src1: ArchReg,
        /// Second operand (register or immediate).
        rhs: Operand,
    },
    /// FP computation: dependence shape only, no values.
    Fp {
        /// [`OpClass::FpAdd`], [`OpClass::FpMul`] or [`OpClass::FpDiv`].
        op: OpClass,
        /// Destination FP register.
        dest: ArchReg,
        /// First source FP register.
        src1: ArchReg,
        /// Second source FP register.
        src2: ArchReg,
    },
    /// `dest = mem[src(base) + disp]`; the destination's register class
    /// selects [`OpClass::LoadInt`] vs [`OpClass::LoadFp`].
    Load {
        /// Destination register (int or FP).
        dest: ArchReg,
        /// Base address register (integer).
        base: ArchReg,
        /// Byte displacement.
        disp: i64,
    },
    /// `mem[base + disp] = src`; the source's register class selects
    /// [`OpClass::StoreInt`] vs [`OpClass::StoreFp`].
    Store {
        /// The value register (int or FP).
        src: ArchReg,
        /// Base address register (integer).
        base: ArchReg,
        /// Byte displacement.
        disp: i64,
    },
    /// Conditional branch to `target`.
    CondBranch {
        /// The predicate.
        cond: Cond,
        /// First source register.
        src1: ArchReg,
        /// Second source register (predicates that use one).
        src2: Option<ArchReg>,
        /// Branch target PC.
        target: u64,
    },
    /// Unconditional direct branch.
    Branch {
        /// Branch target PC.
        target: u64,
    },
    /// Indirect jump through a register.
    Jump {
        /// Register holding the target PC.
        src: ArchReg,
    },
    /// No-operation (consumes fetch/dispatch bandwidth).
    Nop,
    /// End of one program iteration: the interpreter restarts at the
    /// entry point with fresh registers. Emits nothing.
    Halt,
}

impl ProgOp {
    /// The dynamic operation class this static instruction expands to
    /// (`None` for [`ProgOp::Halt`], which emits nothing).
    #[must_use]
    pub fn class(&self) -> Option<OpClass> {
        Some(match self {
            ProgOp::LoadImm { .. } | ProgOp::IntAlu { .. } => OpClass::IntAlu,
            ProgOp::IntMul { .. } => OpClass::IntMul,
            ProgOp::Fp { op, .. } => *op,
            ProgOp::Load { dest, .. } => {
                if dest.is_fp() {
                    OpClass::LoadFp
                } else {
                    OpClass::LoadInt
                }
            }
            ProgOp::Store { src, .. } => {
                if src.is_fp() {
                    OpClass::StoreFp
                } else {
                    OpClass::StoreInt
                }
            }
            ProgOp::CondBranch { .. } => OpClass::CondBranch,
            ProgOp::Branch { .. } => OpClass::UncondBranch,
            ProgOp::Jump { .. } => OpClass::Jump,
            ProgOp::Nop => OpClass::Nop,
            ProgOp::Halt => return None,
        })
    }
}

/// One placed static instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgInst {
    /// The instruction's address.
    pub pc: u64,
    /// The operation.
    pub op: ProgOp,
}

/// A loaded program: placed instructions plus an initial memory image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Program name (used as the trace name).
    pub name: String,
    /// Instructions, sorted by address.
    pub code: Vec<ProgInst>,
    /// Entry PC (the lowest code address).
    pub entry: u64,
    /// Initial memory image: `(address, value)` pairs for 8-byte cells
    /// (addresses are rounded down to cell boundaries on load).
    pub data: Vec<(u64, u64)>,
}

impl Program {
    /// Builds a program, sorting the code by address.
    ///
    /// # Panics
    ///
    /// Panics if `code` is empty or two instructions share an address —
    /// assembler output bugs, not runtime conditions.
    #[must_use]
    pub fn new(name: impl Into<String>, mut code: Vec<ProgInst>, data: Vec<(u64, u64)>) -> Self {
        assert!(!code.is_empty(), "a program needs at least one instruction");
        code.sort_by_key(|i| i.pc);
        for pair in code.windows(2) {
            assert!(
                pair[0].pc != pair[1].pc,
                "two instructions at {:#x}",
                pair[0].pc
            );
        }
        let entry = code[0].pc;
        Program {
            name: name.into(),
            code,
            entry,
            data,
        }
    }

    /// Number of static instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the program has no instructions (never true for a
    /// constructed program).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Expands the program into up to `limit` dynamic instructions under
    /// `seed` — the bounded-unrolling entry point used by golden tests and
    /// `dsmt asm inspect`. Stops early only if the program stops emitting
    /// (e.g. `halt` as the sole instruction).
    #[must_use]
    pub fn expand(&self, seed: u64, limit: u64) -> Vec<Instruction> {
        let mut trace = ProgramTrace::new(self.clone(), seed, 0).with_budget(limit);
        let mut out = Vec::with_capacity(limit.min(1 << 20) as usize);
        while let Some(inst) = trace.next_instruction() {
            out.push(inst);
        }
        out
    }
}

/// Deterministic value of a never-written memory cell: a hash of the seed
/// and the cell address (SplitMix64 finaliser). This is what makes
/// pointer-chasing programs walk seedable pseudo-random sequences without
/// an initialisation pass.
#[must_use]
fn cell_hash(seed: u64, addr: u64) -> u64 {
    let mut z = seed ^ addr.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A multiply-shift hasher for the interpreter's 8-byte-aligned cell
/// addresses: far cheaper than the std SipHash, and the keys are not
/// attacker-controlled.
#[derive(Debug, Default)]
struct CellHasher(u64);

impl Hasher for CellHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Only `u64` keys are hashed; this path is unused.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, n: u64) {
        // Fibonacci multiplicative hash; the high bits, which the table
        // uses, mix in every address bit.
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Marks a PC slot of [`ProgramTrace`]'s code index that holds no
/// instruction.
const NO_INST: u32 = u32::MAX;

/// The interpreter: a [`TraceSource`] that executes a [`Program`],
/// emitting one dynamic [`Instruction`] per interpreted step.
///
/// Registers reset at each `halt` (the program restarts at its entry, so
/// the source is infinite, like every workload trace); memory persists
/// across restarts. Data addresses are offset by `addr_offset` *in the
/// emitted records only* — the program computes in its own address space,
/// so every thread of a [`ProgramWorkload`] executes identical semantics
/// over a disjoint working set.
#[derive(Debug)]
pub struct ProgramTrace {
    program: Program,
    /// Code index of the PC `entry + i * INST_BYTES` at `i` ([`NO_INST`]
    /// for gaps), built once. It spans the code up to a bound proportional
    /// to its length; PCs off that grid or beyond it (sparse `.org`
    /// layouts) are found by binary search instead.
    index: Vec<u32>,
    regs: [u64; 32],
    mem: HashMap<u64, u64, BuildHasherDefault<CellHasher>>,
    seed: u64,
    addr_offset: u64,
    pc: u64,
    emitted: u64,
    budget: Option<u64>,
}

impl ProgramTrace {
    /// Creates an interpreter over `program` with the given seed and
    /// emitted-address offset.
    #[must_use]
    pub fn new(program: Program, seed: u64, addr_offset: u64) -> Self {
        let entry = program.entry;
        let span = 16 * program.code.len() + 1024;
        let mut index = Vec::new();
        for (i, inst) in program.code.iter().enumerate() {
            let offset = inst.pc - entry;
            let Ok(slot) = usize::try_from(offset / INST_BYTES) else {
                break;
            };
            if slot >= span {
                break;
            }
            if offset.is_multiple_of(INST_BYTES) {
                if index.len() <= slot {
                    index.resize(slot + 1, NO_INST);
                }
                index[slot] = u32::try_from(i).expect("fewer than 2^32 instructions");
            }
        }
        let mut trace = ProgramTrace {
            program,
            index,
            regs: [0; 32],
            mem: HashMap::default(),
            seed,
            addr_offset,
            pc: entry,
            emitted: 0,
            budget: None,
        };
        trace.load_image();
        trace
    }

    /// Caps the stream at `budget` dynamic instructions (the deterministic
    /// instruction budget for eager expansion); without a budget the
    /// source is infinite.
    #[must_use]
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Total dynamic instructions emitted so far.
    #[must_use]
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    fn load_image(&mut self) {
        for &(addr, value) in &self.program.data {
            self.mem.insert(addr & !7, value);
        }
    }

    fn read_reg(&self, reg: ArchReg) -> u64 {
        if reg.is_zero() || reg.is_fp() {
            0
        } else {
            self.regs[reg.index() as usize]
        }
    }

    fn write_reg(&mut self, reg: ArchReg, value: u64) {
        if !reg.is_zero() && !reg.is_fp() {
            self.regs[reg.index() as usize] = value;
        }
    }

    fn operand(&self, rhs: Operand) -> u64 {
        match rhs {
            Operand::Reg(r) => self.read_reg(r),
            Operand::Imm(i) => i as u64,
        }
    }

    fn read_mem(&self, addr: u64) -> u64 {
        let cell = addr & !7;
        self.mem
            .get(&cell)
            .copied()
            .unwrap_or_else(|| cell_hash(self.seed, cell))
    }

    /// The code index of the instruction at `pc`, if there is one.
    fn code_index(&self, pc: u64) -> Option<usize> {
        let offset = pc.wrapping_sub(self.program.entry);
        if offset.is_multiple_of(INST_BYTES) {
            let slot = usize::try_from(offset / INST_BYTES).unwrap_or(usize::MAX);
            if let Some(&i) = self.index.get(slot) {
                return (i != NO_INST).then_some(i as usize);
            }
        }
        self.program
            .code
            .binary_search_by_key(&pc, |inst| inst.pc)
            .ok()
    }

    fn restart(&mut self) {
        self.regs = [0; 32];
        self.pc = self.program.entry;
    }

    /// Interprets one static instruction, returning the emitted dynamic
    /// record (`None` for `halt`, which only restarts).
    fn step(&mut self) -> Option<Instruction> {
        let Some(idx) = self.code_index(self.pc) else {
            // Fell off the end of the code (or jumped outside it).
            self.restart();
            return None;
        };
        let ProgInst { pc, op } = self.program.code[idx];
        let mut next_pc = pc.wrapping_add(INST_BYTES);
        let inst = match op {
            ProgOp::Halt => {
                self.restart();
                return None;
            }
            ProgOp::LoadImm { dest, imm } => {
                self.write_reg(dest, imm as u64);
                Instruction::new(pc, OpClass::IntAlu).with_dest(dest)
            }
            ProgOp::IntAlu {
                alu,
                dest,
                src1,
                rhs,
            } => {
                let value = alu.eval(self.read_reg(src1), self.operand(rhs));
                self.write_reg(dest, value);
                let mut inst = Instruction::new(pc, OpClass::IntAlu)
                    .with_dest(dest)
                    .with_src1(src1);
                if let Operand::Reg(r) = rhs {
                    inst = inst.with_src2(r);
                }
                inst
            }
            ProgOp::IntMul { dest, src1, rhs } => {
                let value = self.read_reg(src1).wrapping_mul(self.operand(rhs));
                self.write_reg(dest, value);
                let mut inst = Instruction::new(pc, OpClass::IntMul)
                    .with_dest(dest)
                    .with_src1(src1);
                if let Operand::Reg(r) = rhs {
                    inst = inst.with_src2(r);
                }
                inst
            }
            ProgOp::Fp {
                op: fp_op,
                dest,
                src1,
                src2,
            } => Instruction::new(pc, fp_op)
                .with_dest(dest)
                .with_src1(src1)
                .with_src2(src2),
            ProgOp::Load { dest, base, disp } => {
                let addr = self.read_reg(base).wrapping_add(disp as u64);
                let class = if dest.is_fp() {
                    OpClass::LoadFp
                } else {
                    OpClass::LoadInt
                };
                if !dest.is_fp() {
                    let value = self.read_mem(addr);
                    self.write_reg(dest, value);
                }
                Instruction::new(pc, class)
                    .with_dest(dest)
                    .with_src1(base)
                    .with_mem(addr.wrapping_add(self.addr_offset), ACCESS_BYTES)
            }
            ProgOp::Store { src, base, disp } => {
                let addr = self.read_reg(base).wrapping_add(disp as u64);
                let class = if src.is_fp() {
                    OpClass::StoreFp
                } else {
                    OpClass::StoreInt
                };
                let value = self.read_reg(src);
                self.mem.insert(addr & !7, value);
                Instruction::new(pc, class)
                    .with_src1(src)
                    .with_src2(base)
                    .with_mem(addr.wrapping_add(self.addr_offset), ACCESS_BYTES)
            }
            ProgOp::CondBranch {
                cond,
                src1,
                src2,
                target,
            } => {
                let b = self.read_reg(src2.unwrap_or_else(|| ArchReg::int(31)));
                let taken = cond.eval(self.read_reg(src1), b);
                let info = if taken {
                    next_pc = target;
                    BranchInfo::taken(target)
                } else {
                    BranchInfo::not_taken()
                };
                let mut inst = Instruction::new(pc, OpClass::CondBranch)
                    .with_src1(src1)
                    .with_branch(info);
                if let Some(r) = src2 {
                    inst = inst.with_src2(r);
                }
                inst
            }
            ProgOp::Branch { target } => {
                next_pc = target;
                Instruction::new(pc, OpClass::UncondBranch).with_branch(BranchInfo::taken(target))
            }
            ProgOp::Jump { src } => {
                let target = self.read_reg(src);
                next_pc = target;
                Instruction::new(pc, OpClass::Jump)
                    .with_src1(src)
                    .with_branch(BranchInfo::taken(target))
            }
            ProgOp::Nop => Instruction::new(pc, OpClass::Nop),
        };
        self.pc = next_pc;
        Some(inst)
    }
}

impl TraceSource for ProgramTrace {
    fn next_instruction(&mut self) -> Option<Instruction> {
        if self.budget.is_some_and(|b| self.emitted >= b) {
            return None;
        }
        // A `halt` (or falling off the code) restarts without emitting;
        // retry once. A program that emits nothing across two fresh starts
        // (e.g. `halt` alone) is genuinely empty.
        for _ in 0..2 {
            if let Some(inst) = self.step() {
                self.emitted += 1;
                debug_assert!(inst.validate().is_ok(), "interpreter emitted {inst}");
                return Some(inst);
            }
        }
        None
    }

    fn name(&self) -> &str {
        &self.program.name
    }
}

/// Distributes assembled programs across hardware threads: thread `t` runs
/// program `t mod n`, pinned for the whole simulation.
///
/// This is the heterogeneous counterpart of [`crate::ThreadWorkload`]:
/// where that rotates every thread through *all* profiles (the paper's
/// homogeneous multiprogramming), this keeps each thread's character
/// fixed — one thread stays a memory-bound pointer-chaser while its
/// neighbour stays a compute-bound kernel, which is exactly the situation
/// where fetch policies differ. Threads get decorrelated seeds and
/// disjoint emitted-address regions, mirroring [`crate::ThreadWorkload`].
#[derive(Debug, Clone)]
pub struct ProgramWorkload {
    programs: Vec<Program>,
    seed: u64,
}

impl ProgramWorkload {
    /// Creates a workload over `programs`.
    ///
    /// # Panics
    ///
    /// Panics if `programs` is empty.
    #[must_use]
    pub fn new(programs: Vec<Program>, seed: u64) -> Self {
        assert!(!programs.is_empty(), "need at least one program");
        ProgramWorkload { programs, seed }
    }

    /// Number of distinct programs.
    #[must_use]
    pub fn num_programs(&self) -> usize {
        self.programs.len()
    }

    /// Builds the trace for hardware thread `thread_id`: program
    /// `thread_id mod n`, a decorrelated seed, and a disjoint emitted
    /// address region.
    #[must_use]
    pub fn thread_trace(&self, thread_id: usize) -> ProgramTrace {
        let n = self.programs.len();
        let mut program = self.programs[thread_id % n].clone();
        program.name = format!("{}@t{thread_id}", program.name);
        let seed = self
            .seed
            .wrapping_add(thread_id as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let addr_offset = thread_id as u64 * crate::THREAD_ADDR_STRIDE;
        ProgramTrace::new(program, seed, addr_offset)
    }

    /// Builds traces for `num_threads` hardware threads.
    #[must_use]
    pub fn build(&self, num_threads: usize) -> Vec<ProgramTrace> {
        (0..num_threads).map(|t| self.thread_trace(t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A four-instruction counted loop: r1 counts 3 iterations of
    /// (ialu, load, cond-branch), then halts.
    fn counted_loop() -> Program {
        let r1 = ArchReg::int(1);
        let r2 = ArchReg::int(2);
        let r3 = ArchReg::int(3);
        Program::new(
            "loop",
            vec![
                ProgInst {
                    pc: 0x1000,
                    op: ProgOp::LoadImm { dest: r1, imm: 3 },
                },
                ProgInst {
                    pc: 0x1004,
                    op: ProgOp::Load {
                        dest: r2,
                        base: r3,
                        disp: 0x100,
                    },
                },
                ProgInst {
                    pc: 0x1008,
                    op: ProgOp::IntAlu {
                        alu: AluOp::Sub,
                        dest: r1,
                        src1: r1,
                        rhs: Operand::Imm(1),
                    },
                },
                ProgInst {
                    pc: 0x100c,
                    op: ProgOp::CondBranch {
                        cond: Cond::Ne0,
                        src1: r1,
                        src2: None,
                        target: 0x1004,
                    },
                },
                ProgInst {
                    pc: 0x1010,
                    op: ProgOp::Halt,
                },
            ],
            vec![],
        )
    }

    /// Code off the `entry + k * INST_BYTES` grid (an odd address) and far
    /// beyond the dense index's span (a distant `.org`) is still found.
    #[test]
    fn sparse_and_unaligned_code_is_reachable() {
        let r1 = ArchReg::int(1);
        let far = 0x1000 + (1 << 30);
        let program = Program::new(
            "sparse",
            vec![
                ProgInst {
                    pc: 0x1000,
                    op: ProgOp::Branch { target: 0x1006 },
                },
                ProgInst {
                    pc: 0x1006,
                    op: ProgOp::LoadImm { dest: r1, imm: far },
                },
                ProgInst {
                    pc: 0x100a,
                    op: ProgOp::Jump { src: r1 },
                },
                ProgInst {
                    pc: far as u64,
                    op: ProgOp::Nop,
                },
                ProgInst {
                    pc: far as u64 + INST_BYTES,
                    op: ProgOp::Halt,
                },
            ],
            vec![],
        );
        let pcs: Vec<u64> = program.expand(1, 5).iter().map(|i| i.pc).collect();
        assert_eq!(pcs, vec![0x1000, 0x1006, 0x100a, far as u64, 0x1000]);
    }

    #[test]
    fn expansion_follows_control_flow() {
        let insts = counted_loop().expand(1, 10);
        assert_eq!(insts.len(), 10);
        let pcs: Vec<u64> = insts.iter().map(|i| i.pc).collect();
        assert_eq!(
            pcs,
            vec![
                0x1000, 0x1004, 0x1008, 0x100c, // iter 1 (branch taken)
                0x1004, 0x1008, 0x100c, // iter 2 (taken)
                0x1004, 0x1008, 0x100c, // iter 3 (not taken; halt follows)
            ]
        );
        let branches: Vec<bool> = insts
            .iter()
            .filter_map(|i| i.branch.map(|b| b.taken))
            .collect();
        assert_eq!(branches, vec![true, true, false]);
        for inst in &insts {
            assert!(inst.validate().is_ok(), "{inst}");
        }
    }

    #[test]
    fn trace_is_infinite_and_restarts_after_halt() {
        let mut trace = ProgramTrace::new(counted_loop(), 7, 0);
        for _ in 0..100 {
            assert!(trace.next_instruction().is_some());
        }
        assert_eq!(trace.emitted(), 100);
        assert_eq!(trace.name(), "loop");
    }

    #[test]
    fn budget_caps_the_stream() {
        let mut trace = ProgramTrace::new(counted_loop(), 7, 0).with_budget(5);
        let n = std::iter::from_fn(|| trace.next_instruction()).count();
        assert_eq!(n, 5);
        assert!(trace.next_instruction().is_none());
    }

    #[test]
    fn halt_only_program_is_empty() {
        let p = Program::new(
            "empty",
            vec![ProgInst {
                pc: 0,
                op: ProgOp::Halt,
            }],
            vec![],
        );
        let mut trace = ProgramTrace::new(p, 1, 0);
        assert!(trace.next_instruction().is_none());
    }

    #[test]
    fn uninitialised_loads_are_seed_dependent_hashes() {
        let a = counted_loop().expand(1, 10);
        let b = counted_loop().expand(1, 10);
        assert_eq!(a, b, "same seed, same expansion");
        // The load feeds no address computation here, so expansions agree
        // across seeds — but the underlying cell values must differ.
        assert_ne!(cell_hash(1, 0x100), cell_hash(2, 0x100));
        assert_ne!(cell_hash(1, 0x100), cell_hash(1, 0x108));
    }

    #[test]
    fn stores_persist_and_shadow_the_hash() {
        let r1 = ArchReg::int(1);
        let r2 = ArchReg::int(2);
        let p = Program::new(
            "store-load",
            vec![
                ProgInst {
                    pc: 0,
                    op: ProgOp::LoadImm { dest: r1, imm: 42 },
                },
                ProgInst {
                    pc: 4,
                    op: ProgOp::Store {
                        src: r1,
                        base: ArchReg::int(31),
                        disp: 0x200,
                    },
                },
                ProgInst {
                    pc: 8,
                    op: ProgOp::Load {
                        dest: r2,
                        base: ArchReg::int(31),
                        disp: 0x200,
                    },
                },
                ProgInst {
                    pc: 12,
                    op: ProgOp::Halt,
                },
            ],
            vec![],
        );
        let mut trace = ProgramTrace::new(p, 9, 0);
        for _ in 0..3 {
            trace.next_instruction().unwrap();
        }
        assert_eq!(trace.regs[2], 42, "load observes the store");
    }

    #[test]
    fn data_image_preloads_memory() {
        let r2 = ArchReg::int(2);
        let p = Program::new(
            "image",
            vec![
                ProgInst {
                    pc: 0,
                    op: ProgOp::Load {
                        dest: r2,
                        base: ArchReg::int(31),
                        disp: 0x300,
                    },
                },
                ProgInst {
                    pc: 4,
                    op: ProgOp::Halt,
                },
            ],
            vec![(0x300, 777)],
        );
        let mut trace = ProgramTrace::new(p, 1, 0);
        trace.next_instruction().unwrap();
        assert_eq!(trace.regs[2], 777);
    }

    #[test]
    fn addr_offset_shifts_emitted_addresses_only() {
        let base = counted_loop().expand(1, 10);
        let mut shifted = ProgramTrace::new(counted_loop(), 1, 0x10_0000);
        for want in &base {
            let got = shifted.next_instruction().unwrap();
            assert_eq!(got.pc, want.pc, "code addresses are not offset");
            match (got.mem, want.mem) {
                (Some(g), Some(w)) => assert_eq!(g.addr, w.addr + 0x10_0000),
                (None, None) => {}
                other => panic!("mem mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn workload_assigns_programs_and_disjoint_regions() {
        let w = ProgramWorkload::new(vec![counted_loop()], 42);
        assert_eq!(w.num_programs(), 1);
        let mut t0 = w.thread_trace(0);
        let mut t1 = w.thread_trace(1);
        assert_eq!(t0.name(), "loop@t0");
        assert_eq!(t1.name(), "loop@t1");
        let addr = |t: &mut ProgramTrace| {
            std::iter::from_fn(|| t.next_instruction())
                .take(10)
                .find_map(|i| i.mem.map(|m| m.addr))
                .unwrap()
        };
        let (a0, a1) = (addr(&mut t0), addr(&mut t1));
        assert!(a1 > a0, "thread 1 region above thread 0");
        assert!(a1 - a0 >= 0x4000_0000);
    }

    #[test]
    fn workload_build_and_modulo_assignment() {
        let mut other = counted_loop();
        other.name = "other".into();
        let w = ProgramWorkload::new(vec![counted_loop(), other], 1);
        let traces = w.build(4);
        assert_eq!(traces.len(), 4);
        assert_eq!(traces[0].name(), "loop@t0");
        assert_eq!(traces[1].name(), "other@t1");
        assert_eq!(traces[2].name(), "loop@t2");
        assert_eq!(traces[3].name(), "other@t3");
    }

    #[test]
    #[should_panic(expected = "at least one instruction")]
    fn empty_code_panics() {
        let _ = Program::new("x", vec![], vec![]);
    }

    #[test]
    #[should_panic(expected = "two instructions at")]
    fn duplicate_pc_panics() {
        let _ = Program::new(
            "x",
            vec![
                ProgInst {
                    pc: 0,
                    op: ProgOp::Nop,
                },
                ProgInst {
                    pc: 0,
                    op: ProgOp::Nop,
                },
            ],
            vec![],
        );
    }

    #[test]
    fn alu_and_cond_semantics() {
        assert_eq!(AluOp::Add.eval(2, 3), 5);
        assert_eq!(AluOp::Sub.eval(2, 3), u64::MAX);
        assert_eq!(AluOp::And.eval(0b1100, 0b1010), 0b1000);
        assert_eq!(AluOp::Or.eval(0b1100, 0b1010), 0b1110);
        assert_eq!(AluOp::Xor.eval(0b1100, 0b1010), 0b0110);
        assert_eq!(AluOp::Sll.eval(1, 4), 16);
        assert_eq!(AluOp::Srl.eval(16, 4), 1);
        assert_eq!(AluOp::Sll.eval(1, 64), 1, "shift amount is modulo 64");
        assert!(Cond::Eq0.eval(0, 9));
        assert!(Cond::Ne0.eval(1, 9));
        assert!(Cond::Lt.eval(u64::MAX, 0), "signed: -1 < 0");
        assert!(Cond::Ge.eval(0, u64::MAX), "signed: 0 >= -1");
    }
}
