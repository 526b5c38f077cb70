//! Per-hardware-context state.
//!
//! The paper replicates, per context: the fetch and dispatch stages
//! (including branch prediction and register map tables), the register
//! files, the instruction queue, and the store address queue. This module
//! holds exactly that per-thread state; everything shared (functional
//! units, issue slots, caches, bus) lives in [`crate::Processor`].
//!
//! Every in-flight instruction lives in one [`InstRing`] slot from fetch to
//! graduation: it is written once at fetch and renamed in place at
//! dispatch. The fetch buffer and the reorder buffer are two adjacent
//! ranges of that ring, and the AP window and EP instruction queue hold
//! ring positions, so no stage copies an instruction record.
//!
//! Fetch also decodes each instruction once for the stages after it. A
//! slot's class mask holds one bit per question they ask: load, store,
//! memory access, conditional branch, steered to the EP, real destination
//! (present and not hard-wired zero) and FP destination. Each
//! architectural operand is packed into one byte ([`Operand`]): bit 5 is
//! the FP class and the low five bits the index, with `0xff` for none.
//! Both hard-wired zero registers and an absent operand then have all five
//! index bits set, so one mask test tells dispatch whether to rename a
//! source. The packing keeps the slot at 32 bytes.

use dsmt_isa::{ArchReg, Instruction, MemRef, OpClass, RegClass, Unit};
use dsmt_trace::TraceSource;
use dsmt_uarch::{BoundedQueue, BranchPredictor, PhysReg, RegisterFile};

use crate::SimConfig;

/// Marks an absent renamed operand (no register, or a hard-wired zero).
pub(crate) const NO_REG: PhysReg = PhysReg(u16::MAX);

/// An architectural operand packed into one byte: bit 5 is the FP class
/// and the low five bits the index; [`Operand::NONE`] has every bit set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Operand(pub u8);

impl Operand {
    /// No operand.
    pub const NONE: Operand = Operand(0xff);
    const FP: u8 = 1 << 5;
    const INDEX: u8 = 0x1f;

    pub fn pack(reg: Option<ArchReg>) -> Self {
        reg.map_or(Operand::NONE, |r| {
            Operand(if r.is_fp() { Operand::FP } else { 0 } | r.index())
        })
    }

    #[cfg(any(debug_assertions, test))]
    pub fn unpack(self) -> Option<ArchReg> {
        (self != Operand::NONE).then(|| ArchReg::new(self.class(), self.0 & Operand::INDEX))
    }

    /// Whether the operand names a renamed register: present and not a
    /// hard-wired zero (index 31, which [`Operand::NONE`] shares).
    #[inline]
    pub fn is_renamed(self) -> bool {
        self.0 & Operand::INDEX != Operand::INDEX
    }

    #[inline]
    pub fn class(self) -> RegClass {
        if self.0 & Operand::FP == 0 {
            RegClass::Int
        } else {
            RegClass::Fp
        }
    }

    #[inline]
    pub fn index(self) -> usize {
        usize::from(self.0 & Operand::INDEX)
    }
}

/// One in-flight instruction: the fields of its trace record that the
/// pipeline still needs after fetch, decoded once, plus its renamed
/// registers.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot {
    /// Per-thread program-order sequence number (assigned at fetch).
    pub seq: u64,
    /// Effective address of a load or store.
    pub mem_addr: u64,
    pub op: OpClass,
    /// The class bits ([`Slot::LOAD`] ... [`Slot::FP_DEST`]).
    class: u8,
    /// Access size of a load or store, in bytes.
    pub mem_size: u8,
    /// Architectural sources and destination as fetched.
    pub src: [Operand; 2],
    pub dest: Operand,
    /// Renamed sources ([`NO_REG`] when absent or hard-wired zero); each
    /// lives in the register file of the matching architectural source.
    pub phys_src: [PhysReg; 2],
    /// Renamed destination ([`NO_REG`] when the instruction defines none).
    pub phys_dest: PhysReg,
    /// The mapping the destination rename superseded, released at
    /// graduation.
    pub prev_dest: PhysReg,
}

// The ring replaces the ROB entries, the fetch buffer's instruction copies
// and the windows' renamed copies; a slot must stay no larger than that.
const _: () = assert!(std::mem::size_of::<Slot>() <= 32);

impl Slot {
    pub const LOAD: u8 = 1 << 0;
    pub const STORE: u8 = 1 << 1;
    pub const MEM: u8 = 1 << 2;
    pub const COND_BRANCH: u8 = 1 << 3;
    /// Steered to the EP ([`dsmt_isa::steer`]).
    pub const EP: u8 = 1 << 4;
    /// A destination that is present and not hard-wired zero.
    pub const REAL_DEST: u8 = 1 << 5;
    /// A real destination in the FP register file.
    pub const FP_DEST: u8 = 1 << 6;

    /// The class bits of an instruction of class `op` writing the packed
    /// destination `dest`. The operation's bits come from one exhaustive
    /// match, which the decode test checks against the `OpClass` predicates
    /// and `steer`.
    fn decode(op: OpClass, dest: Operand) -> u8 {
        let op_bits = match op {
            OpClass::LoadInt | OpClass::LoadFp => Slot::LOAD | Slot::MEM,
            OpClass::StoreInt | OpClass::StoreFp => Slot::STORE | Slot::MEM,
            OpClass::CondBranch => Slot::COND_BRANCH,
            OpClass::FpAdd | OpClass::FpMul | OpClass::FpDiv => Slot::EP,
            OpClass::IntAlu
            | OpClass::IntMul
            | OpClass::UncondBranch
            | OpClass::Jump
            | OpClass::Nop => 0,
        };
        let dest_bits = match (dest.is_renamed(), dest.class()) {
            (false, _) => 0,
            (true, RegClass::Int) => Slot::REAL_DEST,
            (true, RegClass::Fp) => Slot::REAL_DEST | Slot::FP_DEST,
        };
        op_bits | dest_bits
    }

    fn fetched(seq: u64, inst: &Instruction) -> Self {
        let (mem_addr, mem_size) = if inst.op.is_mem() {
            let mem = inst.mem.expect("memory instruction without address");
            (mem.addr, mem.size)
        } else {
            (0, 0)
        };
        let dest = Operand::pack(inst.dest);
        Slot {
            seq,
            mem_addr,
            op: inst.op,
            class: Slot::decode(inst.op, dest),
            mem_size,
            src: [Operand::pack(inst.src1), Operand::pack(inst.src2)],
            dest,
            phys_src: [NO_REG; 2],
            phys_dest: NO_REG,
            prev_dest: NO_REG,
        }
    }

    /// Whether any of the class bits in `bits` is set.
    #[inline]
    pub fn is(&self, bits: u8) -> bool {
        self.class & bits != 0
    }

    /// The window the instruction is steered to.
    #[inline]
    pub fn unit(&self) -> Unit {
        if self.is(Slot::EP) {
            Unit::Ep
        } else {
            Unit::Ap
        }
    }

    /// The register file of the destination; meaningful only with
    /// [`Slot::REAL_DEST`] set.
    #[inline]
    pub fn dest_class(&self) -> RegClass {
        if self.is(Slot::FP_DEST) {
            RegClass::Fp
        } else {
            RegClass::Int
        }
    }

    /// The memory reference of a load or store.
    pub fn mem(&self) -> MemRef {
        MemRef::new(self.mem_addr, self.mem_size)
    }

    /// The architectural fields the commit-stream digest folds.
    #[cfg(debug_assertions)]
    pub fn committed(&self) -> Instruction {
        Instruction {
            pc: 0,
            op: self.op,
            dest: self.dest.unpack(),
            src1: self.src[0].unpack(),
            src2: self.src[1].unpack(),
            mem: self.is(Slot::MEM).then(|| self.mem()),
            branch: None,
        }
    }
}

/// A thread's in-flight instructions in program order, one slot each,
/// indexed by sequence number: `[head, dispatched)` is the reorder buffer
/// and `[dispatched, tail)` the fetch buffer.
///
/// The ring holds exactly `rob + fetch` slots, so the two ranges can never
/// overlap. A sequence number's slot is its position modulo that size;
/// the three range ends keep their positions alongside, so no stage
/// divides. Completion cycles live apart from the slots, one word per
/// position, so graduation polls a dense array rather than a slot per
/// thread per cycle.
pub(crate) struct InstRing {
    slots: Box<[Slot]>,
    /// The cycle at which the instruction at each position finishes
    /// executing, `u64::MAX` until it issues. It graduates from that cycle
    /// on, so completion needs no event of its own.
    done_at: Box<[u64]>,
    rob_capacity: u64,
    fetch_capacity: u64,
    head: u64,
    dispatched: u64,
    tail: u64,
    head_pos: u32,
    dispatched_pos: u32,
    tail_pos: u32,
}

impl InstRing {
    fn new(rob_capacity: usize, fetch_capacity: usize) -> Self {
        let size = rob_capacity + fetch_capacity;
        assert!(u32::try_from(size).is_ok(), "instruction ring too large");
        InstRing {
            slots: vec![Slot::fetched(0, &Instruction::new(0, OpClass::Nop)); size].into(),
            done_at: vec![u64::MAX; size].into(),
            rob_capacity: rob_capacity as u64,
            fetch_capacity: fetch_capacity as u64,
            head: 0,
            dispatched: 0,
            tail: 0,
            head_pos: 0,
            dispatched_pos: 0,
            tail_pos: 0,
        }
    }

    #[inline]
    fn next(&self, pos: u32) -> u32 {
        let pos = pos + 1;
        if pos as usize == self.slots.len() {
            0
        } else {
            pos
        }
    }

    /// The slot at ring position `pos`.
    #[inline]
    pub fn get(&self, pos: u32) -> &Slot {
        &self.slots[pos as usize]
    }

    /// The slot at ring position `pos` (mutable).
    #[inline]
    pub fn get_mut(&mut self, pos: u32) -> &mut Slot {
        &mut self.slots[pos as usize]
    }

    /// Instructions in the reorder buffer.
    pub fn rob_len(&self) -> usize {
        (self.dispatched - self.head) as usize
    }

    pub fn rob_full(&self) -> bool {
        self.dispatched - self.head >= self.rob_capacity
    }

    /// Fetched instructions waiting for dispatch.
    pub fn fetch_len(&self) -> usize {
        (self.tail - self.dispatched) as usize
    }

    pub fn fetch_full(&self) -> bool {
        self.tail - self.dispatched >= self.fetch_capacity
    }

    /// The next sequence number fetch assigns.
    pub fn next_seq(&self) -> u64 {
        self.tail
    }

    /// Appends a fetched instruction to the fetch buffer.
    pub fn push_fetched(&mut self, inst: &Instruction) {
        debug_assert!(!self.fetch_full(), "fetch buffer overflow");
        let pos = self.tail_pos;
        self.slots[pos as usize] = Slot::fetched(self.tail, inst);
        self.done_at[pos as usize] = u64::MAX;
        self.tail += 1;
        self.tail_pos = self.next(pos);
    }

    /// The oldest undispatched instruction's position, if any.
    #[inline]
    pub fn dispatch_front(&self) -> Option<u32> {
        (self.dispatched < self.tail).then_some(self.dispatched_pos)
    }

    /// Moves the oldest fetched instruction into the reorder buffer.
    pub fn dispatch_one(&mut self) {
        debug_assert!(self.dispatched < self.tail && !self.rob_full());
        self.dispatched += 1;
        self.dispatched_pos = self.next(self.dispatched_pos);
    }

    /// The reorder buffer's oldest instruction, if any.
    #[inline]
    pub fn rob_head(&self) -> Option<&Slot> {
        (self.head < self.dispatched).then(|| &self.slots[self.head_pos as usize])
    }

    /// Records that the instruction at ring position `pos` finishes
    /// executing at `cycle`.
    pub fn complete_at(&mut self, pos: u32, cycle: u64) {
        self.done_at[pos as usize] = cycle;
    }

    /// The cycle at which the oldest instruction in the reorder buffer
    /// finishes executing: `u64::MAX` while it has not issued or the
    /// reorder buffer is empty.
    #[inline]
    pub fn head_done_at(&self) -> u64 {
        if self.head < self.dispatched {
            self.done_at[self.head_pos as usize]
        } else {
            u64::MAX
        }
    }

    /// Graduates the reorder buffer's oldest instruction.
    pub fn retire_head(&mut self) {
        debug_assert!(self.head_done_at() != u64::MAX, "retiring an unissued head");
        self.head += 1;
        self.head_pos = self.next(self.head_pos);
    }
}

/// A store tracked by the store address queue.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SaqEntry {
    pub seq: u64,
    pub addr: u64,
    pub size: u8,
}

/// Per-physical-register producer metadata used for stall classification
/// and the perceived-latency metric: one byte per register.
#[derive(Debug, Clone, Default)]
pub(crate) struct ProducerFlags(Vec<u8>);

impl ProducerFlags {
    const FROM_LOAD: u8 = 1;
    const LOAD_MISSED: u8 = 2;

    fn new(n: usize) -> Self {
        ProducerFlags(vec![0; n])
    }

    pub fn clear(&mut self, reg: PhysReg) {
        self.0[reg.0 as usize] = 0;
    }

    pub fn set_load(&mut self, reg: PhysReg, missed: bool) {
        let missed = if missed {
            ProducerFlags::LOAD_MISSED
        } else {
            0
        };
        self.0[reg.0 as usize] = ProducerFlags::FROM_LOAD | missed;
    }

    /// Whether `reg`'s producer is a load, and whether that load missed.
    #[inline]
    pub fn load(&self, reg: PhysReg) -> (bool, bool) {
        let flags = self.0[reg.0 as usize];
        (
            flags & ProducerFlags::FROM_LOAD != 0,
            flags & ProducerFlags::LOAD_MISSED != 0,
        )
    }
}

/// All per-context state of the multithreaded decoupled processor.
pub(crate) struct ThreadContext {
    pub trace: Box<dyn TraceSource>,
    /// Fetch buffer and reorder buffer.
    pub ring: InstRing,
    /// Rename map + physical register file per register class: integer
    /// (AP) first, then floating point (EP). Indexed, not matched, so the
    /// stages pick one without a branch.
    regs: [RegisterFile; 2],
    /// Producer flags per register class, in the same order.
    flags: [ProducerFlags; 2],
    /// The in-order windows (ring positions) per unit: the AP's issue
    /// window, then the EP's instruction queue — the structure that
    /// provides decoupling.
    windows: [BoundedQueue<u32>; 2],
    /// The store address queue.
    pub saq: BoundedQueue<SaqEntry>,
    pub predictor: BranchPredictor,
    /// Conditional branches fetched but not yet resolved.
    pub unresolved_branches: usize,
    /// Issued conditional branches as `(seq, resolve cycle)`, oldest first.
    /// Branches issue in order on the pipelined AP and all take
    /// `ap_latency`, so resolve cycles are non-decreasing.
    pub resolving: BoundedQueue<(u64, u64)>,
    /// When `Some(seq)`, fetch is on the wrong path of the branch with that
    /// sequence number and stays blocked until it resolves.
    pub blocked_on_mispredict: Option<u64>,
    /// Whether the trace has been exhausted.
    pub trace_done: bool,
    /// Graduated instructions.
    pub retired: u64,
    /// FNV-1a fold of the graduated instructions, in graduation order (see
    /// [`crate::fold_commit`]).
    #[cfg(debug_assertions)]
    pub commit_digest: u64,
}

impl std::fmt::Debug for ThreadContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadContext")
            .field("retired", &self.retired)
            .field("fetch_buffer", &self.ring.fetch_len())
            .field("ap_window", &self.window(Unit::Ap).len())
            .field("iq", &self.window(Unit::Ep).len())
            .field("saq", &self.saq.len())
            .field("rob", &self.ring.rob_len())
            .finish_non_exhaustive()
    }
}

impl ThreadContext {
    /// Creates the per-thread state under `config`, fed by `trace`.
    pub fn new(config: &SimConfig, trace: Box<dyn TraceSource>) -> Self {
        let ap_phys = config.effective_ap_phys_regs();
        let ep_phys = config.effective_ep_phys_regs();
        ThreadContext {
            trace,
            ring: InstRing::new(
                config.effective_rob_capacity(),
                config.fetch_buffer_capacity,
            ),
            regs: [
                RegisterFile::new(32, ap_phys),
                RegisterFile::new(32, ep_phys),
            ],
            flags: [ProducerFlags::new(ap_phys), ProducerFlags::new(ep_phys)],
            windows: [
                BoundedQueue::new(config.effective_ap_window_capacity()),
                BoundedQueue::new(config.effective_iq_capacity()),
            ],
            saq: BoundedQueue::new(config.effective_saq_capacity()),
            predictor: BranchPredictor::new(config.bht_entries),
            unresolved_branches: 0,
            resolving: BoundedQueue::new(config.max_unresolved_branches.max(1)),
            blocked_on_mispredict: None,
            trace_done: false,
            retired: 0,
            #[cfg(debug_assertions)]
            commit_digest: crate::COMMIT_DIGEST_BASIS,
        }
    }

    /// The in-order window for the given unit.
    #[inline]
    pub fn window(&self, unit: Unit) -> &BoundedQueue<u32> {
        &self.windows[unit.index()]
    }

    /// The in-order window for the given unit (mutable).
    #[inline]
    pub fn window_mut(&mut self, unit: Unit) -> &mut BoundedQueue<u32> {
        &mut self.windows[unit.index()]
    }

    /// Register file for a register class.
    #[inline]
    pub fn regs(&self, class: RegClass) -> &RegisterFile {
        &self.regs[class as usize]
    }

    /// Register file for a register class (mutable).
    #[inline]
    pub fn regs_mut(&mut self, class: RegClass) -> &mut RegisterFile {
        &mut self.regs[class as usize]
    }

    /// Producer flags for a register class.
    #[inline]
    pub fn flags(&self, class: RegClass) -> &ProducerFlags {
        &self.flags[class as usize]
    }

    /// Producer flags for a register class (mutable).
    #[inline]
    pub fn flags_mut(&mut self, class: RegClass) -> &mut ProducerFlags {
        &mut self.flags[class as usize]
    }

    /// Whether the thread may fetch this cycle.
    pub fn fetch_eligible(&self, max_unresolved_branches: usize) -> bool {
        !self.trace_done
            && self.blocked_on_mispredict.is_none()
            && self.unresolved_branches < max_unresolved_branches
            && !self.ring.fetch_full()
    }

    /// Whether the oldest fetched instruction cannot dispatch for a
    /// structural reason (ROB, window, SAQ or rename registers full).
    pub fn dispatch_blocked(&self, slot: &Slot) -> bool {
        self.ring.rob_full()
            || self.window(slot.unit()).is_full()
            || (slot.is(Slot::STORE) && self.saq.is_full())
            || (slot.is(Slot::REAL_DEST) && !self.regs(slot.dest_class()).can_rename())
    }

    /// Whether the thread has completely drained (no work anywhere).
    pub fn drained(&self) -> bool {
        // The windows only hold reorder-buffer entries.
        self.trace_done && self.ring.fetch_len() == 0 && self.ring.rob_len() == 0
    }

    /// Whether a load with sequence number `load_seq` and memory reference
    /// `mem` must wait because an older store in the SAQ overlaps its bytes.
    ///
    /// The store blocks the load until it leaves the SAQ at graduation (no
    /// forwarding network is modelled), whether or not it has executed.
    /// The SAQ holds stores in program order, so the walk stops at the
    /// first younger one.
    pub fn load_blocked_by_store(&self, load_seq: u64, mem: &MemRef) -> bool {
        self.saq
            .iter()
            .take_while(|e| e.seq < load_seq)
            .any(|e| MemRef::new(e.addr, e.size).overlaps(mem))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nop() -> Instruction {
        Instruction::new(0, OpClass::Nop)
    }

    #[test]
    fn ring_retires_in_fetch_order() {
        let mut ring = InstRing::new(3, 2);
        let mut retired = Vec::new();
        for _ in 0..10 {
            while !ring.fetch_full() {
                ring.push_fetched(&nop());
            }
            while ring.dispatch_front().is_some() && !ring.rob_full() {
                ring.dispatch_one();
            }
            ring.complete_at(ring.head_pos, 0);
            retired.push(ring.rob_head().expect("non-empty ROB").seq);
            ring.retire_head();
        }
        assert_eq!(retired, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn ring_enforces_rob_and_fetch_capacity() {
        let mut ring = InstRing::new(3, 2);
        ring.push_fetched(&nop());
        ring.push_fetched(&nop());
        assert!(ring.fetch_full());
        ring.dispatch_one();
        ring.dispatch_one();
        assert_eq!((ring.rob_len(), ring.fetch_len()), (2, 0));
        ring.push_fetched(&nop());
        ring.push_fetched(&nop());
        ring.dispatch_one();
        assert!(ring.rob_full());
        assert!(!ring.fetch_full());
        assert_eq!((ring.rob_len(), ring.fetch_len()), (3, 1));
        // Full ROB and a waiting fetch entry share the ring without overlap.
        let front = ring.dispatch_front().expect("one entry waits");
        assert_eq!(ring.get(front).seq, 3);
        assert_eq!(ring.rob_head().map(|s| s.seq), Some(0));
        assert_eq!(ring.head_done_at(), u64::MAX);
    }

    #[test]
    fn every_operand_packs_into_one_byte_and_back() {
        assert_eq!(Operand::pack(None), Operand::NONE);
        assert_eq!(Operand::NONE.unpack(), None);
        assert!(!Operand::NONE.is_renamed());
        for class in [RegClass::Int, RegClass::Fp] {
            for index in 0..32u8 {
                let reg = ArchReg::new(class, index);
                let packed = Operand::pack(Some(reg));
                assert_ne!(packed, Operand::NONE);
                assert_eq!(packed.unpack(), Some(reg));
                assert_eq!((packed.class(), packed.index()), (class, index as usize));
                assert_eq!(packed.is_renamed(), !reg.is_zero(), "{reg}");
            }
        }
    }

    /// Fetch's decode answers every question the later stages used to ask
    /// the operation class, `steer` and the operands, for every class,
    /// destination shape and store or non-store source shape.
    #[test]
    fn decode_agrees_with_the_isa_for_every_instruction_shape() {
        let dests = [
            None,
            Some(ArchReg::int(31)),
            Some(ArchReg::int(3)),
            Some(ArchReg::fp(7)),
            Some(ArchReg::fp(31)),
        ];
        let sources = [
            (None, None),
            (Some(ArchReg::int(1)), None),
            (None, Some(ArchReg::fp(2))),
            (Some(ArchReg::int(31)), Some(ArchReg::fp(31))),
            // Store shapes: the data register (either class), then the
            // integer base register.
            (Some(ArchReg::fp(4)), Some(ArchReg::int(2))),
            (Some(ArchReg::int(30)), Some(ArchReg::int(0))),
            (Some(ArchReg::fp(31)), Some(ArchReg::int(31))),
        ];
        for op in OpClass::ALL {
            for dest in dests {
                for (src1, src2) in sources {
                    let mut inst = Instruction::new(0x40, op);
                    inst.dest = dest;
                    inst.src1 = src1;
                    inst.src2 = src2;
                    if op.is_mem() {
                        inst = inst.with_mem(0x1000, 8);
                    }
                    let slot = Slot::fetched(9, &inst);
                    let shape = format!("{op:?} dest {dest:?} sources {src1:?} {src2:?}");
                    assert_eq!(slot.is(Slot::LOAD), op.is_load(), "{shape}");
                    assert_eq!(slot.is(Slot::STORE), op.is_store(), "{shape}");
                    assert_eq!(slot.is(Slot::MEM), op.is_mem(), "{shape}");
                    assert_eq!(slot.is(Slot::COND_BRANCH), op.is_cond_branch(), "{shape}");
                    assert_eq!(
                        slot.is(Slot::EP),
                        dsmt_isa::steer(op) == Unit::Ep,
                        "{shape}"
                    );
                    assert_eq!(slot.unit(), dsmt_isa::steer(op), "{shape}");
                    let real_dest = dest.filter(|d| !d.is_zero());
                    assert_eq!(slot.is(Slot::REAL_DEST), real_dest.is_some(), "{shape}");
                    assert_eq!(
                        slot.is(Slot::FP_DEST),
                        real_dest.is_some_and(|d| d.is_fp()),
                        "{shape}"
                    );
                    if let Some(d) = real_dest {
                        assert_eq!(slot.dest_class(), d.class(), "{shape}");
                        assert_eq!(slot.dest.index(), d.index() as usize, "{shape}");
                    }
                    assert_eq!(slot.dest.unpack(), dest, "{shape}");
                    for (operand, reg) in slot.src.into_iter().zip([src1, src2]) {
                        assert_eq!(operand.unpack(), reg, "{shape}");
                        assert_eq!(
                            operand.is_renamed(),
                            reg.is_some_and(|r| !r.is_zero()),
                            "{shape}"
                        );
                    }
                    #[cfg(debug_assertions)]
                    {
                        let committed = slot.committed();
                        assert_eq!(
                            (committed.op, committed.dest, committed.src1, committed.src2),
                            (op, dest, src1, src2),
                            "{shape}"
                        );
                        assert_eq!(committed.mem, inst.mem, "{shape}");
                        let basis = crate::COMMIT_DIGEST_BASIS;
                        assert_eq!(
                            crate::fold_commit(basis, &committed),
                            crate::fold_commit(basis, &inst),
                            "{shape}"
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    proptest! {
        /// The ring agrees with a naive model of two FIFOs (fetch buffer and
        /// ROB of `(seq, done_at)`) under any interleaving of fetch,
        /// dispatch, issue and graduation, across many wrap-arounds.
        #[test]
        fn ring_matches_naive_reference(
            rob in 1usize..6,
            fetch in 1usize..5,
            ops in prop::collection::vec((0u8..4, 0usize..6), 1..300),
        ) {
            let mut ring = InstRing::new(rob, fetch);
            let mut fetched: VecDeque<u64> = VecDeque::new();
            let mut in_rob: VecDeque<(u64, u64)> = VecDeque::new();
            let mut next_seq = 0u64;
            for (op, k) in ops {
                match op {
                    0 if fetched.len() < fetch => {
                        ring.push_fetched(&Instruction::new(0, OpClass::Nop));
                        fetched.push_back(next_seq);
                        next_seq += 1;
                    }
                    1 if !fetched.is_empty() && in_rob.len() < rob => {
                        let seq = fetched.pop_front().expect("non-empty");
                        let pos = ring.dispatch_front().expect("fetched entry");
                        prop_assert_eq!(ring.get(pos).seq, seq);
                        ring.dispatch_one();
                        in_rob.push_back((seq, u64::MAX));
                    }
                    2 if k < in_rob.len() => {
                        // Issue the k-th oldest ROB entry through its
                        // position, finishing at cycle `k`.
                        let pos = (ring.head_pos as usize + k) % (rob + fetch);
                        prop_assert_eq!(ring.get(pos as u32).seq, in_rob[k].0);
                        ring.complete_at(pos as u32, k as u64);
                        in_rob[k].1 = k as u64;
                    }
                    3 if in_rob.front().is_some_and(|e| e.1 != u64::MAX) => {
                        ring.retire_head();
                        in_rob.pop_front();
                    }
                    _ => {}
                }
                prop_assert_eq!(ring.fetch_len(), fetched.len());
                prop_assert_eq!(ring.rob_len(), in_rob.len());
                prop_assert_eq!(ring.fetch_full(), fetched.len() >= fetch);
                prop_assert_eq!(ring.rob_full(), in_rob.len() >= rob);
                prop_assert_eq!(ring.next_seq(), next_seq);
                prop_assert_eq!(ring.rob_head().map(|s| s.seq), in_rob.front().map(|e| e.0));
                prop_assert_eq!(ring.head_done_at(), in_rob.front().map_or(u64::MAX, |e| e.1));
                prop_assert_eq!(
                    ring.dispatch_front().map(|p| ring.get(p).seq),
                    fetched.front().copied()
                );
            }
        }
    }
}
