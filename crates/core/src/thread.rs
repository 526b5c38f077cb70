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

use dsmt_isa::{ArchReg, Instruction, MemRef, OpClass, RegClass, Unit};
use dsmt_trace::TraceSource;
use dsmt_uarch::{BoundedQueue, BranchPredictor, PhysReg, RegisterFile};

use crate::SimConfig;

/// Marks an absent renamed operand (no register, or a hard-wired zero).
pub(crate) const NO_REG: PhysReg = PhysReg(u16::MAX);

/// One in-flight instruction: the fields of its trace record that the
/// pipeline still needs after fetch, plus its renamed registers.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot {
    /// Per-thread program-order sequence number (assigned at fetch).
    pub seq: u64,
    /// Effective address of a load or store.
    pub mem_addr: u64,
    pub op: OpClass,
    /// Access size of a load or store, in bytes.
    pub mem_size: u8,
    /// Architectural operands as fetched.
    pub src1: Option<ArchReg>,
    pub src2: Option<ArchReg>,
    pub dest: Option<ArchReg>,
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
    fn fetched(seq: u64, inst: &Instruction) -> Self {
        let (mem_addr, mem_size) = if inst.op.is_mem() {
            let mem = inst.mem.expect("memory instruction without address");
            (mem.addr, mem.size)
        } else {
            (0, 0)
        };
        Slot {
            seq,
            mem_addr,
            op: inst.op,
            mem_size,
            src1: inst.src1,
            src2: inst.src2,
            dest: inst.dest,
            phys_src: [NO_REG; 2],
            phys_dest: NO_REG,
            prev_dest: NO_REG,
        }
    }

    /// The memory reference of a load or store.
    pub fn mem(&self) -> MemRef {
        MemRef::new(self.mem_addr, self.mem_size)
    }

    /// The destination if it creates a real (non-zero-register) definition.
    pub fn real_dest(&self) -> Option<ArchReg> {
        self.dest.filter(|r| !r.is_zero())
    }

    /// The architectural fields the commit-stream digest folds.
    #[cfg(debug_assertions)]
    pub fn committed(&self) -> Instruction {
        Instruction {
            pc: 0,
            op: self.op,
            dest: self.dest,
            src1: self.src1,
            src2: self.src2,
            mem: self.op.is_mem().then(|| self.mem()),
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
/// and the perceived-latency metric.
#[derive(Debug, Clone, Default)]
pub(crate) struct ProducerFlags {
    from_load: Vec<bool>,
    load_missed: Vec<bool>,
}

impl ProducerFlags {
    fn new(n: usize) -> Self {
        ProducerFlags {
            from_load: vec![false; n],
            load_missed: vec![false; n],
        }
    }

    pub fn clear(&mut self, reg: PhysReg) {
        self.from_load[reg.0 as usize] = false;
        self.load_missed[reg.0 as usize] = false;
    }

    pub fn set_load(&mut self, reg: PhysReg, missed: bool) {
        self.from_load[reg.0 as usize] = true;
        self.load_missed[reg.0 as usize] = missed;
    }

    pub fn is_from_load(&self, reg: PhysReg) -> bool {
        self.from_load[reg.0 as usize]
    }

    pub fn is_load_miss(&self, reg: PhysReg) -> bool {
        self.load_missed[reg.0 as usize]
    }
}

/// All per-context state of the multithreaded decoupled processor.
pub(crate) struct ThreadContext {
    pub trace: Box<dyn TraceSource>,
    /// Fetch buffer and reorder buffer.
    pub ring: InstRing,
    /// Integer (AP) rename map + physical register file.
    pub ap_regs: RegisterFile,
    /// Floating-point (EP) rename map + physical register file.
    pub ep_regs: RegisterFile,
    pub ap_flags: ProducerFlags,
    pub ep_flags: ProducerFlags,
    /// The AP's in-order issue window (ring positions).
    pub ap_window: BoundedQueue<u32>,
    /// The EP's instruction queue (ring positions) — the structure that
    /// provides decoupling.
    pub iq: BoundedQueue<u32>,
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
            .field("ap_window", &self.ap_window.len())
            .field("iq", &self.iq.len())
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
            ap_regs: RegisterFile::new(32, ap_phys),
            ep_regs: RegisterFile::new(32, ep_phys),
            ap_flags: ProducerFlags::new(ap_phys),
            ep_flags: ProducerFlags::new(ep_phys),
            ap_window: BoundedQueue::new(config.effective_ap_window_capacity()),
            iq: BoundedQueue::new(config.effective_iq_capacity()),
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
    pub fn window(&self, unit: Unit) -> &BoundedQueue<u32> {
        match unit {
            Unit::Ap => &self.ap_window,
            Unit::Ep => &self.iq,
        }
    }

    /// The in-order window for the given unit (mutable).
    pub fn window_mut(&mut self, unit: Unit) -> &mut BoundedQueue<u32> {
        match unit {
            Unit::Ap => &mut self.ap_window,
            Unit::Ep => &mut self.iq,
        }
    }

    /// Register file for a register class.
    pub fn regs(&self, class: RegClass) -> &RegisterFile {
        match class {
            RegClass::Int => &self.ap_regs,
            RegClass::Fp => &self.ep_regs,
        }
    }

    /// Register file for a register class (mutable).
    pub fn regs_mut(&mut self, class: RegClass) -> &mut RegisterFile {
        match class {
            RegClass::Int => &mut self.ap_regs,
            RegClass::Fp => &mut self.ep_regs,
        }
    }

    /// Producer flags for a register class.
    pub fn flags(&self, class: RegClass) -> &ProducerFlags {
        match class {
            RegClass::Int => &self.ap_flags,
            RegClass::Fp => &self.ep_flags,
        }
    }

    /// Producer flags for a register class (mutable).
    pub fn flags_mut(&mut self, class: RegClass) -> &mut ProducerFlags {
        match class {
            RegClass::Int => &mut self.ap_flags,
            RegClass::Fp => &mut self.ep_flags,
        }
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
            || self.window(dsmt_isa::steer(slot.op)).is_full()
            || (slot.op.is_store() && self.saq.is_full())
            || slot
                .real_dest()
                .is_some_and(|d| !self.regs(d.class()).can_rename())
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
    pub fn load_blocked_by_store(&self, load_seq: u64, mem: &MemRef) -> bool {
        self.saq
            .iter()
            .any(|e| e.seq < load_seq && MemRef::new(e.addr, e.size).overlaps(mem))
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
