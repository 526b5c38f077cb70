//! The cycle-by-cycle multithreaded decoupled processor model.
//!
//! Each thread keeps its in-flight instructions in one ring of compact
//! slots (see [`crate::thread`]): an instruction is written once at fetch,
//! renamed in place at dispatch, and referenced by ring position from the
//! issue windows. Completion is a cycle, not an event: issue records when
//! the instruction finishes, and graduation compares that cycle with the
//! clock. Only conditional branches act when they finish; each thread
//! keeps its issued ones in a FIFO of resolve cycles.
//!
//! A stepped cycle walks the threads once per stage: retire (which also
//! resolves the branches that finish), issue once per side in round-robin
//! order, dispatch (which also notes which threads may fetch), then fetch.
//! The stages test the class bits fetch decoded into each slot instead of
//! re-deriving them from the operation class.
//!
//! Head scheduling is event-driven: when a window head is proven blocked
//! until a known cycle (the blocking operand's recorded ready cycle), the
//! issue stage keeps one verdict `{seq, until, cause}` for that (thread,
//! side). The verdict is live while `cycle < until`; while it is, the
//! issue stage replays it in O(1) instead of re-reading register files.
//! After a step that did nothing, the stall fast-forward proves how long
//! nothing can happen and jumps there (see
//! [`try_fast_forward`](Processor::try_fast_forward)). Both paths are
//! bit-identical to naive per-cycle re-probing — pinned by
//! `golden_stats.rs` and the differential proptests against
//! [`Processor::set_reference_model`].

use dsmt_isa::{ArchReg, Instruction, OpClass, RegClass, Unit};
use dsmt_mem::{AccessKind, AccessResponse, MemorySystem};
use dsmt_trace::{ThreadWorkload, TraceSource};
use dsmt_uarch::{icount_pick_into, round_robin_pick_into, FuPool, RoundRobin};

use crate::thread::{Operand, SaqEntry, Slot, ThreadContext, NO_REG};
use crate::{PerceivedLatency, SimConfig, SimResults, SlotUse, UnitSlots};

/// Why a window head is blocked: the issue-slot classification and the
/// perceived-latency class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlockedCause {
    kind: SlotUse,
    /// `Some` when the blocking operand comes from a load that missed —
    /// the register class drives the perceived-latency metric.
    miss_class: Option<RegClass>,
}

/// "Head instruction `seq` of this (thread, side) is blocked for `cause`
/// at every cycle strictly below `until`". Live while `cycle < until`; a
/// head only leaves its window by issuing, which needs a dead verdict, so
/// a live verdict always describes the current head.
#[derive(Debug, Clone, Copy)]
struct Verdict {
    seq: u64,
    until: u64,
    cause: BlockedCause,
}

impl Verdict {
    const NONE: Verdict = Verdict {
        seq: 0,
        until: 0,
        cause: BlockedCause {
            kind: SlotUse::Other,
            miss_class: None,
        },
    };
}

/// The two in-order windows per thread, in verdict-index order.
const SIDES: [(usize, Unit); 2] = [(0, Unit::Ap), (1, Unit::Ep)];

/// Scheduler-throughput counters, deliberately separate from
/// [`SimResults`] (whose serialized layout is pinned by golden `.dsr`
/// fixtures): how much per-cycle work the event-driven core avoided.
/// Folded into the metrics registry post-run by
/// [`record_metrics`](CorePerf::record_metrics) — the hot loop never
/// touches an atomic.
#[derive(Debug, Clone, Default)]
pub struct CorePerf {
    /// Cycles the stall fast-forward skipped instead of stepping (the
    /// idle-skip path; zero means every cycle was stepped).
    pub busy_cycles_skipped: u64,
    /// Number of contiguous skip windows taken.
    pub skip_windows: u64,
}

impl CorePerf {
    /// Folds these counters into the process-wide metrics registry
    /// (`core.busy_cycles_skipped` and `core.skip_windows`).
    pub fn record_metrics(&self) {
        dsmt_obs::counter!("core.busy_cycles_skipped").add(self.busy_cycles_skipped);
        dsmt_obs::counter!("core.skip_windows").add(self.skip_windows);
    }
}

/// Seed of the per-thread commit-stream digest (the FNV-1a offset basis).
pub const COMMIT_DIGEST_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one graduated instruction into a commit-stream digest: FNV-1a
/// over its operation class, architectural operands and memory reference.
/// The PC and branch outcome are not folded (the core consumes them at
/// fetch), and neither is the memory reference of a non-memory class.
///
/// Debug builds keep one such digest per thread in graduation order
/// ([`Processor::commit_digests`]); folding a trace's first `n`
/// instructions the same way must give the same value.
#[must_use]
pub fn fold_commit(hash: u64, inst: &Instruction) -> u64 {
    let reg = |r: Option<ArchReg>| Operand::pack(r).0;
    let mem = inst.mem.filter(|_| inst.op.is_mem());
    let (addr, size) = mem.map_or((0, 0), |m| (m.addr, m.size));
    let mut bytes = [0u8; 14];
    bytes[..6].copy_from_slice(&[
        inst.op.tag(),
        reg(inst.src1),
        reg(inst.src2),
        reg(inst.dest),
        u8::from(mem.is_some()),
        size,
    ]);
    bytes[6..].copy_from_slice(&addr.to_le_bytes());
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The outcome of probing the head of an in-order window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HeadProbe {
    Ready,
    Blocked {
        cause: BlockedCause,
        /// The first cycle at which the blocking condition can clear, when
        /// it is known exactly (the blocking operand's recorded ready
        /// cycle). `None` when the bound is unknown (producer not issued
        /// yet, or a store-address-queue conflict).
        until: Option<u64>,
    },
}

/// The multithreaded access/execute-decoupled processor.
///
/// Shared across all hardware contexts: the issue logic (round-robin over
/// threads), the AP and EP functional units, and the memory hierarchy.
/// Everything else (fetch, dispatch, rename tables, register files, queues,
/// reorder buffer, branch predictor) is per-thread state held in the thread
/// contexts.
///
/// # Example
///
/// ```
/// use dsmt_core::{Processor, SimConfig};
///
/// let config = SimConfig::paper_multithreaded(2);
/// let mut cpu = Processor::with_spec_workload(config, 42);
/// let results = cpu.run(20_000);
/// assert!(results.ipc() > 0.5);
/// ```
pub struct Processor {
    config: SimConfig,
    threads: Vec<ThreadContext>,
    ap_fus: FuPool,
    ep_fus: FuPool,
    mem: MemorySystem,
    arbiter: RoundRobin,
    cycle: u64,
    /// Per-thread, per-side blocked-head verdicts (side 0 = AP window,
    /// side 1 = EP instruction queue).
    verdicts: Vec<[Verdict; 2]>,
    /// When set, disables verdict replay and the stall fast-forward: every
    /// head is re-probed every cycle. Differential-testing aid only.
    reference_model: bool,
    /// Whether the last stepped cycle retired, issued, dispatched and
    /// fetched nothing — the only time a fast-forward is worth trying.
    idle: bool,
    /// Graduated instructions over all threads.
    retired: u64,
    perf: CorePerf,
    ap_slots: UnitSlots,
    ep_slots: UnitSlots,
    perceived: PerceivedLatency,
    loads: u64,
    stores: u64,
    fetched: FetchCounters,
    /// Scratch buffers reused across cycles so the pipeline stages never
    /// allocate in steady state.
    scratch: Scratch,
}

/// Per-cycle scratch storage (see the stage methods for what each holds).
#[derive(Debug, Default)]
struct Scratch {
    /// Stall causes of the oldest non-issuable instructions (issue stage;
    /// the fast-forward's replay reuses it).
    blocked: Vec<SlotUse>,
    /// Per-thread fetch eligibility, one entry per thread, written by the
    /// dispatch stage for the fetch stage after it.
    eligible: Vec<bool>,
    /// Per-thread pending-dispatch counts (fetch stage, I-COUNT metric;
    /// only when more threads may fetch than the policy picks).
    pending: Vec<usize>,
    /// Threads the fetch policy picked this cycle.
    picks: Vec<usize>,
    /// Window heads the fast-forward found blocked for its whole window
    /// without a bound of their own: `(thread, side, seq, cause)`.
    unbounded: Vec<(usize, usize, u64, BlockedCause)>,
}

impl std::fmt::Debug for Processor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Processor")
            .field("cycle", &self.cycle)
            .field("threads", &self.threads.len())
            .field("retired", &self.retired)
            .finish_non_exhaustive()
    }
}

/// Records `wasted` issue slots round-robin over the stall causes in
/// `kinds`, starting at `kinds[first]` (slot `i` goes to
/// `kinds[(first + i) % kinds.len()]`), `times` over.
fn record_wasted(
    slots: &mut UnitSlots,
    kinds: &[SlotUse],
    first: usize,
    wasted: usize,
    times: u64,
) {
    if let [kind] = kinds {
        slots.record_n(*kind, wasted as u64 * times);
        return;
    }
    // `wasted` is at most the unit's slot count, so one step per slot is
    // short and needs no division.
    let mut k = first;
    for _ in 0..wasted {
        slots.record_n(kinds[k], times);
        k = if k + 1 == kinds.len() { 0 } else { k + 1 };
    }
}

impl Processor {
    /// Creates a processor running `traces` (one per hardware thread) under
    /// `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the number of traces does
    /// not match `config.num_threads`.
    #[must_use]
    pub fn new(config: SimConfig, traces: Vec<Box<dyn TraceSource>>) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid simulator config: {e}"));
        assert_eq!(
            traces.len(),
            config.num_threads,
            "need exactly one trace per hardware thread"
        );
        let threads = traces
            .into_iter()
            .map(|trace| ThreadContext::new(&config, trace))
            .collect();
        Processor {
            ap_fus: FuPool::new(config.ap_units, config.ap_latency),
            ep_fus: FuPool::new(config.ep_units, config.ep_latency),
            mem: MemorySystem::new(config.effective_mem()),
            arbiter: RoundRobin::new(config.num_threads),
            verdicts: vec![[Verdict::NONE; 2]; config.num_threads],
            reference_model: false,
            idle: false,
            retired: 0,
            perf: CorePerf::default(),
            threads,
            cycle: 0,
            ap_slots: UnitSlots::default(),
            ep_slots: UnitSlots::default(),
            perceived: PerceivedLatency::default(),
            loads: 0,
            stores: 0,
            fetched: FetchCounters::default(),
            scratch: Scratch {
                eligible: vec![false; config.num_threads],
                ..Scratch::default()
            },
            config,
        }
    }

    /// Creates a processor running the paper's multithreaded SPEC FP95
    /// workload: each thread executes a sequence of all ten benchmark
    /// traces, rotated per thread, with per-thread address spaces.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    #[must_use]
    pub fn with_spec_workload(config: SimConfig, seed: u64) -> Self {
        let workload = ThreadWorkload::spec_fp95(seed);
        Self::with_workload(config, &workload)
    }

    /// Creates a processor running the given [`ThreadWorkload`].
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    #[must_use]
    pub fn with_workload(config: SimConfig, workload: &ThreadWorkload) -> Self {
        let traces: Vec<Box<dyn TraceSource>> = workload
            .build(config.num_threads)
            .into_iter()
            .map(|t| Box::new(t) as Box<dyn TraceSource>)
            .collect();
        Self::new(config, traces)
    }

    /// The configuration this processor was built with.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The current simulated cycle.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Whether every thread has exhausted its trace and drained its
    /// pipeline.
    #[must_use]
    pub fn all_drained(&self) -> bool {
        self.threads.iter().all(ThreadContext::drained)
    }

    /// Scheduler-throughput counters accumulated so far (cycles skipped,
    /// skip windows). Not part of [`SimResults`]; see [`CorePerf`].
    #[must_use]
    pub fn perf(&self) -> &CorePerf {
        &self.perf
    }

    /// Each thread's commit-stream digest: [`fold_commit`] over its
    /// graduated instructions in graduation order, starting from
    /// [`COMMIT_DIGEST_BASIS`]. Kept in debug builds only.
    #[cfg(debug_assertions)]
    #[must_use]
    pub fn commit_digests(&self) -> Vec<u64> {
        self.threads.iter().map(|t| t.commit_digest).collect()
    }

    /// Switches to the naive reference scheduler: every window head is
    /// re-probed every cycle and stall windows are stepped cycle by cycle
    /// (no verdict replay, no fast-forward). Statistics must stay
    /// bit-identical to the event-driven default — differential tests pin
    /// this.
    pub fn set_reference_model(&mut self, enabled: bool) {
        self.reference_model = enabled;
    }

    /// Simulates one cycle.
    pub fn step(&mut self) {
        let cycle = self.cycle;
        self.mem.begin_cycle(cycle);
        let mut progress = self.retire(cycle);
        let start = self.arbiter.take_start();
        progress |= self.issue(Unit::Ap, start, cycle);
        progress |= self.issue(Unit::Ep, start, cycle);
        let (dispatched, fetchers) = self.dispatch();
        progress |= dispatched;
        progress |= fetchers > 0 && self.fetch(fetchers, cycle);
        self.idle = !progress;
        self.cycle += 1;
    }

    /// Runs until `max_instructions` have graduated (or every trace has
    /// drained) and returns the accumulated results. A safety-valve cycle
    /// cap stops the run early: even a pathologically stalled
    /// configuration retires at least one instruction every few hundred
    /// cycles, so the cap only guards against modelling bugs.
    pub fn run(&mut self, max_instructions: u64) -> SimResults {
        let cycle_cap = self.cycle + max_instructions.saturating_mul(64) + 100_000;
        while self.retired < max_instructions && self.cycle < cycle_cap && !self.all_drained() {
            self.advance(cycle_cap - self.cycle);
        }
        self.results()
    }

    /// Advances the simulation by at least one and at most `max_cycles`
    /// cycles, fast-forwarding through provably inactive stall windows.
    /// Statistics and architectural state are bit-identical to stepping
    /// cycle by cycle.
    fn advance(&mut self, max_cycles: u64) {
        if self.idle && max_cycles > 1 && !self.reference_model {
            if let Some(skipped) = self.try_fast_forward(max_cycles) {
                debug_assert!(skipped >= 2);
                return;
            }
        }
        self.step();
    }

    /// Attempts to batch-simulate a stall window starting at the current
    /// cycle. Succeeds only when the next `n >= 2` cycles are provably
    /// no-ops apart from per-cycle accounting:
    ///
    /// * no thread may fetch (buffer full, wrong path, branch limit, or
    ///   trace drained), and no branch resolves to change that;
    /// * no thread can dispatch (empty fetch buffer or a structural stall
    ///   that only retirement or issue could clear);
    /// * no ROB head has finished, so retirement does nothing;
    /// * every non-empty window head is blocked: by an operand with a
    ///   recorded ready cycle, by one whose producer has not issued or an
    ///   older overlapping store (neither can change while nothing issues
    ///   or retires), or by a memory access refused for want of an MSHR
    ///   (none frees before the oldest fill completes).
    ///
    /// The skip target is the earliest of the ROB heads' finish cycles,
    /// the branch FIFO fronts, the known ready cycles and the MSHR
    /// releases. Live verdicts the issue stage recorded are reused without
    /// touching the register files, and any head probed fresh here is
    /// recorded for the issue stage in turn.
    ///
    /// On success it replays the per-cycle bookkeeping those `n` steps
    /// would have performed — issue-slot attribution (rotation-exact),
    /// perceived-latency stalls, MSHR refusals, arbiter rotation — and
    /// jumps the clock. Returns the number of cycles skipped.
    fn try_fast_forward(&mut self, max_cycles: u64) -> Option<u64> {
        let cycle = self.cycle;
        let max_unresolved = self.config.max_unresolved_branches;
        // Exclusive upper bound on the cycles we may skip.
        let mut wake = cycle.checked_add(max_cycles)?;
        // This cycle's MSHR releases decide which accesses are refused.
        self.mem.begin_cycle(cycle);
        self.scratch.unbounded.clear();
        let mut refused = 0u64;

        let n_threads = self.threads.len();
        for t in 0..n_threads {
            let thread = &self.threads[t];
            let done_at = thread.ring.head_done_at();
            if done_at <= cycle || thread.fetch_eligible(max_unresolved) {
                return None;
            }
            wake = wake.min(done_at);
            if let Some(&(_, resolve)) = thread.resolving.front() {
                wake = wake.min(resolve);
            }
            if let Some(pos) = thread.ring.dispatch_front() {
                if !thread.dispatch_blocked(thread.ring.get(pos)) {
                    return None;
                }
            }
            for (side, unit) in SIDES {
                let Some(&pos) = thread.window(unit).front() else {
                    continue;
                };
                let head = thread.ring.get(pos);
                let verdict = &mut self.verdicts[t][side];
                if cycle < verdict.until {
                    debug_assert_eq!(verdict.seq, head.seq, "verdict for a stale head");
                    wake = wake.min(verdict.until);
                    continue;
                }
                match probe_head(thread, head, cycle) {
                    // Record it, so the issue stage replays it whether or
                    // not the skip happens.
                    HeadProbe::Blocked {
                        cause,
                        until: Some(until),
                    } => {
                        *verdict = Verdict {
                            seq: head.seq,
                            until,
                            cause,
                        };
                        wake = wake.min(until);
                    }
                    HeadProbe::Blocked { cause, until: None } => {
                        self.scratch.unbounded.push((t, side, head.seq, cause));
                    }
                    HeadProbe::Ready => {
                        // Only an access the MSHRs refuse stays blocked.
                        if !head.is(Slot::MEM) {
                            return None;
                        }
                        let release = self.mem.mshr_wait(head.mem_addr)?;
                        wake = wake.min(release);
                        refused += 1;
                        let cause = BlockedCause {
                            kind: SlotUse::Other,
                            miss_class: None,
                        };
                        self.scratch.unbounded.push((t, side, head.seq, cause));
                    }
                }
            }
        }

        let skip = wake.saturating_sub(cycle);
        if skip < 2 {
            return None;
        }
        // The heads without a bound of their own stay blocked for exactly
        // this window.
        for &(t, side, seq, cause) in &self.scratch.unbounded {
            self.verdicts[t][side] = Verdict {
                seq,
                until: wake,
                cause,
            };
        }
        self.mem.replay_mshr_rejections(refused * skip);

        // Replay the accounting of `skip` idle cycles exactly. Every
        // non-empty window head carries a live verdict here and empty
        // windows carry none, so the live verdicts are the blocked list.
        // Slot-waste attribution rotates with the round-robin ordering;
        // rotation r is used ceil/floor(skip / n) times depending on its
        // offset from the current start.
        let start = self.arbiter.next_start();
        let mut kinds = std::mem::take(&mut self.scratch.blocked);
        for (side, slots_total) in [(0usize, self.config.ap_units), (1, self.config.ep_units)] {
            let slots = if side == 0 {
                &mut self.ap_slots
            } else {
                &mut self.ep_slots
            };
            kinds.clear();
            for v in &self.verdicts {
                let v = &v[side];
                if cycle < v.until {
                    kinds.push(v.cause.kind);
                    // Perceived-latency stalls accrue once per blocked head
                    // per cycle, independent of rotation.
                    match v.cause.miss_class {
                        Some(RegClass::Fp) => self.perceived.fp_stall_cycles += skip,
                        Some(RegClass::Int) => self.perceived.int_stall_cycles += skip,
                        None => {}
                    }
                }
            }
            if kinds.is_empty() {
                slots.record_n(SlotUse::WrongPathOrIdle, slots_total as u64 * skip);
                continue;
            }
            // `kinds` lists the blocked threads in ascending order; the
            // blocked list of a rotation starting at thread `first` begins
            // with the first blocked thread at or after `first`.
            let n = n_threads as u64;
            for rot in 0..n_threads {
                // Cycles in the window whose ordering starts at thread
                // `(start + rot) % n_threads`.
                let uses = skip / n + u64::from((rot as u64) < skip % n);
                if uses == 0 {
                    continue;
                }
                let first = (start + rot) % n_threads;
                let lead = self.verdicts[..first]
                    .iter()
                    .filter(|v| cycle < v[side].until)
                    .count();
                record_wasted(slots, &kinds, lead % kinds.len(), slots_total, uses);
            }
        }
        self.scratch.blocked = kinds;

        self.arbiter.advance(skip);
        self.cycle = wake;
        self.perf.busy_cycles_skipped += skip;
        self.perf.skip_windows += 1;
        Some(skip)
    }

    /// A snapshot of the statistics accumulated so far.
    #[must_use]
    pub fn results(&self) -> SimResults {
        let mem_stats = self.mem.stats();
        let (mut predictions, mut mispredictions) = (0u64, 0u64);
        for t in &self.threads {
            let s = t.predictor.stats();
            predictions += s.predictions;
            mispredictions += s.mispredictions;
        }
        let branch_accuracy = if predictions == 0 {
            1.0
        } else {
            1.0 - mispredictions as f64 / predictions as f64
        };
        SimResults {
            cycles: self.cycle,
            instructions: self.retired,
            per_thread_instructions: self.threads.iter().map(|t| t.retired).collect(),
            ap_slots: self.ap_slots,
            ep_slots: self.ep_slots,
            perceived: self.perceived,
            mem: mem_stats,
            bus_utilization: self.mem.bus_utilization(self.cycle.max(1)),
            branch_accuracy,
            loads: self.loads,
            stores: self.stores,
            branches: self.fetched.branches,
            mispredictions: self.fetched.mispredictions,
        }
    }

    // ------------------------------------------------------------------
    // Pipeline stages
    // ------------------------------------------------------------------

    /// Per thread: resolves the conditional branches that finish by
    /// `cycle` (each one frees an unresolved-branch slot, and a mispredicted
    /// one lets its thread fetch again), then graduates up to
    /// `retire_width` completed instructions. Returns whether any
    /// graduated.
    fn retire(&mut self, cycle: u64) -> bool {
        let width = self.config.retire_width;
        let before = self.retired;
        for thread in &mut self.threads {
            while let Some(&(seq, resolve)) = thread.resolving.front() {
                if resolve > cycle {
                    break;
                }
                thread.resolving.pop();
                thread.unresolved_branches -= 1;
                if thread.blocked_on_mispredict == Some(seq) {
                    thread.blocked_on_mispredict = None;
                }
            }
            let mut n = 0;
            while n < width && thread.ring.head_done_at() <= cycle {
                let head = *thread.ring.rob_head().expect("a completed head exists");
                #[cfg(debug_assertions)]
                {
                    thread.commit_digest = fold_commit(thread.commit_digest, &head.committed());
                }
                if head.is(Slot::REAL_DEST) {
                    thread.regs_mut(head.dest_class()).release(head.prev_dest);
                }
                if head.is(Slot::STORE) {
                    // Stores graduate in SAQ order; drop the oldest entry.
                    let popped = thread.saq.pop();
                    debug_assert!(popped.is_some(), "store graduated without a SAQ entry");
                }
                thread.ring.retire_head();
                n += 1;
            }
            thread.retired += n as u64;
            self.retired += n as u64;
        }
        self.retired != before
    }

    /// Issues from the windows for `unit`, visiting the threads in
    /// round-robin order from `start`. Returns whether anything issued.
    fn issue(&mut self, unit: Unit, start: usize, cycle: u64) -> bool {
        let (side, slots_total) = match unit {
            Unit::Ap => (0usize, self.config.ap_units),
            Unit::Ep => (1usize, self.config.ep_units),
        };
        let mut used = 0usize;
        let mut blocked = std::mem::take(&mut self.scratch.blocked);
        blocked.clear();

        let n_threads = self.threads.len();
        'threads: for i in 0..n_threads {
            let t = if start + i < n_threads {
                start + i
            } else {
                start + i - n_threads
            };
            loop {
                if used >= slots_total {
                    break 'threads;
                }
                // O(1) replay: a live verdict means the head is provably
                // blocked — no window or register-file reads.
                let verdict = &mut self.verdicts[t][side];
                let cause = if cycle < verdict.until && !self.reference_model {
                    debug_assert_eq!(
                        self.threads[t]
                            .window(unit)
                            .front()
                            .map(|&pos| self.threads[t].ring.get(pos).seq),
                        Some(verdict.seq),
                        "stale verdict"
                    );
                    verdict.cause
                } else {
                    let thread = &self.threads[t];
                    let Some(&pos) = thread.window(unit).front() else {
                        break;
                    };
                    let head = thread.ring.get(pos);
                    match probe_head(thread, head, cycle) {
                        HeadProbe::Ready => match self.issue_head(t, unit, pos, cycle) {
                            Ok(()) => {
                                used += 1;
                                continue;
                            }
                            Err(kind) => {
                                blocked.push(kind);
                                break;
                            }
                        },
                        HeadProbe::Blocked { cause, until } => {
                            // Keep the verdict when the bound is known.
                            if let (Some(until), false) = (until, self.reference_model) {
                                *verdict = Verdict {
                                    seq: head.seq,
                                    until,
                                    cause,
                                };
                            }
                            cause
                        }
                    }
                };
                // Perceived-latency accounting: the head cannot issue
                // although an issue slot is free, because it waits on data
                // from a load that missed.
                match cause.miss_class {
                    Some(RegClass::Fp) => self.perceived.fp_stall_cycles += 1,
                    Some(RegClass::Int) => self.perceived.int_stall_cycles += 1,
                    None => {}
                }
                blocked.push(cause.kind);
                break;
            }
        }

        let slots = match unit {
            Unit::Ap => &mut self.ap_slots,
            Unit::Ep => &mut self.ep_slots,
        };
        slots.record_n(SlotUse::Useful, used as u64);
        let wasted = slots_total - used;
        if blocked.is_empty() {
            // Nothing was even available to consider: fetch starvation after
            // a misprediction, empty windows, or exhausted threads.
            slots.record_n(SlotUse::WrongPathOrIdle, wasted as u64);
        } else {
            // Attribute the wasted slots to the stall causes of the oldest
            // non-issuable instructions, round-robin when several threads
            // were blocked for different reasons.
            record_wasted(slots, &blocked, 0, wasted, 1);
        }
        self.scratch.blocked = blocked;
        used > 0
    }

    /// Issues the head instruction (ring position `pos`) of thread `t`'s
    /// window for `unit`. Returns `Err` with a stall classification when a
    /// structural hazard (cache port, MSHR, functional unit) prevents issue
    /// after all.
    fn issue_head(&mut self, t: usize, unit: Unit, pos: u32, cycle: u64) -> Result<(), SlotUse> {
        let head: Slot = *self.threads[t].ring.get(pos);

        // Memory access first: it may be rejected for structural reasons, in
        // which case the instruction stays at the head and retries.
        let mut mem_outcome: Option<(bool, u64)> = None;
        if head.is(Slot::MEM) {
            let kind = if head.is(Slot::LOAD) {
                AccessKind::Load
            } else {
                AccessKind::Store
            };
            match self.mem.try_access(cycle, head.mem_addr, kind) {
                AccessResponse::Done { hit, ready_cycle } => {
                    mem_outcome = Some((hit, ready_cycle));
                }
                AccessResponse::NoPort | AccessResponse::NoMshr => return Err(SlotUse::Other),
            }
        }

        let fu_done = {
            let fus = match unit {
                Unit::Ap => &mut self.ap_fus,
                Unit::Ep => &mut self.ep_fus,
            };
            match fus.try_issue(cycle) {
                Some(done) => done,
                None => return Err(SlotUse::Other),
            }
        };
        let completion = match mem_outcome {
            Some((_, mem_ready)) => mem_ready.max(fu_done),
            None => fu_done,
        };

        let thread = &mut self.threads[t];
        if head.is(Slot::REAL_DEST) {
            let class = head.dest_class();
            thread
                .regs_mut(class)
                .set_ready_cycle(head.phys_dest, completion);
            if head.is(Slot::LOAD) {
                let missed = !mem_outcome.expect("load issued without memory outcome").0;
                thread.flags_mut(class).set_load(head.phys_dest, missed);
            }
        }
        thread.window_mut(unit).pop();
        thread.ring.complete_at(pos, completion);
        if head.is(Slot::COND_BRANCH) {
            debug_assert!(
                thread.resolving.iter().all(|&(_, r)| r <= completion),
                "branches resolve out of order"
            );
            thread
                .resolving
                .push((head.seq, completion))
                .expect("at most max_unresolved_branches are in flight");
        }

        if head.is(Slot::LOAD) {
            self.loads += 1;
            if !mem_outcome.expect("load issued without memory outcome").0 {
                match head.op {
                    OpClass::LoadFp => self.perceived.fp_load_misses += 1,
                    OpClass::LoadInt => self.perceived.int_load_misses += 1,
                    _ => unreachable!("the load bit covers exactly the two load classes"),
                }
            }
        } else if head.is(Slot::STORE) {
            self.stores += 1;
        }

        Ok(())
    }

    /// Renames and dispatches up to `dispatch_width` fetched instructions
    /// per thread into their windows, then records whether each thread may
    /// fetch this cycle (nothing between here and fetch changes that).
    /// Returns whether any instruction dispatched and how many threads may
    /// fetch.
    fn dispatch(&mut self) -> (bool, usize) {
        let width = self.config.dispatch_width;
        let max_unresolved = self.config.max_unresolved_branches;
        let mut progress = false;
        let mut fetchers = 0;
        for (thread, eligible) in self.threads.iter_mut().zip(&mut self.scratch.eligible) {
            let mut dispatched = 0usize;
            while dispatched < width {
                let Some(pos) = thread.ring.dispatch_front() else {
                    break;
                };
                let slot = *thread.ring.get(pos);
                // Structural checks: ROB, target window, SAQ, rename registers.
                if thread.dispatch_blocked(&slot) {
                    break;
                }

                // Rename sources (current mappings), then the destination.
                let mut phys_src = [NO_REG; 2];
                for (phys, &src) in phys_src.iter_mut().zip(&slot.src) {
                    if src.is_renamed() {
                        *phys = thread.regs(src.class()).lookup(src.index());
                    }
                }
                let (mut phys_dest, mut prev_dest) = (NO_REG, NO_REG);
                if slot.is(Slot::REAL_DEST) {
                    let class = slot.dest_class();
                    let outcome = thread
                        .regs_mut(class)
                        .rename_dest(slot.dest.index())
                        .expect("rename availability was checked");
                    thread.flags_mut(class).clear(outcome.new);
                    phys_dest = outcome.new;
                    prev_dest = outcome.previous;
                }
                let renamed = thread.ring.get_mut(pos);
                renamed.phys_src = phys_src;
                renamed.phys_dest = phys_dest;
                renamed.prev_dest = prev_dest;

                if slot.is(Slot::STORE) {
                    thread
                        .saq
                        .push(SaqEntry {
                            seq: slot.seq,
                            addr: slot.mem_addr,
                            size: slot.mem_size,
                        })
                        .expect("SAQ fullness was checked");
                }
                thread
                    .window_mut(slot.unit())
                    .push(pos)
                    .expect("window fullness was checked");
                thread.ring.dispatch_one();
                dispatched += 1;
            }
            progress |= dispatched > 0;
            *eligible = thread.fetch_eligible(max_unresolved);
            fetchers += usize::from(*eligible);
        }
        (progress, fetchers)
    }

    /// Fetches for the threads the fetch policy picks among the `fetchers`
    /// the dispatch stage found eligible. Returns whether anything was
    /// fetched.
    ///
    /// The policy only decides anything when more threads are eligible than
    /// it picks: otherwise every eligible thread fetches, and their order
    /// cannot matter, since fetch state is per thread and the branch
    /// counters are sums.
    fn fetch(&mut self, fetchers: usize, cycle: u64) -> bool {
        let per_cycle = self.config.fetch_threads_per_cycle;
        let (width, max_unresolved) =
            (self.config.fetch_width, self.config.max_unresolved_branches);
        let mut progress = false;
        if fetchers <= per_cycle {
            for (thread, &eligible) in self.threads.iter_mut().zip(&self.scratch.eligible) {
                if eligible {
                    progress |= fetch_group(thread, width, max_unresolved, &mut self.fetched);
                }
            }
            return progress;
        }
        let scratch = &mut self.scratch;
        scratch.pending.clear();
        scratch
            .pending
            .extend(self.threads.iter().map(|t| t.ring.fetch_len()));
        match self.config.fetch_policy {
            crate::FetchPolicy::ICount => icount_pick_into(
                &scratch.pending,
                &scratch.eligible,
                per_cycle,
                cycle as usize,
                &mut scratch.picks,
            ),
            crate::FetchPolicy::RoundRobin => round_robin_pick_into(
                &scratch.eligible,
                per_cycle,
                cycle as usize,
                &mut scratch.picks,
            ),
        }
        for &t in &scratch.picks {
            progress |= fetch_group(
                &mut self.threads[t],
                width,
                max_unresolved,
                &mut self.fetched,
            );
        }
        progress
    }
}

/// Branch counters the fetch stage accumulates over all threads.
#[derive(Debug, Clone, Copy, Default)]
struct FetchCounters {
    branches: u64,
    mispredictions: u64,
}

/// Fetches one group of up to `width` instructions for `thread`, ending
/// it at the first taken or mispredicted branch or other control
/// transfer. Returns whether anything was fetched.
fn fetch_group(
    thread: &mut ThreadContext,
    width: usize,
    max_unresolved: usize,
    counters: &mut FetchCounters,
) -> bool {
    let mut progress = false;
    for _ in 0..width {
        if thread.ring.fetch_full() || thread.unresolved_branches >= max_unresolved {
            break;
        }
        let Some(inst) = thread.trace.next_instruction() else {
            thread.trace_done = true;
            break;
        };
        let seq = thread.ring.next_seq();
        thread.ring.push_fetched(&inst);
        progress = true;
        let mut stop_group = false;
        if inst.op.is_cond_branch() {
            let actual = inst.branch.map(|b| b.taken).unwrap_or(false);
            let correct = thread.predictor.predict_and_train(inst.pc, actual);
            thread.unresolved_branches += 1;
            counters.branches += 1;
            if !correct {
                counters.mispredictions += 1;
                // Fetch continues down the wrong path (useless work)
                // until the branch resolves: model it by blocking
                // fetch for this thread until resolution.
                thread.blocked_on_mispredict = Some(seq);
                stop_group = true;
            }
            if actual {
                // Fetch groups end at the first taken branch.
                stop_group = true;
            }
        } else if inst.op.is_control() {
            stop_group = true;
        }
        if stop_group {
            break;
        }
    }
    progress
}

/// Decides whether the head of an in-order window can issue this cycle, and
/// if not, why.
fn probe_head(thread: &ThreadContext, head: &Slot, cycle: u64) -> HeadProbe {
    // Store data (src1 of a store) is consumed at graduation, not at
    // issue: it never gates the AP.
    let first_gating = usize::from(head.is(Slot::STORE));
    for (src, &phys) in head.src.iter().zip(&head.phys_src).skip(first_gating) {
        if phys == NO_REG {
            continue;
        }
        let class = src.class();
        let ready_cycle = thread.regs(class).ready_cycle(phys);
        if ready_cycle > cycle {
            let (from_load, load_missed) = thread.flags(class).load(phys);
            return HeadProbe::Blocked {
                cause: BlockedCause {
                    kind: if from_load {
                        SlotUse::WaitMemory
                    } else {
                        SlotUse::WaitFu
                    },
                    miss_class: load_missed.then_some(class),
                },
                // A finite ready cycle never moves once recorded (the
                // producer has issued, and the physical register cannot be
                // re-renamed while this instruction still references it),
                // so the head is provably blocked for this exact reason
                // until then.
                until: (ready_cycle != u64::MAX).then_some(ready_cycle),
            };
        }
    }
    if head.is(Slot::LOAD) && thread.load_blocked_by_store(head.seq, &head.mem()) {
        return HeadProbe::Blocked {
            cause: BlockedCause {
                kind: SlotUse::Other,
                miss_class: None,
            },
            // Cleared by a store graduating: not known in advance.
            until: None,
        };
    }
    HeadProbe::Ready
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsmt_isa::{ArchReg, BranchInfo, Instruction};
    use dsmt_trace::{BenchmarkProfile, SyntheticTrace, VecTrace};

    fn single_thread_config() -> SimConfig {
        SimConfig::paper_multithreaded(1)
    }

    fn boxed(trace: VecTrace) -> Vec<Box<dyn TraceSource>> {
        vec![Box::new(trace) as Box<dyn TraceSource>]
    }

    /// A tiny independent-ALU kernel: every instruction writes a different
    /// register with no dependences, so nothing should ever stall.
    fn independent_alu_kernel(n: usize) -> VecTrace {
        let insts = (0..n)
            .map(|i| {
                Instruction::new(i as u64 * 4, OpClass::IntAlu)
                    .with_dest(ArchReg::int((i % 8 + 1) as u8))
                    .with_src1(ArchReg::int(16))
            })
            .collect();
        VecTrace::new("alu", insts)
    }

    #[test]
    fn empty_trace_drains_immediately() {
        let mut cpu = Processor::new(single_thread_config(), boxed(VecTrace::new("e", vec![])));
        let r = cpu.run(1000);
        assert_eq!(r.instructions, 0);
        assert!(cpu.all_drained());
    }

    #[test]
    fn independent_alu_retires_everything() {
        let mut cpu = Processor::new(single_thread_config(), boxed(independent_alu_kernel(1000)));
        let r = cpu.run(10_000);
        assert_eq!(r.instructions, 1000);
        // 4 AP units, no dependences: IPC should approach 4.
        assert!(r.ipc() > 2.5, "IPC was {}", r.ipc());
        // Everything is an AP instruction; the EP should be completely idle.
        assert_eq!(r.ep_slots.useful, 0);
        assert!(r.ap_slots.useful >= 1000);
    }

    #[test]
    fn dependent_fp_chain_is_limited_by_ep_latency() {
        // A single serial FP chain: IPC cannot exceed 1/ep_latency on the EP
        // side, and the whole program is EP-bound.
        let n = 400;
        let insts: Vec<Instruction> = (0..n)
            .map(|i| {
                Instruction::new(i as u64 * 4, OpClass::FpAdd)
                    .with_dest(ArchReg::fp(1))
                    .with_src1(ArchReg::fp(1))
                    .with_src2(ArchReg::fp(2))
            })
            .collect();
        let mut cpu = Processor::new(single_thread_config(), boxed(VecTrace::new("chain", insts)));
        let r = cpu.run(10_000);
        assert_eq!(r.instructions, n as u64);
        let ipc = r.ipc();
        assert!(ipc < 0.35, "serial chain IPC should be ~0.25, was {ipc}");
        assert!(
            r.ep_slots.wait_fu > r.ep_slots.useful,
            "most EP slots should be lost waiting on FU results"
        );
    }

    #[test]
    fn load_miss_latency_is_exposed_without_decoupling_hidden_with_it() {
        // One load followed (far later in the EP stream) by its consumer:
        // with a deep IQ the consumer is reached long after the data
        // arrives; with the IQ disabled the consumer waits.
        let make_trace = || {
            let mut insts = Vec::new();
            for k in 0..200u64 {
                // A streaming load: one miss per 32-byte line (every 4th load),
                // so outstanding misses stay well below the MSHR limit.
                insts.push(
                    Instruction::new(0x1000 + k * 4, OpClass::LoadFp)
                        .with_dest(ArchReg::fp((1 + (k % 8)) as u8))
                        .with_src1(ArchReg::int(1))
                        .with_mem(0x10_0000 + k * 8, 8),
                );
                // Independent AP work to keep the AP busy (writing the zero
                // register so the AP free list never throttles dispatch —
                // this test isolates the effect of the instruction queue).
                for j in 0..4u64 {
                    insts.push(
                        Instruction::new(0x2000 + j * 4, OpClass::IntAlu)
                            .with_dest(ArchReg::int(31))
                            .with_src1(ArchReg::int(16)),
                    );
                }
                // EP consumer of the load plus some EP work.
                insts.push(
                    Instruction::new(0x3000 + k * 4, OpClass::FpAdd)
                        .with_dest(ArchReg::fp(20))
                        .with_src1(ArchReg::fp(20))
                        .with_src2(ArchReg::fp((1 + (k % 8)) as u8)),
                );
            }
            VecTrace::new("loads", insts)
        };
        let decoupled_cfg = single_thread_config().with_l2_latency(64);
        let non_decoupled_cfg = decoupled_cfg.clone().with_decoupled(false);

        let r_dec = Processor::new(decoupled_cfg, boxed(make_trace())).run(10_000);
        let r_non = Processor::new(non_decoupled_cfg, boxed(make_trace())).run(10_000);

        // 200 loads streaming over 50 distinct 32-byte lines: 50 primary misses.
        assert!(r_dec.perceived.fp_load_misses >= 40);
        assert!(r_non.perceived.fp_load_misses >= 40);
        assert!(
            r_dec.perceived.fp() < r_non.perceived.fp(),
            "decoupling must hide more latency: dec {} vs non {}",
            r_dec.perceived.fp(),
            r_non.perceived.fp()
        );
        assert!(r_dec.ipc() > r_non.ipc());
    }

    #[test]
    fn branch_mispredictions_cost_fetch_cycles() {
        // Alternating taken/not-taken branches defeat the 2-bit predictor.
        let mut insts = Vec::new();
        for k in 0..500u64 {
            insts.push(
                Instruction::new(0x100, OpClass::CondBranch)
                    .with_src1(ArchReg::int(1))
                    .with_branch(BranchInfo::new(k % 2 == 0, 0x100)),
            );
            insts.push(
                Instruction::new(0x104 + k * 4, OpClass::IntAlu)
                    .with_dest(ArchReg::int(2))
                    .with_src1(ArchReg::int(16)),
            );
        }
        let mut cpu = Processor::new(single_thread_config(), boxed(VecTrace::new("br", insts)));
        let r = cpu.run(10_000);
        assert!(r.branch_accuracy < 0.8, "accuracy {}", r.branch_accuracy);
        assert!(r.mispredictions > 100);
        assert!(
            r.ap_slots.wrong_path_or_idle > 0,
            "mispredictions must show up as idle slots"
        );
    }

    #[test]
    fn store_load_conflict_blocks_until_graduation() {
        // A store followed immediately by a load of the same address: the
        // load must wait for the store to leave the SAQ.
        let insts = vec![
            Instruction::new(0x0, OpClass::StoreFp)
                .with_src1(ArchReg::fp(1))
                .with_src2(ArchReg::int(1))
                .with_mem(0x8000, 8),
            Instruction::new(0x4, OpClass::LoadFp)
                .with_dest(ArchReg::fp(2))
                .with_src1(ArchReg::int(1))
                .with_mem(0x8000, 8),
        ];
        let mut cpu = Processor::new(single_thread_config(), boxed(VecTrace::new("st-ld", insts)));
        let r = cpu.run(100);
        assert_eq!(r.instructions, 2);
        assert!(
            r.ap_slots.other > 0,
            "the blocked load must show as 'other'"
        );
    }

    #[test]
    fn multithreading_increases_throughput_on_ep_bound_code() {
        // EP-bound synthetic benchmark: one thread cannot fill 4 EP units,
        // four threads nearly can.
        let profile = BenchmarkProfile::baseline("epbound");
        let run = |threads: usize| {
            let cfg = SimConfig::paper_multithreaded(threads);
            let traces: Vec<Box<dyn TraceSource>> = (0..threads)
                .map(|t| {
                    Box::new(SyntheticTrace::with_offset(
                        &profile,
                        7,
                        t as u64 * (0x0800_0000 + 0x1_a000),
                    )) as Box<dyn TraceSource>
                })
                .collect();
            Processor::new(cfg, traces).run(40_000).ipc()
        };
        let one = run(1);
        let four = run(4);
        assert!(one > 1.0, "single-thread IPC {one}");
        assert!(four > 1.7 * one, "4-thread IPC {four} vs 1-thread {one}");
        assert!(four < 8.0);
    }

    #[test]
    fn slot_accounting_is_conserved() {
        let cfg = SimConfig::paper_multithreaded(2);
        let mut cpu = Processor::with_spec_workload(cfg.clone(), 3);
        let r = cpu.run(30_000);
        assert_eq!(r.ap_slots.total(), r.cycles * cfg.ap_units as u64);
        assert_eq!(r.ep_slots.total(), r.cycles * cfg.ep_units as u64);
        assert!(r.instructions >= 30_000);
        // Useful slots must equal issued instructions (every retired
        // instruction issued exactly once, plus those still in flight).
        assert!(r.ap_slots.useful + r.ep_slots.useful >= r.instructions);
    }

    #[test]
    fn results_snapshot_is_stable_between_runs() {
        let cfg = SimConfig::paper_multithreaded(2);
        let a = Processor::with_spec_workload(cfg.clone(), 11).run(20_000);
        let b = Processor::with_spec_workload(cfg, 11).run(20_000);
        assert_eq!(a, b, "simulation must be deterministic");
    }

    /// Not a correctness test: prints a breakdown used while calibrating the
    /// model. Run with `cargo test -p dsmt-core diag -- --ignored --nocapture`.
    #[test]
    #[ignore = "diagnostic output only"]
    fn diag_thread_scaling_breakdown() {
        for threads in [1usize, 2, 3, 4, 6] {
            let cfg = SimConfig::paper_multithreaded(threads);
            let r = Processor::with_spec_workload(cfg, 42).run(120_000);
            println!(
                "threads={threads} ipc={:.2} ap(useful/mem/fu/idle/other)={:.2}/{:.2}/{:.2}/{:.2}/{:.2} \
                 ep={:.2}/{:.2}/{:.2}/{:.2}/{:.2} ld_miss={:.3} st_miss={:.3} bus={:.2} \
                 perc_fp={:.1} perc_int={:.1} acc={:.2}",
                r.ipc(),
                r.ap_slots.fraction(SlotUse::Useful),
                r.ap_slots.fraction(SlotUse::WaitMemory),
                r.ap_slots.fraction(SlotUse::WaitFu),
                r.ap_slots.fraction(SlotUse::WrongPathOrIdle),
                r.ap_slots.fraction(SlotUse::Other),
                r.ep_slots.fraction(SlotUse::Useful),
                r.ep_slots.fraction(SlotUse::WaitMemory),
                r.ep_slots.fraction(SlotUse::WaitFu),
                r.ep_slots.fraction(SlotUse::WrongPathOrIdle),
                r.ep_slots.fraction(SlotUse::Other),
                r.load_miss_ratio(),
                r.store_miss_ratio(),
                r.bus_utilization,
                r.perceived.fp(),
                r.perceived.int(),
                r.branch_accuracy,
            );
        }
    }

    #[test]
    #[should_panic(expected = "one trace per hardware thread")]
    fn wrong_trace_count_panics() {
        let _ = Processor::new(
            SimConfig::paper_multithreaded(2),
            boxed(VecTrace::new("x", vec![])),
        );
    }

    #[test]
    #[should_panic(expected = "invalid simulator config")]
    fn invalid_config_panics() {
        let mut cfg = SimConfig::paper_multithreaded(1);
        cfg.ap_units = 0;
        let _ = Processor::new(cfg, boxed(VecTrace::new("x", vec![])));
    }
}
