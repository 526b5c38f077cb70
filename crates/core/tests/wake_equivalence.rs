//! Differential tests: the event-driven scheduler (blocked-head verdict
//! replay + stall fast-forward) against the naive reference model that
//! re-probes every window head every cycle and never skips
//! ([`Processor::set_reference_model`]).
//!
//! A verdict `{seq, until, cause}` is a pure performance cache: while
//! `cycle < until` it replays exactly what a fresh probe would conclude,
//! and a skip window replays exactly the per-cycle accounting stepping
//! would have performed. Every field of [`SimResults`] must therefore
//! match bit-for-bit — same issue order, same slot attribution, same
//! perceived-latency stalls, same MSHR refusals — across thread counts,
//! decoupling, L2 latencies, memory and functional-unit shapes, and seeds.

use dsmt_core::{Processor, SimConfig, SimResults};
use dsmt_isa::{ArchReg, Instruction, OpClass};
use dsmt_trace::{TraceSource, VecTrace};
use proptest::prelude::*;

fn assert_results_match(event_driven: &SimResults, reference: &SimResults) {
    assert_eq!(event_driven.cycles, reference.cycles, "cycles");
    assert_eq!(
        event_driven.instructions, reference.instructions,
        "instructions"
    );
    assert_eq!(
        event_driven.per_thread_instructions, reference.per_thread_instructions,
        "per_thread_instructions"
    );
    assert_eq!(event_driven.ap_slots, reference.ap_slots, "ap_slots");
    assert_eq!(event_driven.ep_slots, reference.ep_slots, "ep_slots");
    assert_eq!(event_driven.perceived, reference.perceived, "perceived");
    assert_eq!(event_driven.mem, reference.mem, "mem");
    assert_eq!(
        event_driven.bus_utilization.to_bits(),
        reference.bus_utilization.to_bits(),
        "bus_utilization"
    );
    assert_eq!(
        event_driven.branch_accuracy.to_bits(),
        reference.branch_accuracy.to_bits(),
        "branch_accuracy"
    );
    assert_eq!(event_driven.loads, reference.loads, "loads");
    assert_eq!(event_driven.stores, reference.stores, "stores");
    assert_eq!(event_driven.branches, reference.branches, "branches");
    assert_eq!(
        event_driven.mispredictions, reference.mispredictions,
        "mispredictions"
    );
}

/// Runs two processors from `build` for `budget` instructions, one
/// event-driven and one on the reference model, and asserts their results
/// match. Returns the event-driven results and its skipped cycles.
fn check_against_reference(build: impl Fn() -> Processor, budget: u64) -> (SimResults, u64) {
    let mut fast = build();
    let event_driven = fast.run(budget);
    let mut naive = build();
    naive.set_reference_model(true);
    let reference = naive.run(budget);
    // The reference model must actually be the naive one: it steps every
    // cycle, so it can never report a skip.
    assert_eq!(naive.perf().busy_cycles_skipped, 0);
    assert_results_match(&event_driven, &reference);
    (event_driven, fast.perf().busy_cycles_skipped)
}

/// A single-thread processor at a 256-cycle L2 running `insts`.
fn single_thread(insts: &[Instruction]) -> Processor {
    let cfg = SimConfig::paper_multithreaded(1).with_l2_latency(256);
    let trace = Box::new(VecTrace::new("kernel", insts.to_vec())) as Box<dyn TraceSource>;
    Processor::new(cfg, vec![trace])
}

/// The stall-heavy single-thread long-miss shape (the configuration where
/// both the verdict replay and the idle-skip fire constantly).
#[test]
fn event_driven_matches_reference_on_stall_heavy_config() {
    let cfg = SimConfig::paper_single_thread_4wide().with_l2_latency(256);
    check_against_reference(|| Processor::with_spec_workload(cfg.clone(), 99), 12_000);
}

/// The multithreaded arbitration shape (rotation-exact slot attribution
/// across a 4-way round-robin).
#[test]
fn event_driven_matches_reference_on_multithreaded_config() {
    let cfg = SimConfig::paper_multithreaded(4)
        .with_l2_latency(64)
        .with_queue_scaling(true);
    check_against_reference(|| Processor::with_spec_workload(cfg.clone(), 1234), 20_000);
}

/// The event-driven path must actually engage on a stall-heavy run —
/// otherwise the equivalence above is vacuous.
#[test]
fn event_driven_path_actually_skips() {
    let cfg = SimConfig::paper_single_thread_4wide().with_l2_latency(256);
    let mut cpu = Processor::with_spec_workload(cfg, 99);
    let _ = cpu.run(12_000);
    assert!(
        cpu.perf().busy_cycles_skipped > 0,
        "stall fast-forward never fired on a 256-cycle-L2 run"
    );
    assert!(cpu.perf().skip_windows > 0);
}

/// Two threads against two MSHRs at a 256-cycle L2: most idle cycles have
/// a load or store at an AP head that the full MSHR file refuses. The
/// fast-forward must skip those windows and replay every refusal.
#[test]
fn mshr_refusals_are_skipped_and_replayed() {
    let mut cfg = SimConfig::paper_multithreaded(2).with_l2_latency(256);
    cfg.mem.l1d.mshrs = 2;
    let (results, skipped) =
        check_against_reference(|| Processor::with_spec_workload(cfg.clone(), 5), 4_000);
    assert!(results.mem.mshr_full_rejections > results.cycles);
    assert!(
        skipped * 10 > results.cycles * 8,
        "only {skipped} of {} cycles skipped",
        results.cycles
    );
}

/// An EP consumer of an FP load whose address comes from an integer load
/// that misses: while the miss is outstanding the FP load waits at the AP
/// head and the consumer's producer has not issued, so the consumer has no
/// bound of its own. The fast-forward must still skip the miss.
#[test]
fn consumer_of_an_unissued_producer_is_skipped() {
    let mut insts = Vec::new();
    for k in 0..8u64 {
        let line = 0x10_0000 + k * 0x1000;
        insts.push(
            Instruction::new(0x100, OpClass::LoadInt)
                .with_dest(ArchReg::int(1))
                .with_src1(ArchReg::int(2))
                .with_mem(line, 8),
        );
        insts.push(
            Instruction::new(0x104, OpClass::LoadFp)
                .with_dest(ArchReg::fp(1))
                .with_src1(ArchReg::int(1))
                .with_mem(line + 8, 8),
        );
        insts.push(
            Instruction::new(0x108, OpClass::FpAdd)
                .with_dest(ArchReg::fp(2))
                .with_src1(ArchReg::fp(1))
                .with_src2(ArchReg::fp(2)),
        );
    }
    let (results, skipped) = check_against_reference(|| single_thread(&insts), 1_000);
    assert_eq!(results.instructions, 24);
    assert!(skipped > 8 * 200, "only {skipped} cycles skipped");
}

/// A load behind an older overlapping store that misses: the load waits
/// until the store graduates, which no operand's ready cycle states. The
/// fast-forward must skip to the store's completion.
#[test]
fn load_behind_an_overlapping_store_is_skipped() {
    let mut insts = Vec::new();
    for k in 0..8u64 {
        let addr = 0x20_0000 + k * 0x1000;
        insts.push(
            Instruction::new(0x200, OpClass::StoreInt)
                .with_src1(ArchReg::int(3))
                .with_src2(ArchReg::int(2))
                .with_mem(addr, 8),
        );
        insts.push(
            Instruction::new(0x204, OpClass::LoadInt)
                .with_dest(ArchReg::int(4))
                .with_src1(ArchReg::int(2))
                .with_mem(addr, 8),
        );
    }
    let (results, skipped) = check_against_reference(|| single_thread(&insts), 1_000);
    assert_eq!(results.instructions, 16);
    assert!(skipped > 8 * 200, "only {skipped} cycles skipped");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random machine shapes × seeds: the verdict-replay scheduler and the
    /// naive every-cycle re-probe model produce bit-identical results.
    #[test]
    fn event_driven_scheduler_matches_naive_reprobe(
        threads in 1usize..5,
        l2_pick in 0usize..3,
        decoupled in prop::bool::ANY,
        queue_scaling in prop::bool::ANY,
        seed in 0u64..1_000,
    ) {
        let l2 = [16u64, 64, 256][l2_pick];
        let cfg = SimConfig::paper_multithreaded(threads)
            .with_l2_latency(l2)
            .with_decoupled(decoupled)
            .with_queue_scaling(queue_scaling);
        check_against_reference(|| Processor::with_spec_workload(cfg.clone(), seed), 6_000);
    }

    /// Random MSHR counts, D-cache ports and unit splits: MSHR refusals
    /// (checked after the port limit) and the fast-forward's replay of
    /// them match the naive model. With fewer ports than AP units, port
    /// refusals and MSHR refusals meet in one cycle.
    #[test]
    fn event_driven_matches_reference_across_memory_shapes(
        threads in 1usize..5,
        l2_pick in 0usize..3,
        mshrs in 1usize..9,
        ports in 1usize..5,
        ap_units in 1usize..7,
        ep_units in 1usize..5,
        decoupled in prop::bool::ANY,
        seed in 0u64..1_000,
    ) {
        let mut cfg = SimConfig::paper_multithreaded(threads)
            .with_l2_latency([16u64, 64, 256][l2_pick])
            .with_decoupled(decoupled);
        cfg.mem.l1d.mshrs = mshrs;
        cfg.mem.l1d.ports = ports;
        cfg.ap_units = ap_units;
        cfg.ep_units = ep_units;
        check_against_reference(|| Processor::with_spec_workload(cfg.clone(), seed), 4_000);
    }
}
