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
//! perceived-latency stalls — across thread counts, decoupling, L2
//! latencies and seeds.

use dsmt_core::{Processor, SimConfig, SimResults};
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

fn run_both(cfg: &SimConfig, seed: u64, budget: u64) -> (SimResults, SimResults) {
    let mut fast = Processor::with_spec_workload(cfg.clone(), seed);
    let event_driven = fast.run(budget);
    let mut naive = Processor::with_spec_workload(cfg.clone(), seed);
    naive.set_reference_model(true);
    let reference = naive.run(budget);
    // The reference model must actually be the naive one: it steps every
    // cycle, so it can never report a skip.
    assert_eq!(naive.perf().busy_cycles_skipped, 0);
    (event_driven, reference)
}

/// The stall-heavy single-thread long-miss shape (the configuration where
/// both the verdict replay and the idle-skip fire constantly).
#[test]
fn event_driven_matches_reference_on_stall_heavy_config() {
    let cfg = SimConfig::paper_single_thread_4wide().with_l2_latency(256);
    let (event_driven, reference) = run_both(&cfg, 99, 12_000);
    assert_results_match(&event_driven, &reference);
}

/// The multithreaded arbitration shape (rotation-exact slot attribution
/// across a 4-way round-robin).
#[test]
fn event_driven_matches_reference_on_multithreaded_config() {
    let cfg = SimConfig::paper_multithreaded(4)
        .with_l2_latency(64)
        .with_queue_scaling(true);
    let (event_driven, reference) = run_both(&cfg, 1234, 20_000);
    assert_results_match(&event_driven, &reference);
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

/// Slicing a run into quanta (the sweep layer's batched-cell drive loop)
/// splits skip windows at arbitrary boundaries; the accounting replay is
/// additive, so results stay bit-identical to one `run` call.
#[test]
fn run_quantum_slicing_matches_monolithic_run() {
    let cfg = SimConfig::paper_multithreaded(2).with_l2_latency(256);
    let budget = 15_000u64;
    let monolithic = Processor::with_spec_workload(cfg.clone(), 7).run(budget);
    for quantum in [64u64, 1_000, 8_192] {
        let mut cpu = Processor::with_spec_workload(cfg.clone(), 7);
        let cap = cpu.run_cap(budget);
        let mut quanta = 0usize;
        while !cpu.run_quantum(budget, cap, quantum) {
            quanta += 1;
            assert!(quanta < 1_000_000, "run_quantum failed to make progress");
        }
        assert_results_match(&cpu.results(), &monolithic);
    }
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
        let (event_driven, reference) = run_both(&cfg, seed, 6_000);
        assert_results_match(&event_driven, &reference);
    }
}
