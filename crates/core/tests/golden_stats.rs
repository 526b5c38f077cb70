//! Hot-loop equivalence: golden statistics pinned before the
//! allocation-free rewrite of the simulator core (event wheel, ring
//! buffers, scratch issue/fetch buffers, O(1) FU occupancy).
//!
//! The two scenarios below exercise every path the rewrite touched:
//! multithreading (issue arbitration, I-COUNT fetch), decoupling (deep
//! instruction queues), cache misses with bus contention (l2 = 64/256),
//! queue scaling, and branch mispredictions. Every field of [`SimResults`]
//! must match the values produced by the pre-optimization simulator
//! bit-for-bit — any drift means the "optimization" changed behaviour.

use dsmt_core::{PerceivedLatency, Processor, SimConfig, SimResults, UnitSlots};
use dsmt_mem::MemStats;

fn assert_results_match(actual: &SimResults, expected: &SimResults) {
    // Field-by-field so a failure names the drifting statistic instead of
    // dumping two full structs.
    assert_eq!(actual.cycles, expected.cycles, "cycles");
    assert_eq!(actual.instructions, expected.instructions, "instructions");
    assert_eq!(
        actual.per_thread_instructions, expected.per_thread_instructions,
        "per_thread_instructions"
    );
    assert_eq!(actual.ap_slots, expected.ap_slots, "ap_slots");
    assert_eq!(actual.ep_slots, expected.ep_slots, "ep_slots");
    assert_eq!(actual.perceived, expected.perceived, "perceived");
    assert_eq!(actual.mem, expected.mem, "mem");
    assert_eq!(
        actual.bus_utilization.to_bits(),
        expected.bus_utilization.to_bits(),
        "bus_utilization"
    );
    assert_eq!(
        actual.branch_accuracy.to_bits(),
        expected.branch_accuracy.to_bits(),
        "branch_accuracy"
    );
    assert_eq!(actual.loads, expected.loads, "loads");
    assert_eq!(actual.stores, expected.stores, "stores");
    assert_eq!(actual.branches, expected.branches, "branches");
    assert_eq!(
        actual.mispredictions, expected.mispredictions,
        "mispredictions"
    );
}

/// 4 threads, decoupled, 64-cycle L2 with queue scaling, SPEC mix: the
/// Figure-4-shaped stress case (multithreaded arbitration + misses +
/// mispredictions + MSHR merges + write-backs).
#[test]
fn golden_multithreaded_decoupled_l2_64() {
    let cfg = SimConfig::paper_multithreaded(4)
        .with_l2_latency(64)
        .with_queue_scaling(true);
    let actual = Processor::with_spec_workload(cfg, 1234).run(60_000);
    let expected = SimResults {
        cycles: 13_566,
        instructions: 60_003,
        per_thread_instructions: vec![17_867, 17_196, 9_468, 15_472],
        ap_slots: UnitSlots {
            useful: 36_176,
            wait_memory: 16_694,
            wait_fu: 1_386,
            wrong_path_or_idle: 8,
            other: 0,
        },
        ep_slots: UnitSlots {
            useful: 24_249,
            wait_memory: 19_662,
            wait_fu: 10_341,
            wrong_path_or_idle: 12,
            other: 0,
        },
        perceived: PerceivedLatency {
            fp_stall_cycles: 17_231,
            int_stall_cycles: 10_312,
            fp_load_misses: 1_747,
            int_load_misses: 267,
        },
        mem: MemStats {
            load_hits: 15_256,
            load_misses: 2_014,
            store_hits: 4_907,
            store_misses: 752,
            mshr_merges: 5_862,
            mshr_full_rejections: 0,
            port_rejections: 0,
            writebacks: 492,
            bus_busy_cycles: 6_516,
            bus_transfers: 3_258,
            bus_bytes: 104_256,
        },
        bus_utilization: 0.480_318_443_166_740_4,
        branch_accuracy: 0.956_372_289_793_759_9,
        loads: 17_270,
        stores: 5_659,
        branches: 3_782,
        mispredictions: 165,
    };
    assert_results_match(&actual, &expected);
}

/// Single-threaded 4-wide machine at 256-cycle L2: long-latency
/// completions (fills land hundreds of cycles out) plus deep scaled queues.
#[test]
fn golden_single_thread_l2_256() {
    let cfg = SimConfig::paper_single_thread_4wide().with_l2_latency(256);
    let actual = Processor::with_spec_workload(cfg, 99).run(30_000);
    let expected = SimResults {
        cycles: 46_532,
        instructions: 30_000,
        per_thread_instructions: vec![30_000],
        ap_slots: UnitSlots {
            useful: 17_898,
            wait_memory: 69_392,
            wait_fu: 5_470,
            wrong_path_or_idle: 304,
            other: 0,
        },
        ep_slots: UnitSlots {
            useful: 12_187,
            wait_memory: 70_802,
            wait_fu: 10_047,
            wrong_path_or_idle: 28,
            other: 0,
        },
        perceived: PerceivedLatency {
            fp_stall_cycles: 18_367,
            int_stall_cycles: 15_566,
            fp_load_misses: 864,
            int_load_misses: 70,
        },
        mem: MemStats {
            load_hits: 7_544,
            load_misses: 934,
            store_hits: 2_470,
            store_misses: 353,
            mshr_merges: 3_241,
            mshr_full_rejections: 0,
            port_rejections: 0,
            writebacks: 95,
            bus_busy_cycles: 2_764,
            bus_transfers: 1_382,
            bus_bytes: 44_224,
        },
        bus_utilization: 0.059_399_982_807_530_304,
        branch_accuracy: 0.969_247_083_775_185_5,
        loads: 8_478,
        stores: 2_823,
        branches: 1_886,
        mispredictions: 58,
    };
    assert_results_match(&actual, &expected);
}

/// The same simulation run twice stays bit-identical (the golden values
/// above are stable, not flaky).
#[test]
fn golden_runs_are_reproducible() {
    let cfg = SimConfig::paper_multithreaded(2).with_l2_latency(64);
    let a = Processor::with_spec_workload(cfg.clone(), 7).run(20_000);
    let b = Processor::with_spec_workload(cfg, 7).run(20_000);
    assert_results_match(&a, &b);
}

/// Fully-enabled telemetry (debug-level JSONL tracing + the metrics
/// registry) observes the simulation without steering it: every statistic
/// stays bit-identical to an untraced run.
#[test]
fn golden_runs_survive_full_telemetry() {
    let cfg = SimConfig::paper_multithreaded(2).with_l2_latency(64);
    let baseline = Processor::with_spec_workload(cfg.clone(), 7).run(20_000);

    let trace =
        std::env::temp_dir().join(format!("dsmt-golden-trace-{}.jsonl", std::process::id()));
    dsmt_obs::init_from_spec(&format!("jsonl:{}", trace.display()));
    let traced = Processor::with_spec_workload(cfg, 7).run(20_000);
    traced.record_metrics();
    dsmt_obs::info!("golden.telemetry_check", cycles = traced.cycles);
    dsmt_obs::init_from_spec("off");

    assert_results_match(&traced, &baseline);
    let snapshot = dsmt_obs::registry().snapshot();
    assert!(
        snapshot
            .counters
            .iter()
            .any(|(name, v)| name == "core.cycles" && *v >= baseline.cycles),
        "record_metrics must land in the registry"
    );
    let text = std::fs::read_to_string(&trace).expect("trace file written");
    assert!(
        text.lines().any(|l| l.contains("golden.telemetry_check")),
        "trace must carry the emitted event"
    );
    let _ = std::fs::remove_file(&trace);
}
