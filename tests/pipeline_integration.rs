//! Integration tests spanning the workload, memory and processor crates:
//! the full pipeline from profile → synthetic trace → simulation → results.

use dsmt_repro::core::{Processor, SimConfig};
use dsmt_repro::trace::{
    spec_fp95_profile, BenchmarkProfile, SyntheticTrace, ThreadWorkload, TraceSource,
};

const RUN: u64 = 40_000;

fn single_thread(config: SimConfig, profile: &BenchmarkProfile, seed: u64) -> Processor {
    let traces: Vec<Box<dyn TraceSource>> = vec![Box::new(SyntheticTrace::new(profile, seed))];
    Processor::new(config, traces)
}

#[test]
fn spec_workload_runs_and_reports_consistent_totals() {
    let config = SimConfig::paper_multithreaded(2);
    let mut cpu = Processor::with_spec_workload(config.clone(), 5);
    let r = cpu.run(RUN);
    assert!(r.instructions >= RUN);
    assert_eq!(
        r.per_thread_instructions.iter().sum::<u64>(),
        r.instructions
    );
    assert_eq!(r.per_thread_instructions.len(), 2);
    // Slot accounting covers every unit slot of every cycle.
    assert_eq!(r.ap_slots.total(), r.cycles * config.ap_units as u64);
    assert_eq!(r.ep_slots.total(), r.cycles * config.ep_units as u64);
    // The workload mix keeps both units busy.
    assert!(r.ap_slots.useful > 0);
    assert!(r.ep_slots.useful > 0);
    assert!(r.loads > 0 && r.stores > 0 && r.branches > 0);
}

#[test]
fn simulation_is_deterministic_across_runs() {
    let config = SimConfig::paper_multithreaded(3);
    let a = Processor::with_spec_workload(config.clone(), 9).run(RUN);
    let b = Processor::with_spec_workload(config, 9).run(RUN);
    assert_eq!(a, b);
}

#[test]
fn different_seeds_change_the_run_but_not_the_big_picture() {
    let config = SimConfig::paper_multithreaded(2);
    let a = Processor::with_spec_workload(config.clone(), 1).run(RUN);
    let b = Processor::with_spec_workload(config, 2).run(RUN);
    assert_ne!(a.cycles, b.cycles);
    // Aggregate behaviour stays in the same ballpark.
    assert!((a.ipc() - b.ipc()).abs() < 1.5);
}

#[test]
fn decoupling_hides_latency_for_a_well_behaved_benchmark() {
    // tomcatv decouples well: at a 64-cycle L2 the decoupled machine must
    // both perceive far less latency and retain far more of its throughput
    // than the non-decoupled one.
    let profile = spec_fp95_profile("tomcatv").unwrap();
    let base = SimConfig::paper_multithreaded(1)
        .with_l2_latency(64)
        .with_queue_scaling(true);
    let dec = single_thread(base.clone(), &profile, 11).run(RUN);
    let non = single_thread(base.with_decoupled(false), &profile, 11).run(RUN);
    assert!(
        dec.perceived.fp() < 0.5 * non.perceived.fp(),
        "decoupled perceived fp latency {:.1} vs non-decoupled {:.1}",
        dec.perceived.fp(),
        non.perceived.fp()
    );
    assert!(dec.ipc() > non.ipc());
}

#[test]
fn fpppp_loses_decoupling_and_exposes_latency() {
    // fpppp is the paper's example of a program that decouples badly: its
    // perceived FP-load latency should be a large fraction of the L2 latency
    // even on the decoupled machine, and much larger than tomcatv's.
    let config = SimConfig::paper_multithreaded(1)
        .with_l2_latency(64)
        .with_queue_scaling(true);
    let fpppp = single_thread(config.clone(), &spec_fp95_profile("fpppp").unwrap(), 3).run(RUN);
    let tomcatv = single_thread(config, &spec_fp95_profile("tomcatv").unwrap(), 3).run(RUN);
    assert!(
        fpppp.perceived.fp() > 3.0 * tomcatv.perceived.fp(),
        "fpppp {:.1} vs tomcatv {:.1}",
        fpppp.perceived.fp(),
        tomcatv.perceived.fp()
    );
}

#[test]
fn multithreading_and_decoupling_are_synergistic() {
    // The paper's core claim: multithreading supplies ILP (raises IPC),
    // decoupling supplies latency tolerance (flattens the latency curve).
    let workload = ThreadWorkload::spec_fp95(13).with_insts_per_program(10_000);
    let run = |threads: usize, decoupled: bool, lat: u64| {
        let cfg = SimConfig::paper_multithreaded(threads)
            .with_decoupled(decoupled)
            .with_l2_latency(lat)
            .with_queue_scaling(true);
        Processor::with_workload(cfg, &workload).run(RUN)
    };
    // Multithreading raises throughput for both machines.
    let dec_1t = run(1, true, 16);
    let dec_4t = run(4, true, 16);
    assert!(dec_4t.ipc() > 1.5 * dec_1t.ipc());

    // Decoupling flattens the latency curve: relative loss from 16 to 128
    // cycles is much smaller with the instruction queues enabled.
    let dec_4t_slow = run(4, true, 128);
    let non_4t = run(4, false, 16);
    let non_4t_slow = run(4, false, 128);
    let dec_loss = dec_4t_slow.ipc_loss_pct_vs(&dec_4t);
    let non_loss = non_4t_slow.ipc_loss_pct_vs(&non_4t);
    assert!(
        dec_loss < non_loss,
        "decoupled loss {dec_loss:.1}% must be below non-decoupled loss {non_loss:.1}%"
    );
}

#[test]
fn more_threads_increase_cache_pressure_and_bus_traffic() {
    let run = |threads: usize| {
        let cfg = SimConfig::paper_multithreaded(threads).with_l2_latency(64);
        Processor::with_spec_workload(cfg, 17).run(RUN)
    };
    let few = run(1);
    let many = run(6);
    assert!(many.bus_utilization > few.bus_utilization);
    assert!(many.mem.bus_bytes > few.mem.bus_bytes);
}
