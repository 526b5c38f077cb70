//! Defining a custom workload profile.
//!
//! This example shows the full workload pipeline:
//!
//! 1. describe a program's behaviour with a [`BenchmarkProfile`];
//! 2. synthesise an instruction stream from it;
//! 3. run both the pathological and a well-behaved variant through the
//!    simulator and compare.
//!
//! Run with: `cargo run --release --example custom_benchmark`

use dsmt_repro::core::{Processor, SimConfig};
use dsmt_repro::trace::{BenchmarkProfile, SyntheticTrace, TraceSource};

fn simulate(profile: &BenchmarkProfile) -> f64 {
    let config = SimConfig::paper_multithreaded(1)
        .with_l2_latency(64)
        .with_queue_scaling(true);
    let trace = SyntheticTrace::new(profile, 3);
    let traces: Vec<Box<dyn TraceSource>> = vec![Box::new(trace)];
    Processor::new(config, traces).run(200_000).ipc()
}

fn main() {
    // A well-behaved numerical kernel: streams arrays, decouples cleanly.
    let mut good = BenchmarkProfile::baseline("good-kernel");
    good.stream_frac = 0.5;
    good.lod_frac = 0.0;
    good.int_load_use_dist = 12;

    // A pathological variant: every iteration moves an FP result into the
    // integer pipeline (loss of decoupling), and integer loads feed their
    // consumers immediately.
    let mut bad = good.clone();
    bad.name = "lossy-kernel".to_string();
    bad.lod_frac = 0.9;
    bad.int_load_use_dist = 1;

    let good_ipc = simulate(&good);
    let bad_ipc = simulate(&bad);
    println!("well-decoupled kernel IPC (L2 = 64): {good_ipc:.2}");
    println!("loss-of-decoupling kernel IPC      : {bad_ipc:.2}");
    println!(
        "losing decoupling costs {:.0}% of the throughput on this machine",
        (1.0 - bad_ipc / good_ipc) * 100.0
    );
}
