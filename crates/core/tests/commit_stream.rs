//! Commit-stream oracle: the core against its own input.
//!
//! In debug builds every thread folds each graduated instruction's
//! operation, architectural operands and memory reference into an FNV
//! digest, in graduation order ([`Processor::commit_digests`]). An
//! in-order-graduating core must commit exactly the prefix of its trace
//! it fetched, so folding a fresh copy of the trace's first `retired[t]`
//! instructions the same way ([`fold_commit`]) must give the same digest.
//! Unlike the golden statistics, this checks the core against its input
//! rather than against its own past output: a graduation that skips,
//! repeats or reorders an instruction fails it on any configuration.
//!
//! Release builds keep no digest, so this file only builds in debug.

#![cfg(debug_assertions)]

use dsmt_core::{fold_commit, Processor, SimConfig, COMMIT_DIGEST_BASIS};
use dsmt_trace::{ProgramWorkload, ThreadWorkload, TraceSource};
use proptest::prelude::*;

fn boxed<T: TraceSource + 'static>(traces: Vec<T>) -> Vec<Box<dyn TraceSource>> {
    traces
        .into_iter()
        .map(|t| Box::new(t) as Box<dyn TraceSource>)
        .collect()
}

/// Runs `budget` instructions of `traces()` under `cfg` and checks every
/// thread's commit digest against a fresh copy of its trace.
fn assert_commits_match_trace(
    cfg: &SimConfig,
    traces: impl Fn() -> Vec<Box<dyn TraceSource>>,
    budget: u64,
) {
    let mut cpu = Processor::new(cfg.clone(), traces());
    let results = cpu.run(budget);
    assert!(
        results.instructions >= budget,
        "ran {} of {budget} instructions",
        results.instructions
    );
    let digests = cpu.commit_digests();
    for (t, mut trace) in traces().into_iter().enumerate() {
        let retired = results.per_thread_instructions[t];
        let mut expected = COMMIT_DIGEST_BASIS;
        for _ in 0..retired {
            let inst = trace
                .next_instruction()
                .expect("the core cannot retire past the trace's end");
            expected = fold_commit(expected, &inst);
        }
        assert_eq!(
            digests[t], expected,
            "thread {t} committed something other than its trace's first {retired} instructions"
        );
    }
}

#[test]
fn every_corpus_program_commits_its_own_trace() {
    let programs = dsmt_asm::corpus::corpus_programs();
    for program in &programs {
        let workload = ProgramWorkload::new(vec![program.clone()], 11);
        for threads in [1, 2] {
            let cfg = SimConfig::paper_multithreaded(threads).with_l2_latency(64);
            assert_commits_match_trace(&cfg, || boxed(workload.build(threads)), 4_000);
        }
    }
    // The whole corpus side by side, one program per thread.
    let mix = ProgramWorkload::new(programs, 5);
    let cfg = SimConfig::paper_multithreaded(3).with_decoupled(false);
    assert_commits_match_trace(&cfg, || boxed(mix.build(3)), 6_000);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random machine shapes × seeds over the SPEC FP95 workload.
    #[test]
    fn graduation_commits_each_threads_trace_in_order(
        threads in 1usize..7,
        decoupled in prop::bool::ANY,
        l2 in 1u64..257,
        queue_scaling in prop::bool::ANY,
        seed in 0u64..1_000,
    ) {
        let cfg = SimConfig::paper_multithreaded(threads)
            .with_l2_latency(l2)
            .with_decoupled(decoupled)
            .with_queue_scaling(queue_scaling);
        let workload = ThreadWorkload::spec_fp95(seed);
        assert_commits_match_trace(&cfg, || boxed(workload.build(threads)), 3_000);
    }
}
