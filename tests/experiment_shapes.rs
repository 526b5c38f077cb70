//! Integration tests that run reduced versions of the paper's experiments
//! end-to-end through the harness crate and assert the qualitative shapes
//! the paper reports. The full-scale versions are `all_experiments`'
//! figure sections and EXPERIMENTS.md.

use dsmt_repro::core::{SimConfig, SimResults};
use dsmt_repro::experiments::{fig3, fig4, fig5, ExperimentParams};
use dsmt_repro::sweep::{Scenario, SweepEngine};

fn tiny() -> ExperimentParams {
    ExperimentParams {
        instructions_per_point: 25_000,
        insts_per_program: 8_000,
        seed: 42,
        workers: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4),
    }
}

/// One simulation of the multithreaded SPEC FP95 workload under `config`.
fn run_spec_mix(config: SimConfig, params: &ExperimentParams) -> SimResults {
    Scenario {
        config,
        workload: params.spec_mix(),
        seed: params.seed,
        budget: params.instructions_per_point,
    }
    .execute()
}

#[test]
fn figure3_shape_multithreading_fills_the_issue_slots() {
    let params = ExperimentParams {
        instructions_per_point: 40_000,
        ..tiny()
    };
    // The figure's grid on an uncached engine: the test shares no store.
    let report = SweepEngine::new(params.workers)
        .without_cache()
        .run(&fig3::grid(&params));
    let row = |threads| {
        report
            .records
            .iter()
            .find(|rec| rec.scenario.config.num_threads == threads)
            .map(|rec| &rec.results)
    };
    let one = row(1).expect("1-thread row");
    let four = row(4).expect("4-thread row");
    // Single thread: the EP wastes most of its slots waiting on FU results.
    assert!(
        one.ep_slots.fraction(dsmt_repro::core::SlotUse::WaitFu) > 0.3,
        "1T EP wait-fu fraction {:.2}",
        one.ep_slots.fraction(dsmt_repro::core::SlotUse::WaitFu)
    );
    // Multithreading sharply raises throughput and AP utilisation.
    assert!(
        four.ipc() > 1.7 * one.ipc(),
        "4T {} vs 1T {}",
        four.ipc(),
        one.ipc()
    );
    assert!(four.ap_slots.utilization() > one.ap_slots.utilization());
}

#[test]
fn figure4_shape_decoupling_flattens_the_latency_curve() {
    // A reduced grid: 1 and 4 threads, three latencies.
    let params = tiny();
    let run = |threads, decoupled, lat| {
        let cfg = fig4::fig4_config(threads, decoupled, lat);
        run_spec_mix(cfg, &params)
    };
    for &threads in &[1usize, 4] {
        let dec_fast = run(threads, true, 1);
        let dec_slow = run(threads, true, 128);
        let non_fast = run(threads, false, 1);
        let non_slow = run(threads, false, 128);
        let dec_loss = dec_slow.ipc_loss_pct_vs(&dec_fast);
        let non_loss = non_slow.ipc_loss_pct_vs(&non_fast);
        assert!(
            dec_loss < non_loss,
            "{threads} threads: decoupled loss {dec_loss:.1}% vs non-decoupled {non_loss:.1}%"
        );
        // And the decoupled machine perceives less of the miss latency.
        assert!(dec_slow.perceived.combined() < non_slow.perceived.combined());
    }
}

#[test]
fn figure5_shape_decoupled_needs_fewer_threads() {
    let params = tiny();
    let run = |threads, decoupled| {
        let cfg = fig5::fig5_config(threads, decoupled, 64);
        run_spec_mix(cfg, &params)
    };
    // With only 4 threads the decoupled machine already clearly outperforms
    // the non-decoupled one at a 64-cycle L2.
    let dec_4 = run(4usize, true);
    let non_4 = run(4usize, false);
    assert!(
        dec_4.ipc() > 1.2 * non_4.ipc(),
        "decoupled 4T {:.2} vs non-decoupled 4T {:.2}",
        dec_4.ipc(),
        non_4.ipc()
    );
    // The non-decoupled machine leans harder on thread-level parallelism:
    // it gains proportionally more from going to 8 threads than the
    // decoupled machine does.
    let dec_8 = run(8usize, true);
    let non_8 = run(8usize, false);
    let dec_gain = dec_8.ipc() / dec_4.ipc();
    let non_gain = non_8.ipc() / non_4.ipc();
    assert!(
        non_gain > dec_gain * 0.95,
        "non-decoupled gain {non_gain:.2} vs decoupled gain {dec_gain:.2}"
    );
}
