//! The traced run: per-layer metrics, each timed around the calls into
//! one layer from outside the program. It runs apart from the untraced
//! end-to-end runs, whose numbers it never touches.

use std::path::Path;
use std::time::{Duration, Instant};

use dsmt_core::SimResults;
use dsmt_shard::{merge_from, plan, recover, DsrFile, ShardDisposition, ShardStrategy, Transport};
use dsmt_store::Store;
use dsmt_sweep::cache::FLUSH_THRESHOLD;
use dsmt_sweep::{Cell, SweepReport, CACHE_SCHEMA_VERSION};

use crate::e2e::{check_digest, monolithic, Opts, RECOVER};
use crate::stats::{paired, percentile, ratios, timed, Ledger};
use crate::streams::{measure, Micro};
use crate::workload::{
    copy_tree, engine, mismatches, records, run_figures, setup, workers, Figure, Scratch, Setup,
};

/// Pairs each paired measurement takes at least.
const MIN_PAIRS: usize = 2;

/// Share of `--seconds` each paired measurement may take.
fn budget(o: &Opts, share: f64) -> Duration {
    o.seconds.mul_f64(share)
}

/// Direct core runs over `cells`: time in `Scenario::processor` and in
/// `Processor::run`, cycles, instructions and fast-forwarded cycles.
#[derive(Debug, Default)]
struct Walk {
    build_secs: f64,
    run_secs: f64,
    cycles: u64,
    insts: u64,
    skipped: u64,
    results: Vec<SimResults>,
}

/// Builds and runs every cell serially. With `traced`, each call into the
/// core is timed on its own; without, only the whole walk is.
fn walk(cells: &[&Cell], traced: bool) -> (Walk, f64) {
    let started = Instant::now();
    let mut w = Walk::default();
    for cell in cells {
        let s = &cell.scenario;
        let results = if traced {
            let t0 = Instant::now();
            let mut cpu = s.processor();
            let t1 = Instant::now();
            let results = cpu.run(s.budget);
            w.run_secs += t1.elapsed().as_secs_f64();
            w.build_secs += (t1 - t0).as_secs_f64();
            w.skipped += cpu.perf().busy_cycles_skipped;
            w.cycles += results.cycles;
            w.insts += results.instructions;
            results
        } else {
            s.processor().run(s.budget)
        };
        w.results.push(results);
    }
    (w, started.elapsed().as_secs_f64())
}

/// Distinct cache keys of `cells`.
fn keys(cells: &[Cell]) -> Vec<u64> {
    let mut keys: Vec<u64> = cells.iter().map(|c| c.scenario.cache_key()).collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// What the store layer cost per open and per round of first-touch gets.
struct StoreCost {
    open_secs: f64,
    gets_secs: f64,
}

/// The store layer over the populated store at `dir`: opens, first-touch
/// gets of every key (each round on a fresh handle, so every get decodes),
/// size, and re-publishing the same records into a fresh store in the
/// cache's batches.
fn store_layer(dir: &Path, keys: &[u64], scratch: &mut Scratch, ledger: &mut Ledger) -> StoreCost {
    const ROUNDS: usize = 3;
    let (mut open_ms, mut get_us, mut round_secs) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..ROUNDS {
        let (opened, secs) = timed(|| Store::open(dir, CACHE_SCHEMA_VERSION));
        let Ok(store) = opened else {
            ledger.check(false);
            continue;
        };
        open_ms.push(secs * 1e3);
        let mut round = 0.0;
        for &key in keys {
            let started = Instant::now();
            let got = store.try_get(key);
            let secs = started.elapsed().as_secs_f64();
            ledger.check(matches!(got, Ok(Some(_))));
            round += secs;
            get_us.push(secs * 1e6);
        }
        round_secs.push(round);
        last = Some(store);
    }
    let store = last.expect("the store opens");
    ledger.sampled("store.open_ms", "ms", open_ms.clone());
    ledger.value("store.get_us_p50", "us", percentile(&get_us, 50.0));
    ledger.value("store.get_us_p99", "us", percentile(&get_us, 99.0));
    ledger.value("store.records", "count", store.record_count() as f64);
    ledger.value("store.segments", "count", store.segment_count() as f64);
    ledger.value("store.bytes", "bytes", store.total_bytes() as f64);

    let values: Vec<(u64, serde::Value)> = keys
        .iter()
        .filter_map(|&k| store.get(k).map(|v| (k, v.clone())))
        .collect();
    let mut target =
        Store::open(scratch.fresh("publish"), CACHE_SCHEMA_VERSION).expect("create a store");
    let mut publish_ms = Vec::new();
    for chunk in values.chunks(FLUSH_THRESHOLD) {
        let batch = chunk.to_vec();
        let (published, secs) = timed(|| target.publish(batch));
        ledger.check(published.is_ok());
        publish_ms.push(secs * 1e3);
    }
    ledger.sampled("store.publish_ms", "ms", publish_ms);
    StoreCost {
        open_secs: crate::stats::median(&open_ms) / 1e3,
        gets_secs: crate::stats::median(&round_secs),
    }
}

/// Paired serial and all-core runs of `run` (given the worker count, it
/// returns its reports and the seconds they took): the parallel speed-up
/// as the median per-pair ratio, and the share of worker time the pool sat
/// idle in the all-core runs.
fn speedup(
    o: &Opts,
    ledger: &mut Ledger,
    mut run: impl FnMut(usize, &mut Ledger) -> (Vec<SweepReport>, f64),
) {
    let all = workers();
    let mut idle = Vec::new();
    let (serial, parallel) = paired(MIN_PAIRS, budget(o, 0.3), |many| {
        let workers = if many { all } else { 1 };
        let (reports, secs) = run(workers, ledger);
        if many {
            let busy: f64 = records(&reports).iter().map(|r| r.perf.wall_secs).sum();
            idle.push(100.0 * (1.0 - busy / (workers as f64 * secs)));
        }
        secs
    });
    ledger.sampled("sweep.parallel_speedup", "x", ratios(&serial, &parallel));
    ledger.sampled("sweep.pool_idle_pct", "%", idle);
}

/// Paired runs of `run` with telemetry at its default (off) and with every
/// event going to a JSONL file, as `DSMT_LOG=jsonl:<path>` would set it.
fn obs_overhead(
    o: &Opts,
    scratch: &mut Scratch,
    ledger: &mut Ledger,
    mut run: impl FnMut(&mut Scratch) -> f64,
) {
    let spec = format!("jsonl:{}", scratch.fresh("events.jsonl").display());
    let (off, on) = paired(MIN_PAIRS, budget(o, 0.15), |traced| {
        dsmt_obs::init_from_spec(if traced { &spec } else { "" });
        run(scratch)
    });
    dsmt_obs::init_from_spec("");
    let pct = ratios(&on, &off)
        .iter()
        .map(|r| (r - 1.0) * 100.0)
        .collect();
    ledger.sampled("obs.overhead_pct", "%", pct);
}

/// The benchmark's own tracing cost: paired untraced and traced runs of
/// the same walk.
fn trace_overhead(o: &Opts, ledger: &mut Ledger, mut run: impl FnMut(bool) -> f64) {
    let (plain, traced) = paired(MIN_PAIRS, budget(o, 0.15), &mut run);
    let pct = ratios(&traced, &plain)
        .iter()
        .map(|r| (r - 1.0) * 100.0)
        .collect();
    ledger.sampled("bench.trace_overhead_pct", "%", pct);
}

/// Reports the micro layers, one sample per round.
fn micro_layers(rounds: &[Micro], ledger: &mut Ledger) {
    // A layer the workload never drives (no instructions, accesses or
    // branches) is left out.
    let mut emit = |name, unit, scale: f64, f: &dyn Fn(&Micro) -> (f64, u64)| {
        let samples: Option<Vec<f64>> = rounds
            .iter()
            .map(|m| {
                let (num, den) = f(m);
                (den > 0).then(|| num * scale / den as f64)
            })
            .collect();
        if let Some(samples) = samples {
            ledger.sampled(name, unit, samples);
        }
    };
    emit("trace.synth_ns_per_inst", "ns", 1e9, &|m| {
        (m.synth_secs, m.synth_insts)
    });
    emit("trace.program_ns_per_inst", "ns", 1e9, &|m| {
        (m.program_secs, m.program_insts)
    });
    emit("mem.ns_per_access", "ns", 1e9, &|m| {
        (m.mem_secs, m.accesses)
    });
    emit("mem.l1_miss_pct", "%", 100.0, &|m| {
        (m.misses as f64, m.accesses - m.rejected)
    });
    emit("mem.rejected_access_pct", "%", 100.0, &|m| {
        (m.rejected as f64, m.accesses)
    });
    emit("uarch.predict_ns", "ns", 1e9, &|m| {
        (m.predict_secs, m.branches)
    });
}

/// The traced run of a cold sweep workload.
pub fn cold(o: &Opts, scratch: &mut Scratch, ledger: &mut Ledger) {
    let setup = setup(o.workload, o.seed, o.scale, scratch.fresh("setup"));
    let all_cells: Vec<&Cell> = setup.cells.iter().collect();
    let n = all_cells.len() as f64;

    // core: every cell built and run directly, each call timed.
    let (core, _) = walk(&all_cells, true);
    ledger.value("core.build_us", "us", core.build_secs / n * 1e6);
    ledger.value(
        "core.ns_per_cycle",
        "ns",
        core.run_secs * 1e9 / core.cycles as f64,
    );
    ledger.value(
        "core.ns_per_inst",
        "ns",
        core.run_secs * 1e9 / core.insts as f64,
    );
    ledger.value(
        "core.skipped_cycle_pct",
        "%",
        100.0 * core.skipped as f64 / core.cycles as f64,
    );

    // The same cells through a serial engine into a fresh store must give
    // the same results; a second pass over that store is all cache hits.
    let store = scratch.fresh("store");
    let reports = run_figures(&setup.figures, 1, &store);
    let trusted = check_digest(o, &reports, ledger);
    let cold_records = records(&reports);
    let differ = cold_records
        .iter()
        .zip(&core.results)
        .filter(|(r, c)| r.results != **c)
        .count();
    ledger.tally(
        cold_records.len(),
        if trusted { differ } else { cold_records.len() },
    );
    let (replay, hit_secs) = timed(|| run_figures(&setup.figures, 1, &store));
    check_replay(&replay, &cold_records, ledger);
    ledger.value("sweep.cache_hit_us", "us", hit_secs / n * 1e6);

    store_layer(&store, &keys(&setup.cells), scratch, ledger);

    let figures = &setup.figures;
    speedup(o, ledger, |workers, ledger| {
        let dir = scratch.fresh("cold");
        let (reports, secs) = timed(|| run_figures(figures, workers, &dir));
        let bad = mismatches(&records(&reports), &cold_records);
        ledger.tally(cold_records.len(), bad);
        let _ = std::fs::remove_dir_all(&dir);
        (reports, secs)
    });

    // The paired overheads run on every `stride`-th cell of each grid.
    let stride = if o.smoke { 1 } else { 4 };
    let subset_cells: Vec<Cell> = figures
        .iter()
        .flatten()
        .flat_map(|g| g.cells().into_iter().step_by(stride))
        .collect();
    // The core walk runs each distinct scenario once, as the engine's
    // cache does; repeats across grids are hits on the engine side.
    let mut seen = std::collections::HashSet::new();
    let subset: Vec<&Cell> = subset_cells
        .iter()
        .filter(|c| seen.insert(c.scenario.cache_key()))
        .collect();
    let mut run_subset = |scratch: &mut Scratch| {
        let dir = scratch.fresh("subset");
        let secs = run_strided(figures, stride, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        secs
    };
    // sweep: engine time beyond the core's own build and run time.
    let (core_secs, engine_secs) = paired(MIN_PAIRS, budget(o, 0.2), |engine| {
        if engine {
            run_subset(scratch)
        } else {
            let (w, _) = walk(&subset, true);
            w.build_secs + w.run_secs
        }
    });
    let per_cell = engine_secs
        .iter()
        .zip(&core_secs)
        .map(|(e, c)| (e - c) / subset_cells.len() as f64 * 1e6)
        .collect();
    ledger.sampled("sweep.cell_overhead_us", "us", per_cell);
    obs_overhead(o, scratch, ledger, &mut run_subset);
    trace_overhead(o, ledger, |traced| walk(&subset, traced).1);

    let insts = if o.smoke { 1_000 } else { 20_000 };
    let rounds: Vec<Micro> = (0..3)
        .map(|_| {
            let mut m = Micro::default();
            for cell in &setup.cells {
                measure(&cell.scenario, insts, &mut m);
            }
            m
        })
        .collect();
    micro_layers(&rounds, ledger);
    ledger.note("cells", setup.cells.len().to_string());
}

/// Every `stride`-th cell of every grid, through one serial engine per
/// grid into a fresh store at `dir`; returns the seconds it took.
fn run_strided(figures: &[Figure], stride: usize, dir: &Path) -> f64 {
    let started = Instant::now();
    for grid in figures.iter().flatten() {
        let cells: Vec<usize> = (0..grid.len()).step_by(stride).collect();
        let _ = engine(1, dir).run_subset(grid, &cells);
    }
    started.elapsed().as_secs_f64()
}

/// Tallies replayed records against the cold ones; a miss is a failure.
fn check_replay(reports: &[SweepReport], cold: &[&dsmt_sweep::RunRecord], ledger: &mut Ledger) {
    let misses: usize = reports.iter().map(|r| r.cache_misses).sum();
    ledger.tally(cold.len(), mismatches(&records(reports), cold) + misses);
}

/// The traced run of the warm fleet.
pub fn warm(o: &Opts, scratch: &mut Scratch, ledger: &mut Ledger) {
    let setup = setup(o.workload, o.seed, o.scale, scratch.fresh("setup"));
    check_digest(o, &setup.cold, ledger);
    let cold_records = records(&setup.cold);
    let n = cold_records.len() as f64;
    let keys = keys(&setup.cells);

    let cost = store_layer(&setup.store, &keys, scratch, ledger);

    // sweep: a serial re-render is all cache hits; what it spends beyond
    // the store's opens and gets is the sweep layer's per-cell overhead.
    let (replay, hit_secs) = timed(|| run_figures(&setup.figures, 1, &setup.store));
    check_replay(&replay, &cold_records, ledger);
    ledger.value("sweep.cache_hit_us", "us", hit_secs / n * 1e6);
    let opens = setup.figures.len() as f64;
    ledger.value(
        "sweep.cell_overhead_us",
        "us",
        (hit_secs - opens * cost.open_secs - cost.gets_secs) / n * 1e6,
    );
    speedup(o, ledger, |workers, ledger| {
        let (reports, secs) = timed(|| run_figures(&setup.figures, workers, &setup.store));
        check_replay(&reports, &cold_records, ledger);
        (reports, secs)
    });

    shard_layer(o, &setup, scratch, ledger);

    obs_overhead(o, scratch, ledger, |_| {
        timed(|| run_figures(&setup.figures, 1, &setup.store)).1
    });
    trace_overhead(o, ledger, |traced| {
        let started = Instant::now();
        let store = Store::open(&setup.store, CACHE_SCHEMA_VERSION).expect("the store opens");
        for &key in &keys {
            if traced {
                let t = Instant::now();
                std::hint::black_box(store.try_get(key).is_ok());
                std::hint::black_box(t.elapsed());
            } else {
                std::hint::black_box(store.try_get(key).is_ok());
            }
        }
        started.elapsed().as_secs_f64()
    });
    ledger.note("cells", setup.cells.len().to_string());
}

/// The shard layer over the run's own seed: plan, per-shard recover, the
/// same cells through `run_subset` alone, merge, and `.dsr` encode/decode.
fn shard_layer(o: &Opts, setup: &Setup, scratch: &mut Scratch, ledger: &mut Ledger) {
    let shards = o.scale.shards;
    let mono = monolithic(setup);
    let recover_dir = scratch.fresh("fleet");
    let subset_dir = scratch.fresh("fleet");
    copy_tree(&setup.store, &recover_dir).expect("copy the warm store");
    copy_tree(&setup.store, &subset_dir).expect("copy the warm store");
    let all = workers();
    let recover_engine = engine(all, &recover_dir);
    let subset_engine = engine(all, &subset_dir);
    let (mut plan_ms, mut run_ms, mut overhead_ms, mut merge_ms) = (vec![], vec![], vec![], vec![]);
    let (mut encode_us, mut decode_us, mut dsr_bytes) = (vec![], vec![], 0usize);
    for (i, (grid, want)) in setup.figures[0].iter().zip(&mono).enumerate() {
        let (manifest, secs) = timed(|| plan(grid, shards, ShardStrategy::Strided));
        plan_ms.push(secs * 1e3);
        let manifest = manifest.expect("figure grids plan");
        let recover_secs = || {
            let mut transport = Transport::store(&recover_dir).expect("store transport");
            let (run, secs) =
                timed(|| recover(&manifest, &mut transport, &recover_engine, &RECOVER));
            let executed = run.as_ref().map_or(0, |r| {
                r.dispositions
                    .iter()
                    .filter(|d| **d == ShardDisposition::Executed)
                    .count()
            });
            (transport, executed, secs)
        };
        let subset_secs = || -> f64 {
            manifest
                .shards
                .iter()
                .map(|cells| timed(|| subset_engine.run_subset(grid, cells)).1)
                .sum()
        };
        // Alternate which side goes first, grid by grid.
        let ((mut transport, executed, rec), sub) = if i % 2 == 0 {
            let r = recover_secs();
            (r, subset_secs())
        } else {
            let s = subset_secs();
            (recover_secs(), s)
        };
        ledger.tally(shards, shards - executed.min(shards));
        run_ms.push(rec * 1e3 / shards as f64);
        overhead_ms.push((rec - sub) * 1e3 / shards as f64);

        let (merged, secs) = timed(|| merge_from(&manifest, &mut transport));
        merge_ms.push(secs * 1e3);
        let Ok(merged) = merged else {
            ledger.check(false);
            continue;
        };
        let file = DsrFile::from_report(grid, &merged, 0, 1);
        let (bytes, secs) = timed(|| file.encode());
        encode_us.push(secs * 1e6);
        let (decoded, secs) = timed(|| DsrFile::decode(&bytes));
        decode_us.push(secs * 1e6);
        ledger.check(&bytes == want && decoded.is_ok_and(|d| d == file));
        dsr_bytes += bytes.len();
    }
    ledger.sampled("shard.plan_ms", "ms", plan_ms);
    ledger.sampled("shard.run_ms", "ms", run_ms);
    ledger.sampled("shard.overhead_ms", "ms", overhead_ms);
    ledger.sampled("shard.merge_ms", "ms", merge_ms);
    ledger.sampled("shard.dsr_encode_us", "us", encode_us);
    ledger.sampled("shard.dsr_decode_us", "us", decode_us);
    ledger.value("shard.dsr_bytes", "bytes", dsr_bytes as f64);
}
