//! Same-run timing gates: each test times two sides on one host in one
//! process and asserts their ratio, so the bars hold on any machine. They
//! are ignored by default, because a debug build times nothing useful;
//! CI's `perf-gates` job runs them in release, one at a time:
//!
//! ```text
//! cargo test --release -p dsmt-sweep --test perf_gates -- --ignored --test-threads=1
//! ```
//!
//! Every side is sampled several times and compared by its median.

use std::path::{Path, PathBuf};
use std::time::Instant;

use dsmt_core::{Processor, SimConfig};
use dsmt_experiments::{figure_grids, ExperimentParams};
use dsmt_store::{Fnv64, Segment, Store};
use dsmt_sweep::{
    Axis, CacheIdentity, Scenario, SweepEngine, SweepGrid, WorkloadSpec, CACHE_SCHEMA_VERSION,
};
use serde::Value;

/// Samples per side.
const SAMPLES: usize = 5;

/// Interleaved off/traced pairs the telemetry gate compares: on a 2-CPU
/// container, 150 pairs put the median within ~0.3% run to run, where 15
/// scattered it over several percent.
const TRACE_PAIRS: usize = 150;

/// Interleaved default/reference pairs the scheduler gate takes on the
/// stall-heavy cell, where the two sides differ by ~20%.
const STALL_HEAVY_PAIRS: usize = 12;

/// Interleaved default/reference pairs on the stepped-heavy cell. The true
/// ratio there sits a few percent below 1, inside the run-to-run spread of
/// a shared 2-CPU host, where a dozen pairs let the median cross 1 on noise
/// alone.
const STEPPED_HEAVY_PAIRS: usize = 40;

/// Instructions per core run in the scheduler gate: tens of milliseconds,
/// long enough to time, short enough for dozens of pairs per cell.
const SCHEDULER_BUDGET: u64 = 100_000;

/// Interleaved passes per side over the figure cells in the cache
/// identity gate. A pass takes 1-3 ms, so 40 pairs take well under a
/// second.
const IDENTITY_PAIRS: usize = 40;

/// Records in the store the open gate prices: enough that the gap between
/// a header-only open and decoding everything sits far above noise, small
/// enough that decoding everything stays affordable.
const STORE_OPEN_RECORDS: usize = 10_000;

/// A Figure-4-shaped grid of 12 cells, small enough to sample repeatedly.
fn bench_grid() -> SweepGrid {
    SweepGrid::new(
        "bench",
        SimConfig::paper_multithreaded(1).with_queue_scaling(true),
    )
    .with_workload(WorkloadSpec::spec_mix(3_000))
    .with_axis(Axis::threads(&[1, 2]))
    .with_axis(Axis::decoupled(&[true, false]))
    .with_axis(Axis::l2_latencies(&[16, 64, 256]))
    .with_budget(10_000)
}

fn median(mut samples: Vec<f64>) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    samples.sort_by(f64::total_cmp);
    let mid = samples.len() / 2;
    if samples.len().is_multiple_of(2) {
        (samples[mid - 1] + samples[mid]) / 2.0
    } else {
        samples[mid]
    }
}

/// The first and third quartiles of `samples`: the medians of the lower
/// and upper halves (the middle sample, if any, in neither).
fn quartiles(mut samples: Vec<f64>) -> (f64, f64) {
    samples.sort_by(f64::total_cmp);
    let half = samples.len() / 2;
    let upper = samples.split_off(samples.len() - half);
    samples.truncate(half);
    (median(samples), median(upper))
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dsmt-perf-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Cells per second of one run of the bench grid.
fn cells_per_sec(workers: usize, cache: Option<&Path>) -> f64 {
    let engine = match cache {
        Some(dir) => SweepEngine::new(workers).with_cache_dir(dir),
        None => SweepEngine::new(workers).without_cache(),
    };
    let start = Instant::now();
    let report = engine.run(&bench_grid());
    report.records.len() as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// Writes [`STORE_OPEN_RECORDS`] sweep-cell-shaped records (numeric stats
/// under shared field names, like the cache publishes) in 2048-record
/// segments.
fn build_store(dir: &Path) {
    let mut store = Store::open(dir, 1).expect("create store");
    let records: Vec<(u64, Value)> = (0..STORE_OPEN_RECORDS as u64)
        .map(|n| {
            let h = n.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (n >> 7);
            let field = |name: &str, v: Value| (name.to_string(), v);
            let value = Value::Object(vec![
                field("seed", Value::U64(n)),
                field("ipc", Value::F64(0.5 + (h % 2048) as f64 / 1024.0)),
                field("cycles", Value::U64(h % 100_000_000)),
                field("insts", Value::U64(h % 10_000_000)),
                field(
                    "stats",
                    Value::Object(vec![
                        field("l1_hits", Value::U64(h % 1_000_000)),
                        field("l2_hits", Value::U64(h % 65_536)),
                        field("bus_busy", Value::F64((h % 97) as f64 / 97.0)),
                    ]),
                ),
            ]);
            (h, value)
        })
        .collect();
    for batch in records.chunks(2048) {
        store.publish(batch.to_vec()).expect("publish");
    }
}

#[test]
#[ignore = "timing gate: run in release by CI"]
fn indexed_store_open_is_5x_faster_than_decoding_every_segment() {
    let dir = temp_dir("store-open");
    build_store(&dir);
    let open_us = median(
        (0..SAMPLES)
            .map(|_| {
                let start = Instant::now();
                let store = Store::open(&dir, 1).expect("open store");
                let us = start.elapsed().as_secs_f64() * 1e6;
                assert_eq!(store.record_count(), STORE_OPEN_RECORDS);
                us
            })
            .collect(),
    );
    let decode_us = median(
        (0..SAMPLES)
            .map(|_| {
                let start = Instant::now();
                let mut records = 0;
                for entry in std::fs::read_dir(dir.join("segments")).expect("segments dir") {
                    let path = entry.expect("dir entry").path();
                    if path.extension().is_some_and(|x| x == "dsrs") {
                        let bytes = std::fs::read(&path).expect("read segment");
                        records += Segment::decode(&bytes).expect("segment").records.len();
                    }
                }
                let us = start.elapsed().as_secs_f64() * 1e6;
                assert_eq!(records, STORE_OPEN_RECORDS);
                us
            })
            .collect(),
    );
    let _ = std::fs::remove_dir_all(&dir);
    let speedup = decode_us / open_us.max(1e-9);
    println!("store open at {STORE_OPEN_RECORDS} records: {open_us:.0}us indexed vs {decode_us:.0}us decoding ({speedup:.1}x)");
    assert!(
        speedup >= 5.0,
        "header-indexed store open is only {speedup:.1}x faster than decoding every \
         segment at {STORE_OPEN_RECORDS} records ({open_us:.0}us vs {decode_us:.0}us)"
    );
}

#[test]
#[ignore = "timing gate: run in release by CI"]
fn debug_tracing_costs_under_one_percent_of_serial_throughput() {
    let trace = temp_dir("trace").with_extension("jsonl");
    let jsonl = format!("jsonl:{}", trace.display());
    let sample = |spec: &str| {
        dsmt_obs::init_from_spec(spec);
        cells_per_sec(1, None)
    };
    let _ = sample("off"); // warm caches and the allocator
                           // Each pair runs both sides back to back, alternating which goes
                           // first, and is compared within itself: this host's speed drifts by
                           // tens of percent over seconds, which a ratio of per-side medians
                           // would mistake for telemetry cost.
    let ratios: Vec<f64> = (0..TRACE_PAIRS)
        .map(|pair| {
            let (off, on) = if pair % 2 == 0 {
                let off = sample("off");
                (off, sample(&jsonl))
            } else {
                let on = sample(&jsonl);
                (sample("off"), on)
            };
            on / off.max(1e-9)
        })
        .collect();
    dsmt_obs::init_from_spec("off");
    let _ = std::fs::remove_file(&trace);
    let ratio = median(ratios);
    let overhead_pct = (1.0 - ratio) * 100.0;
    println!("traced / off serial throughput over {TRACE_PAIRS} pairs: {ratio:.4} ({overhead_pct:.2}% overhead)");
    assert!(
        ratio > 0.5,
        "tracing halves sweep throughput: traced / off = {ratio:.3}"
    );
    assert!(
        overhead_pct < 1.0,
        "telemetry overhead {overhead_pct:.2}% breaches the <1% bar"
    );
}

#[test]
#[ignore = "timing gate: run in release by CI"]
fn cached_replay_is_faster_than_simulation() {
    let workers = host_cpus();
    let simulated = median((0..SAMPLES).map(|_| cells_per_sec(workers, None)).collect());
    let dir = temp_dir("replay");
    let _ = cells_per_sec(workers, Some(&dir)); // warm the cache
    let replay = cells_per_sec(workers, Some(&dir));
    let _ = std::fs::remove_dir_all(&dir);
    println!("cells/s at {workers} workers: {simulated:.1} simulated, {replay:.1} replayed");
    assert!(
        replay > simulated,
        "cached replay not faster than simulation: {replay:.1} vs {simulated:.1} cells/s"
    );
}

#[test]
#[ignore = "timing gate: run in release by CI"]
fn the_parallel_pool_is_not_much_slower_than_serial() {
    let workers = host_cpus();
    let serial = median((0..SAMPLES).map(|_| cells_per_sec(1, None)).collect());
    let parallel = median((0..SAMPLES).map(|_| cells_per_sec(workers, None)).collect());
    println!("cells/s: {serial:.1} serial, {parallel:.1} at {workers} workers");
    assert!(
        parallel > 0.5 * serial,
        "parallel sweep slower than serial: {parallel:.1} vs {serial:.1} cells/s"
    );
}

/// Seconds one `Processor::run` of `cfg` takes on the SPEC FP95 mix, on the
/// event-driven default or the naive reference scheduler.
fn core_run_secs(cfg: &SimConfig, reference: bool) -> f64 {
    let mut cpu = Processor::with_spec_workload(cfg.clone(), 42);
    cpu.set_reference_model(reference);
    let start = Instant::now();
    let results = cpu.run(SCHEDULER_BUDGET);
    let secs = start.elapsed().as_secs_f64();
    assert!(results.instructions >= SCHEDULER_BUDGET);
    secs
}

/// The event machinery (verdict replay and stall fast-forward) must pay
/// for itself where it works hardest (one thread behind a 256-cycle L2,
/// where most cycles are skipped) and where it is mostly overhead (six
/// threads at L2 = 16, where nearly every cycle is stepped). Each cell's
/// estimate is the median of interleaved default/reference pairs,
/// alternating which side runs first; the quartiles are printed beside it.
#[test]
#[ignore = "timing gate: run in release by CI"]
fn the_event_driven_scheduler_beats_the_reference_model() {
    let cells = [
        (
            "stall-heavy (1 thread, L2 = 256)",
            SimConfig::paper_multithreaded(1)
                .with_l2_latency(256)
                .with_queue_scaling(true),
            STALL_HEAVY_PAIRS,
        ),
        (
            "stepped-heavy (6 threads, L2 = 16)",
            SimConfig::paper_multithreaded(6)
                .with_l2_latency(16)
                .with_queue_scaling(true),
            STEPPED_HEAVY_PAIRS,
        ),
    ];
    for (name, cfg, pairs) in cells {
        let _ = core_run_secs(&cfg, false); // warm caches and the allocator
        let ratios: Vec<f64> = (0..pairs)
            .map(|pair| {
                let (default, reference) = if pair % 2 == 0 {
                    let default = core_run_secs(&cfg, false);
                    (default, core_run_secs(&cfg, true))
                } else {
                    let reference = core_run_secs(&cfg, true);
                    (core_run_secs(&cfg, false), reference)
                };
                default / reference.max(1e-9)
            })
            .collect();
        let (q1, q3) = quartiles(ratios.clone());
        let ratio = median(ratios);
        println!(
            "{name}: default / reference run time over {pairs} pairs: \
             median {ratio:.3} (quartiles {q1:.3}-{q3:.3})"
        );
        assert!(
            ratio < 1.0,
            "{name}: the event-driven scheduler is not faster than the reference model \
             (default / reference = {ratio:.3})"
        );
    }
}

/// A scenario's cache identity the way it was derived before JSON was
/// written directly: build the `Value` tree, write it with the tree writer
/// of that time ([`tree_json`]), then hash the text twice, once per prefix.
fn tree_then_two_passes(scenario: &Scenario) -> CacheIdentity {
    let mut canonical = String::new();
    tree_json(&serde::Serialize::to_value(scenario), &mut canonical);
    let prefixed = |prefix: &[u8]| {
        let mut h = Fnv64::new();
        h.update(prefix);
        h.update(canonical.as_bytes());
        h.finish()
    };
    let key_prefix = format!("v{}+{}:", CACHE_SCHEMA_VERSION, env!("CARGO_PKG_VERSION"));
    CacheIdentity {
        key: prefixed(key_prefix.as_bytes()),
        verify: prefixed(b"verify:"),
    }
}

/// The compact JSON writer `serde::to_string` used before `JsonWriter`,
/// kept as the reference side of the cache identity gate: it walks a
/// `Value` tree and formats each number into a fresh `String`.
fn tree_json(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(x) if x.is_finite() => out.push_str(&format!("{x:?}")),
        Value::F64(x) if x.is_nan() => out.push_str("\"NaN\""),
        Value::F64(x) => out.push_str(if *x > 0.0 { "\"inf\"" } else { "\"-inf\"" }),
        Value::Str(s) => tree_json_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                tree_json(item, out);
            }
            out.push(']');
        }
        Value::Object(entries) => {
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                tree_json_string(k, out);
                out.push(':');
                tree_json(item, out);
            }
            out.push('}');
        }
    }
}

fn tree_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Microseconds one pass of `identity` over `cells` takes.
fn identity_pass_us(cells: &[Scenario], identity: fn(&Scenario) -> CacheIdentity) -> f64 {
    let start = Instant::now();
    for s in cells {
        std::hint::black_box(identity(std::hint::black_box(s)));
    }
    start.elapsed().as_secs_f64() * 1e6
}

/// Every cache hit derives the cell's identity first, so on a warm store it
/// is a large share of a hit. Writing the canonical JSON without a tree
/// and hashing it in one pass must be at least twice as fast as the tree,
/// its writer and two passes, over every cell of the figure grids.
#[test]
#[ignore = "timing gate: run in release by CI"]
fn cache_identity_is_2x_faster_than_tree_then_two_passes() {
    let cells: Vec<Scenario> = figure_grids(&ExperimentParams::standard())
        .iter()
        .flat_map(SweepGrid::cells)
        .map(|cell| cell.scenario)
        .collect();
    for s in &cells {
        assert_eq!(s.cache_identity(), tree_then_two_passes(s), "{s:?}");
    }
    let direct = |s: &Scenario| s.cache_identity();
    let ratios: Vec<f64> = (0..IDENTITY_PAIRS)
        .map(|pair| {
            let (new, old) = if pair % 2 == 0 {
                let new = identity_pass_us(&cells, direct);
                (new, identity_pass_us(&cells, tree_then_two_passes))
            } else {
                let old = identity_pass_us(&cells, tree_then_two_passes);
                (identity_pass_us(&cells, direct), old)
            };
            old / new.max(1e-9)
        })
        .collect();
    let speedup = median(ratios);
    let n = cells.len();
    let new_us = median(
        (0..SAMPLES)
            .map(|_| identity_pass_us(&cells, direct) / n as f64)
            .collect(),
    );
    println!(
        "cache identity over {n} figure cells: {new_us:.2}us per cell, \
         {speedup:.2}x faster than tree + two passes ({IDENTITY_PAIRS} pairs)"
    );
    assert!(
        speedup >= 2.0,
        "cache_identity is only {speedup:.2}x faster than building the tree and \
         hashing twice over {n} figure cells"
    );
}
