//! `dsmt-ledger`: the repository's benchmark. One command runs a workload
//! end to end (untraced) or, with `--trace 1`, yields its per-layer
//! ledger, checks every output, and prints one JSON result line.
//!
//! ```text
//! cargo run --release --manifest-path ledger/Cargo.toml -- \
//!     --workload latency_sweep|thread_sweep|warm_fleet \
//!     [--seed 42] [--seconds 10] [--trace 0|1] [--smoke]
//! ```
//!
//! The last line of standard output is
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`; the
//! line before it carries the run's provenance (host, budget, seed,
//! samples, median and quartiles of every metric, commit). `--smoke` runs
//! each workload at a tiny budget. See `README.md` for the workloads and
//! the layer-to-end-to-end map.

mod e2e;
mod layers;
mod stats;
mod streams;
mod workload;

use std::process::ExitCode;
use std::time::Duration;

use e2e::Opts;
use stats::{proc_status, summarize, Ledger};
use workload::{workers, Scale, Scratch, Workload};

/// The end-to-end metrics (untraced runs), as `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("serial_wall_s", "s"),
    ("minst_per_s", "Minst/s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics (traced runs), as `BENCHMARK.json` lists them.
const PER_LAYER: [(&str, &str); 30] = [
    ("core.build_us", "us"),
    ("core.ns_per_cycle", "ns"),
    ("core.ns_per_inst", "ns"),
    ("core.skipped_cycle_pct", "%"),
    ("trace.synth_ns_per_inst", "ns"),
    ("trace.program_ns_per_inst", "ns"),
    ("mem.ns_per_access", "ns"),
    ("mem.l1_miss_pct", "%"),
    ("mem.rejected_access_pct", "%"),
    ("uarch.predict_ns", "ns"),
    ("sweep.cell_overhead_us", "us"),
    ("sweep.parallel_speedup", "x"),
    ("sweep.pool_idle_pct", "%"),
    ("sweep.cache_hit_us", "us"),
    ("store.open_ms", "ms"),
    ("store.get_us_p50", "us"),
    ("store.get_us_p99", "us"),
    ("store.publish_ms", "ms"),
    ("store.records", "count"),
    ("store.segments", "count"),
    ("store.bytes", "bytes"),
    ("shard.plan_ms", "ms"),
    ("shard.run_ms", "ms"),
    ("shard.overhead_ms", "ms"),
    ("shard.merge_ms", "ms"),
    ("shard.dsr_encode_us", "us"),
    ("shard.dsr_decode_us", "us"),
    ("shard.dsr_bytes", "bytes"),
    ("obs.overhead_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
];

/// Environment knobs that would move the program off its defaults.
const PROGRAM_ENV: [&str; 7] = [
    "DSMT_LOG",
    "DSMT_METRICS",
    "DSMT_INSTS",
    "DSMT_SWEEP_BATCH",
    "DSMT_SWEEP_CACHE",
    "DSMT_SWEEP_CACHE_MAX_BYTES",
    "DSMT_STORE_EAGER",
];

const USAGE: &str = "usage: dsmt-ledger --workload latency_sweep|thread_sweep|warm_fleet \
                     [--seed N] [--seconds N] [--trace 0|1] [--smoke]";

#[derive(Debug)]
struct Cli {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: Workload::LatencySweep,
        seed: 42,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            cli.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => cli.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cli.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                cli.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    cli.workload = workload.ok_or("--workload is required")?;
    Ok(cli)
}

/// CPUs this process may run on (what `nproc` prints).
fn nproc() -> usize {
    let count = |list: &str| -> Option<usize> {
        list.split(',')
            .map(|range| match range.split_once('-') {
                Some((a, b)) => Some(b.parse::<usize>().ok()? - a.parse::<usize>().ok()? + 1),
                None => range.parse::<usize>().ok().map(|_| 1),
            })
            .sum()
    };
    proc_status("Cpus_allowed_list:")
        .and_then(|l| count(&l))
        .unwrap_or_else(workers)
}

/// The checked-out commit, read from `.git` when the checkout has one.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let head = read(".git/HEAD").unwrap_or_default();
    let commit = match head.trim().strip_prefix("ref: ") {
        Some(name) => read(&format!(".git/{name}")).or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(name))
                .map(|l| l.split(' ').next().unwrap_or_default().to_string())
        }),
        None => Some(head),
    };
    let commit = commit.unwrap_or_default().trim().to_string();
    if commit.len() == 40 && commit.bytes().all(|b| b.is_ascii_hexdigit()) {
        commit
    } else {
        "unknown".to_string()
    }
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("dsmt-ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for var in PROGRAM_ENV {
        std::env::remove_var(var);
    }
    dsmt_obs::init_from_spec("");
    let scale = Scale::of(cli.workload, cli.smoke);
    let o = Opts {
        workload: cli.workload,
        seed: cli.seed,
        scale,
        seconds: Duration::from_secs_f64(cli.seconds),
        smoke: cli.smoke,
    };
    let mut scratch = Scratch::new();
    let mut ledger = Ledger::default();
    match (cli.workload.is_cold(), cli.trace) {
        (true, false) => e2e::cold(&o, &mut scratch, &mut ledger),
        (false, false) => e2e::warm(&o, &mut scratch, &mut ledger),
        (true, true) => layers::cold(&o, &mut scratch, &mut ledger),
        (false, true) => layers::warm(&o, &mut scratch, &mut ledger),
    }
    drop(scratch);
    let wanted: &[(&str, &str)] = if cli.trace { &PER_LAYER } else { &END_TO_END };
    // A layer that does no work on this workload reads 0.
    let mut not_applicable = Vec::new();
    for &(name, unit) in wanted {
        if !ledger.metrics.iter().any(|m| m.name == name) {
            not_applicable.push(format!("\"{name}\""));
            ledger.value(name, unit, 0.0);
        }
    }
    for m in &ledger.metrics {
        assert!(
            wanted.contains(&(m.name, m.unit)),
            "metric {} ({}) is not declared",
            m.name,
            m.unit
        );
    }

    let samples: Vec<String> = ledger
        .metrics
        .iter()
        .map(|m| {
            let s = summarize(&m.samples);
            format!(
                "\"{}\": {{\"n\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}}}",
                m.name,
                s.n,
                num(s.median),
                num(s.q1),
                num(s.q3)
            )
        })
        .collect();
    let provenance = [
        ("workload", format!("\"{}\"", cli.workload.name())),
        ("seed", cli.seed.to_string()),
        ("seconds", num(cli.seconds)),
        ("trace", cli.trace.to_string()),
        ("smoke", cli.smoke.to_string()),
        ("budget_insts_per_cell", scale.budget.to_string()),
        ("store_seeds", scale.seeds.to_string()),
        ("shards_per_grid", scale.shards.to_string()),
        ("nproc", nproc().to_string()),
        ("available_parallelism", workers().to_string()),
        ("workers", workers().to_string()),
        ("git_commit", format!("\"{}\"", git_commit())),
        (
            "model",
            "\"unvalidated against hardware; simulated statistics are checked for identity only\""
                .to_string(),
        ),
        ("not_applicable", format!("[{}]", not_applicable.join(", "))),
    ];
    let fields: Vec<String> = provenance
        .iter()
        .map(|(k, v)| (*k, v))
        .chain(ledger.notes.iter().map(|(k, v)| (k.as_str(), v)))
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .chain(std::iter::once(format!(
            "\"samples\": {{{}}}",
            samples.join(", ")
        )))
        .collect();
    println!("{{\"provenance\": {{{}}}}}", fields.join(", "));
    let metrics: Vec<String> = ledger
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value()),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.failed == 0 && ledger.attempted > 0,
        ledger.attempted,
        ledger.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
