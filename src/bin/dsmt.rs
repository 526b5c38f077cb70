//! `dsmt` — the unified command-line front end for the sweep subsystem.
//!
//! Makes the sharded-sweep workflow scriptable across hosts that share only
//! a filesystem:
//!
//! ```text
//! dsmt asm inspect <file.s> [--expand N] [--seed S]
//! dsmt shard plan <grid> --shards N [--strategy S] [--out plan.json]
//! dsmt shard run <plan.json> --index I | --missing [--steal-after SECS]
//!                --store DIR [--workers W]
//! dsmt shard status <plan.json> --store DIR [--watch SECS]
//! dsmt shard merge <plan.json> --store DIR [--wait SECS]
//!                  [--out r.json] [--csv r.csv] [--dsr r.dsr]
//! dsmt sweep run <grid> [--workers W] [--progress] [--out r.json] [--csv r.csv] [--dsr r.dsr]
//! dsmt store stat <dir>
//! dsmt store synth <dir> --records N [--per-segment M] [--schema S]
//! dsmt report <file.dsr|report.json> [--json out.json] [--csv out.csv] [--canonical]
//! ```
//!
//! `dsmt asm inspect` assembles a `.s` source, summarises it and, with
//! `--expand N`, renders the first N interpreted instructions as canonical
//! trace text.
//!
//! `<grid>` is either a path to a `SweepGrid` JSON file or a built-in name:
//! `demo` or one of the figure grids (`fig1`, `fig3`, `fig4`, `fig5-l2-16`,
//! `fig5-l2-64`, `fetch-policy`, `fetch-policy-hetero`, `seed-variance`,
//! `ablation-iq-depth`, `ablation-mshr`, `ablation-unit-split`,
//! `ablation-l1-assoc`). Built-in figure grids honour `DSMT_INSTS`;
//! caching honours `DSMT_SWEEP_CACHE` like every other binary.
//!
//! `--store DIR` names the store shard outputs are published into (and
//! merged back out of), keyed by grid content hash + shard index. Point it
//! at the same directory as `DSMT_SWEEP_CACHE` and one shared directory
//! carries the fleet's scenario cache *and* its shard outputs.
//! `shard status` reports each shard as done / claimed-by-whom / missing
//! (`--watch` polls until complete).
//!
//! `shard run --missing` is the fleet-healing path: it claims every shard
//! that has no verified output yet (O_EXCL lockfiles) and executes the
//! claimed ones, so any number of recovery workers can race safely. With
//! `--steal-after SECS`, a claim whose lockfile is older than the
//! deadline is presumed dead (its worker was killed without unwinding)
//! and is stolen — exactly one racing stealer wins — so fleets recover
//! from SIGKILLed hosts without an operator removing lockfiles by hand.
//!
//! Every command honours `DSMT_LOG` (structured tracing: `pretty`,
//! `jsonl:FILE`, `off`) and `DSMT_METRICS` (write every counter to a file
//! on exit, as sorted `name,value` lines under a `name,value` header).

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use dsmt_core::SimConfig;
use dsmt_experiments::{figure_grids, ExperimentParams};
use dsmt_shard::{
    merge_from, plan, recover, run_shard, DsrFile, RecoverOptions, ShardManifest, ShardState,
    ShardStrategy, Transport, DEFAULT_HEARTBEAT,
};
use dsmt_store::Store;
use dsmt_sweep::{export, Axis, SweepEngine, SweepGrid, SweepReport, WorkloadSpec};

const USAGE: &str = "\
dsmt — sharded sweeps, result-store tooling and report export

USAGE:
  dsmt asm inspect <file.s> [--expand N] [--seed S]
  dsmt shard plan <grid> --shards N [--strategy contiguous|strided|hashed] [--out plan.json]
  dsmt shard run <plan.json> --index I | --missing [--steal-after SECS]
                 --store DIR [--workers W]
  dsmt shard status <plan.json> --store DIR [--watch SECS] [--json]
  dsmt shard merge <plan.json> --store DIR [--wait SECS] [--out report.json] [--csv report.csv] [--dsr merged.dsr]
  dsmt sweep run <grid> [--workers W] [--progress] [--out report.json] [--csv report.csv] [--dsr report.dsr]
  dsmt store stat <dir>
  dsmt store synth <dir> --records N [--per-segment M] [--schema S]
  dsmt report <file.dsr|report.json> [--json out.json] [--csv out.csv] [--canonical]

SHARD OUTPUTS:
  --store DIR   publish/read shard outputs in a dsmt-store directory (keyed
                by grid hash + shard index; share it with DSMT_SWEEP_CACHE
                for the one-directory fleet protocol)

GRIDS:
  a path to a SweepGrid JSON file, or a built-in name:
  demo, fetch-policy, fetch-policy-hetero, seed-variance, fig1, fig3,
  fig4, fig5-l2-16, fig5-l2-64, ablation-iq-depth, ablation-mshr,
  ablation-unit-split, ablation-l1-assoc

ENVIRONMENT:
  DSMT_INSTS                  instructions per cell for built-in figure grids
  DSMT_SWEEP_CACHE            result store dir, or `off`
  DSMT_LOG                    structured tracing: off | pretty | jsonl:FILE
                              (unset = warnings only, pretty, on stderr)
  DSMT_METRICS                write every counter to this file on exit, as
                              `name,value` lines
";

/// `print!` to stdout, except that a reader which has gone away (as in
/// `dsmt store stat DIR | head -1`) ends the process quietly with success
/// instead of a panic.
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` with the broken-pipe handling of [`out!`].
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args) {
        eprintln!("dsmt: {e}");
        std::process::exit(2);
    }
    dsmt_obs::dump_to_env_path();
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("asm") => asm_cmd(&args[1..]),
        Some("shard") => shard_cmd(&args[1..]),
        Some("sweep") => sweep_cmd(&args[1..]),
        Some("store") => store_cmd(&args[1..]),
        Some("report") => report_cmd(&args[1..]),
        None | Some("help" | "--help" | "-h") => {
            out!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    }
}

// ---------------------------------------------------------------------------
// Argument parsing (all flags take a value; positionals carry the rest).

struct Parsed {
    positional: Vec<String>,
    flags: HashMap<String, String>,
}

impl Parsed {
    fn flag(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    fn usize_flag(&self, name: &str) -> Result<Option<usize>, String> {
        self.flag(name)
            .map(|v| {
                v.parse::<usize>()
                    .map_err(|_| format!("--{name} expects a number, got `{v}`"))
            })
            .transpose()
    }
}

/// Flags that take no value in every command.
const BOOL_FLAGS: [&str; 3] = ["canonical", "missing", "progress"];

fn parse(args: &[String], allowed: &[&str]) -> Result<Parsed, String> {
    parse_with(args, allowed, &[])
}

/// Like [`parse`], but `extra_bools` names flags that are valueless *in
/// this command only* (`--json` is a bool for `shard status` but takes a
/// file path for `report`).
fn parse_with(args: &[String], allowed: &[&str], extra_bools: &[&str]) -> Result<Parsed, String> {
    let mut parsed = Parsed {
        positional: Vec::new(),
        flags: HashMap::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if let Some(name) = arg.strip_prefix("--") {
            if !allowed.contains(&name) {
                return Err(format!("unknown flag `--{name}`"));
            }
            if BOOL_FLAGS.contains(&name) || extra_bools.contains(&name) {
                parsed.flags.insert(name.to_string(), "1".to_string());
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| format!("--{name} expects a value"))?;
            parsed.flags.insert(name.to_string(), value.clone());
        } else {
            parsed.positional.push(arg.clone());
        }
    }
    Ok(parsed)
}

fn engine(workers: Option<usize>) -> SweepEngine {
    match workers {
        Some(w) => SweepEngine::new(w),
        None => SweepEngine::from_env(),
    }
}

// ---------------------------------------------------------------------------
// Grid resolution.

fn builtin_grids() -> Vec<SweepGrid> {
    let mut grids = vec![demo_grid()];
    grids.extend(figure_grids(&ExperimentParams::from_env()));
    grids
}

/// A 12-cell grid shaped like the perf gates' bench grid: small enough for
/// smoke tests, rich enough (three axes) to exercise sharding.
fn demo_grid() -> SweepGrid {
    SweepGrid::new(
        "demo",
        SimConfig::paper_multithreaded(1).with_queue_scaling(true),
    )
    .with_workload(WorkloadSpec::spec_mix(3_000))
    .with_axis(Axis::threads(&[1, 2]))
    .with_axis(Axis::decoupled(&[true, false]))
    .with_axis(Axis::l2_latencies(&[16, 64, 256]))
    .with_budget(10_000)
}

fn resolve_grid(spec: &str) -> Result<SweepGrid, String> {
    if Path::new(spec).is_file() {
        let text = std::fs::read_to_string(spec).map_err(|e| format!("{spec}: {e}"))?;
        return serde::from_str(&text).map_err(|e| format!("{spec}: not a SweepGrid JSON: {e}"));
    }
    let grids = builtin_grids();
    if let Some(grid) = grids.iter().find(|g| g.name == spec) {
        return Ok(grid.clone());
    }
    let names: Vec<&str> = grids.iter().map(|g| g.name.as_str()).collect();
    Err(format!(
        "`{spec}` is neither a grid JSON file nor a built-in grid (available: {})",
        names.join(", ")
    ))
}

// ---------------------------------------------------------------------------
// dsmt asm ...

fn asm_cmd(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("inspect") => asm_inspect(&args[1..]),
        _ => Err(format!("usage: dsmt asm inspect ...\n\n{USAGE}")),
    }
}

fn asm_inspect(args: &[String]) -> Result<(), String> {
    let p = parse(args, &["expand", "seed"])?;
    let [path] = p.positional.as_slice() else {
        return Err("usage: dsmt asm inspect <file.s> [--expand N] [--seed S]".into());
    };
    let source = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let name = Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("program");
    let program = dsmt_asm::assemble(name, &source).map_err(|e| format!("{path}: {e}"))?;
    outln!(
        "program `{}`: {} instructions, {} data cells",
        program.name,
        program.code.len(),
        program.data.len(),
    );
    if let Some(limit) = p.usize_flag("expand")? {
        let seed = p.usize_flag("seed")?.unwrap_or(0) as u64;
        let insts = program.expand(seed, limit as u64);
        out!("{}", dsmt_isa::text::render_trace(&insts));
        let classes = dsmt_isa::OpClass::ALL
            .iter()
            .map(|&c| (c.mnemonic(), insts.iter().filter(|i| i.op == c).count()))
            .filter(|&(_, n)| n > 0)
            .map(|(m, n)| format!("{m} {n}"))
            .collect::<Vec<_>>()
            .join(", ");
        eprintln!("expanded {} (seed {seed}): {classes}", insts.len());
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// dsmt shard ...

fn shard_cmd(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("plan") => shard_plan(&args[1..]),
        Some("run") => shard_run(&args[1..]),
        Some("status") => shard_status(&args[1..]),
        Some("merge") => shard_merge(&args[1..]),
        _ => Err(format!(
            "usage: dsmt shard plan|run|status|merge ...\n\n{USAGE}"
        )),
    }
}

/// Opens the shard transport on the store named by the required
/// `--store DIR` flag.
fn transport_from(p: &Parsed, usage: &str) -> Result<Transport, String> {
    Transport::store(
        p.flag("store")
            .ok_or_else(|| format!("--store DIR is required\n{usage}"))?,
    )
}

fn shard_plan(args: &[String]) -> Result<(), String> {
    let p = parse(args, &["shards", "strategy", "out"])?;
    let [grid_spec] = p.positional.as_slice() else {
        return Err("usage: dsmt shard plan <grid> --shards N [--strategy S] [--out FILE]".into());
    };
    let grid = resolve_grid(grid_spec)?;
    let shards = p
        .usize_flag("shards")?
        .ok_or("--shards is required for `shard plan`")?;
    let strategy = match p.flag("strategy") {
        None => ShardStrategy::Contiguous,
        Some(name) => ShardStrategy::from_name(name)
            .ok_or_else(|| format!("unknown strategy `{name}` (contiguous|strided|hashed)"))?,
    };
    let manifest = plan(&grid, shards, strategy).map_err(|e| e.to_string())?;
    let out = p
        .flag("out")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(format!("{}.plan.json", grid.name)));
    manifest
        .save(&out)
        .map_err(|e| format!("{}: {e}", out.display()))?;
    outln!(
        "planned `{}`: {} cells -> {} shards ({}), grid hash {}",
        grid.name,
        grid.len(),
        manifest.num_shards(),
        strategy.name(),
        manifest.grid_hash,
    );
    for (i, cells) in manifest.shards.iter().enumerate() {
        outln!("  shard {i}: {:>4} cells", cells.len());
    }
    outln!("manifest: {}", out.display());
    Ok(())
}

fn shard_run(args: &[String]) -> Result<(), String> {
    let p = parse(
        args,
        &["index", "missing", "workers", "store", "steal-after"],
    )?;
    let usage = "usage: dsmt shard run <plan.json> --index I | --missing [--steal-after SECS] \
                 --store DIR [--workers W]";
    let [plan_path] = p.positional.as_slice() else {
        return Err(usage.into());
    };
    let manifest = ShardManifest::load(plan_path).map_err(|e| e.to_string())?;
    let mut transport = transport_from(&p, usage)?;
    let engine = engine(p.usize_flag("workers")?);
    let index = p.usize_flag("index")?;
    let missing = p.flag("missing").is_some();
    let steal_after = p
        .usize_flag("steal-after")?
        .map(|secs| std::time::Duration::from_secs(secs as u64));
    match (index, missing) {
        (Some(_), true) | (None, false) => {
            Err(format!("pass exactly one of --index or --missing\n{usage}"))
        }
        (Some(_), false) if steal_after.is_some() => {
            Err(format!("--steal-after only applies to --missing\n{usage}"))
        }
        (Some(index), false) => {
            let run = run_shard(&manifest, index, &engine).map_err(|e| e.to_string())?;
            transport.publish(&manifest, &run.dsr)?;
            outln!(
                "shard {index}/{}: {} cells ({} cached, {} simulated) in {:.2}s -> {}",
                manifest.num_shards(),
                run.report.records.len(),
                run.report.cache_hits,
                run.report.cache_misses,
                run.report.wall_secs,
                transport.describe(),
            );
            Ok(())
        }
        (None, true) => {
            let outcome = recover(
                &manifest,
                &mut transport,
                &engine,
                &RecoverOptions {
                    steal_after,
                    heartbeat: Some(DEFAULT_HEARTBEAT),
                },
            )
            .map_err(|e| e.to_string())?;
            let list = |ix: &[usize]| {
                ix.iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            outln!(
                "recovery pass over {} shards ({}): executed [{}], already done [{}], \
                 claimed elsewhere [{}]",
                manifest.num_shards(),
                transport.describe(),
                list(&outcome.executed()),
                list(&outcome.already_done()),
                list(&outcome.claimed_elsewhere()),
            );
            for steal in &outcome.steals {
                outln!(
                    "stole stale claim on shard {} (was: {})",
                    steal.shard_index,
                    steal.previous
                );
            }
            if outcome.complete() {
                outln!("every shard now has a verified output; ready to merge");
            } else {
                outln!("some shards are claimed by other workers; re-run to check on them");
            }
            Ok(())
        }
    }
}

fn shard_status(args: &[String]) -> Result<(), String> {
    let p = parse_with(args, &["store", "watch", "json"], &["json"])?;
    let usage = "usage: dsmt shard status <plan.json> --store DIR [--watch SECS] [--json]";
    let [plan_path] = p.positional.as_slice() else {
        return Err(usage.into());
    };
    let manifest = ShardManifest::load(plan_path).map_err(|e| e.to_string())?;
    let mut transport = transport_from(&p, usage)?;
    let watch = p.usize_flag("watch")?;
    let json = p.flag("json").is_some();
    loop {
        let report = transport.status(&manifest);
        if json {
            // One machine-readable document per poll (the shape
            // `StatusReport::to_value` documents), for scripts that
            // watch a fleet's progress instead of grepping the text form.
            outln!("{}", serde::to_string_pretty(&report.to_value(&manifest)));
            let Some(secs) = watch else { break };
            if report.complete() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_secs(secs.max(1) as u64));
            continue;
        }
        outln!(
            "plan `{}` (grid hash {}, {} shards) via {}:",
            manifest.grid.name,
            manifest.grid_hash,
            manifest.num_shards(),
            transport.describe(),
        );
        for shard in &report.shards {
            let cells = manifest.shards[shard.index].len();
            match &shard.state {
                ShardState::Done { records } => {
                    outln!("  shard {}: done ({records} records)", shard.index);
                }
                ShardState::Claimed(info) => {
                    outln!(
                        "  shard {}: claimed by {} ({cells} cells)",
                        shard.index,
                        info.describe(),
                    );
                }
                ShardState::Missing => {
                    outln!("  shard {}: missing ({cells} cells)", shard.index);
                }
            }
        }
        outln!(
            "{} done, {} claimed, {} missing{}",
            report.done(),
            report.claimed(),
            report.missing(),
            if report.complete() {
                " — complete, ready to merge"
            } else {
                ""
            },
        );
        let Some(secs) = watch else { break };
        if report.complete() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_secs(secs.max(1) as u64));
    }
    Ok(())
}

fn shard_merge(args: &[String]) -> Result<(), String> {
    let p = parse(args, &["store", "wait", "out", "csv", "dsr"])?;
    let usage = "usage: dsmt shard merge <plan.json> --store DIR [--wait SECS] \
                 [--out FILE] [--csv FILE] [--dsr FILE]";
    let [plan_path] = p.positional.as_slice() else {
        return Err(usage.into());
    };
    let manifest = ShardManifest::load(plan_path).map_err(|e| e.to_string())?;
    let mut transport = transport_from(&p, usage)?;
    // --wait: the `status --watch` polling loop, inlined — block until
    // every shard has a verified output, then merge in the same process.
    if let Some(secs) = p.usize_flag("wait")? {
        loop {
            let status = transport.status(&manifest);
            if status.complete() {
                break;
            }
            outln!(
                "waiting for `{}`: {} done, {} claimed, {} missing (poll every {}s)",
                manifest.grid.name,
                status.done(),
                status.claimed(),
                status.missing(),
                secs.max(1),
            );
            std::thread::sleep(std::time::Duration::from_secs(secs.max(1) as u64));
        }
    }
    let report = merge_from(&manifest, &mut transport).map_err(|e| e.to_string())?;
    outln!(
        "merged {} shards ({}) -> {} cells of `{}`",
        manifest.num_shards(),
        transport.describe(),
        report.records.len(),
        report.grid,
    );
    write_outputs(&report, Some(&manifest.grid), &p)?;
    Ok(())
}

// ---------------------------------------------------------------------------
// dsmt sweep ...

fn sweep_cmd(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("run") => sweep_run(&args[1..]),
        _ => Err(format!("usage: dsmt sweep run ...\n\n{USAGE}")),
    }
}

fn sweep_run(args: &[String]) -> Result<(), String> {
    let p = parse(args, &["workers", "progress", "out", "csv", "dsr"])?;
    let [grid_spec] = p.positional.as_slice() else {
        return Err(
            "usage: dsmt sweep run <grid> [--workers W] [--progress] [--out FILE] [--csv FILE] \
             [--dsr FILE]"
                .into(),
        );
    };
    let grid = resolve_grid(grid_spec)?;
    let mut engine = engine(p.usize_flag("workers")?);
    if p.flag("progress").is_some() {
        engine = engine.with_progress();
    }
    let report = engine.run(&grid);
    outln!(
        "`{}`: {} cells ({} cached, {} simulated) in {:.2}s",
        report.grid,
        report.records.len(),
        report.cache_hits,
        report.cache_misses,
        report.wall_secs,
    );
    write_outputs(&report, Some(&grid), &p)?;
    Ok(())
}

// ---------------------------------------------------------------------------
// dsmt store ...

fn store_cmd(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("stat") => store_stat(&args[1..]),
        Some("synth") => store_synth(&args[1..]),
        _ => Err(format!("usage: dsmt store stat|synth ...\n\n{USAGE}")),
    }
}

/// Opens the store, then prints the open cost, the header-index counters and a per-segment listing. The
/// `open_us:` / `header_index_hits:` / `records_lazy_decoded:` lines are
/// stable, machine-parseable output — CI's store-scale gate greps them.
fn store_stat(args: &[String]) -> Result<(), String> {
    let p = parse(args, &[])?;
    let [dir] = p.positional.as_slice() else {
        return Err("usage: dsmt store stat <dir>".into());
    };
    let dir = PathBuf::from(dir);
    let schema = Store::marker_schema(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .ok_or_else(|| format!("{}: not a store (no STORE.json marker)", dir.display()))?;
    let started = std::time::Instant::now();
    let store = Store::open(&dir, schema).map_err(|e| format!("{}: {e}", dir.display()))?;
    let open_us = started.elapsed().as_micros();
    let segments = store.segment_infos();
    outln!(
        "store: {} (schema {}, {} segments, {} records, {} bytes)",
        dir.display(),
        schema,
        segments.len(),
        store.record_count(),
        store.total_bytes(),
    );
    outln!("open_us: {open_us}");
    let registry = dsmt_obs::registry();
    outln!(
        "header_index_hits: {}",
        registry.counter("store.header_index_hits").get()
    );
    outln!(
        "records_lazy_decoded: {}",
        registry.counter("store.records_lazy_decoded").get()
    );
    let now = std::time::SystemTime::now();
    for e in &segments {
        let age = now
            .duration_since(e.modified)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        outln!(
            "  {}  seq {:>4}  {:>8} bytes  {:>6} records  modified {:>6}s ago",
            e.name,
            e.seq,
            e.bytes,
            e.records,
            age
        );
    }
    Ok(())
}

/// Generates a synthetic store for scale testing: `--records N` records
/// shaped like sweep cells (a handful of numeric stats plus a small
/// string-coded enum, so record bodies dominate the segment and the
/// header directory stays compact), published `--per-segment M` at a
/// time. CI's store-scale gate uses this to check a header-only open at
/// 10^5 records without running 10^5 simulations.
fn store_synth(args: &[String]) -> Result<(), String> {
    let p = parse(args, &["records", "per-segment", "schema"])?;
    let [dir] = p.positional.as_slice() else {
        return Err(
            "usage: dsmt store synth <dir> --records N [--per-segment M] [--schema S]".into(),
        );
    };
    let records = p
        .usize_flag("records")?
        .ok_or("--records is required (how many records to generate)")?;
    let per_segment = p.usize_flag("per-segment")?.unwrap_or(4096).max(1);
    let schema = match p.flag("schema") {
        Some(v) => v
            .parse::<u32>()
            .map_err(|_| format!("--schema expects a number, got `{v}`"))?,
        None => 1,
    };
    let mut store = Store::open(dir, schema).map_err(|e| format!("{dir}: {e}"))?;
    let mut batch = Vec::with_capacity(per_segment.min(records));
    let mut segments = 0usize;
    for n in 0..records as u64 {
        batch.push((synth_key(n), synth_value(n)));
        if batch.len() == per_segment {
            store
                .publish(std::mem::take(&mut batch))
                .map_err(|e| e.to_string())?;
            segments += 1;
        }
    }
    if !batch.is_empty() {
        store.publish(batch).map_err(|e| e.to_string())?;
        segments += 1;
    }
    outln!(
        "synthesized {}: {} records in {} segments ({} bytes)",
        store.dir().display(),
        store.record_count(),
        segments,
        store.total_bytes(),
    );
    Ok(())
}

/// A well-mixed synthetic key (splitmix64 finalizer) so the index
/// exercises realistic hash distribution rather than sequential keys.
fn synth_key(n: u64) -> u64 {
    let mut x = n.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A record shaped like a cached sweep cell: mostly numeric stats under
/// shared field names (interned once per segment), so a full decode pays
/// a realistic per-record cost while the header stays small.
fn synth_value(n: u64) -> serde::Value {
    use serde::Value;
    const MIXES: [&str; 4] = ["int", "fp", "mem", "branchy"];
    let h = synth_key(n);
    Value::Object(vec![
        ("kind".to_string(), Value::Str("synth-cell".to_string())),
        (
            "mix".to_string(),
            Value::Str(MIXES[(n % 4) as usize].to_string()),
        ),
        ("seed".to_string(), Value::U64(n)),
        (
            "ipc".to_string(),
            Value::F64(0.5 + (h % 2048) as f64 / 1024.0),
        ),
        ("cycles".to_string(), Value::U64(h % 100_000_000)),
        ("insts".to_string(), Value::U64(h % 10_000_000)),
        (
            "stats".to_string(),
            Value::Object(vec![
                ("l1_hits".to_string(), Value::U64(h % 1_000_000)),
                ("l2_hits".to_string(), Value::U64(h % 65_536)),
                ("mshr_stalls".to_string(), Value::U64(h % 4_096)),
                ("bus_busy".to_string(), Value::F64((h % 97) as f64 / 97.0)),
                ("fetch_mask".to_string(), Value::U64(h & 0xff)),
            ]),
        ),
        (
            "latency_hist".to_string(),
            Value::Array((0..8).map(|i| Value::U64((h >> (i * 8)) & 0xff)).collect()),
        ),
        (
            "unit_busy".to_string(),
            Value::Array(
                (0..6)
                    .map(|i| Value::F64(((h >> i) % 101) as f64 / 101.0))
                    .collect(),
            ),
        ),
    ])
}

// ---------------------------------------------------------------------------
// dsmt report ...

fn report_cmd(args: &[String]) -> Result<(), String> {
    let p = parse(args, &["json", "csv", "canonical"])?;
    let [path] = p.positional.as_slice() else {
        return Err(
            "usage: dsmt report <file.dsr|report.json> [--json FILE] [--csv FILE] [--canonical]"
                .into(),
        );
    };
    let (report, grid) = load_report(path)?;
    if p.flag("canonical").is_some() {
        // Records only — the machine-independent identity of the sweep —
        // for byte-exact diffing between sharded and monolithic runs.
        outln!("{}", serde::to_string_pretty(&report.records));
    } else {
        print_report_summary(&report);
    }
    write_outputs(&report, grid.as_ref(), &p)?;
    Ok(())
}

fn load_report(path: &str) -> Result<(SweepReport, Option<SweepGrid>), String> {
    if path.ends_with(".dsr") {
        let file = DsrFile::read(path).map_err(|e| e.to_string())?;
        let report = file.to_report().map_err(|e| e.to_string())?;
        return Ok((report, Some(file.grid)));
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let report: SweepReport =
        serde::from_str(&text).map_err(|e| format!("{path}: not a SweepReport JSON: {e}"))?;
    Ok((report, None))
}

fn print_report_summary(report: &SweepReport) {
    outln!("grid `{}`: {} cells", report.grid, report.records.len());
    let axes = report.axis_names();
    if !axes.is_empty() {
        outln!("axes: {}", axes.join(", "));
    }
    if report.records.is_empty() {
        return;
    }
    let mut best = &report.records[0];
    let mut worst = &report.records[0];
    for r in &report.records {
        if r.results.ipc() > best.results.ipc() {
            best = r;
        }
        if r.results.ipc() < worst.results.ipc() {
            worst = r;
        }
    }
    let describe = |r: &dsmt_sweep::RunRecord| {
        let labels: Vec<String> = r.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!("cell {} [{}]", r.cell, labels.join(", "))
    };
    outln!(
        "ipc: {:.3} ({}) .. {:.3} ({})",
        worst.results.ipc(),
        describe(worst),
        best.results.ipc(),
        describe(best)
    );
}

/// Writes the report in whichever formats the flags asked for.
fn write_outputs(report: &SweepReport, grid: Option<&SweepGrid>, p: &Parsed) -> Result<(), String> {
    if let Some(out) = p.flag("out").or_else(|| p.flag("json")) {
        export::write_json(report, out).map_err(|e| format!("{out}: {e}"))?;
        outln!("json: {out}");
    }
    if let Some(out) = p.flag("csv") {
        export::write_csv(report, out).map_err(|e| format!("{out}: {e}"))?;
        outln!("csv: {out}");
    }
    if let Some(out) = p.flag("dsr") {
        let grid = grid.ok_or("--dsr needs the grid, which this input does not carry")?;
        DsrFile::from_report(grid, report, 0, 1)
            .write(out)
            .map_err(|e| e.to_string())?;
        outln!("dsr: {out}");
    }
    Ok(())
}
