//! The untraced end-to-end runs. Telemetry stays at the program's default
//! (off), and nothing inside the timed phase is instrumented.

use std::path::Path;
use std::time::Duration;

use dsmt_shard::{
    merge_from, plan, recover, DsrFile, MissingRun, RecoverOptions, ShardDisposition,
    ShardStrategy, Transport, DEFAULT_HEARTBEAT,
};
use dsmt_sweep::SweepReport;

use crate::stats::{median, paired, peak_rss_mb, timed, HostProbe, Ledger};
use crate::workload::{
    copy_tree, digest, engine, mismatches, pinned, records, run_figures, setup, workers, Scale,
    Scratch, Setup, Workload,
};

/// What one run was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// The workload.
    pub workload: Workload,
    /// Grid seed.
    pub seed: u64,
    /// Work per cell, seeds and shards.
    pub scale: Scale,
    /// Length of the measured phase.
    pub seconds: Duration,
    /// Tiny budgets and a single pair, for the smoke tests.
    pub smoke: bool,
}

impl Opts {
    /// Pairs the A/B sampler takes at least, whatever the time budget.
    #[must_use]
    pub fn min_pairs(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }
}

/// The options `dsmt shard run --missing` recovers with.
pub const RECOVER: RecoverOptions = RecoverOptions {
    steal_after: None,
    heartbeat: Some(DEFAULT_HEARTBEAT),
};

/// Runs set-up `rounds` times, each into a fresh store, and keeps the last.
/// Returns it with every set-up's seconds.
fn setups(o: &Opts, rounds: usize, scratch: &mut Scratch) -> (Setup, Vec<f64>) {
    let mut secs = Vec::with_capacity(rounds);
    let mut kept: Option<Setup> = None;
    for _ in 0..rounds {
        if let Some(old) = kept.take() {
            let _ = std::fs::remove_dir_all(&old.store);
        }
        let store = scratch.fresh("setup");
        let (s, t) = timed(|| setup(o.workload, o.seed, o.scale, store));
        secs.push(t);
        kept = Some(s);
    }
    (kept.expect("at least one set-up"), secs)
}

/// Checks a run's reference records against the pinned digest (when one
/// is pinned for this workload, seed and budget) and notes both digests.
/// Returns whether the reference may be trusted.
pub fn check_digest(o: &Opts, reports: &[SweepReport], ledger: &mut Ledger) -> bool {
    let got = records(reports);
    let digest = digest(&got);
    let pinned = pinned(o.workload, o.seed, o.scale.budget);
    let ok = pinned.is_none_or(|p| p == digest);
    ledger.tally(got.len(), if ok { 0 } else { got.len() });
    ledger.note("digest", format!("\"{digest:016x}\""));
    ledger.note(
        "pinned_digest",
        pinned.map_or_else(|| "null".to_string(), |p| format!("\"{p:016x}\"")),
    );
    ok
}

/// Instructions retired across `reports`.
#[must_use]
pub fn instructions(reports: &[SweepReport]) -> u64 {
    records(reports)
        .iter()
        .map(|r| r.results.instructions)
        .sum()
}

/// The cold sweep workloads: every pass sets up afresh and simulates every
/// cell into the empty store set-up created, alternating 1 worker and
/// every core. Set-up takes well under a millisecond, so it is sampled
/// before every pass, across the whole run. The phase is pure host CPU
/// work, so each side's samples are scaled to the reference host speed by
/// the median [`HostProbe`] time taken around that side's passes; the raw
/// medians go to the provenance.
pub fn cold(o: &Opts, scratch: &mut Scratch, ledger: &mut Ledger) {
    let all = workers();
    let mut probe = HostProbe::new(all);
    // An untimed set-up and serial pass warm the host and fix the reference
    // every timed pass must reproduce bit for bit.
    let first = setup(o.workload, o.seed, o.scale, scratch.fresh("cold"));
    let reference_reports = run_figures(&first.figures, 1, &first.store);
    let trusted = check_digest(o, &reference_reports, ledger);
    let reference = records(&reference_reports);
    let insts = instructions(&reference_reports) as f64;
    let mut setup_secs = Vec::new();
    let (mut serial_probes, mut parallel_probes) = (Vec::new(), Vec::new());
    let (serial, parallel) = paired(o.min_pairs(), o.seconds, |many| {
        let workers = if many { all } else { 1 };
        let probes = if many {
            &mut parallel_probes
        } else {
            &mut serial_probes
        };
        probes.push(probe.sample(workers));
        let store = scratch.fresh("cold");
        let (setup, secs) = timed(|| setup(o.workload, o.seed, o.scale, store));
        setup_secs.push(secs);
        let (reports, secs) = timed(|| run_figures(&setup.figures, workers, &setup.store));
        probes.push(probe.sample(workers));
        let got = records(&reports);
        let bad = if trusted {
            mismatches(&got, &reference)
        } else {
            got.len()
        };
        ledger.tally(got.len(), bad);
        let _ = std::fs::remove_dir_all(&setup.store);
        secs
    });
    ledger.note("raw_setup_s", format!("{}", median(&setup_secs)));
    ledger.note("raw_wall_s", format!("{}", median(&parallel)));
    ledger.note("raw_serial_wall_s", format!("{}", median(&serial)));
    ledger.note(
        "probe_reference_s",
        format!("{}", HostProbe::REFERENCE_SECS),
    );
    ledger.note("probe_serial_s", format!("{}", median(&serial_probes)));
    ledger.note("probe_parallel_s", format!("{}", median(&parallel_probes)));
    let scaled = |samples: &[f64], probes: &[f64]| -> Vec<f64> {
        let factor = HostProbe::REFERENCE_SECS / median(probes);
        samples.iter().map(|s| s * factor).collect()
    };
    let serial = scaled(&serial, &serial_probes);
    let minst = serial.iter().map(|s| insts / s / 1e6).collect();
    ledger.sampled("setup_s", "s", scaled(&setup_secs, &serial_probes));
    ledger.sampled("wall_s", "s", scaled(&parallel, &parallel_probes));
    ledger.sampled("serial_wall_s", "s", serial);
    ledger.sampled("minst_per_s", "Minst/s", minst);
    // The probe's tables are resident throughout; they are not the
    // workload's memory.
    ledger.value("peak_rss_mb", "MB", peak_rss_mb() - probe.resident_mb());
    ledger.note("cells", reference.len().to_string());
    ledger.note("instructions", format!("{insts}"));
}

/// One timed warm-fleet pass over a copy of the populated store.
#[derive(Debug)]
pub struct FleetPass {
    /// Every grid re-rendered from the store.
    pub reports: Vec<SweepReport>,
    /// Per main-seed grid: the recovery pass over its shards.
    pub recovered: Vec<Result<MissingRun, String>>,
    /// Per main-seed grid: the merged `.dsr` bytes.
    pub merged: Vec<Result<Vec<u8>, String>>,
}

/// Re-renders every grid from `store`, then plans each grid of the run's
/// own seed into shards, recovers every shard over the store transport and
/// merges the grid back into `.dsr` bytes.
///
/// # Panics
///
/// If a figure grid cannot be planned (a grid construction bug).
#[must_use]
pub fn fleet_pass(setup: &Setup, shards: usize, workers: usize, store: &Path) -> FleetPass {
    let reports = run_figures(&setup.figures, workers, store);
    let engine = engine(workers, store);
    let (mut recovered, mut merged) = (Vec::new(), Vec::new());
    for grid in &setup.figures[0] {
        let manifest = plan(grid, shards, ShardStrategy::Strided).expect("figure grids plan");
        let mut transport = match Transport::store(store) {
            Ok(t) => t,
            Err(e) => {
                recovered.push(Err(e.clone()));
                merged.push(Err(e));
                continue;
            }
        };
        recovered
            .push(recover(&manifest, &mut transport, &engine, &RECOVER).map_err(|e| e.to_string()));
        merged.push(
            merge_from(&manifest, &mut transport)
                .map(|r| DsrFile::from_report(grid, &r, 0, 1).encode())
                .map_err(|e| e.to_string()),
        );
    }
    FleetPass {
        reports,
        recovered,
        merged,
    }
}

/// The monolithic `.dsr` encoding of each main-seed grid, from the cold
/// reports the store was populated with.
#[must_use]
pub fn monolithic(setup: &Setup) -> Vec<Vec<u8>> {
    setup.figures[0]
        .iter()
        .zip(&setup.cold)
        .map(|(grid, report)| DsrFile::from_report(grid, report, 0, 1).encode())
        .collect()
}

/// Tallies a fleet pass: warm records must equal cold ones with no cache
/// miss, every shard must recover, and every merge must be byte-identical
/// to the monolithic encoding.
pub fn check_fleet(
    pass: &FleetPass,
    setup: &Setup,
    mono: &[Vec<u8>],
    trusted: bool,
    ledger: &mut Ledger,
) {
    let got = records(&pass.reports);
    let misses: usize = pass.reports.iter().map(|r| r.cache_misses).sum();
    let bad = if trusted {
        mismatches(&got, &records(&setup.cold)) + misses
    } else {
        got.len()
    };
    ledger.tally(got.len(), bad);
    for recovered in &pass.recovered {
        match recovered {
            Ok(run) => {
                let executed = run
                    .dispositions
                    .iter()
                    .filter(|d| **d == ShardDisposition::Executed)
                    .count();
                ledger.tally(run.dispositions.len(), run.dispositions.len() - executed);
            }
            Err(_) => ledger.check(false),
        }
    }
    for (merged, want) in pass.merged.iter().zip(mono) {
        ledger.check(merged.as_ref().is_ok_and(|bytes| bytes == want));
    }
}

/// The warm fleet: every pass replays the populated store (copied fresh,
/// so every pass does the same work), alternating 1 worker and every core.
pub fn warm(o: &Opts, scratch: &mut Scratch, ledger: &mut Ledger) {
    // Populating 10^4 records takes seconds, so set-up is repeated a few
    // times before the timed phase.
    let (setup, setup_s) = setups(o, if o.smoke { 2 } else { 3 }, scratch);
    ledger.sampled("setup_s", "s", setup_s);
    let trusted = check_digest(o, &setup.cold, ledger);
    let mono = monolithic(&setup);
    let insts = instructions(&setup.cold) as f64;
    let all = workers();
    let (serial, parallel) = paired(o.min_pairs(), o.seconds, |many| {
        let dir = scratch.fresh("fleet");
        copy_tree(&setup.store, &dir).expect("copy the warm store");
        let workers = if many { all } else { 1 };
        let (pass, secs) = timed(|| fleet_pass(&setup, o.scale.shards, workers, &dir));
        check_fleet(&pass, &setup, &mono, trusted, ledger);
        let _ = std::fs::remove_dir_all(&dir);
        secs
    });
    // Instructions whose results the serial phase delivered per host
    // second; here they come out of the store, not out of the core.
    let minst = serial.iter().map(|s| insts / s / 1e6).collect();
    ledger.sampled("wall_s", "s", parallel);
    ledger.sampled("serial_wall_s", "s", serial);
    ledger.sampled("minst_per_s", "Minst/s", minst);
    ledger.value("peak_rss_mb", "MB", peak_rss_mb());
    ledger.note("cells", setup.cells.len().to_string());
    ledger.note("instructions", format!("{insts}"));
}
