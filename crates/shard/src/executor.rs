//! Runs one shard of a manifest and packages the result.

use std::time::Duration;

use dsmt_store::Claim;
use dsmt_sweep::{SweepEngine, SweepReport};

use crate::{DsrFile, ShardManifest, ShardPlanError, Transport};

/// The outcome of executing one shard: the partial report (with live cache
/// telemetry) and its `.dsr` packaging (identity only, ready to ship).
#[derive(Debug, Clone)]
pub struct ShardRun {
    /// Which shard was executed.
    pub shard_index: usize,
    /// The partial sweep report (records carry grid-order cell indices).
    pub report: SweepReport,
    /// The same records as a writable `.dsr` file.
    pub dsr: DsrFile,
}

/// Validates the manifest and executes its `shard_index`-th shard on
/// `engine`. With a shared cache directory, shards running on different
/// hosts dedup overlapping scenarios automatically — the cache key is a
/// pure function of the scenario.
///
/// # Errors
///
/// Any manifest validation error, or [`ShardPlanError::BadPartition`] if
/// `shard_index` is out of range.
///
/// # Panics
///
/// As for [`SweepEngine::run`] (invalid cell configuration, unusable cache
/// directory) — grid construction bugs, not runtime conditions.
pub fn run_shard(
    manifest: &ShardManifest,
    shard_index: usize,
    engine: &SweepEngine,
) -> Result<ShardRun, ShardPlanError> {
    manifest.validate()?;
    let cells = manifest.shards.get(shard_index).ok_or_else(|| {
        ShardPlanError::BadPartition(format!(
            "shard index {shard_index} out of range (plan has {} shards)",
            manifest.num_shards()
        ))
    })?;
    let report = engine.run_subset(&manifest.grid, cells);
    let dsr = DsrFile::from_report(&manifest.grid, &report, shard_index, manifest.num_shards());
    Ok(ShardRun {
        shard_index,
        report,
        dsr,
    })
}

/// How one shard fared during a [`recover`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardDisposition {
    /// A verified output already existed; nothing to do.
    AlreadyDone,
    /// Another worker holds the claim; left for them.
    ClaimedElsewhere,
    /// This pass claimed, executed and published the shard (an unreadable
    /// or corrupt existing output counts: it is re-run and overwritten).
    Executed,
}

/// The default claim heartbeat interval the CLI runs with: frequent enough
/// that any `--steal-after` over a couple of minutes is safe regardless of
/// shard cost, rare enough that the mtime writes are free.
pub const DEFAULT_HEARTBEAT: Duration = Duration::from_secs(30);

/// Options for a [`recover`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoverOptions {
    /// When set, a shard claim whose lockfile mtime is at least this old
    /// is presumed dead (its holder was killed without unwinding) and is
    /// stolen — see [`dsmt_store::LockFile::acquire_or_steal`]. Pick a
    /// deadline comfortably longer than the longest honest shard runtime —
    /// or, with `heartbeat` set, than the heartbeat interval.
    pub steal_after: Option<Duration>,
    /// When set, each claim this pass holds is re-touched at this interval
    /// by a background heartbeat thread (see
    /// [`dsmt_store::LockFile::spawn_heartbeat`]), so a fleet can run
    /// `steal_after` deadlines far shorter than a shard's runtime: only a
    /// worker that actually died stops beating. The CLI passes
    /// [`DEFAULT_HEARTBEAT`].
    pub heartbeat: Option<Duration>,
}

/// One stale claim a [`recover`] pass reaped: which shard, and the holder
/// record of the dead worker (its pid and the claim's age).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StealRecord {
    /// The shard whose claim was stolen.
    pub shard_index: usize,
    /// Holder record of the reaped lockfile (e.g.
    /// `pid 1234 (heartbeat 97s ago)`).
    pub previous: String,
}

/// The outcome of a [`recover`] pass: one disposition per shard, in shard
/// order, plus a record of every stale claim stolen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MissingRun {
    /// Disposition per shard index.
    pub dispositions: Vec<ShardDisposition>,
    /// Stale claims this pass reaped (always a subset of the `Executed`
    /// shards; empty unless [`RecoverOptions::steal_after`] was set).
    pub steals: Vec<StealRecord>,
}

impl MissingRun {
    /// Shard indices this pass executed.
    #[must_use]
    pub fn executed(&self) -> Vec<usize> {
        self.indices(ShardDisposition::Executed)
    }

    /// Shard indices with verified pre-existing outputs.
    #[must_use]
    pub fn already_done(&self) -> Vec<usize> {
        self.indices(ShardDisposition::AlreadyDone)
    }

    /// Shard indices another worker currently holds.
    #[must_use]
    pub fn claimed_elsewhere(&self) -> Vec<usize> {
        self.indices(ShardDisposition::ClaimedElsewhere)
    }

    /// Whether every shard now has a verified output (nothing was left to
    /// a concurrent claimant).
    #[must_use]
    pub fn complete(&self) -> bool {
        self.claimed_elsewhere().is_empty()
    }

    fn indices(&self, want: ShardDisposition) -> Vec<usize> {
        self.dispositions
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == want)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Executes every shard of `manifest` that has no verified output on
/// `transport` yet, claiming each through an `O_EXCL` lockfile first —
/// the self-healing path for fleets: any number of recovery workers can
/// run this concurrently (or after hosts died mid-run) and each missing
/// shard is executed exactly once.
///
/// A shard output that exists but fails verification (truncated, corrupt,
/// foreign grid, deleted store segment) is treated as missing: it is
/// re-run and atomically re-published. Claims release when this pass
/// finishes; a worker that died *holding* a claim blocks the shard only
/// until the claim expires — with [`RecoverOptions::steal_after`] set,
/// a claim whose lockfile is older than the deadline is reaped (exactly
/// one racing stealer wins) and the shard re-executed, with the dead
/// holder named in [`MissingRun::steals`].
///
/// # Errors
///
/// Any manifest validation error, and a publish failure surfaces as
/// [`ShardPlanError::BadPartition`]; execution itself panics only for
/// grid construction bugs, as [`run_shard`] does.
pub fn recover(
    manifest: &ShardManifest,
    transport: &mut Transport,
    engine: &SweepEngine,
    options: &RecoverOptions,
) -> Result<MissingRun, ShardPlanError> {
    manifest.validate()?;
    let _span = dsmt_obs::span("shard.recover")
        .field("grid", manifest.grid.name.as_str())
        .field("shards", manifest.num_shards());
    let mut dispositions = Vec::with_capacity(manifest.num_shards());
    let mut steals = Vec::new();
    for index in 0..manifest.num_shards() {
        if transport.read_verified(manifest, index).is_some() {
            dispositions.push(ShardDisposition::AlreadyDone);
            dsmt_obs::counter!("shard.shards_already_done").inc();
            continue;
        }
        let claim = match transport.claim(manifest, index, options.steal_after) {
            Ok(claim) => claim,
            // Claiming I/O trouble is indistinguishable from contention
            // for this pass's purposes; leave the shard for a retry.
            Err(_) => {
                dispositions.push(ShardDisposition::ClaimedElsewhere);
                continue;
            }
        };
        let stolen_from = match &claim {
            Claim::Acquired(_) => None,
            Claim::Stolen { previous, .. } => Some(previous.clone()),
            Claim::Held(_) => {
                dispositions.push(ShardDisposition::ClaimedElsewhere);
                continue;
            }
        };
        dsmt_obs::counter!("shard.claims_acquired").inc();
        dsmt_obs::info!("shard.claim_acquired", shard = index);
        if let Some(previous) = &stolen_from {
            dsmt_obs::counter!("shard.claims_stolen").inc();
            dsmt_obs::info!(
                "shard.claim_stolen",
                shard = index,
                previous = previous.as_str()
            );
        }
        // Keep the claim visibly alive while the shard runs: the beat
        // stops (and its thread joins) before the claim itself releases.
        let _heartbeat = options
            .heartbeat
            .and_then(|interval| claim.lock().map(|lock| lock.spawn_heartbeat(interval)));
        // Double-check under the claim: another worker may have finished
        // between the probe and the acquire. The probe read this handle's
        // snapshot; the won claim re-read the directory, so this sees it.
        if transport.read_verified(manifest, index).is_some() {
            dispositions.push(ShardDisposition::AlreadyDone);
            dsmt_obs::counter!("shard.shards_already_done").inc();
            continue;
        }
        let run = run_shard(manifest, index, engine)?;
        transport.publish(manifest, &run.dsr).map_err(|e| {
            ShardPlanError::BadPartition(format!("cannot publish shard {index}: {e}"))
        })?;
        dsmt_obs::counter!("shard.shards_executed").inc();
        dsmt_obs::info!(
            "shard.published",
            shard = index,
            records = run.dsr.records.len()
        );
        if let Some(previous) = stolen_from {
            steals.push(StealRecord {
                shard_index: index,
                previous,
            });
        }
        dispositions.push(ShardDisposition::Executed);
        // The heartbeat stops first, then `claim` (and its lockfile)
        // releases — both after the publish.
        drop(_heartbeat);
        drop(claim);
    }
    Ok(MissingRun {
        dispositions,
        steals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{plan, ShardStrategy};
    use dsmt_core::SimConfig;
    use dsmt_store::{LockFile, Store};
    use dsmt_sweep::{Axis, SweepGrid, WorkloadSpec};

    fn manifest() -> ShardManifest {
        let grid = SweepGrid::new("exec", SimConfig::paper_multithreaded(1))
            .with_workload(WorkloadSpec::spec_mix(1_500))
            .with_axis(Axis::l2_latencies(&[1, 16, 64]))
            .with_axis(Axis::decoupled(&[true, false]))
            .with_budget(4_000);
        plan(&grid, 3, ShardStrategy::Strided).unwrap()
    }

    #[test]
    fn shard_runs_cover_exactly_their_cells() {
        let m = manifest();
        let engine = SweepEngine::new(2).without_cache();
        let full = engine.run(&m.grid);
        for index in 0..m.num_shards() {
            let run = run_shard(&m, index, &engine).expect("shard runs");
            assert_eq!(run.shard_index, index);
            let cells: Vec<usize> = run.report.records.iter().map(|r| r.cell).collect();
            assert_eq!(cells, m.shards[index]);
            for record in &run.report.records {
                assert_eq!(record, &full.records[record.cell]);
            }
            assert_eq!(run.dsr.shard_index, index);
            assert_eq!(run.dsr.shard_count, 3);
            assert_eq!(run.dsr.records.len(), m.shards[index].len());
        }
    }

    #[test]
    fn bad_indices_and_stale_manifests_are_rejected() {
        let m = manifest();
        let engine = SweepEngine::new(1).without_cache();
        assert!(matches!(
            run_shard(&m, 3, &engine),
            Err(ShardPlanError::BadPartition(_))
        ));
        let mut stale = m;
        stale.grid.seed += 1;
        assert!(matches!(
            run_shard(&stale, 0, &engine),
            Err(ShardPlanError::GridHashMismatch { .. })
        ));
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dsmt-missing-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn missing_pass_recovers_absent_and_corrupt_shards() {
        let m = manifest();
        let dir = temp_dir("recover");
        let engine = SweepEngine::new(2).without_cache();
        // Shard 0 was run normally; shard 1's output is corrupt (a foreign
        // value under its key); shard 2 never ran.
        let mut transport = Transport::store(&dir).expect("store transport");
        let run0 = run_shard(&m, 0, &engine).unwrap();
        transport.publish(&m, &run0.dsr).expect("publish");
        Store::open(&dir, dsmt_sweep::CACHE_SCHEMA_VERSION)
            .unwrap()
            .publish(vec![(m.shard_key(1), serde::Value::U64(7))])
            .unwrap();

        let outcome = recover(&m, &mut transport, &engine, &RecoverOptions::default())
            .expect("recovery pass");
        assert_eq!(outcome.already_done(), vec![0]);
        assert_eq!(outcome.executed(), vec![1, 2]);
        assert!(outcome.steals.is_empty());
        assert!(outcome.complete());
        // The store now merges bit-identically to a monolithic run.
        let merged = crate::merge_from(&m, &transport).expect("merge");
        let mono = engine.run(&m.grid);
        assert_eq!(merged.records, mono.records);
        assert_eq!(
            DsrFile::from_report(&m.grid, &merged, 0, 1).encode(),
            DsrFile::from_report(&m.grid, &mono, 0, 1).encode(),
        );
        // A second pass finds nothing to do, and the claims were released.
        let again =
            recover(&m, &mut transport, &engine, &RecoverOptions::default()).expect("idempotent");
        assert_eq!(again.executed(), Vec::<usize>::new());
        assert_eq!(again.already_done(), vec![0, 1, 2]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_stale_transport_executes_no_shard_another_recovered() {
        // A's snapshot predates every publish, so each of its probes
        // misses; each claim it wins re-reads the directory and finds B's
        // output.
        let m = manifest();
        let dir = temp_dir("stale-snapshot");
        let engine = SweepEngine::new(2).without_cache();
        let mut a = Transport::store(&dir).expect("transport a");
        let mut b = Transport::store(&dir).expect("transport b");
        let first = recover(&m, &mut b, &engine, &RecoverOptions::default()).expect("pass b");
        assert_eq!(first.executed(), vec![0, 1, 2]);
        let stale = recover(&m, &mut a, &engine, &RecoverOptions::default()).expect("pass a");
        assert_eq!(stale.executed(), Vec::<usize>::new());
        assert_eq!(stale.already_done(), vec![0, 1, 2]);
        let merged = crate::merge_from(&m, &a).expect("merge through a");
        let mono = engine.run(&m.grid);
        assert_eq!(
            DsrFile::from_report(&m.grid, &merged, 0, 1).encode(),
            DsrFile::from_report(&m.grid, &mono, 0, 1).encode(),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn held_claims_are_respected_not_stolen() {
        let m = manifest();
        let dir = temp_dir("held");
        let engine = SweepEngine::new(1).without_cache();
        let mut transport = Transport::store(&dir).expect("store transport");
        // Simulate a worker holding shard 1: its claim exists, no output.
        let held = LockFile::acquire(transport.locks_dir(), &m.claim_name(1))
            .unwrap()
            .expect("claim");
        let outcome =
            recover(&m, &mut transport, &engine, &RecoverOptions::default()).expect("pass");
        assert_eq!(outcome.executed(), vec![0, 2]);
        assert_eq!(outcome.claimed_elsewhere(), vec![1]);
        assert!(!outcome.complete());
        assert!(transport.read_verified(&m, 1).is_none());
        // The holder is identifiable for stale-claim diagnostics.
        assert!(LockFile::inspect(transport.locks_dir(), &m.claim_name(1)).is_some());
        drop(held);
        let retry =
            recover(&m, &mut transport, &engine, &RecoverOptions::default()).expect("retry");
        assert_eq!(retry.executed(), vec![1]);
        assert!(retry.complete());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_claims_are_reaped_and_reported_but_live_ones_respected() {
        let m = manifest();
        let dir = temp_dir("steal");
        let engine = SweepEngine::new(1).without_cache();
        let mut transport = Transport::store(&dir).expect("store transport");
        // A worker died without unwinding while holding shard 1: its claim
        // file survives. Backdate it so it reads as 1h old.
        let dead = LockFile::acquire(transport.locks_dir(), &m.claim_name(1))
            .unwrap()
            .expect("claim");
        std::mem::forget(dead);
        LockFile::backdate_for_tests(
            transport.locks_dir(),
            &m.claim_name(1),
            Duration::from_secs(3600),
        );

        // Without --steal-after (or with a deadline the claim has not
        // reached) the shard is left alone.
        for options in [
            RecoverOptions::default(),
            RecoverOptions {
                steal_after: Some(Duration::from_secs(7200)),
                ..RecoverOptions::default()
            },
        ] {
            let outcome = recover(&m, &mut transport, &engine, &options).expect("pass");
            assert_eq!(outcome.claimed_elsewhere(), vec![1], "{options:?}");
            assert!(outcome.steals.is_empty());
        }
        // Past the deadline the claim is stolen and the shard recovered,
        // with the dead holder named in the report.
        let outcome = recover(
            &m,
            &mut transport,
            &engine,
            &RecoverOptions {
                steal_after: Some(Duration::from_secs(60)),
                ..RecoverOptions::default()
            },
        )
        .expect("stealing pass");
        assert_eq!(outcome.executed(), vec![1]);
        assert!(outcome.complete());
        assert_eq!(outcome.steals.len(), 1);
        assert_eq!(outcome.steals[0].shard_index, 1);
        assert!(outcome.steals[0]
            .previous
            .contains(&std::process::id().to_string()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eight_racing_recoverers_steal_a_dead_shard_exactly_once() {
        // One dead-held shard, 8 concurrent `--steal-after` recoverers:
        // exactly one may steal and execute it; the rest see the claim
        // held or the output already published. Each thread uses its own
        // transport handle, as separate worker processes would.
        let grid = SweepGrid::new("steal-race", SimConfig::paper_multithreaded(1))
            .with_workload(WorkloadSpec::spec_mix(1_500))
            .with_axis(Axis::l2_latencies(&[16]))
            .with_budget(3_000);
        let m = plan(&grid, 1, ShardStrategy::Strided).unwrap();
        let dir = temp_dir("steal-race");
        let setup = Transport::store(&dir).expect("store transport");
        let dead = LockFile::acquire(setup.locks_dir(), &m.claim_name(0))
            .unwrap()
            .expect("claim");
        std::mem::forget(dead);
        LockFile::backdate_for_tests(
            setup.locks_dir(),
            &m.claim_name(0),
            Duration::from_secs(3600),
        );

        let barrier = std::sync::Barrier::new(8);
        let outcomes: Vec<MissingRun> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        let engine = SweepEngine::new(1).without_cache();
                        let mut transport = Transport::store(&dir).expect("transport");
                        barrier.wait();
                        recover(
                            &m,
                            &mut transport,
                            &engine,
                            &RecoverOptions {
                                steal_after: Some(Duration::from_secs(60)),
                                ..RecoverOptions::default()
                            },
                        )
                        .expect("recover")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let executed: usize = outcomes.iter().map(|o| o.executed().len()).sum();
        let stolen: usize = outcomes.iter().map(|o| o.steals.len()).sum();
        assert_eq!(executed, 1, "the shard must be executed exactly once");
        assert_eq!(stolen, 1, "exactly one recoverer may steal the claim");
        // Whoever won, the output is now verified and merges.
        let transport = Transport::store(&dir).expect("transport");
        assert!(transport.read_verified(&m, 0).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_manifests_fail_before_any_claim() {
        let mut stale = manifest();
        stale.grid.seed += 1;
        let dir = temp_dir("stale");
        let engine = SweepEngine::new(1).without_cache();
        let mut transport = Transport::store(&dir).expect("store transport");
        assert!(matches!(
            recover(&stale, &mut transport, &engine, &RecoverOptions::default()),
            Err(ShardPlanError::GridHashMismatch { .. })
        ));
        assert!(!dir.join("locks").exists(), "no claims were taken");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
