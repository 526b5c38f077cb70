//! How shard outputs travel between hosts: published into the result
//! store.
//!
//! Each shard's records go *into* a [`dsmt_store::Store`], keyed by
//! [`ShardManifest::shard_key`] (grid content hash + shard index + shard
//! count, in the `shard-output` key namespace):
//!
//! * shard outputs inherit the store's checksummed segments and atomic
//!   publishes for free (a deleted shard output is simply re-run by the
//!   next `--missing` pass);
//! * the whole fleet protocol reduces to **one store directory** — point
//!   the transport at the same directory as `DSMT_SWEEP_CACHE` and
//!   scenario results and shard outputs share segments and claims;
//! * a transport is a snapshot: it sees the store as it was at open, plus
//!   its own publishes. [`Transport::claim`] is the one place it re-reads
//!   the directory ([`dsmt_store::Store::refresh`]), right after it wins a
//!   recovery claim, so `recover`'s double-check sees every output
//!   published before the claim and each shard runs exactly once.
//!   `dsmt shard status` and `dsmt shard merge` open a fresh transport per
//!   command, so they see everything published before they start.
//!
//! Recovery claims are [`LockFile`]s in the store's `locks/` directory,
//! named by [`ShardManifest::claim_name`] so unrelated plans can share one
//! directory.
//!
//! A shard output is stored as a [`Value`] tree (same codec as every other
//! store record):
//!
//! ```text
//! { "kind":        "shard-output",
//!   "schema":      1,
//!   "grid_hash":   "<16-hex grid content hash>",
//!   "shard_index": i,
//!   "shard_count": n,
//!   "records":     [ { "cell": c, "results": <SimResults> }, ... ] }
//! ```
//!
//! Reads verify `kind`/`schema`/`grid_hash`/`shard_index`/`shard_count`
//! against the manifest before trusting a record, so a freak key collision
//! (or a hand-copied foreign store) degrades to "shard missing", never to
//! merging someone else's cells.

use std::path::PathBuf;
use std::time::Duration;

use dsmt_core::SimResults;
use dsmt_store::{Claim, ClaimInfo, LockFile, Store};
use dsmt_sweep::CACHE_SCHEMA_VERSION;
use serde::{Deserialize, Serialize, Value};

use crate::{DsrFile, DsrRecord, ShardManifest};

/// Bumped on any change to the shard-output [`Value`] layout; readers
/// treat other schemas as missing (re-run), never misread them.
pub const SHARD_VALUE_SCHEMA: u64 = 1;

/// Where shard outputs live: a [`Store`] opened for shard-output traffic.
/// Executor, merger, status and recovery all work through it.
///
/// The client schema is fixed to the sweep cache's
/// ([`CACHE_SCHEMA_VERSION`]) — deliberately, so one directory can serve
/// as both the fleet's scenario cache and its shard transport.
#[derive(Debug)]
pub struct Transport {
    store: Store,
}

impl Transport {
    /// Opens (creating if needed) `dir` as a shard-output store.
    ///
    /// # Errors
    ///
    /// A human-readable message for any [`Store::open`] failure (schema
    /// mismatch, corrupt segment, I/O).
    pub fn store(dir: impl Into<PathBuf>) -> Result<Self, String> {
        let dir = dir.into();
        Store::open(&dir, CACHE_SCHEMA_VERSION)
            .map(|store| Transport { store })
            .map_err(|e| format!("{}: {e}", dir.display()))
    }

    /// One line describing the transport, for CLI output.
    #[must_use]
    pub fn describe(&self) -> String {
        format!("store at {}", self.store.dir().display())
    }

    /// The directory recovery claims live in (`<store>/locks`).
    #[must_use]
    pub fn locks_dir(&self) -> PathBuf {
        self.store.locks_dir()
    }

    /// Tries to claim shard `index`, stealing a stale claim when
    /// `steal_after` says so (see [`LockFile::acquire_or_steal`]).
    ///
    /// A won claim (acquired or stolen) re-reads the store directory, so
    /// this handle then sees every output other workers published before
    /// they released the claim. A failed re-read is reported as a warning
    /// event and otherwise ignored: the snapshot stays usable, and the
    /// cost is re-running a shard, never a wrong merge.
    ///
    /// # Errors
    ///
    /// Any I/O error other than the expected claim races.
    pub fn claim(
        &mut self,
        manifest: &ShardManifest,
        index: usize,
        steal_after: Option<Duration>,
    ) -> std::io::Result<Claim> {
        let claim =
            LockFile::acquire_or_steal(self.locks_dir(), &manifest.claim_name(index), steal_after)?;
        if claim.lock().is_some() {
            if let Err(e) = self.store.refresh() {
                dsmt_obs::warn!("shard.store_refresh_failed", error = e.to_string());
            }
        }
        Ok(claim)
    }

    /// The verified output of shard `index` in this handle's snapshot, or
    /// `None` when it is absent, corrupt, or belongs to a different plan.
    #[must_use]
    pub fn read_verified(&self, manifest: &ShardManifest, index: usize) -> Option<DsrFile> {
        shard_from_value(manifest, index, &self.store.get(manifest.shard_key(index))?)
    }

    /// Reads shard `index` from this handle's snapshot for a merge,
    /// preserving precise diagnostics instead of
    /// [`Transport::read_verified`]'s everything-is-missing collapse:
    /// "nothing under this shard's key" is `Ok(None)`, while a
    /// record that exists but does not verify as this plan's shard output
    /// explains itself — so a merger can report a collision, a foreign
    /// record, or byte-level corruption (surfaced by the store's lazy
    /// verify-on-read) instead of calling it absent.
    ///
    /// # Errors
    ///
    /// Why a *present* output could not be used.
    pub fn read_for_merge(
        &self,
        manifest: &ShardManifest,
        index: usize,
    ) -> Result<Option<DsrFile>, String> {
        match self.store.try_get(manifest.shard_key(index)) {
            Ok(None) => Ok(None),
            Err(e) => Err(format!(
                "the store record under shard {index}'s key failed verification: {e}"
            )),
            Ok(Some(value)) => shard_from_value(manifest, index, &value)
                .map(Some)
                .ok_or_else(|| {
                    format!(
                        "the store record under shard {index}'s key is not a verifiable \
                         shard-output of this plan (foreign, malformed, or a key collision)"
                    )
                }),
        }
    }

    /// Publishes one shard's output as a new segment (atomic, idempotent:
    /// re-publishing identical records lands on the same content-addressed
    /// file).
    ///
    /// # Errors
    ///
    /// A human-readable message on filesystem failure.
    pub fn publish(&mut self, manifest: &ShardManifest, dsr: &DsrFile) -> Result<(), String> {
        let key = manifest.shard_key(dsr.shard_index);
        self.store
            .publish(vec![(key, shard_value(manifest, dsr))])
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    /// One status probe over every shard of the plan: done / claimed (by
    /// whom, how long ago) / missing. Outputs come from this handle's
    /// snapshot; claims are read from the `locks/` directory as they stand.
    #[must_use]
    pub fn status(&self, manifest: &ShardManifest) -> StatusReport {
        let shards = (0..manifest.num_shards())
            .map(|index| {
                let state = match self.read_verified(manifest, index) {
                    Some(file) => ShardState::Done {
                        records: file.records.len(),
                    },
                    None => {
                        match LockFile::inspect(self.locks_dir(), &manifest.claim_name(index)) {
                            Some(info) => ShardState::Claimed(info),
                            None => ShardState::Missing,
                        }
                    }
                };
                ShardStatus { index, state }
            })
            .collect();
        StatusReport { shards }
    }
}

/// Encodes a shard output as its store [`Value`] (see the module docs for
/// the layout).
fn shard_value(manifest: &ShardManifest, dsr: &DsrFile) -> Value {
    Value::Object(vec![
        ("kind".to_string(), Value::Str("shard-output".to_string())),
        ("schema".to_string(), Value::U64(SHARD_VALUE_SCHEMA)),
        (
            "grid_hash".to_string(),
            Value::Str(manifest.grid_hash.clone()),
        ),
        (
            "shard_index".to_string(),
            Value::U64(dsr.shard_index as u64),
        ),
        (
            "shard_count".to_string(),
            Value::U64(dsr.shard_count as u64),
        ),
        (
            "records".to_string(),
            Value::Array(
                dsr.records
                    .iter()
                    .map(|r| {
                        Value::Object(vec![
                            ("cell".to_string(), Value::U64(r.cell as u64)),
                            ("results".to_string(), r.results.to_value()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Decodes a store value back into a [`DsrFile`], verifying it is the
/// output of shard `index` of exactly this manifest. Any mismatch or
/// malformation returns `None` — the shard then counts as missing and is
/// re-run, which is always safe.
fn shard_from_value(manifest: &ShardManifest, index: usize, value: &Value) -> Option<DsrFile> {
    let kind = value.field("kind").ok()?.as_str().ok()?;
    let schema = value.field("schema").ok()?.as_u64().ok()?;
    let grid_hash = value.field("grid_hash").ok()?.as_str().ok()?;
    let shard_index = value.field("shard_index").ok()?.as_u64().ok()?;
    let shard_count = value.field("shard_count").ok()?.as_u64().ok()?;
    if kind != "shard-output"
        || schema != SHARD_VALUE_SCHEMA
        || grid_hash != manifest.grid_hash
        || shard_index != index as u64
        || shard_count != manifest.num_shards() as u64
    {
        return None;
    }
    let Value::Array(entries) = value.field("records").ok()? else {
        return None;
    };
    let records = entries
        .iter()
        .map(|entry| {
            let cell = usize::try_from(entry.field("cell").ok()?.as_u64().ok()?).ok()?;
            let results = SimResults::from_value(entry.field("results").ok()?).ok()?;
            Some(DsrRecord { cell, results })
        })
        .collect::<Option<Vec<_>>>()?;
    Some(DsrFile {
        grid: manifest.grid.clone(),
        shard_index: index,
        shard_count: manifest.num_shards(),
        records,
    })
}

/// What one shard looks like from the outside right now.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardState {
    /// A verified output exists.
    Done {
        /// Records the output holds.
        records: usize,
    },
    /// No verified output, but a worker holds the recovery claim.
    Claimed(ClaimInfo),
    /// No output, no claim: nobody is working on this shard.
    Missing,
}

/// One shard's [`ShardState`], tagged with its index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStatus {
    /// The shard index.
    pub index: usize,
    /// Its observed state.
    pub state: ShardState,
}

/// A point-in-time fleet status: one [`ShardStatus`] per shard, in shard
/// order (what `dsmt shard status` prints).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatusReport {
    /// Per-shard states.
    pub shards: Vec<ShardStatus>,
}

impl StatusReport {
    /// Shards with verified outputs.
    #[must_use]
    pub fn done(&self) -> usize {
        self.count(|s| matches!(s, ShardState::Done { .. }))
    }

    /// Shards currently claimed by some worker.
    #[must_use]
    pub fn claimed(&self) -> usize {
        self.count(|s| matches!(s, ShardState::Claimed(_)))
    }

    /// Shards with neither output nor claim.
    #[must_use]
    pub fn missing(&self) -> usize {
        self.count(|s| matches!(s, ShardState::Missing))
    }

    /// Whether every shard has a verified output (ready to merge).
    #[must_use]
    pub fn complete(&self) -> bool {
        self.done() == self.shards.len()
    }

    fn count(&self, want: impl Fn(&ShardState) -> bool) -> usize {
        self.shards.iter().filter(|s| want(&s.state)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{plan, run_shard, ShardStrategy};
    use dsmt_core::SimConfig;
    use dsmt_sweep::{Axis, SweepEngine, SweepGrid, WorkloadSpec};

    fn manifest() -> ShardManifest {
        let grid = SweepGrid::new("transport", SimConfig::paper_multithreaded(1))
            .with_workload(WorkloadSpec::spec_mix(1_500))
            .with_axis(Axis::l2_latencies(&[1, 16, 64]))
            .with_budget(4_000);
        plan(&grid, 2, ShardStrategy::Strided).unwrap()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dsmt-transport-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn shard_keys_and_claims_are_scoped_by_plan() {
        let m = manifest();
        assert_ne!(m.shard_key(0), m.shard_key(1));
        let mut other = m.clone();
        other.grid.seed += 1;
        other.grid_hash = format!("{:016x}", crate::grid_content_hash(&other.grid));
        assert_ne!(m.shard_key(0), other.shard_key(0), "different grids");
        assert_ne!(m.claim_name(0), other.claim_name(0));
        assert_ne!(m.claim_name(0), m.claim_name(1));
    }

    #[test]
    fn store_round_trips_shard_outputs_exactly() {
        let dir = temp_dir("roundtrip");
        let m = manifest();
        let engine = SweepEngine::new(1).without_cache();
        let run = run_shard(&m, 0, &engine).unwrap();

        let mut transport = Transport::store(&dir).expect("open");
        assert!(transport.read_verified(&m, 0).is_none());
        transport.publish(&m, &run.dsr).expect("publish");
        let back = transport.read_verified(&m, 0).expect("stored shard");
        assert_eq!(back, run.dsr);
        // Byte-exact once packaged: the store transport preserves the
        // subsystem's bit-identity guarantee.
        assert_eq!(back.encode(), run.dsr.encode());
        // Shard 1 is still missing; a foreign manifest sees nothing.
        assert!(transport.read_verified(&m, 1).is_none());
        let mut foreign = m.clone();
        foreign.grid.seed += 1;
        foreign.grid_hash = format!("{:016x}", crate::grid_content_hash(&foreign.grid));
        assert!(transport.read_verified(&foreign, 0).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn publishes_are_idempotent_and_visible_to_other_handles() {
        let dir = temp_dir("refresh");
        let m = manifest();
        let engine = SweepEngine::new(1).without_cache();
        let run = run_shard(&m, 1, &engine).unwrap();

        let mut writer = Transport::store(&dir).expect("open writer");
        writer.publish(&m, &run.dsr).expect("publish");
        writer.publish(&m, &run.dsr).expect("republish");
        assert_eq!(
            Store::open(&dir, CACHE_SCHEMA_VERSION)
                .unwrap()
                .segment_count(),
            1,
            "identical outputs collapse to one segment"
        );
        let reader = Transport::store(&dir).expect("open reader");
        assert_eq!(reader.read_verified(&m, 1).expect("published"), run.dsr);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Publishes shard 0 and flips the first byte of its record in the
    /// segment file. The header still verifies, so stores still open; the
    /// damage surfaces when the record is read.
    fn publish_then_corrupt_shard_0(dir: &std::path::Path, m: &ShardManifest) {
        let engine = SweepEngine::new(1).without_cache();
        let run = run_shard(m, 0, &engine).unwrap();
        let mut transport = Transport::store(dir).expect("open");
        transport.publish(m, &run.dsr).expect("publish");
        assert_eq!(transport.read_verified(m, 0).expect("verified"), run.dsr);
        let store = Store::open(dir, CACHE_SCHEMA_VERSION).unwrap();
        let segment = dir
            .join("segments")
            .join(store.segment_name_of(m.shard_key(0)).unwrap());
        let mut bytes = std::fs::read(&segment).unwrap();
        let header = dsmt_store::SegmentHeader::parse(&bytes).unwrap();
        bytes[header.records_base as usize] ^= 0xff;
        std::fs::write(&segment, &bytes).unwrap();
    }

    #[test]
    fn corrupt_outputs_read_as_missing() {
        let dir = temp_dir("corrupt");
        let m = manifest();
        publish_then_corrupt_shard_0(&dir, &m);
        let transport = Transport::store(&dir).expect("headers still verify");
        assert!(transport.read_verified(&m, 0).is_none());
        assert!(transport.read_verified(&m, 1).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_for_merge_distinguishes_absent_from_foreign() {
        let dir = temp_dir("checked");
        let m = manifest();
        let mut transport = Transport::store(&dir).expect("open");
        // Nothing at all under shard 1's key: absent.
        assert_eq!(transport.read_for_merge(&m, 1), Ok(None));
        // A foreign record squatting on shard 0's key (what a key
        // collision or a hand-copied store would look like): reported,
        // not silently "missing".
        transport
            .store
            .publish(vec![(m.shard_key(0), Value::U64(42))])
            .unwrap();
        let why = transport.read_for_merge(&m, 0).expect_err("foreign record");
        assert!(why.contains("not a verifiable shard-output"), "{why}");
        assert!(
            transport.read_verified(&m, 0).is_none(),
            "read_verified still treats it as missing"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_for_merge_keeps_corrupt_record_diagnostics() {
        let dir = temp_dir("merge-diag");
        let m = manifest();
        publish_then_corrupt_shard_0(&dir, &m);
        let transport = Transport::store(&dir).expect("headers still verify");
        // The store's verify-on-read error, naming the segment, survives.
        let why = transport.read_for_merge(&m, 0).expect_err("corrupt record");
        assert!(why.contains("failed verification"), "{why}");
        assert!(why.contains("seg-"), "{why}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn status_reports_done_claimed_missing() {
        let dir = temp_dir("status");
        let m = manifest();
        let engine = SweepEngine::new(1).without_cache();
        let mut transport = Transport::store(&dir).expect("store transport");

        // Nothing yet: everything missing.
        let empty = transport.status(&m);
        assert_eq!((empty.done(), empty.claimed(), empty.missing()), (0, 0, 2));
        assert!(!empty.complete());

        // Shard 0 done, shard 1 claimed by a (simulated) worker.
        let run = run_shard(&m, 0, &engine).unwrap();
        transport.publish(&m, &run.dsr).expect("publish");
        let held = transport.claim(&m, 1, None).expect("claim io");
        assert!(held.lock().is_some());
        let report = transport.status(&m);
        assert_eq!(
            (report.done(), report.claimed(), report.missing()),
            (1, 1, 0)
        );
        match &report.shards[0].state {
            ShardState::Done { records } => assert_eq!(*records, m.shards[0].len()),
            other => panic!("expected Done, got {other:?}"),
        }
        match &report.shards[1].state {
            ShardState::Claimed(info) => {
                assert!(info.holder.contains(&std::process::id().to_string()));
            }
            other => panic!("expected Claimed, got {other:?}"),
        }
        drop(held);

        // Claim released without an output: back to missing.
        let after = transport.status(&m);
        assert_eq!((after.done(), after.claimed(), after.missing()), (1, 0, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
