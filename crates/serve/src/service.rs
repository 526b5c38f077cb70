//! The service behind the routes: one store directory the daemon owns,
//! plus a `plans/` directory of submitted shard manifests.
//!
//! A submission is *exactly* a `dsmt shard plan`: the grid is planned into
//! a [`ShardManifest`] whose hash names it, and the manifest is written to
//! `<store>/plans/<hash>.plan.json`. From there the existing store-backed
//! shard protocol takes over — remote workers run
//! `dsmt shard run <store>/plans/<hash>.plan.json --missing --store <store>`
//! against the same directory (or a mount/sync of it), and the daemon's
//! status and record endpoints observe their publishes through
//! [`dsmt_store::Store::refresh`]. The daemon adds no second coordination mechanism;
//! it is an HTTP veneer over the claims, segments and manifests that
//! already coordinate fleets.

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use dsmt_shard::{merge_from, plan, DsrFile, ShardManifest, ShardStrategy, Transport};
use dsmt_store::{atomic_write, fnv1a64};
use dsmt_sweep::SweepGrid;
use serde::{Deserialize, Value};

use crate::error::ApiError;

/// Resolves a built-in grid name (`demo`, `fig4`, ...) to its grid. The
/// binary supplies its catalog; tests supply small fixtures. Kept as a
/// callback so this crate does not depend on the experiment catalog.
pub type GridResolver = Box<dyn Fn(&str) -> Option<SweepGrid> + Send + Sync>;

/// The outcome of a record fetch: the merged bytes and their content-hash
/// ETag (already quoted, ready for the header).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordFetch {
    /// Encoded `.dsr` bytes, byte-identical to a monolithic local run.
    pub bytes: Vec<u8>,
    /// Strong ETag: the quoted 16-hex FNV-1a hash of `bytes`.
    pub etag: String,
}

/// The outcome of a cell fetch: the record rendered as JSON (unless the
/// client's `If-None-Match` already matched) and its strong ETag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFetch {
    /// The rendered record; `None` means "not modified" — the client's
    /// ETag matched and the record was never decoded or serialized.
    pub json: Option<String>,
    /// Strong ETag: the quoted 16-hex per-record FNV from the segment
    /// header.
    pub etag: String,
}

/// The sweep service: store + plans + grid resolver, shared by every
/// worker thread behind a mutex (requests are short; the store handle is
/// the contended resource and [`dsmt_store::Store::refresh`] is cheap on an unchanged
/// directory).
pub struct SweepService {
    store_dir: PathBuf,
    plans_dir: PathBuf,
    transport: Mutex<Transport>,
    resolver: GridResolver,
}

impl std::fmt::Debug for SweepService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepService")
            .field("store_dir", &self.store_dir)
            .finish_non_exhaustive()
    }
}

impl SweepService {
    /// Opens (creating if needed) the daemon's store directory and its
    /// `plans/` subdirectory.
    ///
    /// # Errors
    ///
    /// A human-readable message when the store cannot be opened (schema
    /// mismatch, corrupt segment, I/O) or `plans/` cannot be created.
    pub fn open(store_dir: impl Into<PathBuf>, resolver: GridResolver) -> Result<Self, String> {
        let store_dir = store_dir.into();
        let transport = Transport::store(&store_dir)?;
        let plans_dir = store_dir.join("plans");
        std::fs::create_dir_all(&plans_dir).map_err(|e| format!("{}: {e}", plans_dir.display()))?;
        Ok(SweepService {
            store_dir,
            plans_dir,
            transport: Mutex::new(transport),
            resolver,
        })
    }

    /// The store directory the daemon owns.
    #[must_use]
    pub fn store_dir(&self) -> &Path {
        &self.store_dir
    }

    /// Where submitted plans live (`<store>/plans`).
    #[must_use]
    pub fn plans_dir(&self) -> &Path {
        &self.plans_dir
    }

    fn plan_path(&self, hash: &str) -> PathBuf {
        self.plans_dir.join(format!("{hash}.plan.json"))
    }

    /// Number of submitted plans on disk.
    #[must_use]
    pub fn plan_count(&self) -> usize {
        std::fs::read_dir(&self.plans_dir)
            .map(|entries| {
                entries
                    .filter_map(Result::ok)
                    .filter(|e| e.path().to_string_lossy().ends_with(".plan.json"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Handles `POST /grids`: plans the submitted grid and writes the
    /// manifest where workers will find it. Body shape:
    ///
    /// ```json
    /// { "grid": { ...SweepGrid... }, "shards": 4, "strategy": "strided" }
    /// { "builtin": "demo", "shards": 2 }
    /// ```
    ///
    /// `shards` defaults to 1, `strategy` to `contiguous`. Submission is
    /// idempotent: the same grid re-planned lands on the same hash and
    /// overwrites its manifest atomically (`created` reports which
    /// happened). The response carries the grid hash, the plan location
    /// relative to the store, and an initial status probe — a resubmitted
    /// grid whose outputs still sit in the store shows up `done`
    /// immediately, which is the store's dedup doing its job.
    ///
    /// # Errors
    ///
    /// `invalid_json`, `bad_request`, `unknown_builtin`, `invalid_grid`,
    /// or `internal` (plan write failure).
    pub fn submit(&self, body: &[u8]) -> Result<Value, ApiError> {
        let text =
            std::str::from_utf8(body).map_err(|_| ApiError::bad_request("body is not utf-8"))?;
        let v: Value = serde::from_str(text).map_err(|e| ApiError::invalid_json(e.to_string()))?;
        let grid = match (v.field("grid"), v.field("builtin")) {
            (Ok(g), _) => SweepGrid::from_value(g)
                .map_err(|e| ApiError::invalid_grid(format!("grid does not parse: {e}")))?,
            (_, Ok(b)) => {
                let name = b
                    .as_str()
                    .map_err(|_| ApiError::bad_request("\"builtin\" must be a string"))?;
                (self.resolver)(name).ok_or_else(|| ApiError::unknown_builtin(name))?
            }
            _ => {
                return Err(ApiError::bad_request(
                    "body must carry a \"grid\" object or a \"builtin\" name",
                ))
            }
        };
        let shards = match v.field("shards") {
            Ok(n) => usize::try_from(
                n.as_u64()
                    .map_err(|_| ApiError::bad_request("\"shards\" must be a positive integer"))?,
            )
            .map_err(|_| ApiError::bad_request("\"shards\" is out of range"))?,
            Err(_) => 1,
        };
        let strategy = match v.field("strategy") {
            Ok(s) => {
                let name = s
                    .as_str()
                    .map_err(|_| ApiError::bad_request("\"strategy\" must be a string"))?;
                ShardStrategy::from_name(name).ok_or_else(|| {
                    ApiError::bad_request(format!(
                        "unknown strategy {name:?} (contiguous, strided or hashed)"
                    ))
                })?
            }
            Err(_) => ShardStrategy::Contiguous,
        };
        let manifest =
            plan(&grid, shards, strategy).map_err(|e| ApiError::invalid_grid(e.to_string()))?;
        let path = self.plan_path(&manifest.grid_hash);
        let created = !path.exists();
        atomic_write(&path, manifest.to_json().as_bytes())
            .map_err(|e| ApiError::internal(format!("writing plan: {e}")))?;
        dsmt_obs::counter!("serve.submissions").inc();
        dsmt_obs::info!(
            "serve.submit",
            grid = manifest.grid.name.as_str(),
            hash = manifest.grid_hash.as_str(),
            shards = manifest.num_shards()
        );
        let status = self.status_value(&manifest)?;
        Ok(Value::Object(vec![
            ("grid".to_string(), Value::Str(manifest.grid.name.clone())),
            (
                "grid_hash".to_string(),
                Value::Str(manifest.grid_hash.clone()),
            ),
            ("cells".to_string(), Value::U64(manifest.grid.len() as u64)),
            (
                "shards".to_string(),
                Value::U64(manifest.num_shards() as u64),
            ),
            (
                "strategy".to_string(),
                Value::Str(manifest.strategy.name().to_string()),
            ),
            (
                "plan".to_string(),
                Value::Str(format!("plans/{}.plan.json", manifest.grid_hash)),
            ),
            ("created".to_string(), Value::Bool(created)),
            ("status".to_string(), status),
        ]))
    }

    /// Loads a submitted manifest by hash, or the errors the routes share.
    fn load_manifest(&self, hash: &str) -> Result<ShardManifest, ApiError> {
        validate_hex_key(hash)?;
        let path = self.plan_path(hash);
        if !path.exists() {
            return Err(ApiError::unknown_grid(hash));
        }
        let manifest = ShardManifest::load(&path)
            .map_err(|e| ApiError::internal(format!("plan on disk is unusable: {e}")))?;
        if manifest.grid_hash != hash {
            return Err(ApiError::internal(format!(
                "plan file {} carries hash {} (tampered?)",
                path.display(),
                manifest.grid_hash
            )));
        }
        Ok(manifest)
    }

    fn status_value(&self, manifest: &ShardManifest) -> Result<Value, ApiError> {
        let mut transport = self
            .transport
            .lock()
            .map_err(|_| ApiError::internal("service state poisoned"))?;
        Ok(transport.status(manifest).to_value(manifest))
    }

    /// Handles `GET /grids/{hash}/status`: the shared machine-readable
    /// status rendering (see [`dsmt_shard::StatusReport::to_value`]).
    ///
    /// # Errors
    ///
    /// `invalid_key`, `unknown_grid`, or `internal`.
    pub fn status(&self, hash: &str) -> Result<Value, ApiError> {
        let manifest = self.load_manifest(hash)?;
        self.status_value(&manifest)
    }

    /// Handles `GET /grids/{hash}/record`: merges the plan's shard
    /// outputs into the canonical monolithic `.dsr` packaging (shard 0 of
    /// 1) and returns the bytes with their content-hash ETag.
    ///
    /// # Errors
    ///
    /// `invalid_key`, `unknown_grid`, `grid_incomplete` while shards are
    /// still outstanding, or `internal` for structurally broken outputs.
    pub fn record(&self, hash: &str) -> Result<RecordFetch, ApiError> {
        let manifest = self.load_manifest(hash)?;
        let mut transport = self
            .transport
            .lock()
            .map_err(|_| ApiError::internal("service state poisoned"))?;
        let report = merge_from(&manifest, &mut transport).map_err(|e| match &e {
            dsmt_shard::MergeError::MissingShard(_) => ApiError::grid_incomplete(format!(
                "not every shard has published an output yet: {e}"
            )),
            _ => ApiError::internal(e.to_string()),
        })?;
        drop(transport);
        let bytes = DsrFile::from_report(&manifest.grid, &report, 0, 1).encode();
        let etag = format!("\"{:016x}\"", fnv1a64(&bytes));
        Ok(RecordFetch { bytes, etag })
    }

    /// Handles `GET /cells/{key}`: the raw store record under a cache key
    /// (16-hex, as printed by sweep reports), rendered as JSON with a
    /// strong ETag (mirroring `/grids/{hash}/record` semantics).
    ///
    /// The ETag is the per-record FNV the segment header already records,
    /// so a matching `If-None-Match` is answered from the index alone —
    /// no record decode, no serialization, no body. Every present record
    /// has one, whichever handle published it, so a cell keeps its ETag
    /// across daemon restarts.
    ///
    /// # Errors
    ///
    /// `invalid_key`, `unknown_cell`, or `internal` (which includes a
    /// stored record failing its checksum at decode).
    pub fn cell(&self, key: &str, if_none_match: Option<&str>) -> Result<CellFetch, ApiError> {
        validate_hex_key(key)?;
        let numeric = u64::from_str_radix(key, 16).map_err(|_| ApiError::invalid_key(key))?;
        let mut transport = self
            .transport
            .lock()
            .map_err(|_| ApiError::internal("service state poisoned"))?;
        transport.refresh();
        let store = transport.as_store();
        let fnv = store
            .record_fnv(numeric)
            .ok_or_else(|| ApiError::unknown_cell(key))?;
        let etag = format!("\"{fnv:016x}\"");
        if if_none_match == Some(etag.as_str()) {
            return Ok(CellFetch { json: None, etag });
        }
        match store.try_get(numeric) {
            Ok(Some(value)) => Ok(CellFetch {
                json: Some(serde::to_string(&value)),
                etag,
            }),
            Ok(None) => Err(ApiError::unknown_cell(key)),
            Err(e) => Err(ApiError::internal(e.to_string())),
        }
    }

    /// Handles `GET /grids`: every submitted plan, newest knowledge of the
    /// disk (unreadable plan files are skipped).
    ///
    /// # Errors
    ///
    /// `internal` when the plans directory itself cannot be listed.
    pub fn list_grids(&self) -> Result<Value, ApiError> {
        let entries = std::fs::read_dir(&self.plans_dir)
            .map_err(|e| ApiError::internal(format!("listing plans: {e}")))?;
        let mut grids: Vec<(String, Value)> = Vec::new();
        for entry in entries.filter_map(Result::ok) {
            let path = entry.path();
            if !path.to_string_lossy().ends_with(".plan.json") {
                continue;
            }
            let Ok(manifest) = ShardManifest::load(&path) else {
                continue;
            };
            grids.push((
                manifest.grid_hash.clone(),
                Value::Object(vec![
                    ("grid".to_string(), Value::Str(manifest.grid.name.clone())),
                    ("grid_hash".to_string(), Value::Str(manifest.grid_hash)),
                    ("cells".to_string(), Value::U64(manifest.grid.len() as u64)),
                    (
                        "shards".to_string(),
                        Value::U64(manifest.shards.len() as u64),
                    ),
                ]),
            ));
        }
        grids.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(Value::Object(vec![(
            "grids".to_string(),
            Value::Array(grids.into_iter().map(|(_, v)| v).collect()),
        )]))
    }
}

/// Grid hashes and cell keys are 1–16 lowercase hex digits (hashes are
/// always exactly 16; short cell keys are tolerated for hand-typed reads).
fn validate_hex_key(text: &str) -> Result<(), ApiError> {
    let ok = !text.is_empty()
        && text.len() <= 16
        && text
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b));
    if ok {
        Ok(())
    } else {
        Err(ApiError::invalid_key(text))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsmt_core::SimConfig;
    use dsmt_sweep::{Axis, SweepEngine, WorkloadSpec};

    fn small_grid(name: &str) -> SweepGrid {
        SweepGrid::new(name, SimConfig::paper_multithreaded(1))
            .with_workload(WorkloadSpec::spec_mix(1_000))
            .with_axis(Axis::l2_latencies(&[1, 16]))
            .with_budget(2_000)
    }

    fn service(tag: &str) -> (SweepService, PathBuf) {
        let dir = std::env::temp_dir().join(format!("dsmt-serve-svc-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let svc = SweepService::open(
            &dir,
            Box::new(|name| (name == "tiny").then(|| small_grid("tiny"))),
        )
        .expect("open service");
        (svc, dir)
    }

    #[test]
    fn submit_plans_and_status_reports_missing() {
        let (svc, dir) = service("submit");
        let out = svc.submit(br#"{"builtin":"tiny","shards":2}"#).unwrap();
        let hash = out
            .field("grid_hash")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        assert_eq!(out.field("created").unwrap(), &Value::Bool(true));
        assert_eq!(out.field("cells").unwrap().as_u64().unwrap(), 2);
        assert!(dir
            .join("plans")
            .join(format!("{hash}.plan.json"))
            .is_file());
        let status = svc.status(&hash).unwrap();
        assert_eq!(status.field("missing").unwrap().as_u64().unwrap(), 2);
        // Resubmission is idempotent and flagged.
        let again = svc.submit(br#"{"builtin":"tiny","shards":2}"#).unwrap();
        assert_eq!(again.field("created").unwrap(), &Value::Bool(false));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn submit_rejections_carry_stable_codes() {
        let (svc, dir) = service("reject");
        let code = |body: &[u8]| svc.submit(body).unwrap_err().code;
        assert_eq!(code(b"not json"), "invalid_json");
        assert_eq!(code(br#"{"no":"grid"}"#), "bad_request");
        assert_eq!(code(br#"{"builtin":"absent"}"#), "unknown_builtin");
        assert_eq!(code(br#"{"builtin":"tiny","shards":0}"#), "invalid_grid");
        assert_eq!(
            code(br#"{"builtin":"tiny","strategy":"pony"}"#),
            "bad_request"
        );
        assert_eq!(code(br#"{"grid":{"name":1}}"#), "invalid_grid");
        assert_eq!(svc.status("no-such-hash").unwrap_err().code, "invalid_key");
        assert_eq!(
            svc.status("0123456789abcdef").unwrap_err().code,
            "unknown_grid"
        );
        assert_eq!(svc.cell("zz", None).unwrap_err().code, "invalid_key");
        assert_eq!(svc.cell("00ff", None).unwrap_err().code, "unknown_cell");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cell_fetches_carry_the_header_fnv_etag_and_304_without_decoding() {
        let (svc, dir) = service("cell-etag");
        let key = 0x00ffu64;
        {
            let mut store =
                dsmt_store::Store::open(&dir, dsmt_sweep::CACHE_SCHEMA_VERSION).unwrap();
            store
                .publish(vec![(
                    key,
                    Value::Object(vec![("ipc".to_string(), Value::F64(1.5))]),
                )])
                .unwrap();
        }
        let fetch = svc.cell("00ff", None).unwrap();
        let json = fetch.json.expect("cold fetch has a body");
        assert!(json.contains("ipc"));
        // The ETag is the per-record FNV from the segment header — knowable
        // without decoding — and a matching If-None-Match short-circuits.
        {
            let transport = svc.transport.lock().unwrap();
            let fnv = transport
                .as_store()
                .record_fnv(key)
                .expect("headered record");
            assert_eq!(fetch.etag, format!("\"{fnv:016x}\""));
        }
        let revalidated = svc.cell("00ff", Some(fetch.etag.as_str())).unwrap();
        assert_eq!(revalidated.json, None, "matching ETag sends no body");
        assert_eq!(revalidated.etag, fetch.etag);
        let miss = svc.cell("00ff", Some("\"0000000000000000\"")).unwrap();
        assert!(miss.json.is_some(), "stale ETag gets the body again");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_cell_keeps_its_etag_across_a_daemon_restart() {
        let (svc, dir) = service("cell-etag-restart");
        let out = svc.submit(br#"{"builtin":"tiny","shards":1}"#).unwrap();
        let hash = out.field("grid_hash").unwrap().as_str().unwrap();
        let manifest = ShardManifest::load(dir.join("plans").join(format!("{hash}.plan.json")))
            .expect("plan readable");
        let engine = SweepEngine::new(1).without_cache();
        let run = dsmt_shard::run_shard(&manifest, 0, &engine).expect("shard runs");
        // The daemon's own store handle publishes the record...
        svc.transport
            .lock()
            .unwrap()
            .publish(&manifest, &run.dsr)
            .expect("publish");
        let key = format!("{:016x}", manifest.shard_key(0));
        let before = svc.cell(&key, None).expect("published cell");
        drop(svc);
        // ...and a restarted daemon, indexing it from disk, names it alike.
        let restarted = SweepService::open(&dir, Box::new(|_| None)).expect("reopen service");
        let after = restarted.cell(&key, None).expect("cell after restart");
        assert_eq!(after.etag, before.etag);
        assert_eq!(after.json, before.json);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_is_incomplete_until_workers_publish_then_byte_identical() {
        let (svc, dir) = service("record");
        let out = svc.submit(br#"{"builtin":"tiny","shards":2}"#).unwrap();
        let hash = out
            .field("grid_hash")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        assert_eq!(svc.record(&hash).unwrap_err().code, "grid_incomplete");

        // A worker (same process here) runs the missing shards against the
        // daemon's store directory — the protocol the daemon enqueues into.
        let manifest = ShardManifest::load(dir.join("plans").join(format!("{hash}.plan.json")))
            .expect("plan readable");
        let engine = SweepEngine::new(1).without_cache();
        let mut worker = Transport::store(&dir).expect("worker transport");
        dsmt_shard::recover(&manifest, &mut worker, &engine, &Default::default())
            .expect("worker run");

        let fetch = svc.record(&hash).unwrap();
        let monolithic = {
            let report = engine.run(&manifest.grid);
            DsrFile::from_report(&manifest.grid, &report, 0, 1).encode()
        };
        assert_eq!(fetch.bytes, monolithic, "service merge is byte-identical");
        assert_eq!(fetch.etag, format!("\"{:016x}\"", fnv1a64(&monolithic)));
        // And the listing knows the grid.
        let listed = svc.list_grids().unwrap();
        let Value::Array(grids) = listed.field("grids").unwrap() else {
            panic!("grids should be an array")
        };
        assert_eq!(grids.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
