//! The on-disk result cache, backed by the `dsmt-store` segment layout.
//!
//! Cache schema **v3**: instead of one pretty-JSON file per scenario (the
//! v2 layout, ~2 KB each), results live in a content-addressed
//! [`Store`] — checksummed, string-interned binary segments published with
//! atomic renames. A sweep buffers its misses and publishes them as one
//! segment when it finishes (or every [`FLUSH_THRESHOLD`] records,
//! whichever comes first), so a warm cache is a handful of compact files
//! instead of thousands of tiny ones: ~6x smaller on disk on the bench
//! grid, and `ls`/GC touch segment metadata instead of streaming every
//! entry.
//!
//! Entries are keyed by the scenario's stable cache key and carry a
//! second, independently derived scenario hash that is re-verified on every
//! hit — a collision on the key alone degrades to a miss instead of
//! returning the wrong cell. Both come from one serialization of the
//! scenario ([`Scenario::cache_identity`]), computed once per lookup or
//! store.
//!
//! Opening a directory still holding the v2 layout **fails stop** with a
//! pointer to `dsmt sweep migrate`, which re-encodes every readable v2
//! entry into one v3 segment (see [`migrate_v2`]).
//!
//! **Visibility contract**: a cache handle reads an open-time snapshot of
//! the store. Segments another process publishes *while* a sweep is
//! running are not consulted (each engine run opens a fresh handle, so
//! sequential processes always see each other); the cost of that race is
//! re-simulating a cell another host just finished, never a wrong result.
//! The shard transport (`dsmt_shard::transport`) makes the opposite
//! choice on the same primitive: its reads go through
//! `dsmt_store::Store::refresh`, because a merger must observe other
//! hosts' publishes on a live handle.
//!
//! **Shared directory contract**: the cache keys records by the raw
//! scenario hash; the shard transport keys its outputs through the
//! `shard-output` namespace of `dsmt_store::namespaced_key`. The two key
//! sets are disjoint by construction, so one store directory — one shared
//! mount point — can serve a fleet as both its scenario cache and its
//! shard-output transport, under one LRU/GC/compaction policy. Both
//! clients re-verify identity inside every value they read (this cache
//! via the independent `verify` hash below, the transport via the grid
//! hash and shard header it embeds), so even a freak 64-bit key collision
//! degrades to a miss/re-run, never a wrong record.
//!
//! Configuration via environment:
//!
//! * `DSMT_SWEEP_CACHE=off` disables caching;
//! * `DSMT_SWEEP_CACHE=<dir>` uses `<dir>`;
//! * unset: `target/sweep-cache` under the current directory;
//! * `DSMT_SWEEP_CACHE_MAX_BYTES=<n>` caps the cache size — sweeps garbage
//!   collect least-recently-used segments down to the cap when they finish
//!   (`dsmt sweep gc` runs the same collection on demand).
//!
//! Recency for the LRU order is the segment file's modification time: a
//! cache *hit* re-touches the segment, so segments that keep answering
//! sweeps stay resident while abandoned parameter corners age out first.
//! Touching is purely an LRU affair — shadow precedence between segments
//! that repeat a key is the publish sequence number recorded in each
//! segment's header, so a touch can never promote a stale duplicate.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};

use dsmt_core::SimResults;
use dsmt_store::{CompactOutcome, GcOutcome, SegmentInfo, Store};
use serde::{Deserialize, Serialize, Value};

use crate::{CacheIdentity, Scenario, CACHE_SCHEMA_VERSION};

/// Pending misses are published as a segment once this many accumulate,
/// bounding how much a crashed sweep can lose.
pub const FLUSH_THRESHOLD: usize = 256;

/// Where (and whether) a sweep caches results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheMode {
    /// Never read or write the cache.
    Disabled,
    /// Cache under the given directory.
    Dir(PathBuf),
}

impl CacheMode {
    /// Resolves the mode from `DSMT_SWEEP_CACHE` (see module docs).
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var("DSMT_SWEEP_CACHE") {
            Ok(v) if v.eq_ignore_ascii_case("off") => CacheMode::Disabled,
            Ok(v) if !v.trim().is_empty() => CacheMode::Dir(PathBuf::from(v)),
            _ => CacheMode::Dir(PathBuf::from("target/sweep-cache")),
        }
    }

    /// The size cap from `DSMT_SWEEP_CACHE_MAX_BYTES`, if set. An
    /// unparseable value warns (on stderr) instead of silently disabling
    /// eviction — a typo'd cap must not mean "unbounded".
    #[must_use]
    pub fn max_bytes_from_env() -> Option<u64> {
        let v = std::env::var("DSMT_SWEEP_CACHE_MAX_BYTES").ok()?;
        match v.trim().parse::<u64>() {
            Ok(n) => Some(n),
            Err(_) => {
                dsmt_obs::warn!(
                    "sweep.bad_cache_cap_env",
                    value = v.as_str(),
                    hint = "expected a plain byte count, e.g. 1073741824"
                );
                None
            }
        }
    }
}

/// Hit/miss counters for one sweep run.
#[derive(Debug, Default)]
pub struct CacheStats {
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl CacheStats {
    /// Cells answered from disk.
    #[must_use]
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cells that simulated.
    #[must_use]
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Records a simulation that ran with no cache attached, so report
    /// counters stay meaningful for uncached sweeps too.
    pub fn count_uncached_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        dsmt_obs::counter!("sweep.cells_simulated").inc();
    }
}

/// Encodes one cache entry as a store [`Value`].
fn entry_value(id: CacheIdentity, results: &SimResults) -> Value {
    Value::Object(vec![
        ("verify".to_string(), Value::U64(id.verify)),
        ("results".to_string(), results.to_value()),
    ])
}

/// Decodes a store entry back into results, verifying it belongs to the
/// scenario `id` identifies. Any mismatch or malformation is a miss.
fn decode_entry(value: &Value, id: CacheIdentity) -> Option<SimResults> {
    let verify = value.field("verify").ok()?.as_u64().ok()?;
    if verify != id.verify {
        return None;
    }
    SimResults::from_value(value.field("results").ok()?).ok()
}

/// A store-backed cache of [`SimResults`] keyed by scenario hash.
///
/// Shared by reference across the sweep pool's workers: lookups take a
/// read lock on the store, misses buffer into a pending map and are
/// published as one segment on [`ResultCache::flush`] (called
/// automatically at the threshold, on GC, and on drop).
#[derive(Debug)]
pub struct ResultCache {
    store: RwLock<Store>,
    pending: Mutex<HashMap<u64, Value>>,
    /// Segments already LRU-touched through this handle. A warm sweep hits
    /// hundreds of entries living in a handful of segments; one mtime
    /// write per segment per handle carries the same recency information
    /// as one per hit, without the per-hit syscalls.
    touched: Mutex<std::collections::HashSet<String>>,
}

impl ResultCache {
    /// Opens (creating if needed) a cache directory as a v3 store.
    ///
    /// # Errors
    ///
    /// An I/O error for filesystem failures — including, fail-stop, a
    /// directory still in the v2 one-JSON-per-scenario layout (the error
    /// text points at `dsmt sweep migrate`) and schema/corruption
    /// mismatches detected by the store.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let store = Store::open(dir, CACHE_SCHEMA_VERSION)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        Ok(ResultCache {
            store: RwLock::new(store),
            pending: Mutex::new(HashMap::new()),
            touched: Mutex::new(std::collections::HashSet::new()),
        })
    }

    /// The cache directory.
    #[must_use]
    pub fn dir(&self) -> PathBuf {
        self.store.read().expect("store lock").dir().to_path_buf()
    }

    /// Looks up a scenario; any missing or mismatching entry is a miss.
    /// A hit re-touches the containing segment so the LRU eviction order
    /// (see [`ResultCache::gc`]) tracks use, not just creation.
    #[must_use]
    pub fn lookup(&self, scenario: &Scenario) -> Option<SimResults> {
        self.lookup_identity(scenario.cache_identity())
    }

    /// [`lookup`](Self::lookup) for a caller that already derived the
    /// scenario's [`CacheIdentity`].
    fn lookup_identity(&self, id: CacheIdentity) -> Option<SimResults> {
        let key = id.key;
        if let Some(value) = self.pending.lock().expect("pending lock").get(&key) {
            return decode_entry(value, id);
        }
        let store = self.store.read().expect("store lock");
        let results = decode_entry(store.get(key)?, id)?;
        if let Some(name) = store.segment_name_of(key) {
            if self
                .touched
                .lock()
                .expect("touched lock")
                .insert(name.to_string())
            {
                store.touch(key);
            }
        }
        Some(results)
    }

    /// Buffers a scenario's results for the next segment publish
    /// (best-effort: caching failures only cost future re-simulation).
    pub fn store(&self, scenario: &Scenario, results: &SimResults) {
        self.store_identity(scenario.cache_identity(), results);
    }

    /// [`store`](Self::store) for a caller that already derived the
    /// scenario's [`CacheIdentity`].
    fn store_identity(&self, id: CacheIdentity, results: &SimResults) {
        let flush_now = {
            let mut pending = self.pending.lock().expect("pending lock");
            pending.insert(id.key, entry_value(id, results));
            pending.len() >= FLUSH_THRESHOLD
        };
        if flush_now {
            self.flush();
        }
    }

    /// Publishes every buffered miss as one new segment (in ascending key
    /// order, so the segment bytes are deterministic for a given batch).
    /// I/O failures are swallowed, like v2's best-effort writes.
    pub fn flush(&self) {
        let records: Vec<(u64, Value)> = {
            let mut pending = self.pending.lock().expect("pending lock");
            let mut drained: Vec<_> = pending.drain().collect();
            drained.sort_by_key(|(k, _)| *k);
            drained
        };
        if records.is_empty() {
            return;
        }
        if let Err(e) = self.store.write().expect("store lock").publish(records) {
            dsmt_obs::warn!("sweep.cache_publish_failed", error = e.to_string());
        }
    }

    /// Runs a scenario through the cache: hit returns the stored results,
    /// miss executes and stores. Counters update accordingly.
    #[must_use]
    pub fn run_cached(&self, scenario: &Scenario, stats: &CacheStats) -> SimResults {
        let id = scenario.cache_identity();
        if let Some(results) = self.try_hit(id, stats) {
            return results;
        }
        let results = scenario.execute();
        self.publish_miss(id, &results, stats);
        results
    }

    /// The hit half of [`run_cached`](Self::run_cached): answers the
    /// scenario `id` identifies from the cache with full hit bookkeeping,
    /// or returns `None` without touching any counter. The batched-cell
    /// drive loop uses this and [`publish_miss`](Self::publish_miss) so
    /// several simulations can be interleaved between the lookup and the
    /// store; it derives `id` once per cell and reuses it for both halves
    /// and for the record's key.
    #[must_use]
    pub fn try_hit(&self, id: CacheIdentity, stats: &CacheStats) -> Option<SimResults> {
        let results = self.lookup_identity(id)?;
        stats.hits.fetch_add(1, Ordering::Relaxed);
        dsmt_obs::counter!("sweep.cells_cache_hit").inc();
        dsmt_obs::debug!("sweep.cache.hit", key = id.key_hex());
        Some(results)
    }

    /// The miss half of [`run_cached`](Self::run_cached): stores a result
    /// the caller simulated itself, with full miss bookkeeping.
    pub fn publish_miss(&self, id: CacheIdentity, results: &SimResults, stats: &CacheStats) {
        self.store_identity(id, results);
        stats.misses.fetch_add(1, Ordering::Relaxed);
        dsmt_obs::counter!("sweep.cells_simulated").inc();
        dsmt_obs::debug!("sweep.cache.miss", key = id.key_hex());
    }

    /// Number of distinct cached scenarios (published + pending).
    #[must_use]
    pub fn record_count(&self) -> usize {
        let published = self.store.read().expect("store lock").record_count();
        published + self.pending.lock().expect("pending lock").len()
    }

    /// Number of segment files on disk.
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.store.read().expect("store lock").segment_count()
    }

    /// Metadata for every on-disk segment, least recently used first.
    #[must_use]
    pub fn segments(&self) -> Vec<SegmentInfo> {
        self.store.read().expect("store lock").segment_infos()
    }

    /// Total bytes held by cache segments.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.store.read().expect("store lock").total_bytes()
    }

    /// Evicts least-recently-used segments until the cache fits in
    /// `max_bytes` (flushing pending entries first so they participate).
    /// Returns what was examined, evicted and kept.
    ///
    /// Eviction is best-effort and guarded by a store-level `gc` claim:
    /// concurrent collectors do not double-evict, and writers may push the
    /// cache back over the cap — the next sweep's collection catches it.
    pub fn gc(&self, max_bytes: u64) -> GcOutcome {
        self.flush();
        // Post-eviction, segments may be gone: let later hits re-touch.
        self.touched.lock().expect("touched lock").clear();
        self.store.write().expect("store lock").gc(max_bytes)
    }

    /// Folds every live entry into one fresh segment, dropping shadowed
    /// duplicates (flushes pending entries first).
    ///
    /// # Errors
    ///
    /// The store's error, as text.
    pub fn compact(&self) -> Result<CompactOutcome, String> {
        self.flush();
        self.touched.lock().expect("touched lock").clear();
        self.store
            .write()
            .expect("store lock")
            .compact()
            .map_err(|e| e.to_string())
    }
}

impl Drop for ResultCache {
    fn drop(&mut self) {
        self.flush();
    }
}

/// What a [`migrate_v2`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrateOutcome {
    /// v2 entries re-encoded into the v3 store.
    pub migrated: usize,
    /// v2 files skipped (unreadable, foreign schema, malformed).
    pub skipped: usize,
    /// Total bytes of the v2 JSON entries.
    pub bytes_before: u64,
    /// Total bytes of the v3 store segments afterwards.
    pub bytes_after: u64,
}

/// Migrates a v2 cache directory (one pretty-JSON file per scenario) into
/// the v3 store layout, in place: every readable v2 entry is re-keyed
/// under the v3 cache schema and published as one segment; the JSON files
/// are then removed. Unreadable or foreign entries are skipped and
/// counted — their cells will simply re-simulate.
///
/// The migration claims a `migrate` lock inside the directory, so two
/// racing migrators cannot interleave.
///
/// # Errors
///
/// A human-readable message on I/O failure, on a directory already (or
/// half) migrated with a different schema, or when another migrator holds
/// the claim.
pub fn migrate_v2(dir: impl Into<PathBuf>) -> Result<MigrateOutcome, String> {
    let dir = dir.into();
    let _claim = dsmt_store::LockFile::acquire(dir.join("locks"), "migrate")
        .map_err(|e| format!("{}: cannot claim migrate lock: {e}", dir.display()))?
        .ok_or_else(|| {
            format!(
                "{}: another migration holds the claim ({})",
                dir.display(),
                dsmt_store::LockFile::holder(dir.join("locks"), "migrate")
                    .unwrap_or_else(|| "unknown holder".to_string())
            )
        })?;

    let mut outcome = MigrateOutcome::default();
    let mut records: Vec<(u64, Value)> = Vec::new();
    let mut legacy_files: Vec<PathBuf> = Vec::new();
    let rd = std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in rd.filter_map(Result::ok) {
        let path = entry.path();
        // Only files named like v2 entries (`<16-hex-key>.json`) are cache
        // data; anything else — a plan.json, an exported report — is left
        // strictly alone (and does not trigger the fail-stop either, see
        // `dsmt_store::is_v2_entry_name`).
        if !path
            .file_name()
            .is_some_and(|f| dsmt_store::is_v2_entry_name(&f.to_string_lossy()))
        {
            continue;
        }
        legacy_files.push(path.clone());
        outcome.bytes_before += entry.metadata().map(|m| m.len()).unwrap_or(0);
        match parse_v2_entry(&path) {
            Some((scenario, results)) => {
                let id = scenario.cache_identity();
                records.push((id.key, entry_value(id, &results)));
                outcome.migrated += 1;
            }
            // A v2-named file that does not parse is a corrupt cache
            // entry: worthless, and leaving it would re-trigger the
            // fail-stop. It is counted and removed with the rest.
            None => outcome.skipped += 1,
        }
    }
    if legacy_files.is_empty() {
        return Err(format!(
            "{}: no v2 entries found (nothing to migrate)",
            dir.display()
        ));
    }
    // Remove the legacy entries *before* opening the store: their presence
    // is exactly what makes Store::open fail-stop. Losing entries on a
    // crash in this window costs re-simulation, never correctness.
    for path in &legacy_files {
        let _ = std::fs::remove_file(path);
    }
    records.sort_by_key(|(k, _)| *k);
    let mut store = Store::open(&dir, CACHE_SCHEMA_VERSION).map_err(|e| e.to_string())?;
    store.publish(records).map_err(|e| e.to_string())?;
    outcome.bytes_after = store.total_bytes();
    Ok(outcome)
}

/// Parses one v2 cache file: `{schema: 2, scenario, results}`.
fn parse_v2_entry(path: &std::path::Path) -> Option<(Scenario, SimResults)> {
    let text = std::fs::read_to_string(path).ok()?;
    let value: Value = serde::from_str(&text).ok()?;
    if value.field("schema").ok()?.as_u64().ok()? != 2 {
        return None;
    }
    let scenario = Scenario::from_value(value.field("scenario").ok()?).ok()?;
    let results = SimResults::from_value(value.field("results").ok()?).ok()?;
    Some((scenario, results))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadSpec;
    use dsmt_core::SimConfig;

    fn scenario(seed: u64) -> Scenario {
        Scenario {
            config: SimConfig::paper_multithreaded(1),
            workload: WorkloadSpec::benchmark("tomcatv"),
            seed,
            budget: 4_000,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dsmt-sweep-cache-test-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn temp_cache(tag: &str) -> ResultCache {
        ResultCache::open(temp_dir(tag)).expect("cache dir")
    }

    #[test]
    fn store_then_lookup_round_trips_exactly() {
        let cache = temp_cache("roundtrip");
        let s = scenario(1);
        assert!(cache.lookup(&s).is_none());
        let results = s.execute();
        cache.store(&s, &results);
        // Served from the pending buffer before any flush...
        assert_eq!(cache.lookup(&s).expect("pending hit"), results);
        assert_eq!(cache.segment_count(), 0);
        cache.flush();
        // ...and from the published segment afterwards.
        assert_eq!(cache.lookup(&s).expect("hit"), results);
        assert_eq!(cache.record_count(), 1);
        assert_eq!(cache.segment_count(), 1);
        // A different scenario misses.
        assert!(cache.lookup(&scenario(2)).is_none());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn run_cached_counts_hits_and_misses() {
        let cache = temp_cache("counters");
        let stats = CacheStats::default();
        let s = scenario(3);
        let first = cache.run_cached(&s, &stats);
        let second = cache.run_cached(&s, &stats);
        assert_eq!(first, second);
        assert_eq!((stats.hits(), stats.misses()), (1, 1));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn drop_publishes_pending_entries() {
        let dir = temp_dir("drop-flush");
        let s = scenario(4);
        let results = s.execute();
        {
            let cache = ResultCache::open(&dir).expect("cache dir");
            cache.store(&s, &results);
        }
        let cache = ResultCache::open(&dir).expect("reopen");
        assert_eq!(cache.lookup(&s).expect("hit after drop"), results);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn v2_layout_fails_stop_with_migrate_hint() {
        let dir = temp_dir("v2-failstop");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("00112233aabbccdd.json"), "{\"schema\": 2}").unwrap();
        let err = ResultCache::open(&dir).expect_err("v2 dirs must fail stop");
        assert!(err.to_string().contains("migrate"), "got: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segments_report_sizes_and_lru_order() {
        let cache = temp_cache("segments");
        for seed in 0..3 {
            let s = scenario(seed);
            cache.store(&s, &s.execute());
            cache.flush();
            // Coarse-mtime filesystems need distinct timestamps for a
            // deterministic recency check.
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let segments = cache.segments();
        assert_eq!(segments.len(), 3);
        assert!(segments.iter().all(|e| e.bytes > 0 && e.records == 1));
        assert!(segments.windows(2).all(|w| w[0].modified <= w[1].modified));
        assert_eq!(
            cache.total_bytes(),
            segments.iter().map(|e| e.bytes).sum::<u64>()
        );
        assert_eq!(cache.record_count(), 3);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn gc_evicts_least_recently_used_down_to_cap() {
        let cache = temp_cache("gc");
        for seed in 10..14 {
            let s = scenario(seed);
            cache.store(&s, &s.execute());
            cache.flush();
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let segments = cache.segments();
        let total = cache.total_bytes();
        let newest = segments.last().expect("segments").clone();
        // Cap to the newest segment's size: everything older must go.
        let outcome = cache.gc(newest.bytes);
        assert_eq!(outcome.examined, 4);
        assert_eq!(outcome.evicted, 3);
        assert_eq!(outcome.kept, 1);
        assert_eq!(outcome.evicted_bytes + outcome.kept_bytes, total);
        let left = cache.segments();
        assert_eq!(left.len(), 1);
        assert_eq!(left[0].name, newest.name);
        // The survivor still hits.
        assert!(cache.lookup(&scenario(13)).is_some());
        // A generous cap evicts nothing.
        let outcome = cache.gc(u64::MAX);
        assert_eq!((outcome.evicted, outcome.kept), (0, 1));
        // A zero cap empties the cache.
        let outcome = cache.gc(0);
        assert_eq!(outcome.evicted, 1);
        assert_eq!(cache.segment_count(), 0);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn hits_keep_segments_resident_across_gc() {
        let cache = temp_cache("lru-touch");
        for seed in 20..23 {
            let s = scenario(seed);
            cache.store(&s, &s.execute());
            cache.flush();
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        // Hit the oldest entry: its segment moves to the back of the queue.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(cache.lookup(&scenario(20)).is_some());
        let survivor_budget = cache.segments().last().unwrap().bytes * 2;
        let outcome = cache.gc(survivor_budget);
        assert_eq!(outcome.evicted, 1);
        assert!(cache.lookup(&scenario(20)).is_some(), "hit entry survives");
        assert!(cache.lookup(&scenario(21)).is_none(), "cold entry evicted");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn compact_folds_segments_and_keeps_hits() {
        let cache = temp_cache("compact");
        let scenarios: Vec<Scenario> = (30..34).map(scenario).collect();
        for s in &scenarios {
            cache.store(s, &s.execute());
            cache.flush();
        }
        assert_eq!(cache.segment_count(), 4);
        let outcome = cache.compact().expect("compact");
        assert_eq!(outcome.records, 4);
        assert_eq!(cache.segment_count(), 1);
        for s in &scenarios {
            assert_eq!(cache.lookup(s).expect("hit"), s.execute());
        }
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn migrate_v2_reencodes_entries_in_place() {
        let dir = temp_dir("migrate");
        std::fs::create_dir_all(&dir).unwrap();
        // Build a v2 layout by hand: {schema: 2, scenario, results} pretty
        // JSON under <any-hex>.json (the v2 file name is not load-bearing;
        // keys are re-derived from the scenario).
        let scenarios: Vec<Scenario> = (40..43).map(scenario).collect();
        let mut v2_bytes = 0u64;
        for (i, s) in scenarios.iter().enumerate() {
            let entry = Value::Object(vec![
                ("schema".to_string(), Value::U64(2)),
                ("scenario".to_string(), s.to_value()),
                ("results".to_string(), s.execute().to_value()),
            ]);
            let text = serde::to_string_pretty(&entry);
            v2_bytes += text.len() as u64;
            std::fs::write(dir.join(format!("{i:016x}.json")), text).unwrap();
        }
        // Plus one corrupt v2-named entry (skipped + removed) and one
        // unrelated JSON file (never touched, never counted).
        std::fs::write(dir.join("ffffffffffffffff.json"), "{ not json").unwrap();
        std::fs::write(dir.join("plan.json"), "{\"mine\": true}").unwrap();

        let outcome = migrate_v2(&dir).expect("migrate");
        assert_eq!(outcome.migrated, 3);
        assert_eq!(outcome.skipped, 1);
        assert_eq!(
            std::fs::read_to_string(dir.join("plan.json")).unwrap(),
            "{\"mine\": true}",
            "foreign JSON survives migration untouched"
        );
        assert!(!dir.join("ffffffffffffffff.json").exists());
        assert!(outcome.bytes_before >= v2_bytes);
        assert!(
            outcome.bytes_after * 2 < outcome.bytes_before,
            "v3 ({}) should be far smaller than v2 ({})",
            outcome.bytes_after,
            outcome.bytes_before
        );
        // The migrated store opens and hits.
        let cache = ResultCache::open(&dir).expect("open migrated");
        for s in &scenarios {
            assert_eq!(cache.lookup(s).expect("migrated hit"), s.execute());
        }
        // Migrating again: nothing left to migrate.
        assert!(migrate_v2(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_mode_from_env_is_isolated_per_value() {
        // Not testing the env var itself (global state); just the parsing
        // contract via explicit values.
        assert_eq!(CacheMode::Disabled, CacheMode::Disabled);
        let d = CacheMode::Dir(PathBuf::from("x"));
        assert_ne!(d, CacheMode::Disabled);
    }
}
