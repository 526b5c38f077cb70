//! The on-disk result cache, backed by the `dsmt-store` segment layout.
//!
//! Cache schema **v3**: instead of one pretty-JSON file per scenario (the
//! v2 layout, ~2 KB each), results live in a content-addressed
//! [`Store`] — checksummed, string-interned binary segments published with
//! atomic renames. A sweep buffers its misses and publishes them as one
//! segment when it finishes (or every [`FLUSH_THRESHOLD`] records,
//! whichever comes first), so a warm cache is a handful of compact files
//! instead of thousands of tiny ones: ~6x smaller on disk on the bench
//! grid.
//!
//! Entries are keyed by the scenario's stable cache key and carry a
//! second, independently derived scenario hash that is re-verified on every
//! hit — a collision on the key alone degrades to a miss instead of
//! returning the wrong cell. Both come from one serialization of the
//! scenario ([`crate::Scenario::cache_identity`]), computed once per lookup or
//! store.
//!
//! **Visibility contract**: one handle per engine, and the handle is a
//! snapshot. A [`crate::SweepEngine`] opens its cache on its first cached
//! run and keeps the handle for its life. The handle sees the segments
//! that were on disk when it opened, plus every segment it published
//! itself. A cell that another handle or process published later is a
//! miss here and re-simulates to the same bytes: a stale view costs time,
//! never a wrong result. The handle keeps no decoded records (the store
//! reads each hit from disk), so its memory stays bounded however many
//! runs it serves. The shard transport (`dsmt_shard::transport`) re-reads
//! the directory once per recovery claim, the one point where exactly-once
//! execution needs other workers' publishes.
//!
//! **Shared directory contract**: the cache keys records by the raw
//! scenario hash; the shard transport keys its outputs through the
//! `shard-output` namespace of `dsmt_store::namespaced_key`. The two key
//! sets are disjoint by construction, so one store directory — one shared
//! mount point — can serve a fleet as both its scenario cache and its
//! shard-output transport. Both clients re-verify identity inside every
//! value they read (this cache via the independent `verify` hash below,
//! the transport via the grid hash and shard header it embeds), so even a
//! freak 64-bit key collision degrades to a miss/re-run, never a wrong
//! record.
//!
//! Configuration via environment:
//!
//! * `DSMT_SWEEP_CACHE=off` disables caching;
//! * `DSMT_SWEEP_CACHE=<dir>` uses `<dir>`;
//! * unset: `target/sweep-cache` under the current directory.
//!
//! The cache only grows: a hit reads its record and writes nothing, so a
//! fully warm run leaves the directory byte-for-byte and mtime-for-mtime
//! as it found it. Nothing evicts; to reclaim space, delete the directory.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};

use dsmt_core::SimResults;
use dsmt_store::Store;
use serde::{Deserialize, Serialize, Value};

use crate::{CacheIdentity, CACHE_SCHEMA_VERSION};

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
        Self::parse(std::env::var("DSMT_SWEEP_CACHE").ok().as_deref())
    }

    /// The mode a `DSMT_SWEEP_CACHE` value selects (`None`: unset).
    fn parse(value: Option<&str>) -> Self {
        match value {
            Some(v) if v.eq_ignore_ascii_case("off") => CacheMode::Disabled,
            Some(v) if !v.trim().is_empty() => CacheMode::Dir(PathBuf::from(v)),
            _ => CacheMode::Dir(PathBuf::from("target/sweep-cache")),
        }
    }
}

/// Hit/miss counters for one sweep run.
#[derive(Debug, Default)]
pub(crate) struct CacheStats {
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
/// automatically at the threshold, at the end of each engine run and on
/// drop).
///
/// A handle lives as long as its [`crate::SweepEngine`] and is a snapshot
/// (see the module's visibility contract). Hits decode from disk every
/// time, so a long-lived handle holds segment headers, never result
/// values.
#[derive(Debug)]
pub(crate) struct ResultCache {
    store: RwLock<Store>,
    pending: Mutex<HashMap<u64, Value>>,
}

impl ResultCache {
    /// Opens (creating if needed) a cache directory as a v3 store.
    ///
    /// # Errors
    ///
    /// An I/O error for filesystem failures, including schema and
    /// corruption mismatches detected by the store.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let store = Store::open(dir, CACHE_SCHEMA_VERSION).map_err(invalid_data)?;
        Ok(ResultCache {
            store: RwLock::new(store),
            pending: Mutex::new(HashMap::new()),
        })
    }

    /// The entry for the scenario `id` identifies, from the pending buffer
    /// or the store; any missing or mismatching entry is a miss.
    fn lookup_identity(&self, id: CacheIdentity) -> Option<SimResults> {
        let key = id.key;
        if let Some(value) = self.pending.lock().expect("pending lock").get(&key) {
            return decode_entry(value, id);
        }
        let value = self.store.read().expect("store lock").get(key)?;
        decode_entry(&value, id)
    }

    /// Buffers the results of the scenario `id` identifies for the next
    /// segment publish (best-effort: caching failures only cost future
    /// re-simulation).
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

    /// Answers the scenario `id` identifies from the cache with full hit
    /// bookkeeping, or returns `None` without touching any counter. The
    /// sweep engine pairs this with [`publish_miss`](Self::publish_miss)
    /// around its own simulation of a miss; it derives `id` once per cell
    /// and reuses it for both halves and for the record's key.
    #[must_use]
    pub fn try_hit(&self, id: CacheIdentity, stats: &CacheStats) -> Option<SimResults> {
        let results = self.lookup_identity(id)?;
        stats.hits.fetch_add(1, Ordering::Relaxed);
        dsmt_obs::counter!("sweep.cells_cache_hit").inc();
        dsmt_obs::debug!("sweep.cache.hit", key = id.key_hex());
        Some(results)
    }

    /// Stores a result the caller simulated itself, with full miss
    /// bookkeeping.
    pub fn publish_miss(&self, id: CacheIdentity, results: &SimResults, stats: &CacheStats) {
        self.store_identity(id, results);
        stats.misses.fetch_add(1, Ordering::Relaxed);
        dsmt_obs::counter!("sweep.cells_simulated").inc();
        dsmt_obs::debug!("sweep.cache.miss", key = id.key_hex());
    }
}

fn invalid_data(e: dsmt_store::StoreError) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
}

impl Drop for ResultCache {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Scenario, WorkloadSpec};
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

    /// A hit for `s`, counted on a throwaway tally.
    fn lookup(cache: &ResultCache, s: &Scenario) -> Option<SimResults> {
        cache.try_hit(s.cache_identity(), &CacheStats::default())
    }

    #[test]
    fn store_then_lookup_round_trips_exactly() {
        let dir = temp_dir("roundtrip");
        let cache = ResultCache::open(&dir).expect("cache dir");
        let s = scenario(1);
        assert!(lookup(&cache, &s).is_none());
        let results = s.execute();
        cache.publish_miss(s.cache_identity(), &results, &CacheStats::default());
        // Served from the pending buffer before any flush...
        assert_eq!(lookup(&cache, &s).expect("pending hit"), results);
        let on_disk = || {
            let store = Store::open(&dir, CACHE_SCHEMA_VERSION).unwrap();
            (store.segment_count(), store.record_count())
        };
        assert_eq!(on_disk(), (0, 0));
        cache.flush();
        // ...and from the published segment afterwards.
        assert_eq!(lookup(&cache, &s).expect("hit"), results);
        assert_eq!(on_disk(), (1, 1));
        // A different scenario misses.
        assert!(lookup(&cache, &scenario(2)).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_cached_counts_hits_and_misses() {
        let dir = temp_dir("counters");
        let cache = ResultCache::open(&dir).expect("cache dir");
        let stats = CacheStats::default();
        let s = scenario(3);
        let id = s.cache_identity();
        // The engine's path: a miss simulates and publishes, then hits.
        assert!(cache.try_hit(id, &stats).is_none());
        let first = s.execute();
        cache.publish_miss(id, &first, &stats);
        let second = cache.try_hit(id, &stats).expect("hit");
        assert_eq!(first, second);
        assert_eq!((stats.hits(), stats.misses()), (1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drop_publishes_pending_entries() {
        let dir = temp_dir("drop-flush");
        let s = scenario(4);
        let results = s.execute();
        {
            let cache = ResultCache::open(&dir).expect("cache dir");
            cache.publish_miss(s.cache_identity(), &results, &CacheStats::default());
        }
        let cache = ResultCache::open(&dir).expect("reopen");
        assert_eq!(lookup(&cache, &s).expect("hit after drop"), results);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_mode_parses_dsmt_sweep_cache_values() {
        for off in ["off", "OFF", "Off"] {
            assert_eq!(CacheMode::parse(Some(off)), CacheMode::Disabled, "{off}");
        }
        let default = CacheMode::Dir(PathBuf::from("target/sweep-cache"));
        for unset in [None, Some(""), Some("  ")] {
            assert_eq!(CacheMode::parse(unset), default, "{unset:?}");
        }
        for dir in ["/tmp/cells", "offline"] {
            assert_eq!(
                CacheMode::parse(Some(dir)),
                CacheMode::Dir(PathBuf::from(dir))
            );
        }
    }
}
