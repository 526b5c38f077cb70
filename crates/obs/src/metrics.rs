//! The metrics registry: named counters, gauges and log2-bucket
//! histograms, plus point-in-time [`Snapshot`]s rendered as JSON or CSV.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a signed value that can move in both directions.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: one for zero, one per power of two up to
/// `2^63`, and a final bucket for `[2^63, u64::MAX]`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed log2-bucket histogram. Bucket `0` holds zeros; bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i)` (the last bucket is open-ended).
/// Recording is two relaxed adds and a branch-free bucket index — cheap
/// enough for per-cell timing.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` observations of the same value at once — used when a
    /// component accumulates its own bucket counts during a run and folds
    /// them into the registry afterwards (e.g. the core's wake-list depth
    /// samples).
    pub fn record_n(&self, v: u64, n: u64) {
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(v.wrapping_mul(n), Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(n, Ordering::Relaxed);
    }

    /// Number of observations so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations (wrapping on overflow).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((i, n))
            })
            .collect();
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets,
        }
    }
}

/// The bucket index a value lands in: `0` for zero, else
/// `64 - leading_zeros(v)` (so `1 → 1`, `2..=3 → 2`, `4..=7 → 3`, …).
#[must_use]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// The inclusive `(lo, hi)` value range covered by bucket `i`.
///
/// # Panics
/// If `i >= HISTOGRAM_BUCKETS`.
#[must_use]
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < HISTOGRAM_BUCKETS, "bucket {i} out of range");
    match i {
        0 => (0, 0),
        64 => (1 << 63, u64::MAX),
        _ => (1 << (i - 1), (1 << i) - 1),
    }
}

/// The process-wide metric registry. Metrics are created on first use and
/// live for the process lifetime; handles are `Arc`s so the macros can
/// cache them per call site and skip the registry lock thereafter.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// The counter named `name`, created if absent.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("obs registry lock");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The gauge named `name`, created if absent.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().expect("obs registry lock");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The histogram named `name`, created if absent.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("obs registry lock");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// A point-in-time copy of every metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .lock()
            .expect("obs registry lock")
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("obs registry lock")
            .iter()
            .map(|(name, g)| (name.clone(), g.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("obs registry lock")
            .iter()
            .map(|(name, h)| (name.clone(), h.snapshot()))
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// The process-wide [`Registry`].
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// A point-in-time copy of a [`Histogram`]: total count and sum plus the
/// non-empty `(bucket_index, count)` pairs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// `(bucket_index, count)` for every non-empty bucket, ascending.
    pub buckets: Vec<(usize, u64)>,
}

impl HistogramSnapshot {
    /// Mean observation, or 0.0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A point-in-time copy of every metric in a [`Registry`], written as the
/// `DSMT_METRICS` dump by [`Snapshot::to_json`] and rendered by
/// `dsmt obs report`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// `(name, value)` for every counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` for every histogram, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    /// True when no metric has been registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Renders the snapshot as a single JSON object:
    /// `{"counters":{…},"gauges":{…},"histograms":{name:{"count":…,"sum":…,"buckets":[[i,n],…]},…}}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.counters.len() * 32);
        out.push_str("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_key(&mut out, name);
            out.push_str(&v.to_string());
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_key(&mut out, name);
            out.push_str(&v.to_string());
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_key(&mut out, name);
            out.push_str("{\"count\":");
            out.push_str(&h.count.to_string());
            out.push_str(",\"sum\":");
            out.push_str(&h.sum.to_string());
            out.push_str(",\"buckets\":[");
            for (j, (idx, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{idx},{n}]"));
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }

    /// Renders the snapshot as CSV with a `kind,name,field,value` header.
    /// Histograms expand to `count`, `sum`, `mean` and one `bucket_<i>`
    /// row per non-empty bucket.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,name,field,value\n");
        for (name, v) in &self.counters {
            out.push_str(&format!("counter,{name},value,{v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("gauge,{name},value,{v}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!("histogram,{name},count,{}\n", h.count));
            out.push_str(&format!("histogram,{name},sum,{}\n", h.sum));
            out.push_str(&format!("histogram,{name},mean,{}\n", h.mean()));
            for (idx, n) in &h.buckets {
                out.push_str(&format!("histogram,{name},bucket_{idx},{n}\n"));
            }
        }
        out
    }
}

fn push_key(out: &mut String, name: &str) {
    // Metric names are code-chosen identifiers ([a-z0-9._]); escaping the
    // two JSON-significant characters keeps the output well-formed even
    // if a caller strays from that convention.
    out.push('"');
    for c in name.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push_str("\":");
}

/// When `DSMT_METRICS=<path>` is set, writes the registry snapshot there
/// as JSON and returns the path. The CLI calls this once on successful
/// exit.
pub fn dump_to_env_path() -> Option<PathBuf> {
    let path = PathBuf::from(std::env::var_os("DSMT_METRICS")?);
    let snap = registry().snapshot();
    if let Err(e) = std::fs::write(&path, snap.to_json()) {
        crate::warn!(
            "obs.metrics_dump_failed",
            path = path.display().to_string(),
            error = e.to_string()
        );
        return None;
    }
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn counters_gauges_and_histograms_round_trip_through_the_registry() {
        let reg = Registry::default();
        reg.counter("t.cells").add(5);
        reg.counter("t.cells").inc();
        reg.gauge("t.workers").set(4);
        reg.gauge("t.workers").add(-1);
        reg.histogram("t.wall_us").record(0);
        reg.histogram("t.wall_us").record(1);
        reg.histogram("t.wall_us").record(1500);

        let snap = reg.snapshot();
        assert!(!snap.is_empty());
        assert_eq!(snap.counters, vec![("t.cells".to_string(), 6)]);
        assert_eq!(snap.gauges, vec![("t.workers".to_string(), 3)]);
        let (name, h) = &snap.histograms[0];
        assert_eq!(name, "t.wall_us");
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 1501);
        assert_eq!(h.buckets, vec![(0, 1), (1, 1), (11, 1)]);
        assert!((h.mean() - 1501.0 / 3.0).abs() < 1e-9);

        let json = snap.to_json();
        assert_eq!(
            json,
            "{\"counters\":{\"t.cells\":6},\"gauges\":{\"t.workers\":3},\
             \"histograms\":{\"t.wall_us\":{\"count\":3,\"sum\":1501,\
             \"buckets\":[[0,1],[1,1],[11,1]]}}}"
        );

        let csv = snap.to_csv();
        assert!(csv.starts_with("kind,name,field,value\n"));
        assert!(csv.contains("counter,t.cells,value,6\n"));
        assert!(csv.contains("gauge,t.workers,value,3\n"));
        assert!(csv.contains("histogram,t.wall_us,bucket_11,1\n"));
    }

    #[test]
    fn bucket_bounds_tile_the_u64_range() {
        assert_eq!(bucket_bounds(0), (0, 0));
        assert_eq!(bucket_bounds(1), (1, 1));
        assert_eq!(bucket_bounds(2), (2, 3));
        assert_eq!(bucket_bounds(64), (1 << 63, u64::MAX));
        for i in 1..HISTOGRAM_BUCKETS {
            let (_, prev_hi) = bucket_bounds(i - 1);
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, prev_hi + 1, "bucket {i} leaves a gap");
            assert!(lo <= hi);
        }
    }

    #[test]
    fn registry_handles_are_shared() {
        let reg = Registry::default();
        let a = reg.counter("t.shared");
        let b = reg.counter("t.shared");
        a.inc();
        assert_eq!(b.get(), 1);
        assert!(Arc::ptr_eq(&a, &b));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every value lands in exactly the bucket whose bounds contain it.
        #[test]
        fn bucket_index_matches_bucket_bounds(v in any::<u64>()) {
            let i = bucket_index(v);
            prop_assert!(i < HISTOGRAM_BUCKETS);
            let (lo, hi) = bucket_bounds(i);
            prop_assert!(lo <= v && v <= hi, "{v} not in bucket {i} [{lo},{hi}]");
        }

        /// bucket_index is monotone: larger values never map to smaller
        /// buckets.
        #[test]
        fn bucket_index_is_monotone(a in any::<u64>(), b in any::<u64>()) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(bucket_index(lo) <= bucket_index(hi));
        }

        /// A histogram's snapshot conserves count and sum.
        #[test]
        fn histogram_conserves_count_and_sum(values in prop::collection::vec(0u64..1_000_000, 0..12)) {
            let h = Histogram::default();
            for &v in &values {
                h.record(v);
            }
            let snap = h.snapshot();
            prop_assert_eq!(snap.count, values.len() as u64);
            prop_assert_eq!(snap.sum, values.iter().sum::<u64>());
            let bucket_total: u64 = snap.buckets.iter().map(|&(_, n)| n).sum();
            prop_assert_eq!(bucket_total, values.len() as u64);
        }
    }
}
