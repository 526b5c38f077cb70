//! Sample summaries, the paired interleaved sampler, and the result ledger
//! every run fills in.

use std::time::{Duration, Instant};

/// Median and quartiles of a sample set. The quartiles follow the
/// exclusive method of Python's `statistics.quantiles(values, n=4)`, so a
/// spread quoted here matches one computed from the printed samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// The median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

/// Summarises `values` (at least one).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summarize needs at least one sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    if n < 2 {
        return Summary {
            n,
            median,
            q1: median,
            q3: median,
        };
    }
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        n,
        median,
        q1: quartile(1),
        q3: quartile(3),
    }
}

/// The nearest-rank `p`-th percentile (0 < p <= 100) of `values`, or 0 for
/// an empty slice.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median of `values`.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// Samples sides A (`sample(false)`) and B (`sample(true)`) interleaved as
/// A B, B A, A B … so that slow load drift on a shared host hits both
/// sides alike and cancels out of their ratio. `sample` returns the
/// seconds it measured, so it can keep its own preparation out of the
/// sample. Stops once another pair would overrun `budget`, after at least
/// `min_pairs` pairs. Returns the A samples and the B samples.
pub fn paired(
    min_pairs: usize,
    budget: Duration,
    mut sample: impl FnMut(bool) -> f64,
) -> (Vec<f64>, Vec<f64>) {
    let start = Instant::now();
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    let mut pairs = 0u32;
    loop {
        if pairs as usize >= min_pairs.max(1) {
            let spent = start.elapsed();
            if spent + spent / pairs > budget {
                break;
            }
        }
        let b_first = pairs % 2 == 1;
        for b_side in [b_first, !b_first] {
            let secs = sample(b_side);
            if b_side {
                ys.push(secs)
            } else {
                xs.push(secs)
            }
        }
        pairs += 1;
    }
    (xs, ys)
}

/// Per-pair ratios `xs[i] / ys[i]`.
#[must_use]
pub fn ratios(xs: &[f64], ys: &[f64]) -> Vec<f64> {
    xs.iter()
        .zip(ys)
        .map(|(x, y)| x / y.max(f64::MIN_POSITIVE))
        .collect()
}

/// A fixed piece of host work, timed beside every cold pass to divide the
/// host's own speed drift out of the pass times. Other tenants of this
/// kind of shared host move its speed by a quarter over minutes, far more
/// than any useful bound; the probe's code is independent of the program
/// under test, so it cannot absorb a change to the program.
#[derive(Debug)]
pub struct HostProbe {
    /// One table per thread that may probe at once.
    tables: Vec<Vec<u32>>,
}

impl HostProbe {
    /// Probe seconds on the reference host (a 2-vCPU x86-64 container in
    /// its typical phase): a probe this fast leaves times unscaled.
    pub const REFERENCE_SECS: f64 = 0.011;

    /// Entries per table: 16 MiB, beyond the caches, so the probe feels the
    /// cache and memory contention the simulator feels.
    const ENTRIES: usize = 1 << 22;

    /// Allocates and touches a table for each of up to `threads` probing
    /// threads, so no sample pays page faults.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let table = || (0..Self::ENTRIES as u32).collect();
        HostProbe {
            tables: (0..threads.max(1)).map(|_| table()).collect(),
        }
    }

    /// The probe's own resident memory, in MiB.
    #[must_use]
    pub fn resident_mb(&self) -> f64 {
        (self.tables.len() * Self::ENTRIES * 4) as f64 / (1024.0 * 1024.0)
    }

    /// Mean seconds per thread when `threads` threads probe at once, as a
    /// pass with that many workers loads the host.
    ///
    /// # Panics
    ///
    /// If `threads` exceeds the count the probe was built for.
    pub fn sample(&mut self, threads: usize) -> f64 {
        let tables = &mut self.tables[..threads.max(1)];
        let n = tables.len() as f64;
        std::thread::scope(|s| {
            let running: Vec<_> = tables.iter_mut().map(|t| s.spawn(|| probe(t))).collect();
            running
                .into_iter()
                .map(|h| h.join().expect("probe thread"))
                .sum::<f64>()
                / n
        })
    }
}

/// One million LCG-indexed read-modify-writes with a data-dependent branch
/// over `table`: integer work, unpredictable branches and cache misses,
/// the simulator's own mix. Returns the seconds they took.
fn probe(table: &mut [u32]) -> f64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let started = Instant::now();
    for _ in 0..1_000_000 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let i = (x >> 42) as usize % table.len();
        let v = table[i];
        table[i] = if v & 1 == 0 {
            v.wrapping_add((x >> 20) as u32)
        } else {
            v ^ (x as u32)
        };
    }
    std::hint::black_box(&table);
    started.elapsed().as_secs_f64()
}

/// The value of `key` (e.g. `VmHWM:`) in `/proc/self/status`.
#[must_use]
pub fn proc_status(key: &str) -> Option<String> {
    std::fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix(key).map(|v| v.trim().to_string()))
}

/// The process's peak resident set (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    proc_status("VmHWM:")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Times `f`, returning its output and the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// One reported metric with the samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit as `BENCHMARK.json` lists it.
    pub unit: &'static str,
    /// The samples; the reported value is their median.
    pub samples: Vec<f64>,
}

impl Metric {
    /// The reported value: the median of the samples.
    #[must_use]
    pub fn value(&self) -> f64 {
        median(&self.samples)
    }
}

/// Operations attempted and failed, the metrics, and free-form provenance
/// notes of one run.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations attempted (cells run, shards recovered, merges, gets).
    pub attempted: u64,
    /// Operations whose output failed a check or that returned an error.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// `(key, value)` provenance notes (values are JSON fragments).
    pub notes: Vec<(String, String)>,
}

impl Ledger {
    /// Records `n` attempted operations of which `failed` failed.
    pub fn tally(&mut self, n: usize, failed: usize) {
        self.attempted += n as u64;
        self.failed += failed.min(n) as u64;
    }

    /// Records one operation that succeeded when `ok`.
    pub fn check(&mut self, ok: bool) {
        self.tally(1, usize::from(!ok));
    }

    /// Adds a metric from its samples (reported as their median).
    pub fn sampled(&mut self, name: &'static str, unit: &'static str, samples: Vec<f64>) {
        assert!(!samples.is_empty(), "metric {name} has no samples");
        self.metrics.push(Metric {
            name,
            unit,
            samples,
        });
    }

    /// Adds a single-valued metric.
    pub fn value(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.sampled(name, unit, vec![value]);
    }

    /// Adds a provenance note; `json` must already be a JSON value.
    pub fn note(&mut self, key: &str, json: String) {
        self.notes.push((key.to_string(), json));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        let s = summarize(&[4.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (4.0, 4.0, 4.0, 1));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn paired_sampler_interleaves_abba() {
        let mut order = String::new();
        let (a, b) = paired(3, Duration::ZERO, |b_side| {
            order.push(if b_side { 'B' } else { 'A' });
            if b_side {
                2.0
            } else {
                1.0
            }
        });
        assert_eq!(order, "ABBAAB");
        assert_eq!((a.len(), b.len()), (3, 3));
        assert_eq!(ratios(&b, &a), vec![2.0; 3]);
    }
}
