//! The metrics registry: named counters, plus point-in-time [`Snapshot`]s
//! rendered as `name,value` lines.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
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

/// The process-wide counter registry. Counters are created on first use
/// and live for the process lifetime; handles are `Arc`s so the
/// [`counter!`](crate::counter!) macro can cache them per call site and
/// skip the registry lock thereafter.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
}

impl Registry {
    /// The counter named `name`, created if absent.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("obs registry lock");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// A point-in-time copy of every counter, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .lock()
            .expect("obs registry lock")
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect();
        Snapshot { counters }
    }
}

/// The process-wide [`Registry`].
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// A point-in-time copy of every counter in a [`Registry`], written as the
/// `DSMT_METRICS` dump by [`Snapshot::to_csv`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// `(name, value)` for every counter, sorted by name.
    pub counters: Vec<(String, u64)>,
}

impl Snapshot {
    /// Renders the snapshot as CSV: a `name,value` header, then one line
    /// per counter in name order. Metric names are code-chosen
    /// identifiers (`[a-z0-9._]`), so no field needs quoting.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("name,value\n");
        for (name, v) in &self.counters {
            out.push_str(&format!("{name},{v}\n"));
        }
        out
    }
}

/// When `DSMT_METRICS=<path>` is set, writes the registry snapshot there
/// as `name,value` CSV and returns the path. The CLI calls this once on
/// successful exit.
pub fn dump_to_env_path() -> Option<PathBuf> {
    let path = PathBuf::from(std::env::var_os("DSMT_METRICS")?);
    let snap = registry().snapshot();
    if let Err(e) = std::fs::write(&path, snap.to_csv()) {
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

    #[test]
    fn counters_round_trip_through_the_registry() {
        let reg = Registry::default();
        reg.counter("t.cells").add(5);
        reg.counter("t.cells").inc();
        reg.counter("t.all").add(u64::MAX);

        let snap = reg.snapshot();
        assert_eq!(
            snap.counters,
            vec![("t.all".to_string(), u64::MAX), ("t.cells".to_string(), 6)]
        );
        assert_eq!(
            snap.to_csv(),
            format!("name,value\nt.all,{}\nt.cells,6\n", u64::MAX)
        );
        assert_eq!(Snapshot::default().to_csv(), "name,value\n");
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
}
