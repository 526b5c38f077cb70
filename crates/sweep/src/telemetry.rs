//! Sweep-side telemetry glue: the live `--progress` line and the reader
//! of the `DSMT_METRICS` dump that `dsmt obs report` renders.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dsmt_obs::{HistogramSnapshot, Snapshot};
use serde::{DeError, Deserialize, Value};

/// A live `N/M cells (pct%) rate cells/s ETA` line, redrawn on stderr a few
/// times per second by a background ticker thread while sweep workers bump
/// the shared counter. Rendering goes to stderr so piped/captured stdout
/// (CSV, JSON) stays clean.
#[derive(Debug)]
pub struct ProgressLine {
    done: Arc<AtomicUsize>,
    stop: Arc<AtomicBool>,
    total: usize,
    started: Instant,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ProgressLine {
    /// Starts the ticker for a sweep of `total` cells.
    #[must_use]
    pub fn start(total: usize) -> Self {
        let done = Arc::new(AtomicUsize::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let started = Instant::now();
        let handle = {
            let done = Arc::clone(&done);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    render(done.load(Ordering::Relaxed), total, started.elapsed());
                    // Short sleeps keep finish() latency low without
                    // redrawing more often than the 250ms cadence.
                    for _ in 0..10 {
                        if stop.load(Ordering::Relaxed) {
                            return;
                        }
                        std::thread::sleep(Duration::from_millis(25));
                    }
                }
            })
        };
        ProgressLine {
            done,
            stop,
            total,
            started,
            handle: Some(handle),
        }
    }

    /// The shared completion counter; sweep workers bump it once per cell.
    #[must_use]
    pub fn counter(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.done)
    }

    /// Stops the ticker, draws the final state and terminates the line.
    pub fn finish(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        render(
            self.done.load(Ordering::Relaxed),
            self.total,
            self.started.elapsed(),
        );
        eprintln!();
    }
}

impl Drop for ProgressLine {
    fn drop(&mut self) {
        // finish() already joined; this covers early-drop (panic) paths.
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn render(done: usize, total: usize, elapsed: Duration) {
    let secs = elapsed.as_secs_f64().max(1e-9);
    let rate = done as f64 / secs;
    let pct = if total == 0 {
        100.0
    } else {
        done as f64 * 100.0 / total as f64
    };
    let eta = if done == 0 || done >= total {
        "0s".to_string()
    } else {
        format!("{:.0}s", (total - done) as f64 / rate)
    };
    eprint!("\r  sweep: {done}/{total} cells ({pct:.0}%)  {rate:.1} cells/s  ETA {eta}   ");
}

/// Reads back a metrics [`Snapshot`] from the JSON that
/// [`Snapshot::to_json`] writes (the `DSMT_METRICS` dump):
/// `{"counters":{name:n,…},"gauges":{name:n,…},"histograms":{name:{"count":…,"sum":…,"buckets":[[i,n],…]},…}}`.
///
/// # Errors
///
/// A [`DeError`] when `text` is not JSON or not of that shape.
pub fn snapshot_from_json(text: &str) -> Result<Snapshot, DeError> {
    let v: Value = serde::from_str(text)?;
    let mut snap = Snapshot::default();
    for (name, val) in dump_section(&v, "counters")? {
        snap.counters.push((name.clone(), u64::from_value(val)?));
    }
    for (name, val) in dump_section(&v, "gauges")? {
        snap.gauges.push((name.clone(), i64::from_value(val)?));
    }
    for (name, val) in dump_section(&v, "histograms")? {
        let hist = HistogramSnapshot {
            count: u64::from_value(val.field("count")?)?,
            sum: u64::from_value(val.field("sum")?)?,
            buckets: Vec::from_value(val.field("buckets")?)?,
        };
        snap.histograms.push((name.clone(), hist));
    }
    Ok(snap)
}

/// The `name -> value` entries of one section of a metrics dump.
fn dump_section<'a>(v: &'a Value, name: &str) -> Result<&'a [(String, Value)], DeError> {
    match v.field(name) {
        Ok(Value::Object(entries)) => Ok(entries),
        Ok(other) => Err(DeError::msg(format!(
            "`{name}` should be a JSON object, got {other:?}"
        ))),
        Err(_) => Err(DeError::msg(format!(
            "not a metrics dump: no `{name}` object"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trips_through_its_json_dump() {
        let snap = Snapshot {
            counters: vec![
                ("a.b".to_string(), 7),
                ("quote\"and\\slash".to_string(), u64::MAX),
            ],
            gauges: vec![("g".to_string(), -2)],
            histograms: vec![(
                "h".to_string(),
                HistogramSnapshot {
                    count: 4,
                    sum: 1503,
                    buckets: vec![(0, 1), (1, 1), (11, 2)],
                },
            )],
        };
        let back = snapshot_from_json(&snap.to_json()).expect("round trip");
        assert_eq!(back, snap);

        let empty = Snapshot::default();
        let back = snapshot_from_json(&empty.to_json()).expect("empty round trip");
        assert!(back.is_empty());
    }

    #[test]
    fn a_snapshot_of_another_shape_is_rejected_by_name() {
        // Counters as `[name, value]` pairs instead of an object map.
        let err = snapshot_from_json(r#"{"counters":[["a",1]],"gauges":{},"histograms":{}}"#)
            .expect_err("pairs are not the dump shape");
        assert!(
            err.to_string()
                .contains("`counters` should be a JSON object"),
            "{err}"
        );
        let err = snapshot_from_json("[]").expect_err("not an object");
        assert!(err.to_string().contains("not a metrics dump"), "{err}");
        assert!(snapshot_from_json("{").is_err(), "not JSON");
    }

    #[test]
    fn progress_line_counts_to_completion() {
        let progress = ProgressLine::start(4);
        let counter = progress.counter();
        for _ in 0..4 {
            counter.fetch_add(1, Ordering::Relaxed);
        }
        progress.finish();
    }
}
