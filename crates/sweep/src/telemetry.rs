//! Sweep-side telemetry glue: the live `--progress` line.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

#[cfg(test)]
mod tests {
    use super::*;

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
