//! The sweep's worker pool: guided self-scheduling over `std::thread`
//! scoped threads.
//!
//! Cells of a sweep vary widely in cost (a 16-thread, 256-cycle-latency cell
//! simulates far more work per instruction than a 1-thread, 1-cycle cell),
//! so static partitioning leaves workers idle. Here every worker claims the
//! next run of items from one shared atomic cursor, one compare-and-swap
//! per claim. A claim takes `(n - lo) / (2 * workers)` of the items left,
//! clamped to `1..=max_batch`: whole batches while much remains, single
//! items at the tail, so the workers finish together (guided
//! self-scheduling, Polychronopoulos & Kuck, IEEE TC 1987).
//!
//! Determinism: the pool only affects *which worker* computes each output,
//! never the output itself — outputs are returned in input order, and each
//! job sees only its own input. Callers derive any randomness from the job
//! index, not from scheduling.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Applies `f` to contiguous slices of `items`, running up to `workers`
/// slices concurrently, and returns the outputs in input order.
///
/// `f(base, slice)` receives `items[base..base + slice.len()]`, at most
/// `max_batch` items, and must return one output per slice item, in
/// order. The sweep engine's batched-cell drive loop uses this to
/// interleave several simulations per call; `max_batch = 1` degenerates to
/// per-item dispatch. The calling thread is one of the workers.
///
/// # Panics
///
/// Propagates panics from `f`; panics if `f` returns the wrong number of
/// outputs for a slice.
pub fn run_batched<I, O, F>(items: &[I], workers: usize, max_batch: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(usize, &[I]) -> Vec<O> + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let max_batch = max_batch.max(1);
    let workers = workers.clamp(1, n);
    let claim = |lo: usize| ((n - lo) / (2 * workers)).clamp(1, max_batch);
    let cursor = AtomicUsize::new(0);
    let work = || {
        let started = Instant::now();
        let mut busy = Duration::ZERO;
        let mut slices = Vec::new();
        while let Ok(lo) = cursor.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |lo| {
            (lo < n).then(|| lo + claim(lo))
        }) {
            let hi = lo + claim(lo);
            let slice_started = Instant::now();
            let outs = f(lo, &items[lo..hi]);
            busy += slice_started.elapsed();
            assert_eq!(outs.len(), hi - lo, "batch at {lo} returned wrong count");
            slices.push((lo, outs));
        }
        let idle = started.elapsed().saturating_sub(busy);
        dsmt_obs::counter!("sweep.pool.busy_ms").add(busy.as_millis() as u64);
        dsmt_obs::counter!("sweep.pool.idle_ms").add(idle.as_millis() as u64);
        slices
    };

    let mut slices = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut slices = work();
        for helper in helpers {
            match helper.join() {
                Ok(theirs) => slices.extend(theirs),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        slices
    });
    slices.sort_unstable_by_key(|&(base, _)| base);
    let mut out = Vec::with_capacity(n);
    for (_, outs) in slices {
        out.extend(outs);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_are_in_input_order_for_any_worker_count() {
        let inputs: Vec<u64> = (0..101).collect();
        let expect: Vec<u64> = inputs.iter().map(|x| x * 3).collect();
        for workers in [1, 2, 3, 8, 64, 200] {
            for max_batch in [1, 4] {
                let out = run_batched(&inputs, workers, max_batch, |_, s| {
                    s.iter().map(|x| x * 3).collect()
                });
                assert_eq!(out, expect, "workers={workers} max_batch={max_batch}");
            }
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let n = 500;
        let counters: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..n).collect();
        let out = run_batched(&items, 7, 4, |base, slice| {
            for k in 0..slice.len() {
                counters[base + k].fetch_add(1, Ordering::SeqCst);
            }
            slice.to_vec()
        });
        assert_eq!(out, items);
        assert!(counters.iter().all(|c| c.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn chunked_claims_cover_every_index() {
        // Many more items than workers: multi-item claims shrink to single
        // items near the end, and every claim's base matches its slice.
        let n = 1013; // prime: no claim size divides it
        let items: Vec<usize> = (0..n).collect();
        let out = run_batched(&items, 5, 3, |base, slice| {
            for (k, &x) in slice.iter().enumerate() {
                assert_eq!(base + k, x);
            }
            slice.iter().map(|x| x * 2).collect()
        });
        assert_eq!(out, (0..n).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn claims_tile_the_input_and_shrink_to_one() {
        let (n, max_batch) = (64, 8);
        let items: Vec<usize> = (0..n).collect();
        // Every output names the claim that computed it.
        let out = run_batched(&items, 2, max_batch, |base, slice| {
            vec![(base, slice.len()); slice.len()]
        });
        let mut claims = out.clone();
        claims.dedup();
        let mut next = 0;
        for &(base, len) in &claims {
            assert_eq!(base, next, "claims {claims:?} leave a gap or overlap");
            assert!((1..=max_batch).contains(&len), "claim {base}+{len}");
            next = base + len;
        }
        assert_eq!(next, n);
        assert!(claims.windows(2).all(|w| w[1].1 <= w[0].1), "{claims:?}");
        assert!(
            claims.iter().rev().take(4).all(|&(_, len)| len == 1),
            "{claims:?}"
        );
    }

    #[test]
    fn uneven_job_costs_still_complete() {
        // Front-loaded cost: the other workers drain the cheap tail.
        let items: Vec<u64> = (0..64).collect();
        let out = run_batched(&items, 8, 1, |i, s| {
            if i < 8 {
                std::thread::sleep(Duration::from_millis(2));
            }
            vec![s[0] + 1]
        });
        assert_eq!(out, (1..=64).collect::<Vec<_>>());
    }

    #[test]
    fn a_panicking_job_panics_the_pool() {
        let items: Vec<usize> = (0..32).collect();
        for workers in [1, 4] {
            let run = std::panic::catch_unwind(|| {
                run_batched(&items, workers, 2, |_, slice| {
                    assert!(!slice.contains(&10), "job 10 fails");
                    slice.to_vec()
                })
            });
            assert!(run.is_err(), "workers={workers}");
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let double = |_: usize, s: &[u64]| -> Vec<u64> { s.iter().map(|x| x * 2).collect() };
        assert!(run_batched(&[], 4, 4, double).is_empty());
        assert_eq!(run_batched(&[5u64], 4, 4, double), vec![10]);
    }
}
