//! A timing/event wheel for deferred completion events.
//!
//! The simulator's completion queue used to be a `BinaryHeap`: O(log n) per
//! push/pop with allocator churn as the heap grows and shrinks every cycle.
//! Almost every event lands within a small, configuration-bounded horizon
//! (functional-unit latency, or L1 + L2 + bus time for a fill), so a wheel
//! of `Vec` buckets indexed by `cycle % size` gives O(1) pushes and drains
//! with zero steady-state allocation — bucket `Vec`s are drained in place
//! and their capacity is reused.
//!
//! Events beyond the horizon (e.g. fills delayed by deep bus queueing) spill
//! into an overflow binary heap keyed by `(cycle, insertion order)`, so
//! correctness never depends on the horizon being large enough — only the
//! fast path does.
//!
//! Draining must visit every cycle in order (`drain_due(0)`, `drain_due(1)`,
//! ...), which is exactly how the cycle-by-cycle simulator runs; this is
//! asserted in debug builds.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An event parked in the overflow heap, ordered by due cycle with
/// insertion order as the deterministic tie-break.
#[derive(Debug)]
struct Parked<T> {
    due: u64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Parked<T> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl<T> Eq for Parked<T> {}
impl<T> PartialOrd for Parked<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Parked<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

/// A fixed-horizon event wheel with an overflow heap.
#[derive(Debug)]
pub struct EventWheel<T> {
    /// One bucket per cycle in the horizon window; index = `cycle & mask`.
    buckets: Vec<Vec<T>>,
    /// Occupancy bitmap over `buckets` (bit `i % 64` of word `i / 64`), so
    /// [`next_due_before`](Self::next_due_before) — the stall
    /// fast-forward's bound query — scans 64 buckets per word load instead
    /// of touching every bucket `Vec`.
    occupied: Vec<u64>,
    mask: u64,
    /// The lowest cycle that has not been drained yet.
    next_cycle: u64,
    /// Events due at or beyond `next_cycle + buckets.len()`.
    overflow: BinaryHeap<Reverse<Parked<T>>>,
    overflow_seq: u64,
    len: usize,
}

impl<T> EventWheel<T> {
    /// Creates a wheel able to hold events up to `horizon` cycles in the
    /// future on its fast path (rounded up to a power of two, at least 64).
    /// Events farther out are still accepted — they take the overflow path.
    #[must_use]
    pub fn with_horizon(horizon: u64) -> Self {
        let size = horizon.next_power_of_two().max(64) as usize;
        EventWheel {
            buckets: (0..size).map(|_| Vec::new()).collect(),
            occupied: vec![0; size / 64],
            mask: size as u64 - 1,
            next_cycle: 0,
            overflow: BinaryHeap::new(),
            overflow_seq: 0,
            len: 0,
        }
    }

    #[inline]
    fn mark_occupied(&mut self, bucket: usize) {
        self.occupied[bucket / 64] |= 1u64 << (bucket % 64);
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bucket count (fast-path horizon in cycles).
    #[must_use]
    pub fn horizon(&self) -> u64 {
        self.buckets.len() as u64
    }

    /// Schedules `item` for cycle `due`. Events due in the past (already
    /// drained cycles) fire at the next drain, matching the behaviour of a
    /// heap popped with a `cycle <= now` condition.
    pub fn push(&mut self, due: u64, item: T) {
        let due = due.max(self.next_cycle);
        if due - self.next_cycle < self.horizon() {
            let bucket = (due & self.mask) as usize;
            self.buckets[bucket].push(item);
            self.mark_occupied(bucket);
        } else {
            let seq = self.overflow_seq;
            self.overflow_seq += 1;
            self.overflow.push(Reverse(Parked { due, seq, item }));
        }
        self.len += 1;
    }

    /// Delivers every event due at or before `now` to `f`.
    ///
    /// Cycles must be drained consecutively (each call with `now` equal to
    /// the previous `now + 1`) unless the wheel is empty, in which case the
    /// wheel may jump forward.
    pub fn drain_due<F: FnMut(T)>(&mut self, now: u64, mut f: F) {
        debug_assert!(
            now == self.next_cycle || (self.len == 0 && now >= self.next_cycle),
            "event wheel drained out of order: now={now}, expected {}",
            self.next_cycle
        );
        // Fast paths: this runs once per simulated cycle per wheel, and on
        // most cycles nothing is due — advancing the clock is the only
        // effect. One occupancy-word load answers "is anything due at
        // `now`?" without touching the bucket, as long as no overflow
        // event might be waiting to fire or promote.
        let index = (now & self.mask) as usize;
        if self.len == 0
            || (self.overflow.is_empty() && self.occupied[index / 64] & (1 << (index % 64)) == 0)
        {
            self.next_cycle = now + 1;
            return;
        }
        self.next_cycle = now + 1;
        // Overflow first: these events were scheduled earliest-horizon and
        // the order (overflow by insertion, then bucket by insertion) is
        // deterministic.
        while let Some(Reverse(parked)) = self.overflow.peek() {
            if parked.due > now {
                break;
            }
            let Reverse(parked) = self.overflow.pop().expect("peeked entry exists");
            self.len -= 1;
            f(parked.item);
        }
        let index = (now & self.mask) as usize;
        self.occupied[index / 64] &= !(1u64 << (index % 64));
        let bucket = &mut self.buckets[index];
        self.len -= bucket.len();
        for item in bucket.drain(..) {
            f(item);
        }
        // Promote overflow events that fit in the window uncovered by
        // advancing one cycle (the slot `now + horizon` is now free).
        let promote_limit = self.next_cycle + self.horizon();
        while let Some(Reverse(parked)) = self.overflow.peek() {
            if parked.due >= promote_limit {
                break;
            }
            let Reverse(parked) = self.overflow.pop().expect("peeked entry exists");
            let bucket = (parked.due & self.mask) as usize;
            self.buckets[bucket].push(parked.item);
            self.mark_occupied(bucket);
        }
    }

    /// Removes every pending event.
    pub fn clear(&mut self) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.occupied.fill(0);
        self.overflow.clear();
        self.len = 0;
    }

    /// The earliest pending due cycle strictly below `limit`, or `None` if
    /// no event fires before `limit`. Only cycles from the next undrained
    /// cycle onwards are considered (everything earlier has already fired).
    #[must_use]
    pub fn next_due_before(&self, limit: u64) -> Option<u64> {
        let mut best = self.next_occupied_before(limit);
        if let Some(Reverse(parked)) = self.overflow.peek() {
            if parked.due < limit && best.is_none_or(|b| parked.due < b) {
                best = Some(parked.due);
            }
        }
        best
    }

    /// The earliest non-empty *bucket* cycle in `[next_cycle, limit)`,
    /// found by scanning the occupancy bitmap a word (64 buckets) at a
    /// time. Every pending bucket event lives in
    /// `[next_cycle, next_cycle + horizon)`, so bucket indices map back to
    /// cycles uniquely within the scan window.
    fn next_occupied_before(&self, limit: u64) -> Option<u64> {
        let scan_end = limit.min(self.next_cycle + self.horizon());
        if scan_end <= self.next_cycle || self.len == self.overflow.len() {
            return None;
        }
        let span = scan_end - self.next_cycle;
        let words = self.occupied.len();
        let start = (self.next_cycle & self.mask) as usize;
        let mut checked = 0u64;
        let (mut word, mut bit) = (start / 64, (start % 64) as u64);
        while checked < span {
            let w = self.occupied[word] >> bit;
            if w != 0 {
                let offset = u64::from(w.trailing_zeros());
                return (checked + offset < span).then_some(self.next_cycle + checked + offset);
            }
            checked += 64 - bit;
            word = (word + 1) % words;
            bit = 0;
        }
        None
    }

    /// Advances the wheel to `target` without draining, asserting (in debug
    /// builds) that no event is pending before it. Used by the simulator's
    /// stall fast-forward, which has already proven the skipped cycles
    /// cannot fire anything.
    pub fn skip_to(&mut self, target: u64) {
        debug_assert!(
            target >= self.next_cycle,
            "event wheel cannot skip backwards"
        );
        debug_assert!(
            self.next_due_before(target).is_none(),
            "event wheel skip would jump over pending events"
        );
        self.next_cycle = target;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(w: &mut EventWheel<u32>, now: u64) -> Vec<u32> {
        let mut out = Vec::new();
        w.drain_due(now, |x| out.push(x));
        out
    }

    #[test]
    fn events_fire_at_their_cycle() {
        let mut w: EventWheel<u32> = EventWheel::with_horizon(8);
        w.push(2, 20);
        w.push(1, 10);
        w.push(2, 21);
        assert_eq!(w.len(), 3);
        assert_eq!(drain_all(&mut w, 0), Vec::<u32>::new());
        assert_eq!(drain_all(&mut w, 1), vec![10]);
        assert_eq!(drain_all(&mut w, 2), vec![20, 21]);
        assert!(w.is_empty());
    }

    #[test]
    fn horizon_rounds_up_to_power_of_two() {
        let w: EventWheel<u32> = EventWheel::with_horizon(100);
        assert_eq!(w.horizon(), 128);
        let tiny: EventWheel<u32> = EventWheel::with_horizon(1);
        assert_eq!(tiny.horizon(), 64);
    }

    #[test]
    fn far_future_events_take_the_overflow_path_and_still_fire() {
        let mut w: EventWheel<u32> = EventWheel::with_horizon(64);
        w.push(1000, 99);
        w.push(3, 3);
        for now in 0..1000 {
            let fired = drain_all(&mut w, now);
            if now == 3 {
                assert_eq!(fired, vec![3]);
            } else {
                assert!(fired.is_empty(), "unexpected event at cycle {now}");
            }
        }
        assert_eq!(drain_all(&mut w, 1000), vec![99]);
        assert!(w.is_empty());
    }

    #[test]
    fn past_due_events_fire_at_next_drain() {
        let mut w: EventWheel<u32> = EventWheel::with_horizon(8);
        drain_all(&mut w, 0);
        drain_all(&mut w, 1);
        w.push(0, 7); // already-drained cycle: clamps forward
        assert_eq!(drain_all(&mut w, 2), vec![7]);
    }

    #[test]
    fn empty_wheel_may_jump_forward() {
        let mut w: EventWheel<u32> = EventWheel::with_horizon(8);
        drain_all(&mut w, 0);
        assert_eq!(drain_all(&mut w, 100), Vec::<u32>::new());
        w.push(101, 1);
        assert_eq!(drain_all(&mut w, 101), vec![1]);
    }

    #[test]
    fn clear_removes_everything() {
        let mut w: EventWheel<u32> = EventWheel::with_horizon(8);
        w.push(1, 1);
        w.push(500, 2);
        w.clear();
        assert!(w.is_empty());
        assert_eq!(drain_all(&mut w, 0), Vec::<u32>::new());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The wheel delivers exactly the same (cycle → multiset of events)
        /// schedule as a naive reference binary heap, for any mix of
        /// in-horizon and overflow deltas.
        #[test]
        fn wheel_matches_naive_heap_reference(
            pushes in prop::collection::vec((0u64..20, 0u64..200, 0u32..1000), 1..150),
            horizon in 1u64..70,
        ) {
            let mut wheel: EventWheel<u32> = EventWheel::with_horizon(horizon);
            // Naive reference: (due, value) pairs popped when due <= now.
            let mut naive: Vec<(u64, u32)> = Vec::new();
            let mut now = 0u64;
            for (advance, delta, value) in pushes {
                // Drain up to the new cycle, comparing sorted multisets.
                for _ in 0..advance {
                    let mut fired = Vec::new();
                    wheel.drain_due(now, |x| fired.push(x));
                    let mut expected: Vec<u32> = naive
                        .iter()
                        .filter(|(due, _)| *due <= now)
                        .map(|(_, v)| *v)
                        .collect();
                    naive.retain(|(due, _)| *due > now);
                    fired.sort_unstable();
                    expected.sort_unstable();
                    prop_assert_eq!(fired, expected);
                    now += 1;
                }
                let due = (now + delta).max(now);
                wheel.push(due, value);
                naive.push((due, value));
                prop_assert_eq!(wheel.len(), naive.len());
            }
            // Drain the tail.
            while !naive.is_empty() {
                let mut fired = Vec::new();
                wheel.drain_due(now, |x| fired.push(x));
                let mut expected: Vec<u32> = naive
                    .iter()
                    .filter(|(due, _)| *due <= now)
                    .map(|(_, v)| *v)
                    .collect();
                naive.retain(|(due, _)| *due > now);
                fired.sort_unstable();
                expected.sort_unstable();
                prop_assert_eq!(fired, expected);
                now += 1;
            }
            prop_assert!(wheel.is_empty());
        }
    }
}
