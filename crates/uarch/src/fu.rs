//! Functional unit pools.
//!
//! The paper's configuration has 4 AP functional units (1-cycle latency) and
//! 4 EP functional units (4-cycle latency), all general purpose within
//! their unit and shared by every thread.
//!
//! Occupancy is tracked with O(1) counters instead of scanning a
//! per-unit `next_accept` array on every issue attempt (the simulator
//! probes the pools several times per cycle):
//!
//! * **pipelined** units accept one operation per cycle each, so a single
//!   `(cycle, issued_this_cycle)` pair fully describes availability;
//! * **non-pipelined** units are busy for the whole latency, so a FIFO of
//!   release cycles (monotone, because issue cycles are monotone and the
//!   latency is constant) gives O(1) amortised issue and O(log n) probes.
//!
//! Both representations require the issue stream to be non-decreasing in
//! cycle, which the cycle-by-cycle simulator guarantees; this is asserted
//! in debug builds.

use std::collections::VecDeque;

/// A pool of identical functional units.
///
/// Pipelined units accept one new operation per cycle regardless of latency;
/// non-pipelined units are busy for the whole latency of the operation.
#[derive(Debug, Clone)]
pub struct FuPool {
    count: usize,
    latency: u64,
    pipelined: bool,
    /// Pipelined pools: the cycle of the most recent issue...
    last_issue_cycle: u64,
    /// ...and how many operations were issued in that cycle.
    issued_this_cycle: usize,
    /// Non-pipelined pools: release cycles of busy units, oldest first.
    /// Monotone non-decreasing, so expiry is a pop from the front.
    busy_until: VecDeque<u64>,
    /// Totals.
    total_issued: u64,
    busy_unit_cycles: u64,
}

impl FuPool {
    /// Creates a pool of `count` units with the given `latency`.
    ///
    /// # Panics
    ///
    /// Panics if `count` or `latency` is zero.
    #[must_use]
    pub fn new(count: usize, latency: u64, pipelined: bool) -> Self {
        assert!(
            count > 0,
            "functional unit pool must have at least one unit"
        );
        assert!(latency > 0, "functional unit latency must be non-zero");
        FuPool {
            count,
            latency,
            pipelined,
            last_issue_cycle: 0,
            issued_this_cycle: 0,
            busy_until: VecDeque::with_capacity(if pipelined { 0 } else { count }),
            total_issued: 0,
            busy_unit_cycles: 0,
        }
    }

    /// Number of units in the pool.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Operation latency in cycles.
    #[must_use]
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Number of operations issued to this pool in total.
    #[must_use]
    pub fn total_issued(&self) -> u64 {
        self.total_issued
    }

    /// Sum over units of cycles spent occupied by operation initiation
    /// (pipelined: one cycle per op; non-pipelined: `latency` per op).
    #[must_use]
    pub fn busy_unit_cycles(&self) -> u64 {
        self.busy_unit_cycles
    }

    /// Number of operations that could still be issued to this pool at
    /// `cycle` (units whose initiation interval has elapsed).
    ///
    /// `cycle` must not precede the most recent issue.
    #[must_use]
    pub fn available(&self, cycle: u64) -> usize {
        debug_assert!(
            cycle >= self.last_issue_cycle || self.total_issued == 0,
            "FuPool cycles must be non-decreasing"
        );
        if self.pipelined {
            if cycle > self.last_issue_cycle {
                self.count
            } else {
                self.count - self.issued_this_cycle
            }
        } else {
            // Busy units are those whose release cycle lies in the future;
            // the deque is sorted, so count them with a binary search.
            let expired = self.busy_until.partition_point(|&r| r <= cycle);
            self.count - (self.busy_until.len() - expired)
        }
    }

    /// Attempts to issue one operation at `cycle` (cycles must be
    /// non-decreasing across calls). On success returns the cycle at which
    /// the result is available.
    pub fn try_issue(&mut self, cycle: u64) -> Option<u64> {
        debug_assert!(
            cycle >= self.last_issue_cycle || self.total_issued == 0,
            "FuPool cycles must be non-decreasing"
        );
        if self.pipelined {
            if cycle > self.last_issue_cycle {
                self.last_issue_cycle = cycle;
                self.issued_this_cycle = 0;
            }
            if self.issued_this_cycle >= self.count {
                return None;
            }
            self.issued_this_cycle += 1;
            self.busy_unit_cycles += 1;
        } else {
            while self.busy_until.front().is_some_and(|&r| r <= cycle) {
                self.busy_until.pop_front();
            }
            if self.busy_until.len() >= self.count {
                return None;
            }
            self.busy_until.push_back(cycle + self.latency);
            self.last_issue_cycle = cycle;
            self.busy_unit_cycles += self.latency;
        }
        self.total_issued += 1;
        Some(cycle + self.latency)
    }

    /// Utilisation of the pool over `total_cycles`: busy unit-cycles divided
    /// by available unit-cycles.
    #[must_use]
    pub fn utilization(&self, total_cycles: u64) -> f64 {
        if total_cycles == 0 {
            return 0.0;
        }
        let capacity = total_cycles * self.count as u64;
        (self.busy_unit_cycles as f64 / capacity as f64).min(1.0)
    }

    /// Resets scheduling state and statistics.
    pub fn reset(&mut self) {
        self.last_issue_cycle = 0;
        self.issued_this_cycle = 0;
        self.busy_until.clear();
        self.total_issued = 0;
        self.busy_unit_cycles = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_pools_construct() {
        let ap = FuPool::new(4, 1, true);
        let ep = FuPool::new(4, 4, true);
        assert_eq!(ap.count(), 4);
        assert_eq!(ap.latency(), 1);
        assert_eq!(ep.latency(), 4);
    }

    #[test]
    fn issue_returns_completion_cycle() {
        let mut ep = FuPool::new(4, 4, true);
        assert_eq!(ep.try_issue(10), Some(14));
    }

    #[test]
    fn per_cycle_issue_limit() {
        let mut ap = FuPool::new(2, 1, true);
        assert!(ap.try_issue(0).is_some());
        assert!(ap.try_issue(0).is_some());
        assert!(ap.try_issue(0).is_none(), "only 2 units");
        assert!(ap.try_issue(1).is_some(), "next cycle they are free again");
    }

    #[test]
    fn pipelined_units_accept_every_cycle() {
        let mut ep = FuPool::new(1, 4, true);
        assert_eq!(ep.try_issue(0), Some(4));
        assert_eq!(ep.try_issue(1), Some(5));
        assert_eq!(ep.try_issue(2), Some(6));
    }

    #[test]
    fn non_pipelined_units_block_for_latency() {
        let mut div = FuPool::new(1, 4, false);
        assert_eq!(div.try_issue(0), Some(4));
        assert!(div.try_issue(1).is_none());
        assert!(div.try_issue(3).is_none());
        assert_eq!(div.try_issue(4), Some(8));
    }

    #[test]
    fn available_counts_free_units() {
        let mut ap = FuPool::new(4, 1, true);
        assert_eq!(ap.available(0), 4);
        ap.try_issue(0);
        ap.try_issue(0);
        assert_eq!(ap.available(0), 2);
        assert_eq!(ap.available(1), 4);
    }

    #[test]
    fn available_counts_non_pipelined_busy_units() {
        let mut div = FuPool::new(3, 4, false);
        assert_eq!(div.available(0), 3);
        div.try_issue(0);
        div.try_issue(0);
        assert_eq!(div.available(0), 1);
        assert_eq!(div.available(3), 1);
        assert_eq!(div.available(4), 3, "both ops release at cycle 4");
    }

    #[test]
    fn utilization_accumulates() {
        let mut ap = FuPool::new(2, 1, true);
        for c in 0..10u64 {
            ap.try_issue(c);
        }
        // 10 busy unit-cycles out of 2 units * 10 cycles.
        assert!((ap.utilization(10) - 0.5).abs() < 1e-12);
        assert_eq!(ap.total_issued(), 10);
        assert_eq!(ap.utilization(0), 0.0);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut ap = FuPool::new(1, 1, true);
        ap.try_issue(0);
        ap.reset();
        assert_eq!(ap.total_issued(), 0);
        assert_eq!(ap.available(0), 1);
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn zero_units_panics() {
        let _ = FuPool::new(0, 1, true);
    }

    #[test]
    #[should_panic(expected = "latency must be non-zero")]
    fn zero_latency_panics() {
        let _ = FuPool::new(1, 0, true);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Naive reference: the pre-counter implementation scanning a per-unit
    /// `next_accept` array.
    struct NaivePool {
        next_accept: Vec<u64>,
        latency: u64,
        pipelined: bool,
    }

    impl NaivePool {
        fn try_issue(&mut self, cycle: u64) -> Option<u64> {
            let unit = self.next_accept.iter().position(|&next| next <= cycle)?;
            self.next_accept[unit] = if self.pipelined {
                cycle + 1
            } else {
                cycle + self.latency
            };
            Some(cycle + self.latency)
        }

        fn available(&self, cycle: u64) -> usize {
            self.next_accept.iter().filter(|&&n| n <= cycle).count()
        }
    }

    proptest! {
        /// Never more than `count` issues in a single cycle, and completion
        /// times always equal issue time + latency.
        #[test]
        fn issue_limits_hold(
            count in 1usize..6,
            latency in 1u64..8,
            attempts in prop::collection::vec(0u64..50, 1..200),
        ) {
            let mut pool = FuPool::new(count, latency, true);
            let mut sorted = attempts.clone();
            sorted.sort_unstable();
            let mut per_cycle = std::collections::HashMap::new();
            for cycle in sorted {
                if let Some(done) = pool.try_issue(cycle) {
                    prop_assert_eq!(done, cycle + latency);
                    *per_cycle.entry(cycle).or_insert(0usize) += 1;
                }
            }
            for (_, n) in per_cycle {
                prop_assert!(n <= count);
            }
        }

        /// The O(1) counters agree with the naive scan-based pool on every
        /// monotone issue stream, pipelined or not.
        #[test]
        fn counters_match_naive_scan(
            count in 1usize..6,
            latency in 1u64..8,
            pipelined in prop::bool::ANY,
            deltas in prop::collection::vec(0u64..4, 1..200),
        ) {
            let mut pool = FuPool::new(count, latency, pipelined);
            let mut naive = NaivePool {
                next_accept: vec![0; count],
                latency,
                pipelined,
            };
            let mut cycle = 0u64;
            for d in deltas {
                cycle += d;
                prop_assert_eq!(pool.available(cycle), naive.available(cycle));
                prop_assert_eq!(pool.try_issue(cycle), naive.try_issue(cycle));
            }
        }
    }
}
