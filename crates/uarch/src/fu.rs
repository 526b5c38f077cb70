//! Functional unit pools.
//!
//! The paper's configuration has 4 AP functional units (1-cycle latency) and
//! 4 EP functional units (4-cycle latency), all general purpose within
//! their unit and shared by every thread.
//!
//! Every unit is pipelined: it accepts one new operation per cycle
//! regardless of latency. Occupancy is therefore a single
//! `(cycle, issued_this_cycle)` pair instead of a per-unit `next_accept`
//! array scanned on every issue attempt (the simulator probes the pools
//! several times per cycle). That pair requires the issue stream to be
//! non-decreasing in cycle, which the cycle-by-cycle simulator guarantees;
//! this is asserted in debug builds.

/// A pool of identical pipelined functional units.
#[derive(Debug, Clone)]
pub struct FuPool {
    count: usize,
    latency: u64,
    /// The cycle of the most recent issue...
    last_issue_cycle: u64,
    /// ...and how many operations were issued in that cycle.
    issued_this_cycle: usize,
}

impl FuPool {
    /// Creates a pool of `count` units with the given `latency`.
    ///
    /// # Panics
    ///
    /// Panics if `count` or `latency` is zero.
    #[must_use]
    pub fn new(count: usize, latency: u64) -> Self {
        assert!(
            count > 0,
            "functional unit pool must have at least one unit"
        );
        assert!(latency > 0, "functional unit latency must be non-zero");
        FuPool {
            count,
            latency,
            last_issue_cycle: 0,
            issued_this_cycle: 0,
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

    /// Number of operations that could still be issued to this pool at
    /// `cycle` (units whose initiation interval has elapsed).
    ///
    /// `cycle` must not precede the most recent issue.
    #[must_use]
    pub fn available(&self, cycle: u64) -> usize {
        debug_assert!(
            cycle >= self.last_issue_cycle,
            "FuPool cycles must be non-decreasing"
        );
        if cycle > self.last_issue_cycle {
            self.count
        } else {
            self.count - self.issued_this_cycle
        }
    }

    /// Attempts to issue one operation at `cycle` (cycles must be
    /// non-decreasing across calls). On success returns the cycle at which
    /// the result is available.
    pub fn try_issue(&mut self, cycle: u64) -> Option<u64> {
        debug_assert!(
            cycle >= self.last_issue_cycle,
            "FuPool cycles must be non-decreasing"
        );
        if cycle > self.last_issue_cycle {
            self.last_issue_cycle = cycle;
            self.issued_this_cycle = 0;
        }
        if self.issued_this_cycle >= self.count {
            return None;
        }
        self.issued_this_cycle += 1;
        Some(cycle + self.latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_pools_construct() {
        let ap = FuPool::new(4, 1);
        let ep = FuPool::new(4, 4);
        assert_eq!(ap.count(), 4);
        assert_eq!(ap.latency(), 1);
        assert_eq!(ep.latency(), 4);
    }

    #[test]
    fn issue_returns_completion_cycle() {
        let mut ep = FuPool::new(4, 4);
        assert_eq!(ep.try_issue(10), Some(14));
    }

    #[test]
    fn per_cycle_issue_limit() {
        let mut ap = FuPool::new(2, 1);
        assert!(ap.try_issue(0).is_some());
        assert!(ap.try_issue(0).is_some());
        assert!(ap.try_issue(0).is_none(), "only 2 units");
        assert!(ap.try_issue(1).is_some(), "next cycle they are free again");
    }

    #[test]
    fn pipelined_units_accept_every_cycle() {
        let mut ep = FuPool::new(1, 4);
        assert_eq!(ep.try_issue(0), Some(4));
        assert_eq!(ep.try_issue(1), Some(5));
        assert_eq!(ep.try_issue(2), Some(6));
    }

    #[test]
    fn available_counts_free_units() {
        let mut ap = FuPool::new(4, 1);
        assert_eq!(ap.available(0), 4);
        ap.try_issue(0);
        ap.try_issue(0);
        assert_eq!(ap.available(0), 2);
        assert_eq!(ap.available(1), 4);
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn zero_units_panics() {
        let _ = FuPool::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "latency must be non-zero")]
    fn zero_latency_panics() {
        let _ = FuPool::new(1, 0);
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
    }

    impl NaivePool {
        fn try_issue(&mut self, cycle: u64) -> Option<u64> {
            let unit = self.next_accept.iter().position(|&next| next <= cycle)?;
            self.next_accept[unit] = cycle + 1;
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
            let mut pool = FuPool::new(count, latency);
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
        /// monotone issue stream.
        #[test]
        fn counters_match_naive_scan(
            count in 1usize..6,
            latency in 1u64..8,
            deltas in prop::collection::vec(0u64..4, 1..200),
        ) {
            let mut pool = FuPool::new(count, latency);
            let mut naive = NaivePool {
                next_accept: vec![0; count],
                latency,
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
