//! The L1–L2 bus: a fixed-bandwidth, in-order transfer channel.
//!
//! The paper uses a 128-bit bus moving 16 bytes per cycle between the on-chip
//! L1 and the off-chip L2. When many threads miss concurrently the bus
//! saturates — Figure 5 reports 89% utilisation with 12 non-decoupled
//! threads and 98% with 16 at a 64-cycle L2 latency — so modelling queueing
//! and utilisation is essential to reproduce that result.

use serde::{Deserialize, Serialize};

/// A simple bandwidth-limited bus with FIFO queueing.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Bus {
    bytes_per_cycle: u64,
    /// First cycle at which the bus is free to start a new transfer.
    next_free: u64,
    /// Total number of cycles the bus has spent transferring data.
    busy_cycles: u64,
    /// Total number of transfers performed.
    transfers: u64,
    /// Total bytes moved.
    bytes_moved: u64,
    /// Total cycles transfers spent waiting for the bus to become free.
    queueing_cycles: u64,
}

impl Bus {
    /// Creates an idle bus with the given bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_cycle` is zero.
    #[must_use]
    pub fn new(bytes_per_cycle: u64) -> Self {
        assert!(bytes_per_cycle > 0, "bus bandwidth must be non-zero");
        Bus {
            bytes_per_cycle,
            next_free: 0,
            busy_cycles: 0,
            transfers: 0,
            bytes_moved: 0,
            queueing_cycles: 0,
        }
    }

    /// The configured bandwidth in bytes per cycle.
    #[must_use]
    pub fn bytes_per_cycle(&self) -> u64 {
        self.bytes_per_cycle
    }

    /// Schedules a transfer of `bytes` that becomes *eligible* at
    /// `earliest_start` and returns the cycle at which the transfer
    /// completes. Transfers are granted in request order (FIFO).
    pub fn schedule_transfer(&mut self, earliest_start: u64, bytes: u64) -> u64 {
        let duration = bytes.div_ceil(self.bytes_per_cycle).max(1);
        let start = earliest_start.max(self.next_free);
        self.queueing_cycles += start - earliest_start;
        let done = start + duration;
        self.next_free = done;
        self.busy_cycles += duration;
        self.transfers += 1;
        self.bytes_moved += bytes;
        done
    }

    /// Total cycles spent actively transferring.
    #[must_use]
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Total number of transfers granted.
    #[must_use]
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Total bytes moved.
    #[must_use]
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// Total cycles transfers spent queueing behind earlier transfers.
    #[must_use]
    pub fn queueing_cycles(&self) -> u64 {
        self.queueing_cycles
    }

    /// Bus utilisation over a run of `total_cycles` cycles, in `[0, 1]`.
    ///
    /// This is the metric the paper quotes for Figure 5 ("the average bus
    /// utilization is 89% for 12 threads, and 98% for 16 threads").
    #[must_use]
    pub fn utilization(&self, total_cycles: u64) -> f64 {
        if total_cycles == 0 {
            0.0
        } else {
            (self.busy_cycles.min(total_cycles)) as f64 / total_cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_transfer_timing() {
        let mut bus = Bus::new(16);
        // 32-byte line at 16 B/cycle = 2 cycles, starting at cycle 10.
        let done = bus.schedule_transfer(10, 32);
        assert_eq!(done, 12);
        assert_eq!(bus.busy_cycles(), 2);
        assert_eq!(bus.transfers(), 1);
        assert_eq!(bus.bytes_moved(), 32);
        assert_eq!(bus.queueing_cycles(), 0);
    }

    #[test]
    fn back_to_back_transfers_queue() {
        let mut bus = Bus::new(16);
        let a = bus.schedule_transfer(0, 32); // 0..2
        let b = bus.schedule_transfer(0, 32); // queued: 2..4
        let c = bus.schedule_transfer(1, 32); // queued: 4..6
        assert_eq!(a, 2);
        assert_eq!(b, 4);
        assert_eq!(c, 6);
        assert_eq!(bus.busy_cycles(), 6);
        assert_eq!(bus.queueing_cycles(), 2 + 3);
    }

    #[test]
    fn gap_leaves_bus_idle() {
        let mut bus = Bus::new(16);
        bus.schedule_transfer(0, 32);
        let done = bus.schedule_transfer(100, 32);
        assert_eq!(done, 102);
        assert_eq!(bus.busy_cycles(), 4);
        assert_eq!(bus.utilization(102), 4.0 / 102.0);
    }

    #[test]
    fn small_transfer_takes_at_least_one_cycle() {
        let mut bus = Bus::new(16);
        let done = bus.schedule_transfer(0, 4);
        assert_eq!(done, 1);
    }

    #[test]
    fn utilization_saturates_at_one() {
        let mut bus = Bus::new(16);
        for _ in 0..100 {
            bus.schedule_transfer(0, 32);
        }
        assert!(bus.utilization(200) <= 1.0);
        assert!((bus.utilization(200) - 1.0).abs() < 1e-12);
        assert_eq!(bus.utilization(0), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_bandwidth_panics() {
        let _ = Bus::new(0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Transfers never overlap: each completes no earlier than
        /// its start, starts no earlier than requested, and the bus's busy
        /// time never exceeds the time span it has been asked to cover.
        #[test]
        fn transfers_are_serialized(
            reqs in prop::collection::vec((0u64..1000, 1u64..256), 1..50)
        ) {
            let mut bus = Bus::new(16);
            let mut prev_done = 0u64;
            let mut max_done = 0u64;
            for &(start, bytes) in &reqs {
                let done = bus.schedule_transfer(start, bytes);
                prop_assert!(done > start);
                prop_assert!(done >= prev_done);
                prev_done = done;
                max_done = max_done.max(done);
            }
            prop_assert!(bus.busy_cycles() <= max_done);
            prop_assert!((0.0..=1.0).contains(&bus.utilization(max_done)));
        }
    }
}
