//! The memory-system facade used by the processor core.

use crate::{Bus, Cache, MemConfig, MemStats, MshrFile};

/// The kind of data-cache access being performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load (read).
    Load,
    /// A store (write).
    Store,
}

impl AccessKind {
    /// Whether this is a store.
    #[must_use]
    pub fn is_store(&self) -> bool {
        matches!(self, AccessKind::Store)
    }
}

/// The response to a data-cache access attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessResponse {
    /// The access was accepted.
    Done {
        /// Whether the access was satisfied without allocating a new
        /// outstanding miss. This includes *delayed hits* that merge into an
        /// in-flight fill: they are counted as hits (they generate no new L2
        /// traffic) but their `ready_cycle` reflects the pending fill, not
        /// the hit latency.
        hit: bool,
        /// Cycle at which the data is available to dependent instructions
        /// (hit latency for plain hits; fill completion for misses and
        /// delayed hits).
        ready_cycle: u64,
    },
    /// All D-cache ports are already used this cycle; retry next cycle.
    NoPort,
    /// The access misses but every MSHR is busy; retry later.
    NoMshr,
}

impl AccessResponse {
    /// Whether the access was accepted this cycle.
    #[must_use]
    pub fn is_done(&self) -> bool {
        matches!(self, AccessResponse::Done { .. })
    }
}

/// The complete L1D + MSHR + bus + L2 model.
///
/// Timing model for a miss accepted at cycle `c`:
///
/// 1. the request spends `l1.hit_latency` cycles detecting the miss;
/// 2. the L2 (infinite, multibanked) produces the line `l2_latency` cycles
///    later;
/// 3. the 32-byte line is transferred over the shared bus at
///    `bus_bytes_per_cycle`, queueing FIFO behind earlier transfers
///    (including write-backs of dirty victims);
/// 4. the data is ready when the transfer completes, and the MSHR entry is
///    released at that point.
#[derive(Debug)]
pub struct MemorySystem {
    config: MemConfig,
    l1d: Cache,
    mshrs: MshrFile,
    bus: Bus,
    stats: MemStats,
    ports_used: usize,
    current_cycle: u64,
}

impl MemorySystem {
    /// Creates a memory system from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`MemConfig::validate`]).
    #[must_use]
    pub fn new(config: MemConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid memory config: {e}"));
        MemorySystem {
            l1d: Cache::new(config.l1d),
            mshrs: MshrFile::new(config.l1d.mshrs),
            bus: Bus::new(config.bus_bytes_per_cycle),
            stats: MemStats::default(),
            ports_used: 0,
            current_cycle: 0,
            config,
        }
    }

    /// The configuration this memory system was built with.
    #[must_use]
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// Starts a new cycle: releases the per-cycle port budget and retires
    /// MSHR entries whose fills completed.
    pub fn begin_cycle(&mut self, cycle: u64) {
        self.current_cycle = cycle;
        self.ports_used = 0;
        self.mshrs.retire_completed(cycle);
    }

    /// Number of D-cache ports still available this cycle.
    #[must_use]
    pub fn free_ports(&self) -> usize {
        self.config.l1d.ports.saturating_sub(self.ports_used)
    }

    /// Attempts a data-cache access at `cycle` for the byte address `addr`.
    ///
    /// Consumes one D-cache port on success; a refused access consumes
    /// none. Ports are checked before MSHRs. Misses allocate an MSHR,
    /// schedule the L2 access and the line fill over the bus, and account
    /// write-back traffic for dirty victims.
    pub fn try_access(&mut self, cycle: u64, addr: u64, kind: AccessKind) -> AccessResponse {
        debug_assert_eq!(
            cycle, self.current_cycle,
            "begin_cycle must be called for each simulated cycle"
        );
        if self.ports_used >= self.config.l1d.ports {
            self.stats.port_rejections += 1;
            return AccessResponse::NoPort;
        }

        let line_addr = self.l1d.line_addr(addr);
        let is_store = kind.is_store();
        let hit_latency = self.config.l1d.hit_latency;

        // A line that is still being filled is a *delayed hit*: the tag may
        // already be installed, but the data is not available until the fill
        // completes. Such accesses merge with the outstanding MSHR entry:
        // they count as hits (no new L2 traffic) but see the fill latency.
        if let Some(pending_ready) = self.mshrs.lookup(line_addr) {
            self.ports_used += 1;
            self.stats.mshr_merges += 1;
            self.record_access(kind, true);
            let _ = self.l1d.access(addr, is_store); // keep LRU / dirty state coherent
            return AccessResponse::Done {
                hit: true,
                ready_cycle: pending_ready.max(cycle + hit_latency),
            };
        }

        // If this would miss and every MSHR is busy, reject before touching
        // cache state so the retry behaves identically.
        if self.mshrs.is_full() && !self.l1d.probe(addr) {
            self.stats.mshr_full_rejections += 1;
            return AccessResponse::NoMshr;
        }

        self.ports_used += 1;
        let access = self.l1d.access(addr, is_store);
        self.record_access(kind, access.hit);

        if access.hit {
            return AccessResponse::Done {
                hit: true,
                ready_cycle: cycle + hit_latency,
            };
        }

        // Miss path: write-back the dirty victim first (it occupies the bus
        // ahead of the fill in this simple in-order bus model).
        if self.config.write_back && access.evicted_dirty_line.is_some() {
            self.bus
                .schedule_transfer(cycle + hit_latency, self.config.l1d.line_bytes as u64);
            self.stats.writebacks += 1;
        }

        // L2 access starts after the miss is detected; the line then crosses
        // the bus. The line is not outstanding and a free entry exists (both
        // checked above), so the entry is allocated with its fill time.
        let l2_data_ready = cycle + hit_latency + self.config.l2_latency;
        let ready_cycle = self
            .bus
            .schedule_transfer(l2_data_ready, self.config.l1d.line_bytes as u64);
        self.mshrs.allocate(line_addr, ready_cycle);

        AccessResponse::Done {
            hit: false,
            ready_cycle,
        }
    }

    /// If an access to `addr` this cycle would be refused with
    /// [`AccessResponse::NoMshr`], the first cycle at which it may not be:
    /// the oldest outstanding fill's completion. Until then no primary miss
    /// can allocate, so while no other access is accepted the L1 and the
    /// MSHRs stay as they are and the refusal repeats every cycle.
    #[must_use]
    pub fn mshr_wait(&self, addr: u64) -> Option<u64> {
        let refused = self.mshrs.is_full()
            && self.mshrs.lookup(self.l1d.line_addr(addr)).is_none()
            && !self.l1d.probe(addr);
        refused.then(|| {
            self.mshrs
                .next_release()
                .expect("a full MSHR file has an entry")
        })
    }

    /// Counts `n` refusals for want of an MSHR without presenting the
    /// accesses: the replay of refusals that [`mshr_wait`](Self::mshr_wait)
    /// proved would repeat.
    pub fn replay_mshr_rejections(&mut self, n: u64) {
        self.stats.mshr_full_rejections += n;
    }

    fn record_access(&mut self, kind: AccessKind, hit: bool) {
        match (kind, hit) {
            (AccessKind::Load, true) => self.stats.load_hits += 1,
            (AccessKind::Load, false) => self.stats.load_misses += 1,
            (AccessKind::Store, true) => self.stats.store_hits += 1,
            (AccessKind::Store, false) => self.stats.store_misses += 1,
        }
    }

    /// Accumulated statistics (bus counters are folded in on the fly).
    #[must_use]
    pub fn stats(&self) -> MemStats {
        let mut s = self.stats;
        s.bus_busy_cycles = self.bus.busy_cycles();
        s.bus_transfers = self.bus.transfers();
        s.bus_bytes = self.bus.bytes_moved();
        s
    }

    /// Current number of outstanding misses.
    #[must_use]
    pub fn outstanding_misses(&self) -> usize {
        self.mshrs.occupancy()
    }

    /// External bus utilisation over `total_cycles`.
    #[must_use]
    pub fn bus_utilization(&self, total_cycles: u64) -> f64 {
        self.bus.utilization(total_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CacheConfig;

    fn small_system(l2_latency: u64) -> MemorySystem {
        MemorySystem::new(MemConfig {
            l1d: CacheConfig {
                size_bytes: 1024,
                line_bytes: 32,
                associativity: 1,
                ports: 2,
                mshrs: 2,
                hit_latency: 1,
            },
            l2_latency,
            bus_bytes_per_cycle: 16,
            write_back: true,
            write_allocate: true,
        })
    }

    #[test]
    fn cold_miss_pays_l2_and_bus() {
        let mut m = small_system(16);
        m.begin_cycle(0);
        match m.try_access(0, 0x100, AccessKind::Load) {
            AccessResponse::Done { hit, ready_cycle } => {
                assert!(!hit);
                // 1 (hit detect) + 16 (L2) + 2 (32B over 16B/cyc bus) = 19
                assert_eq!(ready_cycle, 19);
            }
            other => panic!("unexpected {other:?}"),
        }
        let s = m.stats();
        assert_eq!(s.load_misses, 1);
        assert_eq!(s.bus_transfers, 1);
        assert_eq!(s.bus_bytes, 32);
    }

    #[test]
    fn hit_after_fill() {
        let mut m = small_system(16);
        m.begin_cycle(0);
        m.try_access(0, 0x100, AccessKind::Load);
        m.begin_cycle(30);
        match m.try_access(30, 0x104, AccessKind::Load) {
            AccessResponse::Done { hit, ready_cycle } => {
                assert!(hit);
                assert_eq!(ready_cycle, 31);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn port_limit_enforced() {
        let mut m = small_system(16);
        m.begin_cycle(0);
        assert!(m.try_access(0, 0x0, AccessKind::Load).is_done());
        assert!(m.try_access(0, 0x1000, AccessKind::Load).is_done());
        assert_eq!(m.free_ports(), 0);
        assert_eq!(
            m.try_access(0, 0x2000, AccessKind::Load),
            AccessResponse::NoPort
        );
        // Next cycle the ports are free again; an access to an already
        // outstanding line is accepted even though the MSHRs are busy.
        m.begin_cycle(1);
        assert_eq!(m.free_ports(), 2);
        assert!(m.try_access(1, 0x8, AccessKind::Load).is_done());
        assert_eq!(m.stats().port_rejections, 1);
    }

    #[test]
    fn mshr_limit_enforced_and_merging_allowed() {
        let mut m = small_system(64);
        m.begin_cycle(0);
        assert!(m.try_access(0, 0x0, AccessKind::Load).is_done());
        assert!(m.try_access(0, 0x1000, AccessKind::Load).is_done());
        // Both MSHRs busy; a third distinct line must be rejected.
        m.begin_cycle(1);
        assert_eq!(
            m.try_access(1, 0x2000, AccessKind::Load),
            AccessResponse::NoMshr
        );
        // But another access to an outstanding line merges (a delayed hit
        // that sees the fill latency).
        match m.try_access(1, 0x8, AccessKind::Load) {
            AccessResponse::Done { hit, ready_cycle } => {
                assert!(hit);
                assert!(ready_cycle >= 64);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(m.stats().mshr_full_rejections, 1);
        assert!(m.stats().mshr_merges >= 1);
    }

    #[test]
    fn mshr_wait_bounds_a_refusal_by_the_oldest_fill() {
        let mut m = small_system(16);
        m.begin_cycle(0);
        assert_eq!(m.mshr_wait(0x2000), None, "a free MSHR refuses nothing");
        m.try_access(0, 0x0, AccessKind::Load); // fills at 19
        m.try_access(0, 0x1000, AccessKind::Load); // fills at 21
        m.begin_cycle(1);
        // A new line waits for the oldest fill; an outstanding line merges.
        assert_eq!(m.mshr_wait(0x2000), Some(19));
        assert_eq!(m.mshr_wait(0x8), None);
        for cycle in 1..19 {
            m.begin_cycle(cycle);
            assert_eq!(
                m.try_access(cycle, 0x2000, AccessKind::Load),
                AccessResponse::NoMshr
            );
        }
        m.begin_cycle(19);
        assert_eq!(m.mshr_wait(0x2000), None);
        assert!(m.try_access(19, 0x2000, AccessKind::Load).is_done());
        m.replay_mshr_rejections(5);
        assert_eq!(m.stats().mshr_full_rejections, 18 + 5);
    }

    #[test]
    fn mshrs_release_after_fill() {
        let mut m = small_system(16);
        m.begin_cycle(0);
        m.try_access(0, 0x0, AccessKind::Load);
        m.try_access(0, 0x1000, AccessKind::Load);
        // Fills complete by cycle 25; at cycle 30 new misses are accepted.
        m.begin_cycle(30);
        assert!(m.try_access(30, 0x2000, AccessKind::Load).is_done());
        assert_eq!(m.outstanding_misses(), 1);
    }

    #[test]
    fn secondary_miss_merges_without_new_bus_traffic() {
        let mut m = small_system(32);
        m.begin_cycle(0);
        m.try_access(0, 0x40, AccessKind::Load);
        let transfers_before = m.stats().bus_transfers;
        m.begin_cycle(1);
        match m.try_access(1, 0x48, AccessKind::Load) {
            AccessResponse::Done { hit, ready_cycle } => {
                // A delayed hit: counted as a hit, but the data only arrives
                // when the outstanding fill completes.
                assert!(hit);
                assert!(ready_cycle > 30);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(m.stats().bus_transfers, transfers_before);
        assert_eq!(m.stats().mshr_merges, 1);
        assert_eq!(m.stats().load_misses, 1, "only the primary miss counts");
        assert_eq!(m.stats().load_hits, 1);
    }

    #[test]
    fn dirty_eviction_generates_writeback_traffic() {
        let mut m = small_system(4);
        m.begin_cycle(0);
        m.try_access(0, 0x40, AccessKind::Store); // fill + dirty
        m.begin_cycle(100);
        // 1024-byte direct-mapped cache: 0x40 + 1024 conflicts with 0x40.
        m.try_access(100, 0x40 + 1024, AccessKind::Load);
        let s = m.stats();
        assert_eq!(s.writebacks, 1);
        assert_eq!(s.bus_transfers, 3); // store fill + writeback + load fill
    }

    #[test]
    fn bus_contention_delays_fills() {
        let mut m = small_system(16);
        m.begin_cycle(0);
        let r1 = m.try_access(0, 0x0, AccessKind::Load);
        let r2 = m.try_access(0, 0x1000, AccessKind::Load);
        let (c1, c2) = match (r1, r2) {
            (
                AccessResponse::Done { ready_cycle: a, .. },
                AccessResponse::Done { ready_cycle: b, .. },
            ) => (a, b),
            other => panic!("unexpected {other:?}"),
        };
        // Both L2 accesses complete at the same time, but the second line
        // must wait for the first to cross the bus.
        assert_eq!(c1, 19);
        assert_eq!(c2, 21);
    }

    #[test]
    fn stats_reflect_store_misses() {
        let mut m = small_system(16);
        m.begin_cycle(0);
        m.try_access(0, 0x0, AccessKind::Store);
        m.begin_cycle(40);
        m.try_access(40, 0x4, AccessKind::Store);
        let s = m.stats();
        assert_eq!(s.store_misses, 1);
        assert_eq!(s.store_hits, 1);
        assert!((s.store_miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn higher_l2_latency_delays_ready_cycle() {
        for lat in [1u64, 16, 64, 256] {
            let mut m = small_system(lat);
            m.begin_cycle(0);
            match m.try_access(0, 0x0, AccessKind::Load) {
                AccessResponse::Done { ready_cycle, .. } => {
                    assert_eq!(ready_cycle, 1 + lat + 2);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn paper_default_construction() {
        let m = MemorySystem::new(MemConfig::paper_default());
        assert_eq!(m.config().l2_latency, 16);
        assert_eq!(m.free_ports(), 4);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The memory system never hands back a ready cycle in the past, and
        /// its hit/miss counters always sum to the number of accepted accesses.
        #[test]
        fn ready_cycles_are_causal(
            addrs in prop::collection::vec((0u64..0x4000, prop::bool::ANY), 1..300),
            l2 in 1u64..128,
        ) {
            let mut m = MemorySystem::new(MemConfig::paper_default().with_l2_latency(l2));
            let mut accepted = 0u64;
            for (i, &(addr, is_store)) in addrs.iter().enumerate() {
                let cycle = i as u64;
                m.begin_cycle(cycle);
                let kind = if is_store { AccessKind::Store } else { AccessKind::Load };
                match m.try_access(cycle, addr, kind) {
                    AccessResponse::Done { ready_cycle, hit: _ } => {
                        accepted += 1;
                        prop_assert!(ready_cycle > cycle);
                    }
                    AccessResponse::NoPort | AccessResponse::NoMshr => {}
                }
            }
            let s = m.stats();
            prop_assert_eq!(
                s.load_hits + s.load_misses + s.store_hits + s.store_misses,
                accepted
            );
        }
    }
}
