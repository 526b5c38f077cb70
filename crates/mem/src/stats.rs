//! Aggregate statistics reported by the memory system.

use serde::{Deserialize, Serialize};

/// Counters accumulated by [`crate::MemorySystem`] over a simulation run.
///
/// These feed directly into the paper's figures: load/store miss ratios
/// (Figure 1-c), and external bus utilisation (Figure 5).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct MemStats {
    /// Load accesses that hit in the L1 data cache.
    pub load_hits: u64,
    /// Load accesses that missed in the L1 data cache.
    pub load_misses: u64,
    /// Store accesses that hit in the L1 data cache.
    pub store_hits: u64,
    /// Store accesses that missed in the L1 data cache.
    pub store_misses: u64,
    /// Secondary misses that merged into an outstanding MSHR.
    pub mshr_merges: u64,
    /// Accesses rejected because every MSHR was busy.
    pub mshr_full_rejections: u64,
    /// Accesses rejected because every D-cache port was busy.
    pub port_rejections: u64,
    /// Dirty lines written back to the L2.
    pub writebacks: u64,
    /// Cycles the L1–L2 bus spent busy.
    pub bus_busy_cycles: u64,
    /// Total transfers over the L1–L2 bus (fills + write-backs).
    pub bus_transfers: u64,
    /// Total bytes moved over the L1–L2 bus.
    pub bus_bytes: u64,
}

impl MemStats {
    /// Total load accesses (hits + misses).
    #[must_use]
    pub fn load_accesses(&self) -> u64 {
        self.load_hits + self.load_misses
    }

    /// Total store accesses (hits + misses).
    #[must_use]
    pub fn store_accesses(&self) -> u64 {
        self.store_hits + self.store_misses
    }

    /// Load miss ratio in `[0, 1]` (0 when there were no loads).
    #[must_use]
    pub fn load_miss_ratio(&self) -> f64 {
        ratio(self.load_misses, self.load_accesses())
    }

    /// Store miss ratio in `[0, 1]` (0 when there were no stores).
    #[must_use]
    pub fn store_miss_ratio(&self) -> f64 {
        ratio(self.store_misses, self.store_accesses())
    }

    /// Overall data-cache miss ratio.
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        ratio(
            self.load_misses + self.store_misses,
            self.load_accesses() + self.store_accesses(),
        )
    }

    /// External bus utilisation over a run of `total_cycles`.
    #[must_use]
    pub fn bus_utilization(&self, total_cycles: u64) -> f64 {
        if total_cycles == 0 {
            0.0
        } else {
            (self.bus_busy_cycles.min(total_cycles)) as f64 / total_cycles as f64
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_with_no_accesses_are_zero() {
        let s = MemStats::default();
        assert_eq!(s.load_miss_ratio(), 0.0);
        assert_eq!(s.store_miss_ratio(), 0.0);
        assert_eq!(s.miss_ratio(), 0.0);
        assert_eq!(s.bus_utilization(0), 0.0);
    }

    #[test]
    fn ratios_compute_correctly() {
        let s = MemStats {
            load_hits: 75,
            load_misses: 25,
            store_hits: 40,
            store_misses: 10,
            ..MemStats::default()
        };
        assert!((s.load_miss_ratio() - 0.25).abs() < 1e-12);
        assert!((s.store_miss_ratio() - 0.2).abs() < 1e-12);
        assert!((s.miss_ratio() - 35.0 / 150.0).abs() < 1e-12);
        assert_eq!(s.load_accesses(), 100);
        assert_eq!(s.store_accesses(), 50);
    }

    #[test]
    fn bus_utilization_bounds() {
        let s = MemStats {
            bus_busy_cycles: 500,
            ..MemStats::default()
        };
        assert!((s.bus_utilization(1000) - 0.5).abs() < 1e-12);
        assert!((s.bus_utilization(100) - 1.0).abs() < 1e-12);
    }
}
