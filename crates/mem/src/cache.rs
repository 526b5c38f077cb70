//! A set-associative (including direct-mapped) cache tag array with LRU
//! replacement and write-back dirty tracking.

use serde::{Deserialize, Serialize};

use crate::CacheConfig;

/// The result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccess {
    /// Whether the access hit in the cache.
    pub hit: bool,
    /// On a miss that evicted a dirty line, the evicted line's base address
    /// (so the memory system can schedule the write-back traffic).
    pub evicted_dirty_line: Option<u64>,
}

/// Hit/miss counters kept by the tag array itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Number of accesses that hit.
    pub hits: u64,
    /// Number of accesses that missed.
    pub misses: u64,
    /// Number of dirty lines evicted (write-backs generated).
    pub writebacks: u64,
}

impl CacheStats {
    /// Total number of accesses.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`; zero when there were no accesses.
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    valid: bool,
    dirty: bool,
    tag: u64,
    /// Monotonic timestamp of the most recent touch, for LRU.
    last_use: u64,
}

impl Line {
    fn empty() -> Self {
        Line {
            valid: false,
            dirty: false,
            tag: 0,
            last_use: 0,
        }
    }
}

/// A cache tag array.
///
/// Data values are never stored — the simulator is timing-only — but tags,
/// validity, dirtiness and LRU ordering are modelled exactly so that miss
/// ratios and write-back traffic are faithful.
///
/// The geometry arithmetic is precomputed at construction: line and set
/// indexing are shift/mask operations when the set count is a power of two
/// (every paper configuration), falling back to modulo/division only for
/// exotic geometries. Lines live in one flat array (`set * associativity`
/// stride) so a set probe touches a single contiguous cache line of host
/// memory.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// All lines, flattened: set `s` occupies
    /// `lines[s * associativity .. (s + 1) * associativity]`.
    lines: Vec<Line>,
    num_sets: usize,
    line_shift: u32,
    /// `log2(num_sets)` when the set count is a power of two.
    set_shift: Option<u32>,
    stats: CacheStats,
    access_counter: u64,
}

impl Cache {
    /// Creates an empty (all-invalid) cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`CacheConfig::validate`]).
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid cache config: {e}"));
        let num_sets = config.num_sets();
        Cache {
            config,
            lines: vec![Line::empty(); num_sets * config.associativity],
            num_sets,
            line_shift: config.line_bytes.trailing_zeros(),
            set_shift: num_sets
                .is_power_of_two()
                .then(|| num_sets.trailing_zeros()),
            stats: CacheStats::default(),
            access_counter: 0,
        }
    }

    /// The configuration this cache was built with.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated hit/miss/write-back statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The base address of the line containing `addr`.
    #[must_use]
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr >> self.line_shift << self.line_shift
    }

    fn set_index(&self, addr: u64) -> usize {
        match self.set_shift {
            Some(_) => ((addr >> self.line_shift) as usize) & (self.num_sets - 1),
            None => ((addr >> self.line_shift) as usize) % self.num_sets,
        }
    }

    fn tag(&self, addr: u64) -> u64 {
        match self.set_shift {
            Some(s) => addr >> (self.line_shift + s),
            None => (addr >> self.line_shift) / self.num_sets as u64,
        }
    }

    /// The flat-index range of the ways of one set.
    fn set_range(&self, set_idx: usize) -> std::ops::Range<usize> {
        let assoc = self.config.associativity;
        set_idx * assoc..(set_idx + 1) * assoc
    }

    /// Looks up `addr` without modifying any state (no LRU update, no fill).
    #[must_use]
    pub fn probe(&self, addr: u64) -> bool {
        let tag = self.tag(addr);
        let set = &self.lines[self.set_range(self.set_index(addr))];
        set.iter().any(|l| l.valid && l.tag == tag)
    }

    /// Performs an access: on a hit, updates LRU (and dirtiness for stores);
    /// on a miss, fills the line, possibly evicting an older one.
    ///
    /// Returns whether the access hit and, on a miss, whether a dirty line
    /// had to be written back (and which one).
    pub fn access(&mut self, addr: u64, is_store: bool) -> CacheAccess {
        self.access_counter += 1;
        let stamp = self.access_counter;
        let set_idx = self.set_index(addr);
        let tag = self.tag(addr);
        let num_sets = self.num_sets as u64;
        let line_shift = self.line_shift;
        let range = self.set_range(set_idx);
        let set = &mut self.lines[range];

        // Hit path: direct-mapped caches (the paper's L1D) have exactly one
        // candidate way, so the tag compare is branch-only; wider caches
        // scan the (small) set.
        let way = if set.len() == 1 {
            if set[0].valid && set[0].tag == tag {
                Some(0)
            } else {
                None
            }
        } else {
            set.iter().position(|l| l.valid && l.tag == tag)
        };
        if let Some(w) = way {
            let line = &mut set[w];
            line.last_use = stamp;
            if is_store {
                line.dirty = true;
            }
            self.stats.hits += 1;
            return CacheAccess {
                hit: true,
                evicted_dirty_line: None,
            };
        }

        // Miss: pick a victim — an invalid way if there is one, otherwise the
        // way with the oldest (smallest) monotonic access stamp, i.e. LRU.
        self.stats.misses += 1;
        let victim_idx = if set.len() == 1 {
            0
        } else {
            set.iter()
                .enumerate()
                .find(|(_, l)| !l.valid)
                .map(|(i, _)| i)
                .unwrap_or_else(|| {
                    set.iter()
                        .enumerate()
                        .min_by_key(|(_, l)| l.last_use)
                        .map(|(i, _)| i)
                        .expect("associativity is non-zero")
                })
        };
        let victim = &mut set[victim_idx];
        let evicted_dirty_line = if victim.valid && victim.dirty {
            self.stats.writebacks += 1;
            // Reconstruct the victim's base address from its tag and set index.
            let line_number = victim.tag * num_sets + set_idx as u64;
            Some(line_number << line_shift)
        } else {
            None
        };
        *victim = Line {
            valid: true,
            dirty: is_store,
            tag,
            last_use: stamp,
        };
        CacheAccess {
            hit: false,
            evicted_dirty_line,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache(assoc: usize) -> Cache {
        // 8 sets x assoc ways x 32-byte lines.
        Cache::new(CacheConfig {
            size_bytes: 8 * assoc * 32,
            line_bytes: 32,
            associativity: assoc,
            ports: 1,
            mshrs: 4,
            hit_latency: 1,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small_cache(1);
        assert!(!c.probe(0x100));
        let a = c.access(0x100, false);
        assert!(!a.hit);
        assert!(a.evicted_dirty_line.is_none());
        assert!(c.probe(0x100));
        assert!(c.access(0x104, false).hit, "same line must hit");
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn direct_mapped_conflict() {
        let mut c = small_cache(1);
        // 8 sets * 32 B = 256 B stride maps to the same set.
        assert!(!c.access(0x0, false).hit);
        assert!(!c.access(0x100, false).hit); // evicts 0x0
        assert!(!c.access(0x0, false).hit); // miss again
        assert_eq!(c.stats().misses, 3);
    }

    #[test]
    fn two_way_avoids_single_conflict() {
        let mut c = small_cache(2);
        assert!(!c.access(0x0, false).hit);
        assert!(!c.access(0x100, false).hit);
        assert!(c.access(0x0, false).hit, "2-way keeps both lines");
        assert!(c.access(0x100, false).hit);
    }

    #[test]
    fn lru_replacement_order() {
        let mut c = small_cache(2);
        c.access(0x0, false); // way A
        c.access(0x100, false); // way B
        c.access(0x0, false); // touch A so B is LRU
        c.access(0x200, false); // evicts B (0x100)
        assert!(c.probe(0x0));
        assert!(!c.probe(0x100));
        assert!(c.probe(0x200));
    }

    #[test]
    fn dirty_eviction_reports_victim_address() {
        let mut c = small_cache(1);
        c.access(0x40, true); // store: line dirty
        let a = c.access(0x140, false); // conflicting line, evicts dirty 0x40
        assert!(!a.hit);
        assert_eq!(a.evicted_dirty_line, Some(0x40));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_reports_nothing() {
        let mut c = small_cache(1);
        c.access(0x40, false);
        let a = c.access(0x140, false);
        assert!(!a.hit);
        assert_eq!(a.evicted_dirty_line, None);
        assert_eq!(c.stats().writebacks, 0);
    }

    #[test]
    fn store_hit_marks_dirty() {
        let mut c = small_cache(1);
        c.access(0x40, false); // clean fill
        c.access(0x44, true); // store hit marks dirty
        let a = c.access(0x140, false);
        assert_eq!(a.evicted_dirty_line, Some(0x40));
    }

    #[test]
    fn line_addr_masks_offset() {
        let c = small_cache(1);
        assert_eq!(c.line_addr(0x1234), 0x1220);
        assert_eq!(c.line_addr(0x1220), 0x1220);
        assert_eq!(c.line_addr(0x123f), 0x1220);
    }

    #[test]
    fn miss_ratio_computation() {
        let mut c = small_cache(1);
        assert_eq!(c.stats().miss_ratio(), 0.0);
        c.access(0x0, false);
        c.access(0x0, false);
        c.access(0x0, false);
        c.access(0x0, false);
        assert!((c.stats().miss_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn paper_l1d_capacity_behaviour() {
        // Streaming 64 KB twice through the paper's 64 KB direct-mapped cache
        // should miss on the first pass (per line) and hit on the second.
        let mut c = Cache::new(CacheConfig::paper_l1d());
        for addr in (0..64 * 1024u64).step_by(32) {
            assert!(!c.access(addr, false).hit);
        }
        for addr in (0..64 * 1024u64).step_by(32) {
            assert!(c.access(addr, false).hit);
        }
    }

    #[test]
    fn working_set_larger_than_capacity_thrashes() {
        let mut c = Cache::new(CacheConfig::paper_l1d());
        // 128 KB working set in a 64 KB direct-mapped cache, streamed twice:
        // every access in the second pass also misses.
        for _ in 0..2 {
            for addr in (0..128 * 1024u64).step_by(32) {
                c.access(addr, false);
            }
        }
        assert_eq!(c.stats().hits, 0);
    }

    #[test]
    #[should_panic(expected = "invalid cache config")]
    fn invalid_config_panics() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 100,
            line_bytes: 32,
            associativity: 1,
            ports: 1,
            mshrs: 1,
            hit_latency: 1,
        });
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// A probe immediately after an access to the same address always hits,
        /// regardless of geometry or access history.
        #[test]
        fn access_then_probe_hits(
            addrs in prop::collection::vec(0u64..0x10_0000, 1..200),
            assoc in 1usize..4,
        ) {
            let mut c = Cache::new(CacheConfig {
                size_bytes: 16 * assoc * 64,
                line_bytes: 64,
                associativity: assoc,
                ports: 1,
                mshrs: 4,
                hit_latency: 1,
            });
            for &a in &addrs {
                c.access(a, false);
                prop_assert!(c.probe(a));
            }
        }

        /// hits + misses always equals the number of accesses, and the miss
        /// ratio stays within [0, 1].
        #[test]
        fn stats_are_consistent(addrs in prop::collection::vec(0u64..0x1_0000, 0..300)) {
            let mut c = Cache::new(CacheConfig::paper_l1d());
            for &a in &addrs {
                c.access(a, a % 3 == 0);
            }
            let s = c.stats();
            prop_assert_eq!(s.accesses(), addrs.len() as u64);
            prop_assert!((0.0..=1.0).contains(&s.miss_ratio()));
            prop_assert!(s.writebacks <= s.misses);
        }
    }
}
