//! Miss Status Holding Registers (MSHRs).
//!
//! The paper's L1 data cache is lockup-free with 16 MSHRs: up to 16 distinct
//! cache lines may be outstanding at once, and secondary misses to a line
//! that is already being fetched merge into the existing entry instead of
//! generating new L2/bus traffic.
//!
//! Latency-scaled configurations replicate MSHRs aggressively (a 16-thread
//! machine at a 256-cycle L2 holds hundreds of outstanding lines), so the
//! file avoids O(occupancy) work per cycle: entries sit in a `VecDeque` in
//! allocation order — fill completions are monotone in that order because
//! the L1–L2 bus grants transfers FIFO ([`crate::Bus::schedule_transfer`])
//! — making [`MshrFile::retire_completed`] a pop-from-the-front loop, and a
//! hash index over line addresses makes lookups and merges O(1).

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};

/// A multiply-shift hasher for line addresses (the only key type the MSHR
/// index uses). Far cheaper than the std SipHash and perfectly adequate:
/// keys are not attacker-controlled and collisions only cost a probe.
#[derive(Debug, Default)]
pub struct LineAddrHasher(u64);

impl Hasher for LineAddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Only fixed-width integer keys are hashed; this path is unused.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, n: u64) {
        // Fibonacci multiplicative hash: one multiply, good avalanche in the
        // high bits (which HashMap uses after its own mask).
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type LineIndex = HashMap<u64, u64, BuildHasherDefault<LineAddrHasher>>;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct Entry {
    line_addr: u64,
    ready_cycle: u64,
}

/// A file of miss status holding registers.
#[derive(Debug, Clone)]
pub struct MshrFile {
    capacity: usize,
    /// Outstanding entries in allocation order. Fill completions are
    /// monotone in this order (FIFO bus), so releases pop from the front.
    entries: VecDeque<Entry>,
    /// line address → pending ready cycle, for O(1) lookups and merges.
    index: LineIndex,
}

impl MshrFile {
    /// Creates an empty MSHR file with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR file must have at least one entry");
        MshrFile {
            capacity,
            entries: VecDeque::with_capacity(capacity),
            index: LineIndex::with_capacity_and_hasher(capacity, BuildHasherDefault::default()),
        }
    }

    /// Number of entries currently outstanding.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Total capacity of the file.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether the file has no free entry.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// The cycle at which the oldest outstanding fill completes, if any is
    /// outstanding. Entries are released in allocation order, so no entry
    /// frees earlier.
    #[must_use]
    pub fn next_release(&self) -> Option<u64> {
        self.entries.front().map(|e| e.ready_cycle)
    }

    /// Returns the pending fill-completion cycle if `line_addr` is already
    /// outstanding.
    #[must_use]
    pub fn lookup(&self, line_addr: u64) -> Option<u64> {
        if self.entries.is_empty() {
            return None;
        }
        self.index.get(&line_addr).copied()
    }

    /// Allocates an entry for a primary miss on `line_addr` whose fill
    /// completes at `ready_cycle`. The caller has checked that the line is
    /// not outstanding ([`MshrFile::lookup`]) and the file is not full, and
    /// allocates in the order the fills were scheduled on the FIFO bus, so
    /// ready cycles stay monotone in allocation order.
    ///
    /// # Panics
    ///
    /// Panics if the file is full.
    pub fn allocate(&mut self, line_addr: u64, ready_cycle: u64) {
        assert!(!self.is_full(), "MSHR allocation into a full file");
        debug_assert!(
            self.lookup(line_addr).is_none(),
            "line {line_addr:#x} already outstanding"
        );
        debug_assert!(
            self.entries
                .back()
                .is_none_or(|e| e.ready_cycle <= ready_cycle),
            "fills out of allocation order"
        );
        self.entries.push_back(Entry {
            line_addr,
            ready_cycle,
        });
        self.index.insert(line_addr, ready_cycle);
    }

    /// Releases every entry whose fill has completed by `cycle`.
    ///
    /// Entries are released strictly in allocation order: the FIFO bus
    /// guarantees fills complete in the order they were scheduled, so the
    /// first still-pending entry bounds everything behind it.
    pub fn retire_completed(&mut self, cycle: u64) {
        while let Some(front) = self.entries.front() {
            if front.ready_cycle > cycle {
                break;
            }
            let e = self.entries.pop_front().expect("front exists");
            self.index.remove(&e.line_addr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_then_merge() {
        let mut m = MshrFile::new(4);
        assert_eq!(m.lookup(0x100), None);
        m.allocate(0x100, 50);
        // A secondary miss finds the pending fill and takes no new entry.
        assert_eq!(m.lookup(0x100), Some(50));
        assert_eq!(m.occupancy(), 1);
    }

    #[test]
    fn fills_up_and_rejects() {
        let mut m = MshrFile::new(2);
        m.allocate(0x0, 10);
        m.allocate(0x20, 12);
        assert!(m.is_full());
        assert_eq!(m.lookup(0x40), None);
        // An outstanding line still merges when the file is full.
        assert_eq!(m.lookup(0x0), Some(10));
        assert_eq!(m.next_release(), Some(10));
    }

    #[test]
    #[should_panic(expected = "full file")]
    fn allocating_into_a_full_file_panics() {
        let mut m = MshrFile::new(1);
        m.allocate(0x0, 10);
        m.allocate(0x20, 12);
    }

    #[test]
    fn retire_frees_entries() {
        let mut m = MshrFile::new(2);
        m.allocate(0x0, 10);
        m.allocate(0x20, 30);
        m.retire_completed(10);
        assert_eq!(m.occupancy(), 1);
        assert_eq!(m.lookup(0x0), None);
        assert!(!m.is_full());
        m.retire_completed(30);
        assert_eq!(m.occupancy(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        let _ = MshrFile::new(0);
    }
}
