//! Memory address stream generators.
//!
//! Numerical codes like SPEC FP95 mostly stream through large arrays with
//! regular strides (producing compulsory/capacity misses proportional to the
//! stride-to-line ratio) and keep a small scalar/stack region that almost
//! always hits. The combination of these two generators, with per-benchmark
//! footprints, reproduces the miss-ratio differences of Figure 1-c and the
//! working-set growth with thread count discussed in Section 3.1.

use serde::{Deserialize, Serialize};

/// A strided walk through a (possibly very large) array.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArrayStream {
    base: u64,
    size: u64,
    stride: u64,
    pos: u64,
}

impl ArrayStream {
    /// Creates a stream over `[base, base + size)` advancing by `stride`
    /// bytes per access and wrapping at the end.
    ///
    /// # Panics
    ///
    /// Panics if `size` or `stride` is zero.
    #[must_use]
    pub fn new(base: u64, size: u64, stride: u64) -> Self {
        assert!(size > 0, "array size must be non-zero");
        assert!(stride > 0, "stride must be non-zero");
        ArrayStream {
            base,
            size,
            stride,
            pos: 0,
        }
    }

    /// The array's base address.
    #[must_use]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// The array's size in bytes.
    #[must_use]
    pub fn size(&self) -> u64 {
        self.size
    }

    /// The next address in the stream.
    pub fn next_addr(&mut self) -> u64 {
        let addr = self.base + self.pos;
        self.pos = (self.pos + self.stride) % self.size;
        addr
    }

    /// The address the next call to [`ArrayStream::next_addr`] will return,
    /// without advancing.
    #[must_use]
    pub fn peek_addr(&self) -> u64 {
        self.base + self.pos
    }
}

/// A small, heavily reused region (scalars, stack, lookup tables).
///
/// Accesses cycle through a handful of distinct addresses so that, once
/// warm, they always hit in the L1.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScalarRegion {
    base: u64,
    size: u64,
    cursor: u64,
}

impl ScalarRegion {
    /// Creates a reuse region of `size` bytes at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    #[must_use]
    pub fn new(base: u64, size: u64) -> Self {
        assert!(size > 0, "scalar region size must be non-zero");
        ScalarRegion {
            base,
            size,
            cursor: 0,
        }
    }

    /// The next scalar address (8-byte granularity, cycling).
    pub fn next_addr(&mut self) -> u64 {
        let addr = self.base + self.cursor;
        self.cursor = (self.cursor + 8) % self.size;
        addr
    }

    /// The region's size in bytes.
    #[must_use]
    pub fn size(&self) -> u64 {
        self.size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_stream_strides_and_wraps() {
        let mut a = ArrayStream::new(0x1000, 32, 8);
        assert_eq!(a.next_addr(), 0x1000);
        assert_eq!(a.next_addr(), 0x1008);
        assert_eq!(a.next_addr(), 0x1010);
        assert_eq!(a.next_addr(), 0x1018);
        assert_eq!(a.next_addr(), 0x1000, "wraps at the end");
    }

    #[test]
    fn peek_and_rewind() {
        let mut a = ArrayStream::new(0x0, 64, 16);
        assert_eq!(a.peek_addr(), 0x0);
        a.next_addr();
        assert_eq!(a.peek_addr(), 0x10);
        for _ in 0..3 {
            a.next_addr();
        }
        assert_eq!(a.peek_addr(), 0x0, "a full pass rewinds to the base");
        assert_eq!(a.base(), 0x0);
        assert_eq!(a.size(), 64);
    }

    #[test]
    fn addresses_stay_within_bounds() {
        let mut a = ArrayStream::new(0x4000, 1000, 24);
        for _ in 0..10_000 {
            let addr = a.next_addr();
            assert!((0x4000..0x4000 + 1000).contains(&addr));
        }
    }

    #[test]
    fn unit_stride_touches_every_line_once_per_pass() {
        // 8-byte stride over a 4 KB array: 512 distinct addresses, 128
        // distinct 32-byte lines per pass.
        let mut a = ArrayStream::new(0, 4096, 8);
        let mut lines = std::collections::HashSet::new();
        for _ in 0..512 {
            lines.insert(a.next_addr() / 32);
        }
        assert_eq!(lines.len(), 128);
    }

    #[test]
    fn scalar_region_reuses_few_addresses() {
        let mut s = ScalarRegion::new(0x9000, 64);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..1000 {
            distinct.insert(s.next_addr());
        }
        assert_eq!(distinct.len(), 8);
        assert_eq!(s.size(), 64);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_size_array_panics() {
        let _ = ArrayStream::new(0, 0, 8);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_stride_panics() {
        let _ = ArrayStream::new(0, 64, 0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_scalar_region_panics() {
        let _ = ScalarRegion::new(0, 0);
    }
}
