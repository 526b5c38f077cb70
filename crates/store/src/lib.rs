//! # dsmt-store
//!
//! The shared **result-persistence layer** of the sweep system. Before this
//! crate existed, simulation results were persisted three incompatible ways:
//! the sweep cache wrote one pretty-JSON file per scenario, the shard
//! subsystem packed `.dsr` files with its own private codec, and exports
//! re-serialized everything again. `dsmt-store` unifies them behind one
//! codec and one checksum discipline:
//!
//! * [`codec`] — the canonical tagged binary encoding of serde [`Value`]
//!   trees (string-interned, shortest-varint, exact float bits). Both the
//!   `.dsr` shard format and the store's segments encode values with it, so
//!   the bytes of a record are the same wherever it is persisted.
//! * [`segment`] — immutable, checksummed **segment files** (`.dsrs`): a
//!   batch of `(key, value)` records sharing one string-intern table. A
//!   segment is written once, named by the FNV-1a hash of its own bytes
//!   (content addressing), and published with an atomic rename — readers
//!   never observe a partial segment.
//! * [`store`] — a [`Store`]: a directory of segments plus a schema marker.
//!   Lookups go through an in-memory key index (later segments shadow
//!   earlier ones). The store only grows: nothing evicts or rewrites a
//!   segment, and a read writes nothing.
//! * [`lock`] — `O_EXCL` **lockfile claims** ([`LockFile`]) and the
//!   [`atomic_write`] publish helper. Any number of workers can race to
//!   claim a unit of work (a shard) and exactly one wins;
//!   everything published lands via temp-file + rename. Claims whose
//!   holder died without unwinding can be reaped after a deadline with
//!   [`LockFile::acquire_or_steal`] — the self-healing half of the fleet
//!   protocol.
//!
//! The crate is deliberately generic: it stores [`Value`] trees keyed by
//! `u64`, and knows nothing about scenarios, grids or simulators. The sweep
//! cache and the shard transport layer their schemas on top — and they can
//! share **one** store directory, each deriving its keys from a disjoint
//! [`namespaced_key`] namespace (a byte-level spec of everything this
//! crate persists lives in `docs/ARCHITECTURE.md` at the workspace root).
//!
//! [`Value`]: serde::Value

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;
pub mod lock;
pub mod segment;
pub mod store;

pub use codec::{get_raw_str, get_value, put_value, CodecError, StrTable};
pub use lock::{atomic_write, Claim, ClaimInfo, Heartbeat, LockFile};
pub use segment::{RecordEntry, Segment, SegmentHeader, SEGMENT_FORMAT_VERSION};
pub use store::{SegmentInfo, Store, StoreError};

/// Stable 64-bit FNV-1a hash: cache keys, seed derivation, segment names
/// and every checksum in the persistence layer use this one function.
pub use dsmt_isa::fnv1a64;

/// Streaming form of [`fnv1a64`]: feed byte ranges with [`Fnv64::update`]
/// and take the digest with [`Fnv64::finish`]. Hashing a contiguous buffer
/// in one `update` equals `fnv1a64` of the same bytes; the streaming form
/// exists so segment *identity* can hash a file while skipping the ranges
/// that are not content (the sequence number and the checksums).
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Self {
        Fnv64::default()
    }

    /// Folds `bytes` into the running digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest over everything fed so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Derives a store key inside a named keyspace: `fnv1a64("{ns}:{ident}")`.
///
/// The store's key space is one flat `u64`, so clients that share a
/// directory keep out of each other's way by convention: each picks a
/// distinct namespace string and derives every key through this function
/// (the sweep cache predates the convention and keys raw scenario hashes;
/// the shard transport uses the `shard-output` namespace). A freak 64-bit
/// collision across namespaces is survivable because every client
/// re-verifies the shape/identity recorded *inside* its values on read.
#[must_use]
pub fn namespaced_key(namespace: &str, ident: &str) -> u64 {
    fnv1a64(format!("{namespace}:{ident}").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable() {
        // Reference values pin the hash: cache keys, segment names and
        // checksums across the workspace depend on these exact bytes.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"ab"), fnv1a64(b"ba"));
    }

    #[test]
    fn streaming_fnv_matches_one_shot_regardless_of_chunking() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for split in [0, 1, 7, data.len()] {
            let mut h = Fnv64::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), fnv1a64(data), "split at {split}");
        }
        assert_eq!(Fnv64::new().finish(), fnv1a64(b""));
    }

    #[test]
    fn namespaced_keys_separate_namespaces() {
        assert_eq!(namespaced_key("a", "x"), fnv1a64(b"a:x"));
        assert_ne!(namespaced_key("a", "x"), namespaced_key("b", "x"));
        assert_ne!(namespaced_key("a", "x"), namespaced_key("a", "y"));
    }
}
