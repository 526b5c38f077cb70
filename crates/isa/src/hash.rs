//! FNV-1a hashing: the workspace's one stable 64-bit hash.
//!
//! It lives at the bottom of the dependency graph so every layer shares it:
//! the store re-exports it for cache keys, segment names and checksums, and
//! the assembler's golden tests digest the canonical trace text
//! ([`crate::text::render_trace`]) of instruction streams with it.

/// FNV-1a 64-bit hash of `bytes` (offset basis `0xcbf29ce484222325`,
/// prime `0x100000001b3`).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn sensitive_to_every_byte() {
        let base = fnv1a64(b"hello world");
        assert_ne!(base, fnv1a64(b"hello worle"));
        assert_ne!(base, fnv1a64(b"iello world"));
        assert_ne!(base, fnv1a64(b"hello worl"));
    }
}
