//! Shared variable-length integer encoding (LEB128) for binary formats.
//!
//! The on-disk formats (the store's value codec, used by its segments and
//! the `.dsr` shard files) pack counters with these helpers: a `u64` costs
//! one byte per 7 significant bits, so the small counts that dominate
//! simulation results take one or two bytes instead of eight.
//!
//! * **Unsigned** values use plain LEB128: 7 value bits per byte, the high
//!   bit flags continuation, little-endian groups.
//! * **Signed** values are zigzag-mapped first (`0, -1, 1, -2, ...` →
//!   `0, 1, 2, 3, ...`), so small magnitudes of either sign stay short.
//!
//! Decoding rejects non-canonical encodings (trailing zero groups and
//! values overflowing 64 bits) so that every `u64` has exactly one byte
//! representation — a requirement for checksummed formats that compare
//! files byte-for-byte.

use bytes::{Buf, BufMut};

/// Maximum encoded length of a `u64` (⌈64 / 7⌉ bytes).
pub const MAX_UVARINT_LEN: usize = 10;

/// Errors from varint decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarintError {
    /// The buffer ended mid-value.
    Truncated,
    /// The value does not fit in 64 bits, or the encoding has a redundant
    /// trailing group (non-canonical).
    Malformed,
}

impl std::fmt::Display for VarintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VarintError::Truncated => write!(f, "varint truncated"),
            VarintError::Malformed => write!(f, "varint malformed (overflow or non-canonical)"),
        }
    }
}

impl std::error::Error for VarintError {}

/// Appends the LEB128 encoding of `value` to `buf`.
pub fn put_uvarint<B: BufMut>(buf: &mut B, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Decodes one LEB128 value from the front of `buf`, consuming its bytes.
///
/// # Errors
///
/// [`VarintError::Truncated`] if the buffer ends mid-value;
/// [`VarintError::Malformed`] on 64-bit overflow or a non-canonical
/// encoding (a continuation into a redundant all-zero group).
pub fn get_uvarint<B: Buf>(buf: &mut B) -> Result<u64, VarintError> {
    let mut value: u64 = 0;
    for i in 0..MAX_UVARINT_LEN {
        if !buf.has_remaining() {
            return Err(VarintError::Truncated);
        }
        let byte = buf.get_u8();
        let group = u64::from(byte & 0x7f);
        // The 10th byte may only carry the single remaining bit of a u64.
        if i == MAX_UVARINT_LEN - 1 && group > 1 {
            return Err(VarintError::Malformed);
        }
        value |= group << (7 * i);
        if byte & 0x80 == 0 {
            // Canonical form: only the first group may be zero.
            if i > 0 && group == 0 {
                return Err(VarintError::Malformed);
            }
            return Ok(value);
        }
    }
    Err(VarintError::Malformed)
}

/// Appends the zigzag LEB128 encoding of a signed value.
pub fn put_ivarint<B: BufMut>(buf: &mut B, value: i64) {
    put_uvarint(buf, zigzag(value));
}

/// Decodes one zigzag LEB128 signed value.
///
/// # Errors
///
/// As for [`get_uvarint`].
pub fn get_ivarint<B: Buf>(buf: &mut B) -> Result<i64, VarintError> {
    get_uvarint(buf).map(unzigzag)
}

/// Maps a signed value to an unsigned one with small absolute values small.
#[must_use]
pub fn zigzag(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[must_use]
pub fn unzigzag(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoded(value: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        put_uvarint(&mut buf, value);
        buf
    }

    #[test]
    fn known_encodings() {
        assert_eq!(encoded(0), vec![0x00]);
        assert_eq!(encoded(1), vec![0x01]);
        assert_eq!(encoded(127), vec![0x7f]);
        assert_eq!(encoded(128), vec![0x80, 0x01]);
        assert_eq!(encoded(300), vec![0xac, 0x02]);
        assert_eq!(encoded(u64::MAX).len(), MAX_UVARINT_LEN);
    }

    #[test]
    fn round_trip_edge_values() {
        for v in [
            0,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let bytes = encoded(v);
            let mut slice = bytes.as_slice();
            assert_eq!(get_uvarint(&mut slice), Ok(v));
            assert!(slice.is_empty(), "all bytes consumed for {v}");
        }
    }

    #[test]
    fn signed_round_trip() {
        for v in [0i64, -1, 1, -64, 63, i64::MIN, i64::MAX] {
            let mut buf = Vec::new();
            put_ivarint(&mut buf, v);
            assert_eq!(get_ivarint(&mut buf.as_slice()), Ok(v));
        }
        // Small magnitudes of either sign stay one byte.
        for v in [-64i64, -1, 0, 1, 63] {
            let mut buf = Vec::new();
            put_ivarint(&mut buf, v);
            assert_eq!(buf.len(), 1, "{v} should fit one byte");
        }
    }

    #[test]
    fn truncated_inputs_error() {
        assert_eq!(get_uvarint(&mut [].as_slice()), Err(VarintError::Truncated));
        let mut long = encoded(u64::MAX);
        long.pop();
        assert_eq!(
            get_uvarint(&mut long.as_slice()),
            Err(VarintError::Truncated)
        );
    }

    #[test]
    fn non_canonical_and_overflow_error() {
        // 0 encoded with a redundant continuation group.
        assert_eq!(
            get_uvarint(&mut [0x80, 0x00].as_slice()),
            Err(VarintError::Malformed)
        );
        // 11 continuation bytes can never terminate within the limit.
        let eleven = [0x80u8; 11];
        assert_eq!(
            get_uvarint(&mut eleven.as_slice()),
            Err(VarintError::Malformed)
        );
        // 10th group carrying more than the final u64 bit overflows.
        let mut overflow = vec![0x80u8; 9];
        overflow.push(0x02);
        assert_eq!(
            get_uvarint(&mut overflow.as_slice()),
            Err(VarintError::Malformed)
        );
    }

    #[test]
    fn zigzag_is_bijective_on_edges() {
        for v in [i64::MIN, -2, -1, 0, 1, 2, i64::MAX] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn uvarint_round_trips(v in any::<u64>()) {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            prop_assert!(buf.len() <= MAX_UVARINT_LEN);
            let mut slice = buf.as_slice();
            prop_assert_eq!(get_uvarint(&mut slice), Ok(v));
            prop_assert!(slice.is_empty());
        }

        #[test]
        fn ivarint_round_trips(v in any::<i64>()) {
            let mut buf = Vec::new();
            put_ivarint(&mut buf, v);
            prop_assert_eq!(get_ivarint(&mut buf.as_slice()), Ok(v));
        }

        #[test]
        fn decoding_arbitrary_bytes_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..16)) {
            let _ = get_uvarint(&mut bytes.as_slice());
        }

        #[test]
        fn streams_concatenate(values in prop::collection::vec(any::<u64>(), 0..32)) {
            let mut buf = Vec::new();
            for &v in &values {
                put_uvarint(&mut buf, v);
            }
            let mut slice = buf.as_slice();
            for &v in &values {
                prop_assert_eq!(get_uvarint(&mut slice), Ok(v));
            }
            prop_assert!(slice.is_empty());
        }
    }
}
