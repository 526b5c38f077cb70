//! Immutable, checksummed segment files (`.dsrs`).
//!
//! A segment is a batch of `(u64 key, Value)` records that were published
//! together — one sweep's cache misses, one shard output. Like `.dsr` shard
//! files, every decode error is fail-stop: a segment either
//! verifies completely or is rejected as a unit.
//!
//! ## v2 layout (integers little-endian; `varint` is LEB128 as in
//! [`dsmt_isa::varint`])
//!
//! ```text
//! magic      4 bytes   b"DSRS"
//! version    u32       SEGMENT_FORMAT_VERSION (2)
//! seq        u64       publish sequence number (precedence; see below)
//! n_strings  varint    string table: every distinct field name / string
//! strings    n ×       varint length + UTF-8 bytes, first-use order
//! n_records  varint
//! directory  n ×       key u64 LE, offset uvarint, len uvarint,
//!                      record_fnv u64 LE (FNV-1a of the record's bytes)
//! header_fnv u64       FNV-1a over every preceding byte
//! records    n ×       value (codec encoding), back to back; `offset`
//!                      in the directory is relative to this region
//! file_fnv   u64       FNV-1a over every preceding byte
//! ```
//!
//! Everything before the records region is the **header**: a store can
//! open a segment by reading and checksum-verifying the header alone —
//! O(keys), not O(bytes) — and decode individual records lazily from their
//! `(offset, len)` slice, verifying the per-record FNV at that point. The
//! trailing `file_fnv` lets a full reader ([`Segment::decode`]) verify
//! the whole file in one pass.
//!
//! The `seq` field makes shadow precedence a recorded fact instead of an
//! mtime artifact: a store stamps each published segment with
//! `max(seq seen) + 1`, and duplicate keys resolve to the segment with the
//! highest `(seq, mtime, name)`. A file with any other version is corrupt.
//!
//! Encoding is canonical (records in the order given, first-use string
//! table, shortest varints, contiguous record slices), so the same records
//! always produce the same bytes — *except* the `seq` field and the two
//! checksums, which segment **identity** ([`Segment::content_name`])
//! deliberately skips. Identical batches therefore still collapse to one
//! content-addressed file no matter when they were published; re-publishing
//! a batch rewrites the same file with a higher `seq`, re-asserting it as
//! the shadow winner.

use dsmt_isa::varint::{get_uvarint, put_uvarint};
use serde::Value;

use crate::codec::{
    get_raw_str, get_u64_le, get_value, put_raw_str, put_value, CodecError, StrTable,
};
use crate::{fnv1a64, Fnv64};

/// Bumped on any change to the segment byte layout.
pub const SEGMENT_FORMAT_VERSION: u32 = 2;

const MAGIC: [u8; 4] = *b"DSRS";

/// Fixed bytes before the string table: magic, version, seq.
const PRELUDE_LEN: usize = 4 + 4 + 8;

/// One key-directory entry: where a record's bytes live inside the records
/// region and what they must hash to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordEntry {
    /// The record's store key.
    pub key: u64,
    /// Byte offset of the record inside the records region.
    pub offset: u64,
    /// Encoded length of the record in bytes.
    pub len: u64,
    /// FNV-1a over exactly those bytes, verified on (lazy) decode.
    pub fnv: u64,
}

/// A parsed v2 segment header: everything [`crate::Store`] needs to index
/// a segment without touching its record bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentHeader {
    /// Layout version (always [`SEGMENT_FORMAT_VERSION`] once parsed).
    pub version: u32,
    /// Publish sequence number (shadow precedence).
    pub seq: u64,
    /// The segment's string-intern table, needed to decode any record.
    pub strings: Vec<String>,
    /// Key directory, in record write order.
    pub entries: Vec<RecordEntry>,
    /// Absolute file offset of the records region (one past `header_fnv`).
    pub records_base: u64,
}

impl SegmentHeader {
    /// Parses and checksum-verifies a v2 header from a file *prefix*.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when `prefix` ends before the header does
    /// — callers reading a bounded prefix should fetch more bytes and
    /// retry (unless the prefix already is the whole file, in which case
    /// the file is corrupt). Any other [`CodecError`] is fail-stop.
    pub fn parse(prefix: &[u8]) -> Result<Self, CodecError> {
        if prefix.len() < PRELUDE_LEN {
            return Err(CodecError::Truncated);
        }
        let (magic, rest) = prefix.split_at(MAGIC.len());
        if magic != MAGIC {
            return Err(CodecError::Malformed(
                "not a .dsrs segment (bad magic)".to_string(),
            ));
        }
        let (version, mut buf) = rest.split_first_chunk().expect("prelude length checked");
        let version = u32::from_le_bytes(*version);
        if version != SEGMENT_FORMAT_VERSION {
            return Err(CodecError::Malformed(format!(
                "unsupported segment version {version} \
                 (this build reads v{SEGMENT_FORMAT_VERSION} only)"
            )));
        }
        let seq = get_u64_le(&mut buf)?;
        let n_strings = get_uvarint(&mut buf)?;
        let mut strings = Vec::new();
        for _ in 0..n_strings {
            strings.push(get_raw_str(&mut buf)?);
        }
        let n_records = get_uvarint(&mut buf)?;
        // No up-front capacity: a corrupt count must not allocate ahead of
        // the checksum check. Each entry consumes ≥18 bytes, so growth is
        // bounded by the prefix actually read.
        let mut entries = Vec::new();
        for _ in 0..n_records {
            let key = get_u64_le(&mut buf)?;
            let offset = get_uvarint(&mut buf)?;
            let len = get_uvarint(&mut buf)?;
            let fnv = get_u64_le(&mut buf)?;
            entries.push(RecordEntry {
                key,
                offset,
                len,
                fnv,
            });
        }
        let hashed = prefix.len() - buf.len();
        let stored = get_u64_le(&mut buf)?;
        if fnv1a64(&prefix[..hashed]) != stored {
            return Err(CodecError::Malformed(
                "segment header checksum mismatch (corrupt or truncated file)".to_string(),
            ));
        }
        // Canonical form: record slices are contiguous from offset 0.
        let mut expected = 0u64;
        for e in &entries {
            if e.offset != expected {
                return Err(CodecError::Malformed(format!(
                    "non-contiguous record directory (offset {} where {} was expected)",
                    e.offset, expected
                )));
            }
            expected = expected
                .checked_add(e.len)
                .ok_or_else(|| CodecError::Malformed("record extent overflows u64".to_string()))?;
        }
        Ok(SegmentHeader {
            version,
            seq,
            strings,
            entries,
            records_base: (hashed + 8) as u64,
        })
    }

    /// Total bytes of the records region the directory describes.
    #[must_use]
    pub fn records_len(&self) -> u64 {
        self.entries.iter().map(|e| e.len).sum()
    }
}

/// An in-memory segment: the records it persists, in write order.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// The `(key, value)` records, in the order they were written.
    pub records: Vec<(u64, Value)>,
}

impl Segment {
    /// Packages records as a segment.
    #[must_use]
    pub fn new(records: Vec<(u64, Value)>) -> Self {
        Segment { records }
    }

    /// Serializes the segment to its canonical byte form with `seq 0`
    /// (equivalent to [`Segment::encode_with_seq`]`(0)`).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        self.encode_with_seq(0)
    }

    /// Serializes the segment to its canonical v2 byte form, stamping the
    /// given publish sequence number into the header.
    #[must_use]
    pub fn encode_with_seq(&self, seq: u64) -> Vec<u8> {
        self.encode_indexed(seq).0
    }

    /// [`Segment::encode_with_seq`] that also returns the parsed form of
    /// the header it wrote — the directory the encoder computed anyway —
    /// so a publisher can index its own segment without re-reading it.
    #[must_use]
    pub fn encode_indexed(&self, seq: u64) -> (Vec<u8>, SegmentHeader) {
        let mut table = StrTable::default();
        for (_, value) in &self.records {
            table.collect(value);
        }
        // Encode record bodies first: the directory needs their extents
        // and checksums before the header can be written.
        let mut bodies: Vec<Vec<u8>> = Vec::with_capacity(self.records.len());
        for (_, value) in &self.records {
            let mut body = Vec::new();
            put_value(&mut body, value, &table);
            bodies.push(body);
        }
        let mut buf = Vec::with_capacity(64 + 64 * self.records.len());
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&SEGMENT_FORMAT_VERSION.to_le_bytes());
        buf.extend_from_slice(&seq.to_le_bytes());
        put_uvarint(&mut buf, table.strings().len() as u64);
        for s in table.strings() {
            put_raw_str(&mut buf, s);
        }
        put_uvarint(&mut buf, self.records.len() as u64);
        let mut entries = Vec::with_capacity(self.records.len());
        let mut offset = 0u64;
        for ((key, _), body) in self.records.iter().zip(&bodies) {
            let entry = RecordEntry {
                key: *key,
                offset,
                len: body.len() as u64,
                fnv: fnv1a64(body),
            };
            buf.extend_from_slice(&entry.key.to_le_bytes());
            put_uvarint(&mut buf, entry.offset);
            put_uvarint(&mut buf, entry.len);
            buf.extend_from_slice(&entry.fnv.to_le_bytes());
            offset += entry.len;
            entries.push(entry);
        }
        buf.extend_from_slice(&fnv1a64(&buf).to_le_bytes());
        let records_base = buf.len() as u64;
        for body in &bodies {
            buf.extend_from_slice(body);
        }
        buf.extend_from_slice(&fnv1a64(&buf).to_le_bytes());
        let header = SegmentHeader {
            version: SEGMENT_FORMAT_VERSION,
            seq,
            strings: table.strings().to_vec(),
            entries,
            records_base,
        };
        (buf, header)
    }

    /// Parses and fully verifies a segment byte image, discarding the
    /// sequence number.
    ///
    /// # Errors
    ///
    /// A [`CodecError`] on any structural problem; checksum mismatches and
    /// truncation reject the whole segment — no partial decode is returned.
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        Self::decode_with_seq(bytes).map(|(segment, _)| segment)
    }

    /// Parses and fully verifies a segment byte image, returning the
    /// records and the recorded sequence number.
    ///
    /// # Errors
    ///
    /// As for [`Segment::decode`].
    pub fn decode_with_seq(bytes: &[u8]) -> Result<(Self, u64), CodecError> {
        if bytes.len() < 8 {
            return Err(CodecError::Truncated);
        }
        let (content, tail) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
        if fnv1a64(content) != stored {
            return Err(CodecError::Malformed(
                "segment checksum mismatch (corrupt or truncated file)".to_string(),
            ));
        }
        let header = SegmentHeader::parse(bytes)?;
        let base = usize::try_from(header.records_base)
            .map_err(|_| CodecError::Malformed("records region offset overflows".to_string()))?;
        let region = content.get(base..).ok_or(CodecError::Truncated)?;
        if header.records_len() != region.len() as u64 {
            return Err(CodecError::Malformed(format!(
                "records region is {} bytes but the directory describes {}",
                region.len(),
                header.records_len()
            )));
        }
        let mut records = Vec::with_capacity(header.entries.len());
        for e in &header.entries {
            let start = e.offset as usize;
            let end = start + e.len as usize;
            let body = &region[start..end];
            if fnv1a64(body) != e.fnv {
                return Err(CodecError::Malformed(format!(
                    "record 0x{:016x} failed its FNV check",
                    e.key
                )));
            }
            let mut slice = body;
            let value = get_value(&mut slice, &header.strings)?;
            if !slice.is_empty() {
                return Err(CodecError::Malformed(format!(
                    "record 0x{:016x} has {} trailing bytes",
                    e.key,
                    slice.len()
                )));
            }
            records.push((e.key, value));
        }
        Ok((Segment { records }, header.seq))
    }

    /// The content-addressed file name for this segment's `bytes`
    /// (`seg-<identity hash, hex>.dsrs`). The identity hash skips the
    /// `seq` field and both checksums, so identical record batches produce
    /// identical names *no matter when they were published* — a re-publish
    /// is idempotent (it rewrites the same file with a fresher seq). Bytes
    /// that are not a valid segment hash whole.
    #[must_use]
    pub fn content_name(bytes: &[u8]) -> String {
        let identity = SegmentHeader::parse(bytes)
            .ok()
            .and_then(|header| v2_identity(bytes, header.records_base));
        seg_name(identity.unwrap_or_else(|| fnv1a64(bytes)))
    }

    /// [`Segment::content_name`] of bytes whose `header` the caller
    /// already holds (from [`Segment::encode_indexed`]), skipping the
    /// header parse.
    pub(crate) fn content_name_indexed(bytes: &[u8], header: &SegmentHeader) -> String {
        seg_name(v2_identity(bytes, header.records_base).unwrap_or_else(|| fnv1a64(bytes)))
    }
}

fn seg_name(identity: u64) -> String {
    format!("seg-{identity:016x}.dsrs")
}

/// The seq-independent identity hash behind [`Segment::content_name`], for
/// a segment whose records region starts at `records_base`.
fn v2_identity(bytes: &[u8], records_base: u64) -> Option<u64> {
    let base = usize::try_from(records_base).ok()?;
    if bytes.len() < base + 8 {
        return None;
    }
    let mut h = Fnv64::new();
    h.update(&bytes[..8]); // magic + version
    h.update(&bytes[16..base - 8]); // strings + directory (skip seq)
    h.update(&bytes[base..bytes.len() - 8]); // records (skip both fnvs)
    Some(h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Segment {
        Segment::new(vec![
            (
                1,
                Value::Object(vec![
                    ("ipc".to_string(), Value::F64(2.5)),
                    ("cycles".to_string(), Value::U64(1000)),
                ]),
            ),
            (
                u64::MAX,
                Value::Object(vec![
                    ("ipc".to_string(), Value::F64(1.25)),
                    ("cycles".to_string(), Value::U64(2000)),
                ]),
            ),
        ])
    }

    #[test]
    fn encode_decode_round_trips_and_is_deterministic() {
        let seg = sample();
        let bytes = seg.encode();
        let back = Segment::decode(&bytes).expect("decode");
        assert_eq!(back, seg);
        assert_eq!(bytes, back.encode());
        // Field names are interned once: the second record costs indices,
        // not repeated strings.
        assert_eq!(bytes.windows(3).filter(|w| w == b"ipc").count(), 1);
    }

    #[test]
    fn seq_round_trips_and_does_not_change_identity() {
        let seg = sample();
        let a = seg.encode_with_seq(1);
        let b = seg.encode_with_seq(999);
        assert_ne!(a, b, "seq is in the bytes");
        assert_eq!(
            Segment::content_name(&a),
            Segment::content_name(&b),
            "…but not in the identity"
        );
        let (back, seq) = Segment::decode_with_seq(&b).expect("decode");
        assert_eq!(back, seg);
        assert_eq!(seq, 999);
    }

    #[test]
    fn header_parse_indexes_without_touching_records() {
        let seg = sample();
        let (bytes, indexed) = seg.encode_indexed(7);
        let header = SegmentHeader::parse(&bytes).expect("parse");
        assert_eq!(header, indexed, "the encoder's header is the parsed one");
        assert_eq!(header.seq, 7);
        assert_eq!(header.entries.len(), 2);
        assert_eq!(header.entries[0].key, 1);
        assert_eq!(header.entries[1].key, u64::MAX);
        assert_eq!(header.entries[0].offset, 0);
        assert_eq!(
            header.records_base + header.records_len() + 8,
            bytes.len() as u64
        );
        // A prefix that stops anywhere inside the header asks for more
        // bytes rather than failing — the progressive-read contract.
        let base = header.records_base as usize;
        for keep in 0..base {
            assert!(
                matches!(
                    SegmentHeader::parse(&bytes[..keep]),
                    Err(CodecError::Truncated)
                ),
                "prefix of {keep} bytes must read as truncated"
            );
        }
        // The full header parses even when the record bytes are absent.
        assert_eq!(SegmentHeader::parse(&bytes[..base]).expect("hdr"), header);
    }

    #[test]
    fn corruption_truncation_and_version_skew_are_rejected() {
        let bytes = sample().encode();
        for pos in [0, 5, 20, bytes.len() / 2, bytes.len() - 9] {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x10;
            assert!(
                Segment::decode(&corrupt).is_err(),
                "bit flip at {pos} must be rejected"
            );
        }
        for keep in [0, 10, bytes.len() - 1] {
            assert!(
                Segment::decode(&bytes[..keep]).is_err(),
                "truncation to {keep} bytes must be rejected"
            );
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(Segment::decode(&padded).is_err());
        // Version skew with a refreshed checksum reports precisely.
        let mut skew = bytes;
        skew[4] = 0xfe;
        let content_len = skew.len() - 8;
        let sum = fnv1a64(&skew[..content_len]);
        skew[content_len..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            Segment::decode(&skew),
            Err(CodecError::Malformed(why)) if why.contains("version")
        ));
    }

    #[test]
    fn empty_segments_are_valid() {
        let seg = Segment::new(Vec::new());
        let bytes = seg.encode();
        assert_eq!(Segment::decode(&bytes).unwrap(), seg);
        let header = SegmentHeader::parse(&bytes).unwrap();
        assert!(header.entries.is_empty());
    }

    #[test]
    fn content_names_track_content() {
        let a = sample().encode();
        let mut other = sample();
        other.records[0].0 = 2;
        let b = other.encode();
        assert_ne!(Segment::content_name(&a), Segment::content_name(&b));
        assert_eq!(Segment::content_name(&a), Segment::content_name(&a));
        assert!(Segment::content_name(&a).starts_with("seg-"));
        assert!(Segment::content_name(&a).ends_with(".dsrs"));
        let (bytes, header) = sample().encode_indexed(9);
        assert_eq!(
            Segment::content_name_indexed(&bytes, &header),
            Segment::content_name(&a),
            "indexed naming skips the parse, not the identity"
        );
    }
}
