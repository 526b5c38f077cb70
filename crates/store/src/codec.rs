//! The canonical tagged binary encoding of serde [`Value`] trees.
//!
//! This is the **one** value codec of the persistence layer: `.dsr` shard
//! files and store segments both encode records with it, so a record's
//! bytes are identical wherever it is persisted — which is what lets a
//! merged `.dsr` be compared byte-for-byte against a monolithic one, and
//! what makes trailing checksums meaningful.
//!
//! A value is a tag byte followed by its payload: `0`=null, `1`/`2`=
//! false/true, `3`=u64 varint, `4`=i64 zigzag varint, `5`=f64 as raw bits,
//! `6`=string (varint index into a per-file string table), `7`=array
//! (varint count + values), `8`=object (varint count + (varint key index +
//! value) pairs). Varints are LEB128 as in [`dsmt_isa::varint`], and the
//! decoder rejects non-canonical (overlong) forms.
//!
//! Because the struct-to-[`Value`] mapping is canonical (declaration-order
//! fields, first-use table order, shortest varints, exact float bits),
//! encoding the same records always yields the same bytes.

use dsmt_isa::varint::{get_uvarint, put_uvarint, VarintError};
use dsmt_isa::{get_ivarint, put_ivarint};
use serde::Value;

/// Errors from decoding the binary value encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value did.
    Truncated,
    /// Structurally invalid content (bad tag, non-canonical varint, string
    /// id outside the table, non-UTF-8 string bytes).
    Malformed(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "value encoding truncated"),
            CodecError::Malformed(why) => write!(f, "malformed value encoding: {why}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<VarintError> for CodecError {
    fn from(e: VarintError) -> Self {
        match e {
            VarintError::Truncated => CodecError::Truncated,
            VarintError::Malformed => CodecError::Malformed("non-canonical varint".to_string()),
        }
    }
}

const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_U64: u8 = 3;
const TAG_I64: u8 = 4;
const TAG_F64: u8 = 5;
const TAG_STR: u8 = 6;
const TAG_ARRAY: u8 = 7;
const TAG_OBJECT: u8 = 8;

/// The per-file intern table: every distinct string (object field names
/// and string values) is stored once in first-use order, and value trees
/// reference it by index. Records of one file share their object shape, so
/// this turns the repeated schema into a one-time cost.
#[derive(Debug, Default)]
pub struct StrTable {
    strings: Vec<String>,
    index: std::collections::HashMap<String, u64>,
}

impl StrTable {
    /// Interns every string of `value` (depth-first, keys before values)
    /// in first-use order.
    pub fn collect(&mut self, value: &Value) {
        match value {
            Value::Str(s) => self.intern(s),
            Value::Array(items) => items.iter().for_each(|v| self.collect(v)),
            Value::Object(entries) => {
                for (key, item) in entries {
                    self.intern(key);
                    self.collect(item);
                }
            }
            _ => {}
        }
    }

    /// The interned strings in first-use order (the table a file stores).
    #[must_use]
    pub fn strings(&self) -> &[String] {
        &self.strings
    }

    fn intern(&mut self, s: &str) {
        if !self.index.contains_key(s) {
            self.index.insert(s.to_string(), self.strings.len() as u64);
            self.strings.push(s.to_string());
        }
    }

    fn id(&self, s: &str) -> u64 {
        *self
            .index
            .get(s)
            .expect("string was interned during collect")
    }
}

/// Appends the binary encoding of a [`Value`] tree to `buf`. Every string
/// in the tree must have been [`StrTable::collect`]ed into `table` first.
///
/// # Panics
///
/// Panics if the tree contains a string missing from `table` (an encoder
/// bug, not an input condition).
pub fn put_value(buf: &mut Vec<u8>, value: &Value, table: &StrTable) {
    match value {
        Value::Null => buf.push(TAG_NULL),
        Value::Bool(false) => buf.push(TAG_FALSE),
        Value::Bool(true) => buf.push(TAG_TRUE),
        Value::U64(n) => {
            buf.push(TAG_U64);
            put_uvarint(buf, *n);
        }
        Value::I64(n) => {
            buf.push(TAG_I64);
            put_ivarint(buf, *n);
        }
        Value::F64(x) => {
            buf.push(TAG_F64);
            buf.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            buf.push(TAG_STR);
            put_uvarint(buf, table.id(s));
        }
        Value::Array(items) => {
            buf.push(TAG_ARRAY);
            put_uvarint(buf, items.len() as u64);
            for item in items {
                put_value(buf, item, table);
            }
        }
        Value::Object(entries) => {
            buf.push(TAG_OBJECT);
            put_uvarint(buf, entries.len() as u64);
            for (key, item) in entries {
                put_uvarint(buf, table.id(key));
                put_value(buf, item, table);
            }
        }
    }
}

/// Decodes one binary [`Value`] tree from the front of `buf`, resolving
/// string indices against `strings` (the decoded table).
///
/// # Errors
///
/// [`CodecError::Truncated`] or [`CodecError::Malformed`].
pub fn get_value(buf: &mut &[u8], strings: &[String]) -> Result<Value, CodecError> {
    let &tag = buf.split_off_first().ok_or(CodecError::Truncated)?;
    match tag {
        TAG_NULL => Ok(Value::Null),
        TAG_FALSE => Ok(Value::Bool(false)),
        TAG_TRUE => Ok(Value::Bool(true)),
        TAG_U64 => Ok(Value::U64(get_uvarint(buf)?)),
        TAG_I64 => Ok(Value::I64(get_ivarint(buf)?)),
        TAG_F64 => Ok(Value::F64(f64::from_bits(get_u64_le(buf)?))),
        TAG_STR => Ok(Value::Str(get_interned(buf, strings)?)),
        TAG_ARRAY => {
            let n = get_uvarint(buf)?;
            let mut items = Vec::new();
            for _ in 0..n {
                items.push(get_value(buf, strings)?);
            }
            Ok(Value::Array(items))
        }
        TAG_OBJECT => {
            let n = get_uvarint(buf)?;
            let mut entries = Vec::new();
            for _ in 0..n {
                let key = get_interned(buf, strings)?;
                entries.push((key, get_value(buf, strings)?));
            }
            Ok(Value::Object(entries))
        }
        tag => Err(CodecError::Malformed(format!("unknown value tag {tag}"))),
    }
}

fn get_interned(buf: &mut &[u8], strings: &[String]) -> Result<String, CodecError> {
    let id = get_uvarint(buf)?;
    strings
        .get(usize::try_from(id).unwrap_or(usize::MAX))
        .cloned()
        .ok_or_else(|| {
            CodecError::Malformed(format!(
                "string id {id} out of table range ({} entries)",
                strings.len()
            ))
        })
}

/// Decodes a length-prefixed raw string (a string-table entry).
///
/// # Errors
///
/// [`CodecError::Truncated`] or [`CodecError::Malformed`] (non-UTF-8).
pub fn get_raw_str(buf: &mut &[u8]) -> Result<String, CodecError> {
    let len = usize::try_from(get_uvarint(buf)?)
        .map_err(|_| CodecError::Malformed("string length overflow".to_string()))?;
    let bytes = buf.split_off(..len).ok_or(CodecError::Truncated)?;
    String::from_utf8(bytes.to_vec())
        .map_err(|_| CodecError::Malformed("string is not UTF-8".to_string()))
}

/// Appends a length-prefixed raw string (a string-table entry).
pub fn put_raw_str(buf: &mut Vec<u8>, s: &str) {
    put_uvarint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// Reads a little-endian `u64` from the front of `buf`.
///
/// # Errors
///
/// [`CodecError::Truncated`] when fewer than 8 bytes remain.
pub fn get_u64_le(buf: &mut &[u8]) -> Result<u64, CodecError> {
    let (raw, rest) = buf.split_first_chunk().ok_or(CodecError::Truncated)?;
    *buf = rest;
    Ok(u64::from_le_bytes(*raw))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsmt_isa::varint::put_uvarint;

    #[test]
    fn value_codec_round_trips_edge_values() {
        let tree = Value::Object(vec![
            ("null".to_string(), Value::Null),
            ("t".to_string(), Value::Bool(true)),
            ("f".to_string(), Value::Bool(false)),
            ("zero".to_string(), Value::U64(0)),
            ("max".to_string(), Value::U64(u64::MAX)),
            ("neg".to_string(), Value::I64(i64::MIN)),
            ("pi".to_string(), Value::F64(std::f64::consts::PI)),
            ("nan".to_string(), Value::F64(f64::NAN)),
            ("ninf".to_string(), Value::F64(f64::NEG_INFINITY)),
            ("s".to_string(), Value::Str("héllo,\nworld".to_string())),
            ("empty".to_string(), Value::Str(String::new())),
            (
                "arr".to_string(),
                Value::Array(vec![Value::U64(1), Value::Array(vec![]), Value::Null]),
            ),
        ]);
        let mut table = StrTable::default();
        table.collect(&tree);
        let mut buf = Vec::new();
        put_value(&mut buf, &tree, &table);
        let strings = table.strings().to_vec();
        let back = get_value(&mut buf.as_slice(), &strings).expect("decode");
        // NaN != NaN under PartialEq; compare bit-exactly via re-encode.
        let mut buf2 = Vec::new();
        put_value(&mut buf2, &back, &table);
        assert_eq!(buf, buf2);
    }

    #[test]
    fn value_codec_rejects_garbage() {
        let no_strings: Vec<String> = Vec::new();
        assert_eq!(
            get_value(&mut [].as_slice(), &no_strings),
            Err(CodecError::Truncated)
        );
        assert!(matches!(
            get_value(&mut [99u8].as_slice(), &no_strings),
            Err(CodecError::Malformed(_))
        ));
        // A string id outside the table.
        let mut buf = Vec::new();
        buf.push(TAG_STR);
        put_uvarint(&mut buf, 7);
        assert!(matches!(
            get_value(&mut buf.as_slice(), &no_strings),
            Err(CodecError::Malformed(_))
        ));
        // Truncated f64.
        let buf = vec![TAG_F64, 0, 1, 2];
        assert_eq!(
            get_value(&mut buf.as_slice(), &no_strings),
            Err(CodecError::Truncated)
        );
        // Table decoding rejects oversize and non-UTF-8 strings.
        let mut buf = Vec::new();
        put_uvarint(&mut buf, 100);
        buf.extend_from_slice(b"short");
        assert_eq!(get_raw_str(&mut buf.as_slice()), Err(CodecError::Truncated));
        let mut buf = Vec::new();
        put_uvarint(&mut buf, 2);
        buf.extend_from_slice(&[0xff, 0xfe]);
        assert!(matches!(
            get_raw_str(&mut buf.as_slice()),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn raw_strings_round_trip() {
        let mut buf = Vec::new();
        put_raw_str(&mut buf, "héllo");
        put_raw_str(&mut buf, "");
        let mut slice = buf.as_slice();
        assert_eq!(get_raw_str(&mut slice).unwrap(), "héllo");
        assert_eq!(get_raw_str(&mut slice).unwrap(), "");
        assert!(slice.is_empty());
    }
}
