//! The content-addressed record store: a directory of segments, a schema
//! marker and an in-memory key index. The store only grows: segments are
//! published, never rewritten, and nothing a reader does writes to disk.
//!
//! Since segment format v2 the index is built from **key-directory
//! headers**: open reads and checksum-verifies each segment's header —
//! O(keys), not O(total bytes). Record values stay on disk: every
//! [`Store::get`] reads the record's slice, verifies it against the
//! per-record FNV recorded in the directory and decodes an owned copy, so
//! a handle's memory is its headers, however long it lives and however
//! many records it serves.

use std::collections::HashMap;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::time::SystemTime;

use serde::{Deserialize, Serialize, Value};

use crate::codec::{get_value, CodecError};
use crate::fnv1a64;
use crate::lock::atomic_write;
use crate::segment::{RecordEntry, Segment, SegmentHeader};

/// The schema marker file kept at the store root. Its presence is what
/// distinguishes a store directory from anything else; its `schema` field
/// is the *client's* schema version (e.g. the sweep cache schema), checked
/// fail-stop at open so readers never decode records written under
/// different semantics.
const MARKER_NAME: &str = "STORE.json";

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Marker {
    format: String,
    version: u32,
    schema: u32,
}

/// Why a store could not be opened or written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An I/O error, carried as text so the error stays comparable.
    Io(String),
    /// The marker records a different client schema than the caller's.
    SchemaMismatch {
        /// Schema recorded in the marker.
        found: u32,
        /// Schema this build expects.
        expected: u32,
    },
    /// A segment file failed verification (checksum, truncation, codec).
    Corrupt {
        /// The offending file name.
        file: String,
        /// What about it failed.
        why: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(why) => write!(f, "store i/o error: {why}"),
            StoreError::SchemaMismatch { found, expected } => write!(
                f,
                "store schema v{found} does not match this build (v{expected}); \
                 delete the directory or point elsewhere"
            ),
            StoreError::Corrupt { file, why } => {
                write!(
                    f,
                    "corrupt segment {file}: {why} (delete it to re-simulate)"
                )
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e.to_string())
    }
}

/// One indexed segment: its on-disk metadata plus the header fields a
/// record read needs. Records decode from their `(offset, len)` slice on
/// every read, after their FNV verifies.
#[derive(Debug)]
struct LoadedSegment {
    name: String,
    path: PathBuf,
    bytes: u64,
    modified: SystemTime,
    seq: u64,
    strings: Vec<String>,
    records_base: u64,
    entries: Vec<RecordEntry>,
}

impl LoadedSegment {
    /// Indexes a segment from its verified header.
    fn new(
        name: String,
        path: PathBuf,
        bytes: u64,
        modified: SystemTime,
        header: SegmentHeader,
    ) -> Self {
        LoadedSegment {
            name,
            path,
            bytes,
            modified,
            seq: header.seq,
            strings: header.strings,
            records_base: header.records_base,
            entries: header.entries,
        }
    }

    /// The store's one precedence order, ascending (later entries win):
    /// recorded sequence number first, then mtime, then name. Racing
    /// writers can stamp the same seq into distinct batches; the
    /// `(mtime, name)` tail breaks that tie the same way on every handle
    /// and every reopen.
    fn precedence(&self) -> (u64, SystemTime, &str) {
        (self.seq, self.modified, &self.name)
    }
}

/// On-disk metadata of one segment (see [`Store::segment_infos`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentInfo {
    /// Segment file name (`seg-<hash>.dsrs`).
    pub name: String,
    /// File size in bytes.
    pub bytes: u64,
    /// Records held.
    pub records: usize,
    /// File mtime (written on publish).
    pub modified: SystemTime,
    /// Publish sequence number recorded in the header.
    pub seq: u64,
}

/// A content-addressed store of `(u64 key, Value)` records.
///
/// The store is a directory: a `STORE.json` schema marker, a `segments/`
/// directory of immutable checksummed [`Segment`] files, and a `locks/`
/// directory for [`LockFile`](crate::LockFile) claims. Open verifies every
/// segment's *header* (fail-stop: one corrupt header rejects the open, with
/// the offending file named) and indexes the keys it records; every
/// [`Store::get`] reads and decodes its record from disk, verified against
/// the per-record FNV from the header. Nothing decoded is kept, so a
/// long-lived handle holds headers only. Duplicate keys resolve by the
/// recorded publish **sequence number** (then mtime, then name): later
/// publishes shadow earlier ones as a recorded fact, immune to clock
/// skew and backdated mtimes.
///
/// Writers batch records and [`Store::publish`] them as one new segment —
/// an atomic-rename of a content-addressed file, so concurrent publishers
/// (other threads, other hosts on a shared mount) can never corrupt each
/// other: distinct batches get distinct names, identical batches collapse
/// to one file.
///
/// # Example
///
/// ```
/// use dsmt_store::Store;
/// use serde::Value;
///
/// let dir = std::env::temp_dir().join(format!("store-doc-{}", std::process::id()));
/// # let _ = std::fs::remove_dir_all(&dir);
/// let mut store = Store::open(&dir, 1).unwrap();
/// store.publish(vec![(7, Value::U64(42))]).unwrap();
/// assert_eq!(store.get(7), Some(Value::U64(42)));
///
/// // A second handle sees the open-time snapshot, and picks up foreign
/// // segments on refresh().
/// let mut other = Store::open(&dir, 1).unwrap();
/// store.publish(vec![(8, Value::Bool(true))]).unwrap();
/// assert!(other.get(8).is_none());
/// other.refresh().unwrap();
/// assert_eq!(other.get(8), Some(Value::Bool(true)));
/// # let _ = std::fs::remove_dir_all(&dir);
/// ```
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    segments: Vec<LoadedSegment>,
    index: HashMap<u64, (usize, usize)>,
    /// Mtime of `segments/` observed just before the last full scan, used
    /// by [`Store::refresh`] to skip rescanning an unchanged directory.
    scanned_dir_mtime: Option<SystemTime>,
    /// Highest sequence number seen across loaded segments; the next
    /// publish stamps `max_seq + 1`.
    max_seq: u64,
}

/// How much older than "now" the segments directory's mtime must be before
/// [`Store::refresh`] trusts an unchanged mtime and skips the rescan.
/// Directory mtimes can be coarse (whole seconds on some filesystems), so a
/// publish landing within the same mtime granule as our scan would be
/// invisible to a pure mtime compare; within this window we always rescan.
const REFRESH_MTIME_GUARD: std::time::Duration = std::time::Duration::from_secs(2);

/// First read issued against a segment at open. Headers are ~20 bytes
/// per record plus the string table, so one 64 KiB read covers segments of
/// roughly 3000 records; larger headers double the read until it fits.
const HEADER_PREFIX_BYTES: u64 = 64 * 1024;

impl Store {
    /// Opens (creating if needed) a store at `dir` for client schema
    /// `schema`, indexing every segment from its header. Each open bumps
    /// the `store.opens` counter.
    ///
    /// # Errors
    ///
    /// [`StoreError::SchemaMismatch`] if the marker disagrees with
    /// `schema`, [`StoreError::Corrupt`] if a segment header fails
    /// verification (or records a version other than 2), or
    /// [`StoreError::Io`].
    pub fn open(dir: impl Into<PathBuf>, schema: u32) -> Result<Self, StoreError> {
        let started = std::time::Instant::now();
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let marker_path = dir.join(MARKER_NAME);
        match std::fs::read_to_string(&marker_path) {
            Ok(text) => {
                let marker: Marker = serde::from_str(&text).map_err(|e| StoreError::Corrupt {
                    file: MARKER_NAME.to_string(),
                    why: e.to_string(),
                })?;
                if marker.format != "dsmt-store" || marker.version != 1 {
                    return Err(StoreError::Corrupt {
                        file: MARKER_NAME.to_string(),
                        why: format!("unknown format {}/v{}", marker.format, marker.version),
                    });
                }
                if marker.schema != schema {
                    return Err(StoreError::SchemaMismatch {
                        found: marker.schema,
                        expected: schema,
                    });
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                let marker = Marker {
                    format: "dsmt-store".to_string(),
                    version: 1,
                    schema,
                };
                atomic_write(&marker_path, serde::to_string_pretty(&marker).as_bytes())?;
            }
            Err(e) => return Err(e.into()),
        }
        std::fs::create_dir_all(dir.join("segments"))?;
        let mut store = Store {
            dir,
            segments: Vec::new(),
            index: HashMap::new(),
            scanned_dir_mtime: None,
            max_seq: 0,
        };
        store.load_segments()?;
        let open_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        dsmt_obs::counter!("store.opens").inc();
        dsmt_obs::info!(
            "store.open",
            segments = store.segments.len(),
            records = store.index.len(),
            open_us = open_us
        );
        Ok(store)
    }

    /// The schema version recorded in the `STORE.json` marker at `dir`, or
    /// `None` when no marker exists (the directory is not yet a store).
    /// Lets tooling (`dsmt store stat`) open a store of *any* client
    /// schema without guessing.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on an unreadable or foreign marker,
    /// [`StoreError::Io`] on filesystem failure.
    pub fn marker_schema(dir: impl AsRef<Path>) -> Result<Option<u32>, StoreError> {
        match std::fs::read_to_string(dir.as_ref().join(MARKER_NAME)) {
            Ok(text) => {
                let marker: Marker = serde::from_str(&text).map_err(|e| StoreError::Corrupt {
                    file: MARKER_NAME.to_string(),
                    why: e.to_string(),
                })?;
                if marker.format != "dsmt-store" || marker.version != 1 {
                    return Err(StoreError::Corrupt {
                        file: MARKER_NAME.to_string(),
                        why: format!("unknown format {}/v{}", marker.format, marker.version),
                    });
                }
                Ok(Some(marker.schema))
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// The store's root directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn segments_dir(&self) -> PathBuf {
        self.dir.join("segments")
    }

    /// The directory lock claims ([`LockFile`](crate::LockFile)) live in.
    #[must_use]
    pub fn locks_dir(&self) -> PathBuf {
        self.dir.join("locks")
    }

    /// Header-indexes every segment on disk.
    fn load_segments(&mut self) -> Result<(), StoreError> {
        self.segments.clear();
        self.index.clear();
        self.max_seq = 0;
        self.scanned_dir_mtime = self.stat_segments_dir();
        let mut files: Vec<(SystemTime, String, PathBuf, u64)> = Vec::new();
        for entry in std::fs::read_dir(self.segments_dir())?.filter_map(Result::ok) {
            let path = entry.path();
            if path.extension().is_none_or(|x| x != "dsrs") {
                continue;
            }
            let meta = entry.metadata()?;
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            files.push((
                meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
                name,
                path,
                meta.len(),
            ));
        }
        // Deterministic segment numbering even on coarse-mtime filesystems
        // (precedence itself is handled per-key in attach).
        files.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        for (modified, name, path, bytes) in files {
            let loaded = self.load_segment_file(name, path, bytes, modified)?;
            self.attach(loaded);
        }
        Ok(())
    }

    /// Builds a header-indexed [`LoadedSegment`] from one on-disk file.
    fn load_segment_file(
        &self,
        name: String,
        path: PathBuf,
        bytes: u64,
        modified: SystemTime,
    ) -> Result<LoadedSegment, StoreError> {
        let corrupt = |name: &str, why: String| StoreError::Corrupt {
            file: name.to_string(),
            why,
        };
        // Parse the checksummed header from a bounded prefix, doubling the
        // read until the whole header is in.
        let mut prefix = read_prefix(&path, HEADER_PREFIX_BYTES.min(bytes))?;
        let header = loop {
            match SegmentHeader::parse(&prefix) {
                Ok(h) => break h,
                Err(CodecError::Truncated) if (prefix.len() as u64) < bytes => {
                    let cap = (prefix.len() as u64 * 2).min(bytes);
                    prefix = read_prefix(&path, cap)?;
                }
                Err(e) => return Err(corrupt(&name, e.to_string())),
            }
        };
        // Bound the directory against the actual file before trusting any
        // (offset, len): the records region must exactly fill the space
        // between the header and the trailing file checksum.
        let region = bytes.checked_sub(header.records_base + 8).ok_or_else(|| {
            corrupt(
                &name,
                "file ends inside the segment header region".to_string(),
            )
        })?;
        if header.records_len() != region {
            return Err(corrupt(
                &name,
                format!(
                    "record directory describes {} bytes but the file holds {}",
                    header.records_len(),
                    region
                ),
            ));
        }
        dsmt_obs::counter!("store.header_index_hits").inc();
        Ok(LoadedSegment::new(name, path, bytes, modified, header))
    }

    /// Adds a loaded segment and merges its keys into the index under the
    /// precedence rule — a newly discovered segment only claims a key from
    /// a segment it actually outranks.
    fn attach(&mut self, loaded: LoadedSegment) {
        self.max_seq = self.max_seq.max(loaded.seq);
        let seg_idx = self.segments.len();
        self.segments.push(loaded);
        let (segments, index) = (&self.segments, &mut self.index);
        let seg = &segments[seg_idx];
        for (rec_idx, entry) in seg.entries.iter().enumerate() {
            match index.entry(entry.key) {
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert((seg_idx, rec_idx));
                }
                std::collections::hash_map::Entry::Occupied(mut slot) => {
                    let (winner, _) = *slot.get();
                    // Within one segment, write order decides (a batch may
                    // repeat a key); across segments, precedence does.
                    if winner == seg_idx || segments[winner].precedence() < seg.precedence() {
                        slot.insert((seg_idx, rec_idx));
                    }
                }
            }
        }
    }

    /// Reads, verifies and decodes the record at `(seg, rec)` — the
    /// verify-on-read point: the record's bytes are read from their
    /// `(offset, len)` slice and checked against the FNV recorded in the
    /// header before they are decoded.
    fn decode_at(&self, seg: usize, rec: usize) -> Result<Value, StoreError> {
        let s = &self.segments[seg];
        let e = &s.entries[rec];
        let corrupt = |why: String| StoreError::Corrupt {
            file: s.name.clone(),
            why,
        };
        let mut f = std::fs::File::open(&s.path)?;
        f.seek(SeekFrom::Start(s.records_base + e.offset))?;
        let len = usize::try_from(e.len)
            .map_err(|_| corrupt(format!("record 0x{:016x} length overflows", e.key)))?;
        let mut raw = vec![0u8; len];
        f.read_exact(&mut raw)?;
        if fnv1a64(&raw) != e.fnv {
            return Err(corrupt(format!(
                "record 0x{:016x} failed its FNV check",
                e.key
            )));
        }
        let mut slice = raw.as_slice();
        let value = get_value(&mut slice, &s.strings)
            .map_err(|err| corrupt(format!("record 0x{:016x}: {err}", e.key)))?;
        if !slice.is_empty() {
            return Err(corrupt(format!(
                "record 0x{:016x} has {} trailing bytes",
                e.key,
                slice.len()
            )));
        }
        dsmt_obs::counter!("store.records_lazy_decoded").inc();
        Ok(value)
    }

    /// Looks up the record stored under `key` with the highest precedence,
    /// decoding an owned copy from disk.
    ///
    /// A record whose bytes fail verification at this point reads as
    /// *absent*: the
    /// corruption is counted (`store.record_corrupt`) and logged, and
    /// callers that re-simulate on miss heal the store by publishing a
    /// fresh copy. Callers that must distinguish corrupt from missing use
    /// [`Store::try_get`].
    #[must_use]
    pub fn get(&self, key: u64) -> Option<Value> {
        let &(seg, rec) = self.index.get(&key)?;
        match self.decode_at(seg, rec) {
            Ok(value) => Some(value),
            Err(e) => {
                dsmt_obs::counter!("store.record_corrupt").inc();
                dsmt_obs::warn!(
                    "store.get_corrupt",
                    key = format!("{key:016x}"),
                    why = e.to_string()
                );
                None
            }
        }
    }

    /// Like [`Store::get`], but surfaces a record that exists and fails
    /// verification as [`StoreError::Corrupt`] instead of `None`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when the winning record's bytes fail their
    /// FNV check or decode, [`StoreError::Io`] if reading them fails.
    pub fn try_get(&self, key: u64) -> Result<Option<Value>, StoreError> {
        match self.index.get(&key) {
            None => Ok(None),
            Some(&(seg, rec)) => self.decode_at(seg, rec).map(Some),
        }
    }

    /// The file name of the segment currently winning `key`.
    #[must_use]
    pub fn segment_name_of(&self, key: u64) -> Option<&str> {
        let &(seg, _) = self.index.get(&key)?;
        Some(&self.segments[seg].name)
    }

    /// Whether any record is stored under `key`.
    #[must_use]
    pub fn contains(&self, key: u64) -> bool {
        self.index.contains_key(&key)
    }

    /// Number of distinct keys.
    #[must_use]
    pub fn record_count(&self) -> usize {
        self.index.len()
    }

    /// Number of segments on disk.
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Total bytes held by segment files.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.bytes).sum()
    }

    /// Metadata for every segment, ascending precedence order (the last
    /// entry wins any key it shares with an earlier one).
    #[must_use]
    pub fn segment_infos(&self) -> Vec<SegmentInfo> {
        let mut order: Vec<usize> = (0..self.segments.len()).collect();
        order.sort_by(|&a, &b| {
            self.segments[a]
                .precedence()
                .cmp(&self.segments[b].precedence())
        });
        order
            .into_iter()
            .map(|i| self.segment_infos_for(i))
            .collect()
    }

    /// Publishes `records` as one new immutable segment (atomic rename of
    /// a content-addressed file, stamped with the next sequence number)
    /// and indexes it from the header the encoder built, exactly as a
    /// reopen would: the records are read back from the file like any
    /// other segment's, and this handle keeps none of them. Returns the new segment's metadata, or `None` for
    /// an empty batch.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure.
    pub fn publish(
        &mut self,
        records: Vec<(u64, Value)>,
    ) -> Result<Option<SegmentInfo>, StoreError> {
        if records.is_empty() {
            return Ok(None);
        }
        let seq = self.max_seq + 1;
        let (bytes, header) = Segment::new(records).encode_indexed(seq);
        let name = Segment::content_name_indexed(&bytes, &header);
        let path = self.segments_dir().join(&name);
        atomic_write(&path, &bytes)?;
        let meta = std::fs::metadata(&path)?;
        self.max_seq = seq;
        dsmt_obs::counter!("store.segments_published").inc();
        dsmt_obs::counter!("store.bytes_published").add(meta.len());
        dsmt_obs::info!(
            "store.publish",
            segment = name.as_str(),
            records = header.entries.len(),
            seq = seq,
            bytes = meta.len()
        );
        // Segment identity skips the seq, so an identical batch
        // re-published lands on the same file — now rewritten with the
        // store's freshest seq. Re-stamp the in-memory copy and re-assert
        // its records as the shadow winners; a reopen reads the same seq
        // from the header and resolves keys identically.
        if let Some(pos) = self.segments.iter().position(|s| s.name == name) {
            self.segments[pos].seq = seq;
            self.segments[pos].modified = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
            for (rec_idx, entry) in header.entries.iter().enumerate() {
                self.index.insert(entry.key, (pos, rec_idx));
            }
            return Ok(Some(self.segment_infos_for(pos)));
        }
        let modified = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
        self.attach(LoadedSegment::new(name, path, meta.len(), modified, header));
        Ok(Some(self.segment_infos_for(self.segments.len() - 1)))
    }

    fn segment_infos_for(&self, idx: usize) -> SegmentInfo {
        let s = &self.segments[idx];
        SegmentInfo {
            name: s.name.clone(),
            bytes: s.bytes,
            records: s.entries.len(),
            modified: s.modified,
            seq: s.seq,
        }
    }

    /// Mtime of the segments directory itself, which the kernel bumps on
    /// every entry add/remove — a one-stat change detector for publishes.
    fn stat_segments_dir(&self) -> Option<SystemTime> {
        std::fs::metadata(self.segments_dir())
            .and_then(|m| m.modified())
            .ok()
    }

    /// Brings the handle up to date with the segments directory: picks up
    /// segments other processes published since open (or the last
    /// refresh), and drops segments whose files are gone (a peer deleted
    /// them), re-resolving their keys from the segments that remain.
    /// Surviving segments keep their in-memory headers. Returns how many
    /// new segments were found.
    ///
    /// Polling callers (`dsmt shard status --watch`) hit this every few seconds; re-statting every
    /// segment each poll is wasted work when nothing changed. Adding or
    /// removing a segment file always bumps the `segments/` directory's
    /// own mtime, so an unchanged dir mtime means an unchanged listing —
    /// the scan is skipped (counted by `store.refresh_skipped`). Because
    /// directory mtimes can be coarse, the skip only triggers once the
    /// mtime is at least `REFRESH_MTIME_GUARD` old: a change racing our
    /// previous scan inside one mtime granule is rescanned, never missed.
    ///
    /// # Errors
    ///
    /// As for [`Store::open`] (a newly appeared corrupt segment fails).
    pub fn refresh(&mut self) -> Result<usize, StoreError> {
        let dir_mtime = self.stat_segments_dir();
        if let (Some(prev), Some(cur)) = (self.scanned_dir_mtime, dir_mtime) {
            let settled = SystemTime::now()
                .duration_since(cur)
                .is_ok_and(|age| age >= REFRESH_MTIME_GUARD);
            if prev == cur && settled {
                dsmt_obs::counter!("store.refresh_skipped").inc();
                return Ok(0);
            }
        }
        self.scanned_dir_mtime = dir_mtime;
        let known: std::collections::HashSet<String> =
            self.segments.iter().map(|s| s.name.clone()).collect();
        let mut listed: std::collections::HashSet<String> = std::collections::HashSet::new();
        let mut fresh: Vec<(SystemTime, String, PathBuf, u64)> = Vec::new();
        for entry in std::fs::read_dir(self.segments_dir())?.filter_map(Result::ok) {
            let path = entry.path();
            if path.extension().is_none_or(|x| x != "dsrs") {
                continue;
            }
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if !known.contains(&name) {
                let meta = entry.metadata()?;
                fresh.push((
                    meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
                    name.clone(),
                    path,
                    meta.len(),
                ));
            }
            listed.insert(name);
        }
        let before = self.segments.len();
        self.segments.retain(|s| listed.contains(&s.name));
        if self.segments.len() < before {
            dsmt_obs::counter!("store.segments_vanished")
                .add((before - self.segments.len()) as u64);
            self.reindex();
        }
        fresh.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        let found = fresh.len();
        for (modified, name, path, bytes) in fresh {
            dsmt_obs::counter!("store.segments_read").inc();
            dsmt_obs::counter!("store.bytes_read").add(bytes);
            let loaded = self.load_segment_file(name, path, bytes, modified)?;
            // attach() compares precedence per key, so a freshly
            // discovered segment with an *older* seq (published before
            // ours but seen late) cannot steal keys it already lost.
            self.attach(loaded);
        }
        Ok(found)
    }

    /// Rebuilds the key index under the store's one precedence rule:
    /// highest `(seq, mtime, name)` wins — the same order [`Store::open`]
    /// applies, so the in-memory view and a reopen always resolve a
    /// duplicated key identically.
    fn reindex(&mut self) {
        let mut order: Vec<usize> = (0..self.segments.len()).collect();
        order.sort_by(|&a, &b| {
            self.segments[a]
                .precedence()
                .cmp(&self.segments[b].precedence())
        });
        self.index.clear();
        for seg_idx in order {
            for (rec_idx, entry) in self.segments[seg_idx].entries.iter().enumerate() {
                self.index.insert(entry.key, (seg_idx, rec_idx));
            }
        }
    }
}

/// Reads up to `cap` bytes from the start of `path`.
fn read_prefix(path: &Path, cap: u64) -> std::io::Result<Vec<u8>> {
    let f = std::fs::File::open(path)?;
    let mut buf = Vec::with_capacity(usize::try_from(cap).unwrap_or(usize::MAX));
    f.take(cap).read_to_end(&mut buf)?;
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dsmt-store-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn value(n: u64) -> Value {
        Value::Object(vec![
            ("n".to_string(), Value::U64(n)),
            ("label".to_string(), Value::Str(format!("record-{n}"))),
        ])
    }

    #[test]
    fn publish_then_get_round_trips_across_reopen() {
        let dir = temp_store("roundtrip");
        let mut store = Store::open(&dir, 3).expect("open");
        assert!(store.get(1).is_none());
        store.publish(vec![(1, value(1)), (2, value(2))]).unwrap();
        assert_eq!(store.get(1), Some(value(1)));
        assert_eq!(store.record_count(), 2);
        drop(store);
        let store = Store::open(&dir, 3).expect("reopen");
        assert_eq!(store.get(2), Some(value(2)));
        assert_eq!(store.segment_count(), 1);
        assert!(store.total_bytes() > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn later_segments_shadow_earlier_ones() {
        let dir = temp_store("shadow");
        let mut store = Store::open(&dir, 1).expect("open");
        store.publish(vec![(7, value(1))]).unwrap();
        store.publish(vec![(7, value(2))]).unwrap();
        assert_eq!(store.get(7), Some(value(2)));
        assert_eq!(store.record_count(), 1);
        assert_eq!(store.segment_count(), 2);
        drop(store);
        // The shadow survives a reload (recorded seq order — no sleeps
        // needed, unlike the old mtime rule).
        let store = Store::open(&dir, 1).expect("reopen");
        assert_eq!(store.get(7), Some(value(2)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sequence_numbers_are_stamped_and_monotonic_across_reopen() {
        let dir = temp_store("seq-monotonic");
        let mut store = Store::open(&dir, 1).expect("open");
        store.publish(vec![(1, value(1))]).unwrap();
        store.publish(vec![(2, value(2))]).unwrap();
        drop(store);
        let mut store = Store::open(&dir, 1).expect("reopen");
        store.publish(vec![(3, value(3))]).unwrap();
        let mut seqs: Vec<u64> = store.segment_infos().iter().map(|i| i.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, vec![1, 2, 3], "reopen continues the sequence");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sequence_precedence_survives_backdated_mtimes() {
        let dir = temp_store("seq-backdate");
        let mut store = Store::open(&dir, 1).expect("open");
        store.publish(vec![(7, value(1))]).unwrap();
        store.publish(vec![(7, value(2))]).unwrap();
        // Adversarially backdate the *winning* segment's file mtime far
        // into the past. The old (mtime, name) rule would now resolve 7 to
        // the stale value on reopen; the recorded seq must not.
        let infos = store.segment_infos();
        let winner = infos.iter().max_by_key(|i| i.seq).unwrap();
        assert_eq!(winner.seq, 2);
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(dir.join("segments").join(&winner.name))
            .unwrap();
        f.set_modified(SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1))
            .unwrap();
        drop(f);
        drop(store);
        let store = Store::open(&dir, 1).expect("reopen");
        assert_eq!(
            store.get(7),
            Some(value(2)),
            "recorded seq outranks a backdated mtime"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn schema_mismatch_fails_stop() {
        let dir = temp_store("schema");
        drop(Store::open(&dir, 2).expect("open v2"));
        assert_eq!(Store::marker_schema(&dir), Ok(Some(2)));
        assert_eq!(
            Store::open(&dir, 3).unwrap_err(),
            StoreError::SchemaMismatch {
                found: 2,
                expected: 3
            }
        );
        assert_eq!(Store::marker_schema(temp_store("no-marker")), Ok(None));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_segment_headers_are_rejected_by_name_at_open() {
        let dir = temp_store("corrupt");
        let mut store = Store::open(&dir, 1).expect("open");
        let info = store.publish(vec![(1, value(1))]).unwrap().unwrap();
        drop(store);
        let path = dir.join("segments").join(&info.name);
        let mut bytes = std::fs::read(&path).unwrap();
        // Byte 8 is the seq field: inside the checksummed header, so even
        // a header-only indexed open must reject it.
        bytes[8] ^= 0xff;
        std::fs::write(&path, bytes).unwrap();
        match Store::open(&dir, 1) {
            Err(StoreError::Corrupt { file, .. }) => assert_eq!(file, info.name),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segments_of_any_other_version_are_corrupt() {
        let dir = temp_store("version");
        let mut store = Store::open(&dir, 1).expect("open");
        let info = store.publish(vec![(1, value(1))]).unwrap().unwrap();
        drop(store);
        let path = dir.join("segments").join(&info.name);
        let mut bytes = std::fs::read(&path).unwrap();
        for version in [1u32, 3] {
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            match Store::open(&dir, 1) {
                Err(StoreError::Corrupt { file, why }) => {
                    assert_eq!(file, info.name);
                    assert!(why.contains("version"), "{why}");
                }
                other => panic!("v{version}: expected Corrupt, got {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_corruption_fails_at_get_not_open() {
        let dir = temp_store("record-corrupt");
        let mut store = Store::open(&dir, 1).expect("open");
        let info = store
            .publish(vec![(1, value(1)), (2, value(2))])
            .unwrap()
            .unwrap();
        drop(store);
        let path = dir.join("segments").join(&info.name);
        let bytes = std::fs::read(&path).unwrap();
        let header = crate::SegmentHeader::parse(&bytes).expect("header");
        let mut corrupt = bytes.clone();
        // Flip a byte of record 2's body; the header stays intact.
        let base = header.records_base as usize + header.entries[1].offset as usize;
        corrupt[base] ^= 0xff;
        std::fs::write(&path, &corrupt).unwrap();

        // Indexed open succeeds — the header verifies — and the damage
        // surfaces at the corrupted record only, as Corrupt via try_get
        // and as a logged miss via get. The intact record still reads.
        let store = Store::open(&dir, 1).expect("indexed open reads headers only");
        assert_eq!(store.get(1), Some(value(1)));
        assert!(matches!(
            store.try_get(2),
            Err(StoreError::Corrupt { file, .. }) if file == info.name
        ));
        assert_eq!(store.get(2), None, "corrupt reads as absent via get()");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_publisher_reads_its_own_segment_from_disk() {
        let dir = temp_store("publisher-reads-disk");
        let mut store = Store::open(&dir, 1).expect("open");
        let info = store
            .publish(vec![(5, value(5)), (6, value(6))])
            .unwrap()
            .unwrap();
        assert_eq!(store.get(5), Some(value(5)));
        // Flip one byte of record 5 in the just-published file: the
        // publishing handle must notice, because it keeps no copy.
        let path = dir.join("segments").join(&info.name);
        let mut bytes = std::fs::read(&path).unwrap();
        let header = crate::SegmentHeader::parse(&bytes).expect("header");
        bytes[header.records_base as usize + header.entries[0].offset as usize] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            store.try_get(5),
            Err(StoreError::Corrupt { file, .. }) if file == info.name
        ));
        assert_eq!(store.get(6), Some(value(6)), "the intact record reads");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn identical_batches_collapse_to_one_segment() {
        let dir = temp_store("idempotent");
        let mut store = Store::open(&dir, 1).expect("open");
        let a = store.publish(vec![(1, value(1))]).unwrap().unwrap();
        let b = store.publish(vec![(1, value(1))]).unwrap().unwrap();
        assert_eq!(a.name, b.name);
        assert_eq!(store.segment_count(), 1);
        assert!(b.seq > a.seq, "the re-publish re-stamps the seq");
        assert!(store.publish(Vec::new()).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn republished_batches_win_shadowing_in_memory_and_on_reopen() {
        let dir = temp_store("republish-shadow");
        let mut store = Store::open(&dir, 1).expect("open");
        store.publish(vec![(7, value(1))]).unwrap();
        store.publish(vec![(7, value(2))]).unwrap();
        // Re-publishing the first batch collapses onto its old file but
        // rewrites it with a fresher seq: it must become the shadow winner
        // both for this handle and for a reopen (which orders by seq).
        store.publish(vec![(7, value(1))]).unwrap();
        assert_eq!(store.segment_count(), 2);
        assert_eq!(store.get(7), Some(value(1)), "in-memory view");
        drop(store);
        let store = Store::open(&dir, 1).expect("reopen");
        assert_eq!(store.get(7), Some(value(1)), "reopened view agrees");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn refresh_picks_up_foreign_segments() {
        let dir = temp_store("refresh");
        let mut a = Store::open(&dir, 1).expect("open a");
        let mut b = Store::open(&dir, 1).expect("open b");
        a.publish(vec![(1, value(1))]).unwrap();
        assert!(b.get(1).is_none(), "open-time snapshot");
        assert_eq!(b.refresh().expect("refresh"), 1);
        assert_eq!(b.get(1), Some(value(1)));
        assert_eq!(b.refresh().expect("refresh again"), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The counts and lookups a live handle must agree with a fresh open on.
    fn view(store: &Store, keys: std::ops::Range<u64>) -> (usize, usize, Vec<bool>) {
        (
            store.record_count(),
            store.segment_count(),
            keys.map(|k| store.contains(k)).collect(),
        )
    }

    #[test]
    fn refresh_drops_segments_a_peer_removed() {
        for peer_replaces in [false, true] {
            let dir = temp_store(&format!("refresh-vanish-{peer_replaces}"));
            let mut a = Store::open(&dir, 1).expect("open a");
            for n in 0..4 {
                a.publish(vec![(n, value(n)), (9, value(n))]).unwrap();
            }
            // A decodes from disk, as a long-lived daemon handle would.
            let mut a = Store::open(&dir, 1).expect("reopen a");
            assert_eq!(a.get(9), Some(value(3)));
            // The peer removes every segment file; when it replaces them,
            // it first publishes the live records as one new segment.
            let mut b = Store::open(&dir, 1).expect("open b");
            let old = b.segment_infos();
            if peer_replaces {
                let live = [0, 1, 2, 3, 9].map(|k| (k, b.get(k).expect("live record")));
                b.publish(live.to_vec()).unwrap();
            }
            for info in &old {
                std::fs::remove_file(dir.join("segments").join(&info.name)).unwrap();
            }
            a.refresh().expect("refresh");
            let fresh = Store::open(&dir, 1).expect("fresh open");
            assert_eq!(fresh.segment_count(), usize::from(peer_replaces));
            assert_eq!(
                view(&a, 0..10),
                view(&fresh, 0..10),
                "replaced: {peer_replaces}"
            );
            assert_eq!(a.get(9), fresh.get(9));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Forces the segments directory's mtime into the past so the refresh
    /// short-circuit's settle guard is satisfied without sleeping.
    fn backdate_segments_dir(dir: &Path) {
        let seg_dir = dir.join("segments");
        let f = std::fs::File::open(&seg_dir).expect("open segments dir");
        f.set_modified(SystemTime::now() - std::time::Duration::from_secs(30))
            .expect("backdate dir mtime");
    }

    #[test]
    fn refresh_short_circuits_on_unchanged_dir_mtime() {
        let dir = temp_store("refresh-skip");
        let mut a = Store::open(&dir, 1).expect("open a");
        let mut b = Store::open(&dir, 1).expect("open b");
        a.publish(vec![(1, value(1))]).unwrap();
        assert_eq!(b.refresh().expect("refresh"), 1);

        // The publish just bumped the dir mtime, so the mtime is too fresh
        // to trust; a refresh now must still rescan (finding nothing new).
        assert_eq!(b.refresh().expect("fresh-mtime refresh"), 0);

        // Settle the mtime into the past: the next refresh rescans once
        // (mtime changed), then the one after short-circuits.
        backdate_segments_dir(&dir);
        assert_eq!(b.refresh().expect("post-backdate rescan"), 0);
        let skipped = dsmt_obs::registry().counter("store.refresh_skipped");
        let before = skipped.get();
        assert_eq!(b.refresh().expect("short-circuit"), 0);
        assert!(
            skipped.get() > before,
            "unchanged settled dir mtime should skip the scan"
        );

        // A new publish bumps the dir mtime, which defeats the
        // short-circuit: the publish is observed, never missed.
        a.publish(vec![(2, value(2))]).unwrap();
        assert_eq!(b.refresh().expect("sees new segment"), 1);
        assert_eq!(b.get(2), Some(value(2)));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
