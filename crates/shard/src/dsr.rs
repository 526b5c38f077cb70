//! The `.dsr` compact binary record format.
//!
//! JSON report exports are human-friendly but repeat the full scenario
//! (config + workload + seed) in every record — multi-kilobyte cells that
//! make a 10^5-cell grid impractical to ship between hosts. A `.dsr` file
//! stores the grid **once** and then only what cannot be derived from it:
//! one varint-packed `(cell index, results)` record per cell. Provenance
//! (workload, axis labels, scenario, cache key) is reconstructed from the
//! grid on read, bit-identical to what the sweep engine produced.
//!
//! ## Layout (all integers little-endian; `varint` is LEB128 as in
//! [`dsmt_isa::varint`])
//!
//! ```text
//! magic     4 bytes   b"DSR\0"
//! version   u32       DSR_FORMAT_VERSION
//! grid_len  varint    byte length of grid_json
//! grid_json bytes     canonical compact JSON of the SweepGrid
//! grid_hash u64       FNV-1a of grid_json (cross-check vs manifests)
//! shard_index varint  which shard this file covers
//! shard_count varint  total shards (1 for monolithic/merged files)
//! n_strings varint    string table: every distinct field name / string
//! strings   n ×       varint length + UTF-8 bytes, first-use order
//! n_records varint
//! records   n ×       cell varint, results (value encoding below)
//! checksum  u64       FNV-1a over every preceding byte
//! ```
//!
//! Results are encoded as a tagged tree mirroring the vendored serde
//! [`Value`]: tag byte, then `0`=null, `1`/`2`=false/true, `3`=u64 varint,
//! `4`=i64 zigzag varint, `5`=f64 as raw bits, `6`=string (varint index
//! into the string table), `7`=array (varint count + values), `8`=object
//! (varint count + (varint key index + value) pairs). Every record of a
//! file shares one object shape, so interning the field names in the table
//! reduces a record to its tag/varint payload — the per-record cost is
//! bytes of *data*, not repeated schema. Because the struct-to-`Value`
//! mapping is canonical (declaration-order fields, first-use table order,
//! shortest varints, exact float bits), encoding the same records always
//! yields the same bytes — which is what lets a merged `.dsr` be compared
//! byte-for-byte against a monolithic one, and what makes the trailing
//! checksum meaningful.
//!
//! Every decode error is fail-stop: bad magic, unknown version, checksum
//! mismatch, truncation, non-canonical varints, or a value tree that does
//! not match [`SimResults`] all reject the file rather than salvage it —
//! a corrupt shard must be re-run, not merged.
//!
//! The value encoding itself lives in [`dsmt_store::codec`] — the same
//! codec (and the same FNV checksum discipline) the sweep cache's store
//! segments use, so a record's bytes are identical wherever it is
//! persisted.

use dsmt_core::SimResults;
use dsmt_isa::varint::{get_uvarint, put_uvarint, VarintError};
use dsmt_sweep::{fnv1a64, RunRecord, SweepGrid, SweepReport};
use serde::{Deserialize, Serialize, Value};

pub use dsmt_store::codec::{get_raw_str, get_value, put_value, CodecError, StrTable};
use dsmt_store::codec::{get_u64_le, put_raw_str};

/// Bumped on any change to the `.dsr` byte layout.
pub const DSR_FORMAT_VERSION: u32 = 1;

const MAGIC: [u8; 4] = *b"DSR\0";

/// Errors from reading or reconstructing a `.dsr` file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DsrError {
    /// The file does not start with the `.dsr` magic.
    BadMagic,
    /// The file's format version is not [`DSR_FORMAT_VERSION`].
    UnsupportedVersion(u32),
    /// The file is shorter than a minimal `.dsr`.
    Truncated,
    /// The trailing checksum does not match the content (corruption or
    /// mid-file truncation).
    ChecksumMismatch,
    /// The stored grid hash does not match the stored grid bytes.
    GridHashMismatch,
    /// Structurally invalid content (bad varint, bad tag, bad UTF-8,
    /// header inconsistency, value tree not matching the expected shape).
    Malformed(String),
    /// An I/O error, carried as text so the error stays comparable.
    Io(String),
}

impl std::fmt::Display for DsrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DsrError::BadMagic => write!(f, "not a .dsr file (bad magic)"),
            DsrError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported .dsr version {v} (this build reads v{DSR_FORMAT_VERSION})"
                )
            }
            DsrError::Truncated => write!(f, ".dsr file truncated"),
            DsrError::ChecksumMismatch => write!(f, ".dsr checksum mismatch (corrupt file)"),
            DsrError::GridHashMismatch => write!(f, ".dsr grid hash mismatch (corrupt header)"),
            DsrError::Malformed(why) => write!(f, "malformed .dsr: {why}"),
            DsrError::Io(why) => write!(f, ".dsr i/o error: {why}"),
        }
    }
}

impl std::error::Error for DsrError {}

impl From<VarintError> for DsrError {
    fn from(e: VarintError) -> Self {
        match e {
            VarintError::Truncated => DsrError::Truncated,
            VarintError::Malformed => DsrError::Malformed("non-canonical varint".to_string()),
        }
    }
}

impl From<CodecError> for DsrError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated => DsrError::Truncated,
            CodecError::Malformed(why) => DsrError::Malformed(why),
        }
    }
}

/// One record: a grid cell index and its simulation results.
#[derive(Debug, Clone, PartialEq)]
pub struct DsrRecord {
    /// Cell index in grid order.
    pub cell: usize,
    /// The deterministic simulation outcome for that cell.
    pub results: SimResults,
}

/// An in-memory `.dsr` file: the grid plus the records it explains.
#[derive(Debug, Clone, PartialEq)]
pub struct DsrFile {
    /// The grid every record belongs to.
    pub grid: SweepGrid,
    /// Which shard of the grid this file covers.
    pub shard_index: usize,
    /// Total shards in the plan (1 for monolithic or merged files).
    pub shard_count: usize,
    /// The records, in the order they were written.
    pub records: Vec<DsrRecord>,
}

impl DsrFile {
    /// Packages a sweep report as a `.dsr` file. Only the identity part of
    /// each record (cell index + results) is stored; host telemetry
    /// (`perf`, wall times, hit/miss counters) is deliberately dropped so
    /// the bytes depend on nothing but the simulation outcome.
    #[must_use]
    pub fn from_report(
        grid: &SweepGrid,
        report: &SweepReport,
        shard_index: usize,
        shard_count: usize,
    ) -> Self {
        DsrFile {
            grid: grid.clone(),
            shard_index,
            shard_count,
            records: report
                .records
                .iter()
                .map(|r| DsrRecord {
                    cell: r.cell,
                    results: r.results.clone(),
                })
                .collect(),
        }
    }

    /// Serializes the file to its byte form.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let grid_json = serde::to_string(&self.grid);
        let values: Vec<Value> = self.records.iter().map(|r| r.results.to_value()).collect();
        let mut table = StrTable::default();
        for value in &values {
            table.collect(value);
        }

        let mut buf = Vec::with_capacity(grid_json.len() + 64 * self.records.len() + 64);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&DSR_FORMAT_VERSION.to_le_bytes());
        put_uvarint(&mut buf, grid_json.len() as u64);
        buf.extend_from_slice(grid_json.as_bytes());
        buf.extend_from_slice(&fnv1a64(grid_json.as_bytes()).to_le_bytes());
        put_uvarint(&mut buf, self.shard_index as u64);
        put_uvarint(&mut buf, self.shard_count as u64);
        put_uvarint(&mut buf, table.strings().len() as u64);
        for s in table.strings() {
            put_raw_str(&mut buf, s);
        }
        put_uvarint(&mut buf, self.records.len() as u64);
        for (record, value) in self.records.iter().zip(&values) {
            put_uvarint(&mut buf, record.cell as u64);
            put_value(&mut buf, value, &table);
        }
        buf.extend_from_slice(&fnv1a64(&buf).to_le_bytes());
        buf
    }

    /// Parses and fully verifies a `.dsr` byte image.
    ///
    /// # Errors
    ///
    /// Any [`DsrError`]; no partially decoded file is ever returned.
    pub fn decode(bytes: &[u8]) -> Result<Self, DsrError> {
        // Fixed header + empty grid + hash + three varints + checksum.
        if bytes.len() < MAGIC.len() + 4 + 1 + 8 + 3 + 8 {
            return Err(DsrError::Truncated);
        }
        let (content, tail) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
        if fnv1a64(content) != stored {
            return Err(DsrError::ChecksumMismatch);
        }

        let (magic, rest) = content.split_at(MAGIC.len());
        if magic != MAGIC {
            return Err(DsrError::BadMagic);
        }
        let (version, mut buf) = rest.split_first_chunk().expect("length checked above");
        let version = u32::from_le_bytes(*version);
        if version != DSR_FORMAT_VERSION {
            return Err(DsrError::UnsupportedVersion(version));
        }

        let grid_len = usize::try_from(get_uvarint(&mut buf)?)
            .map_err(|_| DsrError::Malformed("grid length overflow".to_string()))?;
        let grid_json = buf.split_off(..grid_len).ok_or(DsrError::Truncated)?;
        let grid_json = std::str::from_utf8(grid_json)
            .map_err(|_| DsrError::Malformed("grid JSON is not UTF-8".to_string()))?;
        if get_u64_le(&mut buf)? != fnv1a64(grid_json.as_bytes()) {
            return Err(DsrError::GridHashMismatch);
        }
        let grid: SweepGrid = serde::from_str(grid_json)
            .map_err(|e| DsrError::Malformed(format!("grid JSON: {e}")))?;

        let shard_index = usize::try_from(get_uvarint(&mut buf)?)
            .map_err(|_| DsrError::Malformed("shard index overflow".to_string()))?;
        let shard_count = usize::try_from(get_uvarint(&mut buf)?)
            .map_err(|_| DsrError::Malformed("shard count overflow".to_string()))?;
        if shard_count == 0 || shard_index >= shard_count {
            return Err(DsrError::Malformed(format!(
                "shard {shard_index} of {shard_count} is inconsistent"
            )));
        }
        let n_strings = get_uvarint(&mut buf)?;
        let mut strings = Vec::new();
        for _ in 0..n_strings {
            strings.push(get_raw_str(&mut buf)?);
        }
        let n_records = get_uvarint(&mut buf)?;
        let mut records = Vec::new();
        for _ in 0..n_records {
            let cell = usize::try_from(get_uvarint(&mut buf)?)
                .map_err(|_| DsrError::Malformed("cell index overflow".to_string()))?;
            let value = get_value(&mut buf, &strings)?;
            let results = SimResults::from_value(&value)
                .map_err(|e| DsrError::Malformed(format!("results: {e}")))?;
            records.push(DsrRecord { cell, results });
        }
        if !buf.is_empty() {
            return Err(DsrError::Malformed(format!(
                "{} trailing bytes after the last record",
                buf.len()
            )));
        }
        Ok(DsrFile {
            grid,
            shard_index,
            shard_count,
            records,
        })
    }

    /// Writes the encoded file atomically (temp file + rename, parent
    /// directories created), so concurrent writers — e.g. two `--missing`
    /// recoverers racing past a stale claim — can never interleave bytes.
    ///
    /// # Errors
    ///
    /// [`DsrError::Io`] on filesystem failure.
    pub fn write(&self, path: impl AsRef<std::path::Path>) -> Result<(), DsrError> {
        let path = path.as_ref();
        dsmt_store::atomic_write(path, &self.encode())
            .map_err(|e| DsrError::Io(format!("{}: {e}", path.display())))
    }

    /// Reads and verifies a `.dsr` file from disk.
    ///
    /// # Errors
    ///
    /// [`DsrError::Io`] on filesystem failure, otherwise any decode error.
    pub fn read(path: impl AsRef<std::path::Path>) -> Result<Self, DsrError> {
        let path = path.as_ref();
        let bytes =
            std::fs::read(path).map_err(|e| DsrError::Io(format!("{}: {e}", path.display())))?;
        Self::decode(&bytes)
    }

    /// Reconstructs full [`RunRecord`]s (scenario, labels, cache key) by
    /// joining the stored results back onto the grid.
    ///
    /// # Errors
    ///
    /// [`DsrError::Malformed`] if a record references a cell outside the
    /// grid.
    pub fn to_records(&self) -> Result<Vec<RunRecord>, DsrError> {
        let cells = self.grid.cells();
        self.records
            .iter()
            .map(|record| {
                let cell = cells.get(record.cell).ok_or_else(|| {
                    DsrError::Malformed(format!(
                        "record references cell {} but the grid has {} cells",
                        record.cell,
                        cells.len()
                    ))
                })?;
                Ok(RunRecord {
                    cell: cell.index,
                    grid: self.grid.name.clone(),
                    workload: cell.workload_label.clone(),
                    labels: cell.labels.clone(),
                    key: cell.scenario.cache_key_hex(),
                    scenario: cell.scenario.clone(),
                    results: record.results.clone(),
                    perf: zero_perf(),
                })
            })
            .collect()
    }

    /// Reconstructs a [`SweepReport`] from the file. Host telemetry
    /// (hit/miss counters, wall seconds) is not stored in `.dsr`, so those
    /// fields are zero.
    ///
    /// # Errors
    ///
    /// As for [`DsrFile::to_records`].
    pub fn to_report(&self) -> Result<SweepReport, DsrError> {
        Ok(SweepReport {
            grid: self.grid.name.clone(),
            records: self.to_records()?,
            cache_hits: 0,
            cache_misses: 0,
            wall_secs: 0.0,
        })
    }
}

/// The all-zero telemetry used for records replayed from disk (matches the
/// canonical-JSON deserialization behaviour of `dsmt-sweep`).
fn zero_perf() -> dsmt_sweep::CellPerf {
    dsmt_sweep::CellPerf {
        wall_secs: 0.0,
        instructions_per_sec: 0.0,
        sim_cycles_per_sec: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsmt_core::SimConfig;
    use dsmt_sweep::{Axis, SweepEngine, WorkloadSpec};

    fn small_grid() -> SweepGrid {
        SweepGrid::new("dsr", SimConfig::paper_multithreaded(1))
            .with_workload(WorkloadSpec::benchmark("swim"))
            .with_axis(Axis::l2_latencies(&[1, 16]))
            .with_budget(4_000)
    }

    fn small_file() -> DsrFile {
        let grid = small_grid();
        let report = SweepEngine::new(1).without_cache().run(&grid);
        DsrFile::from_report(&grid, &report, 0, 1)
    }

    #[test]
    fn encode_decode_round_trips() {
        let file = small_file();
        let bytes = file.encode();
        let back = DsrFile::decode(&bytes).expect("decode");
        assert_eq!(back, file);
        // Encoding is deterministic (checksummed formats require it).
        assert_eq!(bytes, back.encode());
    }

    #[test]
    fn records_reconstruct_with_full_provenance() {
        let grid = small_grid();
        let report = SweepEngine::new(1).without_cache().run(&grid);
        let file = DsrFile::from_report(&grid, &report, 0, 1);
        let records = file.to_records().expect("records");
        assert_eq!(records, report.records);
        // Equality ignores perf, but the canonical JSON must match too.
        assert_eq!(
            serde::to_string(&records),
            serde::to_string(&report.records)
        );
        let rebuilt = file.to_report().expect("report");
        assert_eq!(rebuilt.records, report.records);
        assert_eq!(rebuilt.grid, "dsr");
    }

    #[test]
    fn header_fields_are_checked() {
        let file = small_file();
        let bytes = file.encode();

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        // The checksum still matches only if we recompute it; a plain flip
        // fails the checksum first (corruption is corruption).
        assert_eq!(DsrFile::decode(&bad_magic), Err(DsrError::ChecksumMismatch));
        // With a fixed-up checksum, the magic check reports precisely.
        let fixed = refresh_checksum(bad_magic);
        assert_eq!(DsrFile::decode(&fixed), Err(DsrError::BadMagic));

        let mut bad_version = bytes.clone();
        bad_version[4] = 0xff;
        let fixed = refresh_checksum(bad_version);
        assert_eq!(
            DsrFile::decode(&fixed),
            Err(DsrError::UnsupportedVersion(0x0000_00ff))
        );

        assert_eq!(DsrFile::decode(&[]), Err(DsrError::Truncated));
        assert_eq!(DsrFile::decode(&bytes[..20]), Err(DsrError::Truncated));
    }

    fn refresh_checksum(mut bytes: Vec<u8>) -> Vec<u8> {
        let content_len = bytes.len() - 8;
        let sum = fnv1a64(&bytes[..content_len]);
        bytes[content_len..].copy_from_slice(&sum.to_le_bytes());
        bytes
    }

    #[test]
    fn corruption_and_truncation_are_rejected() {
        let bytes = small_file().encode();
        // Flip one bit anywhere: the checksum catches it.
        for pos in [8, bytes.len() / 2, bytes.len() - 9] {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x40;
            assert!(
                DsrFile::decode(&corrupt).is_err(),
                "bit flip at {pos} must be rejected"
            );
        }
        // Drop trailing bytes: rejected at every length.
        for keep in [bytes.len() - 1, bytes.len() - 8, 30] {
            assert!(
                DsrFile::decode(&bytes[..keep]).is_err(),
                "truncation to {keep} bytes must be rejected"
            );
        }
        // Appending bytes invalidates the checksum too.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(DsrFile::decode(&padded).is_err());
    }

    #[test]
    fn shard_header_consistency_is_enforced() {
        let mut file = small_file();
        file.shard_index = 2;
        file.shard_count = 2;
        // encode() writes what it is given; decode() rejects it.
        assert!(matches!(
            DsrFile::decode(&file.encode()),
            Err(DsrError::Malformed(_))
        ));
    }

    #[test]
    fn out_of_range_cells_fail_reconstruction() {
        let mut file = small_file();
        file.records[0].cell = 99;
        let decoded = DsrFile::decode(&file.encode()).expect("structurally valid");
        assert!(matches!(decoded.to_records(), Err(DsrError::Malformed(_))));
    }

    #[test]
    fn file_round_trips_on_disk() {
        let file = small_file();
        let path = std::env::temp_dir().join(format!(
            "dsmt-dsr-test-{}/nested/out.dsr",
            std::process::id()
        ));
        file.write(&path).expect("write");
        let back = DsrFile::read(&path).expect("read");
        assert_eq!(back, file);
        assert!(matches!(
            DsrFile::read("/nonexistent/x.dsr"),
            Err(DsrError::Io(_))
        ));
        let _ = std::fs::remove_dir_all(path.parent().unwrap().parent().unwrap());
    }

    // The value-codec edge-case and garbage-rejection tests moved to
    // `dsmt_store::codec` with the codec itself; the golden fixture in
    // crates/shard/tests/golden pins that the relocated codec still
    // produces the exact `.dsr` bytes.

    #[test]
    fn dsr_is_at_least_5x_smaller_than_the_json_export_for_the_bench_grid() {
        // The same 12-cell grid shape as the perf gates' bench grid (the
        // acceptance criterion's reference grid). The one-time grid header amortizes
        // over the cells; per-record cost is varint data, not schema.
        let grid = SweepGrid::new(
            "bench",
            SimConfig::paper_multithreaded(1).with_queue_scaling(true),
        )
        .with_workload(WorkloadSpec::spec_mix(3_000))
        .with_axis(Axis::threads(&[1, 2]))
        .with_axis(Axis::decoupled(&[true, false]))
        .with_axis(Axis::l2_latencies(&[16, 64, 256]))
        .with_budget(10_000);
        let report = SweepEngine::new(2).without_cache().run(&grid);
        let dsr = DsrFile::from_report(&grid, &report, 0, 1).encode();
        let json = dsmt_sweep::export::to_json(&report);
        assert!(
            dsr.len() * 5 <= json.len(),
            ".dsr ({} bytes) should be ≥5x smaller than JSON ({} bytes)",
            dsr.len(),
            json.len()
        );
    }
}
