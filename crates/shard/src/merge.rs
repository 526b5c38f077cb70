//! Reassembles shard outputs into one full report.

use dsmt_sweep::{RunRecord, SweepReport};

use crate::{DsrError, DsrFile, ShardManifest, ShardPlanError, Transport};

/// Why a set of shard files could not be merged.
#[derive(Debug, Clone, PartialEq)]
pub enum MergeError {
    /// The manifest itself is invalid or stale.
    Manifest(ShardPlanError),
    /// A shard file is structurally broken.
    Shard(DsrError),
    /// A shard file belongs to a different grid or plan shape.
    ForeignShard {
        /// Index claimed by the offending file.
        shard_index: usize,
        /// What about it disagrees with the manifest.
        why: String,
    },
    /// The same shard index was supplied more than once.
    DuplicateShard(usize),
    /// No file covers this shard index.
    MissingShard(usize),
    /// An output for this shard exists on the transport but cannot be
    /// used: its store record fails verification (corrupt bytes, a
    /// foreign value, a key collision; the reason is carried). Distinct
    /// from [`MergeError::MissingShard`] so the operator repairs the right
    /// thing — `--missing` re-runs both, but a corrupt record on disk is
    /// worth knowing about.
    UnusableShard {
        /// The shard whose output is unusable.
        shard_index: usize,
        /// What is wrong with it.
        why: String,
    },
    /// A shard's records do not match its manifest cell assignment.
    CellMismatch {
        /// The offending shard.
        shard_index: usize,
        /// What about its cells disagrees.
        why: String,
    },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::Manifest(e) => write!(f, "manifest: {e}"),
            MergeError::Shard(e) => write!(f, "shard file: {e}"),
            MergeError::ForeignShard { shard_index, why } => {
                write!(f, "shard {shard_index} does not belong to this plan: {why}")
            }
            MergeError::DuplicateShard(i) => write!(f, "shard {i} supplied more than once"),
            MergeError::MissingShard(i) => write!(f, "shard {i} is missing"),
            MergeError::UnusableShard { shard_index, why } => {
                write!(f, "shard {shard_index} has an unusable output: {why}")
            }
            MergeError::CellMismatch { shard_index, why } => {
                write!(f, "shard {shard_index} cell coverage is wrong: {why}")
            }
        }
    }
}

impl std::error::Error for MergeError {}

impl From<ShardPlanError> for MergeError {
    fn from(e: ShardPlanError) -> Self {
        MergeError::Manifest(e)
    }
}

impl From<DsrError> for MergeError {
    fn from(e: DsrError) -> Self {
        MergeError::Shard(e)
    }
}

/// Merges shard `.dsr` files (any order) into the full-grid
/// [`SweepReport`].
///
/// Every shard of the manifest must be present exactly once, belong to the
/// same grid and plan shape, and cover exactly the cells the manifest
/// assigned it. The merged records are in grid order, so packaging the
/// result with [`DsrFile::from_report`] yields bytes identical to a
/// monolithic run's `.dsr` — the acceptance check the CI `shard-smoke` job
/// enforces.
///
/// Host telemetry is not stored in `.dsr` files, so the merged report's
/// hit/miss counters and wall seconds are zero; identity (records) is what
/// merging reconstructs.
///
/// # Errors
///
/// The first [`MergeError`] found, checking the manifest first, then each
/// file's provenance, then coverage.
pub fn merge_shards(
    manifest: &ShardManifest,
    shards: &[DsrFile],
) -> Result<SweepReport, MergeError> {
    manifest.validate()?;
    let num_shards = manifest.num_shards();

    let mut by_index: Vec<Option<&DsrFile>> = vec![None; num_shards];
    for file in shards {
        if file.grid != manifest.grid {
            return Err(MergeError::ForeignShard {
                shard_index: file.shard_index,
                why: "grid differs from the manifest's".to_string(),
            });
        }
        if file.shard_count != num_shards {
            return Err(MergeError::ForeignShard {
                shard_index: file.shard_index,
                why: format!(
                    "file says {} shards, manifest has {num_shards}",
                    file.shard_count
                ),
            });
        }
        let slot = by_index
            .get_mut(file.shard_index)
            .ok_or_else(|| MergeError::ForeignShard {
                shard_index: file.shard_index,
                why: format!("index out of range (manifest has {num_shards} shards)"),
            })?;
        if slot.is_some() {
            return Err(MergeError::DuplicateShard(file.shard_index));
        }
        *slot = Some(file);
    }
    if let Some(missing) = by_index.iter().position(Option::is_none) {
        return Err(MergeError::MissingShard(missing));
    }

    // Scatter records into grid order, verifying each shard covers exactly
    // its manifest assignment.
    let mut merged: Vec<Option<RunRecord>> = (0..manifest.grid.len()).map(|_| None).collect();
    for (shard_index, file) in by_index.iter().enumerate() {
        let file = file.expect("all shards present");
        let mut cells: Vec<usize> = file.records.iter().map(|r| r.cell).collect();
        cells.sort_unstable();
        let assigned = &manifest.shards[shard_index];
        if &cells != assigned {
            let why = match cells.iter().zip(assigned).find(|(got, want)| got != want) {
                Some((got, want)) => {
                    format!("file has cell {got} where the manifest assigns cell {want}")
                }
                None if cells.len() < assigned.len() => {
                    format!("file is missing cell {}", assigned[cells.len()])
                }
                None => format!("file has extra cell {}", cells[assigned.len()]),
            };
            return Err(MergeError::CellMismatch { shard_index, why });
        }
        for record in file.to_records()? {
            let cell = record.cell;
            merged[cell] = Some(record);
        }
    }

    Ok(SweepReport {
        grid: manifest.grid.name.clone(),
        records: merged
            .into_iter()
            .map(|r| r.expect("partition covers every cell"))
            .collect(),
        cache_hits: 0,
        cache_misses: 0,
        wall_secs: 0.0,
    })
}

/// Collects every shard of the plan from `transport` and merges them —
/// the transport-aware face of [`merge_shards`]. The transport refreshes
/// its handle first (via [`Transport::read_for_merge`]), so a merger can
/// run the moment `dsmt shard status` reports the store complete.
///
/// Diagnostics stay precise: an absent shard reports
/// [`MergeError::MissingShard`], while an output that *exists* but cannot
/// be used (an unverifiable store record) reports
/// [`MergeError::UnusableShard`] carrying the reason. Either way,
/// `dsmt shard run --missing` heals the shard for a retry.
///
/// # Errors
///
/// [`MergeError::MissingShard`]/[`MergeError::UnusableShard`] for any
/// unavailable shard, plus everything [`merge_shards`] checks.
pub fn merge_from(
    manifest: &ShardManifest,
    transport: &mut Transport,
) -> Result<SweepReport, MergeError> {
    manifest.validate()?;
    let _span = dsmt_obs::span("shard.merge")
        .field("grid", manifest.grid.name.as_str())
        .field("shards", manifest.num_shards());
    let mut files = Vec::with_capacity(manifest.num_shards());
    for index in 0..manifest.num_shards() {
        match transport.read_for_merge(manifest, index) {
            Ok(Some(file)) => files.push(file),
            Ok(None) => return Err(MergeError::MissingShard(index)),
            Err(why) => {
                return Err(MergeError::UnusableShard {
                    shard_index: index,
                    why,
                })
            }
        }
    }
    let report = merge_shards(manifest, &files)?;
    dsmt_obs::info!(
        "shard.merged",
        grid = manifest.grid.name.as_str(),
        records = report.records.len()
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{plan, run_shard, ShardStrategy};
    use dsmt_core::SimConfig;
    use dsmt_sweep::{Axis, SweepEngine, SweepGrid, WorkloadSpec};

    fn manifest() -> ShardManifest {
        let grid = SweepGrid::new("merge", SimConfig::paper_multithreaded(1))
            .with_workload(WorkloadSpec::spec_mix(1_500))
            .with_axis(Axis::l2_latencies(&[1, 16, 64]))
            .with_axis(Axis::threads(&[1, 2]))
            .with_budget(4_000);
        plan(&grid, 3, ShardStrategy::Contiguous).unwrap()
    }

    fn shard_files(m: &ShardManifest) -> Vec<DsrFile> {
        let engine = SweepEngine::new(2).without_cache();
        (0..m.num_shards())
            .map(|i| run_shard(m, i, &engine).unwrap().dsr)
            .collect()
    }

    #[test]
    fn merge_reassembles_grid_order_in_any_input_order() {
        let m = manifest();
        let mut files = shard_files(&m);
        files.rotate_left(2); // arbitrary order
        let merged = merge_shards(&m, &files).expect("merge");
        let mono = SweepEngine::new(1).without_cache().run(&m.grid);
        assert_eq!(merged.records, mono.records);
        // And byte-identical once packaged the same way.
        let merged_dsr = DsrFile::from_report(&m.grid, &merged, 0, 1);
        let mono_dsr = DsrFile::from_report(&m.grid, &mono, 0, 1);
        assert_eq!(merged_dsr.encode(), mono_dsr.encode());
    }

    #[test]
    fn missing_duplicate_and_foreign_shards_are_detected() {
        let m = manifest();
        let files = shard_files(&m);

        assert_eq!(
            merge_shards(&m, &files[..2]),
            Err(MergeError::MissingShard(2))
        );

        let mut dup = files.clone();
        dup[2] = files[0].clone();
        assert_eq!(merge_shards(&m, &dup), Err(MergeError::DuplicateShard(0)));

        let mut foreign = files.clone();
        foreign[1].grid.budget += 1;
        assert!(matches!(
            merge_shards(&m, &foreign),
            Err(MergeError::ForeignShard { shard_index: 1, .. })
        ));

        let mut wrong_count = files.clone();
        wrong_count[1].shard_count = 4;
        assert!(matches!(
            merge_shards(&m, &wrong_count),
            Err(MergeError::ForeignShard { shard_index: 1, .. })
        ));

        let mut short = files;
        short[1].records.pop();
        assert!(matches!(
            merge_shards(&m, &short),
            Err(MergeError::CellMismatch { shard_index: 1, .. })
        ));
    }

    #[test]
    fn merge_from_reports_missing_and_unusable_shards_distinctly() {
        let dir = std::env::temp_dir().join(format!("dsmt-merge-from-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let m = manifest();
        let files = shard_files(&m);
        let mut transport = Transport::store(&dir).expect("store transport");

        // Nothing in the store: the first absent shard is named.
        assert_eq!(
            merge_from(&m, &mut transport),
            Err(MergeError::MissingShard(0))
        );
        // Shards 0 and 2 published, a foreign value under shard 1's key:
        // shard 1 is reported as unusable (with the reason), not missing.
        for file in [&files[0], &files[2]] {
            transport.publish(&m, file).unwrap();
        }
        dsmt_store::Store::open(&dir, dsmt_sweep::CACHE_SCHEMA_VERSION)
            .unwrap()
            .publish(vec![(
                m.shard_key(1),
                serde::Value::Str("junk".to_string()),
            )])
            .unwrap();
        match merge_from(&m, &mut transport) {
            Err(MergeError::UnusableShard {
                shard_index: 1,
                why,
            }) => {
                assert!(why.contains("shard-output"), "{why}");
            }
            other => panic!("expected UnusableShard for shard 1, got {other:?}"),
        }
        // Healed: the merge goes through.
        transport.publish(&m, &files[1]).unwrap();
        let merged = merge_from(&m, &mut transport).expect("merge");
        assert_eq!(merged.records.len(), m.grid.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_manifest_fails_before_any_file_is_touched() {
        let m = manifest();
        let files = shard_files(&m);
        let mut stale = m;
        stale.grid_hash = "0000000000000000".to_string();
        assert!(matches!(
            merge_shards(&stale, &files),
            Err(MergeError::Manifest(
                ShardPlanError::GridHashMismatch { .. }
            ))
        ));
    }
}
