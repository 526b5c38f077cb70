//! Deterministic grid partitioning and the shard manifest.
//!
//! A [`ShardManifest`] is the unit of coordination between hosts: it embeds
//! the full [`SweepGrid`] (so a shard runner needs no other input), the
//! grid's content hash (so a stale or hand-edited manifest is rejected
//! instead of silently running the wrong cells), and the explicit
//! cell-index assignment of every shard (so executor and merger can verify
//! coverage exactly rather than re-deriving it).

use dsmt_sweep::{fnv1a64, SweepGrid};
use serde::{Deserialize, Serialize};

/// Bumped when the manifest layout or its validation rules change; older
/// manifests are then rejected instead of being misread.
pub const MANIFEST_SCHEMA_VERSION: u32 = 1;

/// How cells are assigned to shards: cell `c` goes to shard `c % N`,
/// which spreads the cost gradient of a swept axis (e.g. rising L2
/// latency) evenly across shards. Planning the same grid twice yields
/// byte-identical manifests.
///
/// A manifest records its strategy by name, so a manifest naming any other
/// strategy fails to load instead of being misread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShardStrategy {
    /// Cell `c` goes to shard `c % N`.
    Strided,
}

/// Why a plan could not be produced, or a manifest failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardPlanError {
    /// The grid has no cells.
    EmptyGrid,
    /// The shard count was zero.
    ZeroShards,
    /// The manifest schema version is not [`MANIFEST_SCHEMA_VERSION`].
    SchemaMismatch {
        /// Version found in the manifest.
        found: u32,
    },
    /// The stored grid hash does not match the embedded grid (stale or
    /// hand-edited manifest).
    GridHashMismatch {
        /// Hash stored in the manifest.
        stored: String,
        /// Hash recomputed from the embedded grid.
        computed: String,
    },
    /// The shard assignment does not partition the cell space exactly.
    BadPartition(String),
    /// The manifest JSON could not be parsed.
    Unparseable(String),
}

impl std::fmt::Display for ShardPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardPlanError::EmptyGrid => write!(f, "grid has no cells to shard"),
            ShardPlanError::ZeroShards => write!(f, "shard count must be at least 1"),
            ShardPlanError::SchemaMismatch { found } => write!(
                f,
                "manifest schema v{found} does not match this build (v{MANIFEST_SCHEMA_VERSION})"
            ),
            ShardPlanError::GridHashMismatch { stored, computed } => write!(
                f,
                "stale manifest: stored grid hash {stored} != computed {computed}"
            ),
            ShardPlanError::BadPartition(why) => {
                write!(f, "shards do not partition the grid: {why}")
            }
            ShardPlanError::Unparseable(why) => write!(f, "unreadable manifest: {why}"),
        }
    }
}

impl std::error::Error for ShardPlanError {}

/// The stable content hash of a grid: FNV-1a over its canonical compact
/// JSON form (field order is declaration order in the vendored serde, so
/// the encoding is canonical by construction).
#[must_use]
pub fn grid_content_hash(grid: &SweepGrid) -> u64 {
    fnv1a64(serde::to_string(grid).as_bytes())
}

/// A complete, self-contained sharding plan for one grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardManifest {
    /// Manifest layout version ([`MANIFEST_SCHEMA_VERSION`]).
    pub schema: u32,
    /// The full grid; shard runners need no other input.
    pub grid: SweepGrid,
    /// Hex [`grid_content_hash`] of `grid` at planning time.
    pub grid_hash: String,
    /// The strategy that produced the assignment (informational; the
    /// explicit `shards` lists are authoritative).
    pub strategy: ShardStrategy,
    /// Cell indices owned by each shard, ascending within a shard.
    pub shards: Vec<Vec<usize>>,
}

/// Splits `grid` into `num_shards` shards under `strategy`: cell `c` goes
/// to shard `c % num_shards`.
///
/// # Example
///
/// ```
/// use dsmt_core::SimConfig;
/// use dsmt_shard::{plan, ShardStrategy};
/// use dsmt_sweep::{Axis, SweepGrid, WorkloadSpec};
///
/// let grid = SweepGrid::new("doc", SimConfig::paper_multithreaded(1))
///     .with_workload(WorkloadSpec::spec_mix(1_000))
///     .with_axis(Axis::l2_latencies(&[1, 4, 16, 64]))
///     .with_budget(2_000);
/// let manifest = plan(&grid, 3, ShardStrategy::Strided).unwrap();
/// assert_eq!(manifest.num_shards(), 3);
/// // Strided: cell c goes to shard c % 3, and the partition is exact.
/// assert_eq!(manifest.shards[0], vec![0, 3]);
/// manifest.validate().unwrap();
/// ```
///
/// # Errors
///
/// [`ShardPlanError::EmptyGrid`] or [`ShardPlanError::ZeroShards`] on
/// degenerate input. Shards may still be empty when `num_shards` exceeds
/// the cell count.
pub fn plan(
    grid: &SweepGrid,
    num_shards: usize,
    strategy: ShardStrategy,
) -> Result<ShardManifest, ShardPlanError> {
    let n = grid.len();
    if n == 0 {
        return Err(ShardPlanError::EmptyGrid);
    }
    if num_shards == 0 {
        return Err(ShardPlanError::ZeroShards);
    }
    let mut shards: Vec<Vec<usize>> = vec![Vec::new(); num_shards];
    let ShardStrategy::Strided = strategy;
    for c in 0..n {
        shards[c % num_shards].push(c);
    }
    Ok(ShardManifest {
        schema: MANIFEST_SCHEMA_VERSION,
        grid: grid.clone(),
        grid_hash: format!("{:016x}", grid_content_hash(grid)),
        strategy,
        shards,
    })
}

impl ShardManifest {
    /// Number of shards in the plan.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The store key of shard `index`'s output under the store transport:
    /// a [`dsmt_store::namespaced_key`] in the `shard-output` namespace
    /// over `(grid hash, shard index, shard count)`. Two plans over
    /// different grids (or different shard counts of one grid) can share a
    /// store directory without their outputs colliding, and re-planning
    /// the same grid the same way addresses the same outputs.
    #[must_use]
    pub fn shard_key(&self, index: usize) -> u64 {
        dsmt_store::namespaced_key(
            "shard-output",
            &format!("{}:{}/{}", self.grid_hash, index, self.num_shards()),
        )
    }

    /// The lockfile claim name guarding shard `index` under the store
    /// transport. Scoped by grid hash and shard count, like
    /// [`ShardManifest::shard_key`], so fleets working different plans out
    /// of one store directory never false-share claims.
    #[must_use]
    pub fn claim_name(&self, index: usize) -> String {
        format!("shard-{}-{index}-of-{}", self.grid_hash, self.num_shards())
    }

    /// Validates internal consistency: schema version, grid hash, and that
    /// the shards partition `0..grid.len()` exactly (every cell once).
    ///
    /// # Errors
    ///
    /// The first [`ShardPlanError`] found.
    pub fn validate(&self) -> Result<(), ShardPlanError> {
        if self.schema != MANIFEST_SCHEMA_VERSION {
            return Err(ShardPlanError::SchemaMismatch { found: self.schema });
        }
        let computed = format!("{:016x}", grid_content_hash(&self.grid));
        if self.grid_hash != computed {
            return Err(ShardPlanError::GridHashMismatch {
                stored: self.grid_hash.clone(),
                computed,
            });
        }
        if self.shards.is_empty() {
            return Err(ShardPlanError::ZeroShards);
        }
        let n = self.grid.len();
        let mut seen = vec![false; n];
        for (s, shard) in self.shards.iter().enumerate() {
            for window in shard.windows(2) {
                if window[0] >= window[1] {
                    return Err(ShardPlanError::BadPartition(format!(
                        "shard {s} is not strictly ascending"
                    )));
                }
            }
            for &c in shard {
                if c >= n {
                    return Err(ShardPlanError::BadPartition(format!(
                        "shard {s} references cell {c}, but the grid has {n} cells"
                    )));
                }
                if seen[c] {
                    return Err(ShardPlanError::BadPartition(format!(
                        "cell {c} is assigned twice"
                    )));
                }
                seen[c] = true;
            }
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(ShardPlanError::BadPartition(format!(
                "cell {missing} is assigned to no shard"
            )));
        }
        Ok(())
    }

    /// Serializes the manifest as pretty JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde::to_string_pretty(self)
    }

    /// Parses and validates a manifest from JSON.
    ///
    /// # Errors
    ///
    /// [`ShardPlanError::Unparseable`] on malformed JSON, otherwise any
    /// [`ShardManifest::validate`] error.
    pub fn from_json(text: &str) -> Result<Self, ShardPlanError> {
        let manifest: ShardManifest =
            serde::from_str(text).map_err(|e| ShardPlanError::Unparseable(e.to_string()))?;
        manifest.validate()?;
        Ok(manifest)
    }

    /// Writes the manifest to a file, creating parent directories.
    ///
    /// # Errors
    ///
    /// The underlying I/O error.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json())
    }

    /// Loads and validates a manifest from a file.
    ///
    /// # Errors
    ///
    /// I/O errors are reported as [`ShardPlanError::Unparseable`], plus any
    /// parse/validation error.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, ShardPlanError> {
        let text = std::fs::read_to_string(path.as_ref()).map_err(|e| {
            ShardPlanError::Unparseable(format!("{}: {e}", path.as_ref().display()))
        })?;
        Self::from_json(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsmt_core::SimConfig;
    use dsmt_sweep::{Axis, WorkloadSpec};

    fn grid(cells: usize) -> SweepGrid {
        let lats: Vec<u64> = (1..=cells as u64).collect();
        SweepGrid::new("part", SimConfig::paper_multithreaded(1))
            .with_workload(WorkloadSpec::spec_mix(1_000))
            .with_axis(Axis::l2_latencies(&lats))
            .with_budget(2_000)
    }

    #[test]
    fn strided_interleaves() {
        let m = plan(&grid(7), 3, ShardStrategy::Strided).unwrap();
        assert_eq!(m.shards, vec![vec![0, 3, 6], vec![1, 4], vec![2, 5]]);
        m.validate().unwrap();
    }

    #[test]
    fn degenerate_plans_are_rejected() {
        let empty = SweepGrid::new("e", SimConfig::paper_multithreaded(1));
        assert_eq!(
            plan(&empty, 2, ShardStrategy::Strided),
            Err(ShardPlanError::EmptyGrid)
        );
        assert_eq!(
            plan(&grid(3), 0, ShardStrategy::Strided),
            Err(ShardPlanError::ZeroShards)
        );
        // More shards than cells: trailing shards are empty but valid.
        let m = plan(&grid(2), 5, ShardStrategy::Strided).unwrap();
        m.validate().unwrap();
        assert_eq!(m.shards.iter().filter(|s| s.is_empty()).count(), 3);
    }

    #[test]
    fn validation_catches_tampering() {
        let good = plan(&grid(6), 2, ShardStrategy::Strided).unwrap();

        let mut stale = good.clone();
        stale.grid.budget += 1; // grid changed after planning
        assert!(matches!(
            stale.validate(),
            Err(ShardPlanError::GridHashMismatch { .. })
        ));

        let mut dup = good.clone();
        dup.shards[0] = vec![0, 1, 2]; // cell 1 now appears twice
        assert!(matches!(
            dup.validate(),
            Err(ShardPlanError::BadPartition(_))
        ));

        let mut missing = good.clone();
        missing.shards[1] = vec![1, 3]; // cell 5 owned by nobody
        assert!(matches!(
            missing.validate(),
            Err(ShardPlanError::BadPartition(_))
        ));

        let mut oob = good.clone();
        oob.shards[1] = vec![1, 3, 99];
        assert!(matches!(
            oob.validate(),
            Err(ShardPlanError::BadPartition(_))
        ));

        let mut unsorted = good.clone();
        unsorted.shards[0] = vec![2, 0, 4];
        assert!(matches!(
            unsorted.validate(),
            Err(ShardPlanError::BadPartition(_))
        ));

        let mut wrong_schema = good;
        wrong_schema.schema = 99;
        assert_eq!(
            wrong_schema.validate(),
            Err(ShardPlanError::SchemaMismatch { found: 99 })
        );
    }

    #[test]
    fn manifest_round_trips_through_json_and_disk() {
        let m = plan(&grid(5), 2, ShardStrategy::Strided).unwrap();
        let back = ShardManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);

        let path = std::env::temp_dir().join(format!(
            "dsmt-shard-manifest-test-{}.json",
            std::process::id()
        ));
        m.save(&path).unwrap();
        let loaded = ShardManifest::load(&path).unwrap();
        assert_eq!(loaded, m);
        let _ = std::fs::remove_file(&path);

        assert!(matches!(
            ShardManifest::from_json("{ nope"),
            Err(ShardPlanError::Unparseable(_))
        ));
        assert!(matches!(
            ShardManifest::load("/nonexistent/manifest.json"),
            Err(ShardPlanError::Unparseable(_))
        ));
    }

    #[test]
    fn a_manifest_naming_another_strategy_fails_to_load() {
        let json = plan(&grid(5), 2, ShardStrategy::Strided).unwrap().to_json();
        assert!(json.contains(r#""strategy": "Strided""#), "{json}");
        for other in ["Contiguous", "Hashed"] {
            let renamed = json.replace(r#""Strided""#, &format!("\"{other}\""));
            assert!(matches!(
                ShardManifest::from_json(&renamed),
                Err(ShardPlanError::Unparseable(_))
            ));
        }
    }
}
