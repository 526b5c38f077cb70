//! Cache-key stability across every built-in figure grid: the
//! single-serialization [`Scenario::cache_identity`] must reproduce, bit
//! for bit, the two hashes the cache has always derived from separate
//! serializations. Existing stores, pinned digests and shard fixtures stay
//! valid only while this holds.

use dsmt_repro::experiments::{
    ablations, fetch_policy, fetch_policy_hetero, fig1, fig3, fig4, fig5, seed_variance,
    ExperimentParams,
};
use dsmt_repro::store::fnv1a64;
use dsmt_repro::sweep::{Scenario, WorkloadSpec, CACHE_SCHEMA_VERSION};

/// The key as originally derived: one formatted string, hashed whole.
/// Every workspace crate shares one version, so this crate's version is
/// the sweep crate's.
fn legacy_key(scenario: &Scenario) -> u64 {
    let canonical = format!(
        "v{}+{}:{}",
        CACHE_SCHEMA_VERSION,
        env!("CARGO_PKG_VERSION"),
        serde::to_string(scenario)
    );
    fnv1a64(canonical.as_bytes())
}

/// The verify hash as originally derived.
fn legacy_verify(scenario: &Scenario) -> u64 {
    fnv1a64(format!("verify:{}", serde::to_string(scenario)).as_bytes())
}

#[test]
fn every_figure_cell_keeps_its_legacy_key_and_verify_hash() {
    let params = ExperimentParams::standard();
    let mut grids = vec![
        fig1::grid(&params),
        fig3::grid(&params),
        fig4::grid(&params),
        fetch_policy::grid(&params),
        fetch_policy_hetero::grid(&params),
        seed_variance::grid(&params),
    ];
    grids.extend(fig5::grids(&params));
    grids.extend(ablations::grids(&params));

    let mut cells = 0;
    let mut programs = 0;
    for grid in &grids {
        for cell in grid.cells() {
            let s = &cell.scenario;
            let id = s.cache_identity();
            let at = format!("{} cell {}", grid.name, cell.index);
            assert_eq!(id.key, legacy_key(s), "key of {at}");
            assert_eq!(id.verify, legacy_verify(s), "verify hash of {at}");
            assert_eq!(s.cache_key(), id.key, "cache_key of {at}");
            assert_eq!(s.cache_key_hex(), id.key_hex(), "hex key of {at}");
            cells += 1;
            programs += usize::from(matches!(s.workload, WorkloadSpec::Programs { .. }));
        }
    }
    assert!(cells > 200, "only {cells} cells enumerated");
    assert!(programs > 0, "no assembled-program cells enumerated");
}
