//! Cache-key stability across every built-in figure grid: the
//! single-serialization [`Scenario::cache_identity`] must reproduce, bit
//! for bit, the two hashes the cache has always derived from separate
//! serializations, and literal keys, verify hashes and canonical JSON
//! pinned from an earlier serializer. Existing stores, pinned digests and
//! shard fixtures stay valid only while this holds.

use dsmt_repro::experiments::{fig3, figure_grids, ExperimentParams};
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
    let grids = figure_grids(&params);

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

/// `(grid, cell index, key, verify hash)` of the middle cell of every
/// figure grid at [`ExperimentParams::standard`], plus the first
/// assembled-program cell, as computed by the tree-building serializer this
/// crate used before JSON was written directly. Unlike the legacy
/// derivations above, these do not go through today's `serde::to_string`,
/// so a serializer change that moved a byte fails here.
#[rustfmt::skip]
const PINNED_IDENTITIES: &[(&str, usize, u64, u64)] = &[
    ("fig1",                30, 0x96da_d59f_e3f1_176b, 0x9cbe_1ec3_6aec_c8a9),
    ("fig3",                 3, 0x9439_f854_46fb_d9e6, 0xb8e7_4640_d966_4b58),
    ("fig4",                24, 0x6ef3_f0d0_6c54_659c, 0x13e1_0445_1f55_54fe),
    ("fetch-policy",         4, 0x9439_f854_46fb_d9e6, 0xb8e7_4640_d966_4b58),
    ("fetch-policy-hetero",  0, 0xaff6_6a05_ac75_9b65, 0x070a_bc57_60b6_c99b),
    ("fetch-policy-hetero", 16, 0xeb6d_0d4c_03e0_1c17, 0x5a71_a3d9_a73b_ffb5),
    ("seed-variance",        8, 0xa7b0_e7d0_9fb1_b173, 0x053f_5bcc_d561_7f31),
    ("fig5-l2-16",           8, 0xcd2c_c814_cbe0_fd6e, 0x1a50_b699_05fe_fbc4),
    ("fig5-l2-64",           9, 0x6cbb_6f4e_d4c9_45f4, 0x9ed9_cb55_d38c_dd6a),
    ("ablation-iq-depth",    3, 0xc907_f991_1591_23d4, 0x1c52_5085_718a_f8ae),
    ("ablation-mshr",        2, 0xc48c_4ffb_8987_bd85, 0x024a_f1a2_2892_810f),
    ("ablation-unit-split",  1, 0x6fcc_8bf8_a41a_6401, 0xa3ee_baa4_4add_a12f),
    ("ablation-l1-assoc",    1, 0xcded_06f7_1bd7_f656, 0x4f78_ba45_8dee_d3e4),
];

/// The canonical JSON of fig3's first cell (a `SpecMix` scenario), as the
/// tree-building serializer wrote it.
const PINNED_SPEC_MIX_JSON: &str = concat!(
    r#"{"config":{"num_threads":1,"decoupled":true,"fetch_threads_per_cycle":2,"#,
    r#""fetch_policy":"ICount","fetch_width":8,"dispatch_width":8,"retire_width":8,"#,
    r#""ap_units":4,"ep_units":4,"ap_latency":1,"ep_latency":4,"#,
    r#""max_unresolved_branches":4,"bht_entries":2048,"iq_capacity":48,"#,
    r#""saq_capacity":32,"ap_window_capacity":16,"rob_capacity":128,"#,
    r#""ap_phys_regs":64,"ep_phys_regs":96,"fetch_buffer_capacity":32,"#,
    r#""non_decoupled_iq_capacity":8,"scale_queues_with_latency":false,"#,
    r#""mem":{"l1d":{"size_bytes":65536,"line_bytes":32,"associativity":1,"#,
    r#""ports":4,"mshrs":16,"hit_latency":1},"l2_latency":16,"#,
    r#""bus_bytes_per_cycle":16,"write_back":true,"write_allocate":true}},"#,
    r#""workload":{"SpecMix":{"insts_per_program":40000}},"seed":42,"budget":400000}"#,
);

#[test]
fn figure_cells_keep_their_pinned_key_verify_hash_and_json() {
    let params = ExperimentParams::standard();
    let grids = figure_grids(&params);

    for grid in &grids {
        assert!(
            PINNED_IDENTITIES.iter().any(|p| p.0 == grid.name),
            "grid {} has no pinned cell",
            grid.name
        );
    }
    let mut pinned_programs = false;
    for &(name, index, key, verify) in PINNED_IDENTITIES {
        let grid = grids
            .iter()
            .find(|g| g.name == name)
            .unwrap_or_else(|| panic!("no grid named {name}"));
        let cells = grid.cells();
        let s = &cells[index].scenario;
        let id = s.cache_identity();
        assert_eq!(
            format!("{:016x}", id.key),
            format!("{key:016x}"),
            "key of {name} cell {index}"
        );
        assert_eq!(
            format!("{:016x}", id.verify),
            format!("{verify:016x}"),
            "verify hash of {name} cell {index}"
        );
        assert_eq!(s.cache_key_hex(), format!("{key:016x}"));
        pinned_programs |= matches!(s.workload, WorkloadSpec::Programs { .. });
    }
    assert!(pinned_programs, "no assembled-program cell is pinned");

    let spec_mix = &fig3::grid(&params).cells()[0].scenario;
    assert!(matches!(spec_mix.workload, WorkloadSpec::SpecMix { .. }));
    assert_eq!(serde::to_string(spec_mix), PINNED_SPEC_MIX_JSON);
}
