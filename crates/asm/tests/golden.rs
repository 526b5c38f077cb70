//! Golden fixtures pinning the assembled corpus.
//!
//! Each `examples/asm/*.s` program's expansion is pinned by an FNV digest
//! of its canonical trace text (`dsmt_isa::text::render_trace`, the form
//! `dsmt asm inspect --expand` prints): the first 2048 instructions in
//! `expansion.fnv`, and the first 100k in the test below. Together they
//! freeze the interpreter semantics — register file behavior, hash-backed
//! memory, restart rules.
//!
//! Regenerate `expansion.fnv` intentionally with
//! `DSMT_REGEN_GOLDEN=1 cargo test -p dsmt-asm --test golden`.

use std::path::PathBuf;

use dsmt_asm::corpus;
use dsmt_isa::{fnv1a64, text::render_trace, Instruction};

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file)
}

fn text_digest(insts: &[Instruction]) -> u64 {
    fnv1a64(render_trace(insts).as_bytes())
}

fn regen() -> bool {
    std::env::var("DSMT_REGEN_GOLDEN").is_ok_and(|v| v == "1")
}

#[test]
fn expansion_digests_match_goldens() {
    let mut lines = String::new();
    for program in corpus::corpus_programs() {
        let insts = program.expand(7, 2048);
        assert_eq!(insts.len(), 2048, "{} under-expanded", program.name);
        let digest = text_digest(&insts);
        lines.push_str(&format!("{} {digest:#018x}\n", program.name));
    }
    let path = golden_path("expansion.fnv");
    if regen() {
        std::fs::write(&path, lines).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); regenerate with DSMT_REGEN_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        lines, golden,
        "interpreter expansion drifted; this changes every assembled \
         workload's trace — regenerate with DSMT_REGEN_GOLDEN=1 only if \
         that is intended"
    );
}

/// FNV digests of each corpus program's first 100k emitted instructions
/// (seed 7, the per-thread address offset of thread 1). Long enough that
/// the pointer chaser revisits stored and hashed cells and every loop
/// wraps many times, so any change to the interpreter's code or memory
/// lookups that alters the stream shows here.
#[test]
fn hundred_thousand_instruction_streams_are_pinned() {
    const PINNED: &[(&str, u64)] = &[
        ("ptr_chase", 0x2108_6cf1_8b3c_bb80),
        ("fp_kernel", 0x3a95_d119_e9cd_6e0f),
        ("branchy", 0x6922_80be_4e71_e8db),
    ];
    for program in corpus::corpus_programs() {
        let name = program.name.clone();
        let mut trace = dsmt_trace::ProgramTrace::new(program, 7, 0x0400_2000);
        let insts: Vec<_> = (0..100_000)
            .map(|_| dsmt_trace::TraceSource::next_instruction(&mut trace).expect("infinite"))
            .collect();
        let digest = text_digest(&insts);
        let pinned = PINNED.iter().find(|(n, _)| *n == name).map(|p| p.1);
        assert_eq!(
            Some(digest),
            pinned,
            "{name} stream drifted: {digest:#018x}"
        );
    }
}
