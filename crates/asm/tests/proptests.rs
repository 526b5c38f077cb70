//! Property tests for the assembler front-end: no input, however
//! malformed, may panic the assembler.

use dsmt_asm::{assemble, corpus};
use proptest::prelude::*;

proptest! {
    #[test]
    fn assembling_arbitrary_bytes_never_panics(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = assemble("fuzz", &text);
    }

    #[test]
    fn assembling_valid_prefix_plus_garbage_never_panics(
        which in 0usize..3,
        bytes in prop::collection::vec(any::<u8>(), 0..128),
    ) {
        let (name, source) = corpus::CORPUS[which];
        let text = format!("{source}\n{}", String::from_utf8_lossy(&bytes));
        let _ = assemble(name, &text);
    }
}
