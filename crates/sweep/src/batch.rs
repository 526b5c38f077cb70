//! The engine's pool claim cap.

/// The most cells one pool claim takes (see [`crate::pool::run_batched`]):
/// whole claims of this size while many cells remain, single cells at the
/// tail. Each claimed cell still runs alone through
/// [`Scenario::execute`](crate::Scenario::execute); the cap only bounds how
/// often a worker returns to the shared cursor.
pub const DEFAULT_BATCH: usize = 4;
