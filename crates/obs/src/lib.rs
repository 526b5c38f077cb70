//! `dsmt-obs` — zero-dependency structured telemetry for the sweep stack.
//!
//! Two independent facilities, both designed to cost (close to) nothing
//! when nobody is listening:
//!
//! * **Events and spans** ([`emit`], [`span`], the [`event!`]/[`warn!`]
//!   macros): structured key-value events routed to a sink chosen by the
//!   `DSMT_LOG` environment variable. Tracing is off by default (only
//!   warnings reach stderr); `DSMT_LOG=pretty` streams human-readable
//!   lines to stderr, `DSMT_LOG=jsonl:<path>` appends one JSON object per
//!   line to a file (the form CI parses), and `DSMT_LOG=off` silences
//!   everything including warnings. The enabled-level check is a single
//!   relaxed atomic load, and field values are never even constructed for
//!   suppressed events (the macros guard with [`enabled`] first).
//!
//! * **A counter registry** ([`registry`], the [`counter!`] macro): named
//!   counters backed by plain atomics. Registration takes a mutex once per
//!   call *site* (the macro caches the `Arc` handle in a local
//!   `OnceLock`); the hot path is a relaxed `fetch_add`.
//!   `DSMT_METRICS=<path>` makes the CLI write a [`Snapshot`] of every
//!   counter there on exit, as sorted `name,value` lines under a
//!   `name,value` header.
//!
//! `DSMT_LOG` values (any other value warns `obs.bad_log_spec` and falls
//! back to the default):
//!
//! | value | effect |
//! | --- | --- |
//! | *(unset)* | warnings only, pretty, to stderr |
//! | `off` | nothing at all |
//! | `pretty` | every event, pretty, to stderr |
//! | `jsonl:<path>` | every event, JSONL, appended to `<path>` |
//!
//! The crate is deliberately dependency-free (JSON lines are emitted by
//! hand) so that every runtime crate — `dsmt-core` included — can depend
//! on it without layering cycles.
//!
//! # Example
//!
//! ```
//! use dsmt_obs as obs;
//! obs::counter!("demo.cells").add(3);
//! obs::warn!("demo.skipped", reason = "cache disabled", shard = 2usize);
//! let snap = obs::registry().snapshot();
//! assert!(snap.to_csv().contains("\ndemo.cells,3\n"));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod metrics;
pub mod sink;

pub use metrics::{dump_to_env_path, registry, Counter, Registry, Snapshot};
pub use sink::{emit, enabled, init_from_spec, span, FieldValue, Level, Span};

/// Emits a structured event at an explicit [`Level`].
///
/// Field values are only evaluated when the level is enabled, so an
/// expensive `format!` in a field position costs nothing while tracing is
/// off. Keys are bare identifiers; values are anything with a
/// `FieldValue: From` impl (unsigned/signed integers, floats, bools,
/// strings).
///
/// ```
/// use dsmt_obs as obs;
/// obs::event!(obs::Level::Info, "sweep.done", cells = 12usize, wall_secs = 0.25);
/// ```
#[macro_export]
macro_rules! event {
    ($level:expr, $name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::enabled($level) {
            $crate::emit(
                $level,
                $name,
                &[$((stringify!($key), $crate::FieldValue::from($value))),*],
            );
        }
    };
}

/// Emits a [`Level::Debug`] event (see [`event!`]).
#[macro_export]
macro_rules! debug {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $crate::event!($crate::Level::Debug, $name $(, $key = $value)*)
    };
}

/// Emits a [`Level::Info`] event (see [`event!`]).
#[macro_export]
macro_rules! info {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $crate::event!($crate::Level::Info, $name $(, $key = $value)*)
    };
}

/// Emits a [`Level::Warn`] event (see [`event!`]). This is the structured
/// replacement for ad-hoc `eprintln!` warnings: visible on stderr by
/// default, machine-readable under `DSMT_LOG=jsonl:…`, and silenceable
/// with `DSMT_LOG=off`.
#[macro_export]
macro_rules! warn {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $crate::event!($crate::Level::Warn, $name $(, $key = $value)*)
    };
}

/// A named [`Counter`] handle, registered once per call site and cached in
/// a local `OnceLock` — the hot path after the first call is one relaxed
/// atomic add, with no registry lock.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __OBS_COUNTER: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        &**__OBS_COUNTER.get_or_init(|| $crate::registry().counter($name))
    }};
}
