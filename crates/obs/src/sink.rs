//! The event sink: `DSMT_LOG` resolution, levels, field values, spans,
//! and the pretty/JSONL line emitters.

use std::io::Write;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Instant, SystemTime};

/// Event severity. Ordering matters: a sink enabled at some minimum level
/// emits every event at that level or above.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// High-volume diagnostics (per-cell cache decisions, span begins).
    Debug = 0,
    /// Lifecycle events (sweep done, shard published, claim stolen).
    Info = 1,
    /// Something degraded but the run continues (claim lost, publish
    /// failed). Visible on stderr even with `DSMT_LOG` unset.
    Warn = 2,
}

impl Level {
    fn name(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
        }
    }
}

/// One structured field value. Constructed via `From` by the event macros.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (non-finite values render as JSON `null`).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

macro_rules! impl_field_from {
    ($($t:ty => $variant:ident as $cast:ty),* $(,)?) => {$(
        impl From<$t> for FieldValue {
            fn from(v: $t) -> Self {
                FieldValue::$variant(v as $cast)
            }
        }
    )*};
}
impl_field_from!(
    u64 => U64 as u64, u32 => U64 as u64, u16 => U64 as u64, usize => U64 as u64,
    i64 => I64 as i64, i32 => I64 as i64,
    f64 => F64 as f64,
);

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

impl From<&String> for FieldValue {
    fn from(v: &String) -> Self {
        FieldValue::Str(v.clone())
    }
}

/// Where emitted lines go: pretty to stderr, or JSONL appended to a file.
#[derive(Debug)]
enum Sink {
    Pretty,
    Jsonl(std::fs::File),
}

/// `MIN_LEVEL` values beyond the three levels: everything suppressed, and
/// "not yet resolved from the environment".
const LEVEL_OFF: u8 = 3;
const LEVEL_UNSET: u8 = 4;

static MIN_LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNSET);
static SEQ: AtomicU64 = AtomicU64::new(0);

fn state() -> &'static Mutex<Option<Sink>> {
    static STATE: OnceLock<Mutex<Option<Sink>>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(None))
}

/// Whether events at `level` are currently emitted — one relaxed atomic
/// load on the hot path (after the first call resolves `DSMT_LOG`). The
/// event macros check this before constructing any field value.
#[must_use]
pub fn enabled(level: Level) -> bool {
    let mut min = MIN_LEVEL.load(Ordering::Relaxed);
    if min == LEVEL_UNSET {
        init_from_env();
        min = MIN_LEVEL.load(Ordering::Relaxed);
    }
    level as u8 >= min
}

fn init_from_env() {
    let spec = std::env::var("DSMT_LOG").unwrap_or_default();
    apply_spec(&spec);
}

/// Installs a sink from a `DSMT_LOG`-syntax spec, overriding whatever the
/// environment said (or will say). Intended for tests and embedders that
/// must not depend on process-global environment timing; the CLI and every
/// library path resolve `DSMT_LOG` lazily on first use instead.
pub fn init_from_spec(spec: &str) {
    apply_spec(spec);
}

fn apply_spec(spec: &str) {
    let spec = spec.trim();
    let mut bad_spec = None;
    // The default, and the fallback for a spec that cannot be honoured:
    // warnings stay visible, tracing stays silent.
    let default = (Some(Sink::Pretty), Level::Warn as u8);
    let (sink, min) = if spec.is_empty() {
        default
    } else if spec.eq_ignore_ascii_case("off") {
        (None, LEVEL_OFF)
    } else if spec.eq_ignore_ascii_case("pretty") {
        (Some(Sink::Pretty), Level::Debug as u8)
    } else if let Some(path) = spec.strip_prefix("jsonl:") {
        match open_append(path) {
            Ok(file) => (Some(Sink::Jsonl(file)), Level::Debug as u8),
            Err(e) => {
                bad_spec = Some(format!("cannot open {path}: {e}"));
                default
            }
        }
    } else {
        bad_spec = Some(format!("unknown DSMT_LOG value `{spec}`"));
        default
    };
    *state().lock().expect("obs sink lock") = sink;
    MIN_LEVEL.store(min, Ordering::SeqCst);
    if let Some(why) = bad_spec {
        crate::warn!("obs.bad_log_spec", why = why);
    }
}

fn open_append(path: &str) -> std::io::Result<std::fs::File> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
}

/// Emits one structured event. Prefer the [`event!`](crate::event!) /
/// [`warn!`](crate::warn!) macros, which guard with [`enabled`] so field
/// values are never constructed for suppressed events.
pub fn emit(level: Level, event: &str, fields: &[(&str, FieldValue)]) {
    if !enabled(level) {
        return;
    }
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let ts_ms = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let mut guard = state().lock().expect("obs sink lock");
    let Some(sink) = guard.as_mut() else {
        return;
    };
    // One write per line: appends of a line-sized buffer interleave
    // whole-line across processes sharing a JSONL file.
    let _ = match sink {
        Sink::Jsonl(f) => f.write_all(jsonl_line(ts_ms, seq, level, event, fields).as_bytes()),
        Sink::Pretty => std::io::stderr().write_all(pretty_line(level, event, fields).as_bytes()),
    };
}

fn jsonl_line(
    ts_ms: u64,
    seq: u64,
    level: Level,
    event: &str,
    fields: &[(&str, FieldValue)],
) -> String {
    let mut out = String::with_capacity(96 + fields.len() * 24);
    out.push_str("{\"ts_ms\":");
    out.push_str(&ts_ms.to_string());
    out.push_str(",\"seq\":");
    out.push_str(&seq.to_string());
    out.push_str(",\"pid\":");
    out.push_str(&std::process::id().to_string());
    out.push_str(",\"level\":\"");
    out.push_str(level.name());
    out.push_str("\",\"event\":");
    push_json_str(&mut out, event);
    out.push_str(",\"fields\":{");
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(&mut out, key);
        out.push(':');
        push_json_value(&mut out, value);
    }
    out.push_str("}}\n");
    out
}

fn pretty_line(level: Level, event: &str, fields: &[(&str, FieldValue)]) -> String {
    let mut out = String::with_capacity(48 + fields.len() * 16);
    out.push('[');
    out.push_str(level.name());
    out.push_str("] ");
    out.push_str(event);
    for (key, value) in fields {
        out.push(' ');
        out.push_str(key);
        out.push('=');
        match value {
            FieldValue::Str(s) => {
                out.push('"');
                out.push_str(s);
                out.push('"');
            }
            other => push_json_value(&mut out, other),
        }
    }
    out.push('\n');
    out
}

/// Appends `s` as a JSON string literal (quotes, escapes, control chars).
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_json_value(out: &mut String, value: &FieldValue) {
    match value {
        FieldValue::U64(n) => out.push_str(&n.to_string()),
        FieldValue::I64(n) => out.push_str(&n.to_string()),
        FieldValue::F64(f) if f.is_finite() => out.push_str(&f.to_string()),
        FieldValue::F64(_) => out.push_str("null"),
        FieldValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        FieldValue::Str(s) => push_json_str(out, s),
    }
}

/// A timed scope. Created by [`span`]; on drop it emits an [`Level::Info`]
/// event named after the span, carrying `elapsed_ms` plus any fields added
/// with [`Span::field`]. When info-level tracing is disabled the guard is
/// an empty shell: no clock is read and nothing is emitted.
#[derive(Debug)]
#[must_use = "a span measures the scope it is bound to; dropping it immediately measures nothing"]
pub struct Span {
    inner: Option<SpanInner>,
}

#[derive(Debug)]
struct SpanInner {
    name: String,
    fields: Vec<(String, FieldValue)>,
    start: Instant,
}

/// Opens a [`Span`]. A `<name>.begin` debug event marks the start (so live
/// JSONL traces show long-running work in flight); the info event at drop
/// carries the duration.
pub fn span(name: &str) -> Span {
    if !enabled(Level::Info) {
        return Span { inner: None };
    }
    crate::debug!(&format!("{name}.begin"));
    Span {
        inner: Some(SpanInner {
            name: name.to_string(),
            fields: Vec::new(),
            start: Instant::now(),
        }),
    }
}

impl Span {
    /// Attaches a field to the span's closing event (no-op when disabled).
    pub fn field(mut self, key: &str, value: impl Into<FieldValue>) -> Self {
        if let Some(inner) = &mut self.inner {
            inner.fields.push((key.to_string(), value.into()));
        }
        self
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let elapsed_ms = inner.start.elapsed().as_secs_f64() * 1e3;
        let mut fields: Vec<(&str, FieldValue)> = vec![("elapsed_ms", FieldValue::F64(elapsed_ms))];
        fields.extend(inner.fields.iter().map(|(k, v)| (k.as_str(), v.clone())));
        emit(Level::Info, &inner.name, &fields);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_file(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("dsmt-obs-sink-{}-{tag}.jsonl", std::process::id()))
    }

    /// The sink is process-global, so every scenario lives in this one
    /// test (Rust runs tests of a binary concurrently).
    #[test]
    fn jsonl_file_sink_levels_and_span_lifecycle() {
        let path = temp_file("all");
        let _ = std::fs::remove_file(&path);
        init_from_spec(&format!("jsonl:{}", path.display()));
        assert!(enabled(Level::Debug) && enabled(Level::Warn));

        crate::info!(
            "t.event",
            cells = 12usize,
            label = "a\"b",
            ok = true,
            rate = 1.5
        );
        drop(span("t.span").field("grid", "demo").field("cells", 3usize));
        let text = std::fs::read_to_string(&path).expect("trace file");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(lines[0].contains("\"event\":\"t.event\""));
        assert!(lines[0].contains("\"cells\":12"));
        assert!(lines[0].contains("\"label\":\"a\\\"b\""));
        assert!(lines[0].contains("\"ok\":true"));
        assert!(lines[0].contains("\"rate\":1.5"));
        assert!(lines[1].contains("\"t.span.begin\""));
        assert!(lines[2].contains("\"event\":\"t.span\""));
        assert!(lines[2].contains("\"elapsed_ms\":"));
        assert!(lines[2].contains("\"grid\":\"demo\""));
        assert!(lines[2].contains("\"cells\":3"));

        // `off` silences everything, even warnings, and spans are shells.
        init_from_spec("off");
        assert!(!enabled(Level::Warn));
        crate::warn!("t.suppressed");
        let s = span("t.dead");
        assert!(s.inner.is_none());
        drop(s);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap().lines().count(),
            3,
            "no events after off"
        );

        // Default (empty spec): warnings enabled, info suppressed.
        init_from_spec("");
        assert!(enabled(Level::Warn) && !enabled(Level::Info));

        // An unknown spec falls back to the default and says so; `off`,
        // `pretty` and `jsonl:<path>` have no other spelling.
        for spec in ["verbose", "0", "none", "stderr", "jsonl"] {
            init_from_spec(spec);
            assert!(enabled(Level::Warn) && !enabled(Level::Info), "{spec}");
        }

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn json_escaping_covers_quotes_backslashes_and_control_chars() {
        let mut out = String::new();
        push_json_str(&mut out, "a\"b\\c\nd\te\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
        let mut out = String::new();
        push_json_value(&mut out, &FieldValue::F64(f64::NAN));
        assert_eq!(out, "null");
        let mut out = String::new();
        push_json_value(&mut out, &FieldValue::I64(-3));
        assert_eq!(out, "-3");
    }
}
