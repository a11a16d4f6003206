//! Leveled structured logging: one `ts=… level=… target=… msg=… k=v`
//! line per event on stderr.
//!
//! The emission level comes from the `GAZE_LOG` environment variable
//! (`off`, `error`, `warn`, `info`, `debug`, `trace`; default `info`),
//! read once per process. Lines are written with a single locked
//! `write_all`, so concurrent threads never interleave mid-line.
//!
//! ```text
//! ts=2026-08-07T09:10:11.123Z level=info target=gaze-serve msg="request" id=req-1a2b-0 path=/runs status=200 us=412
//! ```
//!
//! Values are quoted only when they contain whitespace, quotes, `=` or
//! are empty — lines stay grep- and awk-friendly either way. Use
//! [`next_id`] to mint process-unique correlation ids (e.g. one per HTTP
//! request) to thread through related lines.

use std::fmt::Display;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{SystemTime, UNIX_EPOCH};

/// Log severity, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The operation failed and data or a request was affected.
    Error,
    /// Something unexpected was tolerated (fail-open paths).
    Warn,
    /// Lifecycle events worth seeing in production (default level).
    Info,
    /// Per-request / per-job detail.
    Debug,
    /// Everything.
    Trace,
}

impl Level {
    /// The lowercase name emitted in `level=`.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    /// Parses a `GAZE_LOG` value. `None` for unrecognized input.
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }
}

/// The configured emission threshold: `None` silences everything
/// (`GAZE_LOG=off`), otherwise events at or above the level emit.
pub fn max_level() -> Option<Level> {
    static CONFIGURED: OnceLock<Option<Level>> = OnceLock::new();
    *CONFIGURED.get_or_init(|| match std::env::var("GAZE_LOG") {
        Err(_) => Some(Level::Info),
        Ok(v) => {
            let v = v.trim().to_ascii_lowercase();
            if v.is_empty() {
                Some(Level::Info)
            } else if v == "off" || v == "none" || v == "0" {
                None
            } else {
                // An unrecognized value falls back loudly rather than
                // silently dropping logs.
                Some(Level::parse(&v).unwrap_or(Level::Info))
            }
        }
    })
}

/// Whether an event at `level` would emit.
pub fn enabled(level: Level) -> bool {
    max_level().is_some_and(|max| level <= max)
}

/// Mints a process-unique id: `<prefix>-<pid hex>-<seq>`. Ids from a
/// restarted process never collide with ones a client kept.
pub fn next_id(prefix: &str) -> String {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let seq = NEXT.fetch_add(1, Ordering::Relaxed);
    format!("{prefix}-{:x}-{seq}", std::process::id())
}

/// Quotes a value only when needed: whitespace, `"`, `=` or empty; the
/// quoted form escapes like a Prometheus label value.
fn format_value(value: &str) -> String {
    let needs_quoting = value.is_empty()
        || value
            .chars()
            .any(|c| c.is_whitespace() || c == '"' || c == '=' || c == '\\');
    if !needs_quoting {
        return value.to_string();
    }
    format!("\"{}\"", crate::metrics::escape_label(value))
}

/// Formats one complete log line (no trailing newline) for the given
/// epoch timestamp — separated from emission so tests can assert on it.
pub fn format_line(
    unix_millis: u64,
    level: Level,
    target: &str,
    msg: &str,
    kv: &[(&str, &dyn Display)],
) -> String {
    let mut line = format!(
        "ts={} level={} target={} msg={}",
        rfc3339_utc_millis(unix_millis),
        level.as_str(),
        target,
        format_value(msg),
    );
    for (key, value) in kv {
        line.push(' ');
        line.push_str(key);
        line.push('=');
        line.push_str(&format_value(&value.to_string()));
    }
    line
}

/// Emits one structured line at `level` (if enabled): a message plus
/// `key=value` pairs.
pub fn log(level: Level, target: &str, msg: &str, kv: &[(&str, &dyn Display)]) {
    if !enabled(level) {
        return;
    }
    let millis = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let mut line = format_line(millis, level, target, msg, kv);
    line.push('\n');
    let stderr = std::io::stderr();
    let mut handle = stderr.lock();
    let _ = handle.write_all(line.as_bytes());
}

/// [`log`] at [`Level::Error`].
pub fn error(target: &str, msg: &str, kv: &[(&str, &dyn Display)]) {
    log(Level::Error, target, msg, kv);
}

/// [`log`] at [`Level::Warn`].
pub fn warn(target: &str, msg: &str, kv: &[(&str, &dyn Display)]) {
    log(Level::Warn, target, msg, kv);
}

/// [`log`] at [`Level::Info`].
pub fn info(target: &str, msg: &str, kv: &[(&str, &dyn Display)]) {
    log(Level::Info, target, msg, kv);
}

/// [`log`] at [`Level::Debug`].
pub fn debug(target: &str, msg: &str, kv: &[(&str, &dyn Display)]) {
    log(Level::Debug, target, msg, kv);
}

/// [`log`] at [`Level::Trace`].
pub fn trace(target: &str, msg: &str, kv: &[(&str, &dyn Display)]) {
    log(Level::Trace, target, msg, kv);
}

/// Renders an epoch-milliseconds timestamp as RFC 3339 UTC with
/// millisecond precision (`2026-08-07T09:10:11.123Z`).
fn rfc3339_utc_millis(unix_millis: u64) -> String {
    let secs = unix_millis / 1000;
    let millis = unix_millis % 1000;
    let days = (secs / 86_400) as i64;
    let tod = secs % 86_400;
    let (year, month, day) = civil_from_days(days);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}.{millis:03}Z",
        tod / 3600,
        (tod % 3600) / 60,
        tod % 60
    )
}

/// Days-since-epoch → (year, month, day) in the proleptic Gregorian
/// calendar (the classic era-based civil-date algorithm).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // day of era [0, 146096]
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let year = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let month = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if month <= 2 { year + 1 } else { year }, month, day)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_dates_round_known_timestamps() {
        assert_eq!(rfc3339_utc_millis(0), "1970-01-01T00:00:00.000Z");
        // 2000-03-01 00:00:00 UTC = 951868800 (leap-century boundary).
        assert_eq!(
            rfc3339_utc_millis(951_868_800_000),
            "2000-03-01T00:00:00.000Z"
        );
        // 2024-02-29 12:34:56.789 UTC = 1709210096.789 (leap day).
        assert_eq!(
            rfc3339_utc_millis(1_709_210_096_789),
            "2024-02-29T12:34:56.789Z"
        );
        // 2026-08-07 00:00:00 UTC = 1786060800.
        assert_eq!(
            rfc3339_utc_millis(1_786_060_800_000),
            "2026-08-07T00:00:00.000Z"
        );
    }

    #[test]
    fn lines_carry_level_target_msg_and_pairs() {
        let line = format_line(
            1_709_210_096_789,
            Level::Warn,
            "gaze-serve",
            "stale reload failed",
            &[("error", &"disk on fire"), ("attempt", &3)],
        );
        assert_eq!(
            line,
            "ts=2024-02-29T12:34:56.789Z level=warn target=gaze-serve \
             msg=\"stale reload failed\" error=\"disk on fire\" attempt=3"
        );
    }

    #[test]
    fn values_quote_only_when_needed() {
        assert_eq!(format_value("plain"), "plain");
        assert_eq!(format_value("/jobs/x"), "/jobs/x");
        assert_eq!(format_value(""), "\"\"");
        assert_eq!(format_value("a b"), "\"a b\"");
        assert_eq!(format_value("k=v"), "\"k=v\"");
        assert_eq!(format_value("say \"hi\""), "\"say \\\"hi\\\"\"");
        assert_eq!(format_value("a\nb"), "\"a\\nb\"");
    }

    #[test]
    fn levels_order_and_parse() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
        assert!(Level::Debug < Level::Trace);
        assert_eq!(Level::parse("warn"), Some(Level::Warn));
        assert_eq!(Level::parse("WARNING"), Some(Level::Warn));
        assert_eq!(Level::parse(" trace "), Some(Level::Trace));
        assert_eq!(Level::parse("bogus"), None);
    }

    #[test]
    fn ids_are_unique_and_prefixed() {
        let a = next_id("req");
        let b = next_id("req");
        assert_ne!(a, b);
        assert!(a.starts_with("req-"), "{a}");
        let pid = format!("{:x}", std::process::id());
        assert!(a.contains(&pid), "{a}");
    }
}
