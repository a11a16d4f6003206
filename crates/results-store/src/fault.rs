//! Deterministic fault injection for crash-safety tests.
//!
//! A *failpoint* is a named hook compiled into production code paths (the
//! segment flush pipeline, the serving job executor). In normal operation
//! every hook is a single relaxed atomic load — no registry lock, no map
//! lookup, no allocation. Tests (or the `GAZE_FAILPOINTS` environment
//! variable) *arm* a failpoint with a [`FaultKind`]; the next time the
//! hooked code path runs, the fault fires: an injected [`io::Error`], a
//! panic, or a short write.
//!
//! The registry is process-global, so tests that arm failpoints must not
//! run concurrently with each other — serialize them with
//! [`exclusive`], which also clears the registry when the guard drops.
//!
//! Registered points (name → code path):
//!
//! | point                | fires in                                        |
//! |----------------------|-------------------------------------------------|
//! | `gzr.segment.create` | before creating the `.tmp-` segment file        |
//! | `gzr.segment.write`  | on each write of segment bytes to the tmp file  |
//! | `gzr.segment.fsync`  | before fsyncing the tmp file                    |
//! | `gzr.segment.rename` | before the atomic rename into place             |
//! | `gzr.segment.dirsync`| after the rename, before the directory fsync    |
//! | `gzr.segment.read`   | before opening each segment during load/reload  |
//! | `gzr.segment.pread`  | before each positioned point-lookup record read |
//! | `gzr.segment.scan`   | before decoding a whole segment for a query     |
//! | `gzr.compact.begin`  | at the start of a compaction, after the flush   |
//! | `gzr.compact.write`  | before writing the merged segments              |
//! | `gzr.compact.remove` | before unlinking each superseded old segment    |
//! | `gzr.compact.dirsync`| after the removals, before the directory fsync  |
//! | `jobs.execute`       | at the start of an async sweep job (gaze-serve) |
//! | `serve.handle`       | at the top of HTTP request routing (gaze-serve) |
//!
//! Environment syntax: `GAZE_FAILPOINTS="point=kind;point=N:kind"` where
//! `kind` is one of `error` (generic I/O error), `interrupted`, `panic`,
//! `short-write`, or `sleep:<millis>`, and the optional `N:` prefix skips
//! the first `N` hits before firing (env-armed points are sticky — they
//! fire on every hit from then on). A malformed entry — no `=`, a point
//! not in the table above, an unknown kind or an `N` that overflows — is
//! logged as a warning naming the entry and skipped.

use std::collections::HashMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Every registered point name, in the order of the module-doc table.
pub const POINTS: &[&str] = &[
    "gzr.segment.create",
    "gzr.segment.write",
    "gzr.segment.fsync",
    "gzr.segment.rename",
    "gzr.segment.dirsync",
    "gzr.segment.read",
    "gzr.segment.pread",
    "gzr.segment.scan",
    "gzr.compact.begin",
    "gzr.compact.write",
    "gzr.compact.remove",
    "gzr.compact.dirsync",
    "jobs.execute",
    "serve.handle",
];

/// What an armed failpoint does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Return an [`io::Error`] of this kind from the hooked operation.
    Error(io::ErrorKind),
    /// Panic inside the hooked operation.
    Panic,
    /// For write hooks: write only half of the buffer to the underlying
    /// writer, then fail. At non-write hooks this behaves like a generic
    /// I/O error.
    ShortWrite,
    /// Sleep this many milliseconds, then continue normally. Lets tests
    /// hold an executor busy for a deterministic window.
    Sleep(u64),
}

impl FaultKind {
    fn into_error(self, point: &str) -> io::Error {
        match self {
            FaultKind::Error(kind) => {
                io::Error::new(kind, format!("failpoint '{point}': injected {kind:?}"))
            }
            _ => io::Error::other(format!("failpoint '{point}': injected fault")),
        }
    }
}

#[derive(Debug)]
struct ArmState {
    kind: FaultKind,
    /// Hits to skip before firing (0 = fire on the first hit).
    fire_at: u64,
    /// Hits observed so far.
    hits: u64,
    /// Sticky points fire on every hit past `fire_at`; one-shot points
    /// fire exactly once.
    sticky: bool,
    fired: bool,
}

/// Fast path: a single relaxed load decides "no failpoints anywhere".
/// It starts `true` so that the first hook in a process takes the slow
/// path once, which parses `GAZE_FAILPOINTS` into the registry.
static ENABLED: AtomicBool = AtomicBool::new(true);

fn registry() -> &'static Mutex<HashMap<String, ArmState>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, ArmState>>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let mut map = HashMap::new();
        if let Ok(spec) = std::env::var("GAZE_FAILPOINTS") {
            for (point, arm) in parse_env(&spec) {
                map.insert(point, arm);
            }
        }
        ENABLED.store(!map.is_empty(), Ordering::Relaxed);
        Mutex::new(map)
    })
}

fn lock() -> MutexGuard<'static, HashMap<String, ArmState>> {
    registry().lock().unwrap_or_else(PoisonError::into_inner)
}

fn parse_env(spec: &str) -> Vec<(String, ArmState)> {
    let mut arms = Vec::new();
    for entry in spec.split(';').map(str::trim).filter(|e| !e.is_empty()) {
        match parse_entry(entry) {
            Ok(arm) => arms.push(arm),
            Err(reason) => gaze_obs::log::warn(
                "fault",
                "skipping malformed GAZE_FAILPOINTS entry",
                &[("entry", &entry), ("reason", &reason)],
            ),
        }
    }
    arms
}

/// Parses one `point=[N:]kind` entry, or says why it is malformed.
fn parse_entry(entry: &str) -> Result<(String, ArmState), String> {
    let (point, action) = entry.split_once('=').ok_or("missing '='")?;
    let point = point.trim();
    if !POINTS.contains(&point) {
        return Err(format!("unknown point '{point}'"));
    }
    let action = action.trim();
    let (fire_at, action) = match action.split_once(':') {
        Some((n, rest)) if !n.is_empty() && n.chars().all(|c| c.is_ascii_digit()) => {
            let n = n
                .parse()
                .map_err(|_| format!("hit count '{n}' overflows u64"))?;
            (n, rest)
        }
        _ => (0, action),
    };
    let kind = match action {
        "error" => FaultKind::Error(io::ErrorKind::Other),
        "interrupted" => FaultKind::Error(io::ErrorKind::Interrupted),
        "panic" => FaultKind::Panic,
        "short-write" => FaultKind::ShortWrite,
        _ => match action.strip_prefix("sleep:").and_then(|ms| ms.parse().ok()) {
            Some(ms) => FaultKind::Sleep(ms),
            None => return Err(format!("unknown kind '{action}'")),
        },
    };
    let arm = ArmState {
        kind,
        fire_at,
        hits: 0,
        sticky: true,
        fired: false,
    };
    Ok((point.to_string(), arm))
}

/// Arms `point` so that every hit fires `kind` until [`clear_all`].
pub fn arm(point: &str, kind: FaultKind) {
    arm_state(
        point,
        ArmState {
            kind,
            fire_at: 0,
            hits: 0,
            sticky: true,
            fired: false,
        },
    );
}

/// Arms `point` to fire `kind` exactly once, on its `n`-th hit (0-based)
/// after arming. Later hits pass through. This is what exhaustive flush
/// tests use to fault the second segment of a two-segment flush.
pub fn arm_nth(point: &str, n: u64, kind: FaultKind) {
    arm_state(
        point,
        ArmState {
            kind,
            fire_at: n,
            hits: 0,
            sticky: false,
            fired: false,
        },
    );
}

fn arm_state(point: &str, state: ArmState) {
    let mut reg = lock();
    reg.insert(point.to_string(), state);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Disarms every failpoint and restores the zero-cost fast path.
pub fn clear_all() {
    let mut reg = lock();
    reg.clear();
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether the failpoint armed at `point` has fired at least once.
/// Returns `false` for unarmed points.
pub fn fired(point: &str) -> bool {
    if !ENABLED.load(Ordering::Relaxed) {
        return false;
    }
    lock().get(point).is_some_and(|a| a.fired)
}

/// Consults `point` and returns the fault to inject, if any. Sleep
/// faults are served here (the caller just continues). Production code
/// normally goes through [`check_io`] or [`FaultyWriter`] instead.
pub fn fire(point: &str) -> Option<FaultKind> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    let kind = {
        let mut reg = lock();
        let arm = reg.get_mut(point)?;
        let hit = arm.hits;
        arm.hits += 1;
        if hit < arm.fire_at || (!arm.sticky && arm.fired) {
            return None;
        }
        arm.fired = true;
        arm.kind
    };
    if let FaultKind::Sleep(ms) = kind {
        std::thread::sleep(std::time::Duration::from_millis(ms));
        return None;
    }
    Some(kind)
}

/// The standard hook for fallible I/O steps: a no-op unless `point` is
/// armed, in which case it returns the injected error (or panics, for
/// [`FaultKind::Panic`]).
pub fn check_io(point: &str) -> io::Result<()> {
    match fire(point) {
        None => Ok(()),
        Some(FaultKind::Panic) => panic!("failpoint '{point}': injected panic"),
        Some(kind) => Err(kind.into_error(point)),
    }
}

/// Serializes tests that arm failpoints: the registry is process-global,
/// so two concurrently armed tests would see each other's faults. Drops
/// clear the registry, so a panicking test cannot leak armed points into
/// the next one.
pub fn exclusive() -> ExclusiveGuard {
    static GATE: Mutex<()> = Mutex::new(());
    let guard = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    clear_all();
    ExclusiveGuard { _guard: guard }
}

/// Guard returned by [`exclusive`]; clears all failpoints when dropped.
pub struct ExclusiveGuard {
    _guard: MutexGuard<'static, ()>,
}

impl Drop for ExclusiveGuard {
    fn drop(&mut self) {
        clear_all();
    }
}

/// A [`Write`] wrapper that consults a named failpoint on every write.
/// [`FaultKind::ShortWrite`] writes half the buffer to the inner writer
/// and then fails, modelling a torn write that left real bytes on disk.
#[derive(Debug)]
pub struct FaultyWriter<W: Write> {
    inner: W,
    point: &'static str,
}

impl<W: Write> FaultyWriter<W> {
    /// Wraps `inner`, consulting `point` on every [`Write::write`].
    pub fn new(inner: W, point: &'static str) -> FaultyWriter<W> {
        FaultyWriter { inner, point }
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for FaultyWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match fire(self.point) {
            None => self.inner.write(buf),
            Some(FaultKind::Panic) => panic!("failpoint '{}': injected panic", self.point),
            Some(FaultKind::ShortWrite) => {
                let half = buf.len() / 2;
                if half > 0 {
                    self.inner.write_all(&buf[..half])?;
                }
                // Deliberately not `Interrupted`: `BufWriter` would retry
                // an interrupted write and quietly double the torn bytes.
                Err(io::Error::other(format!(
                    "failpoint '{}': injected short write ({half} of {} bytes)",
                    self.point,
                    buf.len()
                )))
            }
            Some(kind) => Err(kind.into_error(self.point)),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_points_are_inert() {
        let _x = exclusive();
        assert!(fire("gzr.segment.rename").is_none());
        assert!(check_io("gzr.segment.rename").is_ok());
        assert!(!fired("gzr.segment.rename"));
    }

    #[test]
    fn sticky_arm_fires_every_hit_until_cleared() {
        let _x = exclusive();
        arm("p", FaultKind::Error(io::ErrorKind::Interrupted));
        for _ in 0..3 {
            let err = check_io("p").expect_err("armed");
            assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        }
        assert!(fired("p"));
        clear_all();
        assert!(check_io("p").is_ok());
    }

    #[test]
    fn arm_nth_fires_exactly_once_on_the_nth_hit() {
        let _x = exclusive();
        arm_nth("p", 2, FaultKind::Error(io::ErrorKind::Other));
        assert!(check_io("p").is_ok());
        assert!(check_io("p").is_ok());
        assert!(!fired("p"));
        assert!(check_io("p").is_err());
        assert!(fired("p"));
        assert!(check_io("p").is_ok(), "one-shot");
    }

    #[test]
    fn short_write_leaves_half_the_bytes() {
        let _x = exclusive();
        arm("w", FaultKind::ShortWrite);
        let mut sink = Vec::new();
        let mut writer = FaultyWriter::new(&mut sink, "w");
        let err = writer.write(&[1, 2, 3, 4]).expect_err("short write");
        assert_ne!(err.kind(), io::ErrorKind::Interrupted);
        assert_eq!(sink, vec![1, 2]);
    }

    #[test]
    fn env_spec_parses_kinds_and_fire_at() {
        let arms = parse_env(
            "gzr.segment.create=error;gzr.segment.write=3:panic;gzr.segment.fsync=short-write;\
             serve.handle=sleep:25;junk;gzr.segment.rename=nope;gzr.index.write=error;\
             gzr.segment.scan=99999999999999999999:error",
        );
        let by_name: HashMap<_, _> = arms.into_iter().collect();
        let kind = |p: &str| by_name[p].kind;
        assert_eq!(
            kind("gzr.segment.create"),
            FaultKind::Error(io::ErrorKind::Other)
        );
        assert_eq!(kind("gzr.segment.write"), FaultKind::Panic);
        assert_eq!(by_name["gzr.segment.write"].fire_at, 3);
        assert_eq!(kind("gzr.segment.fsync"), FaultKind::ShortWrite);
        assert_eq!(kind("serve.handle"), FaultKind::Sleep(25));
        assert_eq!(by_name.len(), 4, "every malformed entry is skipped");

        // Each skipped entry is rejected for its own reason, which the
        // warning names.
        let reason = |e: &str| parse_entry(e).expect_err("malformed");
        assert_eq!(reason("junk"), "missing '='");
        assert_eq!(reason("gzr.segment.rename=nope"), "unknown kind 'nope'");
        assert_eq!(
            reason("gzr.index.write=error"),
            "unknown point 'gzr.index.write'"
        );
        assert_eq!(
            reason("gzr.segment.scan=99999999999999999999:error"),
            "hit count '99999999999999999999' overflows u64"
        );
    }

    #[test]
    fn points_follow_the_module_doc_table() {
        let table: Vec<&str> = include_str!("fault.rs")
            .lines()
            .filter_map(|l| l.strip_prefix("//! | `"))
            .filter_map(|l| l.split('`').next())
            .collect();
        assert_eq!(table, POINTS);
    }
}
