//! Where experiment traces come from: in-memory generators or packed GZT
//! files streamed from disk.
//!
//! Every figure asks this module for its workloads. By default the
//! synthetic generator builds the trace in memory; when the
//! `GAZE_TRACE_DIR` environment variable points at a directory of packed
//! `<workload>.gzt` files (produced by the `trace-pack` binary), the
//! matching file is streamed from disk instead — through the bounded
//! chunk reader of [`sim_core::gzt`], never materialising the pass. The
//! two paths yield identical record streams, so every report is
//! bit-identical either way (asserted by the streaming determinism tests).
//!
//! The experiment engine holds each workload as a [`LazyWorkload`]: the
//! trace is built or opened only when a simulation reads its records, and
//! a generated trace's fingerprint is memoized per process, so a sweep
//! served entirely from the results store touches no trace.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

use sim_core::gzt::GztTrace;
use sim_core::trace::{Trace, TraceReader, TraceSource};
use workloads::build_workload;

/// A trace from either source, usable anywhere a
/// [`TraceSource`] is expected.
#[derive(Debug, Clone)]
pub enum AnyTrace {
    /// The whole pass held in memory (synthetic generator output).
    Memory(Trace),
    /// A packed GZT file streamed through a bounded chunk buffer.
    File(GztTrace),
}

impl AnyTrace {
    /// Whether this trace streams from disk.
    pub fn is_streamed(&self) -> bool {
        matches!(self, AnyTrace::File(_))
    }
}

impl TraceSource for AnyTrace {
    fn name(&self) -> &str {
        match self {
            AnyTrace::Memory(t) => t.name(),
            AnyTrace::File(t) => TraceSource::name(t),
        }
    }

    fn len(&self) -> usize {
        match self {
            AnyTrace::Memory(t) => t.len(),
            AnyTrace::File(t) => TraceSource::len(t),
        }
    }

    fn instructions_per_pass(&self) -> u64 {
        match self {
            AnyTrace::Memory(t) => t.instructions_per_pass(),
            AnyTrace::File(t) => TraceSource::instructions_per_pass(t),
        }
    }

    fn reader(&self) -> Box<dyn TraceReader + '_> {
        match self {
            AnyTrace::Memory(t) => TraceSource::reader(t),
            AnyTrace::File(t) => TraceSource::reader(t),
        }
    }

    fn fingerprint(&self) -> u64 {
        // Delegate so the file variant hits GztTrace's memoized override.
        match self {
            AnyTrace::Memory(t) => TraceSource::fingerprint(t),
            AnyTrace::File(t) => TraceSource::fingerprint(t),
        }
    }
}

/// The packed-trace directory, if `GAZE_TRACE_DIR` is set and non-empty.
pub fn trace_dir() -> Option<PathBuf> {
    std::env::var_os("GAZE_TRACE_DIR")
        .filter(|v| !v.is_empty())
        .map(PathBuf::from)
}

/// `<dir>/<name>.gzt` if `dir` is given and that file exists.
fn packed_path(dir: Option<&Path>, name: &str) -> Option<PathBuf> {
    dir.map(|dir| dir.join(workloads::pack::gzt_file_name(name)))
        .filter(|path| path.exists())
}

/// Opens the packed file at `packed`, or builds the synthetic workload in
/// memory when there is none.
///
/// A present-but-corrupt file — or one whose header names a *different*
/// workload (a copied/renamed file would otherwise silently substitute
/// another workload's trace) — is an error the caller should see, not a
/// silent fallback, so both panic with the file path.
fn open_or_build(packed: Option<&Path>, name: &str, instructions: u64) -> AnyTrace {
    let Some(path) = packed else {
        return AnyTrace::Memory(build_workload(name, instructions));
    };
    let gzt = GztTrace::open(path)
        .unwrap_or_else(|e| panic!("invalid packed trace {}: {e}", path.display()));
    assert_eq!(
        TraceSource::name(&gzt),
        name,
        "packed trace {} is named '{}' but was requested as '{name}' \
         (misplaced or renamed file?)",
        path.display(),
        TraceSource::name(&gzt),
    );
    AnyTrace::File(gzt)
}

/// Loads `<dir>/<name>.gzt` if `dir` is given and the file exists and
/// validates; otherwise builds the synthetic workload in memory at
/// `instructions` instructions per pass.
///
/// # Panics
///
/// Panics on a present-but-corrupt or misnamed packed file.
pub fn load_from_dir_or_build(dir: Option<&Path>, name: &str, instructions: u64) -> AnyTrace {
    open_or_build(packed_path(dir, name).as_deref(), name, instructions)
}

/// Process-wide memo of generated-trace fingerprints, keyed by
/// (workload, instruction budget): the generators are deterministic, so a
/// generated trace is a pure function of that pair. Packed files are never
/// memoized here — a file can be replaced between requests.
fn generated_fingerprints() -> &'static Mutex<HashMap<(String, u64), u64>> {
    static MEMO: OnceLock<Mutex<HashMap<(String, u64), u64>>> = OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(HashMap::new()))
}

fn materialized_counter() -> gaze_obs::metrics::Counter {
    gaze_obs::metrics::registry().counter(
        "gaze_sim_traces_materialized_total",
        "Workload traces built or opened by the experiment engine",
    )
}

/// Traces the experiment engine has built or opened so far in this
/// process (the `gaze_sim_traces_materialized_total` counter).
pub fn traces_materialized() -> u64 {
    materialized_counter().get()
}

/// One workload of a sweep, materialized on first use.
///
/// The source — a packed GZT file under `GAZE_TRACE_DIR` or the synthetic
/// generator — is resolved once, at construction. The trace itself is
/// built or opened the first time [`len`](TraceSource::len),
/// [`instructions_per_pass`](TraceSource::instructions_per_pass) or
/// [`reader`](TraceSource::reader) is called, and then shared by every job
/// holding this handle. [`name`](TraceSource::name) never materializes,
/// and neither does [`fingerprint`](TraceSource::fingerprint) of a
/// generated workload once its (workload, instructions) fingerprint is
/// memoized in this process — so a store hit costs no trace at all.
#[derive(Debug)]
pub struct LazyWorkload {
    name: String,
    instructions: u64,
    packed: Option<PathBuf>,
    trace: OnceLock<AnyTrace>,
}

impl LazyWorkload {
    /// A handle on `name` at `instructions` instructions per pass,
    /// streamed from `GAZE_TRACE_DIR` when packed there.
    pub fn new(name: &str, instructions: u64) -> Self {
        LazyWorkload {
            name: name.to_string(),
            instructions,
            packed: packed_path(trace_dir().as_deref(), name),
            trace: OnceLock::new(),
        }
    }

    /// Whether this workload streams from a packed file.
    pub fn is_streamed(&self) -> bool {
        self.packed.is_some()
    }

    /// Whether [`fingerprint`](TraceSource::fingerprint) answers from this
    /// process's memo, without building or opening the trace: true only
    /// for a generated workload fingerprinted before. Builds nothing.
    pub(crate) fn fingerprint_known(&self) -> bool {
        !self.is_streamed()
            && generated_fingerprints()
                .lock()
                .expect("fingerprint memo poisoned")
                .contains_key(&(self.name.clone(), self.instructions))
    }

    /// The trace, built or opened on first call.
    ///
    /// # Panics
    ///
    /// Panics on a corrupt or misnamed packed file.
    fn trace(&self) -> &AnyTrace {
        self.trace.get_or_init(|| {
            materialized_counter().inc();
            open_or_build(self.packed.as_deref(), &self.name, self.instructions)
        })
    }
}

impl TraceSource for LazyWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn len(&self) -> usize {
        self.trace().len()
    }

    fn instructions_per_pass(&self) -> u64 {
        self.trace().instructions_per_pass()
    }

    fn reader(&self) -> Box<dyn TraceReader + '_> {
        self.trace().reader()
    }

    fn fingerprint(&self) -> u64 {
        if self.is_streamed() {
            // GztTrace memoizes per opened file.
            return self.trace().fingerprint();
        }
        let key = (self.name.clone(), self.instructions);
        let memo = generated_fingerprints();
        if let Some(&fp) = memo.lock().expect("fingerprint memo poisoned").get(&key) {
            return fp;
        }
        let fp = self.trace().fingerprint();
        memo.lock()
            .expect("fingerprint memo poisoned")
            .insert(key, fp);
        fp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::trace::source_fingerprint;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gzt-store-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn falls_back_to_memory_without_a_dir_or_file() {
        let mem = load_from_dir_or_build(None, "bwaves_s", 3_000);
        assert!(!mem.is_streamed());
        let dir = temp_dir("nofile");
        let miss = load_from_dir_or_build(Some(&dir), "bwaves_s", 3_000);
        assert!(!miss.is_streamed());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn streams_a_packed_file_identically_to_memory() {
        let dir = temp_dir("stream");
        workloads::pack::pack_workload("mcf_s", 3_000, &dir.join("mcf_s.gzt")).expect("pack");
        let streamed = load_from_dir_or_build(Some(&dir), "mcf_s", 3_000);
        assert!(streamed.is_streamed());
        let mem = load_from_dir_or_build(None, "mcf_s", 3_000);
        assert_eq!(streamed.name(), mem.name());
        assert_eq!(streamed.len(), mem.len());
        assert_eq!(
            source_fingerprint(&streamed),
            source_fingerprint(&mem),
            "streamed and in-memory record streams must be identical"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "requested as")]
    fn renamed_packed_files_fail_loudly() {
        let dir = temp_dir("renamed");
        // Pack bwaves_s but store it under mcf_s's file name.
        workloads::pack::pack_workload("bwaves_s", 2_000, &dir.join("mcf_s.gzt")).expect("pack");
        let _ = load_from_dir_or_build(Some(&dir), "mcf_s", 2_000);
    }

    #[test]
    #[should_panic(expected = "invalid packed trace")]
    fn corrupt_packed_files_fail_loudly() {
        let dir = temp_dir("corrupt");
        std::fs::write(dir.join("bwaves_s.gzt"), b"not a gzt file").expect("write");
        let _ = load_from_dir_or_build(Some(&dir), "bwaves_s", 1_000);
    }
}
