//! Write-through persistence of experiment results.
//!
//! When a results directory is active (the `GAZE_RESULTS_DIR` environment
//! variable, or an explicit [`configure`] call), the experiment engine
//! ([`spec::plan::execute`](crate::spec::plan::execute)) consults the
//! persistent [`ResultsStore`] before simulating each job:
//!
//! * **hit** — the stored row is returned without touching the simulator
//!   (the counters are exact `u64`s, so every derived metric — and
//!   therefore every figure CSV — is bit-identical to a fresh
//!   simulation);
//! * **miss** — the job is simulated and the result is recorded
//!   write-through, so the *next* process to ask gets the hit.
//!
//! Every job takes the same path ([`lookup`](StoreHandle::lookup) /
//! [`record`](StoreHandle::record)): its result is one
//! [`MixRecord`] row keyed by the mix fingerprint
//! ([`sim_core::params::mix_fingerprint`], a single-core job's trace
//! fingerprint) and the params fingerprint *at the job's core count*.
//! No-prefetching baselines are ordinary `"none"` rows. The runners
//! themselves never touch the store.
//!
//! A warm store thus regenerates the full figure set — multi-core
//! fig13–fig18 included — with zero simulation; see the `results_store`
//! integration test and the CI warm restart smoke.
//!
//! Appends are buffered and written as one crash-safe segment per core
//! count per [`flush`] (the parallel engine flushes after each fan-out,
//! the CLI flushes at exit, and the buffer auto-flushes every
//! [`AUTO_FLUSH_RECORDS`] appends). The store handle is process-global
//! and behind an `RwLock`. Lookups, `contains`,
//! [`with_store`](StoreHandle::with_store) queries and the staleness
//! check share the read lock (every [`ResultsStore`] read path takes
//! `&self`), so concurrent requests and engine workers never wait for
//! each other's reads. Only [`record`](StoreHandle::record),
//! [`flush`](StoreHandle::flush) and an actual reload take the write
//! lock.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

use results_store::{MixRecord, ResultsStore};

/// Pending appends are flushed to a segment automatically once this many
/// accumulate (long sweeps become durable incrementally, not only at
/// exit).
pub const AUTO_FLUSH_RECORDS: usize = 128;

/// Process-global mirrors of the per-handle hit/miss counters, so
/// `/metrics` sees read-before-simulate effectiveness across every
/// [`StoreHandle`] in the process.
fn store_counters() -> &'static (gaze_obs::metrics::Counter, gaze_obs::metrics::Counter) {
    static COUNTERS: OnceLock<(gaze_obs::metrics::Counter, gaze_obs::metrics::Counter)> =
        OnceLock::new();
    COUNTERS.get_or_init(|| {
        let r = gaze_obs::metrics::registry();
        (
            r.counter(
                "gaze_store_hits_total",
                "Runs served from the results store without simulation",
            ),
            r.counter(
                "gaze_store_misses_total",
                "Runs simulated and recorded write-through (store misses)",
            ),
        )
    })
}

/// A thread-safe handle to one open [`ResultsStore`]: readers share it,
/// writers (append, flush, reload) hold it alone.
#[derive(Debug)]
pub struct StoreHandle {
    store: RwLock<ResultsStore>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl StoreHandle {
    /// Opens (creating if needed) the store at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<StoreHandle> {
        Ok(StoreHandle {
            store: RwLock::new(ResultsStore::open(dir)?),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// Looks up the stored row for (fingerprint, params fingerprint,
    /// prefetcher) among rows of `cores` cores — a trace fingerprint for
    /// a single-core row, a mix fingerprint for a mix row — and counts a
    /// hit.
    ///
    /// The stored label (workload name or mix label) must equal `label`:
    /// fingerprints are content hashes, so two differently-named inputs
    /// with identical record streams share a key, and a label mismatch is
    /// treated as a miss so report rows always carry the right names.
    pub fn lookup(
        &self,
        fingerprint: u64,
        params_fingerprint: u64,
        prefetcher: &str,
        label: &str,
        cores: usize,
    ) -> Option<MixRecord> {
        let rec = self.find(fingerprint, params_fingerprint, prefetcher, label, cores)?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        store_counters().0.inc();
        Some(rec)
    }

    /// Whether the store holds the row [`lookup`](Self::lookup) would
    /// return, without touching the hit/miss counters. The spec planner's
    /// warm/cold dry-run uses this.
    pub fn contains(
        &self,
        fingerprint: u64,
        params_fingerprint: u64,
        prefetcher: &str,
        label: &str,
        cores: usize,
    ) -> bool {
        self.find(fingerprint, params_fingerprint, prefetcher, label, cores)
            .is_some()
    }

    fn find(
        &self,
        fingerprint: u64,
        params_fingerprint: u64,
        prefetcher: &str,
        label: &str,
        cores: usize,
    ) -> Option<MixRecord> {
        self.with_store(|s| s.lookup(fingerprint, params_fingerprint, prefetcher, cores..=cores))
            .filter(|rec| rec.label == label)
    }

    /// Records a freshly simulated row write-through (deduplicated inside
    /// the store) and counts a miss. A mix row's params fingerprint must
    /// be taken at the mix's core count (`params.with_cores(n)`).
    /// Auto-flushes when the pending batch reaches [`AUTO_FLUSH_RECORDS`].
    pub fn record(&self, rec: impl Into<MixRecord>) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        store_counters().1.inc();
        let mut store = self.write();
        store.append(rec);
        if store.pending_len() >= AUTO_FLUSH_RECORDS {
            if let Err(e) = store.flush() {
                gaze_obs::log::error(
                    "gaze-sim",
                    "results store auto-flush failed",
                    &[("error", &e)],
                );
            }
        }
    }

    /// Flushes pending appends as one crash-safe segment per core count.
    pub fn flush(&self) -> io::Result<usize> {
        self.write().flush()
    }

    /// Reloads the store from disk when another process has flushed new
    /// segments since this handle opened (or last reloaded); pending rows
    /// of this handle are carried over. Returns whether a reload
    /// happened. `gaze-serve` calls this per request so a server sees
    /// stores written by concurrent experiment runs without a restart.
    ///
    /// The staleness check shares the read lock; only a stale store takes
    /// the write lock, under which the reload checks staleness again (a
    /// concurrent caller may have reloaded in between).
    pub fn reload_if_stale(&self) -> io::Result<bool> {
        if !self.read().is_stale()? {
            return Ok(false);
        }
        self.write().reload_if_stale()
    }

    /// Store lookups served without simulation since this handle opened.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Store misses (i.e. simulations recorded write-through).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Runs `f` with the underlying store read-locked (for queries; the
    /// HTTP front-end's `/runs` endpoint goes through this). Other
    /// readers proceed meanwhile; appends, flushes and reloads wait.
    pub fn with_store<R>(&self, f: impl FnOnce(&ResultsStore) -> R) -> R {
        f(&self.read())
    }

    fn read(&self) -> RwLockReadGuard<'_, ResultsStore> {
        self.store.read().expect("results store poisoned")
    }

    fn write(&self) -> RwLockWriteGuard<'_, ResultsStore> {
        self.store.write().expect("results store poisoned")
    }
}

/// An explicit [`configure`] override: `None` = not configured (fall back
/// to the environment), `Some(None)` = explicitly off, `Some(Some(h))` =
/// explicitly on.
type Override = RwLock<Option<Option<Arc<StoreHandle>>>>;

fn override_store() -> &'static Override {
    static OVERRIDE: OnceLock<Override> = OnceLock::new();
    OVERRIDE.get_or_init(|| RwLock::new(None))
}

/// The store named by `GAZE_RESULTS_DIR`, resolved exactly once per
/// process. `get_or_init` blocks concurrent first callers, so every
/// worker of a parallel fan-out observes the same resolution — no
/// thread can race past an in-progress open and silently re-simulate.
fn env_store() -> Option<Arc<StoreHandle>> {
    static ENV: OnceLock<Option<Arc<StoreHandle>>> = OnceLock::new();
    ENV.get_or_init(|| {
        let dir = PathBuf::from(std::env::var_os("GAZE_RESULTS_DIR").filter(|v| !v.is_empty())?);
        let handle = StoreHandle::open(&dir).unwrap_or_else(|e| {
            // A mistyped or corrupt store directory should stop the sweep,
            // not silently re-simulate everything.
            panic!(
                "GAZE_RESULTS_DIR={}: cannot open results store: {e}",
                dir.display()
            )
        });
        Some(Arc::new(handle))
    })
    .clone()
}

/// Explicitly activates (or, with `None`, deactivates) a results
/// directory for this process, overriding `GAZE_RESULTS_DIR`.
pub fn configure(dir: Option<&Path>) -> io::Result<Option<Arc<StoreHandle>>> {
    let handle = match dir {
        Some(d) => Some(Arc::new(StoreHandle::open(d)?)),
        None => None,
    };
    *override_store()
        .write()
        .expect("results store lock poisoned") = Some(handle.clone());
    Ok(handle)
}

/// The process-wide active store, if any: an explicit [`configure`] call
/// wins; otherwise `GAZE_RESULTS_DIR` is resolved (once) from the
/// environment.
pub fn active_store() -> Option<Arc<StoreHandle>> {
    if let Some(configured) = override_store()
        .read()
        .expect("results store lock poisoned")
        .clone()
    {
        return configured;
    }
    env_store()
}

/// Flushes the active store's pending appends, if a store is active.
/// Returns the flush error so callers that must not lose data (the CLI's
/// exit path) can fail loudly; a no-op `Ok(0)` when no store is active.
pub fn try_flush() -> io::Result<usize> {
    match active_store() {
        Some(store) => store.flush(),
        None => Ok(0),
    }
}

/// Flushes the active store's pending appends, if a store is active,
/// logging (not propagating) failures. Called by the experiment engine
/// after every parallel fan-out; safe to call at any time.
pub fn flush() {
    if let Err(e) = try_flush() {
        gaze_obs::log::error("gaze-sim", "results store flush failed", &[("error", &e)]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::simulate_core;
    use crate::factory::make_prefetcher;
    use results_store::RunRecord;
    use sim_core::params::RunParams;
    use sim_core::trace::source_fingerprint;
    use workloads::build_workload;

    #[test]
    fn handle_round_trips_a_single_run() {
        let dir = std::env::temp_dir().join(format!("gzr-handle-{}-rt", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let params = RunParams {
            warmup: 1_000,
            measured: 5_000,
            ..RunParams::test()
        };
        let trace = build_workload("bwaves_s", 4_000);
        let stats = simulate_core(&trace, make_prefetcher("gaze"), None, &params);
        let fp = source_fingerprint(&trace);

        let handle = StoreHandle::open(&dir).expect("open");
        assert!(handle
            .lookup(fp, params.fingerprint(), "gaze", "bwaves_s", 1)
            .is_none());
        handle.record(RunRecord {
            trace_fingerprint: fp,
            params_fingerprint: params.fingerprint(),
            workload: "bwaves_s".to_string(),
            prefetcher: "gaze".to_string(),
            stats,
        });
        handle.flush().expect("flush");

        let reopened = StoreHandle::open(&dir).expect("reopen");
        let hit = reopened
            .lookup(fp, params.fingerprint(), "gaze", "bwaves_s", 1)
            .expect("stored run");
        assert_eq!(hit.label, "bwaves_s");
        assert_eq!(hit.report.cores, vec![stats]);
        assert_eq!(reopened.hits(), 1);
        // A mismatched workload name is a miss even with the right key,
        // and so is the right key at another core count.
        assert!(reopened
            .lookup(fp, params.fingerprint(), "gaze", "other-name", 1)
            .is_none());
        assert!(reopened
            .lookup(fp, params.fingerprint(), "gaze", "bwaves_s", 2)
            .is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A `/runs` scan or any other `with_store` query holds the store
    /// only for reading, so a point lookup on another thread (a figure
    /// request) completes meanwhile instead of queueing behind it.
    #[test]
    fn a_lookup_completes_while_a_query_holds_the_store() {
        let dir = std::env::temp_dir().join(format!("gzr-handle-{}-shared", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let handle = StoreHandle::open(&dir).expect("open");
        handle.record(RunRecord {
            trace_fingerprint: 0xfeed,
            params_fingerprint: 0xbeef,
            workload: "bwaves_s".to_string(),
            prefetcher: "gaze".to_string(),
            stats: Default::default(),
        });
        handle.flush().expect("flush");

        let (tx, rx) = std::sync::mpsc::channel();
        let found = std::thread::scope(|s| {
            handle.with_store(|store| {
                assert_eq!(store.len(), 1);
                s.spawn(|| {
                    let hit = handle.lookup(0xfeed, 0xbeef, "gaze", "bwaves_s", 1);
                    let _ = tx.send(hit.is_some());
                });
                rx.recv_timeout(std::time::Duration::from_secs(5))
            })
        });
        assert_eq!(
            found,
            Ok(true),
            "a lookup must not wait for a query that holds the store"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn handle_round_trips_a_mix_report() {
        let dir = std::env::temp_dir().join(format!("gzr-handle-{}-mix", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let params = RunParams {
            warmup: 500,
            measured: 2_000,
            ..RunParams::test()
        }
        .with_cores(2);
        let report = sim_core::stats::SimReport {
            cores: vec![
                sim_core::stats::CoreStats {
                    instructions: 2_000,
                    cycles: 5_000,
                    ..Default::default()
                },
                sim_core::stats::CoreStats {
                    instructions: 2_000,
                    cycles: 6_000,
                    ..Default::default()
                },
            ],
        };
        let handle = StoreHandle::open(&dir).expect("open");
        assert!(handle
            .lookup(0xabc, params.fingerprint(), "gaze", "a+b", 2)
            .is_none());
        handle.record(MixRecord {
            mix_fingerprint: 0xabc,
            params_fingerprint: params.fingerprint(),
            prefetcher: "gaze".to_string(),
            label: "a+b".to_string(),
            report: report.clone(),
        });
        handle.flush().expect("flush");

        let reopened = StoreHandle::open(&dir).expect("reopen");
        let hit = reopened
            .lookup(0xabc, params.fingerprint(), "gaze", "a+b", 2)
            .expect("stored mix");
        assert_eq!(hit.report, report);
        assert_eq!(reopened.hits(), 1);
        // A mismatched label is a miss even with the right key.
        assert!(reopened
            .lookup(0xabc, params.fingerprint(), "gaze", "other+mix", 2)
            .is_none());
        std::fs::remove_dir_all(&dir).ok();
    }
}
