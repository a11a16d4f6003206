//! Write-through persistence of experiment results.
//!
//! When a results directory is active (the `GAZE_RESULTS_DIR` environment
//! variable, or an explicit [`configure`] call), the experiment engine
//! ([`spec::plan::execute`](crate::spec::plan::execute)) consults the
//! persistent [`ResultsStore`] before simulating each job:
//!
//! * **hit** — the stored [`RunRecord`] is returned as a [`SingleRun`]
//!   without touching the simulator (the counters are exact `u64`s, so
//!   every derived metric — and therefore every figure CSV — is
//!   bit-identical to a fresh simulation);
//! * **miss** — the job is simulated and the result is recorded
//!   write-through, so the *next* process to ask gets the hit.
//!
//! Multi-core jobs follow the same pattern with v2 *mix* records, looked
//! up via [`lookup_mix`](StoreHandle::lookup_mix) and recorded via
//! [`record_mix`](StoreHandle::record_mix), keyed by the mix fingerprint
//! ([`sim_core::params::mix_fingerprint`]) and the params fingerprint *at
//! the mix's core count*. The runners themselves never touch the store.
//!
//! A warm store thus regenerates the full figure set — multi-core
//! fig13–fig18 included — with zero simulation; see the `results_store`
//! integration test and the CI warm restart smoke.
//!
//! Appends are buffered and written as one crash-safe segment per
//! [`flush`] (the parallel engine flushes after each fan-out, the CLI
//! flushes at exit, and the buffer auto-flushes every
//! [`AUTO_FLUSH_RECORDS`] appends). The store handle is process-global
//! and mutexed, so the parallel engine's workers can record concurrently.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use results_store::{MixRecord, ResultsStore, RunRecord};
use sim_core::params::RunParams;
use sim_core::stats::SimReport;

use crate::runner::SingleRun;

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

/// A thread-safe handle to one open [`ResultsStore`].
#[derive(Debug)]
pub struct StoreHandle {
    store: Mutex<ResultsStore>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl StoreHandle {
    /// Opens (creating if needed) the store at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<StoreHandle> {
        Ok(StoreHandle {
            store: Mutex::new(ResultsStore::open(dir)?),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// Looks up the stored run for (trace fingerprint, params fingerprint,
    /// prefetcher) and converts it back to a [`SingleRun`].
    ///
    /// The stored workload name must match `workload` — fingerprints are
    /// content hashes, so two differently-named workloads with identical
    /// record streams share a key; a name mismatch is treated as a miss so
    /// the caller's report rows always carry the right label.
    pub fn lookup(
        &self,
        trace_fingerprint: u64,
        params_fingerprint: u64,
        prefetcher: &str,
        workload: &str,
    ) -> Option<SingleRun> {
        let store = self.store.lock().expect("results store poisoned");
        let rec = store.get(trace_fingerprint, params_fingerprint, prefetcher)?;
        if rec.workload != workload {
            return None;
        }
        let run = SingleRun {
            workload: rec.workload.clone(),
            prefetcher: rec.prefetcher.clone(),
            stats: rec.stats,
            baseline: rec.baseline,
        };
        drop(store);
        self.hits.fetch_add(1, Ordering::Relaxed);
        store_counters().0.inc();
        Some(run)
    }

    /// Whether the store holds the run for (trace fingerprint, params
    /// fingerprint, prefetcher) under the expected workload name — the same
    /// test [`lookup`](Self::lookup) applies, but without touching the
    /// hit/miss counters. The spec planner's warm/cold dry-run uses this.
    pub fn contains(
        &self,
        trace_fingerprint: u64,
        params_fingerprint: u64,
        prefetcher: &str,
        workload: &str,
    ) -> bool {
        self.with_store(|s| {
            s.get(trace_fingerprint, params_fingerprint, prefetcher)
                .is_some_and(|rec| rec.workload == workload)
        })
    }

    /// Whether the store holds the multi-core run for (mix fingerprint,
    /// params fingerprint, prefetcher) under the expected label, without
    /// touching the hit/miss counters.
    pub fn contains_mix(
        &self,
        mix_fingerprint: u64,
        params_fingerprint: u64,
        prefetcher: &str,
        label: &str,
    ) -> bool {
        self.with_store(|s| {
            s.get_mix(mix_fingerprint, params_fingerprint, prefetcher)
                .is_some_and(|rec| rec.label == label)
        })
    }

    /// Records a freshly simulated run write-through (deduplicated inside
    /// the store). Auto-flushes when the pending batch reaches
    /// [`AUTO_FLUSH_RECORDS`].
    pub fn record(&self, run: &SingleRun, trace_fingerprint: u64, params: &RunParams) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        store_counters().1.inc();
        let rec = RunRecord {
            trace_fingerprint,
            params_fingerprint: params.fingerprint(),
            workload: run.workload.clone(),
            prefetcher: run.prefetcher.clone(),
            stats: run.stats,
            baseline: run.baseline,
        };
        let mut store = self.store.lock().expect("results store poisoned");
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

    /// Looks up the stored multi-core run for (mix fingerprint, params
    /// fingerprint, prefetcher) and returns its [`SimReport`].
    ///
    /// Like [`lookup`](Self::lookup), the stored mix label must match
    /// `label` — a mismatch is treated as a miss so reports always carry
    /// the right workloads even under a fingerprint collision.
    pub fn lookup_mix(
        &self,
        mix_fingerprint: u64,
        params_fingerprint: u64,
        prefetcher: &str,
        label: &str,
    ) -> Option<SimReport> {
        let store = self.store.lock().expect("results store poisoned");
        let rec = store.get_mix(mix_fingerprint, params_fingerprint, prefetcher)?;
        if rec.label != label {
            return None;
        }
        let report = rec.report.clone();
        drop(store);
        self.hits.fetch_add(1, Ordering::Relaxed);
        store_counters().0.inc();
        Some(report)
    }

    /// Records a freshly simulated multi-core run write-through
    /// (deduplicated inside the store). `params` must already be at the
    /// mix's core count (the runners key on `params.with_cores(n)`).
    /// Auto-flushes when the pending batch reaches [`AUTO_FLUSH_RECORDS`].
    pub fn record_mix(
        &self,
        report: &SimReport,
        mix_fingerprint: u64,
        params: &RunParams,
        prefetcher: &str,
        label: &str,
    ) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        store_counters().1.inc();
        let rec = MixRecord {
            mix_fingerprint,
            params_fingerprint: params.fingerprint(),
            prefetcher: prefetcher.to_string(),
            label: label.to_string(),
            report: report.clone(),
        };
        let mut store = self.store.lock().expect("results store poisoned");
        store.append_mix(rec);
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

    /// Flushes pending appends as one crash-safe segment per record kind.
    pub fn flush(&self) -> io::Result<usize> {
        self.store.lock().expect("results store poisoned").flush()
    }

    /// Reloads the store from disk when another process has flushed new
    /// segments since this handle opened (or last reloaded); pending rows
    /// of this handle are carried over. Returns whether a reload
    /// happened. `gaze-serve` calls this per request so a server sees
    /// stores written by concurrent experiment runs without a restart.
    pub fn reload_if_stale(&self) -> io::Result<bool> {
        self.store
            .lock()
            .expect("results store poisoned")
            .reload_if_stale()
    }

    /// Store lookups served without simulation since this handle opened.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Store misses (i.e. simulations recorded write-through).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Runs `f` with the underlying store locked (for queries; the HTTP
    /// front-end's `/runs` endpoint goes through this).
    pub fn with_store<R>(&self, f: impl FnOnce(&ResultsStore) -> R) -> R {
        f(&self.store.lock().expect("results store poisoned"))
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
    use crate::runner::run_single;
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
        let run = run_single(&trace, "gaze", &params);
        let fp = source_fingerprint(&trace);

        let handle = StoreHandle::open(&dir).expect("open");
        assert!(handle
            .lookup(fp, params.fingerprint(), "gaze", "bwaves_s")
            .is_none());
        handle.record(&run, fp, &params);
        handle.flush().expect("flush");

        let reopened = StoreHandle::open(&dir).expect("reopen");
        let hit = reopened
            .lookup(fp, params.fingerprint(), "gaze", "bwaves_s")
            .expect("stored run");
        assert_eq!(hit.workload, run.workload);
        assert_eq!(hit.stats, run.stats);
        assert_eq!(hit.baseline, run.baseline);
        assert_eq!(hit.speedup(), run.speedup());
        assert_eq!(reopened.hits(), 1);
        // A mismatched workload name is a miss even with the right key.
        assert!(reopened
            .lookup(fp, params.fingerprint(), "gaze", "other-name")
            .is_none());
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
            .lookup_mix(0xabc, params.fingerprint(), "gaze", "a+b")
            .is_none());
        handle.record_mix(&report, 0xabc, &params, "gaze", "a+b");
        handle.flush().expect("flush");

        let reopened = StoreHandle::open(&dir).expect("reopen");
        let hit = reopened
            .lookup_mix(0xabc, params.fingerprint(), "gaze", "a+b")
            .expect("stored mix");
        assert_eq!(hit, report);
        assert_eq!(reopened.hits(), 1);
        // A mismatched label is a miss even with the right key.
        assert!(reopened
            .lookup_mix(0xabc, params.fingerprint(), "gaze", "other+mix")
            .is_none());
        std::fs::remove_dir_all(&dir).ok();
    }
}
