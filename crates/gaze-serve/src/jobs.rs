//! The async sweep-job subsystem: a bounded queue of spec executions
//! running on a small executor pool, separate from the HTTP workers.
//!
//! Cold sweeps take minutes; running one inside a request worker ties
//! that worker (and the client's socket) down for the duration. Instead,
//! `POST /experiments` *submits* the sweep: the
//! request returns `202 Accepted` with a job id immediately, the
//! executor pool runs the spec through the ordinary store-backed
//! pipeline, and `GET /jobs/<id>` reports progress until the CSV is
//! ready at `GET /jobs/<id>/result`.
//!
//! Robustness properties, each covered by tests:
//!
//! * **Dedup** — submitting a spec identical (canonical spec text +
//!   scale) to one already queued or running returns the existing job's
//!   id instead of simulating twice.
//! * **Admission control** — at most `queue_depth` jobs wait; past that,
//!   submission is refused (the HTTP layer maps this to `429` +
//!   `Retry-After`) instead of building an unbounded backlog.
//! * **Failure isolation** — a panic or error inside a job marks *that
//!   job* `failed` with the error text; the executor thread, the store,
//!   and every other job keep going. Rows recorded before the failure
//!   are flushed, so a retried job resumes warm.
//! * **Graceful shutdown** — [`JobManager::shutdown`] stops admitting,
//!   fails still-queued jobs, waits for running jobs to finish, and
//!   leaves flushing to the server's shutdown path.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use gaze_sim::experiments::ExperimentScale;
use gaze_sim::spec::{plan_specs, run_specs_with_progress, text, ExperimentSpec};

/// Default executor threads running submitted sweeps.
pub const DEFAULT_JOB_WORKERS: usize = 2;

/// Default bound on jobs waiting to start.
pub const DEFAULT_JOB_QUEUE_DEPTH: usize = 8;

/// `Retry-After` hint (seconds) sent with `429` rejections.
pub const RETRY_AFTER_SECONDS: u64 = 10;

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting for an executor.
    Queued,
    /// Executing: `done` of `total` planned simulation jobs finished
    /// (`total` is 0 until the plan is compiled).
    Running {
        /// Simulation jobs completed so far.
        done: usize,
        /// Simulation jobs in the plan.
        total: usize,
    },
    /// Finished; the CSV is available via [`JobManager::result`].
    Done {
        /// Simulation jobs the plan held.
        total: usize,
    },
    /// Failed (error, panic, or cancelled by shutdown).
    Failed {
        /// Human-readable cause, surfaced verbatim over HTTP.
        error: String,
    },
}

impl JobStatus {
    /// The lifecycle phase as a lowercase word (`queued`, `running`,
    /// `done`, `failed`).
    pub fn phase(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running { .. } => "running",
            JobStatus::Done { .. } => "done",
            JobStatus::Failed { .. } => "failed",
        }
    }
}

/// A point-in-time snapshot of one job, cheap to clone (no result body).
#[derive(Debug, Clone)]
pub struct JobInfo {
    /// The job's id (stable, unique within this process).
    pub id: String,
    /// Spec name as submitted.
    pub spec_name: String,
    /// Scale name the job runs at.
    pub scale_name: String,
    /// Current lifecycle state.
    pub status: JobStatus,
}

/// What [`JobManager::submit`] decided.
#[derive(Debug)]
pub enum SubmitOutcome {
    /// The job was admitted (or an identical one was already in flight).
    Accepted {
        /// Id to poll at `GET /jobs/<id>`.
        id: String,
        /// `true` when an identical queued/running job absorbed this
        /// submission.
        deduped: bool,
    },
    /// The wait queue is full; retry later.
    QueueFull {
        /// The configured queue bound that was hit.
        depth: usize,
    },
    /// The manager is shutting down and admits nothing.
    ShuttingDown,
}

/// The result of a finished job, for `GET /jobs/<id>/result`.
#[derive(Debug)]
pub enum JobResult {
    /// The job's CSV output.
    Ready(String),
    /// The job failed with this error.
    Failed(String),
    /// The job has not finished yet.
    NotFinished,
}

struct JobEntry {
    id: String,
    spec: ExperimentSpec,
    spec_name: String,
    scale: ExperimentScale,
    scale_name: String,
    fingerprint: u64,
    status: JobStatus,
    csv: Option<String>,
}

#[derive(Default)]
struct State {
    jobs: Vec<JobEntry>,
    by_id: HashMap<String, usize>,
    /// Indices of jobs waiting for an executor, in submission order.
    queue: VecDeque<usize>,
    /// Spec+scale fingerprint → index of the queued/running job running
    /// it, for in-flight dedup.
    inflight: HashMap<u64, usize>,
    closed: bool,
}

struct Shared {
    state: Mutex<State>,
    wake: Condvar,
}

/// Owns the executor pool and every job ever submitted to this process.
pub struct JobManager {
    shared: Arc<Shared>,
    executors: Mutex<Vec<JoinHandle<()>>>,
    queue_depth: usize,
}

impl std::fmt::Debug for JobManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobManager")
            .field("queue_depth", &self.queue_depth)
            .finish_non_exhaustive()
    }
}

fn lock(shared: &Shared) -> MutexGuard<'_, State> {
    // An executor that panicked mid-update poisons the mutex; the state
    // itself is always left consistent (updates are single assignments),
    // so recover rather than cascading the failure to every request.
    shared.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Best-effort text of a panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

impl JobManager {
    /// Starts `workers` executor threads with a wait queue bounded at
    /// `queue_depth`. `workers` may be 0 (tests use this to observe
    /// queued jobs deterministically); the server always passes ≥ 1.
    pub fn new(workers: usize, queue_depth: usize) -> JobManager {
        let shared = Arc::new(Shared {
            state: Mutex::new(State::default()),
            wake: Condvar::new(),
        });
        let executors = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || executor_loop(&shared))
            })
            .collect();
        JobManager {
            shared,
            executors: Mutex::new(executors),
            queue_depth: queue_depth.max(1),
        }
    }

    /// Admits a sweep, deduplicating against identical queued/running
    /// jobs and refusing past the queue bound.
    pub fn submit(
        &self,
        spec: ExperimentSpec,
        spec_name: &str,
        scale: ExperimentScale,
        scale_name: &str,
    ) -> SubmitOutcome {
        let fingerprint = job_fingerprint(&spec, &scale);
        let mut st = lock(&self.shared);
        if st.closed {
            crate::obs::note_job_rejected("shutdown");
            return SubmitOutcome::ShuttingDown;
        }
        if let Some(&idx) = st.inflight.get(&fingerprint) {
            crate::obs::note_job_deduped();
            return SubmitOutcome::Accepted {
                id: st.jobs[idx].id.clone(),
                deduped: true,
            };
        }
        if st.queue.len() >= self.queue_depth {
            crate::obs::note_job_rejected("queue_full");
            return SubmitOutcome::QueueFull {
                depth: self.queue_depth,
            };
        }
        // Ids fold the pid so ids from a restarted server never collide
        // with ones a client kept from the previous process.
        static NEXT_JOB: AtomicU64 = AtomicU64::new(0);
        let seq = NEXT_JOB.fetch_add(1, Ordering::Relaxed);
        let id = format!("job-{:x}-{seq}", std::process::id());
        let idx = st.jobs.len();
        st.jobs.push(JobEntry {
            id: id.clone(),
            spec,
            spec_name: spec_name.to_string(),
            scale,
            scale_name: scale_name.to_string(),
            fingerprint,
            status: JobStatus::Queued,
            csv: None,
        });
        st.by_id.insert(id.clone(), idx);
        st.queue.push_back(idx);
        st.inflight.insert(fingerprint, idx);
        crate::obs::note_job_transition("queued");
        crate::obs::set_queue_depth(st.queue.len());
        drop(st);
        gaze_obs::log::info(
            "gaze-serve",
            "job queued",
            &[("job", &id), ("spec", &spec_name), ("scale", &scale_name)],
        );
        self.shared.wake.notify_one();
        SubmitOutcome::Accepted { id, deduped: false }
    }

    /// Snapshot of one job by id.
    pub fn get(&self, id: &str) -> Option<JobInfo> {
        let st = lock(&self.shared);
        let &idx = st.by_id.get(id)?;
        Some(snapshot(&st.jobs[idx]))
    }

    /// Snapshots of every job, in submission order.
    pub fn list(&self) -> Vec<JobInfo> {
        lock(&self.shared).jobs.iter().map(snapshot).collect()
    }

    /// The finished job's CSV (or failure), by id. `None` for unknown
    /// ids.
    pub fn result(&self, id: &str) -> Option<JobResult> {
        let st = lock(&self.shared);
        let &idx = st.by_id.get(id)?;
        let entry = &st.jobs[idx];
        Some(match &entry.status {
            JobStatus::Done { .. } => JobResult::Ready(entry.csv.clone().unwrap_or_default()),
            JobStatus::Failed { error } => JobResult::Failed(error.clone()),
            _ => JobResult::NotFinished,
        })
    }

    /// Number of jobs waiting to start.
    pub fn queued_len(&self) -> usize {
        lock(&self.shared).queue.len()
    }

    /// Stops admitting work, fails every still-queued job, and blocks
    /// until running jobs have finished (drain). Idempotent.
    pub fn shutdown(&self) {
        {
            let mut st = lock(&self.shared);
            st.closed = true;
            while let Some(idx) = st.queue.pop_front() {
                let fp = st.jobs[idx].fingerprint;
                if st.inflight.get(&fp) == Some(&idx) {
                    st.inflight.remove(&fp);
                }
                st.jobs[idx].status = JobStatus::Failed {
                    error: "server shut down before the job started".to_string(),
                };
                crate::obs::note_job_transition("failed");
            }
            crate::obs::set_queue_depth(st.queue.len());
        }
        self.shared.wake.notify_all();
        let executors = std::mem::take(
            &mut *self
                .executors
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for handle in executors {
            let _ = handle.join();
        }
    }
}

fn snapshot(entry: &JobEntry) -> JobInfo {
    JobInfo {
        id: entry.id.clone(),
        spec_name: entry.spec_name.clone(),
        scale_name: entry.scale_name.clone(),
        status: entry.status.clone(),
    }
}

/// Canonical identity of a submission: the spec's canonical text (so two
/// routes to the same spec dedup) plus the scale's parameters.
fn job_fingerprint(spec: &ExperimentSpec, scale: &ExperimentScale) -> u64 {
    let mut hasher = sim_core::params::Fnv1a::new();
    for byte in text::to_text(spec).bytes() {
        hasher.mix(u64::from(byte));
    }
    hasher.mix(scale.params.fingerprint());
    hasher.mix(scale.workloads_per_suite as u64);
    hasher.finish()
}

fn executor_loop(shared: &Shared) {
    loop {
        let idx = {
            let mut st = lock(shared);
            loop {
                if let Some(idx) = st.queue.pop_front() {
                    crate::obs::set_queue_depth(st.queue.len());
                    break idx;
                }
                if st.closed {
                    return;
                }
                st = shared.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        run_job(shared, idx);
    }
}

fn run_job(shared: &Shared, idx: usize) {
    let started = std::time::Instant::now();
    let (id, spec, scale) = {
        let mut st = lock(shared);
        let entry = &mut st.jobs[idx];
        entry.status = JobStatus::Running { done: 0, total: 0 };
        (entry.id.clone(), entry.spec.clone(), entry.scale)
    };
    crate::obs::note_job_transition("running");
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        execute_spec(shared, idx, &spec, &scale)
    }));
    // Whatever happened, persist the rows that did land: a failed job
    // retried later resumes warm from them.
    gaze_sim::results::flush();
    let mut st = lock(shared);
    let entry = &mut st.jobs[idx];
    let error = match outcome {
        Ok(Ok((csv, total))) => {
            entry.csv = Some(csv);
            entry.status = JobStatus::Done { total };
            None
        }
        Ok(Err(error)) => {
            entry.status = JobStatus::Failed {
                error: error.clone(),
            };
            Some(error)
        }
        Err(payload) => {
            let error = format!("job panicked: {}", panic_message(payload.as_ref()));
            entry.status = JobStatus::Failed {
                error: error.clone(),
            };
            Some(error)
        }
    };
    let phase = entry.status.phase();
    let fp = entry.fingerprint;
    if st.inflight.get(&fp) == Some(&idx) {
        st.inflight.remove(&fp);
    }
    // Counted before the lock drops, so a client that sees the terminal
    // status also sees the transition in its next `/metrics` scrape.
    crate::obs::note_job_transition(if error.is_none() { "done" } else { "failed" });
    drop(st);
    let us = started.elapsed().as_micros() as u64;
    crate::obs::note_job_duration(us);
    match error {
        None => gaze_obs::log::info(
            "gaze-serve",
            "job finished",
            &[("job", &id), ("status", &phase), ("us", &us)],
        ),
        Some(error) => gaze_obs::log::warn(
            "gaze-serve",
            "job failed",
            &[("job", &id), ("error", &error), ("us", &us)],
        ),
    }
}

fn execute_spec(
    shared: &Shared,
    idx: usize,
    spec: &ExperimentSpec,
    scale: &ExperimentScale,
) -> Result<(String, usize), String> {
    results_store::fault::check_io("jobs.execute").map_err(|e| e.to_string())?;
    let total = plan_specs(&[spec], scale).len();
    {
        let mut st = lock(shared);
        st.jobs[idx].status = JobStatus::Running { done: 0, total };
    }
    let progress = |done: usize, total: usize| {
        let mut st = lock(shared);
        st.jobs[idx].status = JobStatus::Running { done, total };
    };
    let tables = run_specs_with_progress(&[spec], scale, Some(&progress))
        .pop()
        .expect("one table set per spec");
    let csv: String = tables.iter().map(|t| t.to_csv()).collect();
    Ok((csv, total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaze_sim::spec::builtin;

    fn static_spec() -> ExperimentSpec {
        // table4 is storage-only: zero simulation jobs, runs instantly.
        builtin::builtin_spec("table4").expect("builtin table4")
    }

    fn scale() -> ExperimentScale {
        ExperimentScale::named("test").expect("test scale")
    }

    fn wait_done(mgr: &JobManager, id: &str) -> JobInfo {
        for _ in 0..500 {
            let info = mgr.get(id).expect("known job");
            match info.status {
                JobStatus::Queued | JobStatus::Running { .. } => {
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
                _ => return info,
            }
        }
        panic!("job {id} never finished");
    }

    #[test]
    fn job_runs_to_done_and_serves_its_csv() {
        let mgr = JobManager::new(1, 4);
        let SubmitOutcome::Accepted { id, deduped } =
            mgr.submit(static_spec(), "table4", scale(), "test")
        else {
            panic!("submit refused");
        };
        assert!(!deduped);
        let info = wait_done(&mgr, &id);
        assert_eq!(info.status, JobStatus::Done { total: 0 });
        assert_eq!(info.spec_name, "table4");
        let JobResult::Ready(csv) = mgr.result(&id).expect("known job") else {
            panic!("result not ready");
        };
        let expected: String = gaze_sim::spec::run_spec(&static_spec(), &scale())
            .iter()
            .map(|t| t.to_csv())
            .collect();
        assert_eq!(csv, expected, "job CSV matches the synchronous pipeline");
        mgr.shutdown();
    }

    #[test]
    fn inflight_submissions_dedup_and_queue_bound_rejects() {
        // No executors: everything stays queued, deterministically.
        let mgr = JobManager::new(0, 2);
        let SubmitOutcome::Accepted { id: first, deduped } =
            mgr.submit(static_spec(), "table4", scale(), "test")
        else {
            panic!("first submit refused");
        };
        assert!(!deduped);

        // The identical spec+scale dedups onto the existing job and does
        // not consume queue capacity.
        let SubmitOutcome::Accepted { id: again, deduped } =
            mgr.submit(static_spec(), "table4", scale(), "test")
        else {
            panic!("dup submit refused");
        };
        assert!(deduped);
        assert_eq!(again, first);
        assert_eq!(mgr.queued_len(), 1);

        // A different scale is a different job; it fills the queue.
        let quick = ExperimentScale::named("quick").expect("quick");
        let SubmitOutcome::Accepted { deduped: false, .. } =
            mgr.submit(static_spec(), "table4", quick, "quick")
        else {
            panic!("second submit refused");
        };
        let bench = ExperimentScale::named("bench").expect("bench");
        let SubmitOutcome::QueueFull { depth: 2 } =
            mgr.submit(static_spec(), "table4", bench, "bench")
        else {
            panic!("expected queue-full");
        };

        // Shutdown fails the queued jobs and refuses new ones.
        mgr.shutdown();
        let info = mgr.get(&first).expect("known job");
        assert!(
            matches!(&info.status, JobStatus::Failed { error } if error.contains("shut down")),
            "{:?}",
            info.status
        );
        assert!(matches!(
            mgr.submit(static_spec(), "table4", scale(), "test"),
            SubmitOutcome::ShuttingDown
        ));
    }

    #[test]
    fn injected_failure_marks_the_job_failed_and_a_retry_succeeds() {
        let _fx = results_store::fault::exclusive();
        let mgr = JobManager::new(1, 4);
        results_store::fault::arm_nth(
            "jobs.execute",
            0,
            results_store::fault::FaultKind::Error(std::io::ErrorKind::Interrupted),
        );
        let SubmitOutcome::Accepted { id, .. } =
            mgr.submit(static_spec(), "table4", scale(), "test")
        else {
            panic!("submit refused");
        };
        let info = wait_done(&mgr, &id);
        let JobStatus::Failed { error } = &info.status else {
            panic!("expected failure, got {:?}", info.status);
        };
        assert!(error.contains("jobs.execute"), "{error}");
        assert!(matches!(mgr.result(&id), Some(JobResult::Failed(_))));

        // The failed job left the in-flight table, so a resubmission is a
        // fresh job — and the one-shot fault is spent, so it completes.
        let SubmitOutcome::Accepted { id: retry, deduped } =
            mgr.submit(static_spec(), "table4", scale(), "test")
        else {
            panic!("retry refused");
        };
        assert!(!deduped);
        assert_ne!(retry, id);
        let info = wait_done(&mgr, &retry);
        assert_eq!(info.status, JobStatus::Done { total: 0 });
        mgr.shutdown();
    }

    #[test]
    fn injected_panic_is_contained_to_the_job() {
        let _fx = results_store::fault::exclusive();
        let mgr = JobManager::new(1, 4);
        results_store::fault::arm_nth("jobs.execute", 0, results_store::fault::FaultKind::Panic);
        let SubmitOutcome::Accepted { id, .. } =
            mgr.submit(static_spec(), "table4", scale(), "test")
        else {
            panic!("submit refused");
        };
        let info = wait_done(&mgr, &id);
        let JobStatus::Failed { error } = &info.status else {
            panic!("expected failure, got {:?}", info.status);
        };
        assert!(error.contains("panicked"), "{error}");

        // The executor that caught the panic still runs the next job.
        let quick = ExperimentScale::named("quick").expect("quick");
        let SubmitOutcome::Accepted { id: next, .. } =
            mgr.submit(static_spec(), "table4", quick, "quick")
        else {
            panic!("submit refused");
        };
        let info = wait_done(&mgr, &next);
        assert_eq!(info.status, JobStatus::Done { total: 0 });
        mgr.shutdown();
    }
}
