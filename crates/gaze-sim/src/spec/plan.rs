//! Spec compilation: tables → deduplicated atomic simulation jobs, and
//! the engine that executes a plan.
//!
//! The engine is the one dedup and persistence layer: the plan holds each
//! job once, [`execute`] looks every job up in the active results store
//! before simulating it and records misses write-through, and a sweep's
//! single-core jobs share one no-prefetching baseline per (workload,
//! params). The runners it calls only simulate.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use results_store::{MixRecord, Record, RunRecord};
use sim_core::stats::{CoreStats, SimReport};
use sim_core::trace::{source_fingerprint, TraceSource};

use crate::experiments::ExperimentScale;
use crate::factory::make_prefetcher;
use crate::parallel::parallel_map;
use crate::results::StoreHandle;
use crate::runner::{
    mix_label, multi_level_name, records_for, run_heterogeneous, simulate_core, RunParams,
    SingleRun,
};
use crate::trace_store::LazyWorkload;

use super::{resolve_workloads, split_levels, ConfigAxis, Entry, TableKind};

/// One atomic simulation job.
#[derive(Debug, Clone)]
pub enum Job {
    /// A single-core run (optionally multi-level) with its baseline.
    Single {
        /// Workload name.
        workload: String,
        /// L1D prefetcher.
        l1: String,
        /// Optional L2C prefetcher.
        l2: Option<String>,
        /// Run parameters (config overrides already applied).
        params: RunParams,
    },
    /// A multi-core mix run (`prefetcher == "none"` is the baseline).
    Mix {
        /// Per-core workloads, in core order.
        workloads: Vec<String>,
        /// Prefetcher run on every core.
        prefetcher: String,
        /// Base run parameters (`with_cores` is applied at execution).
        params: RunParams,
    },
}

impl Job {
    /// The job's dedup/lookup key.
    pub fn key(&self) -> JobKey {
        match self {
            Job::Single {
                workload,
                l1,
                l2,
                params,
            } => JobKey::Single {
                workload: workload.clone(),
                name: multi_level_name(l1, l2.as_deref()),
                params_fp: params.fingerprint(),
            },
            Job::Mix {
                workloads,
                prefetcher,
                params,
            } => JobKey::Mix {
                workloads: workloads.clone(),
                prefetcher: prefetcher.clone(),
                params_fp: params.with_cores(workloads.len()).fingerprint(),
            },
        }
    }

    /// Workload names this job touches.
    fn workload_names(&self) -> Vec<&str> {
        match self {
            Job::Single { workload, .. } => vec![workload.as_str()],
            Job::Mix { workloads, .. } => workloads.iter().map(String::as_str).collect(),
        }
    }
}

/// Identity of a job: what it simulates, not how it was requested. Two
/// tables (or two specs) asking for the same cell produce one job.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum JobKey {
    /// Key of a [`Job::Single`], with the combined `l1+l2` store name.
    Single {
        /// Workload name.
        workload: String,
        /// Combined prefetcher name ([`multi_level_name`]).
        name: String,
        /// Fingerprint of the run parameters.
        params_fp: u64,
    },
    /// Key of a [`Job::Mix`].
    Mix {
        /// Per-core workloads.
        workloads: Vec<String>,
        /// Prefetcher name.
        prefetcher: String,
        /// Fingerprint of the parameters at the mix's core count.
        params_fp: u64,
    },
}

/// A deduplicated, ordered list of jobs.
#[derive(Debug, Default)]
pub struct JobPlan {
    jobs: Vec<Job>,
    seen: HashSet<JobKey>,
}

impl JobPlan {
    /// Adds a job unless an identical one is already planned.
    pub fn push(&mut self, job: Job) {
        if self.seen.insert(job.key()) {
            self.jobs.push(job);
        }
    }

    /// The planned jobs, in first-request order.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Number of planned jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the plan is empty (static tables only).
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Counts of (single-core jobs, mix jobs).
    pub fn kind_counts(&self) -> (usize, usize) {
        let singles = self
            .jobs
            .iter()
            .filter(|j| matches!(j, Job::Single { .. }))
            .count();
        (singles, self.jobs.len() - singles)
    }

    /// Distinct workloads the plan touches.
    pub fn workload_count(&self) -> usize {
        let mut names = HashSet::new();
        for job in &self.jobs {
            names.extend(job.workload_names());
        }
        names.len()
    }
}

/// Run parameters of one sweep point: the scale's budgets with the axis
/// override applied to the configuration.
pub fn sweep_params(scale: &ExperimentScale, axis: ConfigAxis, value: f64) -> RunParams {
    RunParams {
        config: axis.apply(scale.params.config, value),
        ..scale.params
    }
}

/// The heterogeneous mix of `cores` workloads drawn round-robin from the
/// selection (the Fig. 14 rule).
pub fn cycled_mix(names: &[String], cores: usize) -> Vec<String> {
    names.iter().cloned().cycle().take(cores).collect()
}

/// Appends the jobs one table needs to the plan.
pub fn table_jobs(kind: &TableKind, scale: &ExperimentScale, plan: &mut JobPlan) {
    let single = |plan: &mut JobPlan, workload: &str, name: &str, params: RunParams| {
        let (l1, l2) = split_levels(name);
        plan.push(Job::Single {
            workload: workload.to_string(),
            l1: l1.to_string(),
            l2: l2.map(str::to_string),
            params,
        });
    };
    let singles_over = |plan: &mut JobPlan, names: &[String], rows: &[Entry]| {
        for entry in rows {
            for workload in names {
                single(plan, workload, &entry.name, scale.params);
            }
        }
    };
    match kind {
        TableKind::TraceGroupMeans { rows, groups, .. } => {
            for (_, sel) in groups {
                singles_over(plan, &resolve_workloads(sel, scale), rows);
            }
        }
        TableKind::VariantSummary {
            traces,
            rows,
            columns,
            ..
        } => {
            let names = resolve_workloads(traces, scale);
            singles_over(plan, &names, rows);
            for base in columns.iter().filter_map(|c| c.base.as_deref()) {
                for workload in &names {
                    single(plan, workload, base, scale.params);
                }
            }
        }
        TableKind::WorkloadRows { traces, rows, .. }
        | TableKind::SuiteSections { traces, rows, .. } => {
            singles_over(plan, &resolve_workloads(traces, scale), rows);
        }
        TableKind::MultiLevel { traces, rows } => {
            let names = resolve_workloads(traces, scale);
            for row in rows {
                let combined = multi_level_name(&row.l1, row.l2.as_deref());
                for workload in &names {
                    single(plan, workload, &combined, scale.params);
                }
            }
        }
        TableKind::MulticoreScaling {
            traces,
            rows,
            cores,
        } => {
            let names = resolve_workloads(traces, scale);
            for entry in rows {
                for &c in cores {
                    for workload in &names {
                        let homo = vec![workload.clone(); c];
                        for prefetcher in [entry.name.as_str(), "none"] {
                            plan.push(Job::Mix {
                                workloads: homo.clone(),
                                prefetcher: prefetcher.to_string(),
                                params: scale.params,
                            });
                        }
                    }
                    let het = cycled_mix(&names, c);
                    for prefetcher in [entry.name.as_str(), "none"] {
                        plan.push(Job::Mix {
                            workloads: het.clone(),
                            prefetcher: prefetcher.to_string(),
                            params: scale.params,
                        });
                    }
                }
            }
        }
        TableKind::MixPerCore { mixes, rows } => {
            // gaze-lint: allow(map_iteration) -- `mixes` here is the variant's Vec<MixSpec>, not the HashMap field of the same name
            for mix in mixes {
                for entry in rows {
                    for prefetcher in [entry.name.as_str(), "none"] {
                        plan.push(Job::Mix {
                            workloads: mix.workloads.clone(),
                            prefetcher: prefetcher.to_string(),
                            params: scale.params,
                        });
                    }
                }
            }
        }
        TableKind::ConfigSweep {
            traces,
            axis,
            points,
            rows,
            ..
        } => {
            let names = resolve_workloads(traces, scale);
            for entry in rows {
                for point in points {
                    let params = sweep_params(scale, *axis, point.value);
                    for workload in &names {
                        single(plan, workload, &entry.name, params);
                    }
                }
            }
        }
        TableKind::StorageBreakdown | TableKind::StorageList { .. } => {}
    }
}

/// Results of an executed plan, keyed by [`JobKey`].
#[derive(Debug, Default)]
pub struct JobResults {
    singles: HashMap<JobKey, SingleRun>,
    mixes: HashMap<JobKey, SimReport>,
}

impl JobResults {
    /// The single-core run of (workload, combined prefetcher name) under
    /// `params`.
    ///
    /// # Panics
    ///
    /// Panics if the job was not planned — a renderer/planner mismatch,
    /// which is a bug.
    pub fn single(&self, workload: &str, name: &str, params: &RunParams) -> &SingleRun {
        let key = JobKey::Single {
            workload: workload.to_string(),
            name: name.to_string(),
            params_fp: params.fingerprint(),
        };
        self.singles
            .get(&key)
            .unwrap_or_else(|| panic!("unplanned single job {workload}/{name}"))
    }

    /// The mix report of (workloads, prefetcher) under `params`.
    ///
    /// # Panics
    ///
    /// Panics if the job was not planned.
    pub fn mix(&self, workloads: &[String], prefetcher: &str, params: &RunParams) -> &SimReport {
        let key = JobKey::Mix {
            workloads: workloads.to_vec(),
            prefetcher: prefetcher.to_string(),
            params_fp: params.with_cores(workloads.len()).fingerprint(),
        };
        self.mixes
            .get(&key)
            .unwrap_or_else(|| panic!("unplanned mix job {workloads:?}/{prefetcher}"))
    }

    /// Number of executed jobs.
    pub fn len(&self) -> usize {
        self.singles.len() + self.mixes.len()
    }

    /// Whether no jobs were executed.
    pub fn is_empty(&self) -> bool {
        self.singles.is_empty() && self.mixes.is_empty()
    }

    /// Stores `run` as the single-core result of (workload, name) under
    /// `params`, so render tests can hand-build results.
    #[cfg(test)]
    pub(crate) fn insert_single(&mut self, name: &str, params: &RunParams, run: SingleRun) {
        let key = JobKey::Single {
            workload: run.workload.clone(),
            name: name.to_string(),
            params_fp: params.fingerprint(),
        };
        self.singles.insert(key, run);
    }
}

/// The lazy workload handles of one plan, by name.
type Workloads = HashMap<String, LazyWorkload>;

/// One lazy handle per workload the plan touches. Creating the handles
/// touches no trace: a job materializes its workloads only when it
/// simulates, i.e. on a store miss.
fn workload_handles(plan: &JobPlan, scale: &ExperimentScale) -> Workloads {
    let records = records_for(&scale.params);
    let mut traces = Workloads::new();
    for job in plan.jobs() {
        for name in job.workload_names() {
            if !traces.contains_key(name) {
                traces.insert(name.to_string(), LazyWorkload::new(name, records));
            }
        }
    }
    traces
}

/// Where a job's row lives in the results store.
struct StoreKey {
    /// Trace fingerprint (single-core) or mix fingerprint (mix).
    fingerprint: u64,
    /// The parameters the row is keyed under: at the mix's core count
    /// for a mix.
    params: RunParams,
    /// Stored prefetcher name (the combined `l1+l2` name when multi-level).
    name: String,
    /// Workload name (single-core) or mix label (mix) the row must carry.
    label: String,
}

/// The store key of `job`. Fingerprints a workload without building it
/// when its fingerprint is already memoized in this process.
fn store_key(job: &Job, traces: &Workloads) -> StoreKey {
    match job {
        Job::Single {
            workload,
            l1,
            l2,
            params,
        } => StoreKey {
            fingerprint: source_fingerprint(&traces[workload.as_str()]),
            params: *params,
            name: multi_level_name(l1, l2.as_deref()),
            label: workload.clone(),
        },
        Job::Mix {
            workloads,
            prefetcher,
            params,
        } => {
            let refs = mix_refs(workloads, traces);
            let fps: Vec<u64> = refs.iter().map(|t| source_fingerprint(*t)).collect();
            StoreKey {
                fingerprint: sim_core::params::mix_fingerprint(&fps),
                params: params.with_cores(workloads.len()),
                name: prefetcher.clone(),
                label: mix_label(&refs),
            }
        }
    }
}

/// Every job's store key, in plan order. The workloads this process has
/// not fingerprinted yet are fingerprinted first, in one parallel pass
/// (a cold sweep's trace builds); the keys themselves are computed on the
/// calling thread, so a warm plan spawns no worker.
fn store_keys<'p>(
    plan: &'p JobPlan,
    traces: &'p Workloads,
) -> impl Iterator<Item = (&'p Job, StoreKey)> + 'p {
    // gaze-lint: allow(map_iteration) -- order-independent: it only decides which worker fingerprints which workload
    let unknown: Vec<&LazyWorkload> = traces.values().filter(|t| !t.fingerprint_known()).collect();
    parallel_map(&unknown, |t| t.fingerprint());
    plan.jobs()
        .iter()
        .map(move |job| (job, store_key(job, traces)))
}

fn mix_refs<'a>(workloads: &[String], traces: &'a Workloads) -> Vec<&'a dyn TraceSource> {
    workloads
        .iter()
        .map(|w| &traces[w.as_str()] as &dyn TraceSource)
        .collect()
}

/// A job result and the store row that persists it: all that differs
/// between single-core and mix jobs on the store path.
trait Persisted: Sized {
    /// The row kind.
    type Row: Record;
    /// The result a stored row carries.
    fn from_row(row: Self::Row) -> Self;
    /// The row that stores this result under `key`.
    fn to_row(&self, key: &StoreKey) -> Self::Row;
}

impl Persisted for SingleRun {
    type Row = RunRecord;

    fn from_row(row: RunRecord) -> SingleRun {
        SingleRun {
            workload: row.workload,
            prefetcher: row.prefetcher,
            stats: row.stats,
            baseline: row.baseline,
        }
    }

    fn to_row(&self, key: &StoreKey) -> RunRecord {
        RunRecord {
            trace_fingerprint: key.fingerprint,
            params_fingerprint: key.params.fingerprint(),
            workload: self.workload.clone(),
            prefetcher: self.prefetcher.clone(),
            stats: self.stats,
            baseline: self.baseline,
        }
    }
}

impl Persisted for SimReport {
    type Row = MixRecord;

    fn from_row(row: MixRecord) -> SimReport {
        row.report
    }

    fn to_row(&self, key: &StoreKey) -> MixRecord {
        MixRecord {
            mix_fingerprint: key.fingerprint,
            params_fingerprint: key.params.fingerprint(),
            prefetcher: key.name.clone(),
            label: key.label.clone(),
            report: self.clone(),
        }
    }
}

/// The stored `T` under `key`, counted as a hit.
fn lookup<T: Persisted>(store: &StoreHandle, key: &StoreKey) -> Option<T> {
    let pfp = key.params.fingerprint();
    store
        .lookup(key.fingerprint, pfp, &key.name, &key.label)
        .map(T::from_row)
}

/// Whether the store holds the `T` row under `key`, without touching the
/// hit/miss counters.
fn stored<T: Persisted>(store: &StoreHandle, key: &StoreKey) -> bool {
    let pfp = key.params.fingerprint();
    store.contains::<T::Row>(key.fingerprint, pfp, &key.name, &key.label)
}

/// One slot per (workload, params fingerprint) a plan's single-core jobs
/// touch, filled with that no-prefetching baseline on first use.
type Baselines<'a> = HashMap<(&'a str, u64), OnceLock<CoreStats>>;

/// Simulates `job`; a single-core job takes its baseline from its slot.
fn simulate(job: &Job, traces: &Workloads, baselines: &Baselines) -> Output {
    match job {
        Job::Single {
            workload,
            l1,
            l2,
            params,
        } => {
            let trace = &traces[workload.as_str()];
            let slot = &baselines[&(workload.as_str(), params.fingerprint())];
            Output::Single(Box::new(SingleRun {
                workload: workload.clone(),
                prefetcher: multi_level_name(l1, l2.as_deref()),
                stats: simulate_core(
                    trace,
                    make_prefetcher(l1),
                    l2.as_deref().map(make_prefetcher),
                    params,
                ),
                baseline: *slot
                    .get_or_init(|| simulate_core(trace, make_prefetcher("none"), None, params)),
            }))
        }
        Job::Mix {
            workloads,
            prefetcher,
            params,
        } => Output::Mix(run_heterogeneous(
            &mix_refs(workloads, traces),
            prefetcher,
            params,
        )),
    }
}

/// A jobs-completed observer for [`execute_with_progress`]: called as
/// `(done, total)` after each job finishes — on the calling thread for a
/// store hit, on whichever worker simulated it for a miss.
pub type Progress<'a> = &'a (dyn Fn(usize, usize) + Sync);

/// Executes a plan. Every job is keyed and looked up in the active results
/// store on the calling thread; only the misses fan out to the engine's
/// workers, which simulate them and record each write-through. Results
/// become durable before this returns.
///
/// A single-core miss takes its no-prefetching baseline from a table with
/// one slot per (workload, params) the misses touch, so each distinct
/// baseline is simulated at most once per call, and only when some job
/// needing it misses. Stored rows carry their baseline, so a warm plan
/// simulates nothing and starts no thread. The `"none"` mix jobs are
/// ordinary plan jobs.
pub fn execute(plan: &JobPlan, scale: &ExperimentScale) -> JobResults {
    execute_with_progress(plan, scale, None)
}

/// [`execute`] with an optional progress callback, so long-running sweeps
/// (e.g. async serving jobs) can report how many of the plan's jobs have
/// completed without waiting for the whole fan-out.
pub fn execute_with_progress(
    plan: &JobPlan,
    scale: &ExperimentScale,
    progress: Option<Progress<'_>>,
) -> JobResults {
    let traces = workload_handles(plan, scale);
    let store = crate::results::active_store();
    let total = plan.len();
    let done = AtomicUsize::new(0);
    let finished = |output: Output, started: Instant| {
        note_job(&output, started.elapsed().as_micros() as u64);
        if let Some(report) = progress {
            report(done.fetch_add(1, Ordering::SeqCst) + 1, total);
        }
        output
    };

    // Stored jobs are answered here, on the calling thread; only the
    // misses reach the fan-out below.
    let mut outputs: Vec<Option<Output>> = (0..total).map(|_| None).collect();
    let mut misses: Vec<(&Job, Option<StoreKey>)> = Vec::new();
    match store.as_deref() {
        None => misses.extend(plan.jobs().iter().map(|job| (job, None))),
        Some(store) => {
            for ((job, key), slot) in store_keys(plan, &traces).zip(&mut outputs) {
                // gaze-lint: allow(wall_clock) -- feeds only the job-duration metrics, never a simulated result
                let started = Instant::now();
                let hit = match job {
                    Job::Single { .. } => {
                        lookup(store, &key).map(|run| Output::Single(Box::new(run)))
                    }
                    Job::Mix { .. } => lookup(store, &key).map(Output::Mix),
                };
                match hit {
                    Some(output) => *slot = Some(finished(output, started)),
                    None => misses.push((job, Some(key))),
                }
            }
        }
    }

    // Every slot exists before the fan-out, so workers share the table
    // without a lock; the first worker to need a baseline fills its slot.
    let baselines: Baselines = misses
        .iter()
        .filter_map(|(job, _)| match job {
            Job::Single {
                workload, params, ..
            } => Some(((workload.as_str(), params.fingerprint()), OnceLock::new())),
            Job::Mix { .. } => None,
        })
        .collect();
    let simulated = parallel_map(&misses, |(job, key)| {
        // gaze-lint: allow(wall_clock) -- feeds only the job-duration metrics, never a simulated result
        let started = Instant::now();
        let output = simulate(job, &traces, &baselines);
        if let (Some(store), Some(key)) = (store.as_deref(), key) {
            match &output {
                Output::Single(run) => store.record(run.to_row(key)),
                Output::Mix(report) => store.record(report.to_row(key)),
            }
        }
        finished(output, started)
    });
    crate::results::flush();

    let mut simulated = simulated.into_iter();
    let mut results = JobResults::default();
    for (job, output) in plan.jobs().iter().zip(outputs) {
        let output = output.unwrap_or_else(|| simulated.next().expect("one output per miss"));
        match output {
            Output::Single(run) => {
                results.singles.insert(job.key(), *run);
            }
            Output::Mix(report) => {
                results.mixes.insert(job.key(), report);
            }
        }
    }
    results
}

enum Output {
    Single(Box<SingleRun>),
    Mix(SimReport),
}

/// Publishes one finished engine job to the process-global metrics:
/// `gaze_sim_jobs_total{kind=…}` and the `gaze_sim_job_duration_us`
/// wall-time histogram. Store hits and misses land here alike — a warm
/// sweep shows up as the same job count with a collapsed duration tail.
fn note_job(output: &Output, us: u64) {
    use gaze_obs::metrics::{registry, Counter, Histogram};
    static SERIES: OnceLock<([Counter; 2], Histogram)> = OnceLock::new();
    let (jobs, duration) = SERIES.get_or_init(|| {
        let r = registry();
        (
            ["single", "mix"].map(|kind| {
                r.counter_with(
                    "gaze_sim_jobs_total",
                    "Engine jobs executed, by job kind",
                    &[("kind", kind)],
                )
            }),
            r.histogram(
                "gaze_sim_job_duration_us",
                "Wall time of one engine job (store hit or fresh simulation), in microseconds",
            ),
        )
    });
    let kind = match output {
        Output::Single(_) => 0,
        Output::Mix(_) => 1,
    };
    jobs[kind].inc();
    duration.record(us);
}

/// The `plan --spec` dry-run summary: job counts plus the warm/cold
/// split against the active results store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanReport {
    /// Total planned jobs.
    pub jobs: usize,
    /// Single-core jobs.
    pub singles: usize,
    /// Multi-core mix jobs.
    pub mixes: usize,
    /// Distinct workloads touched.
    pub workloads: usize,
    /// Whether a results store was active for the warm/cold split.
    pub store_active: bool,
    /// Jobs the store would serve without simulation.
    pub warm: usize,
    /// Jobs that would simulate.
    pub cold: usize,
}

/// Computes the dry-run summary of a plan: how many jobs, and — when a
/// results store is active — how many are already stored (warm) versus
/// would simulate (cold). Never simulates; a trace is materialized only to
/// fingerprint a workload not yet fingerprinted in this process.
pub fn dry_run(plan: &JobPlan, scale: &ExperimentScale) -> PlanReport {
    let (singles, mixes) = plan.kind_counts();
    let mut report = PlanReport {
        jobs: plan.len(),
        singles,
        mixes,
        workloads: plan.workload_count(),
        store_active: false,
        warm: 0,
        cold: plan.len(),
    };
    let Some(store) = crate::results::active_store() else {
        return report;
    };
    let traces = workload_handles(plan, scale);
    report.store_active = true;
    report.warm = store_keys(plan, &traces)
        .filter(|(job, key)| match job {
            Job::Single { .. } => stored::<SingleRun>(&store, key),
            Job::Mix { .. } => stored::<SimReport>(&store, key),
        })
        .count();
    report.cold = plan.len() - report.warm;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{builtin, Metric};
    use crate::spec::{Entry, TableKind, TraceSel};

    fn scale() -> ExperimentScale {
        ExperimentScale {
            params: RunParams {
                warmup: 1_000,
                measured: 4_000,
                ..RunParams::test()
            },
            workloads_per_suite: 1,
        }
    }

    #[test]
    fn plans_deduplicate_within_and_across_tables() {
        let s = scale();
        let kind = TableKind::WorkloadRows {
            traces: TraceSel::List(vec!["bwaves_s".into(), "mcf_s".into()]),
            metric: Metric::Speedup,
            rows: vec![Entry::plain("gaze"), Entry::plain("pmp")],
            normalize_to_first: false,
            avg_label: None,
        };
        let mut plan = JobPlan::default();
        table_jobs(&kind, &s, &mut plan);
        assert_eq!(plan.len(), 4);
        // Planning the same table again adds nothing.
        table_jobs(&kind, &s, &mut plan);
        assert_eq!(plan.len(), 4);
        // An overlapping table only adds its new cells.
        let overlapping = TableKind::WorkloadRows {
            traces: TraceSel::List(vec!["bwaves_s".into()]),
            metric: Metric::Accuracy,
            rows: vec![Entry::plain("gaze"), Entry::plain("vberti")],
            normalize_to_first: false,
            avg_label: None,
        };
        table_jobs(&overlapping, &s, &mut plan);
        assert_eq!(plan.len(), 5);
        assert_eq!(plan.workload_count(), 2);
        assert_eq!(plan.kind_counts(), (5, 0));
    }

    #[test]
    fn multicore_plans_share_baselines_across_prefetchers() {
        let s = scale();
        let kind = TableKind::MixPerCore {
            mixes: vec![crate::spec::MixDef {
                name: "m1".into(),
                workloads: vec!["bwaves_s".into(), "mcf_s".into()],
            }],
            rows: vec![Entry::plain("gaze"), Entry::plain("pmp")],
        };
        let mut plan = JobPlan::default();
        table_jobs(&kind, &s, &mut plan);
        // gaze + pmp + one shared "none" baseline.
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.kind_counts(), (0, 3));
    }

    #[test]
    fn executing_a_small_plan_yields_queryable_results() {
        let s = scale();
        let mut plan = JobPlan::default();
        table_jobs(
            &TableKind::WorkloadRows {
                traces: TraceSel::List(vec!["bwaves_s".into()]),
                metric: Metric::Speedup,
                rows: vec![Entry::plain("gaze"), Entry::plain("gaze+bingo")],
                normalize_to_first: false,
                avg_label: None,
            },
            &s,
            &mut plan,
        );
        let results = execute(&plan, &s);
        assert_eq!(results.len(), 2);
        let plain = results.single("bwaves_s", "gaze", &s.params);
        assert_eq!(plain.prefetcher, "gaze");
        assert!(plain.stats.ipc() > 0.0);
        let combined = results.single("bwaves_s", "gaze+bingo", &s.params);
        assert_eq!(combined.prefetcher, "gaze+bingo");
    }

    #[test]
    fn dry_run_without_a_store_reports_everything_cold() {
        let s = scale();
        let spec = builtin::builtin_spec("fig09").expect("builtin");
        let plan = crate::spec::plan_specs(&[&spec], &s);
        // 3 variants x 5 suites x 1 workload each.
        assert_eq!(plan.len(), 15);
        // The dry run only consults the store when one is explicitly
        // active; configure(None) pins "no store" for this process even
        // if the environment carries GAZE_RESULTS_DIR.
        crate::results::configure(None).expect("deactivate store");
        let report = dry_run(&plan, &s);
        crate::results::configure(None).expect("deactivate store");
        assert_eq!(report.jobs, 15);
        assert!(!report.store_active);
        assert_eq!(report.cold, 15);
        assert_eq!(report.warm, 0);
    }
}
