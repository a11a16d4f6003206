//! Spec compilation: tables → deduplicated atomic simulation jobs, and
//! the engine that executes a plan.
//!
//! The engine is the one dedup and persistence layer: the plan holds each
//! job once, [`execute`] looks every job up in the active results store
//! before simulating it and records misses write-through. Every baseline
//! is an ordinary `"none"` job: a mix's is planned by its table, a
//! single-core job's by [`JobPlan::push`]. The runners it calls only
//! simulate.

use std::collections::{hash_map, HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use results_store::MixRecord;
use sim_core::stats::{CoreStats, SimReport};
use sim_core::trace::{source_fingerprint, TraceSource};

use crate::experiments::ExperimentScale;
use crate::factory::make_prefetcher;
use crate::parallel::parallel_map;
use crate::runner::{
    mix_label, multi_level_name, records_for, run_heterogeneous, simulate_core, RunParams,
    SingleRun,
};
use crate::trace_store::LazyWorkload;

use super::{resolve_workloads, split_levels, ConfigAxis, Entry, TableKind};

/// One atomic simulation job.
#[derive(Debug, Clone)]
pub enum Job {
    /// A single-core run (optionally multi-level). Its baseline is the
    /// `"none"` single-core job on the same workload and parameters.
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

    /// Workloads this job runs, in core order.
    fn workloads(&self) -> &[String] {
        match self {
            Job::Single { workload, .. } => std::slice::from_ref(workload),
            Job::Mix { workloads, .. } => workloads,
        }
    }
}

/// The no-prefetching job whose run is the baseline of every single-core
/// job on `workload` under `params`.
fn baseline_job(workload: &str, params: RunParams) -> Job {
    Job::Single {
        workload: workload.to_string(),
        l1: "none".to_string(),
        l2: None,
        params,
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

/// A map keyed by [`JobKey`]. A warm figure hashes one key per planned
/// and per rendered cell, so these maps use [`KeyHasher`], not SipHash.
type KeyMap<V> = HashMap<JobKey, V, BuildHasherDefault<KeyHasher>>;

/// A word-at-a-time FNV fold with a splitmix64 finish. The finish mixes
/// the high bits of every word into the low bits the table indexes by.
/// Keys come from specs and the workload registry, never from untrusted
/// input, so no keyed hash is needed.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x100_0000_01b3);
    }

    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A deduplicated, ordered list of jobs.
#[derive(Debug, Default)]
pub struct JobPlan {
    jobs: Vec<Job>,
    /// Per job: the position of its baseline job (`None` for a mix).
    baselines: Vec<Option<usize>>,
    /// Key → position of every planned job.
    seen: KeyMap<usize>,
}

impl JobPlan {
    /// Adds a job unless an identical one is already planned. A
    /// single-core job brings its baseline: the `"none"` job on the same
    /// workload and parameters is planned right after it.
    pub fn push(&mut self, job: Job) {
        let index = self.jobs.len();
        // A single-core job's baseline key differs from its own only in
        // the name, so it is derived without building the baseline job.
        let baseline_key = match self.seen.entry(job.key()) {
            hash_map::Entry::Occupied(_) => return,
            hash_map::Entry::Vacant(slot) => {
                let baseline_key = match slot.key() {
                    JobKey::Single {
                        workload,
                        name,
                        params_fp,
                    } if name != "none" => Some(JobKey::Single {
                        workload: workload.clone(),
                        name: "none".to_string(),
                        params_fp: *params_fp,
                    }),
                    _ => None,
                };
                slot.insert(index);
                baseline_key
            }
        };
        let single = matches!(job, Job::Single { .. });
        self.jobs.push(job);
        self.baselines.push(single.then_some(index));
        let Some(baseline_key) = baseline_key else {
            return;
        };
        let position = match self.seen.get(&baseline_key) {
            Some(&planned) => planned,
            None => {
                let Job::Single {
                    workload, params, ..
                } = &self.jobs[index]
                else {
                    unreachable!("only a single-core job has a baseline key")
                };
                let baseline = baseline_job(workload, *params);
                self.seen.insert(baseline_key, index + 1);
                self.jobs.push(baseline);
                self.baselines.push(Some(index + 1));
                index + 1
            }
        };
        self.baselines[index] = Some(position);
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
            names.extend(job.workloads());
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
    singles: KeyMap<SingleRun>,
    mixes: KeyMap<SimReport>,
}

impl JobResults {
    /// The single-core run of (workload, combined prefetcher name) under
    /// `params`, paired with the workload's `"none"` run as its baseline.
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
    let instructions = records_for(&scale.params);
    let mut traces = Workloads::new();
    for job in plan.jobs() {
        for name in job.workloads() {
            if !traces.contains_key(name) {
                traces.insert(name.clone(), LazyWorkload::new(name, instructions));
            }
        }
    }
    traces
}

/// The results-store row a job's result lives in.
struct StoreKey {
    /// Mix fingerprint of the job's traces (a single-core job's trace
    /// fingerprint).
    fingerprint: u64,
    /// Fingerprint of the parameters at the job's core count.
    params_fp: u64,
    /// Stored prefetcher name (the combined `l1+l2` name when multi-level).
    name: String,
    /// Workload name or mix label the row must carry.
    label: String,
    /// Core count of the row.
    cores: usize,
}

impl StoreKey {
    /// The row that stores `report` under this key.
    fn row(&self, report: SimReport) -> MixRecord {
        MixRecord {
            mix_fingerprint: self.fingerprint,
            params_fingerprint: self.params_fp,
            prefetcher: self.name.clone(),
            label: self.label.clone(),
            report,
        }
    }
}

/// The store key of `job`. Fingerprints a workload without building it
/// when its fingerprint is already memoized in this process.
fn store_key(job: &Job, traces: &Workloads) -> StoreKey {
    let (name, params) = match job {
        Job::Single { l1, l2, params, .. } => (multi_level_name(l1, l2.as_deref()), *params),
        Job::Mix {
            workloads,
            prefetcher,
            params,
        } => (prefetcher.clone(), params.with_cores(workloads.len())),
    };
    let refs = mix_refs(job.workloads(), traces);
    let fps: Vec<u64> = refs.iter().map(|t| source_fingerprint(*t)).collect();
    StoreKey {
        fingerprint: sim_core::params::mix_fingerprint(&fps),
        params_fp: params.fingerprint(),
        name,
        label: mix_label(&refs),
        cores: refs.len(),
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

/// Simulates `job`: a single-core job is a one-core report.
fn simulate(job: &Job, traces: &Workloads) -> SimReport {
    match job {
        Job::Single {
            workload,
            l1,
            l2,
            params,
        } => SimReport {
            cores: vec![simulate_core(
                &traces[workload.as_str()],
                make_prefetcher(l1),
                l2.as_deref().map(make_prefetcher),
                params,
            )],
        },
        Job::Mix {
            workloads,
            prefetcher,
            params,
        } => run_heterogeneous(&mix_refs(workloads, traces), prefetcher, params),
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
/// A single-core job's baseline is the `"none"` job [`JobPlan::push`]
/// planned beside it, an ordinary job with its own stored row, so a
/// baseline any earlier process stored is never simulated again. A warm
/// plan simulates nothing and starts no thread.
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
    let finished = |job: &Job, report: SimReport, started: Instant| {
        note_job(job, started.elapsed().as_micros() as u64);
        if let Some(report) = progress {
            report(done.fetch_add(1, Ordering::SeqCst) + 1, total);
        }
        report
    };

    // Stored jobs are answered here, on the calling thread; only the
    // misses reach the fan-out below.
    let mut outputs: Vec<Option<SimReport>> = (0..total).map(|_| None).collect();
    let mut misses: Vec<(&Job, Option<StoreKey>)> = Vec::new();
    match store.as_deref() {
        None => misses.extend(plan.jobs().iter().map(|job| (job, None))),
        Some(store) => {
            for ((job, key), slot) in store_keys(plan, &traces).zip(&mut outputs) {
                // gaze-lint: allow(wall_clock) -- feeds only the job-duration metrics, never a simulated result
                let started = Instant::now();
                match store.lookup(
                    key.fingerprint,
                    key.params_fp,
                    &key.name,
                    &key.label,
                    key.cores,
                ) {
                    Some(row) => *slot = Some(finished(job, row.report, started)),
                    None => misses.push((job, Some(key))),
                }
            }
        }
    }

    let simulated = parallel_map(&misses, |(job, key)| {
        // gaze-lint: allow(wall_clock) -- feeds only the job-duration metrics, never a simulated result
        let started = Instant::now();
        let report = simulate(job, &traces);
        if let (Some(store), Some(key)) = (store.as_deref(), key) {
            store.record(key.row(report.clone()));
        }
        finished(job, report, started)
    });
    crate::results::flush();

    let mut simulated = simulated.into_iter();
    let reports: Vec<SimReport> = outputs
        .into_iter()
        .map(|output| output.unwrap_or_else(|| simulated.next().expect("one output per miss")))
        .collect();
    let first_core: Vec<CoreStats> = reports.iter().map(|r| r.cores[0]).collect();
    let mut results = JobResults::default();
    for ((job, report), baseline) in plan.jobs().iter().zip(reports).zip(&plan.baselines) {
        let key = job.key();
        match (&key, baseline) {
            (JobKey::Single { workload, name, .. }, Some(baseline)) => {
                let run = SingleRun {
                    workload: workload.clone(),
                    prefetcher: name.clone(),
                    stats: report.cores[0],
                    baseline: first_core[*baseline],
                };
                results.singles.insert(key, run);
            }
            _ => {
                results.mixes.insert(key, report);
            }
        }
    }
    results
}

/// Publishes one finished engine job to the process-global metrics:
/// `gaze_sim_jobs_total{kind=…}` and the `gaze_sim_job_duration_us`
/// wall-time histogram. Store hits and misses land here alike — a warm
/// sweep shows up as the same job count with a collapsed duration tail.
fn note_job(job: &Job, us: u64) {
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
    let kind = match job {
        Job::Single { .. } => 0,
        Job::Mix { .. } => 1,
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
        .filter(|(_, key)| {
            store.contains(
                key.fingerprint,
                key.params_fp,
                &key.name,
                &key.label,
                key.cores,
            )
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
        // 2 workloads x (gaze, pmp), plus one "none" baseline each.
        assert_eq!(plan.len(), 6);
        // Planning the same table again adds nothing.
        table_jobs(&kind, &s, &mut plan);
        assert_eq!(plan.len(), 6);
        // An overlapping table only adds its new cells.
        let overlapping = TableKind::WorkloadRows {
            traces: TraceSel::List(vec!["bwaves_s".into()]),
            metric: Metric::Accuracy,
            rows: vec![Entry::plain("gaze"), Entry::plain("vberti")],
            normalize_to_first: false,
            avg_label: None,
        };
        table_jobs(&overlapping, &s, &mut plan);
        assert_eq!(plan.len(), 7);
        assert_eq!(plan.workload_count(), 2);
        assert_eq!(plan.kind_counts(), (7, 0));
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
        assert_eq!(results.len(), 3, "gaze, gaze+bingo and their baseline");
        let plain = results.single("bwaves_s", "gaze", &s.params);
        assert_eq!(plain.prefetcher, "gaze");
        assert!(plain.stats.ipc() > 0.0);
        let combined = results.single("bwaves_s", "gaze+bingo", &s.params);
        assert_eq!(combined.prefetcher, "gaze+bingo");
        let baseline = results.single("bwaves_s", "none", &s.params);
        assert_eq!(plain.baseline, baseline.stats);
        assert_eq!(combined.baseline, baseline.stats);
    }

    #[test]
    fn dry_run_without_a_store_reports_everything_cold() {
        let s = scale();
        let spec = builtin::builtin_spec("fig09").expect("builtin");
        let plan = crate::spec::plan_specs(&[&spec], &s);
        // 3 variants x 5 suites x 1 workload each, plus 5 baselines.
        assert_eq!(plan.len(), 20);
        // The dry run only consults the store when one is explicitly
        // active; configure(None) pins "no store" for this process even
        // if the environment carries GAZE_RESULTS_DIR.
        crate::results::configure(None).expect("deactivate store");
        let report = dry_run(&plan, &s);
        crate::results::configure(None).expect("deactivate store");
        assert_eq!(report.jobs, 20);
        assert!(!report.store_active);
        assert_eq!(report.cold, 20);
        assert_eq!(report.warm, 0);
    }
}
