//! The warm path of the experiment engine: a plan served from the results
//! store materializes no trace, and a store miss builds exactly the
//! workloads it simulates.
//!
//! The materialized-trace counter, the fingerprint memo, the active store
//! and `GAZE_TRACE_DIR` are all process-global, so this suite is its own
//! test binary and every test holds `LOCK` while it runs.

use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, OnceLock};

use gaze_sim::experiments::ExperimentScale;
use gaze_sim::results;
use gaze_sim::runner::{records_for, simulated_instructions, RunParams};
use gaze_sim::spec::plan::{dry_run, execute, execute_with_progress, Job, JobPlan};
use gaze_sim::spec::{self, text};
use gaze_sim::trace_store::{traces_materialized, LazyWorkload};
use sim_core::trace::{source_fingerprint, TraceSource};
use workloads::{build_workload, workload_names, Suite};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    std::env::remove_var("GAZE_TRACE_DIR");
    guard
}

/// The active store's (hits, misses) counters.
fn store_counts() -> (u64, u64) {
    let store = results::active_store().expect("a store is active");
    (store.hits(), store.misses())
}

/// The plan holding every `step`-th job of `plan`, starting with the first.
fn every_nth(plan: &JobPlan, step: usize) -> JobPlan {
    let mut part = JobPlan::default();
    for job in plan.jobs().iter().step_by(step) {
        part.push(job.clone());
    }
    part
}

/// A fresh store directory, active until drop.
struct ActiveStore(PathBuf);

impl ActiveStore {
    fn fresh(tag: &str) -> ActiveStore {
        let dir = std::env::temp_dir().join(format!("gaze-warm-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        results::configure(Some(&dir)).expect("configure store");
        ActiveStore(dir)
    }

    /// Reopens the same directory through a new store handle.
    fn reopen(&self) {
        results::configure(Some(&self.0)).expect("reopen store");
    }
}

impl Drop for ActiveStore {
    fn drop(&mut self) {
        results::configure(None).expect("deactivate store");
        std::fs::remove_dir_all(&self.0).ok();
    }
}

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

/// A single-core table and a two-core mix table, so both job kinds run.
const SPEC: &str = "spec warm_path
table
title singles
kind workload-rows
traces list:bwaves_s,mcf_s
metric speedup
row gaze
row pmp
end
table
title mixes
kind mix-per-core
mixdef m1 = bwaves_s,mcf_s
row gaze
end
";

fn csv(tables: &[gaze_sim::Table]) -> String {
    tables.iter().map(|t| t.to_csv()).collect()
}

fn registered_workloads() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = Suite::all_suites()
        .into_iter()
        .flat_map(workload_names)
        .collect();
    names.push("gups");
    names.sort_unstable();
    names.dedup();
    names
}

#[test]
fn memoized_fingerprints_equal_full_trace_fingerprints() {
    let _guard = lock();
    for instructions in [4_000, 5_000] {
        for name in registered_workloads() {
            let expected = source_fingerprint(&build_workload(name, instructions));
            assert_eq!(
                LazyWorkload::new(name, instructions).fingerprint(),
                expected,
                "{name} at {instructions} instructions"
            );
            // A second handle answers from the memo without building.
            let before = traces_materialized();
            assert_eq!(
                LazyWorkload::new(name, instructions).fingerprint(),
                expected
            );
            assert_eq!(traces_materialized(), before, "{name} rebuilt for its key");
        }
    }
}

#[test]
fn warm_rerun_materializes_no_trace_and_is_byte_identical() {
    let _guard = lock();
    let spec = text::parse(SPEC).expect("spec parses");
    let scale = scale();
    let store = ActiveStore::fresh("rerun");
    let cold = csv(&spec::run_spec(&spec, &scale));

    store.reopen();
    let (traces, instructions) = (traces_materialized(), simulated_instructions());
    let warm = csv(&spec::run_spec(&spec, &scale));
    assert_eq!(traces_materialized(), traces, "a warm rerun built a trace");
    assert_eq!(
        simulated_instructions(),
        instructions,
        "a warm rerun simulated"
    );
    assert_eq!(cold, warm);
}

#[test]
fn a_missing_row_builds_exactly_its_workloads() {
    let _guard = lock();
    let scale = scale();
    let single = |workload: &str, l1: &str| Job::Single {
        workload: workload.to_string(),
        l1: l1.to_string(),
        l2: None,
        params: scale.params,
    };
    let mut plan = JobPlan::default();
    for workload in ["bwaves_s", "mcf_s", "PageRank"] {
        plan.push(single(workload, "gaze"));
    }
    let _store = ActiveStore::fresh("missing");
    execute(&plan, &scale);

    // One new single-core row: only its workload is built.
    plan.push(single("mcf_s", "pmp"));
    let before = traces_materialized();
    execute(&plan, &scale);
    assert_eq!(traces_materialized() - before, 1);

    // One new two-core mix row: both of its workloads, each once.
    plan.push(Job::Mix {
        workloads: vec!["bwaves_s".into(), "PageRank".into()],
        prefetcher: "gaze".into(),
        params: scale.params,
    });
    let before = traces_materialized();
    execute(&plan, &scale);
    assert_eq!(traces_materialized() - before, 2);

    // Everything stored now: nothing is built.
    let before = traces_materialized();
    execute(&plan, &scale);
    assert_eq!(traces_materialized(), before);
}

/// Every baseline is an ordinary stored `none` row: a sweep simulates
/// each missing one once, and a second, cold process that asks for other
/// prefetchers on the same workloads simulates no baseline at all.
#[test]
fn a_second_process_simulates_no_stored_baseline() {
    let _guard = lock();
    // Budgets no other test uses, so no earlier run could have warmed them.
    let scale = ExperimentScale {
        params: RunParams {
            warmup: 1_000,
            measured: 3_217,
            ..RunParams::test()
        },
        workloads_per_suite: 1,
    };
    let budget = scale.params.warmup + scale.params.measured;
    let workloads = ["bwaves_s", "mcf_s"];
    let plan_of = |prefetchers: &[&str]| {
        let mut plan = JobPlan::default();
        for l1 in prefetchers {
            for workload in workloads {
                plan.push(Job::Single {
                    workload: workload.to_string(),
                    l1: l1.to_string(),
                    l2: None,
                    params: scale.params,
                });
            }
        }
        plan
    };
    let store = ActiveStore::fresh("baselines");
    let before = simulated_instructions();
    execute(&plan_of(&["gaze"]), &scale);
    assert_eq!(
        simulated_instructions() - before,
        2 * 2 * budget,
        "a cold sweep simulates every row plus one baseline per workload"
    );

    // A new process (a fresh handle on the same directory) asks for
    // another prefetcher: only its rows simulate, the baselines are hits.
    store.reopen();
    let plan = plan_of(&["pmp"]);
    assert_eq!(plan.len(), 4, "pmp and none per workload");
    let before = simulated_instructions();
    execute(&plan, &scale);
    assert_eq!(
        simulated_instructions() - before,
        2 * budget,
        "the stored baselines were simulated again"
    );

    let before = simulated_instructions();
    execute(&plan, &scale);
    assert_eq!(simulated_instructions(), before, "a warm rerun simulated");
}

/// Restores an unset `GAZE_TRACE_DIR` and removes the packed directory.
struct TraceDir(PathBuf);

impl TraceDir {
    fn packed(names: &[&str], instructions: u64) -> TraceDir {
        let dir = std::env::temp_dir().join(format!("gaze-warm-gzt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create trace dir");
        for name in names {
            let path = dir.join(workloads::pack::gzt_file_name(name));
            workloads::pack::pack_workload(name, instructions, &path).expect("pack");
        }
        TraceDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TraceDir {
    fn drop(&mut self) {
        std::env::remove_var("GAZE_TRACE_DIR");
        std::fs::remove_dir_all(&self.0).ok();
    }
}

#[test]
fn packed_workloads_stream_and_key_identically() {
    let _guard = lock();
    let spec = text::parse(SPEC).expect("spec parses");
    let scale = scale();
    let instructions = records_for(&scale.params);
    let store = ActiveStore::fresh("packed");
    let generated = csv(&spec::run_spec(&spec, &scale));
    let generated_fp = LazyWorkload::new("mcf_s", instructions).fingerprint();

    let packed = TraceDir::packed(&["bwaves_s", "mcf_s"], instructions);
    std::env::set_var("GAZE_TRACE_DIR", packed.path());
    let handle = LazyWorkload::new("mcf_s", instructions);
    assert!(handle.is_streamed());
    assert_eq!(handle.fingerprint(), generated_fp);
    // Packed files are fingerprinted per opened handle, never by name.
    let before = traces_materialized();
    assert_eq!(
        LazyWorkload::new("mcf_s", instructions).fingerprint(),
        generated_fp
    );
    assert_eq!(traces_materialized(), before + 1);

    // The streamed rerun opens each packed file once to fingerprint it,
    // and its keys match the generated rows: all hits.
    store.reopen();
    let (traces, instructions) = (traces_materialized(), simulated_instructions());
    let streamed = csv(&spec::run_spec(&spec, &scale));
    assert_eq!(traces_materialized() - traces, 2);
    assert_eq!(
        simulated_instructions(),
        instructions,
        "streamed rerun simulated"
    );
    assert_eq!(generated, streamed);
}

/// An all-hit plan is served on the calling thread: every progress report
/// comes from it, so no job fanned out to a worker, even with two engine
/// threads configured, and no trace is built.
#[test]
fn an_all_hit_plan_runs_on_the_calling_thread() {
    let _guard = lock();
    let spec = text::parse(SPEC).expect("spec parses");
    let scale = scale();
    let plan = spec::plan_specs(&[&spec], &scale);
    let store = ActiveStore::fresh("calling-thread");
    execute(&plan, &scale);
    store.reopen();

    std::env::set_var("GAZE_THREADS", "2");
    let reports = Mutex::new(Vec::new());
    let record = |done: usize, total: usize| {
        let reporter = std::thread::current().id();
        reports
            .lock()
            .expect("reports")
            .push((reporter, done, total));
    };
    let before = traces_materialized();
    execute_with_progress(&plan, &scale, Some(&record));
    std::env::remove_var("GAZE_THREADS");

    assert_eq!(
        traces_materialized(),
        before,
        "an all-hit plan built a trace"
    );
    let caller = std::thread::current().id();
    let reports = reports.into_inner().expect("reports");
    let expected: Vec<_> = (1..=plan.len())
        .map(|done| (caller, done, plan.len()))
        .collect();
    assert_eq!(reports, expected);
}

/// A plan whose store holds every other job simulates exactly the missing
/// ones and renders the same bytes as a cold run on a fresh store.
#[test]
fn a_half_warm_plan_simulates_only_its_misses() {
    let _guard = lock();
    let spec = text::parse(SPEC).expect("spec parses");
    let scale = scale();
    let plan = spec::plan_specs(&[&spec], &scale);
    let cold = {
        let _store = ActiveStore::fresh("half-cold");
        csv(&spec::run_spec(&spec, &scale))
    };

    let _store = ActiveStore::fresh("half-warm");
    let stored = every_nth(&plan, 2);
    execute(&stored, &scale);
    let (_, misses) = store_counts();
    let half_warm = csv(&spec::run_spec(&spec, &scale));
    assert_eq!(
        store_counts().1 - misses,
        (plan.len() - stored.len()) as u64
    );
    assert_eq!(half_warm, cold);
}

/// `dry_run`'s warm/cold split is the hit/miss split `execute` then counts.
#[test]
fn dry_run_predicts_the_hits_and_misses_of_execute() {
    let _guard = lock();
    let spec = text::parse(SPEC).expect("spec parses");
    let scale = scale();
    let plan = spec::plan_specs(&[&spec], &scale);
    let _store = ActiveStore::fresh("dry-run");
    execute(&every_nth(&plan, 3), &scale);

    let report = dry_run(&plan, &scale);
    assert!(report.store_active);
    assert!(report.warm > 0 && report.cold > 0, "{report:?}");
    let (hits, misses) = store_counts();
    execute(&plan, &scale);
    let (hits_after, misses_after) = store_counts();
    assert_eq!(
        (hits_after - hits, misses_after - misses),
        (report.warm as u64, report.cold as u64)
    );
}
