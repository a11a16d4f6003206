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
use gaze_sim::spec::plan::{execute, Job, JobPlan};
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
    for records in [4_000, 5_000] {
        for name in registered_workloads() {
            let expected = source_fingerprint(&build_workload(name, records));
            assert_eq!(
                LazyWorkload::new(name, records).fingerprint(),
                expected,
                "{name} at {records} records"
            );
            // A second handle answers from the memo without building.
            let before = traces_materialized();
            assert_eq!(LazyWorkload::new(name, records).fingerprint(), expected);
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

/// Each sweep simulates a distinct baseline at most once, and only for a
/// workload with a missing row: stored rows carry their baseline.
#[test]
fn a_sweep_simulates_each_missing_baseline_once() {
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
    let single = |workload: &str, l1: &str| Job::Single {
        workload: workload.to_string(),
        l1: l1.to_string(),
        l2: None,
        params: scale.params,
    };
    let mut plan = JobPlan::default();
    for l1 in ["gaze", "pmp"] {
        for workload in ["bwaves_s", "mcf_s"] {
            plan.push(single(workload, l1));
        }
    }
    let _store = ActiveStore::fresh("baselines");
    let before = simulated_instructions();
    execute(&plan, &scale);
    assert_eq!(
        simulated_instructions() - before,
        (2 + 1) * 2 * budget,
        "a cold sweep simulates every row plus one baseline per workload"
    );

    // One new row: it and its baseline, since the stored rows' baselines
    // are not reused.
    plan.push(single("mcf_s", "vberti"));
    let before = simulated_instructions();
    execute(&plan, &scale);
    assert_eq!(simulated_instructions() - before, 2 * budget);

    let before = simulated_instructions();
    execute(&plan, &scale);
    assert_eq!(simulated_instructions(), before, "a warm rerun simulated");
}

/// Restores an unset `GAZE_TRACE_DIR` and removes the packed directory.
struct TraceDir(PathBuf);

impl TraceDir {
    fn packed(names: &[&str], records: usize) -> TraceDir {
        let dir = std::env::temp_dir().join(format!("gaze-warm-gzt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create trace dir");
        for name in names {
            let path = dir.join(workloads::pack::gzt_file_name(name));
            workloads::pack::pack_workload(name, records, &path).expect("pack");
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
    let records = records_for(&scale.params);
    let store = ActiveStore::fresh("packed");
    let generated = csv(&spec::run_spec(&spec, &scale));
    let generated_fp = LazyWorkload::new("mcf_s", records).fingerprint();

    let packed = TraceDir::packed(&["bwaves_s", "mcf_s"], records);
    std::env::set_var("GAZE_TRACE_DIR", packed.path());
    let handle = LazyWorkload::new("mcf_s", records);
    assert!(handle.is_streamed());
    assert_eq!(handle.fingerprint(), generated_fp);
    // Packed files are fingerprinted per opened handle, never by name.
    let before = traces_materialized();
    assert_eq!(
        LazyWorkload::new("mcf_s", records).fingerprint(),
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
