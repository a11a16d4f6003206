//! Integration tests of the persistent results store: write-through from
//! the parallel engine, warm-store figure regeneration with zero
//! simulation, and bit-identical round-trips.
//!
//! The store handle is process-global, so every test takes `STORE_LOCK`
//! and configures its own temporary directory (restoring "no store" on
//! drop) — tests stay correct regardless of harness thread interleaving.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};

use gaze_sim::experiments::{run_experiment, ExperimentScale};
use gaze_sim::results;
use gaze_sim::runner::{mix_label, records_for, simulated_instructions, RunParams};
use gaze_sim::spec::plan::{self, Job, JobPlan};
use gaze_sim::spec::{Entry, Metric, MixDef, TableKind, TraceSel};
use results_store::{Query, ResultsStore};
use sim_core::params::mix_fingerprint;
use sim_core::trace::{source_fingerprint, TraceSource};
use workloads::build_workload;

fn store_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .expect("store test lock")
}

/// Configures `dir` as the active store and deactivates it again on drop.
struct ActiveDir;

impl ActiveDir {
    fn new(dir: &std::path::Path) -> ActiveDir {
        let _ = std::fs::remove_dir_all(dir);
        results::configure(Some(dir)).expect("configure store");
        ActiveDir
    }

    /// Like [`ActiveDir::new`] but keeps the existing on-disk contents.
    fn new_existing(dir: &std::path::Path) -> ActiveDir {
        results::configure(Some(dir)).expect("configure store");
        ActiveDir
    }
}

impl Drop for ActiveDir {
    fn drop(&mut self) {
        results::configure(None).expect("deactivate store");
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gzr-it-{}-{tag}", std::process::id()))
}

/// The scale whose budgets are `params`, one workload per suite.
fn scale_of(params: RunParams) -> ExperimentScale {
    ExperimentScale {
        params,
        workloads_per_suite: 1,
    }
}

/// The single-core plan of every (prefetcher × workload) pair.
fn rows_plan(workloads: &[&str], prefetchers: &[&str], scale: &ExperimentScale) -> JobPlan {
    let mut job_plan = JobPlan::default();
    plan::table_jobs(
        &TableKind::WorkloadRows {
            traces: TraceSel::List(workloads.iter().map(|w| w.to_string()).collect()),
            metric: Metric::Speedup,
            rows: prefetchers.iter().map(|p| Entry::plain(p)).collect(),
            normalize_to_first: false,
            avg_label: None,
        },
        scale,
        &mut job_plan,
    );
    job_plan
}

fn tiny_scale() -> ExperimentScale {
    ExperimentScale {
        params: RunParams {
            warmup: 2_000,
            measured: 8_000,
            ..RunParams::test()
        },
        workloads_per_suite: 1,
    }
}

#[test]
fn warm_store_regenerates_figures_with_zero_simulation() {
    let _guard = store_lock();
    let dir = temp_dir("warm");
    let scale = tiny_scale();

    // Cold pass: simulates and persists.
    let cold_csv: String = {
        let _active = ActiveDir::new(&dir);
        let before = simulated_instructions();
        let tables = run_experiment("fig09", &scale);
        assert!(simulated_instructions() > before, "cold pass must simulate");
        tables.iter().map(|t| t.to_csv()).collect()
    };

    // Warm pass through a *reopened* store (fresh handle, data from disk).
    let warm_csv: String = {
        let _active = ActiveDir::new_existing(&dir);
        let before = simulated_instructions();
        let tables = run_experiment("fig09", &scale);
        assert_eq!(
            simulated_instructions(),
            before,
            "a warm store must serve every run without simulating"
        );
        tables.iter().map(|t| t.to_csv()).collect()
    };

    assert_eq!(
        cold_csv, warm_csv,
        "store-served figures must be byte-identical to simulated ones"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The warm-store acceptance criterion for multi-level runs: Fig. 13
/// (persisted as 1-core rows keyed by the combined `l1+l2` name)
/// regenerates from a reopened store with zero simulation,
/// byte-identical to the cold pass.
#[test]
fn warm_store_regenerates_fig13_with_zero_simulation() {
    let _guard = store_lock();
    let dir = temp_dir("warm-fig13");
    let scale = tiny_scale();

    let cold_csv: String = {
        let _active = ActiveDir::new(&dir);
        let before = simulated_instructions();
        let tables = run_experiment("fig13", &scale);
        assert!(simulated_instructions() > before, "cold pass must simulate");
        tables.iter().map(|t| t.to_csv()).collect()
    };

    let warm_csv: String = {
        let _active = ActiveDir::new_existing(&dir);
        let before = simulated_instructions();
        let tables = run_experiment("fig13", &scale);
        assert_eq!(
            simulated_instructions(),
            before,
            "a warm store must serve every multi-level run without simulating"
        );
        tables.iter().map(|t| t.to_csv()).collect()
    };

    assert_eq!(cold_csv, warm_csv, "byte-identical fig13 from the store");
    std::fs::remove_dir_all(&dir).ok();
}

/// Multi-core runs (heterogeneous, homogeneous and their shared "none"
/// baseline) persist as multi-core rows and are served back bit-identically
/// with zero simulation after a reopen.
#[test]
fn multicore_runs_round_trip_through_the_store() {
    let _guard = store_lock();
    let dir = temp_dir("multicore");
    let params = RunParams {
        warmup: 1_000,
        measured: 4_000,
        ..RunParams::test()
    };
    let scale = scale_of(params);
    let pair = vec!["bwaves_s".to_string(), "mcf_s".to_string()];
    let homo = vec!["bwaves_s".to_string(); 2];
    // A heterogeneous pair with its shared "none" baseline, plus a
    // homogeneous pair.
    let mut job_plan = JobPlan::default();
    plan::table_jobs(
        &TableKind::MixPerCore {
            mixes: vec![MixDef {
                name: "m1".into(),
                workloads: pair.clone(),
            }],
            rows: vec![Entry::plain("gaze")],
        },
        &scale,
        &mut job_plan,
    );
    job_plan.push(Job::Mix {
        workloads: homo.clone(),
        prefetcher: "pmp".into(),
        params,
    });
    let cold = {
        let _active = ActiveDir::new(&dir);
        plan::execute(&job_plan, &scale)
    };
    let cold_het = cold.mix(&pair, "gaze", &params);
    let cold_base = cold.mix(&pair, "none", &params);
    let cold_speedup = cold_het.speedup_over(cold_base);

    // The mix rows are durable and typed correctly.
    let t1 = build_workload("bwaves_s", records_for(&params));
    let t2 = build_workload("mcf_s", records_for(&params));
    let store = ResultsStore::open(&dir).expect("reopen");
    assert_eq!(store.len(), 0, "no single-core rows in this sweep");
    assert_eq!(store.mix_len(), 3, "het gaze + het none + homo pmp");
    let het_fp = mix_fingerprint(&[source_fingerprint(&t1), source_fingerprint(&t2)]);
    let keyed = params.with_cores(2).fingerprint();
    let rec = store.get_mix(het_fp, keyed, "gaze").expect("het row");
    assert_eq!(rec.label, mix_label(&[&t1 as &dyn TraceSource, &t2]));
    assert_eq!(&rec.report, cold_het, "bit-identical per-core counters");
    let base = store.get_mix(het_fp, keyed, "none").expect("baseline row");
    assert_eq!(&base.report, cold_base);
    assert_eq!(rec.speedup_over(&base), cold_speedup);

    // Warm: a fresh store handle serves everything with zero simulation,
    // bit-identically.
    {
        let _active = ActiveDir::new_existing(&dir);
        let before = simulated_instructions();
        let warm = plan::execute(&job_plan, &scale);
        assert_eq!(
            simulated_instructions(),
            before,
            "a warm store must serve every mix without simulating"
        );
        let warm_het = warm.mix(&pair, "gaze", &params);
        let warm_base = warm.mix(&pair, "none", &params);
        assert_eq!(warm_het, cold_het);
        assert_eq!(warm_base, cold_base);
        assert_eq!(warm_het.speedup_over(warm_base), cold_speedup);
        assert_eq!(
            warm.mix(&homo, "pmp", &params),
            cold.mix(&homo, "pmp", &params)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn parallel_engine_write_through_persists_every_pair() {
    let _guard = store_lock();
    let dir = temp_dir("parallel");
    let scale = scale_of(RunParams {
        warmup: 1_000,
        measured: 4_000,
        ..RunParams::test()
    });
    let params = scale.params;
    let workloads = ["bwaves_s", "mcf_s", "PageRank"];
    let prefetchers = ["gaze", "pmp", "ip-stride"];
    let results = {
        let _active = ActiveDir::new(&dir);
        plan::execute(&rows_plan(&workloads, &prefetchers, &scale), &scale)
    };

    // Every (prefetcher × workload) pair and every workload's "none"
    // baseline landed in the store, durably.
    let store = ResultsStore::open(&dir).expect("reopen");
    assert_eq!(store.len(), (prefetchers.len() + 1) * workloads.len());
    assert_eq!(store.pending_len(), 0, "execute flushes");
    for workload in workloads {
        let trace = build_workload(workload, records_for(&params));
        let fp = source_fingerprint(&trace);
        let baseline = store
            .get(fp, params.fingerprint(), "none")
            .unwrap_or_else(|| panic!("missing none × {workload}"));
        for prefetcher in prefetchers {
            let run = results.single(workload, prefetcher, &params);
            let rec = store
                .get(fp, params.fingerprint(), prefetcher)
                .unwrap_or_else(|| panic!("missing {prefetcher} × {workload}"));
            assert_eq!(rec.stats, run.stats, "bit-identical stats");
            assert_eq!(baseline.stats, run.baseline);
        }
    }

    // The typed query API slices the matrix both ways.
    let per_prefetcher = store.query(&Query {
        prefetcher: Some("gaze".into()),
        ..Query::default()
    });
    assert_eq!(per_prefetcher.len(), workloads.len());
    let per_workload = store.query(&Query {
        label: Some("mcf_s".into()),
        params_fingerprint: Some(params.fingerprint()),
        ..Query::default()
    });
    assert_eq!(per_workload.len(), prefetchers.len() + 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// A single-core run is a 1-core mix: a one-workload `Job::Mix` and the
/// `Job::Single` of the same workload, prefetcher and parameters key one
/// row, and recording both counts a duplicate, never a conflict.
#[test]
fn a_one_core_mix_and_a_single_run_share_one_row() {
    let _guard = store_lock();
    let dir = temp_dir("one-core-mix");
    let scale = scale_of(RunParams {
        warmup: 1_000,
        measured: 4_000,
        ..RunParams::test()
    });
    let params = scale.params;
    let mut job_plan = rows_plan(&["bwaves_s"], &["gaze"], &scale);
    let lone = vec!["bwaves_s".to_string()];
    job_plan.push(Job::Mix {
        workloads: lone.clone(),
        prefetcher: "gaze".into(),
        params,
    });
    assert_eq!(job_plan.len(), 3, "gaze, its baseline and the 1-core mix");
    let (results, conflicts, duplicates) = {
        let _active = ActiveDir::new(&dir);
        let results = plan::execute(&job_plan, &scale);
        let store = results::active_store().expect("active");
        let counts = store.with_store(|s| (s.conflicting_appends(), s.duplicates_skipped()));
        (results, counts.0, counts.1)
    };
    assert_eq!(conflicts, 0, "both runs simulate identical counters");
    assert_eq!(duplicates, 1, "the second recording is a duplicate");
    assert_eq!(
        results.mix(&lone, "gaze", &params).cores,
        vec![results.single("bwaves_s", "gaze", &params).stats]
    );
    let store = ResultsStore::open(&dir).expect("reopen");
    assert_eq!((store.len(), store.mix_len()), (2, 0), "gaze and none rows");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rerunning_a_sweep_adds_no_duplicate_rows() {
    let _guard = store_lock();
    let dir = temp_dir("rerun");
    let scale = scale_of(RunParams {
        warmup: 1_000,
        measured: 4_000,
        ..RunParams::test()
    });
    {
        let _active = ActiveDir::new(&dir);
        let job_plan = rows_plan(&["bwaves_s"], &["gaze", "pmp"], &scale);
        plan::execute(&job_plan, &scale);
        plan::execute(&job_plan, &scale);
    }
    let store = ResultsStore::open(&dir).expect("reopen");
    assert_eq!(store.len(), 3, "second sweep was served from the store");
    assert_eq!(store.conflicting_appends(), 0);

    // A different scale is a different key: the store accumulates both.
    let other = scale_of(RunParams {
        warmup: 1_000,
        measured: 5_000,
        ..RunParams::test()
    });
    {
        let _active = ActiveDir::new_existing(&dir);
        plan::execute(&rows_plan(&["bwaves_s"], &["gaze"], &other), &other);
    }
    let store = ResultsStore::open(&dir).expect("reopen");
    assert_eq!(store.len(), 5, "gaze and none at the new scale");
    std::fs::remove_dir_all(&dir).ok();
}
