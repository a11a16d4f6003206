//! Cross-crate integration tests: workloads -> simulator -> prefetchers ->
//! metrics, checking the qualitative claims the paper's evaluation rests on.

use gaze_sim::runner::{records_for, run_single, RunParams};
use gaze_sim::{make_prefetcher, MAIN_PREFETCHERS};
use workloads::build_workload;

fn quick_params() -> RunParams {
    RunParams {
        warmup: 10_000,
        measured: 50_000,
        ..RunParams::experiment()
    }
}

#[test]
fn every_main_prefetcher_runs_on_every_suite_representative() {
    let params = RunParams {
        warmup: 2_000,
        measured: 10_000,
        ..RunParams::test()
    };
    for workload in ["bwaves_s", "PageRank", "cassandra", "mcf_s", "facesim"] {
        let trace = build_workload(workload, records_for(&params));
        for prefetcher in MAIN_PREFETCHERS {
            let run = run_single(&trace, prefetcher, &params);
            assert!(
                run.speedup() > 0.2 && run.speedup() < 10.0,
                "{prefetcher} on {workload}: implausible speedup {:.3}",
                run.speedup()
            );
            assert!(run.accuracy() >= 0.0 && run.accuracy() <= 1.0);
            assert!(run.coverage() >= 0.0 && run.coverage() <= 1.0);
        }
    }
}

#[test]
fn gaze_accelerates_spatial_streaming() {
    let params = quick_params();
    let trace = build_workload("bwaves_s", records_for(&params));
    let run = run_single(&trace, "gaze", &params);
    assert!(
        run.speedup() > 1.2,
        "streaming speedup too low: {:.3}",
        run.speedup()
    );
    assert!(
        run.coverage() > 0.3,
        "streaming coverage too low: {:.3}",
        run.coverage()
    );
}

#[test]
fn gaze_beats_offset_only_characterization_on_conflicting_footprints() {
    // The Fig. 2 / Fig. 9 claim: when several footprints share a trigger
    // offset, the two-access characterization predicts more accurately than
    // trigger-offset-only matching.
    let params = quick_params();
    let trace = build_workload("fotonik3d_s", records_for(&params));
    let gaze = run_single(&trace, "gaze", &params);
    let offset = run_single(&trace, "offset", &params);
    assert!(
        gaze.accuracy() > offset.accuracy() + 0.05,
        "gaze accuracy {:.3} should clearly beat offset-only {:.3}",
        gaze.accuracy(),
        offset.accuracy()
    );
    assert!(
        gaze.speedup() >= offset.speedup() - 0.02,
        "gaze speedup {:.3} should not trail offset-only {:.3}",
        gaze.speedup(),
        offset.speedup()
    );
}

#[test]
fn gaze_beats_pmp_on_cloud_like_irregularity() {
    // The paper's headline contrast: coarse offset-merging degrades on
    // complex (CloudSuite-like) workloads while Gaze stays safe.
    let params = quick_params();
    let trace = build_workload("cassandra", records_for(&params));
    let gaze = run_single(&trace, "gaze", &params);
    let pmp = run_single(&trace, "pmp", &params);
    assert!(
        gaze.speedup() > pmp.speedup(),
        "gaze {:.3} should beat pmp {:.3} on cloud-like workloads",
        gaze.speedup(),
        pmp.speedup()
    );
    assert!(
        gaze.speedup() > 0.95,
        "gaze must not significantly degrade cloud workloads"
    );
}

#[test]
fn strict_matching_keeps_gaze_accuracy_above_pmp() {
    let params = quick_params();
    let mut gaze_acc = Vec::new();
    let mut pmp_acc = Vec::new();
    for workload in ["fotonik3d_s", "cassandra", "PageRank"] {
        let trace = build_workload(workload, records_for(&params));
        gaze_acc.push(run_single(&trace, "gaze", &params).accuracy());
        pmp_acc.push(run_single(&trace, "pmp", &params).accuracy());
    }
    let gaze_mean: f64 = gaze_acc.iter().sum::<f64>() / gaze_acc.len() as f64;
    let pmp_mean: f64 = pmp_acc.iter().sum::<f64>() / pmp_acc.len() as f64;
    assert!(
        gaze_mean > pmp_mean,
        "average gaze accuracy {gaze_mean:.3} should exceed pmp {pmp_mean:.3}"
    );
}

#[test]
fn storage_budgets_match_table_iv_ordering() {
    let kb = |name: &str| make_prefetcher(name).storage_bits() as f64 / 8.0 / 1024.0;
    // Gaze ~4.5 KB, about 31x below Bingo, and below PMP.
    assert!((kb("gaze") - 4.46).abs() < 0.2);
    assert!(kb("bingo") / kb("gaze") > 25.0);
    assert!(kb("pmp") > kb("gaze"));
    assert!(kb("sms") > 100.0);
}

#[test]
fn multicore_contention_preserves_gaze_advantage_over_pmp() {
    use gaze_sim::runner::multicore_speedup;
    let params = RunParams {
        warmup: 5_000,
        measured: 25_000,
        ..RunParams::experiment()
    };
    let instructions = records_for(&params);
    let traces: Vec<_> = ["bwaves_s", "PageRank", "cassandra", "fotonik3d_s"]
        .iter()
        .map(|n| build_workload(n, instructions))
        .collect();
    let refs: Vec<&dyn sim_core::trace::TraceSource> = traces.iter().map(|t| t as _).collect();
    let (_, _, gaze) = multicore_speedup(&refs, "gaze", &params);
    let (_, _, pmp) = multicore_speedup(&refs, "pmp", &params);
    assert!(
        gaze > pmp,
        "4-core: gaze {gaze:.3} should beat pmp {pmp:.3}"
    );
}
