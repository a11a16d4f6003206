//! Smoke tests for the experiment harness: every figure/table driver runs at
//! a tiny scale and produces non-empty tables with the expected shape.

use gaze_repro::gaze_sim::experiments::{experiment_names, run_experiment, ExperimentScale};
use gaze_repro::gaze_sim::runner::RunParams;

fn tiny_scale() -> ExperimentScale {
    ExperimentScale {
        params: RunParams {
            warmup: 1_000,
            measured: 6_000,
            ..RunParams::test()
        },
        workloads_per_suite: 1,
    }
}

#[test]
fn storage_tables_have_expected_rows() {
    let scale = tiny_scale();
    let t1 = run_experiment("table1", &scale);
    assert_eq!(t1.len(), 1);
    assert_eq!(t1[0].len(), 7); // FT, AT, PHT, DPCT, PB, DC, total
    let t4 = run_experiment("table4", &scale);
    assert_eq!(t4[0].len(), 8);
}

#[test]
fn single_core_figures_run_at_tiny_scale() {
    let scale = tiny_scale();
    for name in ["fig01", "fig04", "fig09", "fig10", "fig12"] {
        let tables = run_experiment(name, &scale);
        assert!(!tables.is_empty(), "{name} produced no tables");
        for table in &tables {
            assert!(!table.is_empty(), "{name} produced an empty table");
        }
    }
}

#[test]
fn main_comparison_produces_speedup_accuracy_and_coverage() {
    let scale = tiny_scale();
    let tables = run_experiment("fig06", &scale);
    assert_eq!(
        tables.len(),
        4,
        "fig06/07/08 return speedup, accuracy, coverage and timeliness"
    );
    // Nine prefetchers per table.
    assert_eq!(tables[0].len(), 9);
    assert_eq!(tables[1].len(), 9);
    assert_eq!(tables[2].len(), 9);
}

#[test]
fn sensitivity_figures_run_at_tiny_scale() {
    let scale = tiny_scale();
    for name in ["fig17", "fig18"] {
        let tables = run_experiment(name, &scale);
        for table in &tables {
            assert!(!table.is_empty(), "{name} produced an empty table");
        }
    }
}

#[test]
fn every_registered_experiment_name_is_runnable_shape() {
    // Only checks the registry is consistent (the heavier multi-core figures
    // are exercised by the golden-figure and end-to-end multicore tests).
    assert!(experiment_names().len() >= 17);
}
