//! Synthetic traces are sized by the instructions a run reads, so no
//! single-core run replays its own warm-up.
//!
//! The trace-wrap counter is process-global, so this suite is its own
//! test binary and only one of its tests simulates.

use gaze_sim::experiments::ExperimentScale;
use gaze_sim::runner::{records_for, RunParams};
use gaze_sim::spec;
use workloads::{build_workload, workload_names, Suite};

/// The most instructions one generator step appends: a QMM server record
/// (up to 40 non-memory instructions, then the load). A generator stops
/// at the step that reaches its budget, so a pass overshoots the budget
/// by less than this.
const LARGEST_STEP: u64 = 41;

#[test]
fn every_synthetic_trace_holds_its_instruction_budget() {
    let names = Suite::all_suites()
        .into_iter()
        .flat_map(workload_names)
        .chain(["gups"]);
    let mut largest_overshoot = 0;
    for name in names {
        for params in [
            RunParams::test(),
            RunParams::quick(),
            RunParams::experiment(),
        ] {
            let budget = records_for(&params);
            let per_pass = build_workload(name, budget).instructions_per_pass();
            assert!(
                per_pass >= budget,
                "{name}: {per_pass} instructions per pass, budget {budget}"
            );
            largest_overshoot = largest_overshoot.max(per_pass - budget);
        }
    }
    assert!(
        largest_overshoot < LARGEST_STEP,
        "a pass overshoots its budget by {largest_overshoot} instructions, \
         more than one generator step"
    );
}

#[test]
fn a_graph_sweep_never_wraps_its_traces() {
    let wraps = || {
        gaze_obs::metrics::registry()
            .counter(
                "gaze_sim_trace_wraps_total",
                "Times a core's trace reader wrapped to the start of its pass",
            )
            .get()
    };
    let sweep = spec::text::parse(
        "spec graph_wraps\n\
         table\n\
         title Ligra and GAP at test scale\n\
         kind workload-rows\n\
         traces suites:Ligra,GAP\n\
         metric speedup\n\
         row ip-stride\n\
         row pmp\n\
         row gaze\n\
         end\n",
    )
    .expect("spec parses");
    let scale = ExperimentScale {
        params: RunParams::test(),
        workloads_per_suite: usize::MAX,
    };
    let before = wraps();
    let tables = spec::run_spec(&sweep, &scale);
    let rows = tables[0].to_csv().lines().count() - 1;
    assert_eq!(
        rows,
        workload_names(Suite::Ligra).len() + workload_names(Suite::Gap).len()
    );
    assert_eq!(
        wraps() - before,
        0,
        "a synthetic trace replayed its warm-up"
    );
}
