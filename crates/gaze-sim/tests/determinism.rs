//! Determinism regression tests for the parallel experiment engine.
//!
//! The engine's optimizations — thread-pool fan-out, baselines shared
//! across a sweep and event-driven cycle skipping — must all be *exact*:
//! [`plan::execute`] produces bit-identical statistics to a fresh serial
//! [`run_single`] of every pair.

use gaze_sim::experiments::ExperimentScale;
use gaze_sim::factory::{known_prefetchers, make_prefetcher};
use gaze_sim::runner::{records_for, run_single, RunParams};
use gaze_sim::spec::plan::{self, JobPlan};
use gaze_sim::spec::{Entry, Metric, TableKind, TraceSel};
use sim_core::config::SimConfig;
use sim_core::system::System;
use sim_core::trace::TraceSource;
use workloads::build_workload;

fn scale() -> ExperimentScale {
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
fn executed_plan_matches_serial_fresh_reference_and_is_repeatable() {
    let s = scale();
    let workloads = ["bwaves_s", "mcf_s", "PageRank"];
    let prefetchers = ["gaze", "pmp", "ip-stride"];
    let mut job_plan = JobPlan::default();
    plan::table_jobs(
        &TableKind::WorkloadRows {
            traces: TraceSel::List(workloads.iter().map(|w| w.to_string()).collect()),
            metric: Metric::Speedup,
            rows: prefetchers.iter().map(|p| Entry::plain(p)).collect(),
            normalize_to_first: false,
            avg_label: None,
        },
        &s,
        &mut job_plan,
    );
    assert_eq!(job_plan.len(), workloads.len() * prefetchers.len());
    let first = plan::execute(&job_plan, &s);
    let second = plan::execute(&job_plan, &s);
    for workload in workloads {
        let trace = build_workload(workload, records_for(&s.params));
        for prefetcher in prefetchers {
            // Serial reference: fresh simulation of both runs of the pair,
            // no shared baseline, no thread pool.
            let reference = run_single(&trace, prefetcher, &s.params);
            for run in [&first, &second].map(|r| r.single(workload, prefetcher, &s.params)) {
                assert_eq!(run.workload, reference.workload);
                assert_eq!(run.prefetcher, reference.prefetcher);
                // CoreStats is PartialEq over every counter — bit-identical or bust.
                assert_eq!(
                    run.stats, reference.stats,
                    "{prefetcher}/{workload} stats diverged"
                );
                assert_eq!(
                    run.baseline, reference.baseline,
                    "{prefetcher}/{workload} baseline diverged"
                );
            }
        }
    }
}

/// Queue-aware cycle skipping must be exact for *every* constructible
/// prefetcher — including the tick-driven Gaze variants whose Prefetch
/// Buffer reports readiness via `next_ready_at` and the queue-heavy
/// spatial baselines whose requests sit refused in the prefetch queue
/// through MSHR/DRAM-backlog stalls. The `System` is driven directly so
/// the skip toggle is per-instance (no env races across test threads).
#[test]
fn queue_aware_cycle_skip_is_bit_exact_for_every_prefetcher() {
    let params = RunParams {
        warmup: 1_000,
        measured: 6_000,
        ..RunParams::test()
    };
    let trace = build_workload("mcf_s", records_for(&params));
    let mut cfg = params.config;
    cfg.cores = 1;
    for name in known_prefetchers() {
        let run = |skip: bool| {
            let mut sys = System::single_core(cfg, &trace, make_prefetcher(name));
            sys.set_cycle_skip(skip);
            let report = sys.run(params.warmup, params.measured);
            (report, sys.cycle(), sys.cycles_skipped())
        };
        let (a, cycle_a, skipped) = run(true);
        let (b, cycle_b, _) = run(false);
        assert_eq!(a, b, "{name}: skipped run diverged from unskipped");
        assert_eq!(cycle_a, cycle_b, "{name}: final cycle diverged");
        assert!(
            skipped > 0,
            "{name}: skip never engaged on a memory-bound run"
        );
    }
}

/// The same exactness for a multi-core mix running a *different*
/// prefetcher on every core: cross-core contention (shared LLC + DRAM)
/// makes per-core stall windows interleave, so a skip bound that forgot
/// any core's queued work would diverge here.
#[test]
fn queue_aware_cycle_skip_is_bit_exact_for_multicore_mixed_prefetchers() {
    let params = RunParams {
        warmup: 1_000,
        measured: 5_000,
        ..RunParams::test()
    };
    let names = ["gaze", "pmp", "vberti", "none"];
    let traces: Vec<_> = ["mcf_s", "PageRank", "bwaves_s", "cassandra"]
        .iter()
        .map(|n| build_workload(n, records_for(&params)))
        .collect();
    let cfg = SimConfig::paper_multi_core(4);
    let run = |skip: bool| {
        let sources: Vec<&dyn TraceSource> = traces.iter().map(|t| t as &dyn TraceSource).collect();
        let prefetchers = names.iter().map(|n| make_prefetcher(n)).collect();
        let mut sys = System::new(cfg, sources, prefetchers);
        sys.set_cycle_skip(skip);
        let report = sys.run(params.warmup, params.measured);
        (report, sys.cycle())
    };
    let (a, cycle_a) = run(true);
    let (b, cycle_b) = run(false);
    assert_eq!(a, b, "mixed multi-core reports diverged");
    assert_eq!(cycle_a, cycle_b, "mixed multi-core final cycle diverged");
}
