//! Simulation runners: single-core, homogeneous and heterogeneous multi-core,
//! and multi-level (L1+L2) configurations.
//!
//! Engine knobs (read from the environment):
//!
//! * `GAZE_THREADS` — worker count of the parallel experiment engine
//!   (`1` forces the serial path),
//! * `GAZE_TRACE_DIR` — stream packed GZT traces from this directory
//!   instead of generating workloads in memory (see
//!   [`trace_store`](crate::trace_store)).
//!
//! Every runner takes `&dyn TraceSource`, so in-memory traces and packed
//! trace files are interchangeable; one read-only source can back many
//! concurrent simulations (each gets its own reader).

use std::sync::atomic::{AtomicU64, Ordering};

use prefetch_common::prefetcher::Prefetcher;
use sim_core::stats::{CoreStats, SimReport};
use sim_core::system::System;
use sim_core::trace::TraceSource;

use crate::baseline_cache::{baseline_stats, multicore_baseline};
use crate::factory::make_prefetcher;

// Run parameters (budgets + configuration + stable fingerprints) live in
// sim-core so the trace tooling and the results store share them; re-export
// them here where all the historical call sites import from.
pub use sim_core::params::{records_for, RunParams};

/// Total instructions simulated by this process (warm-up + measured, summed
/// over cores), maintained by every runner entry point.
static SIM_INSTRUCTIONS: AtomicU64 = AtomicU64::new(0);

/// Simulated instructions accumulated so far by this process (warm-up +
/// measured, summed over cores and runs).
pub fn simulated_instructions() -> u64 {
    SIM_INSTRUCTIONS.load(Ordering::Relaxed)
}

fn count_instructions(params: &RunParams, cores: usize) {
    SIM_INSTRUCTIONS.fetch_add(
        (params.warmup + params.measured) * cores as u64,
        Ordering::Relaxed,
    );
}

/// Result of a single-core run of one prefetcher on one trace.
#[derive(Debug, Clone)]
pub struct SingleRun {
    /// Workload name.
    pub workload: String,
    /// Prefetcher name.
    pub prefetcher: String,
    /// Statistics with the prefetcher enabled.
    pub stats: CoreStats,
    /// Statistics of the no-prefetching baseline on the same trace.
    pub baseline: CoreStats,
}

impl SingleRun {
    /// IPC speedup over the no-prefetching baseline.
    pub fn speedup(&self) -> f64 {
        if self.baseline.ipc() == 0.0 {
            1.0
        } else {
            self.stats.ipc() / self.baseline.ipc()
        }
    }

    /// Overall prefetch accuracy (paper §IV-A3).
    pub fn accuracy(&self) -> f64 {
        self.stats.overall_accuracy()
    }

    /// LLC miss coverage relative to the baseline's LLC misses.
    pub fn coverage(&self) -> f64 {
        let base = self.baseline.llc.demand_misses;
        if base == 0 {
            return 0.0;
        }
        let remaining = self.stats.llc.demand_misses.min(base);
        (base - remaining) as f64 / base as f64
    }

    /// Fraction of useful prefetches that were late.
    pub fn late_fraction(&self) -> f64 {
        self.stats.late_fraction()
    }
}

/// Runs already-constructed prefetchers on `trace` at single core and
/// returns the core statistics (no baseline, no caching).
///
/// This is the *one* primitive that drives a single-core [`System`]: the
/// store-backed job path ([`run_single`] / [`run_multi_level_single`]),
/// the baseline memoization and the benchmark's layer timing all go
/// through it, so there is exactly one place where a core simulation is
/// configured (instruction accounting, optional L2 prefetcher).
pub fn simulate_core(
    trace: &dyn TraceSource,
    l1: Box<dyn Prefetcher>,
    l2: Option<Box<dyn Prefetcher>>,
    params: &RunParams,
) -> CoreStats {
    let mut cfg = params.config;
    cfg.cores = 1;
    let mut system = System::single_core(cfg, trace, l1);
    if let Some(l2) = l2 {
        system.set_l2_prefetcher(0, l2);
    }
    count_instructions(params, 1);
    let report = system.run(params.warmup, params.measured);
    report.cores[0]
}

/// The store key name of a multi-level configuration: `"l1+l2"` (just
/// `l1` when no L2 prefetcher is set), e.g. `"gaze+bingo"`.
pub fn multi_level_name(l1: &str, l2: Option<&str>) -> String {
    match l2 {
        Some(l2) => format!("{l1}+{l2}"),
        None => l1.to_string(),
    }
}

/// Runs `prefetcher` (built by the factory) on `trace` at single core,
/// together with the no-prefetching baseline.
///
/// Two layers of reuse sit in front of the simulator:
///
/// 1. **Persistent results store** (when `GAZE_RESULTS_DIR` or
///    [`results::configure`](crate::results::configure) activates one):
///    the (trace fingerprint, params fingerprint, prefetcher) key is
///    looked up first, and a hit returns the stored run with *zero*
///    simulation; a miss simulates and records the result write-through.
/// 2. **Baseline memoization** — the `"none"` baseline is simulated once
///    per (trace, params) pair per process (see
///    [`baseline_stats`](crate::baseline_cache::baseline_stats())).
///
/// Both layers are exact: the simulator is deterministic and the store
/// holds raw counters, so a cached or stored result is bit-identical to a
/// fresh simulation (asserted by the determinism and results-store
/// integration tests).
pub fn run_single(trace: &dyn TraceSource, prefetcher: &str, params: &RunParams) -> SingleRun {
    run_multi_level_single(trace, prefetcher, None, params)
}

/// Runs a multi-level configuration (`l1` at the L1D, `l2` at the L2C)
/// together with its no-prefetching baseline, store-backed like
/// [`run_single`]: the result persists as a single-core record keyed by
/// the combined prefetcher name [`multi_level_name`], so a warm store
/// serves Fig. 13 with zero simulation. With no L2 prefetcher this *is*
/// [`run_single`] — the two entry points share one job-execution path.
pub fn run_multi_level_single(
    trace: &dyn TraceSource,
    l1: &str,
    l2: Option<&str>,
    params: &RunParams,
) -> SingleRun {
    let name = multi_level_name(l1, l2);
    if let Some(store) = crate::results::active_store() {
        let fp = sim_core::trace::source_fingerprint(trace);
        let pfp = params.fingerprint();
        if let Some(stored) = store.lookup(fp, pfp, &name, trace.name()) {
            return stored;
        }
        let run = run_level_fresh(trace, l1, l2, name, params);
        store.record(&run, fp, params);
        return run;
    }
    run_level_fresh(trace, l1, l2, name, params)
}

/// The simulate path of the single-core job: prefetcher(s) via
/// [`simulate_core`], baseline via the memoizing
/// [`baseline_stats`](crate::baseline_cache::baseline_stats()).
fn run_level_fresh(
    trace: &dyn TraceSource,
    l1: &str,
    l2: Option<&str>,
    name: String,
    params: &RunParams,
) -> SingleRun {
    let with = simulate_core(trace, make_prefetcher(l1), l2.map(make_prefetcher), params);
    let baseline = baseline_stats(trace, params);
    SingleRun {
        workload: trace.name().to_string(),
        prefetcher: name,
        stats: with,
        baseline,
    }
}

/// The store label of a trace mix: the core's workload names joined by
/// `+`, truncated (at a character boundary) to the store's label width.
/// Purely a function of the mix, so every path that runs the same mix
/// labels it identically.
pub fn mix_label(traces: &[&dyn TraceSource]) -> String {
    let mut label = traces
        .iter()
        .map(|t| t.name())
        .collect::<Vec<_>>()
        .join("+");
    let max = results_store::format::GZR_LABEL_BYTES;
    if label.len() > max {
        let mut end = max;
        while !label.is_char_boundary(end) {
            end -= 1;
        }
        label.truncate(end);
    }
    label
}

/// Runs a homogeneous multi-core mix (`cores` copies of `trace`) and returns
/// the full report. Store-backed: a mix of `n` copies keys identically to
/// the same mix run heterogeneously.
pub fn run_homogeneous(
    trace: &dyn TraceSource,
    prefetcher: &str,
    cores: usize,
    params: &RunParams,
) -> SimReport {
    let traces: Vec<&dyn TraceSource> = vec![trace; cores];
    run_heterogeneous(&traces, prefetcher, params)
}

/// Runs a heterogeneous multi-core mix (one trace per core).
///
/// Store-backed like [`run_single`]: with an active results store the
/// (mix fingerprint, params-at-core-count fingerprint, prefetcher) key is
/// looked up first — a hit returns the stored [`SimReport`] with zero
/// simulation — and misses are simulated and recorded write-through as a
/// v2 mix record.
pub fn run_heterogeneous(
    traces: &[&dyn TraceSource],
    prefetcher: &str,
    params: &RunParams,
) -> SimReport {
    if let Some(store) = crate::results::active_store() {
        let fps: Vec<u64> = traces
            .iter()
            .map(|t| sim_core::trace::source_fingerprint(*t))
            .collect();
        let mix_fp = sim_core::params::mix_fingerprint(&fps);
        let keyed = params.with_cores(traces.len());
        let pfp = keyed.fingerprint();
        let label = mix_label(traces);
        if let Some(report) = store.lookup_mix(mix_fp, pfp, prefetcher, &label) {
            return report;
        }
        let report = run_heterogeneous_fresh(traces, prefetcher, params);
        store.record_mix(&report, mix_fp, &keyed, prefetcher, &label);
        return report;
    }
    run_heterogeneous_fresh(traces, prefetcher, params)
}

/// The simulate path of [`run_heterogeneous`] (no store).
fn run_heterogeneous_fresh(
    traces: &[&dyn TraceSource],
    prefetcher: &str,
    params: &RunParams,
) -> SimReport {
    let cores = traces.len();
    let p = params.with_cores(cores);
    let prefetchers = (0..cores).map(|_| make_prefetcher(prefetcher)).collect();
    let mut system = System::new(p.config, traces.to_vec(), prefetchers);
    count_instructions(&p, cores);
    system.run(p.warmup, p.measured)
}

/// Geometric-mean speedup of a multi-core report over its no-prefetching
/// counterpart (run on the same traces).
pub fn multicore_speedup(
    traces: &[&dyn TraceSource],
    prefetcher: &str,
    params: &RunParams,
) -> (SimReport, SimReport, f64) {
    let with = run_heterogeneous(traces, prefetcher, params);
    let base = multicore_baseline(traces, params);
    let speedup = with.speedup_over(&base);
    (with, base, speedup)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::config::SimConfig;
    use workloads::build_workload;

    #[test]
    fn single_run_reports_plausible_metrics() {
        let trace = build_workload("bwaves_s", 8_000);
        let run = run_single(&trace, "gaze", &RunParams::test());
        assert!(
            run.speedup() > 0.5 && run.speedup() < 5.0,
            "speedup {:.2}",
            run.speedup()
        );
        assert!(run.accuracy() >= 0.0 && run.accuracy() <= 1.0);
        assert!(run.coverage() >= 0.0 && run.coverage() <= 1.0);
        assert!(run.baseline.l1d.demand_accesses > 0);
    }

    #[test]
    fn streaming_workload_benefits_from_gaze() {
        let params = RunParams::test();
        let trace = build_workload("bwaves_s", records_for(&params));
        let run = run_single(&trace, "gaze", &params);
        assert!(
            run.speedup() > 1.05,
            "Gaze should accelerate streaming, got {:.3}",
            run.speedup()
        );
        assert!(
            run.accuracy() > 0.5,
            "streaming accuracy should be high, got {:.2}",
            run.accuracy()
        );
    }

    #[test]
    fn homogeneous_multicore_runs() {
        let params = RunParams {
            warmup: 2_000,
            measured: 8_000,
            config: SimConfig::paper_single_core(),
        };
        let trace = build_workload("PageRank", 6_000);
        let report = run_homogeneous(&trace, "pmp", 2, &params);
        assert_eq!(report.cores.len(), 2);
    }

    #[test]
    fn heterogeneous_multicore_speedup_is_finite() {
        let params = RunParams {
            warmup: 2_000,
            measured: 8_000,
            config: SimConfig::paper_single_core(),
        };
        let t1 = build_workload("bwaves_s", 6_000);
        let t2 = build_workload("mcf_s", 6_000);
        let (_, _, speedup) = multicore_speedup(&[&t1, &t2], "gaze", &params);
        assert!(speedup.is_finite() && speedup > 0.3 && speedup < 5.0);
    }

    #[test]
    fn multi_level_run_executes() {
        let params = RunParams::test();
        let trace = build_workload("fotonik3d_s", 8_000);
        let stats = simulate_core(
            &trace,
            make_prefetcher("gaze"),
            Some(make_prefetcher("bingo")),
            &params,
        );
        assert!(stats.ipc() > 0.0);
    }

    #[test]
    fn multi_level_single_carries_combined_name_and_baseline() {
        let params = RunParams {
            warmup: 1_000,
            measured: 4_000,
            ..RunParams::test()
        };
        let trace = build_workload("bwaves_s", 4_000);
        let run = run_multi_level_single(&trace, "gaze", Some("bingo"), &params);
        assert_eq!(run.prefetcher, "gaze+bingo");
        assert!(run.baseline.ipc() > 0.0);
        // No L2 prefetcher degenerates to the plain single-core run.
        let plain = run_multi_level_single(&trace, "gaze", None, &params);
        assert_eq!(plain.prefetcher, "gaze");
        assert_eq!(plain.stats, run_single(&trace, "gaze", &params).stats);
    }

    #[test]
    fn mix_labels_join_names_and_truncate_to_label_width() {
        let t1 = build_workload("bwaves_s", 2_000);
        let t2 = build_workload("mcf_s", 2_000);
        assert_eq!(mix_label(&[&t1, &t2]), "bwaves_s+mcf_s");
        assert_eq!(mix_label(&[&t1, &t1, &t1]), "bwaves_s+bwaves_s+bwaves_s");
        // 16 copies exceed the on-disk label field; the label truncates
        // deterministically instead of failing to encode.
        let many: Vec<&dyn TraceSource> =
            std::iter::repeat_n(&t1 as &dyn TraceSource, 16).collect();
        let label = mix_label(&many);
        assert_eq!(label.len(), results_store::format::GZR_LABEL_BYTES);
        assert_eq!(multi_level_name("gaze", Some("bingo")), "gaze+bingo");
        assert_eq!(multi_level_name("gaze", None), "gaze");
    }
}
