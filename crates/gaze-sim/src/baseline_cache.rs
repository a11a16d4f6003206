//! Memoization of the no-prefetching baseline.
//!
//! Every [`run_single`](crate::runner::run_single) call needs the `"none"`
//! baseline of its (trace, configuration) pair to compute speedup — and a
//! comparison figure re-runs the *same* baseline once per prefetcher, which
//! used to double the cost of every run and multiply it across a nine-way
//! comparison. This cache simulates each baseline exactly once per (trace
//! fingerprint, run parameters) key and hands out the resulting `CoreStats`.
//!
//! Concurrency: the map only stores per-key once-cells, so two parallel
//! workers asking for the same uncomputed baseline block on the same cell
//! while one of them simulates — never both. Results are deterministic, so a
//! cached value is bit-identical to a fresh simulation (asserted by the
//! determinism integration test).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use sim_core::stats::CoreStats;
use sim_core::stats::SimReport;
use sim_core::trace::{source_fingerprint, TraceSource};

use crate::factory::make_prefetcher;
use crate::runner::{run_heterogeneous, simulate_core, RunParams};

/// Cache key: trace fingerprint + run-parameter fingerprint.
///
/// [`RunParams::fingerprint`] folds the budgets and every configuration
/// field into one stable hash — the same key the persistent results store
/// uses, so the in-process cache and the on-disk store agree on what "the
/// same run" means. The trace name rides along for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct BaselineKey {
    trace_name: String,
    trace_fingerprint: u64,
    params_fingerprint: u64,
}

type CacheMap = Mutex<HashMap<BaselineKey, Arc<OnceLock<CoreStats>>>>;
type MulticoreCacheMap = Mutex<HashMap<BaselineKey, Arc<OnceLock<SimReport>>>>;

fn cache() -> &'static CacheMap {
    static CACHE: OnceLock<CacheMap> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

fn multicore_cache() -> &'static MulticoreCacheMap {
    static CACHE: OnceLock<MulticoreCacheMap> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The no-prefetching baseline statistics for `trace` under `params`,
/// simulated at most once per (trace, params) pair for the process lifetime.
///
/// `GAZE_BASELINE_CACHE=0` bypasses the cache entirely (A/B measurements).
pub fn baseline_stats(trace: &dyn TraceSource, params: &RunParams) -> CoreStats {
    if !crate::runner::baseline_cache_enabled() {
        return simulate_core(trace, make_prefetcher("none"), None, params);
    }
    let key = BaselineKey {
        trace_name: trace.name().to_string(),
        trace_fingerprint: source_fingerprint(trace),
        params_fingerprint: params.fingerprint(),
    };
    let cell = {
        let mut map = cache().lock().expect("baseline cache poisoned");
        Arc::clone(map.entry(key).or_default())
    };
    *cell.get_or_init(|| simulate_core(trace, make_prefetcher("none"), None, params))
}

/// The no-prefetching baseline of a heterogeneous multi-core mix (one trace
/// per core), simulated at most once per (mix, params) pair.
///
/// `GAZE_BASELINE_CACHE=0` bypasses the cache entirely (A/B measurements).
pub fn multicore_baseline(traces: &[&dyn TraceSource], params: &RunParams) -> SimReport {
    if !crate::runner::baseline_cache_enabled() {
        return run_heterogeneous(traces, "none", params);
    }
    let mut names = String::new();
    let mut fp = sim_core::params::Fnv1a::new();
    for t in traces {
        names.push_str(t.name());
        names.push('|');
        fp.mix(source_fingerprint(*t));
    }
    let key = BaselineKey {
        trace_name: names,
        trace_fingerprint: fp.finish(),
        params_fingerprint: params.fingerprint(),
    };
    let cell = {
        let mut map = multicore_cache().lock().expect("baseline cache poisoned");
        Arc::clone(map.entry(key).or_default())
    };
    cell.get_or_init(|| run_heterogeneous(traces, "none", params))
        .clone()
}

/// Number of distinct single-core baselines simulated so far (diagnostics).
pub fn cached_baseline_count() -> usize {
    cache().lock().expect("baseline cache poisoned").len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::build_workload;

    #[test]
    fn cache_returns_bit_identical_stats_to_direct_simulation() {
        let params = RunParams {
            warmup: 1_000,
            measured: 5_000,
            ..RunParams::test()
        };
        let trace = build_workload("bwaves_s", 4_000);
        let direct = simulate_core(&trace, make_prefetcher("none"), None, &params);
        let cached_a = baseline_stats(&trace, &params);
        let cached_b = baseline_stats(&trace, &params);
        assert_eq!(direct, cached_a);
        assert_eq!(cached_a, cached_b);
    }

    #[test]
    fn multicore_cache_matches_direct_heterogeneous_run() {
        let params = RunParams {
            warmup: 500,
            measured: 3_000,
            ..RunParams::test()
        };
        let t1 = build_workload("bwaves_s", 3_000);
        let t2 = build_workload("mcf_s", 3_000);
        let direct = run_heterogeneous(&[&t1, &t2], "none", &params);
        let cached = multicore_baseline(&[&t1, &t2], &params);
        assert_eq!(direct, cached);
    }

    #[test]
    fn distinct_params_get_distinct_entries() {
        let trace = build_workload("mcf_s", 4_000);
        let a = RunParams {
            warmup: 1_000,
            measured: 5_000,
            ..RunParams::test()
        };
        let b = RunParams {
            warmup: 1_000,
            measured: 6_000,
            ..RunParams::test()
        };
        let before = cached_baseline_count();
        baseline_stats(&trace, &a);
        baseline_stats(&trace, &b);
        baseline_stats(&trace, &a);
        assert!(cached_baseline_count() >= before + 2);
    }

    #[test]
    fn fingerprint_distinguishes_content_not_just_name() {
        let t1 = sim_core::trace::Trace::new(
            "same-name",
            vec![sim_core::trace::TraceRecord::load(1, 64, 0)],
        );
        let t2 = sim_core::trace::Trace::new(
            "same-name",
            vec![sim_core::trace::TraceRecord::load(1, 128, 0)],
        );
        assert_ne!(source_fingerprint(&t1), source_fingerprint(&t2));
    }
}
