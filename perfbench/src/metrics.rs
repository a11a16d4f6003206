//! The metric catalogue (the single source of `BENCHMARK.json`) and the
//! reduction of children's raw samples to reported values.

use crate::report::Collected;
use crate::seed::{Class, MIX_SPEC, SINGLE_PREFETCHERS, SINGLE_SPEC};
use crate::stats::{self, Percentile};
use crate::Workload;

/// How long one run measures, in seconds.
pub const RUN_SECONDS: u64 = 40;

/// One catalogue entry.
#[derive(Debug, Clone)]
pub struct Def {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `higher` or `lower`.
    pub better: &'static str,
    /// Allowed worsening of the parent's median, for end-to-end metrics.
    pub bound: Option<f64>,
}

fn def(name: &str, unit: &'static str, better: &'static str, bound: Option<f64>) -> Def {
    Def {
        name: name.to_string(),
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics, reported with `--trace 0` on every workload.
pub fn end_to_end() -> Vec<Def> {
    vec![
        def("setup_s", "s", "lower", Some(0.25)),
        def("wall_s", "s", "lower", Some(0.25)),
        def("figure_p50_ms", "ms", "lower", Some(0.25)),
        def("figure_p99_ms", "ms", "lower", Some(0.25)),
        def("rps", "1/s", "higher", Some(0.25)),
    ]
}

/// Per-layer metrics, reported with `--trace 1` on every workload (0
/// where a layer does no work on that workload).
pub fn per_layer() -> Vec<Def> {
    let mut out = vec![
        def("process.peak_rss_mb", "MiB", "lower", None),
        def("workloads.build_ms", "ms", "lower", None),
        def("trace.fingerprint_ms", "ms", "lower", None),
    ];
    for pf in SINGLE_PREFETCHERS {
        out.push(def(
            &format!("prefetcher.replay_ms.{pf}"),
            "ms",
            "lower",
            None,
        ));
        out.push(def(
            &format!("prefetcher.requests.{pf}"),
            "count",
            "lower",
            None,
        ));
    }
    for pf in SINGLE_PREFETCHERS.iter().copied().chain(["none"]) {
        out.push(def(&format!("system.run_ms.{pf}"), "ms", "lower", None));
    }
    for pf in SINGLE_PREFETCHERS {
        out.push(def(
            &format!("system.overhead_ms.{pf}"),
            "ms",
            "lower",
            None,
        ));
    }
    out.extend([
        def("system.cycles_stepped", "count", "lower", None),
        def("system.cycles_skipped", "count", "higher", None),
        def("system.ns_per_stepped_cycle", "ns", "lower", None),
        def("hierarchy.pf_requested", "count", "higher", None),
        def("hierarchy.pf_issued", "count", "higher", None),
        def("hierarchy.pf_dropped_redundant", "count", "lower", None),
        def("hierarchy.pf_dropped_queue_full", "count", "lower", None),
        def("hierarchy.pf_dropped_mshr_full", "count", "lower", None),
        def("hierarchy.pf_late", "count", "lower", None),
        def("hierarchy.demand_accesses", "count", "higher", None),
        def("hierarchy.llc_demand_misses", "count", "lower", None),
        def("hierarchy.issue_ratio", "ratio", "higher", None),
        def("engine.plan_ms", "ms", "lower", None),
        def("engine.execute_ms", "ms", "lower", None),
        def("engine.render_ms", "ms", "lower", None),
        def("engine.jobs", "count", "lower", None),
        def("engine.simulated_minstr", "Minstr", "lower", None),
        def("engine.useful_ratio", "ratio", "higher", None),
        def("engine.worker_utilization", "ratio", "higher", None),
        def("store.open_ms", "ms", "lower", None),
        def("store.get_us_p50", "us", "lower", None),
        def("store.flush_ms", "ms", "lower", None),
        def("store.records_decoded", "count", "lower", None),
        def("store.preads", "count", "lower", None),
        def("store.hits", "count", "higher", None),
        def("store.misses", "count", "lower", None),
        def("http.parse_us", "us", "lower", None),
    ]);
    for class in Class::ALL {
        out.push(def(
            &format!("routes.handle_us_p50.{}", class.name()),
            "us",
            "lower",
            None,
        ));
    }
    out.extend([
        def("serve.figure_single_p50_ms", "ms", "lower", None),
        def("serve.figure_mix_p50_ms", "ms", "lower", None),
        def("serve.runs_p50_ms", "ms", "lower", None),
        def("serve.runs_p99_ms", "ms", "lower", None),
        def("serve.transport_us.figure", "us", "lower", None),
        def("serve.transport_us.runs", "us", "lower", None),
        def("trace.overhead_pct", "%", "lower", None),
        def("trace.layer_share", "ratio", "higher", None),
    ]);
    out
}

fn why(w: Workload) -> &'static str {
    match w {
        Workload::SimSingle => {
            "nine main prefetchers over ten seeded workloads, quick, 2 engine threads, fresh \
             store: the hot simulation loop; one sweep is one cold figure, so figure_* and rps \
             restate wall_s"
        }
        Workload::SimMix => {
            "five seeded four-core mixes, head-to-head prefetchers plus none: shared LLC, DRAM \
             backlog, 20 large jobs on 2 workers; figure_* and rps restate wall_s"
        }
        Workload::ServeWarm => {
            "2 closed-loop clients replay seeded warm figure, /runs and /healthz requests to \
             gaze-serve over a prefilled store: the warm path, no simulation"
        }
    }
}

/// The content of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    use crate::host::quote;
    let entry = |d: &Def| {
        let mut s = format!(
            "{{\"name\": {}, \"unit\": {}, \"better\": {}",
            quote(&d.name),
            quote(d.unit),
            quote(d.better)
        );
        if let Some(bound) = d.bound {
            s.push_str(&format!(", \"bound\": {bound}"));
        }
        s.push('}');
        s
    };
    let list = |defs: Vec<Def>| {
        defs.iter()
            .map(|d| format!("    {}", entry(d)))
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let workloads = Workload::BENCHMARKED
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(w.name()),
                quote(why(*w))
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"perfbench\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{workloads}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        list(end_to_end()),
        list(per_layer())
    )
}

/// A reported value, with a note on how it was read.
#[derive(Debug, Clone)]
pub struct Value {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// The value.
    pub value: f64,
    /// Sample count and percentile, where they apply.
    pub note: String,
}

fn note(p: &Percentile) -> String {
    format!("p{:.1} of n={}", p.pct, p.n)
}

fn scaled(samples: &[f64], by: f64) -> Vec<f64> {
    samples.iter().map(|v| v * by).collect()
}

/// Median and tail of `samples`, or zeros when there are none.
fn percentiles(samples: &[f64]) -> (Percentile, Percentile) {
    if samples.is_empty() {
        let zero = Percentile {
            value: 0.0,
            pct: 0.0,
            n: 0,
        };
        return (zero, zero);
    }
    (stats::percentile(samples, 50.0), stats::tail(samples))
}

fn median_or_zero(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        stats::median(samples)
    }
}

/// The end-to-end values of one run.
pub fn end_to_end_values(workload: Workload, c: &Collected) -> Vec<Value> {
    let (figure_ms, rps) = match workload {
        Workload::SimSingle | Workload::SimMix => (
            scaled(c.all("wall_s"), 1e3),
            c.all("jobs").first().copied().unwrap_or(0.0) / median_or_zero(c.all("wall_s")),
        ),
        Workload::ServeWarm => {
            let requests: f64 = c.all("requests").iter().sum();
            let measured: f64 = c.all("measured_s").iter().sum();
            (
                scaled(c.all("client_us.figure"), 1e-3),
                if measured > 0.0 {
                    requests / measured
                } else {
                    0.0
                },
            )
        }
    };
    let (figure_p50, figure_tail) = percentiles(&figure_ms);
    let counted = |key: &str| format!("median of n={}", c.all(key).len());
    // On the sim-* workloads one sweep is one cold figure: the figure
    // percentiles and rps restate wall_s, and the note says so.
    let sim = workload != Workload::ServeWarm;
    let restated = if sim { " (restates wall_s)" } else { "" };
    let tail_note = if figure_tail.pct == 50.0 {
        format!(
            "{}: too few samples for a tail{restated}",
            note(&figure_tail)
        )
    } else {
        format!("{}{restated}", note(&figure_tail))
    };
    let rps_note = if sim {
        "planned jobs / median wall_s (restates wall_s)".to_string()
    } else {
        format!("n={} requests", c.all("requests").iter().sum::<f64>())
    };
    let mut out = Vec::new();
    for d in end_to_end() {
        let (value, note_text) = match d.name.as_str() {
            "setup_s" => (median_or_zero(c.all("setup_s")), counted("setup_s")),
            "wall_s" => (median_or_zero(c.all("wall_s")), counted("wall_s")),
            "figure_p50_ms" => (figure_p50.value, format!("{}{restated}", note(&figure_p50))),
            "figure_p99_ms" => (figure_tail.value, tail_note.clone()),
            "rps" => (rps, rps_note.clone()),
            other => unreachable!("no reduction for end-to-end metric {other}"),
        };
        out.push(Value {
            name: d.name,
            unit: d.unit,
            value,
            note: note_text,
        });
    }
    out
}

/// The per-layer values of one traced run.
pub fn per_layer_values(workload: Workload, c: &Collected) -> Vec<Value> {
    let med = |key: &str| median_or_zero(c.all(key));
    let handle = |classes: &[&str]| {
        let mut all = Vec::new();
        for class in classes {
            all.extend_from_slice(c.all(&format!("handle_us.{class}")));
        }
        median_or_zero(&all)
    };
    let client = |classes: &[&str]| {
        let mut all = Vec::new();
        for class in classes {
            all.extend_from_slice(c.all(&format!("client_us.{class}")));
        }
        median_or_zero(&all)
    };
    let mut runs_ms = scaled(c.all("client_us.runs"), 1e-3);
    runs_ms.extend(scaled(c.all("client_us.mix_runs"), 1e-3));
    let (runs_p50, runs_tail) = percentiles(&runs_ms);
    let mut out = Vec::new();
    for d in per_layer() {
        let name = d.name.as_str();
        let value = if name == "serve.runs_p50_ms" {
            runs_p50.value
        } else if name == "serve.runs_p99_ms" {
            runs_tail.value
        } else if let Some(pf) = name.strip_prefix("system.overhead_ms.") {
            // Measured as is: a negative value means the prefetcher's own
            // replay costs more than the hierarchy saves it.
            if c.all(&format!("system.run_ms.{pf}")).is_empty() {
                0.0
            } else {
                med(&format!("system.run_ms.{pf}"))
                    - med("system.run_ms.none")
                    - med(&format!("prefetcher.replay_ms.{pf}"))
            }
        } else if let Some(class) = name.strip_prefix("routes.handle_us_p50.") {
            med(&format!("handle_us.{class}"))
        } else if name == "serve.transport_us.figure" {
            if workload == Workload::ServeWarm {
                client(&["figure"]) - handle(&["figure"])
            } else {
                0.0
            }
        } else if name == "serve.transport_us.runs" {
            if workload == Workload::ServeWarm {
                client(&["runs", "mix_runs"]) - handle(&["runs", "mix_runs"])
            } else {
                0.0
            }
        } else if name == "trace.overhead_pct" {
            let traced = med("traced_wall_s");
            let untraced = med("untraced_wall_s");
            if untraced > 0.0 {
                100.0 * (traced - untraced) / untraced
            } else {
                0.0
            }
        } else if name == "trace.layer_share" {
            layer_share(workload, c)
        } else if name == "serve.figure_single_p50_ms" {
            med(&format!("figure_us.{SINGLE_SPEC}")) / 1e3
        } else if name == "serve.figure_mix_p50_ms" {
            med(&format!("figure_us.{MIX_SPEC}")) / 1e3
        } else {
            med(name)
        };
        out.push(Value {
            name: d.name,
            unit: d.unit,
            value,
            note: String::new(),
        });
    }
    out
}

/// The top-level layers' time, each measured on its own, as a share of
/// the wall time they should account for. Neither side is derived from
/// the other, so the share can fall short of (or exceed) 1.0.
///
/// * `sim-*`: the standalone trace build, plan, the jobs' summed run time
///   spread over the engine threads, render and flush, over the traced
///   sweep's wall. Idle workers or unaccounted work inside execute lower
///   it.
/// * `serve-warm`: request parsing from memory plus route handling with
///   no socket, run one request at a time, over the client-observed
///   latency of the same requests under the closed loop (medians per
///   request kind, weighted by each kind's share of the stream). The
///   remainder is transport and contention between concurrent requests.
fn layer_share(workload: Workload, c: &Collected) -> f64 {
    let med = |key: &str| median_or_zero(c.all(key));
    let (layers, wall) = match workload {
        Workload::SimSingle | Workload::SimMix => (
            med("workloads.build_ms")
                + med("engine.plan_ms")
                + med("engine.job_ms") / crate::host::THREADS as f64
                + med("engine.render_ms")
                + med("store.flush_ms"),
            med("traced_wall_s") * 1e3,
        ),
        Workload::ServeWarm => {
            // (client-observed key, in-process handle key) per request kind.
            let mut kinds = Vec::new();
            for spec in [SINGLE_SPEC, MIX_SPEC] {
                kinds.push((
                    format!("figure_us.{spec}"),
                    format!("handle_us.figure.{spec}"),
                ));
            }
            for class in [Class::Runs, Class::MixRuns, Class::Healthz] {
                kinds.push((
                    format!("client_us.{}", class.name()),
                    format!("handle_us.{}", class.name()),
                ));
            }
            let (mut layers, mut client) = (0.0, 0.0);
            for (client_key, handle_key) in kinds {
                let count = c.all(&client_key).len() as f64;
                layers += count * (med("http.parse_us") + med(&handle_key));
                client += count * med(&client_key);
            }
            (layers, client)
        }
    };
    if wall > 0.0 {
        layers / wall
    } else {
        0.0
    }
}

/// Counts that must repeat exactly across the repetitions of one run:
/// every simulated count, the engine's job plan and the replayed
/// prefetcher requests, plus each sweep's rendered CSV.
pub fn check_repeats(c: &mut Collected) {
    let deterministic = |key: &str| {
        key.starts_with("hierarchy.")
            || key.starts_with("system.cycles_")
            || key.starts_with("prefetcher.requests.")
            || key == "engine.jobs"
            || key == "engine.useful_ratio"
    };
    let mut mismatches = Vec::new();
    for (key, samples) in &c.samples {
        if deterministic(key) && samples.iter().any(|v| *v != samples[0]) {
            mismatches.push(format!("{key} differs across repetitions: {samples:?}"));
        }
    }
    if let Some(digests) = c.texts.get("csv_digest") {
        if digests.iter().any(|d| *d != digests[0]) {
            mismatches.push(format!(
                "rendered CSV differs across repetitions: {digests:?}"
            ));
        }
    }
    let checked = c.samples.keys().filter(|k| deterministic(k)).count()
        + usize::from(c.texts.contains_key("csv_digest"));
    for _ in 0..checked.saturating_sub(mismatches.len()) {
        c.check(true, String::new);
    }
    for m in mismatches {
        c.check(false, || m);
    }
}

/// Prints every value by name with its unit, plus failures and digests.
pub fn print_summary(c: &Collected, values: &[Value]) {
    for v in values {
        println!("metric {} = {} {} {}", v.name, v.value, v.unit, v.note);
    }
    for (key, texts) in &c.texts {
        println!("{key} {}", texts.first().map_or("", String::as_str));
    }
    for key in ["check_ms", "prefill_s"] {
        if let Some(s) = c.samples.get(key) {
            println!("{key} {s:?}");
        }
    }
    for f in &c.failures {
        println!("failed: {f}");
    }
}

/// The final result line.
pub fn result_json(c: &Collected, values: &[Value]) -> Result<String, String> {
    let mut metrics = Vec::new();
    for v in values {
        if !v.value.is_finite() {
            return Err(format!("{} is not finite", v.name));
        }
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            crate::host::quote(&v.name),
            v.value,
            crate::host::quote(v.unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        c.failures.is_empty(),
        c.attempted.max(1),
        c.failures.len(),
        metrics.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, benchmark_json());
    }

    #[test]
    fn catalogue_respects_the_naming_limits() {
        let mut names = Vec::new();
        for d in end_to_end().into_iter().chain(per_layer()) {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d
                .name
                .chars()
                .all(|ch| ch.is_ascii_alphanumeric() || "_.-".contains(ch)));
            assert!(d.bound.is_none_or(|b| b <= 0.25));
            names.push(d.name);
        }
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "metric names are unique");
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn negative_overhead_is_reported_as_measured() {
        let mut c = Collected::default();
        c.absorb(
            "s system.run_ms.gaze 100\ns system.run_ms.none 90\ns prefetcher.replay_ms.gaze 15\n",
        )
        .expect("valid");
        let values = per_layer_values(Workload::SimSingle, &c);
        let overhead = values
            .iter()
            .find(|v| v.name == "system.overhead_ms.gaze")
            .expect("listed");
        assert_eq!(overhead.value, -5.0);
    }

    #[test]
    fn layer_share_sets_separately_timed_layers_against_wall() {
        let mut c = Collected::default();
        c.absorb(
            "s workloads.build_ms 10\ns engine.plan_ms 5\ns engine.job_ms 3000\n\
             s engine.render_ms 5\ns store.flush_ms 30\ns traced_wall_s 2\n",
        )
        .expect("valid");
        // Workers busy 3000 ms of 2 x ~2000 ms: (10 + 5 + 1500 + 5 + 30) / 2000.
        assert!((layer_share(Workload::SimSingle, &c) - 0.775).abs() < 1e-12);
        let mut c = Collected::default();
        c.absorb(&format!(
            "s figure_us.{SINGLE_SPEC} 1000\ns figure_us.{SINGLE_SPEC} 1000\n\
             s handle_us.figure.{SINGLE_SPEC} 890\ns http.parse_us 10\n\
             s client_us.healthz 100\ns handle_us.healthz 40\n",
        ))
        .expect("valid");
        // (2 x 900 + 50) / (2 x 1000 + 100): the rest is transport.
        let share = layer_share(Workload::ServeWarm, &c);
        assert!((share - 1850.0 / 2100.0).abs() < 1e-12);
    }

    #[test]
    fn repeat_check_flags_differing_counts_and_digests() {
        let mut c = Collected::default();
        c.absorb(
            "s hierarchy.pf_issued 5\ns hierarchy.pf_issued 5\nt csv_digest aa\nt csv_digest aa\n",
        )
        .expect("valid");
        check_repeats(&mut c);
        assert!(c.failures.is_empty());
        let mut c = Collected::default();
        c.absorb("s engine.jobs 90\ns engine.jobs 91\nt csv_digest aa\nt csv_digest ab\n")
            .expect("valid");
        check_repeats(&mut c);
        assert_eq!(c.failures.len(), 2);
    }
}
