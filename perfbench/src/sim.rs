//! The simulation side of the benchmark: the golden-figure output check,
//! one `sim-*` sweep, and the per-prefetcher layer split.
//!
//! Each function runs inside its own child process, so the process-wide
//! baseline memoization and results store start empty every time.

use std::path::{Path, PathBuf};
use std::time::Instant;

use gaze_sim::experiments::ExperimentScale;
use gaze_sim::runner::{multi_level_name, records_for, simulate_core, simulated_instructions};
use gaze_sim::spec::plan::{self, Job};
use gaze_sim::spec::{self, builtin, render, text};
use gaze_sim::{make_prefetcher, results::StoreHandle};
use prefetch_common::access::{AccessKind, DemandAccess};
use prefetch_common::sink::RequestSink;
use sim_core::stats::CoreStats;
use sim_core::trace::{source_fingerprint, Trace, TraceSource};
use workloads::build_workload;

use crate::host::THREADS;
use crate::report::Emitter;
use crate::seed::Sweep;

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Regenerates fig06 and fig15 at test scale by fresh simulation, with
/// no results store, and compares them byte for byte with the committed
/// fixtures under `root/tests/fixtures`.
pub fn check(root: &Path, out: &Emitter) {
    gaze_sim::results::configure(None).expect("deactivating the store cannot fail");
    let scale = ExperimentScale::named("test").expect("test scale exists");
    for figure in ["fig06", "fig15"] {
        let started = Instant::now();
        let spec = builtin::builtin_spec(figure).expect("built-in figure");
        let csv: String = spec::run_spec(&spec, &scale)
            .iter()
            .map(|t| t.to_csv())
            .collect();
        out.sample("check_ms", ms(started));
        let fixture = root.join(format!("tests/fixtures/{figure}.csv"));
        let expected = std::fs::read_to_string(&fixture).unwrap_or_default();
        out.check(csv == expected, || {
            format!("{figure} at test scale differs from {}", fixture.display())
        });
    }
}

/// Process-wide counters read around a sweep.
#[derive(Debug, Clone, Copy)]
struct Counters {
    instructions: u64,
    stepped: u64,
    skipped: u64,
    job_us: u64,
    flush_us: u64,
    preads: u64,
    decoded: u64,
    hits: u64,
    misses: u64,
}

impl Counters {
    fn read(store: &StoreHandle) -> Counters {
        let r = gaze_obs::metrics::registry();
        Counters {
            instructions: simulated_instructions(),
            stepped: r
                .counter(
                    "gaze_sim_cycles_stepped_total",
                    "Simulator cycles advanced one at a time",
                )
                .get(),
            skipped: r
                .counter(
                    "gaze_sim_cycles_skipped_total",
                    "Simulator cycles fast-forwarded by event-driven skipping",
                )
                .get(),
            job_us: r
                .histogram(
                    "gaze_sim_job_duration_us",
                    "Wall time of one engine job (store hit or fresh simulation), in microseconds",
                )
                .sum(),
            flush_us: r
                .histogram(
                    "gzr_flush_duration_us",
                    "Wall time of flushes that persisted records, in microseconds",
                )
                .sum(),
            preads: r
                .counter("gzr_preads_total", "Positioned single-record segment reads")
                .get(),
            decoded: store.with_store(|s| s.records_decoded()),
            hits: store.hits(),
            misses: store.misses(),
        }
    }
}

/// Simulated counts summed over every planned job's `CoreStats`.
#[derive(Debug, Default)]
struct Hierarchy {
    requested: u64,
    issued: u64,
    dropped_redundant: u64,
    dropped_queue_full: u64,
    dropped_mshr_full: u64,
    late: u64,
    demand_accesses: u64,
    llc_demand_misses: u64,
}

impl Hierarchy {
    fn add(&mut self, s: &CoreStats) {
        self.requested += s.prefetch.requested;
        self.issued += s.prefetch.issued;
        self.dropped_redundant += s.prefetch.dropped_redundant;
        self.dropped_queue_full += s.prefetch.dropped_queue_full;
        self.dropped_mshr_full += s.prefetch.dropped_mshr_full;
        self.late += s.prefetch.late;
        self.demand_accesses += s.l1d.demand_accesses;
        self.llc_demand_misses += s.llc.demand_misses;
    }

    fn emit(&self, out: &Emitter) {
        let fields = [
            ("pf_requested", self.requested),
            ("pf_issued", self.issued),
            ("pf_dropped_redundant", self.dropped_redundant),
            ("pf_dropped_queue_full", self.dropped_queue_full),
            ("pf_dropped_mshr_full", self.dropped_mshr_full),
            ("pf_late", self.late),
            ("demand_accesses", self.demand_accesses),
            ("llc_demand_misses", self.llc_demand_misses),
        ];
        for (name, value) in fields {
            out.sample(&format!("hierarchy.{name}"), value as f64);
        }
        let ratio = if self.requested == 0 {
            0.0
        } else {
            self.issued as f64 / self.requested as f64
        };
        out.sample("hierarchy.issue_ratio", ratio);
    }
}

/// Set-ups timed per repetition; each is a `setup_s` sample.
const SETUPS: usize = 5;

/// One `sim-*` repetition: set up what the program sets up before a sweep
/// (parse the spec, open the empty results store), then run one sweep
/// plan → execute → render → flush.
/// The results store is the one `GAZE_RESULTS_DIR` names, and must start
/// empty. The set-up is timed [`SETUPS`] times; all but the last open an
/// empty sibling directory that is removed again, the last opens the
/// store the sweep writes to.
pub fn sweep(kind: Sweep, seed: u64, traced: bool, out: &Emitter) {
    let store_dir = PathBuf::from(
        std::env::var_os("GAZE_RESULTS_DIR").expect("the parent sets GAZE_RESULTS_DIR"),
    );
    let spec_text = kind.spec_text(seed);
    let mut spec = None;
    let mut open_ms = 0.0;
    let mut scratch = Vec::new();
    for i in 0..SETUPS {
        let dir = if i + 1 == SETUPS {
            store_dir.clone()
        } else {
            store_dir.with_extension(format!("setup{i}"))
        };
        let started = Instant::now();
        spec = Some(text::parse(&spec_text).expect("generated specs are valid"));
        let open_started = Instant::now();
        gaze_sim::results::configure(Some(&dir)).expect("an empty store opens");
        open_ms = ms(open_started);
        out.sample("setup_s", started.elapsed().as_secs_f64());
        scratch.push(dir);
    }
    scratch.pop();
    for dir in scratch {
        let _ = std::fs::remove_dir_all(dir);
    }
    let spec = spec.expect("at least one set-up");
    let scale = ExperimentScale::quick();
    let store = gaze_sim::results::active_store().expect("configured above");

    let before = traced.then(|| Counters::read(&store));
    let sweep_started = Instant::now();
    let plan_started = Instant::now();
    let job_plan = spec::plan_specs(&[&spec], &scale);
    let plan_ms = ms(plan_started);
    let execute_started = Instant::now();
    let results = plan::execute(&job_plan, &scale);
    let execute_ms = ms(execute_started);
    let render_started = Instant::now();
    let csv: String = render::render_spec(&spec, &scale, &results)
        .iter()
        .map(|t| t.to_csv())
        .collect();
    let render_ms = ms(render_started);
    let flush_started = Instant::now();
    let flushed = store.flush();
    let flush_ms = ms(flush_started);
    let wall_s = sweep_started.elapsed().as_secs_f64();
    out.check(flushed.is_ok(), || {
        format!("store flush failed: {flushed:?}")
    });
    out.sample("wall_s", wall_s);
    out.sample("jobs", job_plan.len() as f64);
    out.text("csv_digest", &crate::stats::digest(csv.as_bytes()));
    out.check(
        !csv.is_empty() && store.misses() == job_plan.len() as u64,
        || {
            format!(
                "sweep of {} jobs simulated {} (the store must start empty)",
                job_plan.len(),
                store.misses()
            )
        },
    );

    if let Some(before) = before {
        let after = Counters::read(&store);
        out.sample("store.open_ms", open_ms);
        out.sample("engine.plan_ms", plan_ms);
        out.sample("engine.execute_ms", execute_ms);
        out.sample("engine.render_ms", render_ms);
        // The engine flushes inside execute; the flush histogram's exact
        // sum attributes that time, the explicit flush above adds its own.
        let flush_total_ms = (after.flush_us - before.flush_us) as f64 / 1e3 + flush_ms;
        out.sample("store.flush_ms", flush_total_ms);
        // The jobs' summed run time, for `trace.layer_share`.
        out.sample("engine.job_ms", (after.job_us - before.job_us) as f64 / 1e3);
        out.sample("traced_wall_s", wall_s);
        emit_engine(&job_plan, &results, &before, &after, execute_ms, out);
        out.sample(
            "store.records_decoded",
            (after.decoded - before.decoded) as f64,
        );
        out.sample("store.preads", (after.preads - before.preads) as f64);
        out.sample("store.hits", (after.hits - before.hits) as f64);
        out.sample("store.misses", (after.misses - before.misses) as f64);
        out.sample("store.get_us_p50", store_get_p50(&store));
    } else {
        out.sample("untraced_wall_s", wall_s);
    }

    out.sample("process.peak_rss_mb", crate::host::peak_rss_mb());
}

/// Engine-level counts and ratios of one traced sweep.
fn emit_engine(
    job_plan: &plan::JobPlan,
    results: &plan::JobResults,
    before: &Counters,
    after: &Counters,
    execute_ms: f64,
    out: &Emitter,
) {
    let mut hierarchy = Hierarchy::default();
    let mut useful: u64 = 0;
    let mut baselines: Vec<(String, u64)> = Vec::new();
    for job in job_plan.jobs() {
        match job {
            Job::Single {
                workload,
                l1,
                l2,
                params,
            } => {
                let run = results.single(workload, &multi_level_name(l1, l2.as_deref()), params);
                hierarchy.add(&run.stats);
                let budget = params.warmup + params.measured;
                useful += budget;
                let key = (workload.clone(), params.fingerprint());
                if !baselines.contains(&key) {
                    baselines.push(key);
                    useful += budget;
                }
            }
            Job::Mix {
                workloads,
                prefetcher,
                params,
            } => {
                let report = results.mix(workloads, prefetcher, params);
                for core in &report.cores {
                    hierarchy.add(core);
                }
                useful += (params.warmup + params.measured) * workloads.len() as u64;
            }
        }
    }
    hierarchy.emit(out);
    let simulated = after.instructions - before.instructions;
    let stepped = after.stepped - before.stepped;
    let job_us = after.job_us - before.job_us;
    out.sample("engine.jobs", job_plan.len() as f64);
    out.sample("engine.simulated_minstr", simulated as f64 / 1e6);
    out.sample(
        "engine.useful_ratio",
        if simulated == 0 {
            0.0
        } else {
            useful as f64 / simulated as f64
        },
    );
    out.sample(
        "engine.worker_utilization",
        job_us as f64 / 1e3 / (execute_ms * THREADS as f64),
    );
    out.sample("system.cycles_stepped", stepped as f64);
    out.sample(
        "system.cycles_skipped",
        (after.skipped - before.skipped) as f64,
    );
    out.sample(
        "system.ns_per_stepped_cycle",
        if stepped == 0 {
            0.0
        } else {
            job_us as f64 * 1e3 / stepped as f64
        },
    );
}

/// Median time of a point lookup of every key in the store, in µs.
pub fn store_get_p50(store: &StoreHandle) -> f64 {
    store.with_store(|s| {
        let mut samples = Vec::new();
        for rec in s.records() {
            let t = Instant::now();
            let hit = s.get(
                rec.trace_fingerprint,
                rec.params_fingerprint,
                &rec.prefetcher,
            );
            samples.push(t.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(hit);
        }
        for rec in s.mix_records() {
            let t = Instant::now();
            let hit = s.get_mix(rec.mix_fingerprint, rec.params_fingerprint, &rec.prefetcher);
            samples.push(t.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(hit);
        }
        if samples.is_empty() {
            0.0
        } else {
            crate::stats::median(&samples)
        }
    })
}

/// The layers of a `sim-*` sweep timed on their own: building and
/// fingerprinting the sweep's traces (`workloads.build_ms`,
/// `trace.fingerprint_ms`; inside a sweep the build is part of
/// `engine.execute_ms`), serial single-core runs of every prefetcher (and
/// `none`) over them, and an isolated replay of each prefetcher with no
/// hierarchy behind it: `system.run_ms.<pf>`, `prefetcher.replay_ms.<pf>`
/// and `prefetcher.requests.<pf>`.
pub fn layers(kind: Sweep, seed: u64, out: &Emitter) {
    let scale = ExperimentScale::quick();
    let params = scale.params;
    let records = records_for(&params);
    let started = Instant::now();
    let traces: Vec<Trace> = kind
        .workloads(seed)
        .iter()
        .map(|w| build_workload(w, records))
        .collect();
    out.sample("workloads.build_ms", ms(started));
    let started = Instant::now();
    for t in &traces {
        std::hint::black_box(source_fingerprint(t as &dyn TraceSource));
    }
    out.sample("trace.fingerprint_ms", ms(started));
    let budget = params.warmup + params.measured;
    for pf in kind.prefetchers().iter().copied().chain(["none"]) {
        let started = Instant::now();
        for trace in &traces {
            std::hint::black_box(simulate_core(trace, make_prefetcher(pf), None, &params));
        }
        out.sample(&format!("system.run_ms.{pf}"), ms(started));
    }
    for pf in kind.prefetchers() {
        let started = Instant::now();
        let requests: u64 = traces.iter().map(|t| replay(t, pf, budget)).sum();
        out.sample(&format!("prefetcher.replay_ms.{pf}"), ms(started));
        out.sample(&format!("prefetcher.requests.{pf}"), requests as f64);
    }
}

/// Feeds `trace` straight into a fresh `pf` until `budget` instructions
/// have been replayed: one `on_access` (reported as a miss) and one
/// `tick` per record. Returns the number of requests emitted.
fn replay(trace: &Trace, pf: &str, budget: u64) -> u64 {
    let mut prefetcher = make_prefetcher(pf);
    let mut sink = RequestSink::new();
    let mut reader = trace.cursor();
    let (mut instructions, mut requests) = (0u64, 0u64);
    while instructions < budget {
        let rec = reader.next_record();
        instructions += rec.instruction_count();
        let access = DemandAccess {
            pc: rec.pc,
            addr: rec.addr,
            kind: if rec.is_store {
                AccessKind::Store
            } else {
                AccessKind::Load
            },
            instr_id: instructions,
        };
        prefetcher.on_access(&access, false, &mut sink);
        prefetcher.tick(&mut sink);
        requests += sink.len() as u64;
        sink.clear();
    }
    requests
}
