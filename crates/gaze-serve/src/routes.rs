//! Route handlers: `/healthz`, `/metrics`, `/runs`, `/specs`,
//! `/experiments` and `/jobs`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;

use gaze_obs::json::{json_array, json_f64, json_string, JsonObject};
use gaze_sim::experiments::ExperimentScale;
use gaze_sim::results::StoreHandle;
use gaze_sim::spec::{builtin, run_spec, text, ExperimentSpec};
use results_store::format::GZR_MAX_CORES;
use results_store::{MixRecord, Query, ResultsStore};

use crate::http::{Request, Response};
use crate::jobs::{panic_message, JobInfo, JobManager, JobResult, JobStatus, SubmitOutcome};

/// Shared state of the service: the open results store and the scale
/// specs run at unless the request overrides it.
#[derive(Debug)]
pub struct AppState {
    /// The store every query reads (and spec execution writes through).
    pub store: Arc<StoreHandle>,
    /// Default scale name for `/experiments` requests (`test`, `quick`,
    /// `bench`/`full`, `paper`).
    pub default_scale: String,
    /// Directory of custom `.spec` files served by
    /// `/experiments?spec=<name>` alongside the built-ins (`--spec-dir`).
    pub spec_dir: Option<PathBuf>,
    /// The async sweep-job executor behind `POST /experiments` and
    /// `/jobs`.
    pub jobs: JobManager,
    /// When this process bound its listener (for `/healthz` uptime).
    pub started: std::time::Instant,
}

/// Dispatches one parsed request to its handler. Every route answers
/// `GET`; `/experiments` also takes `POST`, which submits a job.
///
/// Every request first checks the store directory for segments flushed
/// by *other* processes since the store was opened and reloads if so
/// (reopen-on-stale): a server started before an experiment sweep sees
/// the sweep's rows without a restart. A failed check serves the
/// (possibly stale) in-memory data rather than erroring.
pub fn handle(state: &AppState, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", _) | ("POST", "/experiments") => {}
        _ => return Response::error(405, "only GET is supported (plus POST /experiments)"),
    }
    // Failpoint for the pool-survival test: a panicking handler must
    // cost one 500 response, not a worker thread.
    if let Err(e) = results_store::fault::check_io("serve.handle") {
        return Response::error(500, &e.to_string());
    }
    if let Err(e) = state.store.reload_if_stale() {
        gaze_obs::log::warn(
            "gaze-serve",
            "stale-store reload failed; serving in-memory data",
            &[("error", &e)],
        );
    }
    match req.path.as_str() {
        "/healthz" => healthz(state),
        "/metrics" => metrics(state),
        "/runs" => runs(state, req),
        "/specs" => specs(state),
        "/experiments" => experiments(state, req),
        "/jobs" => jobs_list(state),
        path => match path.strip_prefix("/jobs/") {
            Some(rest) => job_detail(state, rest),
            None => Response::error(404, "unknown path"),
        },
    }
}

/// `GET /specs` — every spec this server can run: the built-in figure
/// specs plus any `.spec` files in the configured spec directory.
fn specs(state: &AppState) -> Response {
    let mut entries: Vec<String> = builtin::builtin_names()
        .into_iter()
        .map(|name| {
            let spec = builtin::builtin_spec(name).expect("registered builtin");
            JsonObject::new()
                .string("name", name)
                .string("source", "builtin")
                .u64("tables", spec.tables.len() as u64)
                .raw(
                    "titles",
                    json_array(spec.tables.iter().map(|t| json_string(&t.title))),
                )
                .build()
        })
        .collect();
    if let Some(dir) = &state.spec_dir {
        let mut files: Vec<String> = match std::fs::read_dir(dir) {
            Ok(rd) => rd
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("spec"))
                .filter_map(|p| p.file_stem()?.to_str().map(str::to_string))
                .collect(),
            Err(e) => {
                return Response::error(500, &format!("cannot list spec dir: {e}"));
            }
        };
        files.sort();
        for name in files {
            // Built-ins win name resolution in /experiments; a file that
            // collides is visibly marked rather than silently unservable.
            let mut obj = JsonObject::new()
                .string("name", &name)
                .string("source", "file");
            if builtin::builtin_spec(&name).is_some() {
                obj = obj.string("shadowed_by", "builtin");
            }
            entries.push(obj.build());
        }
    }
    Response::json(json_array(entries) + "\n")
}

/// Resolves the `spec=` parameter of `/experiments`: built-in specs
/// first, then `<spec-dir>/<name>.spec`. The name must be a plain file
/// stem — path separators and traversal are rejected.
fn resolve_spec(state: &AppState, name: &str) -> Result<ExperimentSpec, Response> {
    if let Some(spec) = builtin::builtin_spec(name) {
        return Ok(spec);
    }
    if name.is_empty()
        || name.contains('/')
        || name.contains('\\')
        || name.contains("..")
        || name.starts_with('.')
    {
        return Err(Response::error(400, "spec must be a plain spec name"));
    }
    let Some(dir) = &state.spec_dir else {
        return Err(Response::error(
            404,
            &format!(
                "unknown spec '{name}' (no --spec-dir configured; built-ins: {})",
                builtin::builtin_names().join(", ")
            ),
        ));
    };
    let path = dir.join(format!("{name}.spec"));
    let content = match std::fs::read_to_string(&path) {
        Ok(c) => c,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(Response::error(404, &format!("unknown spec '{name}'")));
        }
        Err(e) => {
            return Err(Response::error(
                500,
                &format!("cannot read spec '{name}': {e}"),
            ));
        }
    };
    text::parse(&content).map_err(|e| Response::error(400, &format!("spec '{name}': {e}")))
}

/// `GET /experiments?spec=<name>[&scale=...]` — runs an arbitrary spec
/// (built-in or from the spec directory) through the spec pipeline and
/// returns its CSV. With a warm store this serves without simulating;
/// missing rows are simulated once and persisted write-through.
///
/// `POST /experiments?...` *submits* the same work as a background job
/// instead: `202 Accepted` + a job id to poll at `/jobs/<id>`, `429` +
/// `Retry-After` when the job queue is full, `503` while shutting down.
/// Identical in-flight submissions dedup onto one job.
fn experiments(state: &AppState, req: &Request) -> Response {
    let Some(name) = req.query.get("spec") else {
        return Response::error(400, "missing spec=<name> parameter");
    };
    let spec = match resolve_spec(state, name) {
        Ok(spec) => spec,
        Err(resp) => return resp,
    };
    let scale_name = req
        .query
        .get("scale")
        .map(String::as_str)
        .unwrap_or(&state.default_scale);
    let Some(scale) = ExperimentScale::named(scale_name) else {
        return Response::error(400, "scale must be test, quick, bench/full or paper");
    };
    if req.method == "POST" {
        return submit_job(state, spec, name, scale, scale_name);
    }
    // A panic inside spec execution (misconfigured future spec, bug in a
    // prefetcher model) must cost this request a 500, not the worker
    // thread — and no store lock is held across this call, so a panic
    // cannot poison it.
    match catch_unwind(AssertUnwindSafe(|| {
        run_spec(&spec, &scale).iter().map(|t| t.to_csv()).collect()
    })) {
        Ok(csv) => Response::csv(csv),
        Err(payload) => Response::error(
            500,
            &format!(
                "spec execution panicked: {}",
                panic_message(payload.as_ref())
            ),
        ),
    }
}

/// Admits `spec` to the job queue and maps the outcome to HTTP.
fn submit_job(
    state: &AppState,
    spec: ExperimentSpec,
    name: &str,
    scale: ExperimentScale,
    scale_name: &str,
) -> Response {
    match state.jobs.submit(spec, name, scale, scale_name) {
        SubmitOutcome::Accepted { id, deduped } => {
            let body = JsonObject::new()
                .string("id", &id)
                .string("status", "accepted")
                .raw("deduped", deduped.to_string())
                .string("poll", &format!("/jobs/{id}"))
                .build();
            Response::json(body + "\n").with_status(202)
        }
        SubmitOutcome::QueueFull { depth } => Response::error(
            429,
            &format!("job queue is full ({depth} queued); retry later"),
        )
        .with_header("Retry-After", crate::jobs::RETRY_AFTER_SECONDS.to_string()),
        SubmitOutcome::ShuttingDown => {
            Response::error(503, "server is shutting down; not accepting jobs")
        }
    }
}

/// One job snapshot as a JSON object.
fn job_json(info: &JobInfo) -> String {
    let mut obj = JsonObject::new()
        .string("id", &info.id)
        .string("spec", &info.spec_name)
        .string("scale", &info.scale_name)
        .string("status", info.status.phase());
    match &info.status {
        JobStatus::Running { done, total } => {
            obj = obj.u64("done", *done as u64).u64("total", *total as u64);
        }
        JobStatus::Done { total } => {
            obj = obj
                .u64("total", *total as u64)
                .string("result", &format!("/jobs/{}/result", info.id));
        }
        JobStatus::Failed { error } => obj = obj.string("error", error),
        JobStatus::Queued => {}
    }
    obj.build()
}

/// `GET /jobs` — every job submitted to this process, in order.
fn jobs_list(state: &AppState) -> Response {
    let body = json_array(state.jobs.list().iter().map(job_json));
    Response::json(body + "\n")
}

/// `GET /jobs/<id>` — one job's status; `GET /jobs/<id>/result` — a
/// finished job's CSV (`409` while unfinished, `500` if it failed).
fn job_detail(state: &AppState, rest: &str) -> Response {
    if let Some(id) = rest.strip_suffix("/result") {
        return match state.jobs.result(id) {
            None => Response::error(404, "unknown job id"),
            Some(JobResult::Ready(csv)) => Response::csv(csv),
            Some(JobResult::Failed(error)) => Response::error(500, &format!("job failed: {error}")),
            Some(JobResult::NotFinished) => {
                Response::error(409, "job has not finished; poll its status")
            }
        };
    }
    match state.jobs.get(rest) {
        Some(info) => Response::json(job_json(&info) + "\n"),
        None => Response::error(404, "unknown job id"),
    }
}

fn healthz(state: &AppState) -> Response {
    let (rows, mix_rows, segments, pending, decoded, read_errors) = state.store.with_store(|s| {
        (
            s.len() as u64,
            s.mix_len() as u64,
            s.segment_count() as u64,
            s.pending_len() as u64,
            s.records_decoded(),
            s.read_errors(),
        )
    });
    let body = JsonObject::new()
        .string("status", "ok")
        .u64("model_epoch", sim_core::params::MODEL_EPOCH)
        .u64("rows", rows)
        .u64("mix_rows", mix_rows)
        .u64("segments", segments)
        .u64("pending", pending)
        .u64("hits", state.store.hits())
        .u64("misses", state.store.misses())
        .u64("records_decoded", decoded)
        .u64("read_errors", read_errors)
        .u64("jobs_queued", state.jobs.queued_len() as u64)
        .u64("uptime_seconds", state.started.elapsed().as_secs())
        .build();
    Response::json(body + "\n")
}

/// `GET /metrics` — every registered series in Prometheus text
/// exposition format. The store-shape gauges are refreshed from a live
/// snapshot at scrape time; everything else accumulates in-place on the
/// hot paths (see `docs/OBSERVABILITY.md` for the catalog).
fn metrics(state: &AppState) -> Response {
    let (rows, mix_rows, segments, pending) = state.store.with_store(|s| {
        (
            s.len() as u64,
            s.mix_len() as u64,
            s.segment_count() as u64,
            s.pending_len() as u64,
        )
    });
    crate::obs::set_store_shape(rows, mix_rows, segments, pending);
    Response {
        status: 200,
        content_type: "text/plain; version=0.0.4; charset=utf-8",
        headers: Vec::new(),
        body: gaze_obs::metrics::registry().render().into_bytes(),
    }
}

/// Parses a 64-bit fingerprint: 1–16 hex digits after at most one `0x`.
/// Signs and repeated prefixes are rejected (`from_str_radix` alone
/// would take a leading `+`).
fn parse_hex(value: &str) -> Option<u64> {
    let digits = value.strip_prefix("0x").unwrap_or(value);
    if digits.is_empty() || digits.len() > 16 || !digits.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(digits, 16).ok()
}

/// `/runs` — the store's rows, each paired with the `"none"` row of its
/// trace or mix (if stored) so the response carries speedups without a
/// second client query. `kind=single` (the default) lists single-core
/// rows, filtered by `workload=` and `trace=` (hex trace fingerprint);
/// `kind=mix` lists rows of two or more cores, filtered by `label=`,
/// `mix=` (hex mix fingerprint) and `cores=N`. Both take `prefetcher=`,
/// `scale=` (name or hex params fingerprint) and `limit=N`.
fn runs(state: &AppState, req: &Request) -> Response {
    let (single, label_key, fingerprint_key) = match req.query.get("kind").map(String::as_str) {
        None | Some("single") => (true, "workload", "trace"),
        Some("mix") => (false, "label", "mix"),
        Some(_) => return Response::error(400, "kind must be single or mix"),
    };
    let mut query = Query {
        label: req.query.get(label_key).cloned(),
        prefetcher: req.query.get("prefetcher").cloned(),
        cores: if single { 1..=1 } else { 2..=GZR_MAX_CORES },
        ..Query::default()
    };
    // Rows are keyed on `params.with_cores(n)`, whose fingerprint differs
    // per core count — so a *named* scale matches its params at every
    // core count the listing covers, while a raw hex fingerprint (already
    // core-count specific) matches exactly.
    let mut scale_fps: Option<Vec<u64>> = None;
    if let Some(scale) = req.query.get("scale") {
        if let Some(named) = ExperimentScale::named(scale) {
            scale_fps = Some(if single {
                vec![named.params.fingerprint()]
            } else {
                query
                    .cores
                    .clone()
                    .map(|n| named.params.with_cores(n).fingerprint())
                    .collect()
            });
        } else if let Some(fp) = parse_hex(scale) {
            query.params_fingerprint = Some(fp);
        } else {
            return Response::error(400, "scale must be a known scale name or a hex fingerprint");
        }
    }
    if let Some(value) = req.query.get(fingerprint_key) {
        match parse_hex(value) {
            Some(fp) => query.fingerprint = Some(fp),
            None => {
                return Response::error(
                    400,
                    &format!("{fingerprint_key} must be a hex fingerprint"),
                )
            }
        }
    }
    if let (false, Some(cores)) = (single, req.query.get("cores")) {
        match cores.parse::<usize>() {
            Ok(n) => query.cores = n..=n,
            Err(_) => return Response::error(400, "cores must be a non-negative integer"),
        }
    }
    let mut limit = usize::MAX;
    if let Some(value) = req.query.get("limit") {
        match value.parse::<usize>() {
            Ok(n) => limit = n,
            Err(_) => return Response::error(400, "limit must be a non-negative integer"),
        }
    }
    // Serialize inside the lock from references.
    let body = state.store.with_store(|s| {
        let rows = s
            .query(&query)
            .into_iter()
            .filter(|rec| {
                scale_fps
                    .as_ref()
                    .is_none_or(|fps| fps.contains(&rec.params_fingerprint))
            })
            .take(limit);
        json_array(rows.map(|rec| {
            let base = baseline_of(s, &rec);
            if single {
                run_json(&rec, base.as_ref())
            } else {
                mix_json(&rec, base.as_ref())
            }
        }))
    });
    Response::json(body + "\n")
}

/// The stored `"none"` row of `rec`'s trace or mix, if any. Only rows of
/// `rec`'s core count are looked at, so a store written by external
/// tooling cannot pair rows whose core counts disagree (`speedup_over`
/// would panic and turn the listing into a `500`).
fn baseline_of(store: &ResultsStore, rec: &MixRecord) -> Option<MixRecord> {
    if rec.prefetcher == "none" {
        return Some(rec.clone());
    }
    let cores = rec.cores();
    store.lookup(
        rec.mix_fingerprint,
        rec.params_fingerprint,
        "none",
        cores..=cores,
    )
}

/// JSON for a metric that needs the baseline: `null` without one.
fn with_baseline(baseline: Option<&MixRecord>, metric: impl Fn(&MixRecord) -> f64) -> String {
    baseline.map_or_else(|| "null".to_string(), |base| json_f64(metric(base)))
}

/// One single-core row as a JSON object: identity, raw run sizes and
/// every projected metric; the baseline-relative ones (`baseline_ipc`,
/// `speedup`, `coverage`) are `null` when the `"none"` row is not
/// stored. Fingerprints are hex *strings* — they use all 64 bits, beyond
/// JSON's exact-integer range.
fn run_json(rec: &MixRecord, baseline: Option<&MixRecord>) -> String {
    let stats = &rec.report.cores[0];
    let base = |b: &MixRecord| b.report.cores[0];
    JsonObject::new()
        .string("workload", &rec.label)
        .string("prefetcher", &rec.prefetcher)
        .string(
            "trace_fingerprint",
            &format!("{:016x}", rec.mix_fingerprint),
        )
        .string(
            "params_fingerprint",
            &format!("{:016x}", rec.params_fingerprint),
        )
        .u64("instructions", stats.instructions)
        .u64("cycles", stats.cycles)
        .f64("ipc", stats.ipc())
        .raw("baseline_ipc", with_baseline(baseline, |b| base(b).ipc()))
        .raw(
            "speedup",
            with_baseline(baseline, |b| stats.speedup_over(&base(b))),
        )
        .f64("accuracy", stats.overall_accuracy())
        .raw(
            "coverage",
            with_baseline(baseline, |b| stats.coverage_over(&base(b))),
        )
        .f64("late_fraction", stats.late_fraction())
        .build()
}

/// One mix row as a JSON object: identity, core count, per-core IPCs and
/// — when the mix's `"none"` row is stored — the geometric-mean speedup
/// over it (`null` otherwise).
fn mix_json(rec: &MixRecord, baseline: Option<&MixRecord>) -> String {
    JsonObject::new()
        .string("label", &rec.label)
        .string("prefetcher", &rec.prefetcher)
        .string("mix_fingerprint", &format!("{:016x}", rec.mix_fingerprint))
        .string(
            "params_fingerprint",
            &format!("{:016x}", rec.params_fingerprint),
        )
        .u64("cores", rec.cores() as u64)
        .raw(
            "ipc",
            json_array(rec.report.cores.iter().map(|c| json_f64(c.ipc()))),
        )
        .f64("mean_ipc", rec.mean_ipc())
        .raw("speedup", with_baseline(baseline, |b| rec.speedup_over(b)))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::parse_target;
    use results_store::RunRecord;
    use sim_core::params::{Fnv1a, RunParams};
    use sim_core::stats::CoreStats;

    fn test_state(tag: &str) -> AppState {
        let dir = std::env::temp_dir().join(format!("gzr-routes-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(StoreHandle::open(&dir).expect("open store"));
        AppState {
            store,
            default_scale: "quick".to_string(),
            spec_dir: None,
            jobs: JobManager::new(1, 2),
            started: std::time::Instant::now(),
        }
    }

    fn get(state: &AppState, target: &str) -> Response {
        let (path, query) = parse_target(target);
        handle(
            state,
            &Request {
                method: "GET".to_string(),
                path,
                query,
            },
        )
    }

    fn fnv(label: &str) -> u64 {
        let mut h = Fnv1a::new();
        for b in label.bytes() {
            h.mix(u64::from(b));
        }
        h.finish()
    }

    fn seed_row(state: &AppState, workload: &str, prefetcher: &str, cycles: u64) {
        state.store.record(RunRecord {
            trace_fingerprint: fnv(workload),
            params_fingerprint: RunParams::quick().fingerprint(),
            workload: workload.to_string(),
            prefetcher: prefetcher.to_string(),
            stats: CoreStats {
                instructions: 1_000,
                cycles,
                ..CoreStats::default()
            },
        });
    }

    #[test]
    fn healthz_reports_store_shape() {
        let state = test_state("healthz");
        seed_row(&state, "bwaves_s", "gaze", 400);
        let resp = get(&state, "/healthz");
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).expect("utf8");
        assert!(body.contains("\"status\":\"ok\""));
        assert!(body.contains("\"rows\":1"));
        let epoch = format!("\"model_epoch\":{}", sim_core::params::MODEL_EPOCH);
        assert!(body.contains(&epoch), "{body}");
    }

    #[test]
    fn runs_filters_by_query_string() {
        let state = test_state("runs");
        seed_row(&state, "bwaves_s", "gaze", 400);
        seed_row(&state, "bwaves_s", "pmp", 400);
        seed_row(&state, "bwaves_s", "none", 800);
        seed_row(&state, "mcf_s", "gaze", 400);

        // Baseline rows are listed too; each row joins its trace's
        // "none" row, and a row without one has null baseline metrics.
        let all = String::from_utf8(get(&state, "/runs").body).expect("utf8");
        assert_eq!(all.matches("\"workload\"").count(), 4);
        assert_eq!(all.matches("\"speedup\":2.0").count(), 2, "{all}");
        assert_eq!(all.matches("\"speedup\":1.0").count(), 1, "{all}");
        assert_eq!(all.matches("\"speedup\":null").count(), 1, "{all}");
        assert!(all.contains("\"baseline_ipc\":1.25"), "{all}");

        let gaze = String::from_utf8(get(&state, "/runs?prefetcher=gaze").body).expect("utf8");
        assert_eq!(gaze.matches("\"workload\"").count(), 2);

        let one =
            String::from_utf8(get(&state, "/runs?workload=mcf_s&scale=quick").body).expect("utf8");
        assert_eq!(one.matches("\"workload\"").count(), 1);
        assert!(one.contains("\"coverage\":null"), "{one}");

        let wrong_scale = String::from_utf8(get(&state, "/runs?scale=bench").body).expect("utf8");
        assert_eq!(wrong_scale.trim(), "[]");

        assert_eq!(get(&state, "/runs?scale=bogus").status, 400);
        assert_eq!(get(&state, "/runs?limit=x").status, 400);

        // Fingerprints are 1-16 hex digits after at most one `0x`.
        assert_eq!(get(&state, "/runs?trace=0xff").status, 200);
        assert_eq!(get(&state, "/runs?trace=ffffffffffffffff").status, 200);
        for bad in ["%2Bff", "0x0x1f", "0x", "", "-1", "1ffffffffffffffff"] {
            assert_eq!(
                get(&state, &format!("/runs?trace={bad}")).status,
                400,
                "trace={bad}"
            );
        }
        assert_eq!(get(&state, "/runs?scale=%2B1").status, 400);
    }

    fn seed_mix_row(state: &AppState, label: &str, prefetcher: &str, cores: usize, cycles: u64) {
        let report = sim_core::stats::SimReport {
            cores: (0..cores)
                .map(|_| CoreStats {
                    instructions: 1_000,
                    cycles,
                    ..CoreStats::default()
                })
                .collect(),
        };
        let mix_fp = fnv(label) ^ cores as u64;
        state.store.record(MixRecord {
            mix_fingerprint: mix_fp,
            params_fingerprint: RunParams::quick().with_cores(cores).fingerprint(),
            prefetcher: prefetcher.to_string(),
            label: label.to_string(),
            report,
        });
    }

    #[test]
    fn mix_runs_filter_and_carry_speedup() {
        let state = test_state("mixruns");
        seed_mix_row(&state, "a+b", "gaze", 2, 400);
        seed_mix_row(&state, "a+b", "none", 2, 800);
        seed_mix_row(&state, "a+b+c+d", "gaze", 4, 500);

        let all = String::from_utf8(get(&state, "/runs?kind=mix").body).expect("utf8");
        assert_eq!(all.matches("\"label\"").count(), 3);
        // The 2-core gaze row pairs with its stored "none" baseline: 2x.
        assert!(all.contains("\"speedup\":2.0"), "{all}");
        // The 4-core row has no baseline row: speedup is null.
        assert!(all.contains("\"speedup\":null"), "{all}");

        let four = String::from_utf8(get(&state, "/runs?kind=mix&cores=4").body).expect("utf8");
        assert_eq!(four.matches("\"label\"").count(), 1);
        assert!(four.contains("\"cores\":4"), "{four}");
        assert!(four.contains("\"ipc\":["), "{four}");

        let labelled =
            String::from_utf8(get(&state, "/runs?kind=mix&label=a%2Bb&prefetcher=gaze").body)
                .expect("utf8");
        assert_eq!(labelled.matches("\"label\"").count(), 1);

        // A *named* scale matches mix rows at every core count (their
        // keys fingerprint params.with_cores(n)); the wrong name matches
        // nothing; a raw hex fingerprint matches its exact core count.
        let named = String::from_utf8(get(&state, "/runs?kind=mix&scale=quick").body).expect("u8");
        assert_eq!(named.matches("\"label\"").count(), 3);
        let wrong = String::from_utf8(get(&state, "/runs?kind=mix&scale=bench").body).expect("u8");
        assert_eq!(wrong.trim(), "[]");
        let fp = RunParams::quick().with_cores(4).fingerprint();
        let exact = String::from_utf8(get(&state, &format!("/runs?kind=mix&scale={fp:016x}")).body)
            .expect("utf8");
        assert_eq!(exact.matches("\"label\"").count(), 1);
        let limited =
            String::from_utf8(get(&state, "/runs?kind=mix&scale=quick&limit=2").body).expect("u8");
        assert_eq!(limited.matches("\"label\"").count(), 2);

        // Single-core rows and mix rows are separate listings: a 1-core
        // row is not a mix.
        let single = String::from_utf8(get(&state, "/runs").body).expect("utf8");
        assert_eq!(single.trim(), "[]");
        seed_row(&state, "a", "gaze", 400);
        let mixes = String::from_utf8(get(&state, "/runs?kind=mix").body).expect("utf8");
        assert_eq!(mixes.matches("\"label\"").count(), 3);

        assert_eq!(get(&state, "/runs?kind=bogus").status, 400);
        assert_eq!(get(&state, "/runs?kind=mix&cores=x").status, 400);
        assert_eq!(get(&state, "/runs?kind=mix&mix=zz").status, 400);

        // A 2-core "none" row under the 4-core row's key fields (only
        // possible in a store written by external tooling) is not its
        // baseline: the 4-core row keeps speedup null, with no panic.
        state.store.record(MixRecord {
            mix_fingerprint: fnv("a+b+c+d") ^ 4,
            params_fingerprint: RunParams::quick().with_cores(4).fingerprint(),
            prefetcher: "none".to_string(),
            label: "a+b+c+d".to_string(),
            report: sim_core::stats::SimReport {
                cores: vec![CoreStats::default(); 2],
            },
        });
        let resp = get(&state, "/runs?kind=mix&label=a%2Bb%2Bc%2Bd&prefetcher=gaze");
        assert_eq!(resp.status, 200);
        let mismatched = String::from_utf8(resp.body).expect("utf8");
        assert!(mismatched.contains("\"cores\":4"), "{mismatched}");
        assert!(mismatched.contains("\"speedup\":null"), "{mismatched}");
    }

    #[test]
    fn unknown_paths_and_methods_are_rejected() {
        let state = test_state("reject");
        assert_eq!(get(&state, "/nope").status, 404);
        // Figures are served by `/experiments?spec=`, job progress by
        // polling `/jobs/<id>`, compaction by `gzr-store compact`.
        assert_eq!(get(&state, "/figures/fig06").status, 404);
        assert_eq!(get(&state, "/jobs/job-1a2b-0/events").status, 404);
        assert_eq!(post(&state, "/admin/compact").status, 405);
        assert_eq!(post(&state, "/healthz").status, 405);
    }

    #[test]
    fn specs_endpoint_lists_builtins_and_spec_dir_files() {
        let mut state = test_state("specs");
        let body = String::from_utf8(get(&state, "/specs").body).expect("utf8");
        assert!(body.contains("\"name\":\"fig06\""), "{body}");
        assert!(body.contains("\"source\":\"builtin\""), "{body}");
        assert!(body.contains("Fig. 6 — single-core speedup"), "{body}");

        let dir = std::env::temp_dir().join(format!("gzr-specdir-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("spec dir");
        std::fs::write(
            dir.join("mini.spec"),
            "spec mini\n\ntable\ntitle Mini storage\nkind storage-list\nrow gaze\nend\n",
        )
        .expect("write spec");
        // A file named like a builtin is listed but marked shadowed —
        // /experiments would serve the builtin, never the file.
        std::fs::write(
            dir.join("fig06.spec"),
            "spec fig06\n\ntable\ntitle shadowed\nkind storage-list\nrow gaze\nend\n",
        )
        .expect("write spec");
        state.spec_dir = Some(dir.clone());
        let body = String::from_utf8(get(&state, "/specs").body).expect("utf8");
        assert!(body.contains("\"name\":\"mini\""), "{body}");
        assert!(body.contains("\"source\":\"file\""), "{body}");
        assert!(body.contains("\"shadowed_by\":\"builtin\""), "{body}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn experiments_endpoint_runs_specs_and_rejects_bad_requests() {
        let mut state = test_state("experiments");
        // A static builtin runs without touching the simulator.
        let resp = get(&state, "/experiments?spec=table4&scale=test");
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).expect("utf8");
        assert!(body.starts_with("prefetcher,KB"), "{body}");
        assert_eq!(body.lines().count(), 9);

        assert_eq!(get(&state, "/experiments").status, 400);
        assert_eq!(get(&state, "/experiments?spec=nope").status, 404);
        assert_eq!(
            get(&state, "/experiments?spec=table4&scale=bogus").status,
            400
        );
        assert_eq!(get(&state, "/experiments?spec=..%2Fetc").status, 400);

        // A spec-dir file resolves by stem; an invalid one is a loud 400.
        let dir = std::env::temp_dir().join(format!("gzr-expdir-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("spec dir");
        std::fs::write(
            dir.join("mini.spec"),
            "spec mini\n\ntable\ntitle Mini storage\nkind storage-list\nrow gaze\nend\n",
        )
        .expect("write spec");
        std::fs::write(dir.join("broken.spec"), "spec broken\n").expect("write spec");
        state.spec_dir = Some(dir.clone());
        let resp = get(&state, "/experiments?spec=mini");
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).expect("utf8");
        assert!(body.starts_with("prefetcher,KB"), "{body}");
        let resp = get(&state, "/experiments?spec=broken");
        assert_eq!(resp.status, 400);
        let body = String::from_utf8(resp.body).expect("utf8");
        assert!(body.contains("has no tables"), "{body}");
        assert_eq!(get(&state, "/experiments?spec=missing").status, 404);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn post(state: &AppState, target: &str) -> Response {
        let (path, query) = parse_target(target);
        handle(
            state,
            &Request {
                method: "POST".to_string(),
                path,
                query,
            },
        )
    }

    fn extract(body: &str, key: &str) -> String {
        let marker = format!("\"{key}\":\"");
        let start = body.find(&marker).expect("key present") + marker.len();
        body[start..]
            .split('"')
            .next()
            .expect("closing quote")
            .to_string()
    }

    #[test]
    fn async_submission_runs_a_job_to_done_with_matching_csv() {
        // Failpoints are process-global; keep other fault tests out.
        let _fx = results_store::fault::exclusive();
        let state = test_state("jobs");
        let resp = post(&state, "/experiments?spec=table4&scale=test");
        assert_eq!(resp.status, 202);
        let body = String::from_utf8(resp.body).expect("utf8");
        assert!(body.contains("\"status\":\"accepted\""), "{body}");
        let id = extract(&body, "id");

        // An identical second POST dedups onto the first job while it is
        // queued or running; once done it starts a fresh job instead.
        let resp = post(&state, "/experiments?spec=table4&scale=test");
        assert_eq!(resp.status, 202);
        let again = String::from_utf8(resp.body).expect("utf8");
        let deduped = again.contains("\"deduped\":true");
        assert_eq!(extract(&again, "id") == id, deduped, "{again}");

        let status = loop {
            let body = String::from_utf8(get(&state, &format!("/jobs/{id}")).body).expect("utf8");
            let phase = extract(&body, "status");
            if phase == "done" || phase == "failed" {
                break body;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        };
        assert!(status.contains("\"status\":\"done\""), "{status}");
        assert!(status.contains(&format!("/jobs/{id}/result")), "{status}");

        let result = get(&state, &format!("/jobs/{id}/result"));
        assert_eq!(result.status, 200);
        let csv = String::from_utf8(result.body).expect("utf8");
        let sync = String::from_utf8(get(&state, "/experiments?spec=table4&scale=test").body)
            .expect("utf8");
        assert_eq!(csv, sync, "async job CSV matches the synchronous path");

        let listing = String::from_utf8(get(&state, "/jobs").body).expect("utf8");
        assert!(listing.contains(&id), "{listing}");
        assert_eq!(get(&state, "/jobs/nope").status, 404);
        assert_eq!(get(&state, "/jobs/nope/result").status, 404);
        state.jobs.shutdown();
    }

    #[test]
    fn full_queue_maps_to_429_with_retry_after() {
        let _fx = results_store::fault::exclusive();
        let mut state = test_state("admission");
        // No executors: submissions stay queued, so the bound (depth 1)
        // is hit deterministically by the second distinct spec.
        state.jobs = JobManager::new(0, 1);
        assert_eq!(
            post(&state, "/experiments?spec=table4&scale=test").status,
            202
        );
        let resp = post(&state, "/experiments?spec=table4&scale=quick");
        assert_eq!(resp.status, 429);
        assert!(
            resp.headers.iter().any(|(n, _)| *n == "Retry-After"),
            "{:?}",
            resp.headers
        );
        state.jobs.shutdown();
        // After shutdown, submissions are refused with 503 and the
        // queued job reports failed.
        assert_eq!(
            post(&state, "/experiments?spec=table4&scale=test").status,
            503
        );
        let listing = String::from_utf8(get(&state, "/jobs").body).expect("utf8");
        assert!(listing.contains("\"status\":\"failed\""), "{listing}");
        assert!(listing.contains("shut down"), "{listing}");
    }

    #[test]
    fn unfinished_job_result_is_409_and_failed_job_result_is_500() {
        let _fx = results_store::fault::exclusive();
        let mut state = test_state("jobresult");
        state.jobs = JobManager::new(0, 2);
        let body = String::from_utf8(post(&state, "/experiments?spec=table4&scale=test").body)
            .expect("utf8");
        let id = extract(&body, "id");
        assert_eq!(get(&state, &format!("/jobs/{id}/result")).status, 409);
        state.jobs.shutdown();
        let failed = get(&state, &format!("/jobs/{id}/result"));
        assert_eq!(failed.status, 500);
        let body = String::from_utf8(failed.body).expect("utf8");
        assert!(body.contains("shut down"), "{body}");
    }

    #[test]
    fn handler_panic_is_oneshot_and_later_requests_succeed() {
        let _fx = results_store::fault::exclusive();
        let state = test_state("panic500");
        // A panic escapes handle() for serve_connection to contain (the
        // pool-survival e2e test covers the 500 mapping end to end).
        results_store::fault::arm_nth("serve.handle", 0, results_store::fault::FaultKind::Panic);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| get(&state, "/healthz")));
        assert!(result.is_err(), "panic propagates out of handle()");
        // The next request is served normally.
        assert_eq!(get(&state, "/healthz").status, 200);
    }
}
