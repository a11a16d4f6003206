//! Route handlers: `/healthz`, `/metrics`, `/runs`, `/specs`,
//! `/experiments` and `/jobs`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;

use gaze_obs::json::{json_array, json_f64, json_string, JsonObject};
use gaze_sim::experiments::ExperimentScale;
use gaze_sim::results::StoreHandle;
use gaze_sim::spec::{builtin, run_spec, text, ExperimentSpec};
use results_store::{MixQuery, MixRecord, RunQuery, RunRecord};

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

/// Resolves a `scale=` query value: a named scale (`quick`, `bench`,
/// `paper`, ...) or a raw hexadecimal params fingerprint.
fn parse_scale_filter(value: &str) -> Option<u64> {
    if let Some(scale) = ExperimentScale::named(value) {
        return Some(scale.params.fingerprint());
    }
    parse_hex(value)
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

fn runs(state: &AppState, req: &Request) -> Response {
    match req.query.get("kind").map(String::as_str) {
        None | Some("single") => single_runs(state, req),
        Some("mix") => mix_runs(state, req),
        Some(_) => Response::error(400, "kind must be single or mix"),
    }
}

fn single_runs(state: &AppState, req: &Request) -> Response {
    let mut query = RunQuery {
        workload: req.query.get("workload").cloned(),
        prefetcher: req.query.get("prefetcher").cloned(),
        ..RunQuery::default()
    };
    if let Some(scale) = req.query.get("scale") {
        match parse_scale_filter(scale) {
            Some(fp) => query.params_fingerprint = Some(fp),
            None => {
                return Response::error(
                    400,
                    "scale must be a known scale name or a hex fingerprint",
                )
            }
        }
    }
    if let Some(trace) = req.query.get("trace") {
        match parse_hex(trace) {
            Some(fp) => query.trace_fingerprint = Some(fp),
            None => return Response::error(400, "trace must be a hex fingerprint"),
        }
    }
    if let Some(limit) = req.query.get("limit") {
        match limit.parse::<usize>() {
            Ok(n) => query.limit = Some(n),
            Err(_) => return Response::error(400, "limit must be a non-negative integer"),
        }
    }
    let rows = state.store.with_store(|s| s.query(&query));
    let body = json_array(rows.iter().map(run_json));
    Response::json(body + "\n")
}

/// `/runs?kind=mix` — the store's multi-core rows. Filters: `label=`,
/// `prefetcher=`, `scale=` (name or hex params fingerprint), `mix=`
/// (hex mix fingerprint), `cores=N`, `limit=N`.
fn mix_runs(state: &AppState, req: &Request) -> Response {
    let mut query = MixQuery {
        label: req.query.get("label").cloned(),
        prefetcher: req.query.get("prefetcher").cloned(),
        ..MixQuery::default()
    };
    // Mix rows are keyed on `params.with_cores(n)`, whose fingerprint
    // differs per core count — so a *named* scale matches its params at
    // every supported core count, while a raw hex fingerprint (already
    // core-count specific) matches exactly.
    let mut scale_fps: Option<Vec<u64>> = None;
    if let Some(scale) = req.query.get("scale") {
        if let Some(named) = ExperimentScale::named(scale) {
            scale_fps = Some(
                (1..=results_store::format::GZR_MAX_CORES)
                    .map(|n| named.params.with_cores(n).fingerprint())
                    .collect(),
            );
        } else if let Some(fp) = parse_hex(scale) {
            query.params_fingerprint = Some(fp);
        } else {
            return Response::error(400, "scale must be a known scale name or a hex fingerprint");
        }
    }
    if let Some(mix) = req.query.get("mix") {
        match parse_hex(mix) {
            Some(fp) => query.mix_fingerprint = Some(fp),
            None => return Response::error(400, "mix must be a hex fingerprint"),
        }
    }
    if let Some(cores) = req.query.get("cores") {
        match cores.parse::<usize>() {
            Ok(n) => query.cores = Some(n),
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
    // Serialize inside the lock from references: each row pairs with the
    // "none" baseline of its mix (if stored) so the response carries the
    // paper's geometric-mean speedup without a second client query.
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
            let base = s.get_mix(rec.mix_fingerprint, rec.params_fingerprint, "none");
            mix_json(&rec, base.as_ref())
        }))
    });
    Response::json(body + "\n")
}

/// One store row as a JSON object: identity, raw run sizes and every
/// projected metric. Fingerprints are hex *strings* — they use all 64
/// bits, beyond JSON's exact-integer range.
fn run_json(rec: &RunRecord) -> String {
    JsonObject::new()
        .string("workload", &rec.workload)
        .string("prefetcher", &rec.prefetcher)
        .string(
            "trace_fingerprint",
            &format!("{:016x}", rec.trace_fingerprint),
        )
        .string(
            "params_fingerprint",
            &format!("{:016x}", rec.params_fingerprint),
        )
        .u64("instructions", rec.stats.instructions)
        .u64("cycles", rec.stats.cycles)
        .f64("ipc", rec.ipc())
        .f64("baseline_ipc", rec.baseline_ipc())
        .f64("speedup", rec.speedup())
        .f64("accuracy", rec.accuracy())
        .f64("coverage", rec.coverage())
        .f64("late_fraction", rec.late_fraction())
        .build()
}

/// One mix row as a JSON object: identity, core count, per-core IPCs and
/// — when the mix's `"none"` baseline is stored — the geometric-mean
/// speedup over it (`null` otherwise).
///
/// A baseline row whose core count disagrees with the run's (possible
/// only in a store written by external tooling — the harness derives
/// both from the same mix) is treated as missing rather than asserted
/// on: `speedup_over` panicking here would turn the whole listing into
/// a `500`.
fn mix_json(rec: &MixRecord, baseline: Option<&MixRecord>) -> String {
    let speedup = match baseline {
        Some(base) if base.cores() == rec.cores() => json_f64(rec.speedup_over(base)),
        _ => "null".to_string(),
    };
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
        .raw("speedup", speedup)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::parse_target;
    use sim_core::params::RunParams;
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

    fn seed_row(state: &AppState, workload: &str, prefetcher: &str) {
        let fp = workload.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
        });
        state.store.record(RunRecord {
            trace_fingerprint: fp,
            params_fingerprint: RunParams::quick().fingerprint(),
            workload: workload.to_string(),
            prefetcher: prefetcher.to_string(),
            stats: CoreStats {
                instructions: 1_000,
                cycles: 400,
                ..CoreStats::default()
            },
            baseline: CoreStats {
                instructions: 1_000,
                cycles: 800,
                ..CoreStats::default()
            },
        });
    }

    #[test]
    fn healthz_reports_store_shape() {
        let state = test_state("healthz");
        seed_row(&state, "bwaves_s", "gaze");
        let resp = get(&state, "/healthz");
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).expect("utf8");
        assert!(body.contains("\"status\":\"ok\""));
        assert!(body.contains("\"rows\":1"));
    }

    #[test]
    fn runs_filters_by_query_string() {
        let state = test_state("runs");
        seed_row(&state, "bwaves_s", "gaze");
        seed_row(&state, "bwaves_s", "pmp");
        seed_row(&state, "mcf_s", "gaze");

        let all = String::from_utf8(get(&state, "/runs").body).expect("utf8");
        assert_eq!(all.matches("\"workload\"").count(), 3);
        assert!(all.contains("\"speedup\":2.0"), "2x over baseline: {all}");

        let gaze = String::from_utf8(get(&state, "/runs?prefetcher=gaze").body).expect("utf8");
        assert_eq!(gaze.matches("\"workload\"").count(), 2);

        let one =
            String::from_utf8(get(&state, "/runs?workload=mcf_s&scale=quick").body).expect("utf8");
        assert_eq!(one.matches("\"workload\"").count(), 1);

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
        let mix_fp = label.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
        }) ^ cores as u64;
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

        // Single-core rows and mix rows are separate listings.
        let single = String::from_utf8(get(&state, "/runs").body).expect("utf8");
        assert_eq!(single.trim(), "[]");

        // A baseline row with a mismatched core count (only possible in a
        // store written by external tooling) yields speedup null, not a
        // panic under the store lock.
        let mismatched = mix_json(
            &results_store::MixRecord {
                mix_fingerprint: 1,
                params_fingerprint: 2,
                prefetcher: "gaze".into(),
                label: "x+y".into(),
                report: sim_core::stats::SimReport {
                    cores: vec![CoreStats::default(); 2],
                },
            },
            Some(&results_store::MixRecord {
                mix_fingerprint: 1,
                params_fingerprint: 2,
                prefetcher: "none".into(),
                label: "x+y".into(),
                report: sim_core::stats::SimReport {
                    cores: vec![CoreStats::default(); 4],
                },
            }),
        );
        assert!(mismatched.contains("\"speedup\":null"), "{mismatched}");

        assert_eq!(get(&state, "/runs?kind=bogus").status, 400);
        assert_eq!(get(&state, "/runs?kind=mix&cores=x").status, 400);
        assert_eq!(get(&state, "/runs?kind=mix&mix=zz").status, 400);
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
