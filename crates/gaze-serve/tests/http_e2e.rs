//! End-to-end test of the HTTP service: a real server on an ephemeral
//! port, spoken to over real TCP, serving a real (temporary) results
//! store.
//!
//! The central assertion is the acceptance criterion of the serving
//! subsystem: a figure fetched over HTTP is byte-identical to the CSV
//! the `gaze-experiments` CLI prints for the same sweep, and once the
//! store is warm it is served with zero simulation.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};

use gaze_serve::{Server, ServerConfig};
use gaze_sim::experiments::{run_experiment, ExperimentScale};
use gaze_sim::runner::simulated_instructions;
use gaze_sim::spec::{run_spec, text};

/// The results-store handle is process-global, so the server tests must
/// not run concurrently.
fn server_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .expect("server test lock")
}

/// Issues one request with an empty body over a fresh connection and
/// returns (head, body); the head is the status line plus headers.
fn request(addr: SocketAddr, method: &str, target: &str) -> (String, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header terminator");
    let head = String::from_utf8_lossy(&raw[..head_end]).into_owned();
    (head, raw[head_end + 4..].to_vec())
}

/// The status line of a response head.
fn status(head: &str) -> &str {
    head.lines().next().unwrap_or_default()
}

#[test]
fn server_serves_health_runs_and_byte_identical_figures() {
    let _guard = server_lock();
    let dir: PathBuf = std::env::temp_dir().join(format!("gzr-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let spec_dir = dir.join("specs");
    std::fs::create_dir_all(&spec_dir).expect("spec dir");
    const CUSTOM_SPEC: &str = "\
spec tiny-sweep

table
title Custom tiny sweep (speedup)
kind workload-rows
traces list:bwaves_s,mcf_s
metric speedup
avg-row AVG
row gaze
row pmp
end
";
    std::fs::write(spec_dir.join("tiny-sweep.spec"), CUSTOM_SPEC).expect("write spec");
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(), // ephemeral port
        threads: 2,
        default_scale: "test".to_string(),
        spec_dir: Some(spec_dir),
        ..ServerConfig::new(&dir)
    };
    let (addr, stop, join) = Server::spawn(&config).expect("spawn server");

    // Empty store: healthy, no rows.
    let (head, body) = request(addr, "GET", "/healthz");
    assert_eq!(status(&head), "HTTP/1.1 200 OK");
    let body = String::from_utf8(body).expect("utf8");
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    assert!(body.contains("\"rows\":0"), "{body}");

    // What the CLI would print for `fig06 --csv` at this scale. Computing
    // it in-process ALSO warms the server's store (the store handle is
    // process-global), which is exactly how a sweep followed by serving
    // works in production.
    let scale = ExperimentScale::named("test").expect("test scale");
    let cli_csv: String = run_experiment("fig06", &scale)
        .iter()
        .map(|t| t.to_csv())
        .collect();

    // The warm figure comes back byte-identical, with zero simulation.
    let before = simulated_instructions();
    let (head, body) = request(addr, "GET", "/experiments?spec=fig06");
    assert_eq!(status(&head), "HTTP/1.1 200 OK");
    assert_eq!(
        simulated_instructions(),
        before,
        "a warm store must serve the figure without simulating"
    );
    assert_eq!(
        String::from_utf8(body).expect("utf8"),
        cli_csv,
        "HTTP figure CSV must be byte-identical to the CLI output"
    );

    // /runs sees the persisted sweep and filters it.
    let (head, body) = request(addr, "GET", "/runs?prefetcher=gaze&scale=test");
    assert_eq!(status(&head), "HTTP/1.1 200 OK");
    let body = String::from_utf8(body).expect("utf8");
    assert_eq!(
        body.matches("\"prefetcher\":\"gaze\"").count(),
        5,
        "one gaze row per main-suite workload: {body}"
    );
    assert!(body.contains("\"speedup\":"));

    // Unknown routes 404 over the wire; bad methods 405.
    let (head, _) = request(addr, "GET", "/nope");
    assert_eq!(status(&head), "HTTP/1.1 404 Not Found");
    let (head, _) = request(addr, "GET", "/experiments?spec=fig99");
    assert_eq!(status(&head), "HTTP/1.1 404 Not Found");
    let (head, _) = request(addr, "POST", "/healthz");
    assert!(head.starts_with("HTTP/1.1 405"), "{head}");

    // Health now reports the warm store.
    let (_, body) = request(addr, "GET", "/healthz");
    let body = String::from_utf8(body).expect("utf8");
    assert!(!body.contains("\"rows\":0"), "store is warm now: {body}");

    // /specs lists built-ins and the custom spec-dir file.
    let (head, body) = request(addr, "GET", "/specs");
    assert_eq!(status(&head), "HTTP/1.1 200 OK");
    let body = String::from_utf8(body).expect("utf8");
    assert!(body.contains("\"name\":\"fig06\""), "{body}");
    assert!(body.contains("\"name\":\"tiny-sweep\""), "{body}");

    // /experiments runs the custom spec over the wire, byte-identical to
    // the in-process spec pipeline at the same scale (which also warms
    // the store for it, shared rows included).
    let spec = text::parse(CUSTOM_SPEC).expect("valid custom spec");
    let expected: String = run_spec(&spec, &scale).iter().map(|t| t.to_csv()).collect();
    let before = simulated_instructions();
    let (head, body) = request(addr, "GET", "/experiments?spec=tiny-sweep&scale=test");
    assert_eq!(status(&head), "HTTP/1.1 200 OK");
    assert_eq!(
        String::from_utf8(body).expect("utf8"),
        expected,
        "served custom-spec CSV must match the CLI spec pipeline"
    );
    assert_eq!(
        simulated_instructions(),
        before,
        "the warm store must serve the custom spec without simulating"
    );

    stop.stop();
    join.join().expect("server thread");
    gaze_sim::results::configure(None).expect("deactivate store");
    std::fs::remove_dir_all(&dir).ok();
}

/// Sums every sample of `family` in a Prometheus exposition (label sets
/// collapse; `_bucket`/`_sum`/`_count` suffixes do NOT match the bare
/// family name).
fn family_sum(text: &str, family: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .filter(|(series, _)| {
            let name = series.split('{').next().unwrap_or(series);
            name == family
        })
        .filter_map(|(_, v)| v.parse::<f64>().ok())
        .sum()
}

/// `GET /metrics` end-to-end: the exposition is well-formed Prometheus
/// text (typed families, parseable samples, coherent histograms), covers
/// all three instrumented layers once traffic has flowed, and its
/// counters are monotonic across scrapes.
#[test]
fn metrics_exposition_parses_and_counters_are_monotonic() {
    let _guard = server_lock();
    let dir: PathBuf = std::env::temp_dir().join(format!("gzr-e2e-{}-metrics", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        default_scale: "test".to_string(),
        ..ServerConfig::new(&dir)
    };
    let (addr, stop, join) = Server::spawn(&config).expect("spawn server");

    let (head, body) = request(addr, "GET", "/metrics");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(
        head.contains("text/plain; version=0.0.4"),
        "Prometheus exposition content type: {head}"
    );
    let text = String::from_utf8(body).expect("utf8 exposition");

    // Well-formed: every line is a HELP/TYPE comment or `series value`
    // with a numeric value; every TYPE is one we emit.
    for line in text.lines().filter(|l| !l.is_empty()) {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let kind = rest.split_whitespace().nth(1).unwrap_or_default();
            assert!(
                ["counter", "gauge", "histogram"].contains(&kind),
                "unknown metric type in {line:?}"
            );
        } else if !line.starts_with("# HELP ") {
            let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
                panic!("sample line without value: {line:?}");
            });
            assert!(
                value.parse::<f64>().is_ok(),
                "unparseable sample value in {line:?}"
            );
            assert!(
                series
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_alphabetic()),
                "sample series must start with a name: {line:?}"
            );
        }
    }

    let http_before = family_sum(&text, "gaze_http_requests_total");

    // Drive all three layers: plain requests, plus one cold sweep that
    // simulates and persists write-through.
    let (head, _) = request(addr, "GET", "/healthz");
    assert_eq!(status(&head), "HTTP/1.1 200 OK");
    let (head, _) = request(addr, "GET", "/runs?limit=5");
    assert_eq!(status(&head), "HTTP/1.1 200 OK");
    let (head, _) = request(addr, "GET", "/experiments?spec=fig06&scale=test");
    assert_eq!(status(&head), "HTTP/1.1 200 OK");

    let (_, body) = request(addr, "GET", "/metrics");
    let text2 = String::from_utf8(body).expect("utf8 exposition");

    // Counters are monotonic, and the three requests (plus the first
    // scrape itself) were all counted.
    let http_after = family_sum(&text2, "gaze_http_requests_total");
    assert!(
        http_after >= http_before + 4.0,
        "requests counter must cover the 4 requests since the first scrape \
         (before={http_before}, after={http_after})"
    );

    // Every layer shows up: serve histogram totals agree, the sim layer
    // stepped cycles, the store decoded or persisted rows.
    assert_eq!(
        family_sum(&text2, "gaze_http_request_duration_us_count"),
        http_after,
        "every counted request must also be in the latency histogram"
    );
    assert!(
        text2.contains("le=\"+Inf\""),
        "histograms carry +Inf buckets"
    );
    assert!(
        family_sum(&text2, "gaze_sim_cycles_stepped_total") > 0.0,
        "cold sweep must step simulator cycles"
    );
    // The cold sweep's prefetchers attempt and get refused issues, its
    // stall windows make the skip target evaluate queued requests, and
    // both classify requests whose blocks changed.
    for family in [
        "gaze_sim_prefetch_attempts_total",
        "gaze_sim_prefetch_refusals_total",
        "gaze_sim_skip_evaluations_total",
        "gaze_sim_prefetch_classifications_total",
    ] {
        assert!(
            family_sum(&text2, family) > family_sum(&text, family),
            "cold sweep must raise {family}"
        );
    }
    assert!(
        family_sum(&text2, "gaze_store_misses_total") > 0.0,
        "cold sweep must record store misses (write-through)"
    );
    assert!(
        family_sum(&text2, "gzr_store_rows") > 0.0,
        "store-shape gauge must reflect the persisted sweep"
    );
    assert!(
        family_sum(&text2, "gaze_http_in_flight") >= 1.0,
        "the scrape itself is in flight while rendering"
    );

    stop.stop();
    join.join().expect("server thread");
    gaze_sim::results::configure(None).expect("deactivate store");
    std::fs::remove_dir_all(&dir).ok();
}

/// Pulls `"key":"value"` out of a JSON body (the hand-rolled server
/// never escapes the values these tests read).
fn json_str(body: &str, key: &str) -> String {
    let needle = format!("\"{key}\":\"");
    let start = body
        .find(&needle)
        .unwrap_or_else(|| panic!("no {key:?} in {body}"))
        + needle.len();
    body[start..]
        .split('"')
        .next()
        .expect("closing quote")
        .to_string()
}

/// The async job path end-to-end: POST a spec over real TCP, get `202` +
/// an id, poll `/jobs/<id>` to `done`, and the `/result` CSV is
/// byte-identical to the synchronous pipeline. Stopping the server
/// afterwards leaves a loadable store.
#[test]
fn async_job_over_the_wire_matches_the_sync_csv() {
    let _guard = server_lock();
    let dir: PathBuf = std::env::temp_dir().join(format!("gzr-e2e-{}-jobs", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let spec_dir = dir.join("specs");
    std::fs::create_dir_all(&spec_dir).expect("spec dir");
    const JOB_SPEC: &str = "\
spec job-sweep

table
title Async job sweep (speedup)
kind workload-rows
traces list:bwaves_s,mcf_s
metric speedup
row gaze
end
";
    std::fs::write(spec_dir.join("job-sweep.spec"), JOB_SPEC).expect("write spec");
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        default_scale: "test".to_string(),
        spec_dir: Some(spec_dir),
        ..ServerConfig::new(&dir)
    };
    let (addr, stop, join) = Server::spawn(&config).expect("spawn server");

    // What the synchronous pipeline produces (also warms the store, as a
    // prior sweep would have).
    let scale = ExperimentScale::named("test").expect("test scale");
    let spec = text::parse(JOB_SPEC).expect("valid spec");
    let expected: String = run_spec(&spec, &scale).iter().map(|t| t.to_csv()).collect();

    // Submit: 202 Accepted with a pollable id.
    let (head, body) = request(addr, "POST", "/experiments?spec=job-sweep&scale=test");
    assert_eq!(status(&head), "HTTP/1.1 202 Accepted");
    let body = String::from_utf8(body).expect("utf8");
    let id = json_str(&body, "id");
    assert!(id.starts_with("job-"), "{body}");

    // Poll the lifecycle to `done` (the warm job takes milliseconds; the
    // deadline only bounds a wedged executor).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let (head, body) = request(addr, "GET", &format!("/jobs/{id}"));
        assert_eq!(status(&head), "HTTP/1.1 200 OK");
        let body = String::from_utf8(body).expect("utf8");
        match json_str(&body, "status").as_str() {
            "done" => break,
            "failed" => panic!("job failed: {body}"),
            "queued" | "running" => {}
            other => panic!("unexpected phase {other}: {body}"),
        }
        assert!(std::time::Instant::now() < deadline, "job never finished");
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    // The finished CSV matches the synchronous pipeline byte-for-byte,
    // and the job shows up in the listing.
    let (head, body) = request(addr, "GET", &format!("/jobs/{id}/result"));
    assert_eq!(status(&head), "HTTP/1.1 200 OK");
    assert_eq!(
        String::from_utf8(body).expect("utf8"),
        expected,
        "async job CSV must match the synchronous spec pipeline"
    );
    let (_, body) = request(addr, "GET", "/jobs");
    let body = String::from_utf8(body).expect("utf8");
    assert!(body.contains(&format!("\"id\":\"{id}\"")), "{body}");

    // Resubmitting the identical finished spec starts a fresh job (only
    // *in-flight* submissions dedup).
    let (head, body) = request(addr, "POST", "/experiments?spec=job-sweep&scale=test");
    assert_eq!(status(&head), "HTTP/1.1 202 Accepted");
    let body = String::from_utf8(body).expect("utf8");
    assert!(body.contains("\"deduped\":false"), "{body}");

    stop.stop();
    join.join().expect("server thread");
    gaze_sim::results::configure(None).expect("deactivate store");

    // The store the jobs wrote through reopens cleanly.
    let reopened = results_store::ResultsStore::open(&dir).expect("store loadable after stop");
    assert!(!reopened.is_empty(), "job rows persisted");
    std::fs::remove_dir_all(&dir).ok();
}

/// Concurrent clients mixing warm reads with async job churn over real
/// TCP, checked against exact `/metrics` identities: every accepted job
/// records exactly queued, running and done; every submission absorbed
/// by an in-flight job counts one dedup; every request sent is counted.
#[test]
fn job_churn_keeps_metrics_identities_exact() {
    const CLIENTS: usize = 4;
    let _guard = server_lock();
    let dir: PathBuf = std::env::temp_dir().join(format!("gzr-e2e-{}-churn", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: CLIENTS,
        default_scale: "test".to_string(),
        ..ServerConfig::new(&dir)
    };
    let (addr, stop, join) = Server::spawn(&config).expect("spawn server");

    // The synchronous CSV every job result must match (also warms the
    // store, as a prior sweep would have).
    let scale = ExperimentScale::named("test").expect("test scale");
    let expected: String = run_experiment("fig06", &scale)
        .iter()
        .map(|t| t.to_csv())
        .collect();

    let (_, body) = request(addr, "GET", "/metrics");
    let before = String::from_utf8(body).expect("utf8 exposition");

    // Each client: three warm reads, then one job polled to `done` and its
    // result fetched. Yields (requests sent, job id, deduped, result CSV).
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            std::thread::spawn(move || {
                let mut sent = 0usize;
                let mut call = |method: &str, target: &str| {
                    sent += 1;
                    let (head, body) = request(addr, method, target);
                    assert!(
                        status(&head).starts_with("HTTP/1.1 2"),
                        "{method} {target}: {head}"
                    );
                    String::from_utf8(body).expect("utf8")
                };
                call("GET", "/experiments?spec=fig06");
                call("GET", "/runs?limit=100");
                call("GET", "/runs?prefetcher=gaze&limit=100");
                let accepted = call("POST", "/experiments?spec=fig06&scale=test");
                let id = json_str(&accepted, "id");
                let deduped = !accepted.contains("\"deduped\":false");
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
                loop {
                    let body = call("GET", &format!("/jobs/{id}"));
                    match json_str(&body, "status").as_str() {
                        "done" => break,
                        "queued" | "running" => {}
                        other => panic!("job {id} reached {other}: {body}"),
                    }
                    assert!(std::time::Instant::now() < deadline, "job never finished");
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
                let csv = call("GET", &format!("/jobs/{id}/result"));
                (sent, id, deduped, csv)
            })
        })
        .collect();
    let outcomes: Vec<(usize, String, bool, String)> = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .collect();

    let (_, body) = request(addr, "GET", "/metrics");
    let after = String::from_utf8(body).expect("utf8 exposition");
    let delta = |family: &str| family_sum(&after, family) - family_sum(&before, family);

    let ids: std::collections::BTreeSet<&str> = outcomes.iter().map(|o| o.1.as_str()).collect();
    let fresh = outcomes.iter().filter(|o| !o.2).count();
    assert_eq!(fresh, ids.len(), "one non-deduped submission per job");
    for (_, id, _, csv) in &outcomes {
        assert_eq!(csv, &expected, "job {id} CSV must match the sync run");
    }
    assert_eq!(
        delta("gaze_jobs_transitions_total"),
        3.0 * ids.len() as f64,
        "queued, running and done once per job"
    );
    assert_eq!(
        delta("gaze_jobs_deduped_total"),
        (CLIENTS - ids.len()) as f64,
        "one dedup per absorbed submission"
    );
    // The first scrape is counted too.
    let sent = 1 + outcomes.iter().map(|o| o.0).sum::<usize>();
    assert!(
        delta("gaze_http_requests_total") >= sent as f64,
        "{sent} requests sent, counter rose by {}",
        delta("gaze_http_requests_total")
    );

    stop.stop();
    join.join().expect("server thread");
    gaze_sim::results::configure(None).expect("deactivate store");
    std::fs::remove_dir_all(&dir).ok();
}

/// A client that connects and then goes silent (or trickles its request)
/// must not starve the pool: the socket timeout releases the worker, so
/// `/healthz` keeps answering even with a single worker thread.
#[test]
fn slow_client_releases_the_worker_via_socket_timeout() {
    let _guard = server_lock();
    let dir: PathBuf = std::env::temp_dir().join(format!("gzr-e2e-{}-slow", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 1, // one stuck client would freeze everything
        default_scale: "test".to_string(),
        socket_timeout: std::time::Duration::from_millis(250),
        ..ServerConfig::new(&dir)
    };
    let (addr, stop, join) = Server::spawn(&config).expect("spawn server");

    // Two hostile clients: one connects and sends nothing, one sends half
    // a request line and stalls. Both sit on the sole worker until the
    // read timeout fires.
    let silent = TcpStream::connect(addr).expect("silent client");
    let mut trickle = TcpStream::connect(addr).expect("trickle client");
    trickle.write_all(b"GET /runs HT").expect("partial request");

    let started = std::time::Instant::now();
    let (head, body) = request(addr, "GET", "/healthz");
    let waited = started.elapsed();
    assert_eq!(status(&head), "HTTP/1.1 200 OK");
    assert!(
        String::from_utf8(body)
            .expect("utf8")
            .contains("\"status\":\"ok\""),
        "healthz while slow clients are connected"
    );
    assert!(
        waited < std::time::Duration::from_secs(5),
        "socket timeout must release the worker quickly, waited {waited:?}"
    );

    drop(silent);
    drop(trickle);
    stop.stop();
    join.join().expect("server thread");
    gaze_sim::results::configure(None).expect("deactivate store");
    std::fs::remove_dir_all(&dir).ok();
}

/// Every worker blocks in its own `accept`, so `stop` has to wake each
/// of them: an idle four-worker server must shut down promptly rather
/// than hang with three workers still waiting for a connection.
#[test]
fn an_idle_server_stops_every_accepting_worker() {
    let _guard = server_lock();
    let dir: PathBuf = std::env::temp_dir().join(format!("gzr-e2e-{}-idle", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 4,
        ..ServerConfig::new(&dir)
    };
    let (addr, stop, join) = Server::spawn(&config).expect("spawn server");
    let (head, _) = request(addr, "GET", "/healthz");
    assert_eq!(status(&head), "HTTP/1.1 200 OK");

    stop.stop();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !join.is_finished() && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(
        join.is_finished(),
        "the serve thread joins its workers and returns after stop()"
    );
    join.join().expect("server thread");
    gaze_sim::results::configure(None).expect("deactivate store");
    std::fs::remove_dir_all(&dir).ok();
}

/// A panicking route handler costs exactly one `500` — the worker thread
/// and the shared state survive, and the next request succeeds.
#[test]
fn panicking_handler_costs_one_500_not_the_pool() {
    let _guard = server_lock();
    let _fx = results_store::fault::exclusive();
    let dir: PathBuf = std::env::temp_dir().join(format!("gzr-e2e-{}-panic", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 1, // a dead worker would be unmissable
        default_scale: "test".to_string(),
        ..ServerConfig::new(&dir)
    };
    let (addr, stop, join) = Server::spawn(&config).expect("spawn server");

    results_store::fault::arm_nth("serve.handle", 0, results_store::fault::FaultKind::Panic);
    let (head, body) = request(addr, "GET", "/healthz");
    assert_eq!(status(&head), "HTTP/1.1 500 Internal Server Error");
    assert!(
        String::from_utf8(body)
            .expect("utf8")
            .contains("handler panicked"),
        "panic surfaces in the error body"
    );

    // Same worker, next request: business as usual.
    for _ in 0..3 {
        let (head, _) = request(addr, "GET", "/healthz");
        assert_eq!(status(&head), "HTTP/1.1 200 OK", "pool survived the panic");
    }

    results_store::fault::clear_all();
    stop.stop();
    join.join().expect("server thread");
    gaze_sim::results::configure(None).expect("deactivate store");
    std::fs::remove_dir_all(&dir).ok();
}

/// The multi-core serving path end-to-end: `/experiments?spec=fig13`
/// over real TCP is byte-identical to the CLI CSV and warm-served with
/// zero simulation; rows flushed by a *second* store handle after server
/// start appear without a restart (reopen-on-stale); and a compaction by
/// a *third* handle while the server runs leaves every row served.
#[test]
fn server_serves_fig13_and_reloads_stale_stores() {
    let _guard = server_lock();
    let dir: PathBuf = std::env::temp_dir().join(format!("gzr-e2e-{}-fig13", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(), // ephemeral port
        threads: 2,
        default_scale: "test".to_string(),
        ..ServerConfig::new(&dir)
    };
    let (addr, stop, join) = Server::spawn(&config).expect("spawn server");

    // What the CLI would print for `fig13 --csv` at this scale (warms the
    // server's process-global store as a side effect).
    let scale = ExperimentScale::named("test").expect("test scale");
    let cli_csv: String = run_experiment("fig13", &scale)
        .iter()
        .map(|t| t.to_csv())
        .collect();

    let before = simulated_instructions();
    let (head, body) = request(addr, "GET", "/experiments?spec=fig13");
    assert_eq!(status(&head), "HTTP/1.1 200 OK");
    assert_eq!(
        simulated_instructions(),
        before,
        "a warm store must serve fig13 without simulating"
    );
    assert_eq!(
        String::from_utf8(body).expect("utf8"),
        cli_csv,
        "HTTP fig13 CSV must be byte-identical to the CLI output"
    );

    // Reopen-on-stale: a second, independent handle — another process in
    // production — flushes new rows (a 1-core and a 2-core one) after the
    // server opened its store.
    let probe_fp = 0xfeed_faceu64;
    {
        let mut writer = results_store::ResultsStore::open(&dir).expect("second handle");
        let stats = sim_core::stats::CoreStats {
            instructions: 1_000,
            cycles: 500,
            ..Default::default()
        };
        writer.append(results_store::RunRecord {
            trace_fingerprint: probe_fp,
            params_fingerprint: 0x1,
            workload: "stale-probe".to_string(),
            prefetcher: "gaze".to_string(),
            stats,
        });
        writer.append(results_store::MixRecord {
            mix_fingerprint: probe_fp ^ 1,
            params_fingerprint: 0x2,
            prefetcher: "gaze".to_string(),
            label: "stale+probe".to_string(),
            report: sim_core::stats::SimReport {
                cores: vec![stats, stats],
            },
        });
        writer.flush().expect("flush from second handle");
    }

    // Both rows appear over HTTP without restarting the server.
    let (head, body) = request(addr, "GET", "/runs?workload=stale-probe");
    assert_eq!(status(&head), "HTTP/1.1 200 OK");
    let body = String::from_utf8(body).expect("utf8");
    assert_eq!(
        body.matches("\"workload\":\"stale-probe\"").count(),
        1,
        "the 1-core row flushed after server start must be visible: {body}"
    );
    let (_, body) = request(addr, "GET", "/runs?kind=mix&label=stale%2Bprobe");
    let body = String::from_utf8(body).expect("utf8");
    assert_eq!(
        body.matches("\"label\":\"stale+probe\"").count(),
        1,
        "the 2-core row flushed after server start must be visible: {body}"
    );
    let (_, body) = request(addr, "GET", "/healthz");
    let body = String::from_utf8(body).expect("utf8");
    assert!(
        !body.contains("\"mix_rows\":0"),
        "health reflects the reloaded store: {body}"
    );

    // Live compaction, as `gzr-store compact` does it from another
    // process: the server's known segments vanish, it reopens on the next
    // request and serves every row from the merged segments.
    results_store::ResultsStore::open(&dir)
        .expect("third handle")
        .compact()
        .expect("compact while serving");
    let before = simulated_instructions();
    let (head, body) = request(addr, "GET", "/experiments?spec=fig13");
    assert_eq!(status(&head), "HTTP/1.1 200 OK");
    assert_eq!(
        String::from_utf8(body).expect("utf8"),
        cli_csv,
        "fig13 after a live compaction must be byte-identical to the CLI output"
    );
    assert_eq!(
        simulated_instructions(),
        before,
        "the compacted store must serve fig13 without simulating"
    );
    let (_, body) = request(addr, "GET", "/healthz");
    let body = String::from_utf8(body).expect("utf8");
    assert!(
        body.contains("\"segments\":1,") || body.contains("\"segments\":2,"),
        "at most one segment per core count: {body}"
    );
    let (_, body) = request(addr, "GET", "/runs?workload=stale-probe");
    let body = String::from_utf8(body).expect("utf8");
    assert_eq!(
        body.matches("\"workload\":\"stale-probe\"").count(),
        1,
        "the probe row survives compaction: {body}"
    );
    let (_, body) = request(addr, "GET", "/runs?kind=mix&label=stale%2Bprobe");
    let body = String::from_utf8(body).expect("utf8");
    assert_eq!(
        body.matches("\"label\":\"stale+probe\"").count(),
        1,
        "the probe mix row survives compaction: {body}"
    );

    stop.stop();
    join.join().expect("server thread");
    gaze_sim::results::configure(None).expect("deactivate store");
    std::fs::remove_dir_all(&dir).ok();
}
