//! The `serve-warm` workload: `gaze-serve` in-process over a store that
//! already holds both seeded specs, driven by closed-loop clients.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use gaze_serve::http::read_request;
use gaze_serve::jobs::JobManager;
use gaze_serve::routes::{handle, AppState};
use gaze_serve::{Server, ServerConfig};
use gaze_sim::experiments::ExperimentScale;
use gaze_sim::runner::records_for;
use gaze_sim::spec::{self, text};
use sim_core::trace::{source_fingerprint, Trace, TraceSource};

use crate::host::THREADS;
use crate::report::Emitter;
use crate::seed::{request_stream, Request, Sweep, MIX_SPEC, SINGLE_SPEC};
use crate::stats;

/// Server start-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 5;

fn spec_dir(work: &Path) -> PathBuf {
    work.join("specs")
}

fn expected_csv(work: &Path, spec: &str) -> PathBuf {
    work.join(format!("{spec}.csv"))
}

/// Writes both seeded specs to the spec directory and simulates them into
/// the store `GAZE_RESULTS_DIR` names, keeping each spec's CSV as the
/// expected body of its warm figure requests.
pub fn prefill(work: &Path, seed: u64, out: &Emitter) -> std::io::Result<()> {
    let started = Instant::now();
    std::fs::create_dir_all(spec_dir(work))?;
    let mut specs = Vec::new();
    for (name, kind) in [(SINGLE_SPEC, Sweep::Single), (MIX_SPEC, Sweep::Mix)] {
        let spec_text = kind.spec_text(seed);
        std::fs::write(spec_dir(work).join(format!("{name}.spec")), &spec_text)?;
        specs.push(text::parse(&spec_text).expect("generated specs are valid"));
    }
    let refs: Vec<&spec::ExperimentSpec> = specs.iter().collect();
    let tables = spec::run_specs(&refs, &ExperimentScale::quick());
    gaze_sim::results::try_flush()?;
    for (spec, tables) in specs.iter().zip(tables) {
        let csv: String = tables.iter().map(|t| t.to_csv()).collect();
        std::fs::write(expected_csv(work, &spec.name), csv)?;
    }
    out.sample("prefill_s", started.elapsed().as_secs_f64());
    Ok(())
}

/// The outcome of one request as the client saw it.
#[derive(Debug, Clone, Copy)]
struct Outcome {
    index: usize,
    micros: f64,
    ok: bool,
}

/// Sends one request over a fresh connection and returns the status and
/// body.
fn fetch(addr: SocketAddr, target: &str) -> std::io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    write!(stream, "GET {target} HTTP/1.1\r\nHost: perfbench\r\n\r\n")?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| std::io::Error::other("response without a header end"))?;
    let head = String::from_utf8_lossy(&raw[..split]);
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| std::io::Error::other("response without a status"))?;
    Ok((status, raw[split + 4..].to_vec()))
}

/// Whether a response is what the request must return: 2xx, and for a
/// figure the exact CSV of a fresh simulation of the same spec.
fn valid(req: &Request, status: u16, body: &[u8], expected: &BTreeMap<&str, Vec<u8>>) -> bool {
    (200..300).contains(&status)
        && match req.spec {
            Some(spec) => expected.get(spec).is_some_and(|e| e.as_slice() == body),
            None => !body.is_empty(),
        }
}

/// One pass of the stream through [`THREADS`] closed-loop clients: each
/// client sends the next unsent request as soon as its previous one
/// completes. Returns the pass's wall time and every outcome.
fn pass(
    addr: SocketAddr,
    stream: &[Request],
    expected: &BTreeMap<&str, Vec<u8>>,
) -> (f64, Vec<Outcome>) {
    let next = AtomicUsize::new(0);
    let outcomes = Mutex::new(Vec::with_capacity(stream.len()));
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(req) = stream.get(index) else { break };
                let sent = Instant::now();
                let ok = match fetch(addr, &req.target) {
                    Ok((status, body)) => valid(req, status, &body, expected),
                    Err(_) => false,
                };
                let micros = sent.elapsed().as_secs_f64() * 1e6;
                outcomes
                    .lock()
                    .expect("no client panics while holding the lock")
                    .push(Outcome { index, micros, ok });
            });
        }
    });
    let wall = started.elapsed().as_secs_f64();
    (
        wall,
        outcomes
            .into_inner()
            .expect("no client panics while holding the lock"),
    )
}

type Running = (
    SocketAddr,
    gaze_serve::StopHandle,
    std::thread::JoinHandle<()>,
);

/// Starts the server and waits until it has answered `/healthz` and its
/// first figure request: the set-up a user waits for before the first
/// figure.
fn start(config: &ServerConfig, expected: &BTreeMap<&str, Vec<u8>>) -> std::io::Result<Running> {
    let (addr, stop, join) = Server::spawn(config)?;
    let (status, _) = fetch(addr, "/healthz")?;
    let (figure_status, body) = fetch(addr, &format!("/experiments?spec={SINGLE_SPEC}"))?;
    if status != 200 || figure_status != 200 || expected.get(SINGLE_SPEC) != Some(&body) {
        return Err(std::io::Error::other(format!(
            "server start-up answered /healthz {status}, first figure {figure_status}"
        )));
    }
    Ok((addr, stop, join))
}

fn stop(handle: gaze_serve::StopHandle, join: std::thread::JoinHandle<()>) {
    handle.stop();
    join.join().expect("the serve thread does not panic");
}

/// Store-layer counters read around traced passes.
fn store_counters(store: &gaze_sim::results::StoreHandle) -> [u64; 4] {
    let preads = gaze_obs::metrics::registry()
        .counter("gzr_preads_total", "Positioned single-record segment reads")
        .get();
    [
        store.with_store(|s| s.records_decoded()),
        preads,
        store.hits(),
        store.misses(),
    ]
}

/// Runs `serve-warm` for `seconds` over the prefilled store
/// `GAZE_RESULTS_DIR` names. With `traced`, passes alternate between
/// plain and traced (store counters read around them), and the layer
/// split runs afterwards.
pub fn serve(
    work: &Path,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: &Emitter,
) -> std::io::Result<()> {
    let store_dir = std::env::var_os("GAZE_RESULTS_DIR")
        .map(PathBuf::from)
        .ok_or_else(|| std::io::Error::other("the parent sets GAZE_RESULTS_DIR"))?;
    let mut config = ServerConfig::new(&store_dir);
    config.addr = "127.0.0.1:0".to_string();
    config.threads = THREADS;
    config.default_scale = "quick".to_string();
    config.spec_dir = Some(spec_dir(work));
    let mut expected: BTreeMap<&str, Vec<u8>> = BTreeMap::new();
    for spec in [SINGLE_SPEC, MIX_SPEC] {
        expected.insert(spec, std::fs::read(expected_csv(work, spec))?);
    }
    let stream = request_stream(seed);

    let mut running = None;
    for i in 0..SETUPS {
        let started = Instant::now();
        let (addr, handle, join) = start(&config, &expected)?;
        out.sample("setup_s", started.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            stop(handle, join);
        } else {
            running = Some((addr, handle, join));
        }
    }
    let (addr, handle, join) = running.expect("at least one start-up");
    let store = gaze_sim::results::active_store().expect("the server activates its store");

    // One unrecorded pass lets lazy set-up finish before timing.
    pass(addr, &stream, &expected);
    let measured = Instant::now();
    let mut traced_pass = false;
    let mut totals = [0u64; 4];
    let mut passes = 0usize;
    while passes < 2 || measured.elapsed().as_secs_f64() < seconds {
        traced_pass = traced && !traced_pass;
        let before = traced_pass.then(|| store_counters(&store));
        let (wall, outcomes) = pass(addr, &stream, &expected);
        if let Some(before) = before {
            let after = store_counters(&store);
            for (total, (a, b)) in totals.iter_mut().zip(after.iter().zip(before)) {
                *total += a - b;
            }
            out.sample("traced_wall_s", wall);
        } else {
            out.sample("untraced_wall_s", wall);
        }
        out.sample("wall_s", wall);
        out.sample("requests", outcomes.len() as f64);
        for o in &outcomes {
            let req = &stream[o.index];
            out.sample(&format!("client_us.{}", req.class.name()), o.micros);
            if let Some(spec) = req.spec {
                out.sample(&format!("figure_us.{spec}"), o.micros);
            }
            out.check(o.ok, || {
                format!("request {} failed or returned a wrong body", req.target)
            });
        }
        passes += 1;
    }
    out.sample("measured_s", measured.elapsed().as_secs_f64());

    if traced {
        let traced_passes = passes.div_ceil(2) as f64;
        for (name, total) in ["records_decoded", "preads", "hits", "misses"]
            .iter()
            .zip(totals)
        {
            out.sample(&format!("store.{name}"), total as f64 / traced_passes);
        }
        layers(work, seed, &store_dir, &stream, &store, out);
    }
    stop(handle, join);
    out.sample("process.peak_rss_mb", crate::host::peak_rss_mb());
    Ok(())
}

/// The in-process layer split of `serve-warm`: request parsing from
/// memory, route handling on pre-parsed requests with no socket, store
/// open and point lookups, and the trace regeneration and fingerprinting
/// the warm path repeats on every figure request.
fn layers(
    work: &Path,
    seed: u64,
    store_dir: &Path,
    stream: &[Request],
    store: &std::sync::Arc<gaze_sim::results::StoreHandle>,
    out: &Emitter,
) {
    let state = AppState {
        store: std::sync::Arc::clone(store),
        default_scale: "quick".to_string(),
        spec_dir: Some(spec_dir(work)),
        jobs: JobManager::new(0, 0),
        started: Instant::now(),
    };
    for req in stream {
        let bytes = format!("GET {} HTTP/1.1\r\nHost: perfbench\r\n\r\n", req.target);
        let started = Instant::now();
        let parsed = read_request(&mut bytes.as_bytes());
        out.sample("http.parse_us", started.elapsed().as_secs_f64() * 1e6);
        let Ok(parsed) = parsed else {
            out.check(false, || format!("{} did not parse", req.target));
            continue;
        };
        let started = Instant::now();
        let response = handle(&state, &parsed);
        let micros = started.elapsed().as_secs_f64() * 1e6;
        out.sample(&format!("handle_us.{}", req.class.name()), micros);
        if let Some(spec) = req.spec {
            out.sample(&format!("handle_us.figure.{spec}"), micros);
        }
        out.check((200..300).contains(&response.status), || {
            format!("{} handled with status {}", req.target, response.status)
        });
    }

    let mut opens = Vec::new();
    for _ in 0..3 {
        let started = Instant::now();
        let opened = results_store::ResultsStore::open(store_dir);
        opens.push(started.elapsed().as_secs_f64() * 1e3);
        out.check(opened.is_ok(), || "reopening the store failed".to_string());
    }
    out.sample("store.open_ms", stats::median(&opens));
    out.sample("store.get_us_p50", crate::sim::store_get_p50(store));

    let records = records_for(&ExperimentScale::quick().params);
    let mut names: Vec<String> = Vec::new();
    for kind in [Sweep::Single, Sweep::Mix] {
        for w in kind.workloads(seed) {
            if !names.contains(&w) {
                names.push(w);
            }
        }
    }
    let started = Instant::now();
    let traces: Vec<Trace> = names
        .iter()
        .map(|w| workloads::build_workload(w, records))
        .collect();
    out.sample("workloads.build_ms", started.elapsed().as_secs_f64() * 1e3);
    let started = Instant::now();
    for t in &traces {
        std::hint::black_box(source_fingerprint(t as &dyn TraceSource));
    }
    out.sample(
        "trace.fingerprint_ms",
        started.elapsed().as_secs_f64() * 1e3,
    );
}
