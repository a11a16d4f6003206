//! The TCP listener and the worker threads that accept on it.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::http::{read_request, Response};
use crate::jobs::{panic_message, JobManager};
use crate::routes::{handle, AppState};

/// Default per-connection socket timeout (read *and* write): a client
/// that connects and then goes silent — or drains its response
/// arbitrarily slowly — releases its worker after this long instead of
/// occupying it forever; `threads` such clients would otherwise hang
/// every endpoint including `/healthz`.
pub const DEFAULT_SOCKET_TIMEOUT: Duration = Duration::from_secs(10);

/// How a [`Server`] is set up.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Results-store directory to open and serve.
    pub dir: PathBuf,
    /// Address to bind (e.g. `127.0.0.1:7070`; port `0` picks an
    /// ephemeral port).
    pub addr: String,
    /// Worker threads handling connections.
    pub threads: usize,
    /// Default scale for `/experiments` requests: any name
    /// `ExperimentScale::named` accepts (`test`, `quick`, `bench`/`full`,
    /// `paper`).
    pub default_scale: String,
    /// Directory of custom `.spec` files served by `/experiments`
    /// (`--spec-dir`); `None` serves built-ins only.
    pub spec_dir: Option<PathBuf>,
    /// Executor threads running async sweep jobs (separate from the HTTP
    /// workers, so a sweep never blocks request handling).
    pub job_workers: usize,
    /// Bound on async jobs waiting to start; submissions past it get
    /// `429` + `Retry-After`.
    pub job_queue_depth: usize,
    /// Per-connection read/write timeout on client sockets.
    pub socket_timeout: Duration,
}

impl ServerConfig {
    /// A sensible default configuration for `dir`: localhost:7070, four
    /// workers, quick scale, two job executors with a queue of eight.
    pub fn new(dir: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            dir: dir.into(),
            addr: "127.0.0.1:7070".to_string(),
            threads: 4,
            default_scale: "quick".to_string(),
            spec_dir: None,
            job_workers: crate::jobs::DEFAULT_JOB_WORKERS,
            job_queue_depth: crate::jobs::DEFAULT_JOB_QUEUE_DEPTH,
            socket_timeout: DEFAULT_SOCKET_TIMEOUT,
        }
    }
}

/// A bound (but not yet serving) HTTP front-end over one results store.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    state: Arc<AppState>,
    threads: usize,
    socket_timeout: Duration,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Opens the results store at `config.dir` — activating it
    /// process-wide so figure regeneration reads/writes it — and binds
    /// the listen socket.
    pub fn bind(config: &ServerConfig) -> io::Result<Server> {
        let store = gaze_sim::results::configure(Some(&config.dir))?
            .expect("configure(Some) always yields a store");
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Server {
            listener,
            state: Arc::new(AppState {
                store,
                default_scale: config.default_scale.clone(),
                spec_dir: config.spec_dir.clone(),
                jobs: JobManager::new(config.job_workers.max(1), config.job_queue_depth),
                started: std::time::Instant::now(),
            }),
            threads: config.threads.max(1),
            socket_timeout: config.socket_timeout,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The address actually bound (resolves ephemeral ports).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can stop a running [`serve`](Server::serve) loop
    /// from another thread.
    pub fn stop_handle(&self) -> StopHandle {
        StopHandle {
            stop: Arc::clone(&self.stop),
            addr: self.listener.local_addr().ok(),
            workers: self.threads,
        }
    }

    /// Serves connections until stopped. Blocks the calling thread.
    ///
    /// Each of the `threads` workers loops on `accept` over its own
    /// clone of the listen socket and handles the connection it got, so
    /// no request waits for a hand-off from another thread.
    ///
    /// On stop, shutdown is graceful and ordered: every worker finishes
    /// the request it is handling and exits, the job executor drains
    /// (queued jobs are failed, *running* jobs finish), and the store
    /// flushes — so a SIGTERM mid-sweep never loses landed rows and
    /// always leaves a loadable store.
    pub fn serve(self) -> io::Result<()> {
        // Clone every socket first, so a failed clone leaves no worker
        // running.
        let listeners = (0..self.threads)
            .map(|_| self.listener.try_clone())
            .collect::<io::Result<Vec<TcpListener>>>()?;
        let mut workers: Vec<JoinHandle<()>> = Vec::with_capacity(self.threads);
        for listener in listeners {
            let state = Arc::clone(&self.state);
            let stop = Arc::clone(&self.stop);
            let socket_timeout = self.socket_timeout;
            workers.push(std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    match listener.accept() {
                        // A connection accepted after `stop()`, one of
                        // its wake-ups or a late client, closes unanswered.
                        Ok(_) if stop.load(Ordering::SeqCst) => break,
                        Ok((stream, _)) => serve_connection(&state, stream, socket_timeout),
                        Err(e) => {
                            gaze_obs::log::warn("gaze-serve", "accept failed", &[("error", &e)])
                        }
                    }
                }
            }));
        }
        for w in workers {
            let _ = w.join();
        }
        // HTTP is quiesced; drain the job layer (running sweeps finish,
        // queued ones fail loudly) and make everything that landed
        // durable before returning.
        self.state.jobs.shutdown();
        if let Err(e) = self.state.store.flush() {
            gaze_obs::log::error("gaze-serve", "final store flush failed", &[("error", &e)]);
        }
        Ok(())
    }

    /// Binds per `config` and serves on a background thread. Returns the
    /// bound address, a stop handle, and the serving thread's join
    /// handle — the integration tests and embedding tools use this.
    pub fn spawn(config: &ServerConfig) -> io::Result<(SocketAddr, StopHandle, JoinHandle<()>)> {
        let server = Server::bind(config)?;
        let addr = server.local_addr()?;
        let stop = server.stop_handle();
        let join = std::thread::spawn(move || {
            if let Err(e) = server.serve() {
                gaze_obs::log::error("gaze-serve", "serve loop failed", &[("error", &e)]);
            }
        });
        Ok((addr, stop, join))
    }
}

/// Stops a serving [`Server`] from another thread.
#[derive(Debug, Clone)]
pub struct StopHandle {
    stop: Arc<AtomicBool>,
    addr: Option<SocketAddr>,
    workers: usize,
}

impl StopHandle {
    /// Requests every worker to exit. A worker blocked in `accept`
    /// notices only when a connection arrives, so this sets the flag and
    /// then makes one throwaway connection per worker; a worker busy
    /// with a request sees the flag when it finishes.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(addr) = self.addr {
            for _ in 0..self.workers {
                let _ = TcpStream::connect(addr);
            }
        }
    }
}

/// Handles one connection: parse, route, respond. All errors are turned
/// into responses (or dropped connections), and a panicking handler is
/// caught and mapped to a `500` — a worker thread survives anything a
/// single request does.
///
/// Every request is timed and counted against its route label
/// (`gaze_http_*`).
fn serve_connection(state: &AppState, mut stream: TcpStream, timeout: Duration) {
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
    let started = std::time::Instant::now();
    let in_flight = crate::obs::in_flight();
    in_flight.add(1);
    let (route, response) = match read_request(&mut stream) {
        Ok(req) => {
            let route = crate::obs::route_label(&req.path);
            let response =
                catch_unwind(AssertUnwindSafe(|| handle(state, &req))).unwrap_or_else(|payload| {
                    Response::error(
                        500,
                        &format!("handler panicked: {}", panic_message(payload.as_ref())),
                    )
                });
            finish_request(&req, route, response.status, started);
            (route, response)
        }
        Err(error_response) => {
            crate::obs::note_request("other", error_response.status, elapsed_us(started));
            ("other", error_response)
        }
    };
    in_flight.sub(1);
    if let Err(e) = response.write_to(&mut stream) {
        // The client hung up first (or timed out); worth a trace, no more.
        gaze_obs::log::trace(
            "gaze-serve",
            "response write failed (client gone)",
            &[("route", &route), ("error", &e)],
        );
    }
}

fn elapsed_us(started: std::time::Instant) -> u64 {
    started.elapsed().as_micros() as u64
}

/// Records one handled request: metrics plus a per-request debug line
/// with a process-unique id.
fn finish_request(
    req: &crate::http::Request,
    route: &'static str,
    status: u16,
    started: std::time::Instant,
) {
    let us = elapsed_us(started);
    crate::obs::note_request(route, status, us);
    if gaze_obs::log::enabled(gaze_obs::log::Level::Debug) {
        gaze_obs::log::debug(
            "gaze-serve",
            "request",
            &[
                ("id", &gaze_obs::log::next_id("req")),
                ("method", &req.method),
                ("path", &req.path),
                ("route", &route),
                ("status", &status),
                ("us", &us),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_are_sane() {
        let cfg = ServerConfig::new("/tmp/some-store");
        assert_eq!(cfg.addr, "127.0.0.1:7070");
        assert_eq!(cfg.threads, 4);
        assert_eq!(cfg.default_scale, "quick");
        assert_eq!(cfg.dir, PathBuf::from("/tmp/some-store"));
        assert_eq!(cfg.job_workers, crate::jobs::DEFAULT_JOB_WORKERS);
        assert_eq!(cfg.job_queue_depth, crate::jobs::DEFAULT_JOB_QUEUE_DEPTH);
        assert_eq!(cfg.socket_timeout, DEFAULT_SOCKET_TIMEOUT);
    }
}
