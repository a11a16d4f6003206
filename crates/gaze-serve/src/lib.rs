#![deny(missing_docs)]

//! A hand-rolled, dependency-free HTTP/1.1 front-end over the persistent
//! results store: browse stored sweeps and download figure CSVs without
//! re-simulation.
//!
//! The service is the ROADMAP's "serve results" step toward the
//! heavy-traffic north star: sweeps accumulated by the experiment engine
//! (`GAZE_RESULTS_DIR`, see `gaze_sim::results`) become a queryable
//! corpus. Everything is std-only — `std::net::TcpListener`, a few
//! worker threads that each accept on it ([`server`]), a minimal
//! HTTP/1.1 reader/writer ([`http`]) and the hand-rolled JSON writer
//! [`gaze_obs::json`].
//!
//! Endpoints ([`routes`]; full contract in `docs/RESULTS.md`), one per
//! operation:
//!
//! * `GET /healthz` — liveness + store shape, cache effectiveness,
//!   queue depth and uptime,
//! * `GET /metrics` — every process metric in Prometheus text
//!   exposition format (see `docs/OBSERVABILITY.md`),
//! * `GET /runs` — stored runs as JSON, filtered by query string
//!   (`workload`, `prefetcher`, `scale`, `trace`, `limit`),
//! * `GET /specs` — every runnable experiment spec (built-in figures
//!   plus `--spec-dir` files; see `docs/EXPERIMENTS.md`),
//! * `GET /experiments?spec=NAME` — run a spec (every paper figure is a
//!   built-in one) and return its CSV, byte-identical to
//!   `gaze-experiments run --spec NAME --csv`; stored rows are served
//!   without simulation and missing rows are simulated once,
//!   write-through,
//! * `POST /experiments?spec=NAME` — submit the same work as a background job ([`jobs`]): `202 Accepted` + job
//!   id, bounded queue with `429` + `Retry-After` admission control,
//!   in-flight dedup of identical submissions,
//! * `GET /jobs`, `GET /jobs/<id>`, `GET /jobs/<id>/result` — job
//!   listing, lifecycle status (`queued|running|done|failed`), and the
//!   finished CSV.
//!
//! The store is compacted offline by `gzr-store compact`, also while a
//! server runs on it: every request reopens the store once a segment it
//! knows has gone (reopen-on-stale).
//!
//! Long sweeps run on the job executor pool, never inside an HTTP
//! worker; a panicking handler costs one `500`, not a worker thread; and
//! stopping the server drains running jobs and flushes the store before
//! exiting (the binary wires SIGTERM/SIGINT to this graceful path).
//!
//! Run it with the `gaze-serve` binary:
//!
//! ```text
//! cargo run --release -p gaze-serve --bin gaze-serve -- --dir results/
//! ```

pub mod http;
pub mod jobs;
mod obs;
pub mod routes;
pub mod server;

pub use server::{Server, ServerConfig, StopHandle};
