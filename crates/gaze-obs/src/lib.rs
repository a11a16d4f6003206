#![deny(missing_docs)]

//! Dependency-free, std-only observability for the Gaze reproduction
//! stack.
//!
//! Two halves, both process-global and cheap enough to leave on
//! everywhere, plus the workspace's one JSON writer ([`json`]):
//!
//! * [`metrics`] — a registry of atomic [`Counter`](metrics::Counter)s,
//!   [`Gauge`](metrics::Gauge)s and fixed log2-bucket
//!   [`Histogram`](metrics::Histogram)s (p50/p99 readout), rendered on
//!   demand in Prometheus text exposition format. Recording through a
//!   held handle is one or two atomic adds — no locks, no allocation —
//!   so instrumentation never perturbs what it measures (the sim
//!   determinism suites run with it enabled).
//! * [`log`] — a leveled structured logger emitting one
//!   `ts=… level=… target=… msg=… key=value` line per event to stderr,
//!   filtered by the `GAZE_LOG` environment variable
//!   (`off|error|warn|info|debug|trace`, default `info`), with
//!   process-unique id minting for request correlation.
//!
//! Every layer of the stack registers its own series against the one
//! [`metrics::registry`]: `gaze-serve` (per-route request counters and
//! latency histograms, job lifecycle), `results-store` (`gzr_*` decode /
//! pread counters, flush and compaction durations), `gaze-sim`
//! (store hit/miss, per-job wall time) and `sim-core` (cycles stepped
//! vs. skipped). `gaze-serve` exposes the rendered registry at
//! `GET /metrics`; see `docs/OBSERVABILITY.md` for the metric catalog
//! and naming conventions.

pub mod json;
pub mod log;
pub mod metrics;
