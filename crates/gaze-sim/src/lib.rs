//! Experiment harness reproducing every table and figure of the Gaze
//! (HPCA 2025) evaluation on the `sim-core` simulator with the `workloads`
//! synthetic trace suites.
//!
//! * [`factory`] — build any evaluated prefetcher or Gaze ablation by name,
//! * [`runner`] — single-core, multi-core and multi-level simulation
//!   drivers; they only simulate, with no store and no cache,
//! * [`parallel`] — the thread-pool `parallel_map` the experiment engine
//!   fans (trace × prefetcher) pairs out with (`GAZE_THREADS` caps it),
//! * [`trace_store`] — where traces come from: in-memory generators, or
//!   packed GZT files streamed from `GAZE_TRACE_DIR` (pack them with the
//!   `trace-pack` binary; format spec in `docs/TRACES.md`),
//! * [`results`] — the process-wide handle on the on-disk results store
//!   (`GAZE_RESULTS_DIR`; format spec in `docs/RESULTS.md`) — a warm
//!   store regenerates every figure with zero simulation, and the
//!   `gaze-serve` HTTP front-end browses it,
//! * [`report`] — text/CSV tables,
//! * [`spec`] — the declarative experiment layer: every paper figure is a
//!   built-in [`spec::ExperimentSpec`] and any custom sweep is a spec text
//!   file (`docs/EXPERIMENTS.md`); specs compile to a deduplicated job
//!   plan, execute on the parallel engine — which reads each job from the
//!   results store before simulating it, records misses write-through and
//!   simulates each shared no-prefetching baseline once — and render to
//!   [`report::Table`]s,
//! * [`experiments`] — the experiment registry (scales, names,
//!   [`experiments::run_experiment`]) the binary and the integration
//!   tests share.
//!
//! The `gaze-experiments` binary runs any experiment from the command line:
//!
//! ```text
//! cargo run --release -p gaze-sim --bin gaze-experiments -- fig06 --csv
//! cargo run --release -p gaze-sim --bin gaze-experiments -- run --spec my-sweep.spec
//! ```

pub mod experiments;
pub mod factory;
pub mod parallel;
pub mod report;
pub mod results;
pub mod runner;
pub mod spec;
pub mod trace_store;

pub use factory::{make_prefetcher, HEAD_TO_HEAD, MAIN_PREFETCHERS, MULTICORE_PREFETCHERS};
pub use parallel::{parallel_map, worker_count};
pub use report::Table;
pub use runner::{run_single, RunParams, SingleRun};
