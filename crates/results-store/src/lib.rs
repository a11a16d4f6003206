#![deny(missing_docs)]

//! A persistent, append-only store for simulation results.
//!
//! Every `(trace × prefetcher × run-parameters)` simulation of the
//! experiment harness is deterministic, so its result only ever needs to
//! be computed once. This crate stores those results durably — as
//! directories of little-endian fixed-record **GZR** segment files
//! ([`mod@format`], spec in `docs/RESULTS.md`) — and serves them back
//! through a typed query API ([`store`]). Opening a store scans each
//! segment once and keeps only a sorted key table per segment, so point
//! lookups resolve with one positioned record read and payloads never
//! need to be resident. A [`compact`](ResultsStore::compact) pass merges
//! segments and physically drops duplicate rows.
//!
//! Keys are content fingerprints, not names: a row is identified by the
//! fingerprint of its trace mix ([`sim_core::params::mix_fingerprint`];
//! for a single-core run, the FNV-1a fingerprint of the trace's record
//! stream), the fingerprint of its
//! [`RunParams`](sim_core::params::RunParams) (which folds the model
//! epoch and the core count), and the prefetcher name. Re-running the
//! same sweep therefore hits the store regardless of whether the trace
//! came from an in-memory generator or a packed GZT file, and appending
//! the same result twice is a deduplicated no-op.
//!
//! There is one row kind, [`MixRecord`]: a run of one prefetcher on
//! 1..=8 cores with its per-core counters. A single-core run is a 1-core
//! row ([`RunRecord`] is its view), and every no-prefetching baseline is
//! an ordinary row under `prefetcher = "none"`. Segments hold one core
//! count each, so a lookup or query for one core count skips the others.
//!
//! The crate is dependency-free (std only) like the rest of the
//! workspace. The experiment harness integrates it behind the
//! `GAZE_RESULTS_DIR` environment variable (see `gaze_sim::results`), and
//! the `gaze-serve` crate puts an HTTP query front-end on top.
//!
//! Crash-safety of the flush and compaction pipelines is
//! provable, not assumed: every fallible step (tmp-file create, write,
//! fsync, rename, directory sync, segment/record reads, each compaction
//! phase) carries a named [`fault`] injection point that tests arm to
//! simulate torn writes, failed renames, and kills mid-operation.
//!
//! # Example
//!
//! ```
//! use results_store::{Query, ResultsStore, RunRecord};
//! use sim_core::stats::CoreStats;
//!
//! let dir = std::env::temp_dir().join(format!("gzr-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let mut store = ResultsStore::open(&dir).unwrap();
//! for (prefetcher, cycles) in [("gaze", 50), ("none", 100)] {
//!     store.append(RunRecord {
//!         trace_fingerprint: 0xfeed,
//!         params_fingerprint: 0xbeef,
//!         workload: "bwaves_s".into(),
//!         prefetcher: prefetcher.into(),
//!         stats: CoreStats { instructions: 100, cycles, ..Default::default() },
//!     });
//! }
//! store.flush().unwrap();
//!
//! let reopened = ResultsStore::open(&dir).unwrap();
//! let rows = reopened.query(&Query { prefetcher: Some("gaze".into()), ..Default::default() });
//! assert_eq!(rows.len(), 1);
//! let baseline = reopened.get(0xfeed, 0xbeef, "none").unwrap();
//! assert_eq!(rows[0].report.cores[0].speedup_over(&baseline.stats), 2.0);
//! std::fs::remove_dir_all(&dir).ok();
//! ```

pub mod fault;
pub mod format;
mod obs;
pub mod store;

pub use format::{decode_record, encode_record, MixRecord, RecordKey, RunRecord};
pub use store::{CompactStats, Query, ResultsStore};
