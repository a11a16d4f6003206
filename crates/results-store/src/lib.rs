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
//! Keys are content fingerprints, not names: a record is identified by the
//! FNV-1a fingerprint of its trace's record stream, the fingerprint of its
//! [`RunParams`](sim_core::params::RunParams), and the prefetcher name.
//! Re-running the same sweep therefore hits the store regardless of
//! whether the trace came from an in-memory generator or a packed GZT
//! file, and appending the same result twice is a deduplicated no-op.
//!
//! Two record schemas coexist (a store directory may mix segments of
//! both): version-1 [`RunRecord`]s hold one single-core run plus its
//! no-prefetching baseline, and version-2 [`MixRecord`]s hold the
//! per-core counters of one multi-core run, keyed by a *mix* fingerprint
//! ([`sim_core::params::mix_fingerprint`]) folding the core count and
//! every trace in the mix. The store has one code path for both: every
//! operation is generic over the sealed [`Record`] trait, and the
//! per-kind differences (version, size, key, lookup label, content
//! equality, codec, segment-name fields) live only in its two impls.
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
//! use results_store::{ResultsStore, RunQuery, RunRecord};
//! use sim_core::stats::CoreStats;
//!
//! let dir = std::env::temp_dir().join(format!("gzr-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let mut store = ResultsStore::open(&dir).unwrap();
//! store.append(RunRecord {
//!     trace_fingerprint: 0xfeed,
//!     params_fingerprint: 0xbeef,
//!     workload: "bwaves_s".into(),
//!     prefetcher: "gaze".into(),
//!     stats: CoreStats { instructions: 100, cycles: 50, ..Default::default() },
//!     baseline: CoreStats { instructions: 100, cycles: 100, ..Default::default() },
//! });
//! store.flush().unwrap();
//!
//! let reopened = ResultsStore::open(&dir).unwrap();
//! let rows = reopened.query(&RunQuery { prefetcher: Some("gaze".into()), ..Default::default() });
//! assert_eq!(rows.len(), 1);
//! assert_eq!(rows[0].speedup(), 2.0);
//! std::fs::remove_dir_all(&dir).ok();
//! ```

pub mod fault;
pub mod format;
mod obs;
pub mod store;

pub use format::{
    decode_mix_record, decode_record, encode_mix_record, encode_record, MixRecord, Record,
    RecordKey, RunRecord, SegmentRecords,
};
pub use store::{CompactStats, MixQuery, Query, ResultsStore, RunQuery};
