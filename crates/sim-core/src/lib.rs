#![deny(missing_docs)]

//! A trace-driven, cycle-approximate CPU memory-system simulator for
//! evaluating hardware prefetchers.
//!
//! This crate is the reproduction's stand-in for ChampSim, the simulator used
//! by the Gaze paper (HPCA 2025). It models:
//!
//! * an out-of-order core with a finite ROB, load queue and dispatch width
//!   ([`core`]),
//! * a three-level cache hierarchy (private L1D/L2C, shared LLC) with MSHRs,
//!   prefetch fill levels and per-line usefulness tracking ([`cache`],
//!   [`hierarchy`]),
//! * a banked, channel-limited DRAM with open-row policy ([`dram`]),
//! * multi-core execution with shared-resource contention ([`system`]),
//! * run parameters with scale presets and the stable fingerprints that key
//!   caches and the persistent results store ([`params`]),
//! * the metrics reported in the paper: IPC/speedup, overall prefetch
//!   accuracy, LLC coverage and late-prefetch fraction ([`stats`]),
//! * the [`TraceSource`] abstraction over in-memory and streamed on-disk
//!   traces, with the packed GZT file format ([`trace`], [`gzt`] — spec in
//!   `docs/TRACES.md`).
//!
//! # Example
//!
//! ```
//! use prefetch_common::prefetcher::NullPrefetcher;
//! use sim_core::config::SimConfig;
//! use sim_core::system::System;
//! use sim_core::trace::{Trace, TraceRecord};
//!
//! let records: Vec<_> = (0..500)
//!     .map(|i| TraceRecord::load(0x400000, 0x10000 + i * 64, 3))
//!     .collect();
//! let trace = Trace::new("stream", records);
//! let mut system = System::single_core(
//!     SimConfig::paper_single_core(),
//!     &trace,
//!     Box::new(NullPrefetcher::new()),
//! );
//! let report = system.run(500, 2_000);
//! assert!(report.cores[0].ipc() > 0.0);
//! ```

pub mod cache;
pub mod config;
pub mod core;
pub mod dram;
pub mod gzt;
pub mod hierarchy;
pub mod params;
pub mod stats;
pub mod system;
pub mod trace;

pub use config::{CacheConfig, CoreConfig, DramConfig, SimConfig};
pub use gzt::{GztReader, GztTrace, GztWriter};
pub use hierarchy::{HitLevel, MemoryHierarchy, PrefetchOutcome, Refusal};
pub use params::{records_for, RunParams};
pub use stats::{geometric_mean, CacheStats, CoreStats, PrefetchStats, SimReport};
pub use system::System;
pub use trace::{source_fingerprint, Trace, TraceCursor, TraceReader, TraceRecord, TraceSource};
