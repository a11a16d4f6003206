#![deny(missing_docs)]

//! Deterministic synthetic memory-trace generators standing in for the
//! SPEC06/SPEC17, Ligra, PARSEC, CloudSuite, GAP and QMM traces used by the
//! Gaze paper (HPCA 2025).
//!
//! The real traces (DPC-3, CRC-2, Pythia, CVP-1) are not redistributable, so
//! this crate synthesizes access streams that reproduce the *pattern classes*
//! the paper's evaluation depends on:
//!
//! * dense spatial streaming ([`streaming`]),
//! * recurrent spatial footprints whose first accesses disambiguate the
//!   pattern — the Fig. 2 scenario ([`regions`]),
//! * graph analytics interleaving frontier streaming with scattered property
//!   accesses — the Fig. 5 scenario ([`graph`]),
//! * pointer chasing, GUPS and scale-out-server irregularity
//!   ([`irregular`]).
//!
//! All generators are deterministic (seeded from the workload name), so every
//! experiment is exactly reproducible.
//!
//! The [`pack`] module (and the `trace-pack` binary built from this crate)
//! writes any registered workload — or a decoded ChampSim trace — into the
//! on-disk GZT format of [`sim_core::gzt`], which the simulator streams
//! back through a bounded buffer. See `docs/TRACES.md` for the format and
//! the drop-in guide.
//!
//! # Example
//!
//! ```
//! use workloads::suite::{build_workload, workload_names, Suite};
//!
//! let trace = build_workload("bwaves_s", 10_000);
//! assert!(trace.instructions_per_pass() >= 10_000);
//! assert!(workload_names(Suite::Ligra).contains(&"PageRank"));
//! ```

pub mod builder;
pub mod graph;
pub mod irregular;
pub mod pack;
pub mod regions;
pub mod rng;
pub mod streaming;
pub mod suite;

pub use builder::TraceBuilder;
pub use pack::{pack_all_main, pack_suite, pack_workload, PackSummary};
pub use suite::{all_main_workloads, build_workload, is_known_workload, workload_names, Suite};
