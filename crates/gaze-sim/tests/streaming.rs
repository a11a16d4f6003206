//! Determinism regression tests for the trace-streaming subsystem.
//!
//! The contract of the GZT path: packing a synthetic workload to disk and
//! streaming it back through the bounded chunk reader must be *invisible*
//! to the simulation — every record identical, every `SimReport` and
//! `SingleRun` bit-identical to the in-memory run, including when one
//! packed file is shared read-only across the parallel engine's workers.

use std::path::{Path, PathBuf};

use gaze_sim::parallel_map;
use gaze_sim::runner::{records_for, run_heterogeneous, run_single, RunParams};
use gaze_sim::trace_store::{load_from_dir_or_build, AnyTrace};
use sim_core::trace::{TraceRecord, TraceSource};
use workloads::build_workload;
use workloads::pack::{gzt_file_name, pack_workload};

/// The fig06-quick workload axis at test budgets: one representative per
/// main suite (streaming, recurrent-footprint, graph, mixed, cloud).
const FIG06_WORKLOADS: [&str; 5] = [
    "bwaves_s",
    "fotonik3d_s",
    "PageRank",
    "facesim",
    "cassandra",
];

fn params() -> RunParams {
    RunParams {
        warmup: 2_000,
        measured: 8_000,
        ..RunParams::test()
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gzt-stream-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Packs every fig06 workload into `dir` and returns (in-memory, streamed)
/// trace pairs whose record streams are asserted identical elsewhere.
fn packed_pair(dir: &Path, instructions: u64) -> (Vec<AnyTrace>, Vec<AnyTrace>) {
    let mut memory = Vec::new();
    let mut streamed = Vec::new();
    for name in FIG06_WORKLOADS {
        pack_workload(name, instructions, &dir.join(gzt_file_name(name))).expect("pack");
        memory.push(load_from_dir_or_build(None, name, instructions));
        let s = load_from_dir_or_build(Some(dir), name, instructions);
        assert!(
            s.is_streamed(),
            "{name} should stream from {}",
            dir.display()
        );
        streamed.push(s);
    }
    (memory, streamed)
}

#[test]
fn packed_trace_replays_the_generator_record_for_record() {
    let dir = temp_dir("records");
    let instructions = 6_000;
    for name in FIG06_WORKLOADS {
        pack_workload(name, instructions, &dir.join(gzt_file_name(name))).expect("pack");
        let mem = build_workload(name, instructions);
        let gzt = load_from_dir_or_build(Some(&dir), name, instructions);
        assert_eq!(gzt.len(), mem.len(), "{name}: record count");
        assert_eq!(
            gzt.instructions_per_pass(),
            mem.instructions_per_pass(),
            "{name}: instruction count"
        );
        let mut reader = gzt.reader();
        // Read past one full pass to also cover the wrap-around path.
        let expected: Vec<TraceRecord> = mem
            .records()
            .iter()
            .chain(mem.records().iter().take(100))
            .copied()
            .collect();
        for (i, want) in expected.iter().enumerate() {
            assert_eq!(
                reader.next_record(),
                *want,
                "{name}: record {i} diverged between disk and generator"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn streamed_multicore_sim_report_is_bit_identical_to_in_memory() {
    let dir = temp_dir("simreport");
    let p = params();
    let (memory, streamed) = packed_pair(&dir, records_for(&p));
    // A heterogeneous four-core mix: one System::run -> one SimReport.
    let mem_refs: Vec<&dyn TraceSource> = memory[..4].iter().map(|t| t as _).collect();
    let str_refs: Vec<&dyn TraceSource> = streamed[..4].iter().map(|t| t as _).collect();
    for prefetcher in ["none", "gaze"] {
        let mem_report = run_heterogeneous(&mem_refs, prefetcher, &p);
        let str_report = run_heterogeneous(&str_refs, prefetcher, &p);
        // SimReport is PartialEq over every per-core counter.
        assert_eq!(
            mem_report, str_report,
            "{prefetcher}: streamed SimReport diverged from the in-memory run"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn streamed_fig06_matrix_is_bit_identical_across_the_parallel_engine() {
    let dir = temp_dir("matrix");
    let p = params();
    let (memory, streamed) = packed_pair(&dir, records_for(&p));
    // The fig06 fan-out: one parallel job per (prefetcher x trace) pair,
    // each simulating the pair and its baseline fresh. The same packed
    // file is shared read-only across all worker threads.
    let pairs: Vec<(&str, usize)> = ["gaze", "pmp"]
        .into_iter()
        .flat_map(|pf| (0..FIG06_WORKLOADS.len()).map(move |ti| (pf, ti)))
        .collect();
    let mem_runs = parallel_map(&pairs, |&(pf, ti)| run_single(&memory[ti], pf, &p));
    let str_runs = parallel_map(&pairs, |&(pf, ti)| run_single(&streamed[ti], pf, &p));
    for (a, b) in mem_runs.iter().zip(&str_runs) {
        assert_eq!(a.workload, b.workload);
        assert_eq!(a.prefetcher, b.prefetcher);
        assert_eq!(
            a.stats, b.stats,
            "{}/{}: streamed stats diverged",
            a.prefetcher, a.workload
        );
        assert_eq!(
            a.baseline, b.baseline,
            "{}/{}: streamed baseline diverged",
            a.prefetcher, a.workload
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
