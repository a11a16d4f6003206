//! Multi-core contention: run a four-core heterogeneous mix (Table VI style)
//! under different prefetchers and show how per-core speedups diverge as
//! shared-resource pressure grows.
//!
//! ```text
//! cargo run --release --example multicore_contention
//! ```

use gaze_sim::report::Table;
use gaze_sim::runner::{multicore_speedup, records_for, RunParams};
use workloads::build_workload;

fn main() {
    let params = RunParams::experiment();
    let instructions = records_for(&params);
    let names = ["bwaves_s", "PageRank", "mcf_s", "cassandra"];
    let traces: Vec<_> = names
        .iter()
        .map(|n| build_workload(n, instructions))
        .collect();
    let refs: Vec<&dyn sim_core::trace::TraceSource> = traces.iter().map(|t| t as _).collect();

    let mut table = Table::new(
        "Four-core heterogeneous mix: per-core speedup over no prefetching",
        &[
            "prefetcher",
            "bwaves_s",
            "PageRank",
            "mcf_s",
            "cassandra",
            "geomean",
        ],
    );
    for prefetcher in ["pmp", "vberti", "gaze"] {
        let (with, base, speedup) = multicore_speedup(&refs, prefetcher, &params);
        let mut row = vec![prefetcher.to_string()];
        for core in 0..4 {
            let s = with.cores[core].ipc() / base.cores[core].ipc().max(1e-9);
            row.push(format!("{s:.3}"));
        }
        row.push(format!("{speedup:.3}"));
        table.push_row(row);
    }
    println!("{table}");
    println!("Aggressive, low-accuracy prefetching hurts co-runners through shared LLC and DRAM;");
    println!("Gaze's accuracy keeps the degradation gradual (paper §IV-B6).");
}
