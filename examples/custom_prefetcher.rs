//! Implementing your own prefetcher against the `prefetch_common::Prefetcher`
//! trait and evaluating it in the simulator next to Gaze.
//!
//! The example builds a tiny next-N-line prefetcher, runs it on a streaming
//! and an irregular workload, and compares it with Gaze — the same workflow
//! you would use to prototype a new idea on this infrastructure.
//!
//! ```text
//! cargo run --release --example custom_prefetcher
//! ```

use prefetch_common::access::DemandAccess;
use prefetch_common::prefetcher::Prefetcher;
use prefetch_common::request::PrefetchRequest;
use prefetch_common::sink::RequestSink;

use gaze_sim::report::Table;
use gaze_sim::runner::{records_for, run_single, simulate_core, RunParams};
use workloads::build_workload;

/// A minimal sequential prefetcher: on every demand miss, fetch the next
/// `degree` lines into the L1D.
struct NextNLine {
    degree: usize,
    issued: u64,
}

impl NextNLine {
    fn new(degree: usize) -> Self {
        NextNLine { degree, issued: 0 }
    }
}

impl Prefetcher for NextNLine {
    fn name(&self) -> &str {
        "next-n-line"
    }

    fn on_access(&mut self, access: &DemandAccess, cache_hit: bool, sink: &mut RequestSink) {
        if cache_hit || !access.kind.is_load() {
            return;
        }
        for d in 1..=self.degree as i64 {
            if let Some(block) = access.block().checked_add_signed(d) {
                sink.push(PrefetchRequest::to_l1(block));
                self.issued += 1;
            }
        }
    }

    fn storage_bits(&self) -> u64 {
        8 // a degree register
    }
}

fn main() {
    let params = RunParams::experiment();
    let mut table = Table::new(
        "Custom prefetcher vs Gaze",
        &["workload", "prefetcher", "speedup", "accuracy"],
    );
    for workload in ["bwaves_s", "cassandra"] {
        let trace = build_workload(workload, records_for(&params));
        let baseline = simulate_core(
            &trace,
            Box::new(prefetch_common::NullPrefetcher::new()),
            None,
            &params,
        );
        let custom = simulate_core(&trace, Box::new(NextNLine::new(4)), None, &params);
        let gaze = run_single(&trace, "gaze", &params);
        table.push_row(vec![
            workload.to_string(),
            "next-n-line(4)".to_string(),
            format!("{:.3}", custom.ipc() / baseline.ipc().max(1e-9)),
            format!("{:.3}", custom.overall_accuracy()),
        ]);
        table.push_row(vec![
            workload.to_string(),
            "gaze".to_string(),
            format!("{:.3}", gaze.speedup()),
            format!("{:.3}", gaze.accuracy()),
        ]);
    }
    println!("{table}");
}
