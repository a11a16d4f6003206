//! `gzr-store` — offline maintenance of a results-store directory.
//!
//! ```text
//! gzr-store info DIR       # segment inventory and row counts
//! gzr-store compact DIR    # merge segments, drop superseded duplicates
//! ```
//!
//! `compact` is crash-safe at every step: killed mid-compaction, the
//! directory reopens with the same logical contents (the merged and
//! superseded segments may briefly coexist; dedup-on-read collapses
//! them, and the next compact finishes the cleanup). It is also safe
//! against a running `gaze-serve`: the server reopens the store on its
//! next request once a segment it knows has gone (reopen-on-stale), and
//! on unix its open file handles keep lookups working until then.

use std::process::ExitCode;

use results_store::ResultsStore;

fn usage() -> ExitCode {
    // gaze-lint: allow(eprintln) -- CLI usage error: bare stderr line is the interface
    eprintln!("usage: gzr-store (info | compact) DIR");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return usage();
    }
    let (Some(command), Some(dir)) = (args.first(), args.get(1)) else {
        return usage();
    };
    if args.len() != 2 {
        return usage();
    }
    let mut store = match ResultsStore::open(dir) {
        Ok(store) => store,
        Err(e) => {
            gaze_obs::log::error(
                "gzr-store",
                "cannot open store",
                &[("dir", &dir), ("error", &e)],
            );
            return ExitCode::FAILURE;
        }
    };
    match command.as_str() {
        "info" => {
            println!("dir:               {dir}");
            println!("segments:          {}", store.segment_count());
            println!("runs:              {}", store.len());
            println!("mix runs:          {}", store.mix_len());
            println!("duplicates merged: {}", store.duplicates_skipped());
            println!("key conflicts:     {}", store.conflicting_appends());
            println!("records decoded:   {}", store.records_decoded());
            ExitCode::SUCCESS
        }
        "compact" => match store.compact() {
            Ok(stats) => {
                println!(
                    "compacted {} segment(s) into {}: {} run row(s), {} mix row(s), \
                     {} duplicate(s) dropped",
                    stats.segments_before,
                    stats.segments_after,
                    stats.runs,
                    stats.mixes,
                    stats.duplicates_dropped
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                gaze_obs::log::error("gzr-store", "compaction failed", &[("error", &e)]);
                ExitCode::FAILURE
            }
        },
        other => {
            // gaze-lint: allow(eprintln) -- CLI usage error: bare stderr line is the interface
            eprintln!("gzr-store: unknown command '{other}'");
            usage()
        }
    }
}
