//! Multi-writer coordination: several stores appending to one directory
//! must never clobber each other's segments.
//!
//! Segment names embed the sequence number, the writer's pid, a
//! per-process nonce and a content hash
//! (`seg-<seq>-<pid>-<nonce>-<hash>.gzr`), so two writers — concurrent
//! handles in one process, or independent processes — always pick
//! distinct names even when they race on the same sequence number.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};

use results_store::{ResultsStore, RunRecord};
use sim_core::params::Fnv1a;
use sim_core::stats::CoreStats;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gzr-multiw-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn record(workload: &str, cycles: u64) -> RunRecord {
    let stats = CoreStats {
        instructions: 10_000,
        cycles,
        ..CoreStats::default()
    };
    let mut hasher = Fnv1a::new();
    for b in workload.bytes() {
        hasher.mix(u64::from(b));
    }
    RunRecord {
        trace_fingerprint: hasher.finish(),
        params_fingerprint: 42,
        workload: workload.to_string(),
        prefetcher: "gaze".to_string(),
        stats,
    }
}

/// Segment file names written under the current scheme carry the
/// writer's pid and a unique per-process nonce.
#[test]
fn segment_names_embed_pid_and_nonce() {
    let dir = temp_dir("names");
    let mut store = ResultsStore::open(&dir).expect("open");
    store.append(record("a", 1_000));
    store.flush().expect("flush");
    store.append(record("b", 2_000));
    store.flush().expect("flush");

    let all_names: Vec<String> = std::fs::read_dir(&dir)
        .expect("read dir")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    let names: Vec<&String> = all_names.iter().filter(|n| n.ends_with(".gzr")).collect();
    assert_eq!(names.len(), 2);
    let pid = format!("{:08x}", std::process::id());
    let mut nonces = HashSet::new();
    for name in &names {
        let stem = name
            .strip_prefix("seg-")
            .and_then(|n| n.strip_suffix(".gzr"))
            .unwrap_or_else(|| panic!("unexpected segment name {name}"));
        let parts: Vec<&str> = stem.split('-').collect();
        assert_eq!(parts.len(), 4, "seq-pid-nonce-hash in {name}");
        assert_eq!(parts[1], pid, "writer pid in {name}");
        assert!(nonces.insert(parts[2].to_string()), "nonce reused: {name}");
    }
    assert!(
        !all_names.iter().any(|n| n.ends_with(".gzx")),
        "a flush writes no .gzx index: {all_names:?}"
    );
    assert_eq!(all_names.len(), 2, "exactly two segments: {all_names:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Many concurrent writer handles on one directory: every writer's every
/// flush lands as its own segment, no name collisions, and a fresh open
/// sees the union of all rows.
#[test]
fn concurrent_writers_never_clobber_each_other() {
    const WRITERS: usize = 4;
    const FLUSHES: usize = 5;
    const ROWS_PER_FLUSH: usize = 3;

    let dir = temp_dir("concurrent");
    std::fs::create_dir_all(&dir).expect("create dir");
    let barrier = Arc::new(Barrier::new(WRITERS));
    let handles: Vec<_> = (0..WRITERS)
        .map(|writer| {
            let dir = dir.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut store = ResultsStore::open(&dir).expect("open writer");
                // Start all writers together to maximise racing on the
                // same sequence numbers.
                barrier.wait();
                for flush in 0..FLUSHES {
                    for row in 0..ROWS_PER_FLUSH {
                        let name = format!("w{writer}-f{flush}-r{row}");
                        assert!(store.append(record(&name, 1_000)));
                    }
                    store.flush().expect("flush");
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("writer thread");
    }

    let merged = ResultsStore::open(&dir).expect("reopen");
    assert_eq!(
        merged.len(),
        WRITERS * FLUSHES * ROWS_PER_FLUSH,
        "every writer's every row survived"
    );
    assert_eq!(
        merged.segment_count(),
        WRITERS * FLUSHES,
        "one segment per flush, none clobbered"
    );
    assert_eq!(merged.conflicting_appends(), 0);
    for writer in 0..WRITERS {
        for flush in 0..FLUSHES {
            for row in 0..ROWS_PER_FLUSH {
                let name = format!("w{writer}-f{flush}-r{row}");
                let rec = record(&name, 1_000);
                assert!(
                    merged.get(rec.trace_fingerprint, 42, "gaze").is_some(),
                    "missing {name}"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The stale-reload path composes with concurrent writers: a reader
/// handle picks up everything the racing writers flushed.
#[test]
fn reader_reloads_rows_flushed_by_racing_writers() {
    let dir = temp_dir("reload-race");
    let mut reader = ResultsStore::open(&dir).expect("open reader");

    let writers: Vec<_> = (0..3)
        .map(|writer| {
            let dir = dir.clone();
            std::thread::spawn(move || {
                let mut store = ResultsStore::open(&dir).expect("open writer");
                store.append(record(&format!("race-{writer}"), 3_000));
                store.flush().expect("flush");
            })
        })
        .collect();
    for w in writers {
        w.join().expect("writer thread");
    }

    assert!(reader.is_stale().expect("stale check"));
    assert!(reader.reload_if_stale().expect("reload"));
    assert_eq!(reader.len(), 3);
    std::fs::remove_dir_all(&dir).ok();
}
