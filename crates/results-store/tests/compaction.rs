//! Compaction crash-safety: an exhaustive failpoint sweep over every
//! compaction step × fault kind × hit index proving that killing
//! compaction at any point never loses a row, never resurrects a
//! superseded duplicate, and always leaves a directory that reopens
//! clean and compacts successfully afterwards.

use std::collections::HashSet;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use results_store::{fault, MixRecord, Record, ResultsStore, RunRecord};
use sim_core::stats::{CoreStats, SimReport};

/// Every failpoint a compaction can cross, in execution order: the
/// explicit `gzr.compact.*` steps, the loud segment scans, the ordinary
/// crash-safe segment-write path the merged segments go through.
const COMPACT_POINTS: &[&str] = &[
    "gzr.compact.begin",
    "gzr.segment.scan",
    "gzr.compact.write",
    "gzr.segment.create",
    "gzr.segment.write",
    "gzr.segment.fsync",
    "gzr.segment.rename",
    "gzr.segment.dirsync",
    "gzr.compact.remove",
    "gzr.compact.dirsync",
];

const KINDS: &[fault::FaultKind] = &[
    fault::FaultKind::Error(std::io::ErrorKind::Interrupted),
    fault::FaultKind::Error(std::io::ErrorKind::Other),
    fault::FaultKind::ShortWrite,
    fault::FaultKind::Panic,
];

/// Enough probes to walk past every hit of the busiest point (four
/// segment scans, two merged-segment writes).
const MAX_HITS: u64 = 8;

fn kind_name(kind: fault::FaultKind) -> &'static str {
    match kind {
        fault::FaultKind::Error(std::io::ErrorKind::Interrupted) => "interrupted",
        fault::FaultKind::Error(_) => "error",
        fault::FaultKind::ShortWrite => "short-write",
        fault::FaultKind::Panic => "panic",
        fault::FaultKind::Sleep(_) => "sleep",
    }
}

fn run(workload: &str, prefetcher: &str) -> RunRecord {
    let fp = workload.bytes().fold(7u64, |h, b| h * 31 + u64::from(b));
    let stats = CoreStats {
        instructions: 10_000,
        cycles: 4_000 + fp % 997,
        ..CoreStats::default()
    };
    let mut baseline = stats;
    baseline.cycles *= 2;
    RunRecord {
        trace_fingerprint: fp,
        params_fingerprint: 42,
        workload: workload.to_string(),
        prefetcher: prefetcher.to_string(),
        stats,
        baseline,
    }
}

fn mix(label: &str) -> MixRecord {
    let fp = label.bytes().fold(11u64, |h, b| h * 31 + u64::from(b));
    MixRecord {
        mix_fingerprint: fp,
        params_fingerprint: 77,
        prefetcher: "gaze".to_string(),
        label: label.to_string(),
        report: SimReport {
            cores: vec![
                CoreStats {
                    instructions: 9_000,
                    cycles: 5_000 + fp % 997,
                    ..CoreStats::default()
                };
                2
            ],
        },
    }
}

fn canonical_runs() -> Vec<RunRecord> {
    let mut rows = vec![
        run("astar", "gaze"),
        run("bwaves", "gaze"),
        run("mcf", "pmp"),
    ];
    rows.sort_by_key(|r| r.key());
    rows
}

fn canonical_mixes() -> Vec<MixRecord> {
    let mut rows = vec![mix("astar+mcf"), mix("bwaves+lbm"), mix("mcf+omnetpp")];
    rows.sort_by_key(|r| r.key());
    rows
}

/// Four segments with cross-segment duplicates: two writers that opened
/// the same (empty) directory each flush one run segment and one mix
/// segment, overlapping on one run and one mix. Duplicate rows carry
/// byte-identical payloads (derived from the key), so first-wins order
/// never changes what a reader sees.
fn build_fixture(dir: &PathBuf) {
    let _ = fs::remove_dir_all(dir);
    let mut writer_a = ResultsStore::open(dir).expect("open writer a");
    let mut writer_b = ResultsStore::open(dir).expect("open writer b");

    assert!(writer_a.append(run("astar", "gaze")));
    assert!(writer_a.append(run("bwaves", "gaze")));
    writer_a.flush().expect("flush a runs");
    assert!(writer_b.append(run("bwaves", "gaze"))); // duplicate of a's row
    assert!(writer_b.append(run("mcf", "pmp")));
    writer_b.flush().expect("flush b runs");

    assert!(writer_a.append(mix("astar+mcf")));
    assert!(writer_a.append(mix("bwaves+lbm")));
    writer_a.flush().expect("flush a mixes");
    assert!(writer_b.append(mix("bwaves+lbm"))); // duplicate of a's row
    assert!(writer_b.append(mix("mcf+omnetpp")));
    writer_b.flush().expect("flush b mixes");
}

/// The directory reopens cleanly and serves exactly the canonical rows:
/// nothing lost, nothing duplicated, and no `.gzx` file written.
fn assert_canonical(dir: &PathBuf, context: &str) -> ResultsStore {
    assert_no_gzx(dir);
    let store = match ResultsStore::open(dir) {
        Ok(store) => store,
        Err(e) => panic!("{context}: store failed to reopen: {e}"),
    };
    let mut runs = store.records();
    runs.sort_by_key(|r| r.key());
    assert_eq!(runs, canonical_runs(), "{context}: run rows");
    let mut mixes = store.mix_records();
    mixes.sort_by_key(|r| r.key());
    assert_eq!(mixes, canonical_mixes(), "{context}: mix rows");
    let keys: HashSet<_> = runs.iter().map(RunRecord::key).collect();
    assert_eq!(keys.len(), runs.len(), "{context}: duplicate run keys");
    assert_eq!((store.len(), store.mix_len()), (3, 3), "{context}: counts");
    assert_eq!(store.read_errors(), 0, "{context}: read errors");
    store
}

/// Neither a flush nor a compaction writes a `.gzx` index file.
fn assert_no_gzx(dir: &PathBuf) {
    let names: Vec<String> = fs::read_dir(dir)
        .expect("read dir")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        !names.iter().any(|n| n.ends_with(".gzx")),
        "unexpected .gzx file: {names:?}"
    );
}

#[test]
fn clean_compaction_merges_and_drops_duplicates() {
    let dir = std::env::temp_dir().join(format!("gzr-compact-clean-{}", std::process::id()));
    build_fixture(&dir);

    let mut store = assert_canonical(&dir, "before compaction");
    assert_eq!(store.segment_count(), 4);
    let stats = store.compact().expect("compact");
    assert_eq!(stats.segments_before, 4);
    assert_eq!(stats.segments_after, 2);
    assert_eq!((stats.runs, stats.mixes), (3, 3));
    assert_eq!(stats.duplicates_dropped, 2);
    assert_eq!(store.segment_count(), 2);

    // Compacting a compacted store is a no-op.
    let again = store.compact().expect("recompact");
    assert_eq!(again.segments_before, 2);
    assert_eq!(again.segments_after, 2);
    assert_eq!(again.duplicates_dropped, 0);

    // The compacted directory's open decodes each surviving row once
    // (checked before any row read, which would itself decode records)…
    let reopened = ResultsStore::open(&dir).expect("reopen compacted");
    assert_eq!(reopened.records_decoded(), 6, "3 runs + 3 mixes, no dups");
    drop(reopened);
    // …and serves identically.
    let reopened = assert_canonical(&dir, "after compaction");
    assert_eq!(reopened.segment_count(), 2);
    fs::remove_dir_all(&dir).ok();
}

/// The tentpole sweep: for every failpoint × fault kind × hit index,
/// build the fixture, arm the one-shot fault, run compaction (absorbing
/// injected panics), then prove the directory reopens clean with zero
/// lost rows and zero resurrected duplicates — and that a follow-up
/// fault-free compaction finishes the job.
#[test]
fn killing_compaction_anywhere_loses_and_duplicates_nothing() {
    let _guard = fault::exclusive();
    let base = std::env::temp_dir().join(format!("gzr-compact-sweep-{}", std::process::id()));
    let mut cases_fired = 0u64;

    for &point in COMPACT_POINTS {
        for &kind in KINDS {
            for hit in 0..MAX_HITS {
                let context = format!("{point} {} hit {hit}", kind_name(kind));
                let dir = base.join(format!(
                    "{}-{}-{hit}",
                    point.replace('.', "_"),
                    kind_name(kind)
                ));
                build_fixture(&dir);

                let mut store = ResultsStore::open(&dir).expect("open for compaction");
                fault::arm_nth(point, hit, kind);
                let outcome = catch_unwind(AssertUnwindSafe(|| store.compact()));
                let fired = fault::fired(point);
                fault::clear_all();
                drop(store);

                // Interrupted on the buffered write path self-heals, so a
                // fired fault does not imply a failed compaction — but a
                // *non*-fired fault must mean compaction simply ran out of
                // hits for this point and succeeded.
                if !fired {
                    assert!(
                        matches!(outcome, Ok(Ok(_))),
                        "{context}: fault never fired yet compaction failed"
                    );
                    assert_canonical(&dir, &context);
                    fs::remove_dir_all(&dir).ok();
                    break;
                }
                cases_fired += 1;

                let store = assert_canonical(&dir, &context);
                drop(store);

                // A fault-free compaction from the crashed state converges.
                let mut store = ResultsStore::open(&dir).expect("reopen for recovery compact");
                let stats = store
                    .compact()
                    .unwrap_or_else(|e| panic!("{context}: recovery compaction failed: {e}"));
                assert!(
                    stats.segments_after <= 2,
                    "{context}: {} segments survive recovery",
                    stats.segments_after
                );
                drop(store);
                assert_canonical(&dir, &format!("{context} after recovery"));
                fs::remove_dir_all(&dir).ok();
            }
        }
    }

    // Every (point, kind) pair must have fired at least once — otherwise
    // the sweep is probing dead names and proving nothing.
    let pairs = (COMPACT_POINTS.len() * KINDS.len()) as u64;
    assert!(
        cases_fired >= pairs,
        "only {cases_fired} fired cases across {pairs} point/kind pairs"
    );
    fs::remove_dir_all(&base).ok();
}
