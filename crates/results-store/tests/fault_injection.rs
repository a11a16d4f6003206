//! Fault-injection proofs for the segment flush pipeline.
//!
//! For every registered failpoint in the flush path — tmp-file create,
//! byte writes, fsync, rename, directory sync — and for every fault kind
//! (I/O error, `Interrupted`, short write, panic), these tests inject
//! exactly one fault and assert the crash-safety contract:
//!
//! 1. the store directory *always* reopens cleanly (no partial segment
//!    is ever indexed),
//! 2. only fully flushed rows are visible after reopen,
//! 3. the failed flush leaves its rows pending, and a retried flush
//!    persists everything.
//!
//! The LCG property test at the bottom drives random kill-mid-flush
//! schedules over multi-segment flushes (satellite: crash recovery).

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use results_store::fault::{self, FaultKind};
use results_store::{MixRecord, ResultsStore, RunRecord};
use sim_core::params::Fnv1a;
use sim_core::stats::{CoreStats, SimReport};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gzr-fault-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fnv(s: &str) -> u64 {
    let mut hasher = Fnv1a::new();
    for b in s.bytes() {
        hasher.mix(u64::from(b));
    }
    hasher.finish()
}

fn record(workload: &str, prefetcher: &str, cycles: u64) -> RunRecord {
    let stats = CoreStats {
        instructions: 10_000,
        cycles,
        ..CoreStats::default()
    };
    RunRecord {
        trace_fingerprint: fnv(workload),
        params_fingerprint: 42,
        workload: workload.to_string(),
        prefetcher: prefetcher.to_string(),
        stats,
    }
}

fn mix_record(label: &str, prefetcher: &str, cores: usize, cycles: u64) -> MixRecord {
    MixRecord {
        mix_fingerprint: fnv(label) ^ cores as u64,
        params_fingerprint: 77,
        prefetcher: prefetcher.to_string(),
        label: label.to_string(),
        report: SimReport {
            cores: (0..cores as u64)
                .map(|c| CoreStats {
                    instructions: 10_000 + c,
                    cycles: cycles + c,
                    ..CoreStats::default()
                })
                .collect(),
        },
    }
}

/// Appends the standard batch (3 1-core rows + 2 2-core rows), so a
/// flush writes two segments and hits every failpoint at least twice.
fn seed_pending(store: &mut ResultsStore) {
    for (w, p) in [("bwaves_s", "gaze"), ("bwaves_s", "pmp"), ("mcf_s", "gaze")] {
        assert!(store.append(record(w, p, 5_000)));
    }
    assert!(store.append(mix_record("a+b", "gaze", 2, 9_000)));
    assert!(store.append(mix_record("a+b", "none", 2, 14_000)));
}

/// Asserts the directory holds a loadable store and returns it.
fn reopen_clean(dir: &PathBuf, context: &str) -> ResultsStore {
    match ResultsStore::open(dir) {
        Ok(store) => store,
        Err(e) => panic!("{context}: store failed to reopen after injected fault: {e}"),
    }
}

const FLUSH_POINTS: [&str; 5] = [
    "gzr.segment.create",
    "gzr.segment.write",
    "gzr.segment.fsync",
    "gzr.segment.rename",
    "gzr.segment.dirsync",
];

const KINDS: [FaultKind; 4] = [
    FaultKind::Error(std::io::ErrorKind::Interrupted),
    FaultKind::Error(std::io::ErrorKind::Other),
    FaultKind::ShortWrite,
    FaultKind::Panic,
];

fn kind_name(kind: FaultKind) -> &'static str {
    match kind {
        FaultKind::Error(std::io::ErrorKind::Interrupted) => "interrupted",
        FaultKind::Error(_) => "error",
        FaultKind::ShortWrite => "short-write",
        FaultKind::Panic => "panic",
        FaultKind::Sleep(_) => "sleep",
    }
}

/// The exhaustive sweep of the acceptance criteria: one fault at a time,
/// at every flush failpoint, of every kind, on every hit index the
/// two-segment flush reaches. After each: reopen clean, retry, verify.
#[test]
fn every_single_fault_in_a_two_segment_flush_recovers() {
    let _fx = fault::exclusive();
    let mut cases_fired = 0usize;
    for point in FLUSH_POINTS {
        for kind in KINDS {
            // The two-segment flush passes each point up to twice (1-core
            // then 2-core segment); the write point can see more hits. Probe
            // hit indices until one stops firing.
            for hit in 0..4 {
                let tag = format!("{point}-{}-{hit}", kind_name(kind));
                let dir = temp_dir(&tag);
                let mut store = ResultsStore::open(&dir).expect("open");
                seed_pending(&mut store);

                fault::arm_nth(point, hit, kind);
                let flush = catch_unwind(AssertUnwindSafe(|| store.flush()));
                let fired = fault::fired(point);
                fault::clear_all();
                if !fired {
                    // The flush finished before reaching this hit index:
                    // nothing was injected, so it must have succeeded.
                    let flushed = flush
                        .unwrap_or_else(|_| panic!("{tag}: panic without firing"))
                        .unwrap_or_else(|e| panic!("{tag}: fault-free flush failed: {e}"));
                    assert_eq!(flushed, 5, "{tag}");
                    std::fs::remove_dir_all(&dir).ok();
                    break;
                }
                match kind {
                    FaultKind::Panic => assert!(flush.is_err(), "{tag}: expected panic"),
                    _ => match &flush {
                        Ok(Ok(n)) => {
                            // An injected `Interrupted` on the buffered
                            // write path is transparently retried by
                            // `write_all` — the flush self-heals. Any
                            // other kind succeeding means the injection
                            // is broken.
                            assert!(
                                matches!(kind, FaultKind::Error(std::io::ErrorKind::Interrupted)),
                                "{tag}: flush succeeded despite a non-retryable fault"
                            );
                            assert_eq!(*n, 5, "{tag}: self-healed flush lost rows");
                            let healed = reopen_clean(&dir, &tag);
                            assert_eq!((healed.len(), healed.mix_len()), (3, 2), "{tag}");
                            cases_fired += 1;
                            std::fs::remove_dir_all(&dir).ok();
                            continue;
                        }
                        Ok(Err(_)) => {}
                        Err(_) => panic!("{tag}: unexpected panic"),
                    },
                }

                // Contract 1+2: the directory reopens and indexes only
                // complete segments (0, 1 or 2 of them, depending on
                // where the fault landed — never torn rows).
                let after_crash = reopen_clean(&dir, &tag);
                assert!(
                    after_crash.is_empty() || after_crash.len() == 3,
                    "{tag}: partial 1-core segment visible ({} rows)",
                    after_crash.len()
                );
                assert!(
                    after_crash.mix_len() == 0 || after_crash.mix_len() == 2,
                    "{tag}: partial 2-core segment visible ({} rows)",
                    after_crash.mix_len()
                );

                // Contract 3: the failed rows are still pending in the
                // surviving handle (panic cases lose the handle, like a
                // real crash — recovery is re-appending, checked below).
                if flush.is_ok() {
                    assert!(store.pending_len() > 0, "{tag}: failed rows left pending");
                    store
                        .flush()
                        .unwrap_or_else(|e| panic!("{tag}: retried flush failed: {e}"));
                    assert_eq!(store.pending_len(), 0, "{tag}");
                } else {
                    // Simulated process death: reopen and re-append.
                    let mut revived = reopen_clean(&dir, &tag);
                    seed_pending_dedup(&mut revived);
                    revived
                        .flush()
                        .unwrap_or_else(|e| panic!("{tag}: revived flush failed: {e}"));
                }

                let recovered = reopen_clean(&dir, &tag);
                assert_eq!(
                    (recovered.len(), recovered.mix_len()),
                    (3, 2),
                    "{tag}: full row set after retry"
                );
                assert_eq!(recovered.conflicting_appends(), 0, "{tag}");
                cases_fired += 1;
                std::fs::remove_dir_all(&dir).ok();
            }
        }
    }
    // Every (point, kind) pair must have produced at least one firing
    // case, or the sweep silently tested nothing.
    assert!(
        cases_fired >= FLUSH_POINTS.len() * KINDS.len(),
        "only {cases_fired} fault cases actually fired"
    );
}

/// A flush whose 2-core segment fails after the 1-core one landed keeps
/// the survivors addressable: every still-pending row looks up as
/// itself, and re-appending it is a duplicate, never a conflict. The
/// rows interleave core counts, so the survivors move to new pending
/// positions when the landed rows leave.
#[test]
fn a_failed_later_segment_keeps_the_pending_rows_addressable() {
    let _fx = fault::exclusive();
    let dir = temp_dir("later-segment");
    let mut store = ResultsStore::open(&dir).expect("open");
    let singles = [
        record("bwaves_s", "gaze", 5_000),
        record("mcf_s", "gaze", 6_000),
    ];
    let mixes = [
        mix_record("mixX", "gaze", 2, 9_000),
        mix_record("mixX", "none", 2, 14_000),
    ];
    for (single, mix) in singles.iter().zip(&mixes) {
        assert!(store.append(single.clone()));
        assert!(store.append(mix.clone()));
    }

    fault::arm_nth(
        "gzr.segment.create",
        1,
        FaultKind::Error(std::io::ErrorKind::Other),
    );
    assert!(store.flush().is_err(), "the 2-core segment fails");
    assert!(fault::fired("gzr.segment.create"));
    fault::clear_all();
    assert_eq!((store.len(), store.pending_len()), (2, 2));

    for mix in &mixes {
        let found = store.get_mix(mix.mix_fingerprint, mix.params_fingerprint, &mix.prefetcher);
        assert_eq!(found.as_ref(), Some(mix), "pending {} row", mix.prefetcher);
        assert!(!store.append(mix.clone()), "re-append is a duplicate");
    }
    for single in &singles {
        let found = store.get(single.trace_fingerprint, single.params_fingerprint, "gaze");
        assert_eq!(
            found.as_ref(),
            Some(single),
            "landed {} row",
            single.workload
        );
    }
    assert_eq!(store.conflicting_appends(), 0);

    assert_eq!(store.flush().expect("retry"), 2);
    let recovered = reopen_clean(&dir, "later-segment");
    assert_eq!((recovered.len(), recovered.mix_len()), (2, 2));
    assert_eq!(recovered.conflicting_appends(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Like [`seed_pending`] but tolerant of rows that already landed.
fn seed_pending_dedup(store: &mut ResultsStore) {
    for (w, p) in [("bwaves_s", "gaze"), ("bwaves_s", "pmp"), ("mcf_s", "gaze")] {
        store.append(record(w, p, 5_000));
    }
    store.append(mix_record("a+b", "gaze", 2, 9_000));
    store.append(mix_record("a+b", "none", 2, 14_000));
}

/// A short write leaves real bytes in the tmp file; the tmp file must
/// never become (or be counted as) a segment.
#[test]
fn short_write_never_indexes_a_torn_segment() {
    let _fx = fault::exclusive();
    let dir = temp_dir("short-write-tmp");
    let mut store = ResultsStore::open(&dir).expect("open");
    seed_pending(&mut store);
    fault::arm("gzr.segment.write", FaultKind::ShortWrite);
    assert!(store.flush().is_err());
    fault::clear_all();

    // No segment files and no leftover tmp files (cleanup removed it).
    let leftovers: Vec<String> = std::fs::read_dir(&dir)
        .expect("read dir")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert!(leftovers.is_empty(), "leftover files: {leftovers:?}");
    assert_eq!(reopen_clean(&dir, "short-write").len(), 0);

    assert_eq!(store.flush().expect("retry"), 5);
    let recovered = reopen_clean(&dir, "short-write-retry");
    assert_eq!((recovered.len(), recovered.mix_len()), (3, 2));
    std::fs::remove_dir_all(&dir).ok();
}

/// Read faults surface loudly on open and reload, then clear.
#[test]
fn read_faults_fail_open_and_reload_then_recover() {
    let _fx = fault::exclusive();
    let dir = temp_dir("read");
    let mut store = ResultsStore::open(&dir).expect("open");
    seed_pending(&mut store);
    store.flush().expect("flush");

    fault::arm(
        "gzr.segment.read",
        FaultKind::Error(std::io::ErrorKind::Other),
    );
    assert!(ResultsStore::open(&dir).is_err(), "open sees the fault");
    fault::clear_all();
    assert_eq!(reopen_clean(&dir, "read-clear").len(), 3);

    // reload_if_stale goes through the same hook.
    let mut reader = ResultsStore::open(&dir).expect("reader");
    let mut writer = ResultsStore::open(&dir).expect("writer");
    writer.append(record("foreign", "pmp", 2_000));
    writer.flush().expect("flush foreign");
    fault::arm(
        "gzr.segment.read",
        FaultKind::Error(std::io::ErrorKind::Other),
    );
    assert!(reader.reload_if_stale().is_err(), "reload sees the fault");
    fault::clear_all();
    assert!(reader.reload_if_stale().expect("reload after clear"));
    assert_eq!(reader.len(), 4);
    std::fs::remove_dir_all(&dir).ok();
}

/// A fault *after* the rename (directory sync) means the segment is
/// already durable but unacknowledged: the retried flush writes a
/// duplicate segment and dedup collapses it on reopen.
#[test]
fn post_rename_fault_duplicates_are_collapsed_on_reopen() {
    let _fx = fault::exclusive();
    let dir = temp_dir("dirsync-dup");
    let mut store = ResultsStore::open(&dir).expect("open");
    for (w, p) in [("a", "gaze"), ("b", "gaze")] {
        store.append(record(w, p, 1_000));
    }
    fault::arm_nth(
        "gzr.segment.dirsync",
        0,
        FaultKind::Error(std::io::ErrorKind::Other),
    );
    assert!(store.flush().is_err());
    fault::clear_all();
    assert_eq!(store.pending_len(), 2, "rows unacknowledged");

    store.flush().expect("retry");
    let reopened = reopen_clean(&dir, "dirsync-dup");
    assert_eq!(reopened.len(), 2, "duplicates collapsed");
    assert_eq!(reopened.segment_count(), 2, "both segments on disk");
    assert_eq!(reopened.duplicates_skipped(), 2);
    assert_eq!(reopened.conflicting_appends(), 0, "identical rows");
    std::fs::remove_dir_all(&dir).ok();
}

/// Deterministic LCG over u64 (same constants as the row property tests).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    fn pick(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// Randomized kill-mid-flush schedules: every round appends fresh rows
/// of both core counts, injects one random fault (point × kind × hit)
/// into the multi-segment flush, then simulates a process restart — reopen from
/// disk only — and re-flushes. The reopened store must never expose a
/// torn record, and by the end every row ever appended is present.
#[test]
fn lcg_kill_mid_flush_schedules_always_recover() {
    let _fx = fault::exclusive();
    let dir = temp_dir("lcg-kill");
    let mut rng = Lcg(0x9e3779b97f4a7c15);
    // workload → cycles, label → (cores, cycles): enough to rebuild each
    // row byte-identically, as a deterministic re-simulation would.
    let mut expected_rows: Vec<(String, u64)> = Vec::new();
    let mut expected_mixes: Vec<(String, usize, u64)> = Vec::new();
    let mut store = ResultsStore::open(&dir).expect("open");

    for round in 0..40 {
        // Fresh rows for this round (unique workloads/labels).
        for i in 0..(1 + rng.pick(3)) {
            let w = format!("wl-{round}-{i}");
            let cycles = 1_000 + rng.pick(9_000) as u64;
            store.append(record(&w, "gaze", cycles));
            expected_rows.push((w, cycles));
        }
        for i in 0..(1 + rng.pick(2)) {
            let label = format!("mix-{round}-{i}");
            // Two to five cores: 1-core rows are the single-core ones.
            let cores = 2 + rng.pick(4);
            let cycles = 2_000 + rng.pick(9_000) as u64;
            store.append(mix_record(&label, "gaze", cores, cycles));
            expected_mixes.push((label, cores, cycles));
        }

        let point = FLUSH_POINTS[rng.pick(FLUSH_POINTS.len())];
        let kind = KINDS[rng.pick(KINDS.len())];
        let hit = rng.pick(3) as u64;
        fault::arm_nth(point, hit, kind);
        let _ = catch_unwind(AssertUnwindSafe(|| store.flush()));
        fault::clear_all();
        let tag = format!("round {round}: {point}/{}/{hit}", kind_name(kind));

        // Simulate the kill: throw the handle (and its pending rows)
        // away, reopen from disk only, and re-append everything — rows
        // that landed dedup against identical bytes, lost ones go
        // pending again. Any torn record on disk would either fail the
        // reopen or collide with its re-append as a conflict.
        drop(store);
        let mut revived = reopen_clean(&dir, &tag);
        for (w, cycles) in &expected_rows {
            revived.append(record(w, "gaze", *cycles));
        }
        for (label, cores, cycles) in &expected_mixes {
            revived.append(mix_record(label, "gaze", *cores, *cycles));
        }
        assert_eq!(revived.conflicting_appends(), 0, "{tag}: torn record");
        revived
            .flush()
            .unwrap_or_else(|e| panic!("{tag}: recovery flush failed: {e}"));
        store = revived;
    }

    let final_store = reopen_clean(&dir, "final");
    let final_records = final_store.records();
    let final_mix_records = final_store.mix_records();
    let rows: HashSet<&str> = final_records.iter().map(|r| r.workload.as_str()).collect();
    let mixes: HashSet<&str> = final_mix_records.iter().map(|r| r.label.as_str()).collect();
    assert_eq!(rows.len(), expected_rows.len());
    assert!(
        expected_rows.iter().all(|(w, _)| rows.contains(w.as_str())),
        "every single-core row recovered"
    );
    assert_eq!(mixes.len(), expected_mixes.len());
    assert!(
        expected_mixes
            .iter()
            .all(|(l, _, _)| mixes.contains(l.as_str())),
        "every mix row recovered"
    );
    assert_eq!(final_store.conflicting_appends(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// `GAZE_FAILPOINTS` arms points in a fresh process and names every
/// malformed entry in a warning: `gzr-store info` fails at the armed
/// segment read, and the bad entries are skipped, not fatal.
#[test]
fn env_failpoints_arm_a_fresh_process_and_warn_on_bad_entries() {
    let dir = temp_dir("env");
    let mut store = ResultsStore::open(&dir).expect("open");
    store.append(record("a", "gaze", 1_000));
    store.flush().expect("flush");

    let info = |failpoints: &str| {
        std::process::Command::new(env!("CARGO_BIN_EXE_gzr-store"))
            .arg("info")
            .arg(&dir)
            .env("GAZE_FAILPOINTS", failpoints)
            .env("GAZE_LOG", "warn")
            .output()
            .expect("run gzr-store")
    };
    let out = info("junk;gzr.nope=error;gzr.segment.read=error");
    assert!(
        !out.status.success(),
        "the armed segment read fails the open"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("entry=junk"), "{stderr}");
    assert!(stderr.contains("unknown point 'gzr.nope'"), "{stderr}");

    let out = info("gzr.segment.read=1:error");
    assert!(out.status.success(), "the one segment is the 0th hit");
    std::fs::remove_dir_all(&dir).ok();
}
