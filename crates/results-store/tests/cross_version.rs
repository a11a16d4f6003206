//! Cross-version compatibility: one store directory may mix v1
//! (single-core) and v2 (multi-core) segments, and each record kind is
//! served by its own query surface without disturbing the other.

use std::fs;
use std::path::PathBuf;

use results_store::{MixQuery, MixRecord, ResultsStore, RunQuery, RunRecord};
use sim_core::stats::{CoreStats, SimReport};

fn run_record(workload: &str, prefetcher: &str) -> RunRecord {
    let stats = CoreStats {
        instructions: 8_000,
        cycles: 4_000,
        ..CoreStats::default()
    };
    let mut baseline = stats;
    baseline.cycles = 8_000;
    RunRecord {
        trace_fingerprint: 0x1000 + workload.len() as u64,
        params_fingerprint: 42,
        workload: workload.to_string(),
        prefetcher: prefetcher.to_string(),
        stats,
        baseline,
    }
}

fn mix_record(label: &str, prefetcher: &str, cores: usize) -> MixRecord {
    let core = CoreStats {
        instructions: 8_000,
        cycles: 5_000,
        ..CoreStats::default()
    };
    MixRecord {
        mix_fingerprint: 0x2000 + label.len() as u64 + cores as u64,
        params_fingerprint: 43,
        prefetcher: prefetcher.to_string(),
        label: label.to_string(),
        report: SimReport {
            cores: vec![core; cores],
        },
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gzr-xver-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A store whose segments interleave both versions serves single-core
/// queries from the v1 rows and mix queries from the v2 rows.
#[test]
fn mixed_version_store_serves_both_record_kinds() {
    let dir = temp_dir("mixed");
    {
        let mut store = ResultsStore::open(&dir).expect("open");
        // Segment 1: v1 only.
        store.append(run_record("bwaves_s", "gaze"));
        store.flush().expect("flush");
        // Segments 2+3: one flush holding both kinds writes one segment
        // per version.
        store.append(run_record("mcf_s", "gaze"));
        store.append(mix_record("bwaves_s+mcf_s", "gaze", 2));
        store.append(mix_record("bwaves_s+mcf_s", "none", 2));
        store.flush().expect("flush");
        assert_eq!(store.segment_count(), 3);
    }

    let store = ResultsStore::open(&dir).expect("reopen");
    assert_eq!(store.segment_count(), 3);
    assert_eq!((store.len(), store.mix_len()), (2, 2));

    let singles = store.query(&RunQuery {
        prefetcher: Some("gaze".into()),
        ..RunQuery::default()
    });
    assert_eq!(singles.len(), 2, "both v1 rows, none of the v2 rows");
    assert!(singles.iter().all(|r| r.params_fingerprint == 42));

    let mixes = store.query(&MixQuery::default());
    assert_eq!(mixes.len(), 2, "both v2 rows, none of the v1 rows");
    let mix_fp = mix_record("bwaves_s+mcf_s", "gaze", 2).mix_fingerprint;
    let with = store.get_mix(mix_fp, 43, "gaze").expect("mix row");
    let base = store.get_mix(mix_fp, 43, "none").expect("baseline");
    assert_eq!(
        with.speedup_over(&base),
        1.0,
        "same counters in this fixture"
    );
    fs::remove_dir_all(&dir).ok();
}

/// A v2-only store opened by code querying v1 rows returns empty results
/// — never an error — and vice versa.
#[test]
fn single_version_stores_return_empty_for_the_other_kind() {
    // v2-only store.
    let dir = temp_dir("v2only");
    {
        let mut store = ResultsStore::open(&dir).expect("open");
        store.append(mix_record("a+b+c+d", "gaze", 4));
        store.flush().expect("flush");
    }
    let store = ResultsStore::open(&dir).expect("a v2-only store opens fine");
    assert_eq!(store.len(), 0);
    assert_eq!(store.mix_len(), 1);
    assert!(store.query(&RunQuery::default()).is_empty(), "no v1 rows");
    assert!(store.records().is_empty());
    let mix_fp = mix_record("a+b+c+d", "gaze", 4).mix_fingerprint;
    assert!(store.get(mix_fp, 43, "gaze").is_none());
    fs::remove_dir_all(&dir).ok();

    // v1-only store (what every pre-v2 deployment holds on disk).
    let dir = temp_dir("v1only");
    {
        let mut store = ResultsStore::open(&dir).expect("open");
        store.append(run_record("bwaves_s", "gaze"));
        store.flush().expect("flush");
    }
    let store = ResultsStore::open(&dir).expect("a v1-only store still loads");
    assert_eq!(store.len(), 1);
    assert_eq!(store.mix_len(), 0);
    assert!(store.query(&MixQuery::default()).is_empty());
    let trace_fp = run_record("bwaves_s", "gaze").trace_fingerprint;
    assert!(store.get_mix(trace_fp, 42, "gaze").is_none());
    fs::remove_dir_all(&dir).ok();
}
