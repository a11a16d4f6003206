//! Property tests of the store's segment index.
//!
//! A store served through per-segment sorted key tables and positioned
//! record reads must be *indistinguishable* from one that materializes
//! every record: the LCG property drives randomized stores of rows of 1 to
//! 4 cores and checks every `get`/`get_mix`/`lookup`, every randomized
//! `Query`, and the full record listings bit-identically against a
//! fully-resident reference model.
//!
//! The tests at the bottom pin the cost model: an open decodes each
//! persisted record exactly once, a point lookup decodes exactly the one
//! record it returns, and stray index files left by older stores change
//! nothing.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

use results_store::{MixRecord, Query, ResultsStore, RunRecord};
use sim_core::stats::{CacheStats, CoreStats, PrefetchStats, SimReport};

/// Deterministic u64 stream (same LCG idiom as the row property tests).
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Lcg {
        Lcg(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 8
    }

    fn pick(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    fn chance(&mut self, one_in: usize) -> bool {
        self.pick(one_in) == 0
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gzr-lazy-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

const WORKLOADS: usize = 24;
const PREFETCHERS: [&str; 4] = ["gaze", "pmp", "bingo", "none"];
const PARAMS: [u64; 3] = [41, 42, 43];

/// A run record whose key is drawn from a deliberately small space so
/// duplicate appends happen, with a payload derived from the key (so a
/// duplicate is always byte-identical, like a deterministic re-run).
fn random_run(rng: &mut Lcg) -> RunRecord {
    let w = rng.pick(WORKLOADS);
    let prefetcher = PREFETCHERS[rng.pick(PREFETCHERS.len())];
    let params = PARAMS[rng.pick(PARAMS.len())];
    let stats = CoreStats {
        instructions: 10_000 + w as u64,
        cycles: 3_000 + (w as u64) * 17 + params,
        l1d: CacheStats {
            demand_accesses: 500 + w as u64,
            ..CacheStats::default()
        },
        prefetch: PrefetchStats {
            issued: 90 + w as u64,
            ..PrefetchStats::default()
        },
        ..CoreStats::default()
    };
    RunRecord {
        trace_fingerprint: 0xAAAA_0000 + w as u64,
        params_fingerprint: params,
        workload: format!("wl-{w:02}"),
        prefetcher: prefetcher.to_string(),
        stats,
    }
}

/// A row of 1 to 4 cores from the same small key space.
fn random_mix(rng: &mut Lcg) -> MixRecord {
    let m = rng.pick(WORKLOADS / 2);
    let prefetcher = PREFETCHERS[rng.pick(PREFETCHERS.len())];
    let params = PARAMS[rng.pick(PARAMS.len())];
    let cores = 1 + m % 4;
    MixRecord {
        mix_fingerprint: 0xBBBB_0000 + m as u64,
        params_fingerprint: params,
        prefetcher: prefetcher.to_string(),
        label: format!("mix-{m:02}"),
        report: SimReport {
            cores: (0..cores as u64)
                .map(|c| CoreStats {
                    instructions: 20_000 + c,
                    cycles: 7_000 + (m as u64) * 13 + c,
                    ..CoreStats::default()
                })
                .collect(),
        },
    }
}

/// The fully-resident reference: every row the store kept, in store
/// order, filtered in plain memory, and the segment count its flushes
/// wrote.
struct Reference {
    rows: Vec<MixRecord>,
    segments: usize,
}

impl Reference {
    fn query(&self, q: &Query) -> Vec<MixRecord> {
        let rows = self.rows.iter().filter(|r| q.matches(r)).cloned();
        match q.limit {
            Some(n) => rows.take(n).collect(),
            None => rows.collect(),
        }
    }

    /// The single-core view of every 1-core row.
    fn runs(&self) -> Vec<RunRecord> {
        self.rows
            .iter()
            .filter(|r| r.cores() == 1)
            .map(|r| RunRecord {
                trace_fingerprint: r.mix_fingerprint,
                params_fingerprint: r.params_fingerprint,
                workload: r.label.clone(),
                prefetcher: r.prefetcher.clone(),
                stats: r.report.cores[0],
            })
            .collect()
    }

    fn mixes(&self) -> Vec<MixRecord> {
        self.rows
            .iter()
            .filter(|r| r.cores() > 1)
            .cloned()
            .collect()
    }
}

/// Builds a multi-segment store under `dir` and the matching reference
/// model (only rows `append` kept; each flush writes one segment per
/// core count, in core-count order, so that is the store order).
fn build_store(dir: &Path, seed: u64, rounds: usize) -> Reference {
    let mut rng = Lcg::new(seed);
    let mut reference = Reference {
        rows: Vec::new(),
        segments: 0,
    };
    let mut store = ResultsStore::open(dir).expect("open");
    for _ in 0..rounds {
        let mut round: Vec<MixRecord> = Vec::new();
        for _ in 0..12 {
            let rec = random_run(&mut rng);
            if store.append(rec.clone()) {
                round.push(rec.into());
            }
        }
        for _ in 0..8 {
            let rec = random_mix(&mut rng);
            if store.append(rec.clone()) {
                round.push(rec);
            }
        }
        store.flush().expect("flush");
        round.sort_by_key(MixRecord::cores);
        let cores: HashSet<usize> = round.iter().map(MixRecord::cores).collect();
        reference.segments += cores.len();
        reference.rows.extend(round);
    }
    reference
}

/// A random query over the same value pools the generator draws from
/// (so filters sometimes hit, sometimes miss).
fn random_query(rng: &mut Lcg) -> Query {
    let (label, fingerprint) = if rng.chance(2) {
        (
            format!("wl-{:02}", rng.pick(WORKLOADS + 2)),
            0xAAAA_0000 + rng.pick(WORKLOADS + 2) as u64,
        )
    } else {
        (
            format!("mix-{:02}", rng.pick(WORKLOADS / 2 + 2)),
            0xBBBB_0000 + rng.pick(WORKLOADS / 2 + 2) as u64,
        )
    };
    let low = 1 + rng.pick(4);
    let cores = if rng.chance(3) {
        low..=low + rng.pick(3)
    } else {
        1..=8
    };
    Query {
        label: rng.chance(2).then_some(label),
        prefetcher: rng
            .chance(2)
            .then(|| PREFETCHERS[rng.pick(PREFETCHERS.len())].to_string()),
        params_fingerprint: rng.chance(2).then(|| 40 + rng.pick(5) as u64),
        fingerprint: rng.chance(3).then_some(fingerprint),
        cores,
        limit: rng.chance(3).then(|| rng.pick(10)),
    }
}

/// Every surface of `store` answers bit-identically to the reference.
fn assert_store_matches(store: &ResultsStore, reference: &Reference, seed: u64, context: &str) {
    assert_eq!(store.records(), reference.runs(), "{context}: run listing");
    assert_eq!(
        store.mix_records(),
        reference.mixes(),
        "{context}: mix listing"
    );
    for rec in &reference.rows {
        let cores = rec.cores();
        let hit = store
            .lookup(
                rec.mix_fingerprint,
                rec.params_fingerprint,
                &rec.prefetcher,
                cores..=cores,
            )
            .unwrap_or_else(|| panic!("{context}: missing {}/{}", rec.label, rec.prefetcher));
        assert_eq!(&hit, rec, "{context}: row payload");
        let (fp, params, pf) = (rec.mix_fingerprint, rec.params_fingerprint, &rec.prefetcher);
        assert_eq!(store.get(fp, params, pf).is_some(), cores == 1, "{context}");
        assert_eq!(
            store.get_mix(fp, params, pf).is_some(),
            cores > 1,
            "{context}"
        );
    }
    for rec in reference.runs() {
        let hit = store.get(
            rec.trace_fingerprint,
            rec.params_fingerprint,
            &rec.prefetcher,
        );
        assert_eq!(hit, Some(rec), "{context}: run view");
    }
    // Absent keys miss through the key table, never a wrong row.
    let keys: HashSet<(u64, u64, &str)> = reference
        .rows
        .iter()
        .map(|r| {
            (
                r.mix_fingerprint,
                r.params_fingerprint,
                r.prefetcher.as_str(),
            )
        })
        .collect();
    let mut rng = Lcg::new(seed ^ 0x5eed);
    for _ in 0..200 {
        let probe = random_run(&mut rng);
        let key = (
            probe.trace_fingerprint ^ 0xdead_beef,
            probe.params_fingerprint,
            probe.prefetcher.clone(),
        );
        assert!(!keys.contains(&(key.0, key.1, key.2.as_str())));
        assert!(
            store.lookup(key.0, key.1, &key.2, 1..=8).is_none(),
            "{context}: phantom hit for absent key"
        );
    }
    // Randomized typed queries, including limits.
    let mut rng = Lcg::new(seed ^ 0x51);
    for i in 0..240 {
        let q = random_query(&mut rng);
        assert_eq!(
            store.query(&q),
            reference.query(&q),
            "{context}: query #{i} {q:?}"
        );
    }
}

/// The core property, across several seeds: write → reopen (lazy) →
/// everything bit-identical to the reference.
#[test]
fn lazy_store_answers_identically_to_resident_reference() {
    for seed in [1u64, 7, 1234] {
        let dir = temp_dir(&format!("prop-{seed}"));
        let reference = build_store(&dir, seed, 5);
        let store = ResultsStore::open(&dir).expect("reopen");
        assert!(store.segment_count() >= 2, "multi-segment fixture");
        assert_store_matches(&store, &reference, seed, &format!("seed {seed}"));
        fs::remove_dir_all(&dir).ok();
    }
}

/// Opening decodes each persisted record exactly once (the index scan);
/// after that, each point lookup decodes exactly the one record it
/// returns and an absent key decodes nothing.
#[test]
fn open_decodes_each_record_once_and_lookups_one() {
    let seed = 50u64;
    let dir = temp_dir("decode-once");
    let reference = build_store(&dir, seed, 6);
    let persisted = reference.rows.len() as u64;

    let store = ResultsStore::open(&dir).expect("reopen");
    assert_eq!(
        store.segment_count(),
        reference.segments,
        "one segment per core count per round"
    );
    assert_eq!(store.records_decoded(), persisted, "one decode per record");

    let mut decoded = persisted;
    for rec in &reference.rows {
        let cores = rec.cores();
        let hit = store.lookup(
            rec.mix_fingerprint,
            rec.params_fingerprint,
            &rec.prefetcher,
            cores..=cores,
        );
        assert_eq!(hit.as_ref(), Some(rec));
        decoded += 1;
        assert_eq!(store.records_decoded(), decoded, "one decode per lookup");
    }
    assert!(store.get(0xdead_beef, 42, "gaze").is_none());
    assert!(store.get_mix(0xdead_beef, 42, "gaze").is_none());
    assert_eq!(store.records_decoded(), decoded, "a miss decodes nothing");
    assert_eq!(store.read_errors(), 0);
    fs::remove_dir_all(&dir).ok();
}

/// A well-formed `.gzx` index in the layout older stores wrote next to
/// each segment (header, one filter word, a sorted entry table), with
/// every key hash zeroed — an index that would answer wrongly if it were
/// read.
fn old_index_bytes(version: u16, records: u64) -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"GZX1");
    bytes.extend_from_slice(&1u16.to_le_bytes());
    bytes.extend_from_slice(&version.to_le_bytes());
    bytes.extend_from_slice(&records.to_le_bytes());
    bytes.extend_from_slice(&1u64.to_le_bytes());
    bytes.extend_from_slice(&[0u8; 8]);
    bytes.extend_from_slice(&u64::MAX.to_le_bytes());
    for index in 0..records {
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&index.to_le_bytes());
    }
    bytes
}

/// `.gzx` files from older stores are ignored: a directory holding a
/// well-formed one, a corrupt one and an orphan (no matching segment)
/// opens, answers identically to the reference, is not stale, and leaves
/// all three files byte-for-byte as they were.
#[test]
fn leftover_gzx_files_are_ignored_and_left_untouched() {
    let seed = 77u64;
    let dir = temp_dir("leftover-gzx");
    let reference = build_store(&dir, seed, 3);

    let mut segments: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("read dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    segments.sort();
    // Round one's flush wrote a 1-core segment, then one of more cores.
    let run_segment = &segments[0];
    let mix_segment = &segments[1];
    let run_count = u64::from_le_bytes(
        fs::read(run_segment).expect("segment")[8..16]
            .try_into()
            .expect("8 bytes"),
    );
    let leftovers = [
        (
            run_segment.with_extension("gzx"),
            old_index_bytes(1, run_count),
        ),
        (mix_segment.with_extension("gzx"), b"GZX1 torn".to_vec()),
        (dir.join("seg-99999999-orphan.gzx"), old_index_bytes(2, 3)),
    ];
    for (path, bytes) in &leftovers {
        fs::write(path, bytes).expect("write leftover index");
    }

    let mut store = ResultsStore::open(&dir).expect("open with leftovers");
    assert!(
        !store.is_stale().expect("listing"),
        "leftovers are not segments"
    );
    assert_store_matches(&store, &reference, seed, "leftover .gzx files");
    assert_eq!(store.read_errors(), 0);

    // A later flush neither rewrites nor removes them.
    let mut fresh = random_run(&mut Lcg::new(seed));
    fresh.trace_fingerprint ^= 0xdead_beef;
    assert!(store.append(fresh));
    store.flush().expect("flush");
    assert!(!store.is_stale().expect("listing"));
    for (path, bytes) in &leftovers {
        assert_eq!(&fs::read(path).expect("leftover kept"), bytes, "{path:?}");
    }
    fs::remove_dir_all(&dir).ok();
}
