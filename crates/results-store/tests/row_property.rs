//! Property-style tests of the GZR row format, over every core count.
//!
//! Inputs are produced by a deterministic LCG rather than proptest
//! (unavailable in the offline build environment); each property is
//! checked across many seeds, so the coverage is comparable and every
//! failure is exactly reproducible.

use std::fs;
use std::path::PathBuf;

use results_store::format::{record_bytes, GZR_HEADER_BYTES, GZR_MAX_CORES};
use results_store::{MixRecord, Query, ResultsStore};
use sim_core::stats::{CacheStats, CoreStats, PrefetchStats, SimReport};

/// Deterministic u64 stream (the same LCG idiom as the prefetcher
/// property tests).
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
        self.0
    }
}

fn random_cache_stats(rng: &mut Lcg) -> CacheStats {
    CacheStats {
        demand_accesses: rng.next(),
        demand_hits: rng.next(),
        demand_misses: rng.next(),
        prefetch_fills: rng.next(),
        useful_prefetches: rng.next(),
        useless_prefetches: rng.next(),
    }
}

fn random_core_stats(rng: &mut Lcg) -> CoreStats {
    CoreStats {
        instructions: rng.next(),
        cycles: rng.next(),
        l1d: random_cache_stats(rng),
        l2c: random_cache_stats(rng),
        llc: random_cache_stats(rng),
        prefetch: PrefetchStats {
            requested: rng.next(),
            issued: rng.next(),
            dropped_redundant: rng.next(),
            dropped_queue_full: rng.next(),
            // Never stored: the simulator never increments it.
            dropped_mshr_full: 0,
            late: rng.next(),
        },
    }
}

/// A row with arbitrary counter values (full u64 range) and a core
/// count in 1..=[`GZR_MAX_CORES`], derived entirely from `seed`.
fn random_mix_record(seed: u64) -> MixRecord {
    let mut rng = Lcg::new(seed);
    let cores = (rng.next() % GZR_MAX_CORES as u64 + 1) as usize;
    let report = SimReport {
        cores: (0..cores).map(|_| random_core_stats(&mut rng)).collect(),
    };
    MixRecord {
        mix_fingerprint: rng.next(),
        params_fingerprint: rng.next(),
        prefetcher: format!("pf-{}", rng.next() % 1_000),
        label: format!("mix-{seed}-{}", "w+".repeat((rng.next() % 20) as usize),),
        report,
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gzr-rowprop-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Random counter values, core counts and labels survive
/// write → reopen → query bit-exactly, across many seeds and several
/// segments.
#[test]
fn random_rows_survive_write_reopen_query_bit_exactly() {
    let dir = temp_dir("roundtrip");
    let mut expected: Vec<MixRecord> = Vec::new();
    {
        let mut store = ResultsStore::open(&dir).expect("open");
        for batch in 0..5u64 {
            for i in 0..20u64 {
                let rec = random_mix_record(batch * 1_000 + i + 1);
                // Random keys can collide across seeds; only track rows
                // the store actually kept.
                if store.append(rec.clone()) {
                    expected.push(rec);
                }
            }
            store.flush().expect("flush");
        }
        // One segment per core count per flush.
        assert!(store.segment_count() >= 5);
    }

    let reopened = ResultsStore::open(&dir).expect("reopen");
    let mut stored = reopened.query(&Query::default());
    let mut sorted = expected.clone();
    for rows in [&mut stored, &mut sorted] {
        rows.sort_by_key(MixRecord::key);
    }
    assert_eq!(stored, sorted, "bit-exact");
    for rec in &expected {
        let cores = rec.cores();
        let hit = reopened
            .lookup(
                rec.mix_fingerprint,
                rec.params_fingerprint,
                &rec.prefetcher,
                cores..=cores,
            )
            .expect("stored row");
        assert_eq!(&hit, rec);
        // The typed query finds the same row by its filters.
        let rows = reopened.query(&Query {
            label: Some(rec.label.clone()),
            prefetcher: Some(rec.prefetcher.clone()),
            fingerprint: Some(rec.mix_fingerprint),
            params_fingerprint: Some(rec.params_fingerprint),
            cores: cores..=cores,
            ..Query::default()
        });
        assert!(rows.contains(&hit));
    }
    fs::remove_dir_all(&dir).ok();
}

/// Truncating a segment at *every* byte offset inside a record — from
/// the first header byte to one byte short of the full file — is rejected
/// loudly on open, never silently tolerated.
#[test]
fn truncation_at_every_byte_offset_is_rejected() {
    let dir = temp_dir("truncate");
    let rec = random_mix_record(42);
    {
        let mut store = ResultsStore::open(&dir).expect("open");
        store.append(rec.clone());
        store.flush().expect("flush");
    }
    let seg = fs::read_dir(&dir)
        .expect("dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().and_then(|e| e.to_str()) == Some("gzr"))
        .expect("segment file");
    let bytes = fs::read(&seg).expect("read");
    assert_eq!(bytes.len(), GZR_HEADER_BYTES + record_bytes(rec.cores()));

    for cut in 0..bytes.len() {
        fs::write(&seg, &bytes[..cut]).expect("truncate");
        let err = ResultsStore::open(&dir).expect_err("truncated segment must be rejected");
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::InvalidData,
            "cut at byte {cut}: {err}"
        );
    }

    // Restoring the full bytes makes the store readable again (the loop
    // above really was testing truncation, not some other corruption).
    fs::write(&seg, &bytes).expect("restore");
    let store = ResultsStore::open(&dir).expect("restored store opens");
    assert_eq!(store.query(&Query::default()), vec![rec]);
    fs::remove_dir_all(&dir).ok();
}

/// A segment of another GZR version is refused with an error naming the
/// version (rows of versions 1 and 2 were keyed without a model epoch),
/// and a record-size field of another core count is rejected.
#[test]
fn other_versions_and_record_sizes_are_rejected() {
    let dir = temp_dir("vmismatch");
    let rec = random_mix_record(7);
    {
        let mut store = ResultsStore::open(&dir).expect("open");
        store.append(rec.clone());
        store.flush().expect("flush");
    }
    let seg = fs::read_dir(&dir)
        .expect("dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().and_then(|e| e.to_str()) == Some("gzr"))
        .expect("segment file");
    let bytes = fs::read(&seg).expect("read");

    for version in [1u16, 2, 4] {
        let mut bad = bytes.clone();
        bad[4..6].copy_from_slice(&version.to_le_bytes());
        fs::write(&seg, &bad).expect("write");
        let err = ResultsStore::open(&dir).expect_err("another version is refused");
        assert!(
            err.to_string().contains(&format!("GZR version {version} ")),
            "{err}"
        );
    }

    // A lying record-size field is rejected even with the right version.
    let other = rec.cores() % GZR_MAX_CORES + 1;
    let mut bad = bytes.clone();
    bad[6..8].copy_from_slice(&(record_bytes(other) as u16).to_le_bytes());
    fs::write(&seg, &bad).expect("write");
    assert!(ResultsStore::open(&dir).is_err(), "wrong record size");
    fs::remove_dir_all(&dir).ok();
}
