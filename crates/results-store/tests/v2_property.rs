//! Property-style tests of the v2 (multi-core mix) record format.
//!
//! Inputs are produced by a deterministic LCG rather than proptest
//! (unavailable in the offline build environment); each property is
//! checked across many seeds, so the coverage is comparable and every
//! failure is exactly reproducible.

use std::fs;
use std::path::PathBuf;

use results_store::format::{GZR_HEADER_BYTES, GZR_MAX_CORES, GZR_MIX_RECORD_BYTES};
use results_store::{MixQuery, MixRecord, ResultsStore};
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
            dropped_mshr_full: rng.next(),
            late: rng.next(),
        },
    }
}

/// A mix record with arbitrary counter values (full u64 range) and a core
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
    let dir = std::env::temp_dir().join(format!("gzr-v2prop-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Random counter values, core counts and labels survive
/// write → reopen → query bit-exactly, across many seeds and several
/// segments.
#[test]
fn random_mix_records_survive_write_reopen_query_bit_exactly() {
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
        assert_eq!(store.segment_count(), 5);
    }

    let reopened = ResultsStore::open(&dir).expect("reopen");
    assert_eq!(reopened.mix_records(), expected.as_slice(), "bit-exact");
    for rec in &expected {
        let hit = reopened
            .get_mix(rec.mix_fingerprint, rec.params_fingerprint, &rec.prefetcher)
            .expect("stored row");
        assert_eq!(&hit, rec);
        // The typed query finds the same row by its filters.
        let rows = reopened.query(&MixQuery {
            label: Some(rec.label.clone()),
            prefetcher: Some(rec.prefetcher.clone()),
            mix_fingerprint: Some(rec.mix_fingerprint),
            params_fingerprint: Some(rec.params_fingerprint),
            cores: Some(rec.cores()),
            ..MixQuery::default()
        });
        assert!(rows.contains(&hit));
    }
    fs::remove_dir_all(&dir).ok();
}

/// Truncating a v2 segment at *every* byte offset inside a record — from
/// the first header byte to one byte short of the full file — is rejected
/// loudly on open, never silently tolerated.
#[test]
fn truncation_at_every_byte_offset_is_rejected() {
    let dir = temp_dir("truncate");
    {
        let mut store = ResultsStore::open(&dir).expect("open");
        store.append(random_mix_record(42));
        store.flush().expect("flush");
    }
    let seg = fs::read_dir(&dir)
        .expect("dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().and_then(|e| e.to_str()) == Some("gzr"))
        .expect("segment file");
    let bytes = fs::read(&seg).expect("read");
    assert_eq!(bytes.len(), GZR_HEADER_BYTES + GZR_MIX_RECORD_BYTES);

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
    assert_eq!(store.mix_len(), 1);
    fs::remove_dir_all(&dir).ok();
}

/// Flipping the version field of a valid v2 segment to v1 (and vice-style
/// corruptions of the record-size field) is rejected: the record size no
/// longer matches the version.
#[test]
fn version_record_size_mismatches_are_rejected() {
    let dir = temp_dir("vmismatch");
    {
        let mut store = ResultsStore::open(&dir).expect("open");
        store.append(random_mix_record(7));
        store.flush().expect("flush");
    }
    let seg = fs::read_dir(&dir)
        .expect("dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().and_then(|e| e.to_str()) == Some("gzr"))
        .expect("segment file");
    let bytes = fs::read(&seg).expect("read");

    // Claim the v2 payload is version 1: record size 1864 != 528.
    let mut bad = bytes.clone();
    bad[4..6].copy_from_slice(&1u16.to_le_bytes());
    fs::write(&seg, &bad).expect("write");
    assert!(ResultsStore::open(&dir).is_err(), "v1 header on v2 payload");

    // An unknown future version is rejected outright.
    let mut bad = bytes.clone();
    bad[4..6].copy_from_slice(&3u16.to_le_bytes());
    fs::write(&seg, &bad).expect("write");
    assert!(ResultsStore::open(&dir).is_err(), "unknown version");

    // A lying record-size field is rejected even with the right version.
    let mut bad = bytes.clone();
    bad[6..8].copy_from_slice(&528u16.to_le_bytes());
    fs::write(&seg, &bad).expect("write");
    assert!(ResultsStore::open(&dir).is_err(), "wrong record size");
    fs::remove_dir_all(&dir).ok();
}
