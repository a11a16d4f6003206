//! Byte pin of the GZR format: every committed fixture segment
//! (`tests/fixtures/gzr-store`, 1-core and multi-core) decodes and re-encodes
//! to exactly the bytes on disk, through the segment writer and through a
//! store's flush, and the flushed segment's name folds the documented
//! fields.

use std::fs;
use std::path::{Path, PathBuf};

use results_store::format::{read_segment, write_segment};
use results_store::{MixRecord, ResultsStore};
use sim_core::params::Fnv1a;

fn fixture_segments() -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/gzr-store");
    let mut paths: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("fixture store directory")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "gzr"))
        .collect();
    paths.sort();
    paths
}

fn decode(bytes: &[u8], context: &str) -> (usize, Vec<MixRecord>) {
    read_segment(&mut &bytes[..], bytes.len() as u64, context).expect("fixture decodes")
}

fn encode(cores: usize, records: &[MixRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    write_segment(&mut out, cores, records).expect("fixture re-encodes");
    out
}

#[test]
fn fixture_segments_reencode_byte_identically() {
    let mut core_counts = Vec::new();
    for path in fixture_segments() {
        let bytes = fs::read(&path).expect("read fixture");
        let (cores, records) = decode(&bytes, &path.display().to_string());
        core_counts.push(cores);
        assert!(encode(cores, &records) == bytes, "{}", path.display());
    }
    assert!(
        core_counts.contains(&1) && core_counts.iter().any(|&c| c > 1),
        "fixtures cover 1-core and multi-core rows: {core_counts:?}"
    );
}

/// Appending a fixture's rows to an empty store and flushing writes the
/// fixture's bytes again, under a name whose hash folds, per record,
/// `(mix fp, params fp, cores)`, then the writer's pid and nonce.
#[test]
fn store_flush_writes_fixture_bytes_under_the_documented_name_hash() {
    for (n, path) in fixture_segments().into_iter().enumerate() {
        let bytes = fs::read(&path).expect("read fixture");
        let (cores, records) = decode(&bytes, &path.display().to_string());
        let dir = std::env::temp_dir().join(format!("gzr-bytes-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut store = ResultsStore::open(&dir).expect("open");
        let mut hasher = Fnv1a::new();
        for rec in records {
            hasher.mix(rec.mix_fingerprint);
            hasher.mix(rec.params_fingerprint);
            hasher.mix(cores as u64);
            assert!(store.append(rec));
        }
        store.flush().expect("flush");
        let written: Vec<PathBuf> = fs::read_dir(&dir)
            .expect("store dir")
            .map(|e| e.expect("dir entry").path())
            .collect();
        assert_eq!(written.len(), 1, "one segment per core count");
        assert!(
            fs::read(&written[0]).expect("read") == bytes,
            "{}",
            path.display()
        );

        // seg-<seq>-<pid>-<nonce>-<hash>.gzr
        let name = written[0]
            .file_stem()
            .expect("name")
            .to_string_lossy()
            .into_owned();
        let parts: Vec<&str> = name.split('-').collect();
        assert_eq!(parts.len(), 5, "{name}");
        let pid = u64::from_str_radix(parts[2], 16).expect("pid");
        let nonce = u64::from_str_radix(parts[3], 16).expect("nonce");
        assert_eq!(pid, u64::from(std::process::id()), "{name}");
        hasher.mix(pid);
        hasher.mix(nonce);
        assert_eq!(parts[4], format!("{:016x}", hasher.finish()), "{name}");
        fs::remove_dir_all(&dir).ok();
    }
}
