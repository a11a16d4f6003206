//! GZR — the on-disk segment format of the results store.
//!
//! A GZR segment is a compact little-endian encoding of a batch of
//! records, in the same style as the GZT trace format: a fixed 32-byte
//! header followed by fixed-width records. The full specification (every
//! field, offset and invariant) lives in `docs/RESULTS.md`; this module
//! is the reference implementation.
//!
//! There is one record kind, the [`MixRecord`]: one run of one
//! prefetcher on a mix of 1..=[`GZR_MAX_CORES`] traces, one per core. A
//! single-core run is a 1-core mix, and every no-prefetching baseline is
//! an ordinary row under `prefetcher = "none"`. A segment holds rows of
//! one core count, which its header's record size gives.
//!
//! Header layout:
//!
//! ```text
//! offset  size  field
//! 0       4     magic, b"GZR1"
//! 4       2     version (u16 LE) = 3
//! 6       2     record_size (u16 LE) = 192 + 200 × cores
//! 8       8     record_count (u64 LE)
//! 16      16    reserved, must be zero
//! 32      record_size*k records
//! ```
//!
//! A record is:
//!
//! ```text
//! offset  size       field
//! 0       8          fingerprint (u64 LE)
//! 8       8          params_fingerprint (u64 LE)
//! 16      48         prefetcher name (NUL-padded UTF-8)
//! 64      128        label (NUL-padded UTF-8)
//! 192     200×cores  per-core CoreStats, core order
//! ```
//!
//! A `CoreStats` block is `instructions, cycles`, then the six counters of
//! each of `l1d`, `l2c`, `llc` (`demand_accesses, demand_hits,
//! demand_misses, prefetch_fills, useful_prefetches, useless_prefetches`),
//! then five prefetch counters (`requested, issued, dropped_redundant,
//! dropped_queue_full, late`). `PrefetchStats::dropped_mshr_full` is not
//! stored: the simulator never increments it, and it decodes as 0.
//!
//! Records store the *raw integer counters*, never derived floats: every
//! metric (speedup, IPC, coverage, accuracy) is recomputed from the exact
//! `u64`s, so a figure regenerated from the store is bit-identical to one
//! computed from a fresh simulation.
//!
//! Versions 1 and 2 (a single-core record embedding its baseline, and a
//! fixed 8-slot mix record) keyed rows without a model epoch; their
//! segments are refused, never served.

use std::io::{self, Read, Write};

use sim_core::stats::{CacheStats, CoreStats, PrefetchStats, SimReport};

/// Magic bytes at the start of every GZR segment.
pub const GZR_MAGIC: [u8; 4] = *b"GZR1";

/// The segment format version this build reads and writes.
pub const GZR_VERSION: u16 = 3;

/// Size of the fixed segment header.
pub const GZR_HEADER_BYTES: usize = 32;

/// Size of the NUL-padded prefetcher name field.
pub const GZR_NAME_BYTES: usize = 48;

/// Size of the NUL-padded label field (a workload name, or the workload
/// names of a mix joined by `+`).
pub const GZR_LABEL_BYTES: usize = 128;

/// Maximum cores per record (the paper's multi-core studies top out at
/// eight).
pub const GZR_MAX_CORES: usize = 8;

/// Size of one encoded [`CoreStats`] block (25 × u64).
pub const GZR_CORESTATS_BYTES: usize = 200;

/// Size of a record's fixed part: two fingerprints, prefetcher name and
/// label.
const ROW_HEAD_BYTES: usize = 8 + 8 + GZR_NAME_BYTES + GZR_LABEL_BYTES;

/// Size of one encoded record of `cores` cores.
pub const fn record_bytes(cores: usize) -> usize {
    ROW_HEAD_BYTES + cores * GZR_CORESTATS_BYTES
}

/// The dedup/lookup key of a record: one row exists in the store per
/// (mix fingerprint, run-parameter fingerprint, prefetcher).
pub type RecordKey = (u64, u64, String);

/// The one stored row: a run of one prefetcher on 1..=[`GZR_MAX_CORES`]
/// traces, keyed by their mix fingerprint, holding the raw per-core
/// statistics of the full [`SimReport`].
///
/// A row does not embed its baseline: the no-prefetching run of the same
/// mix is its own row under `prefetcher = "none"`, shared by every
/// prefetcher evaluated on that mix.
#[derive(Debug, Clone, PartialEq)]
pub struct MixRecord {
    /// Fingerprint of the trace mix
    /// ([`sim_core::params::mix_fingerprint`]): for one core, the trace's
    /// own fingerprint.
    pub mix_fingerprint: u64,
    /// Fingerprint of the run parameters *at the mix's core count*
    /// ([`sim_core::params::RunParams::fingerprint`]).
    pub params_fingerprint: u64,
    /// Prefetcher name (`"none"` for a baseline row).
    pub prefetcher: String,
    /// Human-readable label: the workload name, or the workload names of
    /// a mix joined by `+` (possibly truncated to [`GZR_LABEL_BYTES`]).
    /// The identity key is the fingerprint; the label guards lookups
    /// against collisions.
    pub label: String,
    /// Per-core raw counters (1..=[`GZR_MAX_CORES`] cores).
    pub report: SimReport,
}

impl MixRecord {
    /// Number of cores in the mix.
    pub fn cores(&self) -> usize {
        self.report.cores.len()
    }

    /// The key this row is stored under.
    pub fn key(&self) -> RecordKey {
        let (fingerprint, params, prefetcher) = self.key_parts();
        (fingerprint, params, prefetcher.to_string())
    }

    /// The key parts, borrowed.
    pub(crate) fn key_parts(&self) -> (u64, u64, &str) {
        (
            self.mix_fingerprint,
            self.params_fingerprint,
            &self.prefetcher,
        )
    }

    /// Arithmetic-mean IPC across cores.
    pub fn mean_ipc(&self) -> f64 {
        self.report.mean_ipc()
    }

    /// Geometric-mean per-core speedup over `baseline` (normally the
    /// `"none"` row of the same mix).
    pub fn speedup_over(&self, baseline: &MixRecord) -> f64 {
        self.report.speedup_over(&baseline.report)
    }
}

/// The single-core view of a 1-core row: what
/// [`ResultsStore::get`](crate::ResultsStore::get) and
/// [`records`](crate::ResultsStore::records) return, and what appends as
/// a 1-core [`MixRecord`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// FNV-1a fingerprint of the trace's record stream
    /// ([`sim_core::trace::source_fingerprint`]).
    pub trace_fingerprint: u64,
    /// Fingerprint of the run parameters
    /// ([`sim_core::params::RunParams::fingerprint`]).
    pub params_fingerprint: u64,
    /// Workload name (the row's label).
    pub workload: String,
    /// Prefetcher name, as understood by the experiment factory.
    pub prefetcher: String,
    /// Statistics of the run.
    pub stats: CoreStats,
}

impl From<RunRecord> for MixRecord {
    fn from(run: RunRecord) -> MixRecord {
        MixRecord {
            mix_fingerprint: run.trace_fingerprint,
            params_fingerprint: run.params_fingerprint,
            prefetcher: run.prefetcher,
            label: run.workload,
            report: SimReport {
                cores: vec![run.stats],
            },
        }
    }
}

impl RunRecord {
    /// The view of a stored 1-core row.
    pub(crate) fn from_row(row: MixRecord) -> RunRecord {
        debug_assert_eq!(row.cores(), 1, "a run view of a multi-core row");
        RunRecord {
            trace_fingerprint: row.mix_fingerprint,
            params_fingerprint: row.params_fingerprint,
            workload: row.label,
            prefetcher: row.prefetcher,
            stats: row.report.cores[0],
        }
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn put_u64(buf: &mut [u8], offset: &mut usize, v: u64) {
    buf[*offset..*offset + 8].copy_from_slice(&v.to_le_bytes());
    *offset += 8;
}

fn get_u64(buf: &[u8], offset: &mut usize) -> u64 {
    let v = u64::from_le_bytes(buf[*offset..*offset + 8].try_into().expect("8-byte slice"));
    *offset += 8;
    v
}

fn put_cache_stats(buf: &mut [u8], offset: &mut usize, s: &CacheStats) {
    put_u64(buf, offset, s.demand_accesses);
    put_u64(buf, offset, s.demand_hits);
    put_u64(buf, offset, s.demand_misses);
    put_u64(buf, offset, s.prefetch_fills);
    put_u64(buf, offset, s.useful_prefetches);
    put_u64(buf, offset, s.useless_prefetches);
}

fn get_cache_stats(buf: &[u8], offset: &mut usize) -> CacheStats {
    CacheStats {
        demand_accesses: get_u64(buf, offset),
        demand_hits: get_u64(buf, offset),
        demand_misses: get_u64(buf, offset),
        prefetch_fills: get_u64(buf, offset),
        useful_prefetches: get_u64(buf, offset),
        useless_prefetches: get_u64(buf, offset),
    }
}

fn put_core_stats(buf: &mut [u8], offset: &mut usize, s: &CoreStats) {
    put_u64(buf, offset, s.instructions);
    put_u64(buf, offset, s.cycles);
    put_cache_stats(buf, offset, &s.l1d);
    put_cache_stats(buf, offset, &s.l2c);
    put_cache_stats(buf, offset, &s.llc);
    put_u64(buf, offset, s.prefetch.requested);
    put_u64(buf, offset, s.prefetch.issued);
    put_u64(buf, offset, s.prefetch.dropped_redundant);
    put_u64(buf, offset, s.prefetch.dropped_queue_full);
    put_u64(buf, offset, s.prefetch.late);
}

fn get_core_stats(buf: &[u8], offset: &mut usize) -> CoreStats {
    CoreStats {
        instructions: get_u64(buf, offset),
        cycles: get_u64(buf, offset),
        l1d: get_cache_stats(buf, offset),
        l2c: get_cache_stats(buf, offset),
        llc: get_cache_stats(buf, offset),
        prefetch: PrefetchStats {
            requested: get_u64(buf, offset),
            issued: get_u64(buf, offset),
            dropped_redundant: get_u64(buf, offset),
            dropped_queue_full: get_u64(buf, offset),
            dropped_mshr_full: 0,
            late: get_u64(buf, offset),
        },
    }
}

fn put_name(buf: &mut [u8], offset: &mut usize, name: &str, width: usize) -> io::Result<()> {
    let bytes = name.as_bytes();
    if bytes.is_empty() || bytes.len() > width || bytes.contains(&0) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "GZR name must be 1..={width} NUL-free bytes, got {:?}",
                name
            ),
        ));
    }
    buf[*offset..*offset + bytes.len()].copy_from_slice(bytes);
    // The remainder is already zero (records encode into zeroed buffers).
    *offset += width;
    Ok(())
}

fn get_name(buf: &[u8], offset: &mut usize, width: usize) -> io::Result<String> {
    let field = &buf[*offset..*offset + width];
    *offset += width;
    let end = field.iter().position(|&b| b == 0).unwrap_or(width);
    if end == 0 || field[end..].iter().any(|&b| b != 0) {
        return Err(invalid(
            "GZR name field is empty or not NUL-padded".to_string(),
        ));
    }
    String::from_utf8(field[..end].to_vec()).map_err(|_| invalid("GZR name is not UTF-8".into()))
}

/// Encodes one record into its [`record_bytes`]`(cores)`-long on-disk
/// form.
///
/// Fails if the prefetcher name or label is empty, over-long or contains
/// a NUL byte, or if the report has zero or more than [`GZR_MAX_CORES`]
/// cores.
pub fn encode_record(rec: &MixRecord) -> io::Result<Vec<u8>> {
    let cores = rec.cores();
    if cores == 0 || cores > GZR_MAX_CORES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("GZR record must hold 1..={GZR_MAX_CORES} cores, got {cores}"),
        ));
    }
    let mut buf = vec![0u8; record_bytes(cores)];
    let mut off = 0;
    put_u64(&mut buf, &mut off, rec.mix_fingerprint);
    put_u64(&mut buf, &mut off, rec.params_fingerprint);
    put_name(&mut buf, &mut off, &rec.prefetcher, GZR_NAME_BYTES)?;
    put_name(&mut buf, &mut off, &rec.label, GZR_LABEL_BYTES)?;
    for core in &rec.report.cores {
        put_core_stats(&mut buf, &mut off, core);
    }
    debug_assert_eq!(off, buf.len());
    Ok(buf)
}

/// Decodes one on-disk record; its length gives its core count and must
/// be [`record_bytes`]`(cores)` for some `cores` in 1..=[`GZR_MAX_CORES`].
pub fn decode_record(buf: &[u8]) -> io::Result<MixRecord> {
    let cores = cores_of(buf.len())
        .ok_or_else(|| invalid(format!("GZR record size {} fits no core count", buf.len())))?;
    let mut off = 0;
    let mix_fingerprint = get_u64(buf, &mut off);
    let params_fingerprint = get_u64(buf, &mut off);
    let prefetcher = get_name(buf, &mut off, GZR_NAME_BYTES)?;
    let label = get_name(buf, &mut off, GZR_LABEL_BYTES)?;
    let cores = (0..cores).map(|_| get_core_stats(buf, &mut off)).collect();
    Ok(MixRecord {
        mix_fingerprint,
        params_fingerprint,
        prefetcher,
        label,
        report: SimReport { cores },
    })
}

/// The core count whose records are `record_size` bytes long, if any.
fn cores_of(record_size: usize) -> Option<usize> {
    let body = record_size.checked_sub(ROW_HEAD_BYTES)?;
    let cores = body / GZR_CORESTATS_BYTES;
    (body % GZR_CORESTATS_BYTES == 0 && (1..=GZR_MAX_CORES).contains(&cores)).then_some(cores)
}

/// Writes a complete segment of `cores`-core records (header + records)
/// to `out`. Fails on a record of another core count.
pub fn write_segment(out: &mut impl Write, cores: usize, records: &[MixRecord]) -> io::Result<()> {
    let mut header = [0u8; GZR_HEADER_BYTES];
    header[0..4].copy_from_slice(&GZR_MAGIC);
    header[4..6].copy_from_slice(&GZR_VERSION.to_le_bytes());
    header[6..8].copy_from_slice(&(record_bytes(cores) as u16).to_le_bytes());
    header[8..16].copy_from_slice(&(records.len() as u64).to_le_bytes());
    out.write_all(&header)?;
    for rec in records {
        if rec.cores() != cores {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("a {}-core record in a {cores}-core segment", rec.cores()),
            ));
        }
        out.write_all(&encode_record(rec)?)?;
    }
    Ok(())
}

/// Parses and validates a segment header, returning `(cores,
/// record_count)`. `total_len` must equal header + records exactly.
///
/// A segment of another version is refused with an error naming its
/// version: rows of versions 1 and 2 were keyed without a model epoch,
/// so serving them could pass a pre-fix result off as current.
fn read_header(
    input: &mut impl Read,
    total_len: u64,
    context: &str,
) -> io::Result<(usize, u64)> {
    let mut header = [0u8; GZR_HEADER_BYTES];
    if total_len < GZR_HEADER_BYTES as u64 {
        return Err(invalid(format!("{context}: truncated GZR header")));
    }
    input.read_exact(&mut header)?;
    if header[0..4] != GZR_MAGIC {
        return Err(invalid(format!("{context}: not a GZR segment (bad magic)")));
    }
    let version = u16::from_le_bytes(header[4..6].try_into().expect("2-byte slice"));
    if version != GZR_VERSION {
        return Err(invalid(format!(
            "{context}: GZR version {version} segment refused: this build reads only \
             version {GZR_VERSION}; rebuild the store (delete it and re-run the sweep)"
        )));
    }
    let record_size = u16::from_le_bytes(header[6..8].try_into().expect("2-byte slice"));
    let cores = cores_of(usize::from(record_size)).ok_or_else(|| {
        invalid(format!(
            "{context}: GZR record size {record_size} fits no core count in 1..={GZR_MAX_CORES}"
        ))
    })?;
    let record_count = u64::from_le_bytes(header[8..16].try_into().expect("8-byte slice"));
    if header[16..32] != [0u8; 16] {
        return Err(invalid(format!(
            "{context}: reserved GZR header bytes are non-zero"
        )));
    }
    // Checked arithmetic: a corrupt record_count must be an InvalidData
    // error, not an overflow panic (debug) or a wrapped length that dodges
    // the size check (release).
    let expected = record_count
        .checked_mul(u64::from(record_size))
        .and_then(|data| data.checked_add(GZR_HEADER_BYTES as u64))
        .ok_or_else(|| {
            invalid(format!(
                "{context}: GZR record count {record_count} overflows the segment size"
            ))
        })?;
    if total_len != expected {
        return Err(invalid(format!(
            "{context}: GZR segment size {total_len} does not match header \
             (expected {expected} for {record_count} {cores}-core records)"
        )));
    }
    Ok((cores, record_count))
}

/// Reads and validates a complete segment from `input`, whose total size
/// must be `total_len` bytes (used to reject truncated files exactly),
/// returning its core count and records.
///
/// `context` names the segment in error messages (typically its path).
pub fn read_segment(
    input: &mut impl Read,
    total_len: u64,
    context: &str,
) -> io::Result<(usize, Vec<MixRecord>)> {
    let (cores, record_count) = read_header(input, total_len, context)?;
    let mut records = Vec::with_capacity(record_count as usize);
    let mut buf = vec![0u8; record_bytes(cores)];
    for _ in 0..record_count {
        input.read_exact(&mut buf)?;
        records.push(decode_record(&buf).map_err(|e| invalid(format!("{context}: {e}")))?);
    }
    Ok((cores, records))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record(seed: u64, cores: usize) -> MixRecord {
        let core_stats: Vec<CoreStats> = (0..cores as u64)
            .map(|c| {
                let mut s = CoreStats {
                    instructions: 10_000 + seed * 7 + c,
                    cycles: 25_000 + seed * 11 + c * 3,
                    ..CoreStats::default()
                };
                s.l1d.demand_accesses = 4_000 + c;
                s.l1d.demand_misses = 900 + seed;
                s.llc.demand_misses = 120 + c;
                s.prefetch.requested = 500 + seed + c;
                s.prefetch.issued = 480;
                s.prefetch.late = 5;
                s
            })
            .collect();
        MixRecord {
            mix_fingerprint: 0xabad_1dea ^ (seed << 4) ^ cores as u64,
            params_fingerprint: 0x5eed_f00d ^ seed,
            prefetcher: "gaze".to_string(),
            label: format!("mix-{seed}-{cores}"),
            report: SimReport { cores: core_stats },
        }
    }

    #[test]
    fn record_encoding_round_trips_every_core_count() {
        for cores in 1..=GZR_MAX_CORES {
            let rec = sample_record(cores as u64, cores);
            let bytes = encode_record(&rec).expect("encode");
            assert_eq!(bytes.len(), record_bytes(cores));
            assert_eq!(decode_record(&bytes).expect("decode"), rec);
        }
    }

    #[test]
    fn segment_round_trips() {
        let records: Vec<_> = (0..7).map(|s| sample_record(s, 2)).collect();
        let mut bytes = Vec::new();
        write_segment(&mut bytes, 2, &records).expect("write");
        assert_eq!(
            bytes.len(),
            GZR_HEADER_BYTES + records.len() * record_bytes(2)
        );
        let decoded = read_segment(&mut bytes.as_slice(), bytes.len() as u64, "mem").expect("read");
        assert_eq!(decoded, (2, records));
        // A record of another core count does not fit the segment.
        let mut out = Vec::new();
        assert!(write_segment(&mut out, 1, &[sample_record(0, 2)]).is_err());
    }

    #[test]
    fn the_mshr_drop_counter_is_not_stored() {
        let mut rec = sample_record(1, 1);
        rec.report.cores[0].prefetch.dropped_mshr_full = 9;
        let decoded = decode_record(&encode_record(&rec).expect("encode")).expect("decode");
        assert_eq!(decoded.report.cores[0].prefetch.dropped_mshr_full, 0);
    }

    #[test]
    fn bad_records_are_rejected_on_encode() {
        let mut rec = sample_record(1, 1);
        rec.report.cores.clear();
        assert!(encode_record(&rec).is_err(), "zero cores");
        let rec = sample_record(1, GZR_MAX_CORES + 1);
        assert!(encode_record(&rec).is_err(), "too many cores");
        for label in [String::new(), "x".repeat(GZR_LABEL_BYTES + 1), "a\0b".into()] {
            let mut rec = sample_record(2, 2);
            rec.label = label;
            assert!(encode_record(&rec).is_err());
        }
        let mut rec = sample_record(2, 2);
        rec.prefetcher = "p".repeat(GZR_NAME_BYTES + 1);
        assert!(encode_record(&rec).is_err());
    }

    #[test]
    fn corrupt_segments_are_rejected() {
        let records: Vec<_> = (0..3).map(|s| sample_record(s, 1)).collect();
        let mut bytes = Vec::new();
        write_segment(&mut bytes, 1, &records).expect("write");
        let read = |b: &[u8]| read_segment(&mut &b[..], b.len() as u64, "m");

        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(read(&bad).is_err(), "bad magic");

        for version in [1u16, 2, 4] {
            let mut bad = bytes.clone();
            bad[4..6].copy_from_slice(&version.to_le_bytes());
            let err = read(&bad).unwrap_err();
            assert!(
                err.to_string().contains(&format!("GZR version {version} ")),
                "{err}"
            );
        }

        let mut bad = bytes.clone();
        bad[6..8].copy_from_slice(&(record_bytes(1) as u16 + 1).to_le_bytes());
        assert!(read(&bad).is_err(), "record size of no core count");

        let cut = bytes.len() - 5;
        assert!(read(&bytes[..cut]).is_err(), "truncated data");

        let mut bad = bytes.clone();
        bad[20] = 1;
        assert!(read(&bad).is_err(), "non-zero reserved bytes");

        // A record count that overflows the size computation is an error,
        // not a panic or a wrapped length.
        let mut bad = bytes.clone();
        bad[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(read(&bad).is_err(), "overflowing record count");
    }

    #[test]
    fn a_run_is_a_one_core_row() {
        let row = sample_record(3, 1);
        let run = RunRecord::from_row(row.clone());
        assert_eq!(run.workload, row.label);
        assert_eq!(run.stats, row.report.cores[0]);
        assert_eq!(MixRecord::from(run), row);
    }

    #[test]
    fn mix_metrics_project_from_raw_counters() {
        let with = sample_record(0, 4);
        let mut base = with.clone();
        base.prefetcher = "none".to_string();
        for core in &mut base.report.cores {
            core.cycles *= 2;
        }
        assert_eq!(with.cores(), 4);
        assert!(with.mean_ipc() > 0.0);
        assert!((with.speedup_over(&base) - 2.0).abs() < 1e-12);
    }
}
