//! GZR — the on-disk segment format of the results store.
//!
//! A GZR segment is a compact little-endian encoding of a batch of
//! records, in the same style as the GZT trace format: a fixed 32-byte
//! header followed by fixed-width records. The full specification (every
//! field, offset and invariant) lives in `docs/RESULTS.md`; this module
//! is the reference implementation.
//!
//! Two record schemas exist, distinguished by the header's version field
//! (the magic identifies the file *family*; a segment holds records of
//! exactly one version):
//!
//! * **version 1** — [`RunRecord`]: one single-core run plus its
//!   no-prefetching baseline (528 bytes);
//! * **version 2** — [`MixRecord`]: one multi-core run — the per-core
//!   raw counters of a full `SimReport` — keyed by a *mix* fingerprint
//!   folding every trace in the mix and the core count (1864 bytes).
//!
//! Header layout (shared by both versions):
//!
//! ```text
//! offset  size  field
//! 0       4     magic, b"GZR1"
//! 4       2     version (u16 LE) = 1 or 2
//! 6       2     record_size (u16 LE) = 528 (v1) or 1864 (v2)
//! 8       8     record_count (u64 LE)
//! 16      16    reserved, must be zero
//! 32      record_size*k records
//! ```
//!
//! A v1 record is:
//!
//! ```text
//! offset  size  field
//! 0       8     trace_fingerprint (u64 LE)
//! 8       8     params_fingerprint (u64 LE)
//! 16      48    workload name (NUL-padded UTF-8)
//! 64      48    prefetcher name (NUL-padded UTF-8)
//! 112     208   stats    (CoreStats, 26 × u64 LE)
//! 320     208   baseline (CoreStats, 26 × u64 LE)
//! ```
//!
//! A v2 record is:
//!
//! ```text
//! offset  size  field
//! 0       8     mix_fingerprint (u64 LE)
//! 8       8     params_fingerprint (u64 LE)
//! 16      48    prefetcher name (NUL-padded UTF-8)
//! 64      128   mix label (NUL-padded UTF-8)
//! 192     8     core_count (u64 LE, 1..=8)
//! 200     208×8 per-core CoreStats; slots ≥ core_count must be zero
//! ```
//!
//! A `CoreStats` block is `instructions, cycles`, then the six counters of
//! each of `l1d`, `l2c`, `llc` (`demand_accesses, demand_hits,
//! demand_misses, prefetch_fills, useful_prefetches, useless_prefetches`),
//! then the six prefetch counters (`requested, issued, dropped_redundant,
//! dropped_queue_full, dropped_mshr_full, late`).
//!
//! Records store the *raw integer counters*, never derived floats: every
//! metric (speedup, IPC, coverage, accuracy) is recomputed from the exact
//! `u64`s, so a figure regenerated from the store is bit-identical to one
//! computed from a fresh simulation.

use std::fmt::Debug;
use std::io::{self, Read, Write};

use sim_core::params::Fnv1a;
use sim_core::stats::{CacheStats, CoreStats, PrefetchStats, SimReport};

/// Magic bytes at the start of every GZR segment (both versions; the
/// version field selects the record schema).
pub const GZR_MAGIC: [u8; 4] = *b"GZR1";

/// Format version of single-core [`RunRecord`] segments.
pub const GZR_VERSION: u16 = 1;

/// Format version of multi-core [`MixRecord`] segments.
pub const GZR_VERSION_MIX: u16 = 2;

/// Size of the fixed segment header.
pub const GZR_HEADER_BYTES: usize = 32;

/// Size of one encoded v1 record.
pub const GZR_RECORD_BYTES: usize = 528;

/// Size of a NUL-padded name field.
pub const GZR_NAME_BYTES: usize = 48;

/// Size of the NUL-padded mix label field of a v2 record.
pub const GZR_LABEL_BYTES: usize = 128;

/// Maximum cores per v2 record (the paper's multi-core studies top out at
/// eight).
pub const GZR_MAX_CORES: usize = 8;

/// Size of one encoded [`CoreStats`] block (26 × u64).
pub const GZR_CORESTATS_BYTES: usize = 208;

/// Size of one encoded v2 record: two fingerprints, prefetcher name, mix
/// label, core count, and [`GZR_MAX_CORES`] `CoreStats` slots.
pub const GZR_MIX_RECORD_BYTES: usize =
    8 + 8 + GZR_NAME_BYTES + GZR_LABEL_BYTES + 8 + GZR_MAX_CORES * GZR_CORESTATS_BYTES;

/// One persisted single-core run: the key it is stored under plus the raw
/// statistics of the prefetcher-enabled run and its no-prefetching
/// baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// FNV-1a fingerprint of the trace's record stream
    /// ([`sim_core::trace::source_fingerprint`]).
    pub trace_fingerprint: u64,
    /// Fingerprint of the run parameters
    /// ([`sim_core::params::RunParams::fingerprint`]).
    pub params_fingerprint: u64,
    /// Workload name (for display and name-based queries; the identity key
    /// is the trace fingerprint).
    pub workload: String,
    /// Prefetcher name, as understood by the experiment factory.
    pub prefetcher: String,
    /// Statistics with the prefetcher enabled.
    pub stats: CoreStats,
    /// Statistics of the no-prefetching baseline on the same trace.
    pub baseline: CoreStats,
}

/// The dedup/lookup key of a record: one row of a kind exists in the
/// store per (trace or mix fingerprint, run-parameter fingerprint,
/// prefetcher).
pub type RecordKey = (u64, u64, String);

/// One persisted multi-core run (format version 2): the key it is stored
/// under plus the raw per-core statistics of the full [`SimReport`].
///
/// Unlike [`RunRecord`], a mix record does *not* embed its baseline: the
/// no-prefetching run of the same mix is its own record under
/// `prefetcher = "none"`, shared by every prefetcher evaluated on that
/// mix instead of being duplicated into each row.
#[derive(Debug, Clone, PartialEq)]
pub struct MixRecord {
    /// Fingerprint of the trace mix: FNV-1a folding the core count and
    /// every core's trace fingerprint in core order
    /// ([`sim_core::params::mix_fingerprint`]).
    pub mix_fingerprint: u64,
    /// Fingerprint of the run parameters *at the mix's core count*
    /// ([`sim_core::params::RunParams::fingerprint`]).
    pub params_fingerprint: u64,
    /// Prefetcher name (`"none"` for the baseline row of a mix).
    pub prefetcher: String,
    /// Human-readable mix label (workload names joined by `+`, possibly
    /// truncated to [`GZR_LABEL_BYTES`]); the identity key is the mix
    /// fingerprint, the label guards lookups against collisions.
    pub label: String,
    /// Per-core raw counters (1..=[`GZR_MAX_CORES`] cores).
    pub report: SimReport,
}

impl MixRecord {
    /// Number of cores in the mix.
    pub fn cores(&self) -> usize {
        self.report.cores.len()
    }

    /// Arithmetic-mean IPC across cores.
    pub fn mean_ipc(&self) -> f64 {
        self.report.mean_ipc()
    }

    /// Geometric-mean per-core speedup over `baseline` (normally the
    /// `"none"` record of the same mix).
    pub fn speedup_over(&self, baseline: &MixRecord) -> f64 {
        self.report.speedup_over(&baseline.report)
    }
}

/// The records of one decoded segment, tagged by format version.
#[derive(Debug, Clone, PartialEq)]
pub enum SegmentRecords {
    /// A version-1 segment of single-core [`RunRecord`]s.
    Runs(Vec<RunRecord>),
    /// A version-2 segment of multi-core [`MixRecord`]s.
    Mixes(Vec<MixRecord>),
}

/// What differs between the two record kinds. The store and the segment
/// codec are written once over this trait; [`RunRecord`] and
/// [`MixRecord`] are its only implementations (it is sealed).
pub trait Record: crate::store::kind::Sealed + Clone + Debug + PartialEq {
    /// Format version of this kind's segments, also the kind tag folded
    /// into its key hashes: 1 for runs, 2 for mixes.
    const VERSION: u16;
    /// Size of one encoded record.
    const BYTES: usize;

    /// The key parts: (trace or mix fingerprint, params fingerprint,
    /// prefetcher).
    fn key_parts(&self) -> (u64, u64, &str);

    /// The key this record is stored under.
    fn key(&self) -> RecordKey {
        let (fingerprint, params, prefetcher) = self.key_parts();
        (fingerprint, params, prefetcher.to_string())
    }

    /// The name a lookup checks on the stored row (workload name or mix
    /// label): fingerprints are content hashes, so two differently-named
    /// inputs can share a key.
    fn label(&self) -> &str;

    /// Whether `other`, stored under the same key, carries the same
    /// results; a difference counts as a conflict.
    fn same_results(&self, other: &Self) -> bool;

    /// The [`BYTES`](Self::BYTES)-long on-disk form; fails on a record
    /// the format cannot hold.
    fn encode(&self) -> io::Result<impl AsRef<[u8]>>;

    /// Decodes one [`BYTES`](Self::BYTES)-long on-disk record.
    fn decode(buf: &[u8]) -> io::Result<Self>;

    /// Folds this record's share of its segment's file-name hash.
    fn fold_name(&self, hasher: &mut Fnv1a);
}

impl Record for RunRecord {
    const VERSION: u16 = GZR_VERSION;
    const BYTES: usize = GZR_RECORD_BYTES;

    fn key_parts(&self) -> (u64, u64, &str) {
        (
            self.trace_fingerprint,
            self.params_fingerprint,
            &self.prefetcher,
        )
    }

    fn label(&self) -> &str {
        &self.workload
    }

    fn same_results(&self, other: &Self) -> bool {
        self.stats == other.stats && self.baseline == other.baseline
    }

    fn encode(&self) -> io::Result<impl AsRef<[u8]>> {
        encode_record(self)
    }

    fn decode(buf: &[u8]) -> io::Result<Self> {
        decode_record(buf.try_into().expect("a GZR_RECORD_BYTES buffer"))
    }

    fn fold_name(&self, hasher: &mut Fnv1a) {
        hasher.mix(self.trace_fingerprint);
        hasher.mix(self.params_fingerprint);
        hasher.mix(self.stats.cycles);
    }
}

impl Record for MixRecord {
    const VERSION: u16 = GZR_VERSION_MIX;
    const BYTES: usize = GZR_MIX_RECORD_BYTES;

    fn key_parts(&self) -> (u64, u64, &str) {
        (
            self.mix_fingerprint,
            self.params_fingerprint,
            &self.prefetcher,
        )
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn same_results(&self, other: &Self) -> bool {
        self.report == other.report
    }

    fn encode(&self) -> io::Result<impl AsRef<[u8]>> {
        encode_mix_record(self)
    }

    fn decode(buf: &[u8]) -> io::Result<Self> {
        decode_mix_record(buf.try_into().expect("a GZR_MIX_RECORD_BYTES buffer"))
    }

    fn fold_name(&self, hasher: &mut Fnv1a) {
        hasher.mix(self.mix_fingerprint);
        hasher.mix(self.params_fingerprint);
        hasher.mix(self.cores() as u64);
    }
}

impl RunRecord {
    /// IPC of the prefetcher-enabled run.
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }

    /// IPC of the no-prefetching baseline.
    pub fn baseline_ipc(&self) -> f64 {
        self.baseline.ipc()
    }

    /// IPC speedup over the no-prefetching baseline (1.0 when the baseline
    /// retired nothing).
    pub fn speedup(&self) -> f64 {
        self.stats.speedup_over(&self.baseline)
    }

    /// Overall prefetch accuracy (paper §IV-A3).
    pub fn accuracy(&self) -> f64 {
        self.stats.overall_accuracy()
    }

    /// LLC miss coverage relative to the baseline's LLC misses.
    pub fn coverage(&self) -> f64 {
        self.stats.coverage_over(&self.baseline)
    }

    /// Fraction of useful prefetches that were late.
    pub fn late_fraction(&self) -> f64 {
        self.stats.late_fraction()
    }
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
    put_u64(buf, offset, s.prefetch.dropped_mshr_full);
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
            dropped_mshr_full: get_u64(buf, offset),
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
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "GZR name field is empty or not NUL-padded",
        ));
    }
    String::from_utf8(field[..end].to_vec())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "GZR name is not UTF-8"))
}

/// Encodes one record into its 528-byte on-disk form.
///
/// Fails if either name is empty, longer than [`GZR_NAME_BYTES`], or
/// contains a NUL byte.
pub fn encode_record(rec: &RunRecord) -> io::Result<[u8; GZR_RECORD_BYTES]> {
    let mut buf = [0u8; GZR_RECORD_BYTES];
    let mut off = 0;
    put_u64(&mut buf, &mut off, rec.trace_fingerprint);
    put_u64(&mut buf, &mut off, rec.params_fingerprint);
    put_name(&mut buf, &mut off, &rec.workload, GZR_NAME_BYTES)?;
    put_name(&mut buf, &mut off, &rec.prefetcher, GZR_NAME_BYTES)?;
    put_core_stats(&mut buf, &mut off, &rec.stats);
    put_core_stats(&mut buf, &mut off, &rec.baseline);
    debug_assert_eq!(off, GZR_RECORD_BYTES);
    Ok(buf)
}

/// Decodes one 528-byte on-disk record.
pub fn decode_record(buf: &[u8; GZR_RECORD_BYTES]) -> io::Result<RunRecord> {
    let mut off = 0;
    let trace_fingerprint = get_u64(buf, &mut off);
    let params_fingerprint = get_u64(buf, &mut off);
    let workload = get_name(buf, &mut off, GZR_NAME_BYTES)?;
    let prefetcher = get_name(buf, &mut off, GZR_NAME_BYTES)?;
    let stats = get_core_stats(buf, &mut off);
    let baseline = get_core_stats(buf, &mut off);
    debug_assert_eq!(off, GZR_RECORD_BYTES);
    Ok(RunRecord {
        trace_fingerprint,
        params_fingerprint,
        workload,
        prefetcher,
        stats,
        baseline,
    })
}

/// Encodes one mix record into its 1864-byte on-disk form.
///
/// Fails if the prefetcher name or label is empty, over-long or contains
/// a NUL byte, or if the report has zero or more than [`GZR_MAX_CORES`]
/// cores.
pub fn encode_mix_record(rec: &MixRecord) -> io::Result<[u8; GZR_MIX_RECORD_BYTES]> {
    let cores = rec.report.cores.len();
    if cores == 0 || cores > GZR_MAX_CORES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("GZR mix record must hold 1..={GZR_MAX_CORES} cores, got {cores}"),
        ));
    }
    let mut buf = [0u8; GZR_MIX_RECORD_BYTES];
    let mut off = 0;
    put_u64(&mut buf, &mut off, rec.mix_fingerprint);
    put_u64(&mut buf, &mut off, rec.params_fingerprint);
    put_name(&mut buf, &mut off, &rec.prefetcher, GZR_NAME_BYTES)?;
    put_name(&mut buf, &mut off, &rec.label, GZR_LABEL_BYTES)?;
    put_u64(&mut buf, &mut off, cores as u64);
    for core in &rec.report.cores {
        put_core_stats(&mut buf, &mut off, core);
    }
    // Unused core slots stay zero (the buffer starts zeroed).
    debug_assert_eq!(off, 200 + cores * GZR_CORESTATS_BYTES);
    Ok(buf)
}

/// Decodes one 1864-byte on-disk mix record, rejecting impossible core
/// counts and non-zero padding in unused core slots.
pub fn decode_mix_record(buf: &[u8; GZR_MIX_RECORD_BYTES]) -> io::Result<MixRecord> {
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut off = 0;
    let mix_fingerprint = get_u64(buf, &mut off);
    let params_fingerprint = get_u64(buf, &mut off);
    let prefetcher = get_name(buf, &mut off, GZR_NAME_BYTES)?;
    let label = get_name(buf, &mut off, GZR_LABEL_BYTES)?;
    let core_count = get_u64(buf, &mut off);
    if core_count == 0 || core_count > GZR_MAX_CORES as u64 {
        return Err(invalid(format!(
            "GZR mix record core count {core_count} outside 1..={GZR_MAX_CORES}"
        )));
    }
    let mut cores = Vec::with_capacity(core_count as usize);
    for _ in 0..core_count {
        cores.push(get_core_stats(buf, &mut off));
    }
    if buf[off..].iter().any(|&b| b != 0) {
        return Err(invalid(
            "GZR mix record has non-zero bytes in unused core slots".to_string(),
        ));
    }
    Ok(MixRecord {
        mix_fingerprint,
        params_fingerprint,
        prefetcher,
        label,
        report: SimReport { cores },
    })
}

fn write_header(
    out: &mut impl Write,
    version: u16,
    record_size: usize,
    count: usize,
) -> io::Result<()> {
    let mut header = [0u8; GZR_HEADER_BYTES];
    header[0..4].copy_from_slice(&GZR_MAGIC);
    header[4..6].copy_from_slice(&version.to_le_bytes());
    header[6..8].copy_from_slice(&(record_size as u16).to_le_bytes());
    header[8..16].copy_from_slice(&(count as u64).to_le_bytes());
    out.write_all(&header)
}

/// Writes a complete segment of one record kind (header + records) to
/// `out`.
pub fn write_segment<R: Record>(out: &mut impl Write, records: &[R]) -> io::Result<()> {
    write_header(out, R::VERSION, R::BYTES, records.len())?;
    for rec in records {
        out.write_all(rec.encode()?.as_ref())?;
    }
    Ok(())
}

/// Parses and validates a segment header, returning `(version,
/// record_count)`. The record size implied by the version must match the
/// header's, and `total_len` must equal header + records exactly.
fn read_header(input: &mut impl Read, total_len: u64, context: &str) -> io::Result<(u16, u64)> {
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut header = [0u8; GZR_HEADER_BYTES];
    if total_len < GZR_HEADER_BYTES as u64 {
        return Err(invalid(format!("{context}: truncated GZR header")));
    }
    input.read_exact(&mut header)?;
    if header[0..4] != GZR_MAGIC {
        return Err(invalid(format!("{context}: not a GZR segment (bad magic)")));
    }
    let version = u16::from_le_bytes(header[4..6].try_into().expect("2-byte slice"));
    let expected_size = match version {
        GZR_VERSION => GZR_RECORD_BYTES,
        GZR_VERSION_MIX => GZR_MIX_RECORD_BYTES,
        other => {
            return Err(invalid(format!(
                "{context}: unsupported GZR version {other} \
                 (expected {GZR_VERSION} or {GZR_VERSION_MIX})"
            )))
        }
    };
    let record_size = u16::from_le_bytes(header[6..8].try_into().expect("2-byte slice"));
    if usize::from(record_size) != expected_size {
        return Err(invalid(format!(
            "{context}: unexpected GZR v{version} record size {record_size} \
             (expected {expected_size})"
        )));
    }
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
        .checked_mul(expected_size as u64)
        .and_then(|data| data.checked_add(GZR_HEADER_BYTES as u64))
        .ok_or_else(|| {
            invalid(format!(
                "{context}: GZR record count {record_count} overflows the segment size"
            ))
        })?;
    if total_len != expected {
        return Err(invalid(format!(
            "{context}: GZR segment size {total_len} does not match header \
             (expected {expected} for {record_count} v{version} records)"
        )));
    }
    Ok((version, record_count))
}

/// Reads and validates a complete segment of either version from `input`,
/// whose total size must be `total_len` bytes (used to reject truncated
/// files exactly).
///
/// `context` names the segment in error messages (typically its path).
pub fn read_segment_any(
    input: &mut impl Read,
    total_len: u64,
    context: &str,
) -> io::Result<SegmentRecords> {
    let (version, record_count) = read_header(input, total_len, context)?;
    Ok(match version {
        GZR_VERSION => SegmentRecords::Runs(read_records(input, record_count, context)?),
        _ => SegmentRecords::Mixes(read_records(input, record_count, context)?),
    })
}

/// Reads and validates a complete segment of record kind `R`. A valid
/// segment of the other kind is an `InvalidData` error here — use
/// [`read_segment_any`] when both versions may appear.
pub fn read_segment<R: Record>(
    input: &mut impl Read,
    total_len: u64,
    context: &str,
) -> io::Result<Vec<R>> {
    let (version, record_count) = read_header(input, total_len, context)?;
    if version != R::VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "{context}: expected a v{} GZR segment, found v{version}",
                R::VERSION
            ),
        ));
    }
    read_records(input, record_count, context)
}

/// Decodes the `record_count` records that follow a validated header.
fn read_records<R: Record>(
    input: &mut impl Read,
    record_count: u64,
    context: &str,
) -> io::Result<Vec<R>> {
    let wrap = |e: io::Error| io::Error::new(io::ErrorKind::InvalidData, format!("{context}: {e}"));
    let mut records = Vec::with_capacity(record_count as usize);
    let mut buf = vec![0u8; R::BYTES];
    for _ in 0..record_count {
        input.read_exact(&mut buf)?;
        records.push(R::decode(&buf).map_err(wrap)?);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_record(seed: u64) -> RunRecord {
        let mut stats = CoreStats {
            instructions: 1_000 + seed,
            cycles: 2_000 + seed * 3,
            ..CoreStats::default()
        };
        stats.l1d.demand_accesses = 500 + seed;
        stats.l1d.demand_hits = 400;
        stats.l1d.demand_misses = 100 + seed;
        stats.l1d.useful_prefetches = 40;
        stats.l1d.useless_prefetches = 10;
        stats.llc.demand_misses = 30;
        stats.prefetch.requested = 80 + seed;
        stats.prefetch.issued = 70;
        stats.prefetch.late = 5;
        let mut baseline = stats;
        baseline.cycles = 3_000 + seed * 5;
        baseline.llc.demand_misses = 60;
        baseline.prefetch = PrefetchStats::default();
        RunRecord {
            trace_fingerprint: 0xdead_beef ^ seed,
            params_fingerprint: 0x1234_5678 ^ (seed << 8),
            workload: format!("workload-{seed}"),
            prefetcher: "gaze".to_string(),
            stats,
            baseline,
        }
    }

    #[test]
    fn record_encoding_round_trips() {
        for seed in 0..20 {
            let rec = sample_record(seed);
            let decoded = decode_record(&encode_record(&rec).expect("encode")).expect("decode");
            assert_eq!(decoded, rec);
        }
    }

    #[test]
    fn segment_round_trips() {
        let records: Vec<_> = (0..7).map(sample_record).collect();
        let mut bytes = Vec::new();
        write_segment(&mut bytes, &records).expect("write");
        assert_eq!(
            bytes.len(),
            GZR_HEADER_BYTES + records.len() * GZR_RECORD_BYTES
        );
        let decoded = read_segment::<RunRecord>(&mut bytes.as_slice(), bytes.len() as u64, "mem")
            .expect("read");
        assert_eq!(decoded, records);
    }

    #[test]
    fn bad_names_are_rejected_on_encode() {
        let mut rec = sample_record(1);
        rec.workload = String::new();
        assert!(encode_record(&rec).is_err());
        rec.workload = "x".repeat(GZR_NAME_BYTES + 1);
        assert!(encode_record(&rec).is_err());
        rec.workload = "nul\0name".to_string();
        assert!(encode_record(&rec).is_err());
    }

    #[test]
    fn corrupt_segments_are_rejected() {
        let records: Vec<_> = (0..3).map(sample_record).collect();
        let mut bytes = Vec::new();
        write_segment(&mut bytes, &records).expect("write");

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(read_segment::<RunRecord>(&mut bad.as_slice(), bad.len() as u64, "m").is_err());

        // Bad version.
        let mut bad = bytes.clone();
        bad[4] = 9;
        assert!(read_segment::<RunRecord>(&mut bad.as_slice(), bad.len() as u64, "m").is_err());

        // Truncated data.
        let cut = bytes.len() - 5;
        assert!(read_segment::<RunRecord>(&mut bytes[..cut].as_ref(), cut as u64, "m").is_err());

        // Non-zero reserved bytes.
        let mut bad = bytes.clone();
        bad[20] = 1;
        assert!(read_segment::<RunRecord>(&mut bad.as_slice(), bad.len() as u64, "m").is_err());

        // A record count that overflows the size computation is an error,
        // not a panic or a wrapped length.
        let mut bad = bytes.clone();
        bad[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(read_segment::<RunRecord>(&mut bad.as_slice(), bad.len() as u64, "m").is_err());
    }

    pub(crate) fn sample_mix_record(seed: u64, cores: usize) -> MixRecord {
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
    fn mix_record_encoding_round_trips_every_core_count() {
        for cores in 1..=GZR_MAX_CORES {
            let rec = sample_mix_record(cores as u64, cores);
            let decoded =
                decode_mix_record(&encode_mix_record(&rec).expect("encode")).expect("decode");
            assert_eq!(decoded, rec);
        }
    }

    #[test]
    fn mix_segment_round_trips_and_v1_reader_rejects_it() {
        let records: Vec<_> = (1..=4)
            .map(|s| sample_mix_record(s, s as usize * 2))
            .collect();
        let mut bytes = Vec::new();
        write_segment(&mut bytes, &records).expect("write");
        assert_eq!(
            bytes.len(),
            GZR_HEADER_BYTES + records.len() * GZR_MIX_RECORD_BYTES
        );
        match read_segment_any(&mut bytes.as_slice(), bytes.len() as u64, "mem").expect("read") {
            SegmentRecords::Mixes(decoded) => assert_eq!(decoded, records),
            SegmentRecords::Runs(_) => panic!("v2 segment decoded as v1"),
        }
        // The v1-only entry point refuses a valid v2 segment.
        let err = read_segment::<RunRecord>(&mut bytes.as_slice(), bytes.len() as u64, "mem")
            .unwrap_err();
        assert!(err.to_string().contains("found v2"), "{err}");
    }

    #[test]
    fn bad_mix_records_are_rejected() {
        // Zero cores and too many cores fail on encode.
        let mut rec = sample_mix_record(1, 1);
        rec.report.cores.clear();
        assert!(encode_mix_record(&rec).is_err());
        let rec = sample_mix_record(1, GZR_MAX_CORES + 1);
        assert!(encode_mix_record(&rec).is_err());

        // Over-long labels fail on encode.
        let mut rec = sample_mix_record(2, 2);
        rec.label = "x".repeat(GZR_LABEL_BYTES + 1);
        assert!(encode_mix_record(&rec).is_err());

        // A corrupt core count fails on decode.
        let rec = sample_mix_record(3, 2);
        let mut buf = encode_mix_record(&rec).expect("encode");
        buf[192..200].copy_from_slice(&0u64.to_le_bytes());
        assert!(decode_mix_record(&buf).is_err(), "zero core count");
        buf[192..200].copy_from_slice(&(GZR_MAX_CORES as u64 + 1).to_le_bytes());
        assert!(decode_mix_record(&buf).is_err(), "impossible core count");

        // Non-zero bytes in an unused core slot fail on decode.
        let mut buf = encode_mix_record(&rec).expect("encode");
        buf[GZR_MIX_RECORD_BYTES - 1] = 1;
        assert!(decode_mix_record(&buf).is_err(), "dirty core-slot padding");
    }

    #[test]
    fn mix_metrics_project_from_raw_counters() {
        let with = sample_mix_record(0, 4);
        let mut base = with.clone();
        base.prefetcher = "none".to_string();
        for core in &mut base.report.cores {
            core.cycles *= 2;
        }
        assert_eq!(with.cores(), 4);
        assert!(with.mean_ipc() > 0.0);
        assert!((with.speedup_over(&base) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn metrics_project_from_raw_counters() {
        let rec = sample_record(0);
        assert!(rec.speedup() > 1.0, "faster than baseline");
        assert!((rec.ipc() - rec.stats.ipc()).abs() < 1e-15);
        assert!((rec.accuracy() - 0.8).abs() < 1e-12); // 40 useful / 50 total
        assert!((rec.coverage() - 0.5).abs() < 1e-12); // 60 -> 30 misses
        assert!(rec.late_fraction() > 0.0);
    }
}
