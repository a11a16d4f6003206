//! The append-only, directory-backed results store.
//!
//! Every operation is written once, generic over [`Record`]; what differs
//! between single-core runs and multi-core mixes lives in the two
//! `Record` impls, and each kind's unflushed rows live in its own table.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::ffi::OsString;
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::format::{
    read_segment, read_segment_any, write_segment, MixRecord, Record, RecordKey, RunRecord,
    SegmentRecords, GZR_HEADER_BYTES, GZR_MIX_RECORD_BYTES, GZR_VERSION, GZR_VERSION_MIX,
};
use sim_core::params::Fnv1a;

/// Extension of segment files inside a store directory.
pub const SEGMENT_EXTENSION: &str = "gzr";

/// Prefix of segment file names
/// (`seg-<seq>-<pid>-<nonce>-<hash>.gzr`); loading only requires the
/// prefix and extension, so stores written under older naming schemes
/// stay readable.
pub const SEGMENT_PREFIX: &str = "seg-";

/// Prefix of in-progress temporary files; never loaded, so a crash
/// mid-write can leave at most garbage with this prefix behind, not a
/// corrupt segment.
pub const TMP_PREFIX: &str = ".tmp-";

/// A typed filter over the rows of one record kind, answered by
/// [`ResultsStore::query`].
pub trait Query {
    /// The record kind this filter selects from.
    type Record: Record;
    /// Whether `rec` passes every set filter.
    fn matches(&self, rec: &Self::Record) -> bool;
    /// The most rows to return (`None`: all).
    fn limit(&self) -> Option<usize>;
}

/// Typed filter over the store. Every field is optional; `None` matches
/// everything. Results come back in store order (segment load order, then
/// append order), so a query is deterministic for a given store state.
#[derive(Debug, Clone, Default)]
pub struct RunQuery {
    /// Keep only rows of this workload name.
    pub workload: Option<String>,
    /// Keep only rows of this prefetcher.
    pub prefetcher: Option<String>,
    /// Keep only rows recorded under this run-parameter fingerprint
    /// (i.e. one experiment scale/configuration).
    pub params_fingerprint: Option<u64>,
    /// Keep only rows of this trace fingerprint.
    pub trace_fingerprint: Option<u64>,
    /// Truncate the result to at most this many rows.
    pub limit: Option<usize>,
}

impl Query for RunQuery {
    type Record = RunRecord;

    fn matches(&self, rec: &RunRecord) -> bool {
        self.workload.as_deref().is_none_or(|w| rec.workload == w)
            && self
                .prefetcher
                .as_deref()
                .is_none_or(|p| rec.prefetcher == p)
            && self
                .params_fingerprint
                .is_none_or(|f| rec.params_fingerprint == f)
            && self
                .trace_fingerprint
                .is_none_or(|f| rec.trace_fingerprint == f)
    }

    fn limit(&self) -> Option<usize> {
        self.limit
    }
}

/// Typed filter over the store's multi-core (v2) rows. Every field is
/// optional; `None` matches everything. Results come back in store order.
#[derive(Debug, Clone, Default)]
pub struct MixQuery {
    /// Keep only rows of this mix label.
    pub label: Option<String>,
    /// Keep only rows of this prefetcher (`"none"` selects baselines).
    pub prefetcher: Option<String>,
    /// Keep only rows recorded under this run-parameter fingerprint.
    pub params_fingerprint: Option<u64>,
    /// Keep only rows of this mix fingerprint.
    pub mix_fingerprint: Option<u64>,
    /// Keep only rows with this many cores.
    pub cores: Option<usize>,
    /// Truncate the result to at most this many rows.
    pub limit: Option<usize>,
}

impl Query for MixQuery {
    type Record = MixRecord;

    fn matches(&self, rec: &MixRecord) -> bool {
        self.label.as_deref().is_none_or(|l| rec.label == l)
            && self
                .prefetcher
                .as_deref()
                .is_none_or(|p| rec.prefetcher == p)
            && self
                .params_fingerprint
                .is_none_or(|f| rec.params_fingerprint == f)
            && self
                .mix_fingerprint
                .is_none_or(|f| rec.mix_fingerprint == f)
            && self.cores.is_none_or(|c| rec.cores() == c)
    }

    fn limit(&self) -> Option<usize> {
        self.limit
    }
}

/// What [`ResultsStore::compact`] did: how many segments went in and came
/// out, how many distinct rows survive, and how many superseded duplicate
/// rows were dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactStats {
    /// Segment count before compaction.
    pub segments_before: usize,
    /// Segment count after compaction (≤ one per record kind).
    pub segments_after: usize,
    /// Distinct single-core rows in the compacted store.
    pub runs: usize,
    /// Distinct multi-core mix rows in the compacted store.
    pub mixes: usize,
    /// Duplicate rows (identical keys across segments) dropped.
    pub duplicates_dropped: u64,
}

/// The per-kind in-memory state of a store. Both items are public but
/// unnameable outside the crate, which seals [`Record`].
pub(crate) mod kind {
    use super::{HashMap, RecordKey, ResultsStore};

    /// One record kind's unflushed rows and persisted counts.
    #[derive(Debug)]
    pub struct Table<R> {
        /// Appended rows not yet flushed, in append order.
        pub(super) pending: Vec<R>,
        /// Key → position in `pending`.
        pub(super) index: HashMap<RecordKey, usize>,
        /// Distinct persisted keys (recomputed from segment indexes).
        pub(super) persisted: usize,
        /// Pending rows whose key is *also* persisted (possible after a
        /// reload picked up a foreign segment); they count once in `len`.
        pub(super) shadowed: usize,
    }

    impl<R> Default for Table<R> {
        fn default() -> Self {
            Table {
                pending: Vec::new(),
                index: HashMap::new(),
                persisted: 0,
                shadowed: 0,
            }
        }
    }

    impl<R> Table<R> {
        /// Distinct rows of this kind, persisted + pending.
        pub(super) fn len(&self) -> usize {
            self.persisted + self.pending.len() - self.shadowed
        }
    }

    /// The store's table of this kind.
    pub trait Sealed: Sized {
        /// This kind's table in `store`.
        fn table(store: &ResultsStore) -> &Table<Self>;
        /// This kind's table in `store`, mutably.
        fn table_mut(store: &mut ResultsStore) -> &mut Table<Self>;
    }
}

use kind::Table;

impl kind::Sealed for RunRecord {
    fn table(store: &ResultsStore) -> &Table<Self> {
        &store.runs
    }
    fn table_mut(store: &mut ResultsStore) -> &mut Table<Self> {
        &mut store.runs
    }
}

impl kind::Sealed for MixRecord {
    fn table(store: &ResultsStore) -> &Table<Self> {
        &store.mixes
    }
    fn table_mut(store: &mut ResultsStore) -> &mut Table<Self> {
        &mut store.mixes
    }
}

/// One segment index entry: the FNV key hash of a record and its
/// position (record index, not byte offset) inside the segment.
#[derive(Debug)]
struct IndexEntry {
    /// [`key_hash`] of the record's key.
    hash: u64,
    /// 0-based record index inside the segment.
    index: u64,
}

/// Hashes an `R` key `(fingerprint, params_fingerprint, prefetcher)` for
/// the segment index, tagged with the kind's format version.
fn key_hash<R: Record>((fingerprint, params, prefetcher): (u64, u64, &str)) -> u64 {
    let mut hasher = Fnv1a::new();
    hasher.mix(u64::from(R::VERSION));
    hasher.mix(fingerprint);
    hasher.mix(params);
    hasher.mix(prefetcher.len() as u64);
    for byte in prefetcher.bytes() {
        hasher.mix(u64::from(byte));
    }
    hasher.finish()
}

/// One loaded segment: validated header metadata plus its in-memory key
/// table and an open file handle for positioned record reads. Record
/// payloads stay on disk.
#[derive(Debug)]
struct Segment {
    path: PathBuf,
    /// GZR format version (1 = runs, 2 = mixes).
    version: u16,
    /// `(key_hash, record_index)` sorted ascending by `(hash, index)`, so
    /// equal hashes probe in record order and the first write wins.
    entries: Vec<IndexEntry>,
    file: File,
}

impl Segment {
    /// A loaded segment holding `records`, its key table built from them.
    fn new<R: Record>(path: PathBuf, file: File, records: &[R]) -> Segment {
        let mut entries: Vec<IndexEntry> = records
            .iter()
            .enumerate()
            .map(|(index, rec)| IndexEntry {
                hash: key_hash::<R>(rec.key_parts()),
                index: index as u64,
            })
            .collect();
        entries.sort_unstable_by_key(|e| (e.hash, e.index));
        Segment {
            path,
            version: R::VERSION,
            entries,
            file,
        }
    }

    /// The index entries whose key hash equals `hash`, in record order.
    fn candidates(&self, hash: u64) -> &[IndexEntry] {
        let start = self.entries.partition_point(|e| e.hash < hash);
        let end = start + self.entries[start..].partition_point(|e| e.hash == hash);
        &self.entries[start..end]
    }
}

/// Positioned read that never moves a shared cursor (`pread` on unix).
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    #[cfg(unix)]
    {
        std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
    }
    #[cfg(not(unix))]
    {
        use std::io::{Read, Seek, SeekFrom};
        let mut cursor = file;
        cursor.seek(SeekFrom::Start(offset))?;
        cursor.read_exact(buf)
    }
}

/// An append-only store of [`RunRecord`]s and [`MixRecord`]s backed by a
/// directory of GZR segment files.
///
/// * **Durability** — [`flush`](ResultsStore::flush) writes all unpersisted
///   records as one new segment per kind: the bytes go to a `.tmp-` file
///   first, are fsynced, and the file is atomically renamed into place. A
///   crash at any point leaves either the old segment set or the old set
///   plus complete new segments — never a half-written segment.
/// * **Dedup** — one record of a kind exists per [`Record::key`].
///   Re-appending an existing key is a no-op (simulations are
///   deterministic, so the row content is identical); duplicates across
///   segments are collapsed by every read path (first segment in load
///   order wins) and physically dropped by
///   [`compact`](ResultsStore::compact).
/// * **Index** — opening validates each segment with one full scan and
///   keeps only its sorted `(key hash, record index)` table: resident
///   memory is bounded by 16 bytes per key, never by payloads. A point
///   lookup goes pending overlay → binary-searched key table → one
///   positioned record read. Single-core (v1) and multi-core (v2) records
///   live in separate segments.
#[derive(Debug)]
pub struct ResultsStore {
    dir: PathBuf,
    segments: Vec<Segment>,
    runs: Table<RunRecord>,
    mixes: Table<MixRecord>,
    /// Names of every segment file this store has loaded or written.
    /// Segments are immutable and only ever added by writers (compaction
    /// removes them), so comparing this set against the directory listing
    /// detects stores changed by *other* processes
    /// ([`is_stale`](Self::is_stale)).
    known_segments: BTreeSet<OsString>,
    /// Duplicates/conflicts across segments on disk (recomputed at open,
    /// reload and compact) vs. those observed on the append path.
    duplicates_base: u64,
    duplicates_runtime: u64,
    conflicts_base: u64,
    conflicts_runtime: u64,
    rejected_appends: u64,
    records_decoded: AtomicU64,
    read_errors: AtomicU64,
}

/// Per-process counter folded into segment names so concurrent stores in
/// one process can never race to the same file name.
static SEGMENT_NONCE: AtomicU64 = AtomicU64::new(0);

/// Every `seg-*.gzr` path currently in `dir` (unsorted). Temp files and
/// any other names are invisible to this listing.
fn segment_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    Ok(fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| {
            p.extension().and_then(|e| e.to_str()) == Some(SEGMENT_EXTENSION)
                && p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with(SEGMENT_PREFIX))
        })
        .collect())
}

impl ResultsStore {
    /// Opens (creating if needed) the store at `dir`, scanning every
    /// segment once to validate it and build its key table. Each record
    /// is decoded exactly once; no payload stays resident.
    ///
    /// Fails if the directory cannot be created/read or if any segment is
    /// corrupt or truncated — a store that silently dropped a damaged
    /// segment would quietly re-simulate (or worse, serve partial sweeps),
    /// so damage is loud.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<ResultsStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut segment_paths = segment_files(&dir)?;
        segment_paths.sort();
        let mut store = ResultsStore {
            dir,
            segments: Vec::new(),
            runs: Table::default(),
            mixes: Table::default(),
            known_segments: BTreeSet::new(),
            duplicates_base: 0,
            duplicates_runtime: 0,
            conflicts_base: 0,
            conflicts_runtime: 0,
            rejected_appends: 0,
            records_decoded: AtomicU64::new(0),
            read_errors: AtomicU64::new(0),
        };
        for path in segment_paths {
            let segment = store.load_segment(path)?;
            store.adopt(segment);
        }
        store.recount()?;
        Ok(store)
    }

    /// Validates one segment in full and builds its key table from a
    /// single scan; the decoded payloads are dropped again.
    fn load_segment(&self, path: PathBuf) -> io::Result<Segment> {
        crate::fault::check_io("gzr.segment.read")?;
        let file = File::open(&path)?;
        let total_len = file.metadata()?.len();
        let records = read_segment_any(
            &mut BufReader::new(&file),
            total_len,
            &path.display().to_string(),
        )?;
        let segment = match records {
            SegmentRecords::Runs(records) => Segment::new(path, file, &records),
            SegmentRecords::Mixes(records) => Segment::new(path, file, &records),
        };
        self.note_decoded(segment.entries.len() as u64);
        Ok(segment)
    }

    /// Adds a loaded or freshly written segment to the store.
    fn adopt(&mut self, segment: Segment) {
        if let Some(name) = segment.path.file_name() {
            self.known_segments.insert(name.to_os_string());
        }
        self.segments.push(segment);
    }

    /// The directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of distinct single-core records (persisted + pending).
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// Number of distinct multi-core mix records (persisted + pending).
    pub fn mix_len(&self) -> usize {
        self.mixes.len()
    }

    /// Whether the store holds no records of either kind.
    pub fn is_empty(&self) -> bool {
        self.len() == 0 && self.mix_len() == 0
    }

    /// Number of segment files currently loaded.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Number of appended-but-not-yet-flushed records (both kinds).
    pub fn pending_len(&self) -> usize {
        self.runs.pending.len() + self.mixes.pending.len()
    }

    /// Number of duplicate rows the store is collapsing: re-appends of
    /// existing keys plus identical keys stored in more than one segment
    /// (multi-writer overlap, crash-retry leftovers) — the rows
    /// [`compact`](Self::compact) would drop.
    pub fn duplicates_skipped(&self) -> u64 {
        self.duplicates_base
            + self.duplicates_runtime
            + self.runs.shadowed as u64
            + self.mixes.shadowed as u64
    }

    /// Number of appends (or cross-segment duplicates) whose key already
    /// existed *with different statistics* — always zero for a
    /// deterministic simulator; non-zero values indicate a fingerprint
    /// collision or nondeterminism and are worth investigating.
    pub fn conflicting_appends(&self) -> u64 {
        self.conflicts_base + self.conflicts_runtime
    }

    /// Number of appends dropped because the record was not encodable
    /// (over-long/empty names, or a mix with zero or more than
    /// [`GZR_MAX_CORES`](crate::format::GZR_MAX_CORES) cores) — always
    /// zero for rows produced by the experiment harness, whose labels are
    /// truncated to fit and whose core counts are bounded.
    pub fn rejected_appends(&self) -> u64 {
        self.rejected_appends
    }

    /// Number of record payloads decoded from disk so far — the open
    /// scan (once per persisted record), point reads and query scans. The
    /// test suites use it to prove an open decodes each record once and a
    /// point lookup decodes one.
    pub fn records_decoded(&self) -> u64 {
        self.records_decoded.load(Ordering::Relaxed)
    }

    /// Number of failed record reads that were answered fail-open (a
    /// lookup miss / a skipped segment in a query) instead of an error.
    pub fn read_errors(&self) -> u64 {
        self.read_errors.load(Ordering::Relaxed)
    }

    /// The single-core row stored under (trace fingerprint, params
    /// fingerprint, prefetcher); see [`lookup`](Self::lookup).
    pub fn get(
        &self,
        trace_fingerprint: u64,
        params_fingerprint: u64,
        prefetcher: &str,
    ) -> Option<RunRecord> {
        self.lookup(trace_fingerprint, params_fingerprint, prefetcher)
    }

    /// The mix row stored under (mix fingerprint, params fingerprint,
    /// prefetcher); see [`lookup`](Self::lookup).
    pub fn get_mix(
        &self,
        mix_fingerprint: u64,
        params_fingerprint: u64,
        prefetcher: &str,
    ) -> Option<MixRecord> {
        self.lookup(mix_fingerprint, params_fingerprint, prefetcher)
    }

    /// Looks up the `R` row stored under (fingerprint, params
    /// fingerprint, prefetcher): pending overlay first, then per segment
    /// a binary-searched key table → one positioned read.
    ///
    /// A failing record read is answered fail-open as a miss (a warning +
    /// [`read_errors`](Self::read_errors)): the caller re-simulates and
    /// appends an identical row, which every read path collapses.
    pub fn lookup<R: Record>(
        &self,
        fingerprint: u64,
        params_fingerprint: u64,
        prefetcher: &str,
    ) -> Option<R> {
        let table = R::table(self);
        // The owned probe key is only built when there are pending rows
        // to probe: a warm store's pending overlay is usually empty.
        if !table.index.is_empty() {
            let key = (fingerprint, params_fingerprint, prefetcher.to_string());
            if let Some(&i) = table.index.get(&key) {
                return Some(table.pending[i].clone());
            }
        }
        self.lookup_persisted((fingerprint, params_fingerprint, prefetcher))
    }

    fn lookup_persisted<R: Record>(&self, key: (u64, u64, &str)) -> Option<R> {
        let hash = key_hash::<R>(key);
        for segment in self.segments_of::<R>() {
            for entry in segment.candidates(hash) {
                match self.read_at::<R>(segment, entry.index) {
                    Ok(rec) if rec.key_parts() == key => return Some(rec),
                    Ok(_) => {} // key-hash collision; keep probing
                    Err(err) => self.note_read_error(segment, err),
                }
            }
        }
        None
    }

    /// The loaded segments holding `R` records, in load order.
    fn segments_of<R: Record>(&self) -> impl Iterator<Item = &Segment> {
        self.segments.iter().filter(|s| s.version == R::VERSION)
    }

    fn note_read_error(&self, segment: &Segment, err: io::Error) {
        self.read_errors.fetch_add(1, Ordering::Relaxed);
        crate::obs::metrics().read_errors.inc();
        gaze_obs::log::warn(
            "gzr",
            "record read failed; treating as a miss",
            &[("segment", &segment.path.display()), ("error", &err)],
        );
    }

    /// Counts `n` decoded records on both the per-store snapshot and the
    /// process-global metric series.
    fn note_decoded(&self, n: u64) {
        self.records_decoded.fetch_add(n, Ordering::Relaxed);
        crate::obs::metrics().records_decoded.add(n);
    }

    /// Positioned read + decode of one record.
    fn read_at<R: Record>(&self, segment: &Segment, index: u64) -> io::Result<R> {
        crate::fault::check_io("gzr.segment.pread")?;
        crate::obs::metrics().preads.inc();
        // Sized for the larger kind, so a point read never allocates.
        let mut buf = [0u8; GZR_MIX_RECORD_BYTES];
        let buf = &mut buf[..R::BYTES];
        let offset = GZR_HEADER_BYTES as u64 + index * R::BYTES as u64;
        read_exact_at(&segment.file, buf, offset)?;
        self.note_decoded(1);
        R::decode(buf)
    }

    /// Decodes a whole segment for a query or compaction scan (fresh
    /// handle, so point reads and scans never fight over a cursor).
    fn scan<R: Record>(&self, segment: &Segment) -> io::Result<Vec<R>> {
        crate::fault::check_io("gzr.segment.scan")?;
        let file = File::open(&segment.path)?;
        let records = read_segment(
            &mut BufReader::new(&file),
            file.metadata()?.len(),
            &segment.path.display().to_string(),
        )?;
        self.note_decoded(records.len() as u64);
        Ok(records)
    }

    /// Appends a record, deduplicating on its key. Returns `true` when the
    /// record was new; `false` when an identical key already existed (the
    /// stored row wins and the new one is dropped) or when the record is
    /// not encodable (over-long/empty names, or a mix with zero or more
    /// than [`GZR_MAX_CORES`](crate::format::GZR_MAX_CORES) cores; counted
    /// in [`rejected_appends`](Self::rejected_appends)) — admitting an
    /// unencodable record would make every later [`flush`](Self::flush)
    /// fail, wedging the pending queue forever.
    ///
    /// The record is only durable after the next [`flush`](Self::flush).
    pub fn append<R: Record>(&mut self, rec: R) -> bool {
        if rec.encode().is_err() {
            self.rejected_appends += 1;
            return false;
        }
        let key = rec.key();
        let table = R::table(self);
        let same = match table.index.get(&key) {
            Some(&i) => Some(table.pending[i].same_results(&rec)),
            None => self
                .lookup_persisted::<R>(rec.key_parts())
                .map(|existing| existing.same_results(&rec)),
        };
        if let Some(same) = same {
            self.duplicates_runtime += 1;
            if !same {
                self.conflicts_runtime += 1;
            }
            return false;
        }
        let table = R::table_mut(self);
        table.index.insert(key, table.pending.len());
        table.pending.push(rec);
        true
    }

    /// Writes every pending record durably and returns how many records
    /// were persisted. Pending single-core rows become one new v1 segment
    /// and pending mix rows one new v2 segment (each: write `.tmp-` file,
    /// fsync, atomic rename, fsync directory). A no-op returning 0 when
    /// nothing is pending.
    pub fn flush(&mut self) -> io::Result<usize> {
        let started = std::time::Instant::now();
        let written = self.flush_kind::<RunRecord>()? + self.flush_kind::<MixRecord>()?;
        if written > 0 {
            let us = started.elapsed().as_micros() as u64;
            crate::obs::metrics().flush_duration_us.record(us);
            gaze_obs::log::debug(
                "gzr",
                "flush persisted records",
                &[("records", &written), ("us", &us)],
            );
        }
        Ok(written)
    }

    /// Persists the pending rows of one kind as one segment; on failure
    /// they stay pending.
    fn flush_kind<R: Record>(&mut self) -> io::Result<usize> {
        let pending = &R::table(self).pending;
        if pending.is_empty() {
            return Ok(0);
        }
        let segment = self.persist(pending)?;
        self.adopt(segment);
        let table = R::table_mut(self);
        let (written, shadowed) = (table.pending.len(), table.shadowed);
        table.persisted += written - shadowed;
        table.shadowed = 0;
        table.pending.clear();
        table.index.clear();
        self.duplicates_runtime += shadowed as u64;
        Ok(written)
    }

    /// Writes one batch of a single record kind as a new segment (see
    /// [`write_segment_file`](Self::write_segment_file)) and returns it
    /// loaded, indexed from the batch itself.
    fn persist<R: Record>(&self, batch: &[R]) -> io::Result<Segment> {
        let mut hasher = Fnv1a::new();
        for rec in batch {
            rec.fold_name(&mut hasher);
        }
        let path = self.write_segment_file(hasher, |mut out| write_segment(&mut out, batch))?;
        let file = File::open(&path)?;
        Ok(Segment::new(path, file, batch))
    }

    /// Writes one segment crash-safely: `.tmp-` file, fsync, atomic rename
    /// to an unused `seg-` name, fsync directory. On any failure the tmp
    /// file is removed (best-effort; a leftover is ignored by loads) and
    /// the store's in-memory bookkeeping is untouched, so the pending rows
    /// stay pending and a retried flush starts clean. Returns the final
    /// segment path.
    fn write_segment_file(
        &self,
        mut hasher: Fnv1a,
        write: impl FnOnce(&mut dyn Write) -> io::Result<()>,
    ) -> io::Result<PathBuf> {
        let nonce = SEGMENT_NONCE.fetch_add(1, Ordering::Relaxed);
        let pid = std::process::id();
        hasher.mix(u64::from(pid));
        hasher.mix(nonce);
        let hash = hasher.finish();

        let tmp = self.dir.join(format!("{TMP_PREFIX}{pid}-{nonce:x}"));
        let result = self.write_segment_at(&tmp, pid, nonce, hash, write);
        if result.is_err() {
            // gaze-lint: allow(fault_coverage) -- best-effort cleanup of the tmp file after a covered write already failed
            let _ = fs::remove_file(&tmp);
        }
        result
    }

    fn write_segment_at(
        &self,
        tmp: &Path,
        pid: u32,
        nonce: u64,
        hash: u64,
        write: impl FnOnce(&mut dyn Write) -> io::Result<()>,
    ) -> io::Result<PathBuf> {
        crate::fault::check_io("gzr.segment.create")?;
        let file = {
            let raw = File::create(tmp)?;
            let mut out = BufWriter::new(crate::fault::FaultyWriter::new(raw, "gzr.segment.write"));
            write(&mut out)?;
            out.flush()?;
            out.into_inner().map_err(io::Error::from)?.into_inner()
        };
        crate::fault::check_io("gzr.segment.fsync")?;
        file.sync_all()?;

        // Pick an unused segment name; the sequence number keeps load
        // order stable while the pid + nonce (and the hash, which also
        // folds them) guarantee that two writers — concurrent stores in
        // one process or independent processes appending to the same
        // directory — can never target the same file name.
        let mut seq = self.segments.len();
        let final_path = loop {
            let candidate = self.dir.join(format!(
                "{SEGMENT_PREFIX}{seq:08}-{pid:08x}-{nonce:08x}-{hash:016x}.{SEGMENT_EXTENSION}"
            ));
            if !candidate.exists() {
                break candidate;
            }
            seq += 1;
        };
        crate::fault::check_io("gzr.segment.rename")?;
        fs::rename(tmp, &final_path)?;
        crate::fault::check_io("gzr.segment.dirsync")?;
        if let Ok(dir_handle) = File::open(&self.dir) {
            // Persist the rename itself; best-effort on filesystems that
            // refuse to fsync directories.
            let _ = dir_handle.sync_all();
        }
        Ok(final_path)
    }

    /// Rewrites the store as at most one segment per record kind,
    /// physically dropping superseded duplicate rows, then removes the
    /// old segments. Crash-safe in every window: the merged segments are
    /// durable *before* any old segment is unlinked, so a kill anywhere
    /// leaves either the old set, or old + merged overlapping (collapsed
    /// by dedup-on-read and by the next compaction) — never a lost or
    /// resurrected row. Every step is armable through [`crate::fault`]
    /// (`gzr.compact.begin|write|remove|dirsync` plus the regular segment
    /// write points).
    ///
    /// Pending rows are flushed first. A store that is already compact
    /// (at most one segment per kind) returns immediately.
    pub fn compact(&mut self) -> io::Result<CompactStats> {
        self.flush()?;
        let segments_before = self.segments.len();
        let kinds = [GZR_VERSION, GZR_VERSION_MIX]
            .iter()
            .filter(|&&v| self.segments.iter().any(|s| s.version == v))
            .count();
        if segments_before <= kinds {
            // One segment per kind cannot hold duplicates (appends dedup
            // within a batch), so there is nothing to merge or drop.
            return Ok(CompactStats {
                segments_before,
                segments_after: segments_before,
                runs: self.runs.persisted,
                mixes: self.mixes.persisted,
                duplicates_dropped: 0,
            });
        }
        crate::fault::check_io("gzr.compact.begin")?;
        let started = std::time::Instant::now();

        // Loud full read of both kinds before anything is written.
        let (runs, run_duplicates) = self.merged::<RunRecord>()?;
        let (mixes, mix_duplicates) = self.merged::<MixRecord>()?;
        let duplicates_dropped = run_duplicates + mix_duplicates;

        // Write the merged segments through the ordinary crash-safe path;
        // the old segments stay the readable truth until the rename lands.
        crate::fault::check_io("gzr.compact.write")?;
        let old_paths: Vec<PathBuf> = self.segments.iter().map(|s| s.path.clone()).collect();
        self.adopt_rows(&runs)?;
        self.adopt_rows(&mixes)?;

        // Only now unlink the superseded segments. A kill in this loop
        // leaves overlap, never loss.
        let old_names: HashSet<OsString> = old_paths
            .iter()
            .filter_map(|p| p.file_name().map(|n| n.to_os_string()))
            .collect();
        for path in &old_paths {
            crate::fault::check_io("gzr.compact.remove")?;
            fs::remove_file(path)?;
        }
        crate::fault::check_io("gzr.compact.dirsync")?;
        if let Ok(dir_handle) = File::open(&self.dir) {
            let _ = dir_handle.sync_all();
        }
        self.segments
            .retain(|s| s.path.file_name().is_none_or(|n| !old_names.contains(n)));
        self.known_segments.retain(|n| !old_names.contains(n));
        self.recount()?;
        let us = started.elapsed().as_micros() as u64;
        crate::obs::metrics().compact_duration_us.record(us);
        gaze_obs::log::info(
            "gzr",
            "compaction merged segments",
            &[
                ("segments_before", &segments_before),
                ("segments_after", &self.segments.len()),
                ("duplicates_dropped", &duplicates_dropped),
                ("us", &us),
            ],
        );
        Ok(CompactStats {
            segments_before,
            segments_after: self.segments.len(),
            runs: runs.len(),
            mixes: mixes.len(),
            duplicates_dropped,
        })
    }

    /// Every distinct `R` row on disk (first segment in load order wins)
    /// and the number of duplicate rows left out. A failing read fails.
    fn merged<R: Record>(&self) -> io::Result<(Vec<R>, u64)> {
        let mut seen: HashSet<RecordKey> = HashSet::new();
        let mut rows = Vec::new();
        let mut duplicates = 0;
        for segment in self.segments_of::<R>() {
            for rec in self.scan::<R>(segment)? {
                if seen.insert(rec.key()) {
                    rows.push(rec);
                } else {
                    duplicates += 1;
                }
            }
        }
        Ok((rows, duplicates))
    }

    /// Persists one kind's merged rows as a new segment of this store, if
    /// there are any.
    fn adopt_rows<R: Record>(&mut self, rows: &[R]) -> io::Result<()> {
        if !rows.is_empty() {
            let segment = self.persist(rows)?;
            self.adopt(segment);
        }
        Ok(())
    }

    /// Whether the directory holds segment files this store has not
    /// loaded (or has lost segments it did load) — i.e. another process
    /// has grown, compacted or rebuilt the store since this one opened
    /// it. Segments are immutable once written, so comparing file-name
    /// sets is exact.
    pub fn is_stale(&self) -> io::Result<bool> {
        let on_disk: BTreeSet<OsString> = segment_files(&self.dir)?
            .into_iter()
            .filter_map(|p| p.file_name().map(|n| n.to_os_string()))
            .collect();
        Ok(on_disk != self.known_segments)
    }

    /// Reloads from disk if [`is_stale`](Self::is_stale), so rows written
    /// by concurrent processes become visible; returns whether a reload
    /// happened. Pending (unflushed) records of *this* store are always
    /// kept.
    ///
    /// Segments are immutable, so the common case — new segments appended
    /// by another process — scans **only the unknown files**, O(new
    /// records). Only when a known segment has
    /// *disappeared* (the directory was rebuilt or compacted by another
    /// process) does the store fall back to a full reopen, re-appending
    /// its pending rows and resetting the diagnostic counters.
    pub fn reload_if_stale(&mut self) -> io::Result<bool> {
        let mut on_disk = segment_files(&self.dir)?;
        let names: BTreeSet<OsString> = on_disk
            .iter()
            .filter_map(|p| p.file_name().map(|n| n.to_os_string()))
            .collect();
        if names == self.known_segments {
            return Ok(false);
        }
        if !self.known_segments.is_subset(&names) {
            // A segment this store loaded is gone: the directory was
            // rebuilt, so the in-memory state cannot be patched — reopen.
            let mut fresh = ResultsStore::open(&self.dir)?;
            for rec in std::mem::take(&mut self.runs.pending) {
                fresh.append(rec);
            }
            for rec in std::mem::take(&mut self.mixes.pending) {
                fresh.append(rec);
            }
            *self = fresh;
            return Ok(true);
        }
        on_disk.retain(|p| {
            p.file_name()
                .is_some_and(|n| !self.known_segments.contains(n))
        });
        on_disk.sort();
        for path in on_disk {
            let segment = self.load_segment(path)?;
            self.adopt(segment);
        }
        self.recount()?;
        self.reshadow::<RunRecord>();
        self.reshadow::<MixRecord>();
        Ok(true)
    }

    /// Recounts the pending `R` rows whose key a foreign segment now also
    /// holds: they count once, and their flush writes a duplicate row
    /// that dedup-on-read collapses (exactly like a crash-retry).
    fn reshadow<R: Record>(&mut self) {
        let shadowed = R::table(self)
            .pending
            .iter()
            .filter(|r| self.lookup_persisted::<R>(r.key_parts()).is_some())
            .count();
        R::table_mut(self).shadowed = shadowed;
    }

    /// Recomputes the persisted distinct-row and duplicate/conflict
    /// counts from the segment indexes.
    fn recount(&mut self) -> io::Result<()> {
        let (runs, run_dups, run_conflicts) = self.recount_kind::<RunRecord>()?;
        let (mixes, mix_dups, mix_conflicts) = self.recount_kind::<MixRecord>()?;
        self.runs.persisted = runs;
        self.mixes.persisted = mixes;
        self.duplicates_base = run_dups + mix_dups;
        self.conflicts_base = run_conflicts + mix_conflicts;
        Ok(())
    }

    /// `(distinct, duplicates, conflicts)` over the `R` segments. Payloads
    /// are only read for keys whose hash appears more than once across
    /// them — a duplicate-free store recounts with **zero** record reads.
    fn recount_kind<R: Record>(&self) -> io::Result<(usize, u64, u64)> {
        // (hash, segment position, record index): sorting groups equal
        // hashes and orders each group first-write-first.
        let mut keys: Vec<(u64, usize, u64)> = Vec::new();
        for (pos, segment) in self
            .segments
            .iter()
            .enumerate()
            .filter(|(_, s)| s.version == R::VERSION)
        {
            keys.extend(segment.entries.iter().map(|e| (e.hash, pos, e.index)));
        }
        keys.sort_unstable();

        let mut distinct = 0usize;
        let mut duplicates = 0u64;
        let mut conflicts = 0u64;
        for group in keys.chunk_by(|a, b| a.0 == b.0) {
            if group.len() == 1 {
                distinct += 1;
                continue;
            }
            // Same hash more than once: fetch payloads to tell true
            // duplicates from hash collisions.
            let mut firsts: Vec<R> = Vec::new();
            for &(_, pos, index) in group {
                let rec = self.read_at::<R>(&self.segments[pos], index)?;
                match firsts.iter().find(|f| f.key_parts() == rec.key_parts()) {
                    None => {
                        distinct += 1;
                        firsts.push(rec);
                    }
                    Some(first) => {
                        duplicates += 1;
                        if !first.same_results(&rec) {
                            conflicts += 1;
                        }
                    }
                }
            }
        }
        Ok((distinct, duplicates, conflicts))
    }

    /// All rows of `query`'s record kind that match it, in deterministic
    /// store order (segment load order, then pending append order; the
    /// first copy of a duplicated key wins). This scans segments — prefer
    /// [`lookup`](Self::lookup) for point lookups. Segments that fail to
    /// read are skipped fail-open (a warning +
    /// [`read_errors`](Self::read_errors)).
    pub fn query<Q: Query>(&self, query: &Q) -> Vec<Q::Record> {
        let limit = query.limit().unwrap_or(usize::MAX);
        if limit == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut seen: HashSet<RecordKey> = HashSet::new();
        'segments: for segment in self.segments_of::<Q::Record>() {
            let records = match self.scan::<Q::Record>(segment) {
                Ok(records) => records,
                Err(err) => {
                    self.note_read_error(segment, err);
                    continue;
                }
            };
            for rec in records {
                if !seen.insert(rec.key()) {
                    continue;
                }
                if query.matches(&rec) {
                    out.push(rec);
                    if out.len() >= limit {
                        break 'segments;
                    }
                }
            }
        }
        for rec in &<Q::Record as kind::Sealed>::table(self).pending {
            if out.len() >= limit {
                break;
            }
            if seen.contains(&rec.key()) {
                continue;
            }
            if query.matches(rec) {
                out.push(rec.clone());
            }
        }
        out
    }

    /// Every single-core record in the store, in store order. This scans
    /// every v1 segment — prefer [`get`](Self::get) /
    /// [`query`](Self::query) on large stores.
    pub fn records(&self) -> Vec<RunRecord> {
        self.query(&RunQuery::default())
    }

    /// Every multi-core mix record in the store, in store order. This
    /// scans every v2 segment — prefer [`get_mix`](Self::get_mix) /
    /// [`query`](Self::query) on large stores.
    pub fn mix_records(&self) -> Vec<MixRecord> {
        self.query(&MixQuery::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::stats::{CoreStats, SimReport};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gzr-store-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn record(workload: &str, prefetcher: &str, cycles: u64) -> RunRecord {
        let mut stats = CoreStats {
            instructions: 10_000,
            cycles,
            ..CoreStats::default()
        };
        stats.l1d.demand_accesses = 2_000;
        let mut baseline = stats;
        baseline.cycles = cycles * 2;
        baseline.llc.demand_misses = 100;
        RunRecord {
            trace_fingerprint: fnv(workload),
            params_fingerprint: 42,
            workload: workload.to_string(),
            prefetcher: prefetcher.to_string(),
            stats,
            baseline,
        }
    }

    fn fnv(s: &str) -> u64 {
        s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
        })
    }

    /// The in-memory key hashes keep the values they had when each kind
    /// had its own hasher (kind tag 1 for runs, 2 for mixes).
    #[test]
    fn key_hashes_are_pinned_per_kind() {
        let key = (0x1234, 0x5678, "gaze");
        assert_eq!(key_hash::<RunRecord>(key), 0xcb95_6d1b_83fb_f711);
        assert_eq!(key_hash::<MixRecord>(key), 0xb5c4_02b6_2f39_3a72);
    }

    #[test]
    fn round_trip_append_flush_reopen() {
        let dir = temp_dir("roundtrip");
        let mut store = ResultsStore::open(&dir).expect("open");
        assert!(store.is_empty());
        for (w, p) in [("bwaves_s", "gaze"), ("bwaves_s", "pmp"), ("mcf_s", "gaze")] {
            assert!(store.append(record(w, p, 5_000)));
        }
        assert_eq!(store.pending_len(), 3);
        assert_eq!(store.flush().expect("flush"), 3);
        assert_eq!(store.pending_len(), 0);
        assert_eq!(store.segment_count(), 1);

        let reopened = ResultsStore::open(&dir).expect("reopen");
        assert_eq!(reopened.len(), 3);
        assert_eq!(reopened.records(), store.records());
        let hit = reopened
            .get(fnv("bwaves_s"), 42, "pmp")
            .expect("stored row");
        assert_eq!(hit.workload, "bwaves_s");
        assert_eq!(hit.stats.cycles, 5_000);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dedup_on_reappend_and_across_segments() {
        let dir = temp_dir("dedup");
        let mut store = ResultsStore::open(&dir).expect("open");
        assert!(store.append(record("mcf_s", "gaze", 7_000)));
        assert!(!store.append(record("mcf_s", "gaze", 7_000)), "same key");
        assert_eq!(store.len(), 1);
        assert_eq!(store.duplicates_skipped(), 1);
        assert_eq!(store.conflicting_appends(), 0);
        store.flush().expect("flush");

        // Re-appending after a flush is still deduplicated and flushing
        // writes no new segment content.
        assert!(!store.append(record("mcf_s", "gaze", 7_000)));
        assert_eq!(store.flush().expect("flush"), 0);
        assert_eq!(store.segment_count(), 1);

        // A conflicting row (same key, different stats) is dropped but
        // counted.
        assert!(!store.append(record("mcf_s", "gaze", 9_999)));
        assert_eq!(store.conflicting_appends(), 1);

        let reopened = ResultsStore::open(&dir).expect("reopen");
        assert_eq!(reopened.len(), 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn multiple_flushes_make_multiple_segments_and_merge_on_open() {
        let dir = temp_dir("segments");
        let mut store = ResultsStore::open(&dir).expect("open");
        store.append(record("a", "gaze", 1_000));
        store.flush().expect("flush");
        store.append(record("b", "gaze", 2_000));
        store.append(record("c", "pmp", 3_000));
        store.flush().expect("flush");
        assert_eq!(store.segment_count(), 2);

        let reopened = ResultsStore::open(&dir).expect("reopen");
        assert_eq!(reopened.len(), 3);
        assert_eq!(reopened.segment_count(), 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_merges_segments_and_drops_duplicates() {
        let dir = temp_dir("compact");
        let mut store = ResultsStore::open(&dir).expect("open");
        store.append(record("a", "gaze", 1_000));
        store.append(mix_record("a+a", "gaze", 2, 2_000));
        store.flush().expect("flush");
        store.append(record("b", "pmp", 2_000));
        store.flush().expect("flush");
        // A second writer persists an overlapping row (same key as "a");
        // the append-path dedup is bypassed to model the crash-retry /
        // concurrent-writer overlap compaction exists to clean up.
        let mut other = ResultsStore::open(&dir).expect("second handle");
        other.runs.pending.push(record("a", "gaze", 1_000));
        other.flush().expect("flush duplicate");

        store.reload_if_stale().expect("reload");
        assert_eq!(store.segment_count(), 4);
        let before_runs = store.records();
        let before_mixes = store.mix_records();

        let stats = store.compact().expect("compact");
        assert_eq!(stats.segments_before, 4);
        assert_eq!(stats.segments_after, 2, "one v1 + one v2 segment");
        assert_eq!(stats.runs, 2);
        assert_eq!(stats.mixes, 1);
        assert_eq!(stats.duplicates_dropped, 1);
        assert_eq!(store.segment_count(), 2);
        assert_eq!(store.duplicates_skipped(), 0, "duplicates physically gone");

        // Contents are unchanged, both live and across a reopen.
        assert_eq!(store.records(), before_runs);
        assert_eq!(store.mix_records(), before_mixes);
        let reopened = ResultsStore::open(&dir).expect("reopen");
        assert_eq!(
            reopened.records_decoded(),
            3,
            "open decodes each surviving row once, duplicates gone"
        );
        assert_eq!(reopened.records(), before_runs);
        assert_eq!(reopened.mix_records(), before_mixes);

        // Compacting again is a no-op.
        let again = store.compact().expect("recompact");
        assert_eq!(again.segments_before, 2);
        assert_eq!(again.segments_after, 2);
        assert_eq!(again.duplicates_dropped, 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_segment_rejected_on_open() {
        let dir = temp_dir("corrupt");
        let mut store = ResultsStore::open(&dir).expect("open");
        store.append(record("a", "gaze", 1_000));
        store.flush().expect("flush");

        // Truncate the one segment file.
        let seg = fs::read_dir(&dir)
            .expect("dir")
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.extension().and_then(|e| e.to_str()) == Some("gzr"))
            .expect("segment file");
        let bytes = fs::read(&seg).expect("read");
        fs::write(&seg, &bytes[..bytes.len() - 9]).expect("truncate");
        assert!(ResultsStore::open(&dir).is_err(), "truncated segment");

        // Flip the magic instead.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        fs::write(&seg, &bad).expect("write");
        assert!(ResultsStore::open(&dir).is_err(), "bad magic");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn leftover_tmp_files_are_ignored() {
        let dir = temp_dir("tmp-files");
        let mut store = ResultsStore::open(&dir).expect("open");
        store.append(record("a", "gaze", 1_000));
        store.flush().expect("flush");
        // Simulate a crash mid-write: a half-written tmp file remains.
        fs::write(dir.join(".tmp-9999-abc"), b"partial garbage").expect("write");
        let reopened = ResultsStore::open(&dir).expect("reopen ignores tmp");
        assert_eq!(reopened.len(), 1);
        fs::remove_dir_all(&dir).ok();
    }

    fn mix_record(label: &str, prefetcher: &str, cores: usize, cycles: u64) -> MixRecord {
        let core_stats: Vec<CoreStats> = (0..cores as u64)
            .map(|c| CoreStats {
                instructions: 10_000 + c,
                cycles: cycles + c,
                ..CoreStats::default()
            })
            .collect();
        MixRecord {
            mix_fingerprint: fnv(label) ^ cores as u64,
            params_fingerprint: 77,
            prefetcher: prefetcher.to_string(),
            label: label.to_string(),
            report: SimReport { cores: core_stats },
        }
    }

    #[test]
    fn mix_records_round_trip_dedup_and_query() {
        let dir = temp_dir("mix-roundtrip");
        let mut store = ResultsStore::open(&dir).expect("open");
        assert!(store.append(mix_record("a+b", "gaze", 2, 9_000)));
        assert!(store.append(mix_record("a+b", "none", 2, 14_000)));
        assert!(store.append(mix_record("a+b+c+d", "gaze", 4, 9_500)));
        assert!(!store.append(mix_record("a+b", "gaze", 2, 9_000)), "dup");
        assert_eq!(store.mix_len(), 3);
        assert_eq!(store.pending_len(), 3);
        // A same-key row with different counters is dropped but counted.
        assert!(!store.append(mix_record("a+b", "gaze", 2, 1)));
        assert_eq!(store.conflicting_appends(), 1);
        store.flush().expect("flush");

        let reopened = ResultsStore::open(&dir).expect("reopen");
        assert_eq!(reopened.mix_len(), 3);
        assert_eq!(reopened.mix_records(), store.mix_records());
        let hit = reopened
            .get_mix(fnv("a+b") ^ 2, 77, "none")
            .expect("baseline row");
        assert_eq!(hit.cores(), 2);
        assert_eq!(hit.report.cores[0].cycles, 14_000);

        let four_core = reopened.query(&MixQuery {
            cores: Some(4),
            ..MixQuery::default()
        });
        assert_eq!(four_core.len(), 1);
        assert_eq!(four_core[0].label, "a+b+c+d");
        let gaze = reopened.query(&MixQuery {
            prefetcher: Some("gaze".into()),
            limit: Some(1),
            ..MixQuery::default()
        });
        assert_eq!(gaze.len(), 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unencodable_appends_are_rejected_and_do_not_wedge_flush() {
        let dir = temp_dir("reject");
        let mut store = ResultsStore::open(&dir).expect("open");
        // A mix with more cores than the on-disk format holds.
        assert!(!store.append(mix_record("too+many", "gaze", 9, 1_000)));
        // A run with an over-long workload name.
        let mut bad = record("x", "gaze", 1_000);
        bad.workload = "w".repeat(100);
        assert!(!store.append(bad));
        assert_eq!(store.rejected_appends(), 2);
        assert_eq!(store.pending_len(), 0, "rejected rows never go pending");

        // Valid rows appended afterwards still flush fine.
        assert!(store.append(record("good", "gaze", 2_000)));
        assert!(store.append(mix_record("a+b", "gaze", 2, 3_000)));
        assert_eq!(store.flush().expect("flush"), 2);
        let reopened = ResultsStore::open(&dir).expect("reopen");
        assert_eq!((reopened.len(), reopened.mix_len()), (1, 1));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flush_writes_one_segment_per_record_kind() {
        let dir = temp_dir("two-kinds");
        let mut store = ResultsStore::open(&dir).expect("open");
        store.append(record("a", "gaze", 1_000));
        store.append(mix_record("a+a", "gaze", 2, 2_000));
        assert_eq!(store.pending_len(), 2);
        assert_eq!(store.flush().expect("flush"), 2);
        assert_eq!(store.segment_count(), 2, "one v1 + one v2 segment");
        let reopened = ResultsStore::open(&dir).expect("reopen");
        assert_eq!((reopened.len(), reopened.mix_len()), (1, 1));
        assert!(!reopened.is_empty());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reload_if_stale_sees_foreign_segments_and_keeps_pending() {
        let dir = temp_dir("stale");
        let mut server = ResultsStore::open(&dir).expect("open server");
        server.append(record("local-pending", "gaze", 1_000));
        assert!(!server.is_stale().expect("fresh store is not stale"));

        // A second handle (another process, in production) flushes rows.
        let mut writer = ResultsStore::open(&dir).expect("open writer");
        writer.append(record("foreign", "pmp", 2_000));
        writer.append(mix_record("f+f", "gaze", 2, 3_000));
        writer.flush().expect("flush");

        assert!(server.is_stale().expect("new segments make it stale"));
        assert!(server.reload_if_stale().expect("reload"));
        assert!(!server.is_stale().expect("reload clears staleness"));
        // Foreign rows are visible; the local pending row survived.
        assert_eq!(server.len(), 2);
        assert_eq!(server.mix_len(), 1);
        assert_eq!(server.pending_len(), 1);
        assert!(server.get(fnv("foreign"), 42, "pmp").is_some());
        server.flush().expect("flush pending");
        let reopened = ResultsStore::open(&dir).expect("reopen");
        assert_eq!(reopened.len(), 2);
        assert!(!server.reload_if_stale().expect("no-op when current"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reload_falls_back_to_full_reopen_when_directory_was_rebuilt() {
        let dir = temp_dir("rebuild");
        let mut server = ResultsStore::open(&dir).expect("open");
        server.append(record("old", "gaze", 1_000));
        server.flush().expect("flush");
        server.append(record("pending", "pmp", 2_000));

        // The directory is wiped and rebuilt with different content — a
        // known segment disappears, so patching in place is impossible.
        fs::remove_dir_all(&dir).expect("wipe");
        let mut rebuilt = ResultsStore::open(&dir).expect("rebuild");
        rebuilt.append(record("new", "gaze", 3_000));
        rebuilt.flush().expect("flush");

        assert!(server.reload_if_stale().expect("full reopen"));
        assert!(server.get(fnv("old"), 42, "gaze").is_none(), "old row gone");
        assert!(server.get(fnv("new"), 42, "gaze").is_some());
        assert_eq!(server.pending_len(), 1, "pending row carried over");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn queries_filter_and_limit() {
        let dir = temp_dir("query");
        let mut store = ResultsStore::open(&dir).expect("open");
        store.append(record("bwaves_s", "gaze", 1_000));
        store.append(record("bwaves_s", "pmp", 2_000));
        store.append(record("mcf_s", "gaze", 3_000));

        let all = store.query(&RunQuery::default());
        assert_eq!(all.len(), 3);

        let gaze_only = store.query(&RunQuery {
            prefetcher: Some("gaze".into()),
            ..RunQuery::default()
        });
        assert_eq!(gaze_only.len(), 2);

        let one_workload = store.query(&RunQuery {
            workload: Some("bwaves_s".into()),
            limit: Some(1),
            ..RunQuery::default()
        });
        assert_eq!(one_workload.len(), 1);
        assert_eq!(one_workload[0].prefetcher, "gaze");

        let wrong_scale = store.query(&RunQuery {
            params_fingerprint: Some(999),
            ..RunQuery::default()
        });
        assert!(wrong_scale.is_empty());
        fs::remove_dir_all(&dir).ok();
    }
}
