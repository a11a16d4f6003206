//! The append-only, directory-backed results store.
//!
//! Every row is a [`MixRecord`] of 1..=[`GZR_MAX_CORES`] cores, so every
//! operation has one code path; [`RunRecord`] is only the single-core
//! view of a 1-core row.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::ffi::OsString;
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Write};
use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::format::{
    decode_record, read_segment, record_bytes, write_segment, MixRecord, RecordKey, RunRecord,
    GZR_HEADER_BYTES, GZR_MAX_CORES,
};
use sim_core::params::Fnv1a;

/// Extension of segment files inside a store directory.
pub const SEGMENT_EXTENSION: &str = "gzr";

/// Prefix of segment file names (`seg-<seq>-<pid>-<nonce>-<hash>.gzr`).
pub const SEGMENT_PREFIX: &str = "seg-";

/// Prefix of in-progress temporary files; never loaded, so a crash
/// mid-write can leave at most garbage with this prefix behind, not a
/// corrupt segment.
pub const TMP_PREFIX: &str = ".tmp-";

/// Every core count a row can have.
const ALL_CORES: RangeInclusive<usize> = 1..=GZR_MAX_CORES;

/// Typed filter over the store's rows, answered by
/// [`ResultsStore::query`]. Every optional field is unset by default and
/// then matches everything; `cores` defaults to every core count. Results
/// come back in store order (segment load order, then append order), so a
/// query is deterministic for a given store state.
#[derive(Debug, Clone)]
pub struct Query {
    /// Keep only rows of this label (a workload name for 1-core rows).
    pub label: Option<String>,
    /// Keep only rows of this prefetcher (`"none"` selects baselines).
    pub prefetcher: Option<String>,
    /// Keep only rows recorded under this run-parameter fingerprint
    /// (i.e. one experiment scale/configuration at one core count).
    pub params_fingerprint: Option<u64>,
    /// Keep only rows of this mix fingerprint (a trace fingerprint for
    /// 1-core rows).
    pub fingerprint: Option<u64>,
    /// Keep only rows whose core count lies in this range; segments of
    /// other core counts are skipped unread.
    pub cores: RangeInclusive<usize>,
    /// Truncate the result to at most this many rows.
    pub limit: Option<usize>,
}

impl Default for Query {
    fn default() -> Self {
        Query {
            label: None,
            prefetcher: None,
            params_fingerprint: None,
            fingerprint: None,
            cores: ALL_CORES,
            limit: None,
        }
    }
}

impl Query {
    /// Whether `rec` passes every filter.
    pub fn matches(&self, rec: &MixRecord) -> bool {
        self.label.as_deref().is_none_or(|l| rec.label == l)
            && self
                .prefetcher
                .as_deref()
                .is_none_or(|p| rec.prefetcher == p)
            && self
                .params_fingerprint
                .is_none_or(|f| rec.params_fingerprint == f)
            && self.fingerprint.is_none_or(|f| rec.mix_fingerprint == f)
            && self.cores.contains(&rec.cores())
    }
}

/// What [`ResultsStore::compact`] did: how many segments went in and came
/// out, how many distinct rows survive, and how many superseded duplicate
/// rows were dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactStats {
    /// Segment count before compaction.
    pub segments_before: usize,
    /// Segment count after compaction (≤ one per core count).
    pub segments_after: usize,
    /// Distinct single-core rows in the compacted store.
    pub runs: usize,
    /// Distinct multi-core rows in the compacted store.
    pub mixes: usize,
    /// Duplicate rows (identical keys across segments) dropped.
    pub duplicates_dropped: u64,
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

/// Hashes a key `(fingerprint, params_fingerprint, prefetcher)` for the
/// segment index.
fn key_hash((fingerprint, params, prefetcher): (u64, u64, &str)) -> u64 {
    let mut hasher = Fnv1a::new();
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
    /// Core count of every row in the segment.
    cores: usize,
    /// `(key_hash, record_index)` sorted ascending by `(hash, index)`, so
    /// equal hashes probe in record order and the first write wins.
    entries: Vec<IndexEntry>,
    file: File,
}

impl Segment {
    /// A loaded segment holding `records`, its key table built from them.
    fn new(path: PathBuf, file: File, cores: usize, records: &[MixRecord]) -> Segment {
        let mut entries: Vec<IndexEntry> = records
            .iter()
            .enumerate()
            .map(|(index, rec)| IndexEntry {
                hash: key_hash(rec.key_parts()),
                index: index as u64,
            })
            .collect();
        entries.sort_unstable_by_key(|e| (e.hash, e.index));
        Segment {
            path,
            cores,
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

/// An append-only store of [`MixRecord`] rows backed by a directory of
/// GZR segment files.
///
/// * **Durability** — [`flush`](ResultsStore::flush) writes all unpersisted
///   rows as one new segment per core count: the bytes go to a `.tmp-`
///   file first, are fsynced, and the file is atomically renamed into
///   place. A crash at any point leaves either the old segment set or the
///   old set plus complete new segments — never a half-written segment.
/// * **Dedup** — one row exists per [`MixRecord::key`]. Re-appending an
///   existing key is a no-op (simulations are deterministic, so the row
///   content is identical); duplicates across segments are collapsed by
///   every read path (first segment in load order wins) and physically
///   dropped by [`compact`](ResultsStore::compact). The params
///   fingerprint folds the core count, so keys of different core counts
///   never meet.
/// * **Index** — opening validates each segment with one full scan and
///   keeps only its sorted `(key hash, record index)` table: resident
///   memory is bounded by 16 bytes per key, never by payloads. A point
///   lookup goes pending overlay → binary-searched key table of each
///   segment of the asked core count → one positioned record read.
#[derive(Debug)]
pub struct ResultsStore {
    dir: PathBuf,
    segments: Vec<Segment>,
    /// Appended rows not yet flushed, in append order.
    pending: Vec<MixRecord>,
    /// Key → position in `pending`.
    index: HashMap<RecordKey, usize>,
    /// Distinct persisted rows per core count (recomputed from segment
    /// indexes), indexed by core count.
    persisted: [usize; GZR_MAX_CORES + 1],
    /// Keys of pending rows that a segment loaded after their append also
    /// holds (possible after a reload picked up a foreign segment); they
    /// count once.
    shadowed: HashSet<RecordKey>,
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

/// Key → position of every row in `pending`.
fn pending_index(pending: &[MixRecord]) -> HashMap<RecordKey, usize> {
    pending
        .iter()
        .enumerate()
        .map(|(i, r)| (r.key(), i))
        .collect()
}

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
    /// corrupt, truncated or of another GZR version — a store that
    /// silently dropped a damaged segment would quietly re-simulate (or
    /// worse, serve partial sweeps), and one that served an older
    /// version's rows could pass pre-fix results off as current, so both
    /// are loud.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<ResultsStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut segment_paths = segment_files(&dir)?;
        segment_paths.sort();
        let mut store = ResultsStore {
            dir,
            segments: Vec::new(),
            pending: Vec::new(),
            index: HashMap::new(),
            persisted: [0; GZR_MAX_CORES + 1],
            shadowed: HashSet::new(),
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
        let (cores, records) = read_segment(
            &mut BufReader::new(&file),
            total_len,
            &path.display().to_string(),
        )?;
        self.note_decoded(records.len() as u64);
        Ok(Segment::new(path, file, cores, &records))
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

    /// Number of distinct rows (persisted + pending) whose core count
    /// lies in `cores`.
    fn count(&self, cores: RangeInclusive<usize>) -> usize {
        let persisted: usize = cores.clone().map(|c| self.persisted[c]).sum();
        let pending = self
            .pending
            .iter()
            .filter(|r| cores.contains(&r.cores()) && !self.shadowed.contains(&r.key()))
            .count();
        persisted + pending
    }

    /// Number of distinct single-core rows (persisted + pending).
    pub fn len(&self) -> usize {
        self.count(1..=1)
    }

    /// Number of distinct multi-core rows (persisted + pending).
    pub fn mix_len(&self) -> usize {
        self.count(2..=GZR_MAX_CORES)
    }

    /// Whether the store holds no rows.
    pub fn is_empty(&self) -> bool {
        self.count(ALL_CORES) == 0
    }

    /// Number of segment files currently loaded.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Number of appended-but-not-yet-flushed rows.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Number of duplicate rows the store is collapsing: re-appends of
    /// existing keys plus identical keys stored in more than one segment
    /// (multi-writer overlap, crash-retry leftovers) — the rows
    /// [`compact`](Self::compact) would drop.
    pub fn duplicates_skipped(&self) -> u64 {
        self.duplicates_base + self.duplicates_runtime + self.shadowed.len() as u64
    }

    /// Number of appends (or cross-segment duplicates) whose key already
    /// existed *with different statistics* — always zero for a
    /// deterministic simulator; non-zero values indicate a fingerprint
    /// collision or nondeterminism and are worth investigating.
    pub fn conflicting_appends(&self) -> u64 {
        self.conflicts_base + self.conflicts_runtime
    }

    /// Number of appends dropped because the row was not encodable
    /// (over-long/empty names, or zero or more than
    /// [`GZR_MAX_CORES`] cores) — always zero for rows produced by the
    /// experiment harness, whose labels are truncated to fit and whose
    /// core counts are bounded.
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
        self.lookup(trace_fingerprint, params_fingerprint, prefetcher, 1..=1)
            .map(RunRecord::from_row)
    }

    /// The multi-core row stored under (mix fingerprint, params
    /// fingerprint, prefetcher); see [`lookup`](Self::lookup).
    pub fn get_mix(
        &self,
        mix_fingerprint: u64,
        params_fingerprint: u64,
        prefetcher: &str,
    ) -> Option<MixRecord> {
        self.lookup(
            mix_fingerprint,
            params_fingerprint,
            prefetcher,
            2..=GZR_MAX_CORES,
        )
    }

    /// Looks up the row stored under (fingerprint, params fingerprint,
    /// prefetcher) whose core count lies in `cores`: pending overlay
    /// first, then per segment of those core counts a binary-searched key
    /// table → one positioned read. Segments of other core counts are
    /// not touched.
    ///
    /// A failing record read is answered fail-open as a miss (a warning +
    /// [`read_errors`](Self::read_errors)): the caller re-simulates and
    /// appends an identical row, which every read path collapses.
    pub fn lookup(
        &self,
        fingerprint: u64,
        params_fingerprint: u64,
        prefetcher: &str,
        cores: RangeInclusive<usize>,
    ) -> Option<MixRecord> {
        // The owned probe key is only built when there are pending rows
        // to probe: a warm store's pending overlay is usually empty.
        if !self.index.is_empty() {
            let key = (fingerprint, params_fingerprint, prefetcher.to_string());
            if let Some(&i) = self.index.get(&key) {
                let rec = &self.pending[i];
                return cores.contains(&rec.cores()).then(|| rec.clone());
            }
        }
        self.lookup_persisted((fingerprint, params_fingerprint, prefetcher), cores)
    }

    fn lookup_persisted(
        &self,
        key: (u64, u64, &str),
        cores: RangeInclusive<usize>,
    ) -> Option<MixRecord> {
        let hash = key_hash(key);
        for segment in self.segments.iter().filter(|s| cores.contains(&s.cores)) {
            for entry in segment.candidates(hash) {
                match self.read_at(segment, entry.index) {
                    Ok(rec) if rec.key_parts() == key => return Some(rec),
                    Ok(_) => {} // key-hash collision; keep probing
                    Err(err) => self.note_read_error(segment, err),
                }
            }
        }
        None
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
    fn read_at(&self, segment: &Segment, index: u64) -> io::Result<MixRecord> {
        crate::fault::check_io("gzr.segment.pread")?;
        crate::obs::metrics().preads.inc();
        // Sized for the largest row, so a point read never allocates a
        // buffer.
        let mut buf = [0u8; record_bytes(GZR_MAX_CORES)];
        let size = record_bytes(segment.cores);
        let buf = &mut buf[..size];
        let offset = GZR_HEADER_BYTES as u64 + index * size as u64;
        read_exact_at(&segment.file, buf, offset)?;
        self.note_decoded(1);
        decode_record(buf)
    }

    /// Decodes a whole segment for a query or compaction scan (fresh
    /// handle, so point reads and scans never fight over a cursor).
    fn scan(&self, segment: &Segment) -> io::Result<Vec<MixRecord>> {
        crate::fault::check_io("gzr.segment.scan")?;
        let file = File::open(&segment.path)?;
        let (_, records) = read_segment(
            &mut BufReader::new(&file),
            file.metadata()?.len(),
            &segment.path.display().to_string(),
        )?;
        self.note_decoded(records.len() as u64);
        Ok(records)
    }

    /// Appends a row (a [`RunRecord`] appends as its 1-core row),
    /// deduplicating on its key. Returns `true` when the row was new;
    /// `false` when an identical key already existed (the stored row wins
    /// and the new one is dropped) or when the row is not encodable
    /// (over-long/empty names, or zero or more than
    /// [`GZR_MAX_CORES`] cores; counted in
    /// [`rejected_appends`](Self::rejected_appends)) — admitting an
    /// unencodable row would make every later [`flush`](Self::flush)
    /// fail, wedging the pending queue forever.
    ///
    /// The row is only durable after the next [`flush`](Self::flush).
    pub fn append(&mut self, rec: impl Into<MixRecord>) -> bool {
        let rec = rec.into();
        if crate::format::encode_record(&rec).is_err() {
            self.rejected_appends += 1;
            return false;
        }
        let key = rec.key();
        let existing = match self.index.get(&key) {
            Some(&i) => Some(self.pending[i].report == rec.report),
            None => self
                .lookup_persisted(rec.key_parts(), rec.cores()..=rec.cores())
                .map(|stored| stored.report == rec.report),
        };
        if let Some(same) = existing {
            self.duplicates_runtime += 1;
            if !same {
                self.conflicts_runtime += 1;
            }
            return false;
        }
        self.index.insert(key, self.pending.len());
        self.pending.push(rec);
        true
    }

    /// Writes every pending row durably and returns how many rows were
    /// persisted: one new segment per core count among them (each: write
    /// `.tmp-` file, fsync, atomic rename, fsync directory). On a failure
    /// the rows of that core count and every later one stay pending. A
    /// no-op returning 0 when nothing is pending.
    pub fn flush(&mut self) -> io::Result<usize> {
        let started = std::time::Instant::now();
        let mut written = 0;
        for cores in ALL_CORES {
            let batch: Vec<MixRecord> = self
                .pending
                .iter()
                .filter(|r| r.cores() == cores)
                .cloned()
                .collect();
            if batch.is_empty() {
                continue;
            }
            let segment = self.persist(cores, &batch)?;
            self.adopt(segment);
            self.pending.retain(|r| r.cores() != cores);
            // Re-point the index before the next segment can fail: an
            // early return must not leave it naming pre-shrink positions.
            self.index = pending_index(&self.pending);
            let shadowed = batch
                .iter()
                .filter(|r| self.shadowed.remove(&r.key()))
                .count();
            self.persisted[cores] += batch.len() - shadowed;
            self.duplicates_runtime += shadowed as u64;
            written += batch.len();
        }
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

    /// Writes one batch of `cores`-core rows as a new segment (see
    /// [`write_segment_file`](Self::write_segment_file)) and returns it
    /// loaded, indexed from the batch itself. The segment name's hash
    /// folds each row's (fingerprint, params fingerprint, core count).
    fn persist(&self, cores: usize, batch: &[MixRecord]) -> io::Result<Segment> {
        let mut hasher = Fnv1a::new();
        for rec in batch {
            hasher.mix(rec.mix_fingerprint);
            hasher.mix(rec.params_fingerprint);
            hasher.mix(cores as u64);
        }
        let path =
            self.write_segment_file(hasher, |mut out| write_segment(&mut out, cores, batch))?;
        let file = File::open(&path)?;
        Ok(Segment::new(path, file, cores, batch))
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

    /// Rewrites the store as at most one segment per core count,
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
    /// (at most one segment per core count) returns immediately.
    pub fn compact(&mut self) -> io::Result<CompactStats> {
        self.flush()?;
        let segments_before = self.segments.len();
        let core_counts: BTreeSet<usize> = self.segments.iter().map(|s| s.cores).collect();
        let counts = |rows: &[MixRecord]| {
            let runs = rows.iter().filter(|r| r.cores() == 1).count();
            (runs, rows.len() - runs)
        };
        if segments_before <= core_counts.len() {
            // One segment per core count cannot hold duplicates (appends
            // dedup within a batch), so there is nothing to merge or drop.
            return Ok(CompactStats {
                segments_before,
                segments_after: segments_before,
                runs: self.persisted[1],
                mixes: self.persisted[2..].iter().sum(),
                duplicates_dropped: 0,
            });
        }
        crate::fault::check_io("gzr.compact.begin")?;
        let started = std::time::Instant::now();

        // Loud full read of every row before anything is written.
        let (rows, duplicates_dropped) = self.merged()?;

        // Write the merged segments through the ordinary crash-safe path;
        // the old segments stay the readable truth until the rename lands.
        crate::fault::check_io("gzr.compact.write")?;
        let old_paths: Vec<PathBuf> = self.segments.iter().map(|s| s.path.clone()).collect();
        for &cores in &core_counts {
            let batch: Vec<MixRecord> = rows
                .iter()
                .filter(|r| r.cores() == cores)
                .cloned()
                .collect();
            if !batch.is_empty() {
                let segment = self.persist(cores, &batch)?;
                self.adopt(segment);
            }
        }

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
        let (runs, mixes) = counts(&rows);
        Ok(CompactStats {
            segments_before,
            segments_after: self.segments.len(),
            runs,
            mixes,
            duplicates_dropped,
        })
    }

    /// Every distinct row on disk (first segment in load order wins) and
    /// the number of duplicate rows left out. A failing read fails.
    fn merged(&self) -> io::Result<(Vec<MixRecord>, u64)> {
        let mut seen: HashSet<RecordKey> = HashSet::new();
        let mut rows = Vec::new();
        let mut duplicates = 0;
        for segment in &self.segments {
            for rec in self.scan(segment)? {
                if seen.insert(rec.key()) {
                    rows.push(rec);
                } else {
                    duplicates += 1;
                }
            }
        }
        Ok((rows, duplicates))
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
    /// happened. Pending (unflushed) rows of *this* store are always
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
            for rec in std::mem::take(&mut self.pending) {
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
        // Pending rows whose key a foreign segment now also holds count
        // once, and their flush writes a duplicate row that dedup-on-read
        // collapses (exactly like a crash-retry).
        self.shadowed = self
            .pending
            .iter()
            .filter(|r| {
                self.lookup_persisted(r.key_parts(), r.cores()..=r.cores())
                    .is_some()
            })
            .map(MixRecord::key)
            .collect();
        Ok(true)
    }

    /// Recomputes the persisted distinct-row counts per core count and
    /// the duplicate/conflict counts from the segment indexes. Payloads
    /// are only read for keys whose hash appears more than once — a
    /// duplicate-free store recounts with **zero** record reads.
    fn recount(&mut self) -> io::Result<()> {
        // (hash, segment position, record index): sorting groups equal
        // hashes and orders each group first-write-first.
        let mut keys: Vec<(u64, usize, u64)> = Vec::new();
        for (pos, segment) in self.segments.iter().enumerate() {
            keys.extend(segment.entries.iter().map(|e| (e.hash, pos, e.index)));
        }
        keys.sort_unstable();

        let mut persisted = [0; GZR_MAX_CORES + 1];
        let mut duplicates = 0u64;
        let mut conflicts = 0u64;
        for group in keys.chunk_by(|a, b| a.0 == b.0) {
            if let [(_, pos, _)] = group {
                persisted[self.segments[*pos].cores] += 1;
                continue;
            }
            // Same hash more than once: fetch payloads to tell true
            // duplicates from hash collisions.
            let mut firsts: Vec<MixRecord> = Vec::new();
            for &(_, pos, index) in group {
                let rec = self.read_at(&self.segments[pos], index)?;
                match firsts.iter().find(|f| f.key_parts() == rec.key_parts()) {
                    None => {
                        persisted[rec.cores()] += 1;
                        firsts.push(rec);
                    }
                    Some(first) => {
                        duplicates += 1;
                        if first.report != rec.report {
                            conflicts += 1;
                        }
                    }
                }
            }
        }
        self.persisted = persisted;
        self.duplicates_base = duplicates;
        self.conflicts_base = conflicts;
        Ok(())
    }

    /// All rows that match `query`, in deterministic store order (segment
    /// load order, then pending append order; the first copy of a
    /// duplicated key wins). This scans the segments of the queried core
    /// counts — prefer [`lookup`](Self::lookup) for point lookups.
    /// Segments that fail to read are skipped fail-open (a warning +
    /// [`read_errors`](Self::read_errors)).
    pub fn query(&self, query: &Query) -> Vec<MixRecord> {
        let limit = query.limit.unwrap_or(usize::MAX);
        if limit == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut seen: HashSet<RecordKey> = HashSet::new();
        let segments = self
            .segments
            .iter()
            .filter(|s| query.cores.contains(&s.cores));
        'segments: for segment in segments {
            let records = match self.scan(segment) {
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
        for rec in &self.pending {
            if out.len() >= limit {
                break;
            }
            if !seen.contains(&rec.key()) && query.matches(rec) {
                out.push(rec.clone());
            }
        }
        out
    }

    /// Every single-core row in the store, in store order. This scans
    /// every 1-core segment — prefer [`get`](Self::get) /
    /// [`query`](Self::query) on large stores.
    pub fn records(&self) -> Vec<RunRecord> {
        let rows = self.query(&Query {
            cores: 1..=1,
            ..Query::default()
        });
        rows.into_iter().map(RunRecord::from_row).collect()
    }

    /// Every multi-core row in the store, in store order. This scans
    /// every segment of two or more cores — prefer
    /// [`get_mix`](Self::get_mix) / [`query`](Self::query) on large
    /// stores.
    pub fn mix_records(&self) -> Vec<MixRecord> {
        self.query(&Query {
            cores: 2..=GZR_MAX_CORES,
            ..Query::default()
        })
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
        RunRecord {
            trace_fingerprint: fnv(workload),
            params_fingerprint: 42,
            workload: workload.to_string(),
            prefetcher: prefetcher.to_string(),
            stats,
        }
    }

    fn fnv(s: &str) -> u64 {
        let mut hasher = Fnv1a::new();
        for byte in s.bytes() {
            hasher.mix(u64::from(byte));
        }
        hasher.finish()
    }

    /// The in-memory key hash of one key, pinned: it indexes every
    /// segment, whatever its core count.
    #[test]
    fn key_hashes_are_pinned() {
        assert_eq!(key_hash((0x1234, 0x5678, "gaze")), 0x9989_f70b_de75_7892);
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
        other.pending.push(record("a", "gaze", 1_000).into());
        other.flush().expect("flush duplicate");

        store.reload_if_stale().expect("reload");
        assert_eq!(store.segment_count(), 4);
        let before_runs = store.records();
        let before_mixes = store.mix_records();

        let stats = store.compact().expect("compact");
        assert_eq!(stats.segments_before, 4);
        assert_eq!(stats.segments_after, 2, "one 1-core + one 2-core segment");
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
        assert_eq!((again.runs, again.mixes), (2, 1));
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
        assert_eq!(store.segment_count(), 2, "one segment per core count");

        let reopened = ResultsStore::open(&dir).expect("reopen");
        assert_eq!(reopened.mix_len(), 3);
        assert_eq!(reopened.mix_records(), store.mix_records());
        let hit = reopened
            .get_mix(fnv("a+b") ^ 2, 77, "none")
            .expect("baseline row");
        assert_eq!(hit.cores(), 2);
        assert_eq!(hit.report.cores[0].cycles, 14_000);

        let four_core = reopened.query(&Query {
            cores: 4..=4,
            ..Query::default()
        });
        assert_eq!(four_core.len(), 1);
        assert_eq!(four_core[0].label, "a+b+c+d");
        let gaze = reopened.query(&Query {
            prefetcher: Some("gaze".into()),
            limit: Some(1),
            ..Query::default()
        });
        assert_eq!(gaze.len(), 1);
        fs::remove_dir_all(&dir).ok();
    }

    /// A lookup for one core count reads no segment of another: the
    /// 2-core segment holds the key, the 1-core probe decodes nothing.
    #[test]
    fn a_lookup_skips_segments_of_other_core_counts() {
        let dir = temp_dir("core-skip");
        let mut store = ResultsStore::open(&dir).expect("open");
        let mix = mix_record("a+b", "gaze", 2, 9_000);
        store.append(mix.clone());
        store.append(record("a", "gaze", 1_000));
        store.flush().expect("flush");
        let decoded = store.records_decoded();
        assert!(store.get(mix.mix_fingerprint, 77, "gaze").is_none());
        assert_eq!(store.records_decoded(), decoded, "no 2-core read");
        assert_eq!(store.get_mix(mix.mix_fingerprint, 77, "gaze"), Some(mix));
        assert_eq!(store.records_decoded(), decoded + 1);
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
        bad.workload = "w".repeat(200);
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
    fn flush_writes_one_segment_per_core_count() {
        let dir = temp_dir("core-counts");
        let mut store = ResultsStore::open(&dir).expect("open");
        store.append(record("a", "gaze", 1_000));
        store.append(mix_record("a+a", "gaze", 2, 2_000));
        store.append(mix_record("a+b", "gaze", 2, 2_500));
        store.append(mix_record("a+a+a+a", "gaze", 4, 2_000));
        assert_eq!(store.pending_len(), 4);
        assert_eq!(store.flush().expect("flush"), 4);
        assert_eq!(store.segment_count(), 3, "1-, 2- and 4-core segments");
        let reopened = ResultsStore::open(&dir).expect("reopen");
        assert_eq!((reopened.len(), reopened.mix_len()), (1, 3));
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
        store.append(mix_record("bwaves_s+mcf_s", "gaze", 2, 3_000));

        assert_eq!(store.query(&Query::default()).len(), 4);
        let single = Query {
            cores: 1..=1,
            ..Query::default()
        };
        assert_eq!(store.query(&single).len(), 3);

        let gaze_only = store.query(&Query {
            prefetcher: Some("gaze".into()),
            ..single.clone()
        });
        assert_eq!(gaze_only.len(), 2);

        let one_workload = store.query(&Query {
            label: Some("bwaves_s".into()),
            limit: Some(1),
            ..single.clone()
        });
        assert_eq!(one_workload.len(), 1);
        assert_eq!(one_workload[0].prefetcher, "gaze");

        let wrong_scale = store.query(&Query {
            params_fingerprint: Some(999),
            ..Query::default()
        });
        assert!(wrong_scale.is_empty());
        fs::remove_dir_all(&dir).ok();
    }
}
