//! GZT — the packed on-disk trace format and its streaming reader.
//!
//! A GZT file is a compact little-endian encoding of one pass over a
//! workload trace: a fixed 32-byte header, the UTF-8 workload name, then
//! one fixed-width 24-byte record per memory instruction. The full
//! specification (every field, offset and invariant) lives in
//! `docs/TRACES.md`; this module is the reference implementation.
//!
//! Layout summary:
//!
//! ```text
//! offset  size  field
//! 0       4     magic, b"GZT1"
//! 4       2     version (u16 LE) = 1
//! 6       2     name_len (u16 LE)
//! 8       8     record_count (u64 LE)
//! 16      8     instructions_per_pass (u64 LE)
//! 24      8     reserved, must be zero
//! 32      n     workload name (name_len UTF-8 bytes)
//! 32+n    24*k  records
//! ```
//!
//! Each record is `pc (u64 LE) | addr (u64 LE) | non_mem_before (u32 LE) |
//! flags (u32 LE)` with flag bit 0 = store and all other bits reserved
//! (must be zero).
//!
//! [`GztWriter`] streams records to disk without buffering the pass;
//! [`GztTrace`] implements [`TraceSource`] by handing out [`GztReader`]s
//! that decode through a bounded chunk buffer, so simulating a packed trace
//! never materialises the full record stream in memory. Everything uses
//! plain `std` file I/O — no mmap, no compression, no external crates.

use std::fs::File;
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use prefetch_common::addr::Addr;

use crate::trace::{streamed_fingerprint, TraceReader, TraceRecord, TraceSource};

/// Magic bytes at the start of every GZT file.
pub const GZT_MAGIC: [u8; 4] = *b"GZT1";

/// Current (and only) format version.
pub const GZT_VERSION: u16 = 1;

/// Size of the fixed header part, before the workload name.
pub const GZT_HEADER_BYTES: usize = 32;

/// Size of one encoded trace record.
pub const GZT_RECORD_BYTES: usize = 24;

/// Record flag bit 0: the access is a store.
pub const GZT_FLAG_STORE: u32 = 1;

/// Default chunk size of the streaming reader, in records (96 KiB of
/// encoded data — small enough that thousands of concurrent readers stay
/// cheap, large enough that refills are rare).
pub const DEFAULT_CHUNK_RECORDS: usize = 4096;

/// Encodes one record into its 24-byte on-disk form.
pub fn encode_record(rec: &TraceRecord) -> [u8; GZT_RECORD_BYTES] {
    let mut buf = [0u8; GZT_RECORD_BYTES];
    buf[0..8].copy_from_slice(&rec.pc.to_le_bytes());
    buf[8..16].copy_from_slice(&rec.addr.raw().to_le_bytes());
    buf[16..20].copy_from_slice(&rec.non_mem_before.to_le_bytes());
    let flags: u32 = if rec.is_store { GZT_FLAG_STORE } else { 0 };
    buf[20..24].copy_from_slice(&flags.to_le_bytes());
    buf
}

/// Decodes one 24-byte on-disk record.
///
/// Fails if any reserved flag bit is set (a sign the file is not GZT v1 or
/// is corrupt).
pub fn decode_record(buf: &[u8; GZT_RECORD_BYTES]) -> io::Result<TraceRecord> {
    let pc = u64::from_le_bytes(buf[0..8].try_into().expect("8-byte slice"));
    let addr = u64::from_le_bytes(buf[8..16].try_into().expect("8-byte slice"));
    let non_mem_before = u32::from_le_bytes(buf[16..20].try_into().expect("4-byte slice"));
    let flags = u32::from_le_bytes(buf[20..24].try_into().expect("4-byte slice"));
    if flags & !GZT_FLAG_STORE != 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("reserved GZT record flag bits set: {flags:#x}"),
        ));
    }
    Ok(TraceRecord {
        pc,
        addr: Addr::new(addr),
        is_store: flags & GZT_FLAG_STORE != 0,
        non_mem_before,
    })
}

/// Reads `buf.len()` bytes at `offset` without moving any file cursor
/// (`pread` on Unix; an emulation via the shared-handle cursor elsewhere,
/// where each `GztReader` owns its handle so the cursor is private).
#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

#[cfg(not(unix))]
fn read_exact_at(mut file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    file.seek(SeekFrom::Start(offset))?;
    file.read_exact(buf)
}

/// Streaming GZT writer: records go straight to disk; the header's counts
/// are patched in when the writer is [`finish`](GztWriter::finish)ed.
///
/// The writer never holds more than one record in memory, so arbitrarily
/// long traces can be packed with a bounded footprint.
pub struct GztWriter {
    out: BufWriter<File>,
    record_count: u64,
    instructions: u64,
}

impl GztWriter {
    /// Creates `path` (truncating any existing file) and writes the header
    /// for a trace called `name`.
    ///
    /// Fails if `name` is empty or longer than `u16::MAX` bytes.
    pub fn create(path: &Path, name: &str) -> io::Result<GztWriter> {
        if name.is_empty() || name.len() > usize::from(u16::MAX) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "GZT trace name must be 1..=65535 bytes",
            ));
        }
        let mut out = BufWriter::new(File::create(path)?);
        let mut header = [0u8; GZT_HEADER_BYTES];
        header[0..4].copy_from_slice(&GZT_MAGIC);
        header[4..6].copy_from_slice(&GZT_VERSION.to_le_bytes());
        header[6..8].copy_from_slice(&(name.len() as u16).to_le_bytes());
        // record_count and instructions_per_pass are patched by finish().
        out.write_all(&header)?;
        out.write_all(name.as_bytes())?;
        Ok(GztWriter {
            out,
            record_count: 0,
            instructions: 0,
        })
    }

    /// Appends one record.
    pub fn push(&mut self, rec: &TraceRecord) -> io::Result<()> {
        self.out.write_all(&encode_record(rec))?;
        self.record_count += 1;
        self.instructions += rec.instruction_count();
        Ok(())
    }

    /// Appends every record of an iterator.
    pub fn push_all<'a>(
        &mut self,
        records: impl IntoIterator<Item = &'a TraceRecord>,
    ) -> io::Result<()> {
        for rec in records {
            self.push(rec)?;
        }
        Ok(())
    }

    /// Number of records written so far.
    pub fn record_count(&self) -> u64 {
        self.record_count
    }

    /// Patches the header counts, flushes, and closes the file.
    ///
    /// Fails if no record was written: an empty trace cannot drive the
    /// simulator, so the format forbids it.
    pub fn finish(mut self) -> io::Result<()> {
        if self.record_count == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a GZT trace must contain at least one record",
            ));
        }
        self.out.flush()?;
        let mut file = self.out.into_inner().map_err(io::Error::from)?;
        file.seek(SeekFrom::Start(8))?;
        file.write_all(&self.record_count.to_le_bytes())?;
        file.write_all(&self.instructions.to_le_bytes())?;
        file.sync_all()
    }
}

/// Writes a complete in-memory record slice as a GZT file (convenience
/// wrapper over [`GztWriter`]).
pub fn write_gzt(path: &Path, name: &str, records: &[TraceRecord]) -> io::Result<()> {
    let mut w = GztWriter::create(path, name)?;
    w.push_all(records)?;
    w.finish()
}

/// A packed trace file acting as a [`TraceSource`].
///
/// Opening validates the header and the file size; reading is done by
/// [`GztReader`]s, each with its own file handle and bounded chunk buffer,
/// so one `GztTrace` can be shared read-only across worker threads.
#[derive(Debug, Clone)]
pub struct GztTrace {
    path: PathBuf,
    name: String,
    record_count: u64,
    instructions_per_pass: u64,
    data_offset: u64,
    chunk_records: usize,
    /// Memoized stream fingerprint — the file is validated-immutable after
    /// open, and the experiment engine asks for the fingerprint once per
    /// job, which would otherwise re-read the whole file each time.
    /// Shared across clones so the file is fingerprinted at most once.
    fingerprint: Arc<OnceLock<u64>>,
}

impl GztTrace {
    /// Opens and validates a GZT file.
    ///
    /// Fails if the magic/version mismatch, the header is inconsistent, the
    /// name is not UTF-8, the record count is zero, or the file size does
    /// not equal `header + name + record_count * 24` exactly.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<GztTrace> {
        let path = path.into();
        let mut file = File::open(&path)?;
        let mut header = [0u8; GZT_HEADER_BYTES];
        file.read_exact(&mut header).map_err(|e| {
            io::Error::new(
                e.kind(),
                format!("{}: truncated GZT header", path.display()),
            )
        })?;
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        if header[0..4] != GZT_MAGIC {
            return Err(invalid(format!(
                "{}: not a GZT file (bad magic)",
                path.display()
            )));
        }
        let version = u16::from_le_bytes(header[4..6].try_into().expect("2-byte slice"));
        if version != GZT_VERSION {
            return Err(invalid(format!(
                "{}: unsupported GZT version {version} (expected {GZT_VERSION})",
                path.display()
            )));
        }
        let name_len = u16::from_le_bytes(header[6..8].try_into().expect("2-byte slice"));
        let record_count = u64::from_le_bytes(header[8..16].try_into().expect("8-byte slice"));
        let instructions_per_pass =
            u64::from_le_bytes(header[16..24].try_into().expect("8-byte slice"));
        if header[24..32] != [0u8; 8] {
            return Err(invalid(format!(
                "{}: reserved GZT header bytes are non-zero",
                path.display()
            )));
        }
        if record_count == 0 {
            return Err(invalid(format!(
                "{}: GZT trace has zero records (unfinished pack?)",
                path.display()
            )));
        }
        let mut name_bytes = vec![0u8; usize::from(name_len)];
        file.read_exact(&mut name_bytes).map_err(|e| {
            io::Error::new(e.kind(), format!("{}: truncated GZT name", path.display()))
        })?;
        let name = String::from_utf8(name_bytes)
            .map_err(|_| invalid(format!("{}: GZT name is not UTF-8", path.display())))?;
        let data_offset = GZT_HEADER_BYTES as u64 + u64::from(name_len);
        let expected_size = data_offset + record_count * GZT_RECORD_BYTES as u64;
        let actual_size = file.metadata()?.len();
        if actual_size != expected_size {
            return Err(invalid(format!(
                "{}: GZT file size {actual_size} does not match header \
                 (expected {expected_size} for {record_count} records)",
                path.display()
            )));
        }
        Ok(GztTrace {
            path,
            name,
            record_count,
            instructions_per_pass,
            data_offset,
            chunk_records: DEFAULT_CHUNK_RECORDS,
            fingerprint: Arc::new(OnceLock::new()),
        })
    }

    /// Returns a copy using `chunk_records` as the reader buffer capacity
    /// (minimum 1). Smaller chunks bound memory tighter at the cost of more
    /// refills; tests use tiny chunks to prove the bound.
    pub fn with_chunk_records(mut self, chunk_records: usize) -> GztTrace {
        self.chunk_records = chunk_records.max(1);
        self
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of records in one pass.
    pub fn record_count(&self) -> u64 {
        self.record_count
    }

    /// Creates a concrete chunked reader (the trait-object path goes through
    /// [`TraceSource::reader`]; this one exposes the buffer bound for
    /// tests and tools).
    pub fn chunk_reader(&self) -> io::Result<GztReader> {
        // Every read is positioned (offset computed from
        // `next_record_index`), so the reader never seeks: many readers
        // can share one opened file without a cursor to race on.
        Ok(GztReader {
            file: File::open(&self.path)?,
            data_offset: self.data_offset,
            record_count: self.record_count,
            chunk: Vec::with_capacity(self.chunk_records),
            chunk_capacity: self.chunk_records,
            raw: vec![0u8; self.chunk_records * GZT_RECORD_BYTES],
            chunk_pos: 0,
            next_record_index: 0,
            wraps: 0,
        })
    }
}

impl TraceSource for GztTrace {
    fn name(&self) -> &str {
        &self.name
    }

    fn len(&self) -> usize {
        self.record_count as usize
    }

    fn instructions_per_pass(&self) -> u64 {
        self.instructions_per_pass
    }

    /// # Panics
    ///
    /// Panics if the underlying file can no longer be opened or read — the
    /// file was validated at [`GztTrace::open`] time, so this only happens
    /// if it was deleted or truncated mid-run.
    fn reader(&self) -> Box<dyn TraceReader + '_> {
        Box::new(
            self.chunk_reader().unwrap_or_else(|e| {
                panic!("GZT trace {} became unreadable: {e}", self.path.display())
            }),
        )
    }

    /// Memoized: the file is read and fingerprinted at most once per
    /// opened trace (shared across clones), instead of on every cache-key
    /// computation.
    fn fingerprint(&self) -> u64 {
        *self
            .fingerprint
            .get_or_init(|| streamed_fingerprint(TraceSource::len(self), &mut *self.reader()))
    }
}

/// A replaying reader over a [`GztTrace`], decoding through a bounded chunk
/// buffer.
///
/// Memory use is `chunk_capacity` decoded records plus the matching raw
/// byte buffer, independent of the trace length.
pub struct GztReader {
    file: File,
    data_offset: u64,
    record_count: u64,
    chunk: Vec<TraceRecord>,
    chunk_capacity: usize,
    raw: Vec<u8>,
    chunk_pos: usize,
    /// Absolute index (within the pass) of the next record to hand out.
    next_record_index: u64,
    wraps: u64,
}

impl GztReader {
    /// The reader's buffer capacity in records — the streaming memory bound.
    pub fn chunk_capacity(&self) -> usize {
        self.chunk_capacity
    }

    /// Number of decoded records currently buffered (always `<=`
    /// [`chunk_capacity`](GztReader::chunk_capacity)).
    pub fn buffered_records(&self) -> usize {
        self.chunk.len()
    }

    fn refill(&mut self) -> io::Result<()> {
        if self.next_record_index >= self.record_count {
            // Pass exhausted: wrap to the start of the data section.
            self.next_record_index = 0;
            self.wraps += 1;
        }
        let remaining = (self.record_count - self.next_record_index) as usize;
        let n = remaining.min(self.chunk_capacity);
        let offset = self.data_offset + self.next_record_index * GZT_RECORD_BYTES as u64;
        let bytes = &mut self.raw[..n * GZT_RECORD_BYTES];
        read_exact_at(&self.file, bytes, offset)?;
        self.chunk.clear();
        for i in 0..n {
            let rec_bytes: &[u8; GZT_RECORD_BYTES] = bytes
                [i * GZT_RECORD_BYTES..(i + 1) * GZT_RECORD_BYTES]
                .try_into()
                .expect("exact record slice");
            self.chunk.push(decode_record(rec_bytes)?);
        }
        self.chunk_pos = 0;
        Ok(())
    }
}

impl TraceReader for GztReader {
    /// # Panics
    ///
    /// Panics if the underlying file turns unreadable mid-pass (deleted or
    /// truncated after validation).
    fn next_record(&mut self) -> TraceRecord {
        if self.chunk_pos >= self.chunk.len() {
            self.refill()
                .unwrap_or_else(|e| panic!("GZT trace became unreadable mid-pass: {e}"));
        }
        let rec = self.chunk[self.chunk_pos];
        self.chunk_pos += 1;
        self.next_record_index += 1;
        rec
    }

    fn wraps(&self) -> u64 {
        self.wraps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{source_fingerprint, Trace};

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("gzt-unit-{}-{tag}.gzt", std::process::id()))
    }

    fn sample_records(n: usize) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    TraceRecord::store(0x400000 + i as u64, (i as u64) * 64, (i % 7) as u32)
                } else {
                    TraceRecord::load(0x400100 + i as u64, (i as u64) * 192 + 8, (i % 11) as u32)
                }
            })
            .collect()
    }

    #[test]
    fn record_encoding_round_trips() {
        for rec in sample_records(50) {
            let decoded = decode_record(&encode_record(&rec)).expect("valid record");
            assert_eq!(decoded, rec);
        }
    }

    #[test]
    fn reserved_flag_bits_are_rejected() {
        let mut buf = encode_record(&TraceRecord::load(1, 64, 0));
        buf[21] = 0x80;
        assert!(decode_record(&buf).is_err());
    }

    #[test]
    fn file_round_trip_preserves_everything() {
        let path = temp_path("roundtrip");
        let records = sample_records(1000);
        write_gzt(&path, "unit-trace", &records).expect("write");
        let gzt = GztTrace::open(&path).expect("open");
        assert_eq!(TraceSource::name(&gzt), "unit-trace");
        assert_eq!(gzt.len(), 1000);
        let mem = Trace::new("unit-trace", records.clone());
        assert_eq!(
            gzt.instructions_per_pass(),
            Trace::instructions_per_pass(&mem)
        );
        let mut r = gzt.reader();
        for rec in &records {
            assert_eq!(r.next_record(), *rec);
        }
        assert_eq!(r.wraps(), 0);
        // Fingerprints agree between disk and memory.
        assert_eq!(source_fingerprint(&gzt), source_fingerprint(&mem));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reader_wraps_like_the_in_memory_cursor() {
        let path = temp_path("wraps");
        let records = sample_records(17);
        write_gzt(&path, "wrap-trace", &records).expect("write");
        let gzt = GztTrace::open(&path).expect("open").with_chunk_records(5);
        let mem = Trace::new("wrap-trace", records);
        let mut a = gzt.reader();
        let mut b = mem.cursor();
        for read in 1..=100 {
            assert_eq!(a.next_record(), b.next_record());
            assert_eq!(a.wraps(), b.wraps(), "after {read} reads");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chunk_buffer_stays_bounded_on_traces_larger_than_the_chunk() {
        let path = temp_path("bounded");
        // 50k records (~1.2 MB on disk), streamed through a 256-record
        // buffer: the reader must never hold more than the chunk.
        let records = sample_records(50_000);
        write_gzt(&path, "big-trace", &records).expect("write");
        let gzt = GztTrace::open(&path).expect("open").with_chunk_records(256);
        let mut reader = gzt.chunk_reader().expect("reader");
        assert_eq!(reader.chunk_capacity(), 256);
        for rec in &records {
            assert_eq!(TraceReader::next_record(&mut reader), *rec);
            assert!(
                reader.buffered_records() <= reader.chunk_capacity(),
                "buffer exceeded its bound: {} > {}",
                reader.buffered_records(),
                reader.chunk_capacity()
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_rejects_corruption() {
        let path = temp_path("corrupt");
        let records = sample_records(10);
        write_gzt(&path, "t", &records).expect("write");

        // Bad magic.
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[0] = b'X';
        std::fs::write(&path, &bytes).expect("write");
        assert!(GztTrace::open(&path).is_err());

        // Bad version.
        bytes[0] = b'G';
        bytes[4] = 9;
        std::fs::write(&path, &bytes).expect("write");
        assert!(GztTrace::open(&path).is_err());

        // Truncated data section.
        bytes[4] = 1;
        let truncated = bytes.len() - 7;
        std::fs::write(&path, &bytes[..truncated]).expect("write");
        assert!(GztTrace::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn writer_rejects_empty_traces_and_bad_names() {
        let path = temp_path("empty");
        let w = GztWriter::create(&path, "empty").expect("create");
        assert!(w.finish().is_err());
        assert!(GztWriter::create(&path, "").is_err());
        std::fs::remove_file(&path).ok();
    }
}
