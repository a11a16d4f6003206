//! Memory-access traces consumed by the trace-driven simulator.
//!
//! A trace is a sequence of [`TraceRecord`]s, each describing one memory
//! instruction (its PC, the byte address it touches, and whether it is a
//! store) together with the number of non-memory instructions that execute
//! before it. This is the same abstraction ChampSim traces provide to the
//! simulator after decoding, minus branch information (the paper's results
//! are driven by the data-memory behaviour; the hashed-perceptron branch
//! predictor is near-perfect on the evaluated traces).
//!
//! Traces reach the simulator through the [`TraceSource`] abstraction: a
//! source describes one pass over a workload and hands out replaying
//! [`TraceReader`]s. Two implementations exist:
//!
//! * [`Trace`] — the whole pass held in memory (synthetic generators),
//! * [`GztTrace`](crate::gzt::GztTrace) — a pass streamed from a packed
//!   on-disk GZT file through a bounded chunk buffer ([`crate::gzt`]).
//!
//! The simulator only ever sees `&dyn TraceSource`, so in-memory and
//! on-disk traces are interchangeable, and because both yield the same
//! record stream the resulting [`SimReport`](crate::stats::SimReport)s are
//! bit-identical.

use prefetch_common::addr::Addr;

/// One memory instruction in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Program counter of the memory instruction.
    pub pc: u64,
    /// Byte address accessed.
    pub addr: Addr,
    /// Whether the access is a store.
    pub is_store: bool,
    /// Number of non-memory instructions that precede this access.
    pub non_mem_before: u32,
}

impl TraceRecord {
    /// A load record preceded by `non_mem_before` non-memory instructions.
    pub fn load(pc: u64, addr: u64, non_mem_before: u32) -> Self {
        TraceRecord {
            pc,
            addr: Addr::new(addr),
            is_store: false,
            non_mem_before,
        }
    }

    /// A store record preceded by `non_mem_before` non-memory instructions.
    pub fn store(pc: u64, addr: u64, non_mem_before: u32) -> Self {
        TraceRecord {
            pc,
            addr: Addr::new(addr),
            is_store: true,
            non_mem_before,
        }
    }

    /// Total instructions this record represents (the memory instruction plus
    /// the non-memory instructions before it).
    pub fn instruction_count(&self) -> u64 {
        1 + self.non_mem_before as u64
    }
}

/// A replaying stream of [`TraceRecord`]s produced by a [`TraceSource`].
///
/// Readers wrap to the beginning of the pass when it is exhausted (the
/// paper replays a trace until the simulation's instruction budget is met),
/// so [`next_record`](TraceReader::next_record) never runs dry.
pub trait TraceReader {
    /// Returns the next record, wrapping to the beginning of the pass when
    /// the trace is exhausted.
    fn next_record(&mut self) -> TraceRecord;

    /// Number of times the reader wrapped past the end of the pass.
    fn wraps(&self) -> u64;
}

/// A workload trace the simulator can replay: a named, finite pass of
/// [`TraceRecord`]s that hands out independent replaying [`TraceReader`]s.
///
/// Sources are `Sync` so one read-only source (typically a packed trace
/// file) can be fanned out across the parallel experiment engine's worker
/// threads, each worker creating its own reader.
pub trait TraceSource: Sync {
    /// The trace's name (workload identifier).
    fn name(&self) -> &str;

    /// Number of records in one pass over the trace.
    fn len(&self) -> usize;

    /// Whether the pass holds no records. Always false for valid sources
    /// (both the in-memory and the on-disk constructors reject empty
    /// traces); provided for API completeness.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total instructions represented by one pass (memory instructions plus
    /// the non-memory gaps before them).
    fn instructions_per_pass(&self) -> u64;

    /// Creates a fresh replaying reader positioned at the start of the pass.
    fn reader(&self) -> Box<dyn TraceReader + '_>;

    /// FNV-1a fingerprint over one full pass of this source's records.
    ///
    /// The fingerprint is a pure function of the record stream, so an
    /// on-disk source packed from an in-memory trace fingerprints
    /// identically to the original — which is what lets the baseline
    /// memoization treat the two as the same workload. The default streams
    /// one pass; sources backed by expensive I/O should memoize
    /// (see [`GztTrace`](crate::gzt::GztTrace)).
    fn fingerprint(&self) -> u64 {
        streamed_fingerprint(self.len(), &mut *self.reader())
    }
}

/// The fingerprint computation shared by every [`TraceSource`]:
/// [`Fnv1a`](crate::params::Fnv1a) over `len` followed by each record's
/// fields, in record order.
pub fn streamed_fingerprint(len: usize, reader: &mut dyn TraceReader) -> u64 {
    let mut h = crate::params::Fnv1a::new();
    h.mix(len as u64);
    for _ in 0..len {
        let r = reader.next_record();
        h.mix(r.pc);
        h.mix(r.addr.raw());
        h.mix(u64::from(r.is_store));
        h.mix(u64::from(r.non_mem_before));
    }
    h.finish()
}

/// Fingerprint of one pass of `source` (see [`TraceSource::fingerprint`]).
pub fn source_fingerprint(source: &dyn TraceSource) -> u64 {
    source.fingerprint()
}

/// An in-memory access trace with replay semantics.
///
/// The paper replays a trace from the start whenever it is exhausted before
/// the simulation reaches its instruction budget; [`TraceCursor`] implements
/// the same behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    name: String,
    records: Vec<TraceRecord>,
}

impl Trace {
    /// Creates a trace from records.
    ///
    /// # Panics
    ///
    /// Panics if `records` is empty: the simulator cannot make progress on an
    /// empty trace.
    pub fn new(name: impl Into<String>, records: Vec<TraceRecord>) -> Self {
        assert!(
            !records.is_empty(),
            "a trace must contain at least one record"
        );
        Trace {
            name: name.into(),
            records,
        }
    }

    /// The trace's name (workload identifier).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The records of one pass over the trace.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of records in one pass.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Always false (construction rejects empty traces); provided for
    /// API completeness.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total instructions represented by one pass over the trace.
    pub fn instructions_per_pass(&self) -> u64 {
        self.records
            .iter()
            .map(TraceRecord::instruction_count)
            .sum()
    }

    /// Creates a replaying cursor positioned at the start.
    pub fn cursor(&self) -> TraceCursor<'_> {
        TraceCursor {
            trace: self,
            pos: 0,
            wraps: 0,
        }
    }
}

impl TraceSource for Trace {
    fn name(&self) -> &str {
        Trace::name(self)
    }

    fn len(&self) -> usize {
        Trace::len(self)
    }

    fn instructions_per_pass(&self) -> u64 {
        Trace::instructions_per_pass(self)
    }

    fn reader(&self) -> Box<dyn TraceReader + '_> {
        Box::new(self.cursor())
    }
}

/// A position within a [`Trace`] that wraps around at the end.
#[derive(Debug, Clone)]
pub struct TraceCursor<'a> {
    trace: &'a Trace,
    pos: usize,
    wraps: u64,
}

impl<'a> TraceCursor<'a> {
    /// Returns the next record, wrapping to the beginning when the trace is
    /// exhausted.
    pub fn next_record(&mut self) -> TraceRecord {
        let rec = self.trace.records[self.pos];
        self.pos += 1;
        if self.pos == self.trace.records.len() {
            self.pos = 0;
            self.wraps += 1;
        }
        rec
    }

    /// Number of times the cursor wrapped past the end of the trace.
    pub fn wraps(&self) -> u64 {
        self.wraps
    }
}

impl TraceReader for TraceCursor<'_> {
    fn next_record(&mut self) -> TraceRecord {
        TraceCursor::next_record(self)
    }

    fn wraps(&self) -> u64 {
        TraceCursor::wraps(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_trace() -> Trace {
        Trace::new(
            "tiny",
            vec![
                TraceRecord::load(0x400000, 0x1000, 3),
                TraceRecord::store(0x400004, 0x2000, 0),
                TraceRecord::load(0x400008, 0x3000, 7),
            ],
        )
    }

    #[test]
    fn instruction_counting() {
        let t = tiny_trace();
        assert_eq!(t.len(), 3);
        assert_eq!(t.instructions_per_pass(), 13); // 3 memory instructions + gaps of 3, 0 and 7
    }

    #[test]
    fn cursor_wraps_around() {
        let t = tiny_trace();
        let mut c = t.cursor();
        for _ in 0..7 {
            c.next_record();
        }
        assert_eq!(c.wraps(), 2);
        assert_eq!(c.next_record(), t.records()[1]);
    }

    #[test]
    #[should_panic(expected = "at least one record")]
    fn empty_trace_rejected() {
        let _ = Trace::new("empty", Vec::new());
    }

    #[test]
    fn trace_implements_trace_source() {
        let t = tiny_trace();
        let src: &dyn TraceSource = &t;
        assert_eq!(src.name(), "tiny");
        assert_eq!(src.len(), 3);
        assert_eq!(src.instructions_per_pass(), 13);
        let mut r = src.reader();
        for i in 0..5 {
            assert_eq!(r.next_record(), t.records()[i % 3]);
        }
        assert_eq!(r.wraps(), 1);
    }

    #[test]
    fn fingerprint_depends_on_content() {
        let a = Trace::new("w", vec![TraceRecord::load(1, 64, 0)]);
        let b = Trace::new("w", vec![TraceRecord::load(1, 128, 0)]);
        let c = Trace::new("other-name", vec![TraceRecord::load(1, 64, 0)]);
        assert_ne!(source_fingerprint(&a), source_fingerprint(&b));
        // The fingerprint covers the record stream, not the name.
        assert_eq!(source_fingerprint(&a), source_fingerprint(&c));
    }

    #[test]
    fn fingerprint_of_a_fixed_trace_is_pinned() {
        // Trace fingerprints key the on-disk results store: this value may
        // change only together with a GZR version bump.
        assert_eq!(source_fingerprint(&tiny_trace()), 0x25ae_9692_93ad_352b);
    }
}
