//! GZR input boundary: LCG-driven mutations of one valid segment of each
//! record kind — byte flips, truncation, extension and header rewrites
//! (version 1↔2, `record_size`, `record_count`, reserved bytes). Both
//! `read_segment_any` and `ResultsStore::open` on a directory holding the
//! mutated file must answer `Ok` or an `InvalidData` error: no panic, no
//! other error kind, and no single allocation larger than the file plus
//! a fixed allowance for buffers (a header's record count must never size
//! an allocation on its own).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fs;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use results_store::format::{read_segment_any, write_segment, GZR_HEADER_BYTES};
use results_store::{MixRecord, ResultsStore, RunRecord};
use sim_core::stats::{CoreStats, SimReport};

/// Allocator that records the largest single request made by a thread
/// while it has tracking switched on.
struct PeakTracking;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
}

fn note(size: usize) {
    if TRACKING.try_with(Cell::get).unwrap_or(false) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping touches only
// an atomic and a const-initialised thread-local, neither of which
// allocates or unwinds.
unsafe impl GlobalAlloc for PeakTracking {
    // SAFETY: same contract as `System::alloc`, which it calls.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's guarantees for `alloc` pass through as is.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as `System::alloc_zeroed`, which it calls.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's guarantees for `alloc_zeroed` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: same contract as `System::dealloc`, which it calls.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: every block was allocated by `System` through this type.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: same contract as `System::realloc`, which it calls.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: every block was allocated by `System` through this type,
        // and the caller's guarantees for `realloc` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: PeakTracking = PeakTracking;

/// Fixed allowance on top of the file size: read buffers, paths and
/// error messages.
const ALLOWANCE: usize = 16 * 1024;

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 17
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn stats(seed: u64) -> CoreStats {
    let mut s = CoreStats {
        instructions: 10_000 + seed,
        cycles: 20_000 + seed * 3,
        ..CoreStats::default()
    };
    s.l1d.demand_accesses = 4_000 + seed;
    s.prefetch.requested = 100 + seed;
    s
}

fn run_segment() -> Vec<u8> {
    let records: Vec<RunRecord> = (0..3)
        .map(|i| RunRecord {
            trace_fingerprint: 0x1000 + i,
            params_fingerprint: 42,
            workload: format!("workload-{i}"),
            prefetcher: "gaze".to_string(),
            stats: stats(i),
            baseline: stats(i + 7),
        })
        .collect();
    let mut bytes = Vec::new();
    write_segment(&mut bytes, &records).expect("valid runs encode");
    bytes
}

fn mix_segment() -> Vec<u8> {
    let records: Vec<MixRecord> = (1..=2)
        .map(|cores| MixRecord {
            mix_fingerprint: 0x2000 + cores,
            params_fingerprint: 43,
            prefetcher: "gaze".to_string(),
            label: format!("mix-{cores}"),
            report: SimReport {
                cores: (0..cores).map(stats).collect(),
            },
        })
        .collect();
    let mut bytes = Vec::new();
    write_segment(&mut bytes, &records).expect("valid mixes encode");
    bytes
}

fn put_u16(buf: &mut [u8], at: usize, v: u16) {
    buf[at..at + 2].copy_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut [u8], at: usize, v: u64) {
    buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

/// One mutation of `base`, and what it did.
fn mutate(base: &[u8], rng: &mut Lcg) -> (Vec<u8>, String) {
    let mut bytes = base.to_vec();
    let record_size = u16::from_le_bytes([base[6], base[7]]);
    let kind = rng.below(7);
    let what = match kind {
        0 => {
            let flips = 1 + rng.below(4);
            for _ in 0..flips {
                let at = rng.below(bytes.len());
                bytes[at] ^= 1 + rng.below(255) as u8;
            }
            format!("{flips} byte flips")
        }
        1 => {
            let len = rng.below(bytes.len());
            bytes.truncate(len);
            format!("truncated to {len}")
        }
        2 => {
            let extra = 1 + rng.below(2 * usize::from(record_size));
            bytes.extend((0..extra).map(|_| rng.next() as u8));
            format!("extended by {extra}")
        }
        3 => {
            let version = [1, 2, 0, 3, rng.next() as u16][rng.below(5)];
            put_u16(&mut bytes, 4, version);
            format!("version {version}")
        }
        4 => {
            let size = [528, 1864, 0, u16::MAX, rng.next() as u16][rng.below(5)];
            put_u16(&mut bytes, 6, size);
            format!("record_size {size}")
        }
        5 => {
            let count = u64::from_le_bytes(base[8..16].try_into().expect("8 bytes"));
            let claimed = [
                0,
                count + 1,
                count - 1,
                u64::MAX,
                u64::MAX / u64::from(record_size),
                1 << 40,
                rng.next(),
            ][rng.below(7)];
            put_u64(&mut bytes, 8, claimed);
            format!("record_count {claimed}")
        }
        _ => {
            // The other kind's version, with a record size and count made
            // consistent with each other, and dirty reserved bytes half
            // the time.
            let (version, size) = if base[4] == 1 { (2, 1864) } else { (1, 528) };
            put_u16(&mut bytes, 4, version);
            put_u16(&mut bytes, 6, size);
            let count = (bytes.len() - GZR_HEADER_BYTES) / usize::from(size);
            put_u64(&mut bytes, 8, count as u64);
            if rng.below(2) == 0 {
                bytes[16 + rng.below(16)] = 1 + rng.below(255) as u8;
            }
            format!("rewritten as v{version} x{count}")
        }
    };
    (bytes, what)
}

/// `Ok`, or an `InvalidData` error; anything else fails the case.
fn assert_ok_or_invalid<T>(result: io::Result<T>, context: &str) {
    if let Err(err) = result {
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{context}: {err}");
    }
}

/// Runs `f` with allocation tracking on and returns the largest single
/// allocation it made.
fn largest_allocation(f: impl FnOnce()) -> usize {
    LARGEST.store(0, Ordering::Relaxed);
    TRACKING.with(|t| t.set(true));
    f();
    TRACKING.with(|t| t.set(false));
    LARGEST.load(Ordering::Relaxed)
}

#[test]
fn mutated_segments_are_accepted_or_rejected_as_invalid_data() {
    let dir = std::env::temp_dir().join(format!("gzr-fuzz-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("fuzz dir");
    let segment = dir.join("seg-00000000-fuzz.gzr");
    let mut rng = Lcg(0x5eed_9a2e);
    let (mut accepted, mut rejected) = (0, 0);
    for (kind, base) in [("runs", run_segment()), ("mixes", mix_segment())] {
        for case in 0..400 {
            let (bytes, what) = mutate(&base, &mut rng);
            let context = format!("{kind} case {case} ({what})");
            fs::write(&segment, &bytes).expect("write mutated segment");
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let mut decoded = None;
                let largest = largest_allocation(|| {
                    let result = read_segment_any(&mut &bytes[..], bytes.len() as u64, "fuzz");
                    decoded = Some(result.is_ok());
                    assert_ok_or_invalid(result, &context);
                    let opened = ResultsStore::open(&dir);
                    if let Ok(store) = &opened {
                        // Every row the open indexed must read back.
                        assert_eq!(store.records().len(), store.len(), "{context}");
                        assert_eq!(store.mix_records().len(), store.mix_len(), "{context}");
                    }
                    assert_eq!(opened.is_ok(), decoded == Some(true), "{context}");
                    assert_ok_or_invalid(opened, &context);
                });
                assert!(
                    largest <= bytes.len() + ALLOWANCE,
                    "{context}: a {largest}-byte allocation for a {}-byte file",
                    bytes.len()
                );
                decoded == Some(true)
            }));
            match outcome {
                Ok(true) => accepted += 1,
                Ok(false) => rejected += 1,
                Err(_) => panic!("{context}: panicked"),
            }
        }
    }
    // Both outcomes occur, so the mutations reach past the header checks.
    assert!(
        accepted > 0 && rejected > 0,
        "{accepted} accepted, {rejected} rejected"
    );
    fs::remove_dir_all(&dir).ok();
}
