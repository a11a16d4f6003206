//! Streaming and strided workload generators (bwaves/lbm/leslie3d-like).

use crate::builder::TraceBuilder;
use sim_core::trace::TraceRecord;

/// Parameters of a multi-stream sequential workload.
#[derive(Debug, Clone, Copy)]
pub struct StreamingSpec {
    /// Number of concurrent sequential streams.
    pub streams: usize,
    /// Stride between consecutive accesses of one stream, in cache blocks.
    pub stride_blocks: u64,
    /// Non-memory instructions between accesses (min, max).
    pub gap: (u32, u32),
    /// Fraction of accesses that are stores (0.0–1.0).
    pub store_fraction: f64,
    /// Total footprint per stream in bytes (must exceed the LLC for a
    /// memory-intensive workload).
    pub stream_bytes: u64,
}

impl Default for StreamingSpec {
    fn default() -> Self {
        StreamingSpec {
            streams: 4,
            stride_blocks: 1,
            gap: (2, 6),
            store_fraction: 0.0,
            stream_bytes: 16 * 1024 * 1024,
        }
    }
}

/// Generates a multi-stream sequential/strided trace of at least
/// `instructions` instructions. Each record round-robins across the
/// streams, which is how array sweeps interleave in compiled code.
pub fn streaming(name: &str, instructions: u64, spec: StreamingSpec) -> Vec<TraceRecord> {
    let mut b = TraceBuilder::from_name(name);
    let blocks_per_stream = (spec.stream_bytes / 64).max(1);
    let mut positions: Vec<u64> = (0..spec.streams as u64).collect();
    let mut stream = 0;
    while b.instructions() < instructions {
        let base = 0x1000_0000u64 + stream as u64 * 0x1000_0000;
        let pos = positions[stream] % blocks_per_stream;
        let addr = base + pos * 64 * spec.stride_blocks;
        let pc = 0x40_0000 + stream as u64 * 0x40;
        if b.rng().gen_f64() < spec.store_fraction {
            b.store(pc + 0x20, addr, spec.gap.0);
        } else {
            b.load_jittered(pc, addr, spec.gap.0, spec.gap.1);
        }
        positions[stream] += 1;
        stream = (stream + 1) % spec.streams;
    }
    b.into_records()
}

/// A stream that repeatedly sweeps a buffer that fits in the LLC but not the
/// L2 (PARSEC streamcluster-like reuse).
pub fn reused_stream(name: &str, instructions: u64, buffer_bytes: u64) -> Vec<TraceRecord> {
    let mut b = TraceBuilder::from_name(name);
    let blocks = (buffer_bytes / 64).max(1);
    let mut i = 0;
    while b.instructions() < instructions {
        b.load_jittered(0x41_0000, 0x2000_0000 + (i % blocks) * 64, 3, 9);
        i += 1;
    }
    b.into_records()
}

#[cfg(test)]
mod tests {
    use super::*;
    use prefetch_common::addr::RegionGeometry;

    #[test]
    fn streaming_is_sequential_within_each_stream() {
        let recs = streaming("t", 4000, StreamingSpec::default());
        // The trace stops at the record that reaches its budget.
        let total: u64 = recs.iter().map(TraceRecord::instruction_count).sum();
        let last = recs.last().expect("records").instruction_count();
        assert!(total >= 4000 && total - last < 4000, "{total} instructions");
        // Stream 0 records are every 4th; consecutive ones advance by one block.
        let s0: Vec<u64> = recs.iter().step_by(4).map(|r| r.addr.raw()).collect();
        for w in s0.windows(2) {
            assert_eq!(w[1] - w[0], 64);
        }
    }

    #[test]
    fn strided_streams_respect_the_stride() {
        let spec = StreamingSpec {
            streams: 1,
            stride_blocks: 4,
            ..Default::default()
        };
        let recs = streaming("t", 100, spec);
        assert_eq!(recs[1].addr.raw() - recs[0].addr.raw(), 256);
    }

    #[test]
    fn store_fraction_produces_stores() {
        let spec = StreamingSpec {
            store_fraction: 0.5,
            ..Default::default()
        };
        let recs = streaming("t", 8000, spec);
        let stores = recs.iter().filter(|r| r.is_store).count();
        assert!(stores > 500 && stores < 1500);
    }

    #[test]
    fn streaming_regions_have_dense_footprints() {
        let spec = StreamingSpec {
            streams: 1,
            gap: (1, 1),
            ..Default::default()
        };
        let recs = streaming("t", 512, spec);
        let geom = RegionGeometry::gaze_default();
        // The first 4 KB region visited must be fully swept (64 blocks).
        let first_region = geom.region_of(recs[0].addr);
        let touched: std::collections::BTreeSet<usize> = recs
            .iter()
            .filter(|r| geom.region_of(r.addr) == first_region)
            .map(|r| geom.offset_of(r.addr))
            .collect();
        assert_eq!(touched.len(), 64);
    }

    #[test]
    fn reused_stream_wraps_around_its_buffer() {
        let recs = reused_stream("t", 2000, 64 * 64); // 64-block buffer
        let unique: std::collections::BTreeSet<u64> = recs.iter().map(|r| r.addr.raw()).collect();
        assert_eq!(unique.len(), 64);
    }
}
