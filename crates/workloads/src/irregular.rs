//! Irregular, pointer-chasing and scale-out-server workload generators
//! (mcf/omnetpp/CloudSuite/QMM-like).

use crate::builder::TraceBuilder;
use sim_core::trace::TraceRecord;

/// Pointer chasing over a large node pool (mcf/canneal-like): consecutive
/// accesses follow a pseudo-random chain, so there is neither spatial nor
/// PC-stride structure to exploit.
pub fn pointer_chase(
    name: &str,
    instructions: u64,
    nodes: u64,
    node_bytes: u64,
) -> Vec<TraceRecord> {
    let mut b = TraceBuilder::from_name(name);
    let base = 0x20_0000_0000u64;
    let mut current = 1u64;
    while b.instructions() < instructions {
        // A fixed multiplicative chain gives a repeatable but structureless walk.
        current = (current
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407))
            % nodes;
        let addr = base + current * node_bytes;
        b.load_jittered(0x70_0000, addr, 4, 16);
    }
    b.into_records()
}

/// GUPS-style random read-modify-write over a huge table.
pub fn gups(name: &str, instructions: u64, table_bytes: u64) -> Vec<TraceRecord> {
    let mut b = TraceBuilder::from_name(name);
    let base = 0x30_0000_0000u64;
    let blocks = (table_bytes / 64).max(1);
    let mut load = true;
    while b.instructions() < instructions {
        let block = b.rng().gen_range(0..blocks);
        let addr = base + block * 64;
        if load {
            b.load_jittered(0x71_0000, addr, 2, 8);
        } else {
            b.store(0x71_0010, addr, 1);
        }
        load = !load;
    }
    b.into_records()
}

/// Parameters of a scale-out-server workload (CloudSuite-like).
#[derive(Debug, Clone, Copy)]
pub struct CloudSpec {
    /// Number of distinct load PCs (large instruction footprint).
    pub pcs: u64,
    /// Heap size in bytes.
    pub heap_bytes: u64,
    /// Fraction of accesses that are short code-correlated walks (each PC
    /// strides through a small object — the structure vBerti/IP-stride can
    /// exploit).
    pub code_correlated: f64,
    /// Fraction of accesses to a small hot structure (cache-resident).
    pub hot_fraction: f64,
    /// Non-memory gap range, large to emulate big code footprints.
    pub gap: (u32, u32),
}

impl Default for CloudSpec {
    fn default() -> Self {
        CloudSpec {
            pcs: 512,
            heap_bytes: 24 * 1024 * 1024,
            code_correlated: 0.35,
            hot_fraction: 0.25,
            gap: (8, 28),
        }
    }
}

/// Generates a CloudSuite-like trace: mostly irregular heap accesses from a
/// large set of PCs, a hot in-cache structure, and a minority of
/// object traversals whose per-type footprints recur. Several objects are
/// traversed concurrently, and objects of different types share the same
/// starting block, so coarse (offset-only) characterization confuses their
/// patterns while the access-order signature disambiguates them.
pub fn cloud_server(name: &str, instructions: u64, spec: CloudSpec) -> Vec<TraceRecord> {
    let mut b = TraceBuilder::from_name(name);
    let heap_base = 0x40_0000_0000u64;
    let hot_base = 0x41_0000_0000u64;
    let heap_blocks = (spec.heap_bytes / 64).max(1);
    let heap_regions = (heap_blocks / 64).max(1);
    // Per-type field-access templates (block offsets inside a region, in
    // access order). Types 0-3 share trigger offset 0 but diverge afterwards.
    let templates: [&[usize]; 6] = [
        &[0, 1, 2, 3],
        &[0, 5, 9, 13, 17],
        &[0, 32, 33, 40],
        &[0, 8, 16, 24, 30],
        &[20, 21, 22, 26, 29],
        &[44, 45, 50, 58],
    ];
    const ACTIVE_OBJECTS: usize = 6;
    // (region, type, position)
    let mut active: Vec<(u64, usize, usize)> = Vec::new();
    while b.instructions() < instructions {
        let roll: f64 = b.rng().gen_f64();
        let pc = 0x80_0000 + b.rng().gen_range(0..spec.pcs) * 0x10;
        if roll < spec.hot_fraction {
            // Hot structure: 64 KB, stays cache resident.
            let block = b.rng().gen_range(0..1024u64);
            b.load_jittered(pc, hot_base + block * 64, spec.gap.0, spec.gap.1);
        } else if roll < spec.hot_fraction + spec.code_correlated {
            // Advance one of the concurrently traversed objects by one field.
            if active.len() < ACTIVE_OBJECTS {
                let region = b.rng().gen_range(0..heap_regions);
                let ty = (region % templates.len() as u64) as usize;
                active.push((region, ty, 0));
            }
            let idx = b.rng().gen_range(0..active.len());
            let (region, ty, pos) = active[idx];
            let offset = templates[ty][pos] as u64;
            b.load_jittered(
                pc,
                heap_base + (region * 64 + offset) * 64,
                spec.gap.0,
                spec.gap.1,
            );
            if pos + 1 >= templates[ty].len() {
                active.swap_remove(idx);
            } else {
                active[idx].2 = pos + 1;
            }
        } else {
            // Plain irregular heap access.
            let block = b.rng().gen_range(0..heap_blocks);
            b.load_jittered(pc, heap_base + block * 64, spec.gap.0, spec.gap.1);
        }
    }
    b.into_records()
}

/// QMM server-like workload: the data working set is small (instruction
/// misses, which we do not model, are its real bottleneck), so data
/// prefetching has little to gain and aggressive prefetching only pollutes.
pub fn qmm_server(name: &str, instructions: u64) -> Vec<TraceRecord> {
    let mut b = TraceBuilder::from_name(name);
    let base = 0x50_0000_0000u64;
    // 1.5 MB working set: fits in the LLC, mostly fits in the L2.
    let blocks = (1536 * 1024) / 64u64;
    while b.instructions() < instructions {
        let block = b.rng().gen_range(0..blocks);
        b.load_jittered(0x90_0000 + (block % 97) * 8, base + block * 64, 15, 40);
    }
    b.into_records()
}

/// QMM client-like workload: memory-intensive strided compute.
pub fn qmm_client(name: &str, instructions: u64, stride_blocks: u64) -> Vec<TraceRecord> {
    crate::streaming::streaming(
        name,
        instructions,
        crate::streaming::StreamingSpec {
            streams: 3,
            stride_blocks,
            gap: (4, 10),
            store_fraction: 0.1,
            stream_bytes: 24 * 1024 * 1024,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use prefetch_common::addr::RegionGeometry;

    #[test]
    fn pointer_chase_has_no_spatial_locality() {
        let recs = pointer_chase("mcf", 5000, 1 << 20, 64);
        let geom = RegionGeometry::gaze_default();
        let mut same_region = 0;
        for w in recs.windows(2) {
            if geom.region_of(w[0].addr) == geom.region_of(w[1].addr) {
                same_region += 1;
            }
        }
        assert!(
            same_region < 100,
            "consecutive chase steps rarely share a region ({same_region})"
        );
    }

    #[test]
    fn gups_alternates_loads_and_stores() {
        let recs = gups("gups", 1000, 1 << 30);
        assert!(recs.len() > 100);
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.is_store, i % 2 == 1);
        }
    }

    #[test]
    fn cloud_has_many_pcs_and_modest_locality() {
        let recs = cloud_server("cassandra", 20_000, CloudSpec::default());
        let pcs: std::collections::BTreeSet<u64> = recs.iter().map(|r| r.pc).collect();
        assert!(
            pcs.len() > 200,
            "cloud workloads have large code footprints ({} PCs)",
            pcs.len()
        );
        // Gaps are large (lots of non-memory work).
        let avg_gap: f64 = recs
            .iter()
            .map(|r| f64::from(r.non_mem_before))
            .sum::<f64>()
            / recs.len() as f64;
        assert!(avg_gap > 8.0);
    }

    #[test]
    fn qmm_server_working_set_fits_in_llc() {
        let recs = qmm_server("srv.09", 10_000);
        let max = recs.iter().map(|r| r.addr.raw()).max().unwrap();
        let min = recs.iter().map(|r| r.addr.raw()).min().unwrap();
        assert!(max - min <= 1536 * 1024);
    }

    #[test]
    fn qmm_client_is_strided() {
        let recs = qmm_client("clt.int.01", 300, 2);
        assert_eq!(recs[3].addr.raw() - recs[0].addr.raw(), 128);
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(
            cloud_server("x", 2000, CloudSpec::default()),
            cloud_server("x", 2000, CloudSpec::default())
        );
        assert_eq!(
            pointer_chase("y", 2000, 1 << 16, 64),
            pointer_chase("y", 2000, 1 << 16, 64)
        );
    }
}
