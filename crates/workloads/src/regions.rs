//! Recurrent spatial-footprint workloads (fotonik3d/cactuBSSN/wrf-like).
//!
//! These generators produce the access behaviour the Gaze paper's motivation
//! (Fig. 2) is built around: spatial regions whose footprints recur, where
//! the *order* of the first accesses identifies which footprint will follow.
//! Several templates deliberately share the same trigger offset, so schemes
//! keyed only on the trigger offset (PMP, the plain `Offset` scheme) confuse
//! them while Gaze's two-access characterization tells them apart.

use crate::builder::TraceBuilder;
use sim_core::trace::TraceRecord;

/// A footprint template: the ordered list of block offsets a region follows.
#[derive(Debug, Clone)]
pub struct FootprintTemplate {
    /// Offsets in access order; the first element is the trigger offset.
    pub offsets: Vec<usize>,
}

impl FootprintTemplate {
    /// A template accessed in the given order.
    pub fn new(offsets: Vec<usize>) -> Self {
        assert!(offsets.len() >= 2, "a template needs at least two accesses");
        assert!(
            offsets.iter().all(|&o| o < 64),
            "offsets must fit a 4 KB region"
        );
        FootprintTemplate { offsets }
    }
}

/// Parameters of a recurrent-footprint workload.
#[derive(Debug, Clone)]
pub struct RegionPatternSpec {
    /// The footprint templates in rotation.
    pub templates: Vec<FootprintTemplate>,
    /// Number of distinct regions in the working set (spread far beyond the
    /// LLC so region activations miss).
    pub regions: u64,
    /// Non-memory instructions between accesses (min, max).
    pub gap: (u32, u32),
    /// Fraction of accesses that are noise (a random block in a random
    /// region), emulating out-of-order interference and unrelated data.
    pub noise: f64,
}

impl Default for RegionPatternSpec {
    fn default() -> Self {
        RegionPatternSpec {
            templates: conflicting_templates(),
            regions: 4096,
            gap: (3, 9),
            noise: 0.02,
        }
    }
}

/// The Fig. 2 scenario: several templates share trigger offset 12 but diverge
/// at the second access, plus templates with distinct triggers. Templates are
/// long enough (a dozen or more blocks) that a correct prediction made at the
/// second access hides the latency of most of the remaining blocks.
pub fn conflicting_templates() -> Vec<FootprintTemplate> {
    vec![
        FootprintTemplate::new(vec![12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25]),
        FootprintTemplate::new(vec![12, 16, 20, 24, 28, 32, 36, 40, 44, 48, 52, 56, 60]),
        FootprintTemplate::new(vec![12, 44, 45, 46, 47, 48, 50, 52, 54, 56, 58, 60, 62]),
        FootprintTemplate::new(vec![30, 31, 33, 35, 37, 39, 41, 43, 45, 47, 49, 51, 53, 55]),
        FootprintTemplate::new(vec![2, 3, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28]),
    ]
}

/// Stencil-like templates: dense runs with a hole pattern, as produced by
/// multi-array loop nests (cactuBSSN/GemsFDTD-like).
pub fn stencil_templates() -> Vec<FootprintTemplate> {
    vec![
        FootprintTemplate::new((0..48).step_by(2).collect()),
        FootprintTemplate::new((1..64).step_by(3).collect()),
        FootprintTemplate::new((0..32).collect()),
    ]
}

/// Generates a recurrent-footprint trace: each region activation replays one
/// template in order; the template assigned to a region is fixed, so pattern
/// recurrence is learnable. Several regions are active at once and their
/// accesses interleave, as loop nests over multiple arrays do, so successive
/// accesses to one region are spaced out in time.
pub fn region_patterns(name: &str, instructions: u64, spec: RegionPatternSpec) -> Vec<TraceRecord> {
    assert!(!spec.templates.is_empty(), "at least one template required");
    let mut b = TraceBuilder::from_name(name);
    let base_region = 0x80_0000u64; // 32 GB into the address space (disjoint from the other generators)
    const ACTIVE: usize = 16;
    // (region, template index, position within the template)
    let mut active: Vec<(u64, usize, usize)> = Vec::with_capacity(ACTIVE);
    let mut visit = 0u64;
    let next_region = |visit: &mut u64| {
        // Walk regions in a strided order so consecutive activations are far
        // apart (no accidental next-region locality).
        let region = base_region + (*visit * 17) % spec.regions;
        let template = (region % spec.templates.len() as u64) as usize;
        *visit += 1;
        (region, template, 0usize)
    };
    for _ in 0..ACTIVE {
        active.push(next_region(&mut visit));
    }
    let mut slot = 0usize;
    while b.instructions() < instructions {
        let (region, template_idx, pos) = active[slot];
        let template = &spec.templates[template_idx];
        let offset = template.offsets[pos];
        let pc_base = 0x50_0000 + (template_idx as u64) * 0x100;
        let addr = region * 4096 + offset as u64 * 64;
        b.load_jittered(pc_base + pos as u64 * 4, addr, spec.gap.0, spec.gap.1);
        if pos + 1 >= template.offsets.len() {
            active[slot] = next_region(&mut visit);
        } else {
            active[slot].2 = pos + 1;
        }
        slot = (slot + 1) % ACTIVE;
        // Inject noise accesses.
        let roll: f64 = b.rng().gen_f64();
        if roll < spec.noise && b.instructions() < instructions {
            let noise_region = base_region + b.rng().gen_range(0..spec.regions);
            let noise_offset = b.rng().gen_range(0..64u64);
            b.load(0x66_0000, noise_region * 4096 + noise_offset * 64, 2);
        }
    }
    b.into_records()
}

/// A phase-alternating workload (roms/pop2-like): long streaming phases
/// interleaved with recurrent-footprint phases, exercising the interaction
/// between the dense path and the PHT path. Each phase is an eighth of the
/// instruction budget.
pub fn phased(name: &str, instructions: u64) -> Vec<TraceRecord> {
    let mut b = TraceBuilder::from_name(name);
    let phase = (instructions / 8).max(1);
    let mut chunk_idx = 0;
    while b.instructions() < instructions {
        let n = phase.min(instructions - b.instructions());
        let chunk_name = format!("{name}-{chunk_idx}");
        b.extend(if chunk_idx % 2 == 1 {
            region_patterns(&chunk_name, n, RegionPatternSpec::default())
        } else {
            crate::streaming::streaming(
                &chunk_name,
                n,
                crate::streaming::StreamingSpec {
                    streams: 2,
                    ..Default::default()
                },
            )
        });
        chunk_idx += 1;
    }
    b.into_records()
}

#[cfg(test)]
mod tests {
    use super::*;
    use prefetch_common::addr::RegionGeometry;
    use std::collections::HashMap;

    #[test]
    fn templates_validated() {
        assert!(std::panic::catch_unwind(|| FootprintTemplate::new(vec![1])).is_err());
        assert!(std::panic::catch_unwind(|| FootprintTemplate::new(vec![1, 64])).is_err());
    }

    #[test]
    fn each_region_follows_one_template_in_order() {
        let recs = region_patterns(
            "t",
            40_000,
            RegionPatternSpec {
                noise: 0.0,
                ..Default::default()
            },
        );
        let geom = RegionGeometry::gaze_default();
        let mut per_region: HashMap<u64, Vec<usize>> = HashMap::new();
        for r in &recs {
            per_region
                .entry(geom.region_of(r.addr).raw())
                .or_default()
                .push(geom.offset_of(r.addr));
        }
        let templates = conflicting_templates();
        let mut matched = 0;
        for offsets in per_region.values() {
            if offsets.len() < 6 {
                continue;
            }
            if templates.iter().any(|t| offsets[..6] == t.offsets[..6]) {
                matched += 1;
            }
        }
        assert!(
            matched > 50,
            "most fully-visited regions follow a template, got {matched}"
        );
    }

    #[test]
    fn conflicting_templates_share_a_trigger_offset() {
        let t = conflicting_templates();
        let same_trigger = t.iter().filter(|x| x.offsets[0] == 12).count();
        assert!(
            same_trigger >= 2,
            "the Fig. 2 conflict requires shared trigger offsets"
        );
        // But their second offsets differ.
        let seconds: std::collections::BTreeSet<usize> = t
            .iter()
            .filter(|x| x.offsets[0] == 12)
            .map(|x| x.offsets[1])
            .collect();
        assert_eq!(seconds.len(), same_trigger);
    }

    #[test]
    fn noise_adds_extra_accesses_deterministically() {
        let a = region_patterns("same", 3000, RegionPatternSpec::default());
        let b = region_patterns("same", 3000, RegionPatternSpec::default());
        assert_eq!(a, b);
    }

    #[test]
    fn phased_workload_contains_both_behaviours() {
        let recs = phased("t", 8000);
        let total: u64 = recs.iter().map(TraceRecord::instruction_count).sum();
        assert!(total >= 8000);
        // Streaming phases live below 4 GB, recurrent-footprint phases at 32 GB.
        let has_stream = recs.iter().any(|r| r.addr.raw() < 0x1_0000_0000);
        let has_regions = recs.iter().any(|r| r.addr.raw() >= 0x8_0000_0000);
        assert!(has_stream && has_regions);
    }
}
