//! Set-associative cache arrays with prefetch metadata.

use prefetch_common::addr::BlockAddr;

use crate::config::CacheConfig;

/// Outcome of installing a line into a cache set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// The block that was evicted.
    pub block: BlockAddr,
    /// Whether the victim line had been brought in by a prefetch.
    pub was_prefetch: bool,
    /// Whether a prefetched victim had been referenced by a demand access.
    pub was_used: bool,
    /// Whether the victim was dirty.
    pub was_dirty: bool,
}

/// Replacement and prefetch metadata of one way. Which block a way holds
/// lives in the parallel tag array, not here.
#[derive(Debug, Clone, Copy)]
struct Line {
    lru: u64,
    prefetched: bool,
    used: bool,
    dirty: bool,
    /// Core that caused the fill (for shared-cache stat attribution).
    owner: usize,
}

impl Line {
    fn filled(tick: u64, prefetched: bool, owner: usize) -> Self {
        Line {
            lru: tick,
            prefetched,
            used: false,
            dirty: false,
            owner,
        }
    }
}

/// A set-associative cache array with LRU replacement and per-line prefetch
/// metadata (prefetched / used / dirty bits plus the owning core).
///
/// Lookups search a dense tag array (`tags`, one `u64` block number per
/// way, `u64::MAX` for an empty way) and touch the metadata array
/// only on a hit or a fill, so a 16-way set probe reads 128 B of tags.
///
/// The array only models *contents*; timing (latencies, MSHRs, bandwidth) is
/// handled by the memory hierarchy.
#[derive(Debug, Clone)]
pub struct CacheArray {
    sets: usize,
    ways: usize,
    tags: Vec<u64>,
    lines: Vec<Line>,
    tick: u64,
}

/// Result of a demand lookup that hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HitInfo {
    /// The hit was on a prefetched line that had not been used before
    /// (i.e. this demand is the first use of the prefetch).
    pub first_use_of_prefetch: bool,
    /// Core that filled the line.
    pub owner: usize,
}

impl CacheArray {
    /// Tag of an empty way. Block numbers are byte addresses shifted right
    /// by the line bits, so no real block can collide with it.
    const INVALID: u64 = u64::MAX;

    /// Creates an empty cache with the geometry of `config`.
    pub fn new(config: &CacheConfig) -> Self {
        Self::build(config.sets(), config.ways)
    }

    /// Creates a cache with an explicit set/way shape (used for the shared
    /// LLC whose capacity scales with the core count).
    pub fn with_shape(sets: usize, ways: usize) -> Self {
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "sets must be a power of two"
        );
        assert!(ways > 0, "ways must be non-zero");
        Self::build(sets, ways)
    }

    fn build(sets: usize, ways: usize) -> Self {
        CacheArray {
            sets,
            ways,
            tags: vec![Self::INVALID; sets * ways],
            lines: vec![Line::filled(0, false, 0); sets * ways],
            tick: 0,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Index of the first way of `block`'s set.
    fn set_base(&self, block: BlockAddr) -> usize {
        ((block.raw() as usize) & (self.sets - 1)) * self.ways
    }

    /// Global way index holding `block`, if present.
    fn find(&self, block: BlockAddr) -> Option<usize> {
        debug_assert_ne!(block.raw(), Self::INVALID, "block collides with sentinel");
        let base = self.set_base(block);
        self.tags[base..base + self.ways]
            .iter()
            .position(|&t| t == block.raw())
            .map(|way| base + way)
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Whether `block` is present.
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.find(block).is_some()
    }

    /// Performs a demand access to `block`. On a hit, updates LRU, marks the
    /// line used and (for stores) dirty, and reports whether this was the
    /// first demand use of a prefetched line. Returns `None` on a miss.
    pub fn demand_access(&mut self, block: BlockAddr, is_store: bool) -> Option<HitInfo> {
        let tick = self.next_tick();
        let i = self.find(block)?;
        let line = &mut self.lines[i];
        line.lru = tick;
        if is_store {
            line.dirty = true;
        }
        let first_use = line.prefetched && !line.used;
        line.used = true;
        Some(HitInfo {
            first_use_of_prefetch: first_use,
            owner: line.owner,
        })
    }

    /// Touches `block` for LRU purposes without changing prefetch metadata
    /// (used when an upper level writes back into this level).
    pub fn touch(&mut self, block: BlockAddr) {
        let tick = self.next_tick();
        if let Some(i) = self.find(block) {
            self.lines[i].lru = tick;
        }
    }

    /// Installs `block`, evicting the LRU victim if the set is full.
    ///
    /// `prefetched` marks the line as brought in by a prefetch; `owner` is the
    /// requesting core. If the block is already present the existing line is
    /// refreshed instead (a prefetch fill of a present line does not clear its
    /// used bit).
    pub fn fill(&mut self, block: BlockAddr, prefetched: bool, owner: usize) -> Option<Eviction> {
        let tick = self.next_tick();
        if let Some(i) = self.find(block) {
            self.lines[i].lru = tick;
            return None;
        }
        let base = self.set_base(block);
        let set = base..base + self.ways;
        // Prefer an invalid way.
        if let Some(way) = self.tags[set.clone()]
            .iter()
            .position(|&t| t == Self::INVALID)
        {
            self.tags[base + way] = block.raw();
            self.lines[base + way] = Line::filled(tick, prefetched, owner);
            return None;
        }
        let victim_idx = base
            + (0..self.ways)
                .min_by_key(|&way| self.lines[base + way].lru)
                .expect("full set has a victim");
        let victim = self.lines[victim_idx];
        let victim_block = BlockAddr::new(self.tags[victim_idx]);
        self.tags[victim_idx] = block.raw();
        self.lines[victim_idx] = Line::filled(tick, prefetched, owner);
        Some(Eviction {
            block: victim_block,
            was_prefetch: victim.prefetched,
            was_used: victim.used,
            was_dirty: victim.dirty,
        })
    }

    /// Invalidates `block` if present, returning its eviction record.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<Eviction> {
        let i = self.find(block)?;
        let line = self.lines[i];
        self.tags[i] = Self::INVALID;
        Some(Eviction {
            block,
            was_prefetch: line.prefetched,
            was_used: line.used,
            was_dirty: line.dirty,
        })
    }

    /// Iterates over all valid lines, reporting `(block, prefetched, used)`.
    /// Used at end of simulation to account for still-resident unused
    /// prefetches.
    pub fn resident_lines(&self) -> impl Iterator<Item = (BlockAddr, bool, bool, usize)> + '_ {
        self.tags
            .iter()
            .zip(&self.lines)
            .filter(|(&t, _)| t != Self::INVALID)
            .map(|(&t, l)| (BlockAddr::new(t), l.prefetched, l.used, l.owner))
    }

    /// Number of valid lines.
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != Self::INVALID).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheArray {
        // 4 sets x 2 ways.
        CacheArray::with_shape(4, 2)
    }

    #[test]
    fn fill_then_hit() {
        let mut c = tiny();
        let b = BlockAddr::new(5);
        assert!(!c.contains(b));
        assert!(c.fill(b, false, 0).is_none());
        assert!(c.contains(b));
        let hit = c.demand_access(b, false).unwrap();
        assert!(!hit.first_use_of_prefetch);
    }

    #[test]
    fn prefetch_first_use_reported_once() {
        let mut c = tiny();
        let b = BlockAddr::new(9);
        c.fill(b, true, 0);
        assert!(c.demand_access(b, false).unwrap().first_use_of_prefetch);
        assert!(!c.demand_access(b, false).unwrap().first_use_of_prefetch);
    }

    #[test]
    fn lru_eviction_prefers_least_recent() {
        let mut c = CacheArray::with_shape(1, 2);
        let (a, b, d) = (BlockAddr::new(1), BlockAddr::new(2), BlockAddr::new(3));
        c.fill(a, false, 0);
        c.fill(b, false, 0);
        c.demand_access(a, false); // b becomes LRU
        let ev = c.fill(d, true, 0).unwrap();
        assert_eq!(ev.block, b);
        assert!(!ev.was_prefetch);
    }

    #[test]
    fn eviction_reports_unused_prefetch() {
        let mut c = CacheArray::with_shape(1, 1);
        c.fill(BlockAddr::new(1), true, 3);
        let ev = c.fill(BlockAddr::new(2), false, 0).unwrap();
        assert!(ev.was_prefetch);
        assert!(!ev.was_used);
    }

    #[test]
    fn store_marks_dirty() {
        let mut c = CacheArray::with_shape(1, 1);
        c.fill(BlockAddr::new(1), false, 0);
        c.demand_access(BlockAddr::new(1), true);
        let ev = c.fill(BlockAddr::new(2), false, 0).unwrap();
        assert!(ev.was_dirty);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        let b = BlockAddr::new(8);
        c.fill(b, false, 0);
        assert!(c.invalidate(b).is_some());
        assert!(!c.contains(b));
        assert!(c.invalidate(b).is_none());
    }

    #[test]
    fn refill_of_present_block_does_not_evict() {
        let mut c = CacheArray::with_shape(1, 1);
        c.fill(BlockAddr::new(1), false, 0);
        assert!(c.fill(BlockAddr::new(1), true, 0).is_none());
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn config_based_construction() {
        let c = CacheArray::new(&crate::config::CacheConfig::paper_l1d());
        assert_eq!(c.sets(), 64);
        assert_eq!(c.ways(), 12);
    }

    /// Deterministic pseudo-random block stream (stands in for proptest,
    /// which is unavailable in the offline build environment).
    fn block_stream(seed: u64, modulus: u64) -> impl Iterator<Item = u64> {
        let mut state = seed | 1;
        std::iter::from_fn(move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            Some((state >> 24) % modulus)
        })
    }

    #[test]
    fn occupancy_never_exceeds_capacity_under_random_fills() {
        for seed in 1..=8u64 {
            let mut c = CacheArray::with_shape(8, 4);
            for b in block_stream(seed, 256).take(300) {
                c.fill(BlockAddr::new(b), b % 3 == 0, 0);
                assert!(c.occupancy() <= 32);
            }
        }
    }

    #[test]
    fn most_recent_fill_is_always_resident() {
        for seed in 1..=8u64 {
            let mut c = CacheArray::with_shape(4, 2);
            for b in block_stream(seed, 1024).take(200) {
                c.fill(BlockAddr::new(b), false, 0);
                assert!(c.contains(BlockAddr::new(b)));
            }
        }
    }

    /// The layout before the tag array: one record per way carrying its
    /// own block and valid bit, searched record by record. Kept as the
    /// reference the tag-array lookups must agree with.
    struct ReferenceSets {
        sets: usize,
        ways: usize,
        /// `None` = invalid way.
        lines: Vec<Option<RefLine>>,
        tick: u64,
    }

    /// `(block, lru, prefetched, used, dirty, owner)`.
    type RefLine = (u64, u64, bool, bool, bool, usize);

    impl ReferenceSets {
        fn set(&mut self, block: u64) -> &mut [Option<RefLine>] {
            let base = (block as usize & (self.sets - 1)) * self.ways;
            &mut self.lines[base..base + self.ways]
        }

        fn contains(&mut self, block: u64) -> bool {
            self.set(block).iter().flatten().any(|l| l.0 == block)
        }

        fn demand(&mut self, block: u64, store: bool) -> Option<HitInfo> {
            self.tick += 1;
            let tick = self.tick;
            let line = self
                .set(block)
                .iter_mut()
                .flatten()
                .find(|l| l.0 == block)?;
            line.1 = tick;
            line.4 |= store;
            let first = line.2 && !line.3;
            line.3 = true;
            Some(HitInfo {
                first_use_of_prefetch: first,
                owner: line.5,
            })
        }

        fn touch(&mut self, block: u64) {
            self.tick += 1;
            let tick = self.tick;
            if let Some(line) = self.set(block).iter_mut().flatten().find(|l| l.0 == block) {
                line.1 = tick;
            }
        }

        fn fill(&mut self, block: u64, prefetched: bool, owner: usize) -> Option<Eviction> {
            self.tick += 1;
            let tick = self.tick;
            let set = self.set(block);
            if let Some(line) = set.iter_mut().flatten().find(|l| l.0 == block) {
                line.1 = tick;
                return None;
            }
            let fresh = (block, tick, prefetched, false, false, owner);
            if let Some(way) = set.iter_mut().find(|l| l.is_none()) {
                *way = Some(fresh);
                return None;
            }
            let victim = (0..set.len())
                .min_by_key(|&i| set[i].expect("full set").1)
                .expect("non-empty set");
            let (b, _, p, u, d, _) = set[victim].replace(fresh).expect("full set");
            Some(Eviction {
                block: BlockAddr::new(b),
                was_prefetch: p,
                was_used: u,
                was_dirty: d,
            })
        }

        fn invalidate(&mut self, block: u64) -> Option<Eviction> {
            let way = self
                .set(block)
                .iter_mut()
                .find(|l| matches!(l, Some(l) if l.0 == block))?;
            let (b, _, p, u, d, _) = way.take().expect("matched a valid way");
            Some(Eviction {
                block: BlockAddr::new(b),
                was_prefetch: p,
                was_used: u,
                was_dirty: d,
            })
        }
    }

    #[test]
    fn tag_array_matches_a_reference_set_model_under_churn() {
        for (sets, ways) in [(1, 1), (4, 2), (8, 12), (16, 16)] {
            let mut cache = CacheArray::with_shape(sets, ways);
            let mut reference = ReferenceSets {
                sets,
                ways,
                lines: vec![None; sets * ways],
                tick: 0,
            };
            let modulus = (sets * ways * 3) as u64;
            let ops = block_stream(0xfeed ^ sets as u64, 1 << 20).take(20_000);
            for (step, r) in ops.enumerate() {
                let block = (r >> 3) % modulus;
                let b = BlockAddr::new(block);
                match r % 8 {
                    0..=2 => {
                        let owner = (r >> 16) as usize % 4;
                        let pf = r & 0x100 != 0;
                        assert_eq!(cache.fill(b, pf, owner), reference.fill(block, pf, owner));
                    }
                    3 | 4 => {
                        let store = r & 0x100 != 0;
                        assert_eq!(
                            cache.demand_access(b, store),
                            reference.demand(block, store)
                        );
                    }
                    5 => {
                        cache.touch(b);
                        reference.touch(block);
                    }
                    6 => assert_eq!(cache.invalidate(b), reference.invalidate(block)),
                    _ => {}
                }
                assert_eq!(cache.contains(b), reference.contains(block), "step {step}");
                let occupied = reference.lines.iter().flatten().count();
                assert_eq!(cache.occupancy(), occupied, "step {step}");
            }
            let mut resident: Vec<_> = cache.resident_lines().collect();
            let mut expected: Vec<_> = reference
                .lines
                .iter()
                .flatten()
                .map(|l| (BlockAddr::new(l.0), l.2, l.3, l.5))
                .collect();
            resident.sort_by_key(|l| l.0.raw());
            expected.sort_by_key(|l| l.0.raw());
            assert_eq!(resident, expected, "{sets}x{ways}");
        }
    }
}
