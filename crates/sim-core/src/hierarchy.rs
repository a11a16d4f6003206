//! The three-level cache hierarchy plus DRAM, with MSHRs, prefetch fills and
//! usefulness accounting.
//!
//! Timing model: a demand access walks the hierarchy at access time and the
//! completion cycle is computed from the levels it traverses plus the DRAM
//! bank/bus model; the corresponding cache *fills* are applied when simulated
//! time reaches the completion cycle, so later accesses observe them exactly
//! when a real machine would. Limited MSHRs delay demand misses and drop
//! prefetches, and every off-chip transfer occupies DRAM bank and channel-bus
//! time, which is how useless prefetch traffic hurts co-running cores.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use prefetch_common::addr::BlockAddr;
use prefetch_common::request::{FillLevel, PrefetchRequest};

use crate::cache::CacheArray;
use crate::config::SimConfig;
use crate::dram::DramModel;
use crate::stats::{CacheStats, PrefetchStats};

/// Which structure ultimately served a demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    /// Hit in the L1 data cache.
    L1,
    /// Hit in the L2 cache.
    L2,
    /// Hit in the shared LLC.
    Llc,
    /// Served from DRAM.
    Dram,
    /// Merged into an in-flight request (demand or prefetch).
    InFlight,
}

/// Result of a demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DemandResult {
    /// Cycle at which the data is available to the core.
    pub complete_at: u64,
    /// Whether the access hit in the L1D (what the prefetcher is told).
    pub l1_hit: bool,
    /// Where the access was served from.
    pub served_by: HitLevel,
}

/// Outcome of trying to issue a prefetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchOutcome {
    /// The prefetch was sent to the memory system.
    Issued,
    /// The block was already cached at (or above) the requested level, or
    /// already in flight.
    Redundant,
    /// The request was refused for now and stays queued for a retry.
    Refused(Refusal),
}

/// Why [`MemoryHierarchy::issue_prefetch`] refused a prefetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// Every L1 prefetch fill buffer is busy (L1-targeted requests).
    L1FillBuffers,
    /// Every L2 MSHR is live (L2- and LLC-targeted requests).
    L2Mshrs,
    /// The DRAM controller's prefetch backlog window is full.
    DramBacklog,
}

impl Refusal {
    /// Every refusal reason, in label order.
    pub const ALL: [Refusal; 3] = [
        Refusal::L1FillBuffers,
        Refusal::L2Mshrs,
        Refusal::DramBacklog,
    ];

    /// The metric label of this reason.
    pub fn label(self) -> &'static str {
        match self {
            Refusal::L1FillBuffers => "l1_fill_buffers",
            Refusal::L2Mshrs => "l2_mshrs",
            Refusal::DramBacklog => "dram_backlog",
        }
    }
}

/// The per-core, per-class part of the skip target's prefetch wake bound
/// ([`MemoryHierarchy::prefetch_class_bounds`]): the earliest cycle at
/// which a refused request of each fill-level class could get its fill
/// buffer or MSHR, `0` when one is free now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PrefetchClassBounds {
    /// L1-targeted requests: the next pending-fill completion while every
    /// L1 prefetch fill buffer is busy.
    l1: u64,
    /// L2- and LLC-targeted requests: the earliest live L2 MSHR expiry
    /// while every L2 MSHR is live.
    l2: u64,
}

/// What issuing a prefetch would do, fill buffers, MSHRs and the DRAM
/// backlog aside: a function of which blocks are cached and in flight
/// only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Dropped: the block is cached at or above the target, or in flight.
    Redundant,
    /// Issued, reading the data from [`HitLevel::L2`], [`HitLevel::Llc`]
    /// or [`HitLevel::Dram`].
    From(HitLevel),
}

/// A prefetch-queue entry: the request and its latest [`Verdict`], with
/// the change sequence number it was taken at. A request waits in the
/// queue for many issue attempts and skip-target evaluations;
/// [`MemoryHierarchy::verdict`] classifies it again only after a change
/// to its block.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueuedPrefetch {
    pub(crate) req: PrefetchRequest,
    classified: Option<(u64, Verdict)>,
}

impl QueuedPrefetch {
    /// A request not yet classified.
    pub(crate) fn new(req: PrefetchRequest) -> Self {
        QueuedPrefetch {
            req,
            classified: None,
        }
    }
}

/// Each kind of change to which blocks are cached or in flight, the
/// sites [`ChangeStamps::note`] is called from.
#[derive(Debug, Clone, Copy)]
enum Change {
    /// A pending fill applying: it leaves `l1_outstanding` or
    /// `l2_pf_inflight` and enters one or more cache levels.
    Fill,
    LlcEviction,
    L2Eviction,
    L1Eviction,
    /// An L1 demand miss entering `l1_outstanding`.
    DemandMiss,
    /// An issued prefetch entering `l1_outstanding` or `l2_pf_inflight`.
    PrefetchIssue,
}

/// log2 of the number of [`ChangeStamps`] slots.
const STAMP_SLOT_BITS: u32 = 12;

/// When each block last changed, for reusing [`Verdict`]s: a sequence
/// number bumped on every [`Change`], and per slot the sequence number of
/// the latest change to a block hashed there. A verdict taken at sequence
/// `s` still holds while its block's slot stamp is at most `s`. Blocks
/// that share a slot (or a block changing on another core) only cost a
/// reclassification, never a stale verdict.
#[derive(Debug)]
struct ChangeStamps {
    seq: u64,
    slots: Box<[u64]>,
    /// How often each [`Change`] occurred, so tests can check that their
    /// churn reached every site.
    #[cfg(test)]
    counts: [u64; 6],
}

impl ChangeStamps {
    fn new() -> Self {
        ChangeStamps {
            seq: 0,
            slots: vec![0; 1 << STAMP_SLOT_BITS].into_boxed_slice(),
            #[cfg(test)]
            counts: [0; 6],
        }
    }

    /// The slot of `block`: the top bits of a Fibonacci hash.
    fn slot(block: BlockAddr) -> usize {
        (block.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - STAMP_SLOT_BITS)) as usize
    }

    /// Records that `block` changed.
    fn note(&mut self, block: BlockAddr, change: Change) {
        self.seq += 1;
        self.slots[Self::slot(block)] = self.seq;
        #[cfg(test)]
        {
            self.counts[change as usize] += 1;
        }
        #[cfg(not(test))]
        let _ = change;
    }

    /// Whether no block sharing `block`'s slot changed after sequence
    /// number `seen`.
    fn unchanged_since(&self, block: BlockAddr, seen: u64) -> bool {
        self.slots[Self::slot(block)] <= seen
    }
}

/// A block filled into the L1D (reported to the prefetcher).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1FillEvent {
    /// The filled block.
    pub block: BlockAddr,
    /// Whether the fill was triggered by a prefetch.
    pub was_prefetch: bool,
}

#[derive(Debug, Clone, Copy)]
struct Outstanding {
    ready: u64,
    is_prefetch: bool,
    demand_touched: bool,
}

/// Builds [`BlockHasher`]s: the hasher of every block-number-keyed map in
/// the hierarchy.
type BlockHash = BuildHasherDefault<BlockHasher>;

/// Hashes a block number with one multiply (Fibonacci hashing) instead of
/// SipHash: these maps are probed on every demand access and prefetch
/// issue. `HashMap` picks the bucket from the low bits, so the high half
/// of the product, where the multiply mixes best, is folded into them.
/// No random seed, so every run probes and grows the maps identically.
/// Keys come from traces, so a trace crafted to collide can only slow its
/// own simulation down.
#[derive(Debug, Default)]
struct BlockHasher(u64);

impl Hasher for BlockHasher {
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("block-keyed maps hash only u64 block numbers");
    }

    fn write_u64(&mut self, block: u64) {
        let product = block.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = product ^ (product >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Completion cycles of the in-flight requests holding MSHRs at one
/// level, as a min-heap: expiring the ones done by a cycle is amortized
/// O(log n), and the live count and earliest expiry are O(1) after it.
#[derive(Debug, Default)]
struct Reservations(BinaryHeap<Reverse<u64>>);

impl Reservations {
    fn push(&mut self, ready: u64) {
        self.0.push(Reverse(ready));
    }

    /// Drops every reservation that completed at or before `now`.
    fn expire(&mut self, now: u64) {
        while self.0.peek().is_some_and(|&Reverse(r)| r <= now) {
            self.0.pop();
        }
    }

    /// The cycle a request arriving at `now` can claim one of `mshrs`
    /// MSHRs: `now` if one is free, else the earliest expiry.
    fn start(&mut self, now: u64, mshrs: usize) -> u64 {
        self.expire(now);
        match self.0.peek() {
            Some(&Reverse(earliest)) if self.0.len() >= mshrs => earliest.max(now),
            _ => now,
        }
    }

    /// Whether every one of `mshrs` MSHRs is held at `now`.
    fn full(&mut self, now: u64, mshrs: usize) -> bool {
        self.expire(now);
        self.0.len() >= mshrs
    }

    /// The earliest expiry after `now` if at least `mshrs` reservations
    /// are live at `now`, else `0`. Read-only: it counts around expired
    /// entries rather than dropping them.
    fn bound(&self, now: u64, mshrs: usize) -> u64 {
        let mut live = 0usize;
        let mut earliest = u64::MAX;
        for &Reverse(r) in self.0.iter() {
            if r > now {
                live += 1;
                earliest = earliest.min(r);
            }
        }
        if live >= mshrs {
            earliest
        } else {
            0
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct PendingFill {
    at: u64,
    core: usize,
    block: BlockAddr,
    is_prefetch: bool,
    demand_touched: bool,
    fill_l1: bool,
    fill_l2: bool,
    fill_llc: bool,
    /// For prefetches: the level whose line carries the prefetched/used
    /// metadata (usefulness is accounted at the targeted level only, matching
    /// the paper's accuracy definition).
    target: Option<FillLevel>,
}

/// The cache fills in flight, applied in (completion cycle, insertion
/// seq) order: the stable sort-by-completion order, so LRU state evolves
/// bit-exactly.
///
/// Promoting a fill (lowering its cycle) moves it to the lowered cycle
/// with the same seq. A per-core index maps a block to the key of its
/// pending *prefetch* fill, so promotion is a lookup, not a scan. A core
/// has at most one pending prefetch fill per block: `issue_prefetch`
/// drops a request as redundant while the block is in `l1_outstanding`
/// or `l2_pf_inflight`, and both stay set until that fill applies.
#[derive(Debug)]
struct PendingFills {
    /// Fills keyed by `(completion cycle, insertion seq)`.
    queue: BTreeMap<(u64, u64), PendingFill>,
    /// Per core: block number -> queue key of its pending prefetch fill.
    prefetch_key: Vec<HashMap<u64, (u64, u64), BlockHash>>,
    /// Monotone insertion counter breaking completion-cycle ties.
    next_seq: u64,
    /// The first queue key's completion cycle (`u64::MAX` when empty),
    /// cached because every access reads it.
    next_at: u64,
}

impl PendingFills {
    fn new(cores: usize) -> Self {
        PendingFills {
            queue: BTreeMap::new(),
            prefetch_key: (0..cores).map(|_| HashMap::default()).collect(),
            next_seq: 0,
            next_at: u64::MAX,
        }
    }

    fn push(&mut self, fill: PendingFill) {
        let key = (fill.at, self.next_seq);
        self.next_seq += 1;
        if fill.is_prefetch {
            let prev = self.prefetch_key[fill.core].insert(fill.block.raw(), key);
            debug_assert!(prev.is_none(), "two pending prefetch fills of one block");
        }
        self.next_at = self.next_at.min(fill.at);
        self.queue.insert(key, fill);
    }

    /// Lowers the completion cycle of `core`'s pending prefetch fill of
    /// `block` to `at` if that is earlier, first marking it demand-touched
    /// when `touch` is set. No-op when no such fill is pending.
    fn promote_prefetch(&mut self, core: usize, block: BlockAddr, at: u64, touch: bool) {
        let Some(key) = self.prefetch_key[core].get_mut(&block.raw()) else {
            return;
        };
        let mut fill = self.queue.remove(key).expect("indexed fill is pending");
        fill.demand_touched |= touch;
        if at < fill.at {
            fill.at = at;
            // The original seq keeps equal-cycle ordering stable.
            key.0 = at;
            self.next_at = self.next_at.min(at);
        }
        self.queue.insert(*key, fill);
    }

    /// Removes and returns the earliest fill due at or before `now`.
    fn pop_due(&mut self, now: u64) -> Option<PendingFill> {
        if self.next_at > now {
            return None;
        }
        let (_, fill) = self.queue.pop_first()?;
        self.next_at = self
            .queue
            .first_key_value()
            .map_or(u64::MAX, |(&(at, _), _)| at);
        if fill.is_prefetch {
            self.prefetch_key[fill.core].remove(&fill.block.raw());
        }
        Some(fill)
    }
}

/// Per-core statistics kept by the hierarchy.
#[derive(Debug, Clone, Copy, Default)]
pub struct HierarchyStats {
    /// L1D statistics.
    pub l1d: CacheStats,
    /// L2C statistics.
    pub l2c: CacheStats,
    /// LLC statistics (this core's demand stream and prefetch fills).
    pub llc: CacheStats,
    /// Prefetch statistics.
    pub prefetch: PrefetchStats,
}

/// The memory hierarchy shared by all cores: per-core L1D and L2C, a shared
/// LLC and a shared DRAM.
#[derive(Debug)]
pub struct MemoryHierarchy {
    cfg: SimConfig,
    l1d: Vec<CacheArray>,
    l2c: Vec<CacheArray>,
    llc: CacheArray,
    dram: DramModel,
    l1_outstanding: Vec<HashMap<u64, Outstanding, BlockHash>>,
    /// Per-core counts of outstanding L1 demands/prefetches, maintained
    /// incrementally (the occupancy checks run on every dispatch slot).
    l1_demand_count: Vec<usize>,
    l1_prefetch_count: Vec<usize>,
    /// In-flight prefetches that target the L2 (or LLC): block number ->
    /// completion cycle, so a later demand miss merges with them instead
    /// of re-fetching from DRAM.
    l2_pf_inflight: Vec<HashMap<u64, u64, BlockHash>>,
    l2_inflight: Vec<Reservations>,
    llc_inflight: Reservations,
    pending: PendingFills,
    l1_fill_events: Vec<Vec<L1FillEvent>>,
    l1_evict_events: Vec<Vec<BlockAddr>>,
    stats: Vec<HierarchyStats>,
    stats_enabled: bool,
    stamps: ChangeStamps,
}

impl MemoryHierarchy {
    /// Builds the hierarchy described by `cfg`.
    pub fn new(cfg: SimConfig) -> Self {
        let cores = cfg.cores;
        let llc_cfg = cfg.llc_total();
        let llc_sets = (llc_cfg.size_bytes / llc_cfg.line_size) as usize / llc_cfg.ways;
        let llc_sets = llc_sets.next_power_of_two().max(1);
        MemoryHierarchy {
            l1d: (0..cores).map(|_| CacheArray::new(&cfg.l1d)).collect(),
            l2c: (0..cores).map(|_| CacheArray::new(&cfg.l2c)).collect(),
            llc: CacheArray::with_shape(llc_sets, llc_cfg.ways),
            dram: DramModel::with_line_size(cfg.dram, cfg.l1d.line_size),
            l1_outstanding: (0..cores).map(|_| HashMap::default()).collect(),
            l1_demand_count: vec![0; cores],
            l1_prefetch_count: vec![0; cores],
            l2_pf_inflight: (0..cores).map(|_| HashMap::default()).collect(),
            l2_inflight: (0..cores).map(|_| Reservations::default()).collect(),
            llc_inflight: Reservations::default(),
            pending: PendingFills::new(cores),
            l1_fill_events: (0..cores).map(|_| Vec::new()).collect(),
            l1_evict_events: (0..cores).map(|_| Vec::new()).collect(),
            stats: vec![HierarchyStats::default(); cores],
            stats_enabled: true,
            stamps: ChangeStamps::new(),
            cfg,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Enables or disables statistics collection (disabled during warm-up).
    pub fn set_stats_enabled(&mut self, enabled: bool) {
        self.stats_enabled = enabled;
    }

    /// Clears all statistics counters (cache contents are preserved).
    pub fn reset_stats(&mut self) {
        for s in &mut self.stats {
            *s = HierarchyStats::default();
        }
    }

    /// Per-core statistics.
    pub fn stats(&self, core: usize) -> HierarchyStats {
        self.stats[core]
    }

    /// Whether `block` currently resides in core `core`'s L1D.
    pub fn l1_contains(&self, core: usize, block: BlockAddr) -> bool {
        self.l1d[core].contains(block)
    }

    /// Drains L1 fill notifications for `core` (for the prefetcher's
    /// `on_fill` hook) into `out`, which is cleared first. The two buffers
    /// swap, so a caller that keeps `out` across cycles never allocates.
    pub fn take_l1_fills(&mut self, core: usize, out: &mut Vec<L1FillEvent>) {
        out.clear();
        std::mem::swap(out, &mut self.l1_fill_events[core]);
    }

    /// Drains L1 eviction notifications for `core` (for the prefetcher's
    /// `on_evict` hook) into `out`, like [`take_l1_fills`](Self::take_l1_fills).
    pub fn take_l1_evictions(&mut self, core: usize, out: &mut Vec<BlockAddr>) {
        out.clear();
        std::mem::swap(out, &mut self.l1_evict_events[core]);
    }

    /// Number of outstanding L1-level misses for `core` (occupied MSHRs),
    /// demands and prefetches combined.
    pub fn l1_mshr_occupancy(&self, core: usize) -> usize {
        self.l1_outstanding[core].len()
    }

    /// Outstanding *demand* misses at the L1 for `core`. Demand dispatch
    /// stalls against this count.
    pub fn l1_demand_occupancy(&self, core: usize) -> usize {
        self.l1_demand_count[core]
    }

    /// Outstanding L1-targeted *prefetches* for `core`. Prefetch issue is
    /// admitted against this count (modelling a dedicated prefetch fill
    /// buffer alongside the demand MSHRs).
    pub fn l1_prefetch_occupancy(&self, core: usize) -> usize {
        self.l1_prefetch_count[core]
    }

    /// Records `n` prefetch requests dropped because the prefetch queue was
    /// full (the queue itself lives in the system, not the hierarchy).
    pub fn note_prefetch_queue_drops(&mut self, core: usize, n: u64) {
        if self.stats_enabled {
            self.stats[core].prefetch.requested += n;
            self.stats[core].prefetch.dropped_queue_full += n;
        }
    }

    /// The earliest completion cycle among pending fills, if any. After
    /// [`advance_to`](Self::advance_to)`(now)` every remaining fill is
    /// strictly in the future, so this is the hierarchy's next event time —
    /// the cycle-skipping fast-forward target. O(1): the minimum is
    /// cached.
    pub fn next_fill_at(&self) -> Option<u64> {
        (self.pending.next_at != u64::MAX).then_some(self.pending.next_at)
    }

    /// Applies all fills scheduled at or before `now`.
    pub fn advance_to(&mut self, now: u64) {
        // Called on every access and every cycle; the cached minimum makes
        // the no-fill-due case O(1).
        if self.pending.next_at > now {
            return;
        }
        while let Some(fill) = self.pending.pop_due(now) {
            self.apply_fill(fill);
        }
        self.l2_inflight.iter_mut().for_each(|r| r.expire(now));
        self.llc_inflight.expire(now);
    }

    fn apply_fill(&mut self, fill: PendingFill) {
        let core = fill.core;
        // One stamp covers the in-flight removals and every level's fill.
        self.stamps.note(fill.block, Change::Fill);
        if fill.is_prefetch {
            self.l2_pf_inflight[core].remove(&fill.block.raw());
        }
        // A prefetch whose in-flight request was touched by a demand access is
        // installed as a demand line (it has already been credited as useful).
        // Usefulness metadata is carried only by the line at the prefetch's
        // target level; levels filled in passing install plain lines.
        let as_prefetch = fill.is_prefetch && !fill.demand_touched;
        if fill.fill_llc {
            let mark = as_prefetch && fill.target == Some(FillLevel::Llc);
            if fill.is_prefetch && fill.target == Some(FillLevel::Llc) && self.stats_enabled {
                self.stats[core].llc.prefetch_fills += 1;
            }
            if let Some(ev) = self.llc.fill(fill.block, mark, core) {
                self.stamps.note(ev.block, Change::LlcEviction);
                if ev.was_prefetch && !ev.was_used && self.stats_enabled {
                    self.stats[core].llc.useless_prefetches += 1;
                }
            }
        }
        if fill.fill_l2 {
            let mark = as_prefetch && fill.target == Some(FillLevel::L2);
            if fill.is_prefetch && fill.target == Some(FillLevel::L2) && self.stats_enabled {
                self.stats[core].l2c.prefetch_fills += 1;
            }
            if let Some(ev) = self.l2c[core].fill(fill.block, mark, core) {
                self.stamps.note(ev.block, Change::L2Eviction);
                if ev.was_prefetch && !ev.was_used && self.stats_enabled {
                    self.stats[core].l2c.useless_prefetches += 1;
                }
            }
        }
        if fill.fill_l1 {
            let mark = as_prefetch && fill.target == Some(FillLevel::L1);
            if fill.is_prefetch && fill.target == Some(FillLevel::L1) && self.stats_enabled {
                self.stats[core].l1d.prefetch_fills += 1;
            }
            if let Some(ev) = self.l1d[core].fill(fill.block, mark, core) {
                self.stamps.note(ev.block, Change::L1Eviction);
                if ev.was_prefetch && !ev.was_used && self.stats_enabled {
                    self.stats[core].l1d.useless_prefetches += 1;
                }
                self.l1_evict_events[core].push(ev.block);
            }
            self.l1_fill_events[core].push(L1FillEvent {
                block: fill.block,
                was_prefetch: fill.is_prefetch,
            });
            // The miss (or prefetch) is no longer outstanding at the L1.
            if let Some(entry) = self.l1_outstanding[core].remove(&fill.block.raw()) {
                if entry.is_prefetch {
                    self.l1_prefetch_count[core] -= 1;
                } else {
                    self.l1_demand_count[core] -= 1;
                }
                if entry.is_prefetch && entry.demand_touched && self.stats_enabled {
                    // Late-but-useful prefetch: credit usefulness at the L1.
                    self.stats[core].l1d.useful_prefetches += 1;
                }
            }
        }
    }

    fn l1_mshr_start(&self, core: usize, now: u64) -> u64 {
        let outstanding = &self.l1_outstanding[core];
        if outstanding.len() < self.cfg.l1d.mshrs {
            now
        } else {
            // gaze-lint: allow(map_iteration) -- the minimum of u64 cycles does not depend on iteration order
            let min_ready = outstanding.values().map(|o| o.ready).min();
            min_ready.unwrap_or(now).max(now)
        }
    }

    fn l2_mshr_start(&mut self, core: usize, now: u64) -> u64 {
        self.l2_inflight[core].start(now, self.cfg.l2c.mshrs)
    }

    fn llc_mshr_start(&mut self, now: u64) -> u64 {
        self.llc_inflight
            .start(now, self.cfg.llc_per_core.mshrs * self.cfg.cores)
    }

    /// Performs a demand access for `core` to the line containing `block`.
    pub fn demand_access(
        &mut self,
        core: usize,
        block: BlockAddr,
        is_store: bool,
        now: u64,
    ) -> DemandResult {
        self.advance_to(now);
        let enabled = self.stats_enabled;
        if enabled {
            self.stats[core].l1d.demand_accesses += 1;
        }

        // L1D lookup.
        if let Some(hit) = self.l1d[core].demand_access(block, is_store) {
            if enabled {
                self.stats[core].l1d.demand_hits += 1;
                if hit.first_use_of_prefetch {
                    self.stats[core].l1d.useful_prefetches += 1;
                }
            }
            return DemandResult {
                complete_at: now + self.cfg.l1d.latency,
                l1_hit: true,
                served_by: HitLevel::L1,
            };
        }
        if enabled {
            self.stats[core].l1d.demand_misses += 1;
        }

        // Merge with an in-flight request if one exists. A late prefetch is
        // promoted to demand priority at the memory controller, so the merged
        // request completes no later than a freshly issued demand would.
        if let Some(entry) = self.l1_outstanding[core].get_mut(&block.raw()) {
            let was_untouched_prefetch = entry.is_prefetch && !entry.demand_touched;
            if was_untouched_prefetch && enabled {
                self.stats[core].prefetch.late += 1;
            }
            entry.demand_touched = true;
            if entry.is_prefetch {
                let path =
                    self.cfg.l1d.latency + self.cfg.l2c.latency + self.cfg.llc_per_core.latency;
                let fresh = self.dram.estimate_demand(block, now + path);
                if fresh < entry.ready {
                    entry.ready = fresh;
                    self.pending.promote_prefetch(core, block, fresh, false);
                }
            }
            let ready = entry.ready.max(now + self.cfg.l1d.latency);
            return DemandResult {
                complete_at: ready,
                l1_hit: false,
                served_by: HitLevel::InFlight,
            };
        }

        // True L1 miss: walk the lower levels.
        let start = self.l1_mshr_start(core, now);
        let l2_lookup_at = start + self.cfg.l1d.latency;
        if enabled {
            self.stats[core].l2c.demand_accesses += 1;
        }
        let (ready, served_by, fill_l2, fill_llc) =
            if let Some(hit) = self.l2c[core].demand_access(block, false) {
                if enabled {
                    self.stats[core].l2c.demand_hits += 1;
                    if hit.first_use_of_prefetch {
                        self.stats[core].l2c.useful_prefetches += 1;
                    }
                }
                (
                    l2_lookup_at + self.cfg.l2c.latency,
                    HitLevel::L2,
                    false,
                    false,
                )
            } else if let Some(pf_ready) = self.l2_pf_inflight[core].get(&block.raw()).copied() {
                // The block is already on its way to the L2 because of a
                // prefetch: merge with it instead of fetching again (a late but
                // useful prefetch, credited at the L2). The in-flight request is
                // promoted to demand priority, so it completes no later than a
                // freshly issued demand would have.
                if enabled {
                    self.stats[core].l2c.demand_misses += 1;
                    self.stats[core].prefetch.late += 1;
                    self.stats[core].l2c.useful_prefetches += 1;
                }
                let path = self.cfg.l2c.latency + self.cfg.llc_per_core.latency;
                let fresh = self.dram.estimate_demand(block, l2_lookup_at + path);
                let promoted = pf_ready.min(fresh);
                self.l2_pf_inflight[core].insert(block.raw(), promoted);
                self.pending.promote_prefetch(core, block, promoted, true);
                let ready = promoted.max(l2_lookup_at) + self.cfg.l2c.latency;
                (ready, HitLevel::InFlight, false, false)
            } else {
                if enabled {
                    self.stats[core].l2c.demand_misses += 1;
                    self.stats[core].llc.demand_accesses += 1;
                }
                let l2_start = self.l2_mshr_start(core, l2_lookup_at);
                let llc_lookup_at = l2_start + self.cfg.l2c.latency;
                if let Some(hit) = self.llc.demand_access(block, false) {
                    if enabled {
                        self.stats[core].llc.demand_hits += 1;
                        if hit.first_use_of_prefetch {
                            self.stats[core].llc.useful_prefetches += 1;
                        }
                    }
                    let ready = llc_lookup_at + self.cfg.llc_per_core.latency;
                    self.l2_inflight[core].push(ready);
                    (ready, HitLevel::Llc, true, false)
                } else {
                    if enabled {
                        self.stats[core].llc.demand_misses += 1;
                    }
                    let llc_start = self.llc_mshr_start(llc_lookup_at);
                    let dram_at = llc_start + self.cfg.llc_per_core.latency;
                    let ready = self.dram.access(block, dram_at);
                    self.l2_inflight[core].push(ready);
                    self.llc_inflight.push(ready);
                    (ready, HitLevel::Dram, true, true)
                }
            };

        let prev = self.l1_outstanding[core].insert(
            block.raw(),
            Outstanding {
                ready,
                is_prefetch: false,
                demand_touched: true,
            },
        );
        debug_assert!(
            prev.is_none(),
            "demand insert over an existing outstanding entry"
        );
        self.stamps.note(block, Change::DemandMiss);
        self.l1_demand_count[core] += 1;
        self.pending.push(PendingFill {
            at: ready,
            core,
            block,
            is_prefetch: false,
            demand_touched: true,
            fill_l1: true,
            fill_l2,
            fill_llc,
            target: None,
        });
        DemandResult {
            complete_at: ready,
            l1_hit: false,
            served_by,
        }
    }

    /// Whether a prefetch of `req` would be dropped as redundant: the block
    /// is already cached at (or above) the requested level, or already in
    /// flight.
    fn prefetch_redundant(&self, core: usize, req: &PrefetchRequest) -> bool {
        let block = req.block;
        (match req.fill_level {
            FillLevel::L1 => self.l1d[core].contains(block),
            FillLevel::L2 => self.l1d[core].contains(block) || self.l2c[core].contains(block),
            FillLevel::Llc => {
                self.l1d[core].contains(block)
                    || self.l2c[core].contains(block)
                    || self.llc.contains(block)
            }
        }) || self.l1_outstanding[core].contains_key(&block.raw())
            || self.l2_pf_inflight[core].contains_key(&block.raw())
    }

    /// Where a prefetch of `req` that is not redundant would read its data
    /// from: [`HitLevel::L2`], [`HitLevel::Llc`] or [`HitLevel::Dram`].
    /// Redundancy already rules out the levels at and above the target.
    fn prefetch_source(&self, core: usize, req: &PrefetchRequest) -> HitLevel {
        let block = req.block;
        let in_l2 = req.fill_level == FillLevel::L1 && self.l2c[core].contains(block);
        if in_l2 {
            HitLevel::L2
        } else if req.fill_level != FillLevel::Llc && self.llc.contains(block) {
            HitLevel::Llc
        } else {
            HitLevel::Dram
        }
    }

    /// Classifies a prefetch of `req` for `core` as it stands now.
    fn classify(&self, core: usize, req: &PrefetchRequest) -> Verdict {
        if self.prefetch_redundant(core, req) {
            Verdict::Redundant
        } else {
            Verdict::From(self.prefetch_source(core, req))
        }
    }

    /// The current [`Verdict`] on `core`'s queued `entry`: the cached one
    /// while no change stamp on its block is newer, else a fresh
    /// classification, which is cached and counted in `classified`. Debug
    /// builds classify a reused verdict again and assert that it agrees.
    pub(crate) fn verdict(
        &self,
        core: usize,
        entry: &mut QueuedPrefetch,
        classified: &mut u64,
    ) -> Verdict {
        if let Some((seen, verdict)) = entry.classified {
            if self.stamps.unchanged_since(entry.req.block, seen) {
                debug_assert_eq!(
                    verdict,
                    self.classify(core, &entry.req),
                    "stale verdict for core {core}: {:?}",
                    entry.req
                );
                return verdict;
            }
        }
        let verdict = self.classify(core, &entry.req);
        *classified += 1;
        entry.classified = Some((self.stamps.seq, verdict));
        verdict
    }

    /// Attempts to issue a prefetch on behalf of `core`.
    ///
    /// Returning [`PrefetchOutcome::Refused`] does not consume the request:
    /// the caller (the prefetch queue) is expected to retry it later, so MSHR
    /// pressure delays prefetches rather than silently discarding them.
    pub fn issue_prefetch(
        &mut self,
        core: usize,
        req: PrefetchRequest,
        now: u64,
    ) -> PrefetchOutcome {
        self.advance_to(now);
        let verdict = self.classify(core, &req);
        self.issue_classified(core, req, verdict, now)
    }

    /// [`issue_prefetch`](Self::issue_prefetch) after its
    /// [`advance_to`](Self::advance_to)`(now)`, given the current
    /// [`Verdict`] on `req`.
    pub(crate) fn issue_classified(
        &mut self,
        core: usize,
        req: PrefetchRequest,
        verdict: Verdict,
        now: u64,
    ) -> PrefetchOutcome {
        let block = req.block;
        let enabled = self.stats_enabled;

        let Verdict::From(source) = verdict else {
            if enabled {
                self.stats[core].prefetch.requested += 1;
                self.stats[core].prefetch.dropped_redundant += 1;
            }
            return PrefetchOutcome::Redundant;
        };

        match req.fill_level {
            FillLevel::L1 => {
                // Prefetches are admitted against their own share of fill
                // buffers so a saturated demand stream cannot starve them
                // completely (and vice versa).
                if self.l1_prefetch_occupancy(core) >= self.cfg.l1d.mshrs {
                    return PrefetchOutcome::Refused(Refusal::L1FillBuffers);
                }
            }
            FillLevel::L2 | FillLevel::Llc => {
                if self.l2_inflight[core].full(now, self.cfg.l2c.mshrs) {
                    return PrefetchOutcome::Refused(Refusal::L2Mshrs);
                }
            }
        }

        let lookup_at = now + self.cfg.l1d.latency;
        let fill_l1 = req.fill_level == FillLevel::L1;
        let (ready, fill_l2, fill_llc) = match source {
            HitLevel::L2 => {
                // Consuming a prefetched L2 line to move it up counts that
                // line as used (its usefulness will be observed at the L1
                // instead).
                self.l2c[core].demand_access(block, false);
                (lookup_at + self.cfg.l2c.latency, false, false)
            }
            HitLevel::Llc => {
                self.llc.demand_access(block, false);
                let ready = lookup_at + self.cfg.l2c.latency + self.cfg.llc_per_core.latency;
                (ready, true, false)
            }
            _ => {
                let dram_at = lookup_at + self.cfg.l2c.latency + self.cfg.llc_per_core.latency;
                // Prefetch reads are refused (and retried later) when the DRAM
                // controller's prefetch backlog window is full.
                if !self.dram.accepts_prefetch(block, dram_at) {
                    return PrefetchOutcome::Refused(Refusal::DramBacklog);
                }
                (self.dram.access_prefetch(block, dram_at), true, true)
            }
        };

        // An L1-targeted prefetch whose data is already in the L2 and which
        // would fill nothing new is still issued (it moves the line up).
        if enabled {
            self.stats[core].prefetch.requested += 1;
            self.stats[core].prefetch.issued += 1;
        }
        if fill_l1 {
            let prev = self.l1_outstanding[core].insert(
                block.raw(),
                Outstanding {
                    ready,
                    is_prefetch: true,
                    demand_touched: false,
                },
            );
            debug_assert!(
                prev.is_none(),
                "prefetch insert over an existing outstanding entry"
            );
            self.l1_prefetch_count[core] += 1;
        } else {
            self.l2_inflight[core].push(ready);
            self.l2_pf_inflight[core].insert(block.raw(), ready);
        }
        self.stamps.note(block, Change::PrefetchIssue);
        if fill_llc {
            self.llc_inflight.push(ready);
        }
        self.pending.push(PendingFill {
            at: ready,
            core,
            block,
            is_prefetch: true,
            demand_touched: false,
            fill_l1,
            fill_l2: fill_l2 || (req.fill_level == FillLevel::L2),
            fill_llc: fill_llc || (req.fill_level == FillLevel::Llc),
            target: Some(req.fill_level),
        });
        PrefetchOutcome::Issued
    }

    /// The fill-buffer and MSHR part of [`issue_prefetch`]'s refusals for
    /// `core` at `now`, computed once per core per skip-target evaluation
    /// rather than once per queued request:
    ///
    /// - L1-targeted requests wait for a prefetch fill buffer while all
    ///   `l1d.mshrs` are busy; one frees only when a pending fill applies,
    ///   so the bound is [`next_fill_at`](Self::next_fill_at).
    /// - L2- and LLC-targeted requests wait while `l2c.mshrs` entries of
    ///   `l2_inflight` are live (complete after `now`); the bound is the
    ///   earliest live expiry. A demand-promoted
    ///   prefetch can leave an entry whose expiry is no pending fill's
    ///   time, so this is a wake source apart from `next_fill_at`.
    ///
    /// [`issue_prefetch`]: Self::issue_prefetch
    pub(crate) fn prefetch_class_bounds(&self, core: usize, now: u64) -> PrefetchClassBounds {
        let l1 = if self.l1_prefetch_count[core] >= self.cfg.l1d.mshrs {
            self.pending.next_at
        } else {
            0
        };
        let l2 = self.l2_inflight[core].bound(now, self.cfg.l2c.mshrs);
        PrefetchClassBounds { l1, l2 }
    }

    /// Read-only mirror of [`issue_prefetch`](Self::issue_prefetch)'s gating
    /// for queue-aware cycle skipping: the earliest cycle at which an attempt
    /// to issue `req`, whose current [`Verdict`] is `verdict`, could
    /// *consume* it (issue or drop-as-redundant) rather than be refused,
    /// assuming no intervening simulation activity. `0` means an attempt
    /// would consume it right now. A bound that reaches
    /// [`next_fill_at`](Self::next_fill_at) may be reported without its
    /// DRAM part, since the skip target stops at the next fill anyway.
    /// `class` is
    /// [`prefetch_class_bounds`](Self::prefetch_class_bounds) of the same
    /// core and cycle, so per request only the DRAM-channel bound remains.
    ///
    /// The bound is conservative (never later than the true clear time):
    /// while every core is stalled, cache contents, outstanding tables and
    /// DRAM channel backlog are all frozen until the next fill applies, so
    /// the only time-dependent refusals are the ones reproduced here —
    /// the class bounds above, and the DRAM prefetch-backlog window, which
    /// reopens as the channel bus drains. The skip target additionally
    /// includes `next_fill_at` itself, so a bound that clears only at a fill
    /// is never overshot.
    pub(crate) fn prefetch_block_clear_at(
        &self,
        req: &PrefetchRequest,
        verdict: Verdict,
        class: PrefetchClassBounds,
    ) -> u64 {
        let Verdict::From(source) = verdict else {
            return 0;
        };
        let class_bound = match req.fill_level {
            FillLevel::L1 => class.l1,
            FillLevel::L2 | FillLevel::Llc => class.l2,
        };
        // The skip target never passes the next fill, so a bound at or
        // beyond it needs no DRAM refinement.
        if class_bound >= self.pending.next_at || source != HitLevel::Dram {
            return class_bound;
        }
        // Off-chip requests are additionally refused while the DRAM
        // prefetch-backlog window is full; translate the channel's
        // acceptance time from DRAM-arrival space back to issue cycles.
        let path = self.cfg.l1d.latency + self.cfg.l2c.latency + self.cfg.llc_per_core.latency;
        class_bound.max(
            self.dram
                .prefetch_accepted_from(req.block)
                .saturating_sub(path),
        )
    }

    /// Flushes all pending fills and accounts still-resident unused
    /// prefetched lines as useless. Call once at the end of a measured run.
    ///
    /// Debug builds then check the end-of-run accounting identities: every
    /// in-flight structure is empty, and every requested prefetch was
    /// issued or dropped for a counted reason.
    pub fn finalize(&mut self) {
        self.advance_to(u64::MAX);
        debug_assert!(
            self.pending.queue.is_empty()
                && self.pending.next_at == u64::MAX
                && self.pending.prefetch_key.iter().all(HashMap::is_empty),
            "fills still pending after finalize"
        );
        debug_assert!(
            self.l1_outstanding.iter().all(HashMap::is_empty)
                && self.l1_demand_count.iter().all(|&n| n == 0)
                && self.l1_prefetch_count.iter().all(|&n| n == 0),
            "L1 misses still outstanding after finalize"
        );
        debug_assert!(
            self.l2_pf_inflight.iter().all(HashMap::is_empty),
            "L2 prefetches still in flight after finalize"
        );
        debug_assert!(
            self.stats.iter().all(|s| {
                let p = s.prefetch;
                p.requested
                    == p.issued + p.dropped_redundant + p.dropped_queue_full + p.dropped_mshr_full
            }),
            "requested prefetches != issued + dropped"
        );
        if !self.stats_enabled {
            return;
        }
        let mut l1_useless = vec![0u64; self.stats.len()];
        let mut l2_useless = vec![0u64; self.stats.len()];
        let mut llc_useless = vec![0u64; self.stats.len()];
        for (core, l1) in self.l1d.iter().enumerate() {
            for (_, prefetched, used, _) in l1.resident_lines() {
                if prefetched && !used {
                    l1_useless[core] += 1;
                }
            }
        }
        for (core, l2) in self.l2c.iter().enumerate() {
            for (_, prefetched, used, _) in l2.resident_lines() {
                if prefetched && !used {
                    l2_useless[core] += 1;
                }
            }
        }
        for (_, prefetched, used, owner) in self.llc.resident_lines() {
            if prefetched && !used {
                llc_useless[owner.min(self.stats.len() - 1)] += 1;
            }
        }
        for core in 0..self.stats.len() {
            self.stats[core].l1d.useless_prefetches += l1_useless[core];
            self.stats[core].l2c.useless_prefetches += l2_useless[core];
            self.stats[core].llc.useless_prefetches += llc_useless[core];
        }
    }

    /// DRAM statistics (shared across cores).
    pub fn dram_stats(&self) -> crate::dram::DramStats {
        self.dram.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;

    fn hierarchy() -> MemoryHierarchy {
        MemoryHierarchy::new(SimConfig::paper_single_core())
    }

    #[test]
    fn cold_miss_goes_to_dram_then_hits_l1() {
        let mut h = hierarchy();
        let b = BlockAddr::new(0x1000);
        let r = h.demand_access(0, b, false, 0);
        assert!(!r.l1_hit);
        assert_eq!(r.served_by, HitLevel::Dram);
        assert!(
            r.complete_at > 100,
            "off-chip access should take >100 cycles, got {}",
            r.complete_at
        );
        // After the fill time passes, the same block hits in L1.
        let r2 = h.demand_access(0, b, false, r.complete_at + 1);
        assert!(r2.l1_hit);
        assert_eq!(r2.complete_at, r.complete_at + 1 + 5);
        let s = h.stats(0);
        assert_eq!(s.l1d.demand_accesses, 2);
        assert_eq!(s.l1d.demand_misses, 1);
        assert_eq!(s.llc.demand_misses, 1);
    }

    #[test]
    fn merge_with_inflight_demand() {
        let mut h = hierarchy();
        let b = BlockAddr::new(0x2000);
        let r1 = h.demand_access(0, b, false, 0);
        let r2 = h.demand_access(0, b, false, 10);
        assert_eq!(r2.served_by, HitLevel::InFlight);
        assert!(r2.complete_at <= r1.complete_at.max(10 + 5));
        // Only one off-chip read happened.
        assert_eq!(h.dram_stats().reads, 1);
    }

    #[test]
    fn prefetch_then_demand_is_useful_and_hits() {
        let mut h = hierarchy();
        let b = BlockAddr::new(0x3000);
        assert_eq!(
            h.issue_prefetch(0, PrefetchRequest::to_l1(b), 0),
            PrefetchOutcome::Issued
        );
        // Demand arrives well after the prefetch completed.
        let r = h.demand_access(0, b, false, 10_000);
        assert!(r.l1_hit);
        let s = h.stats(0);
        assert_eq!(s.l1d.useful_prefetches, 1);
        assert_eq!(s.prefetch.late, 0);
        assert_eq!(s.prefetch.issued, 1);
    }

    #[test]
    fn late_prefetch_detected() {
        let mut h = hierarchy();
        let b = BlockAddr::new(0x4000);
        h.issue_prefetch(0, PrefetchRequest::to_l1(b), 0);
        // Demand arrives while the prefetch is still in flight.
        let r = h.demand_access(0, b, false, 3);
        assert_eq!(r.served_by, HitLevel::InFlight);
        let s = h.stats(0);
        assert_eq!(s.prefetch.late, 1);
        // After the fill, usefulness is credited exactly once.
        h.advance_to(r.complete_at + 1);
        assert_eq!(h.stats(0).l1d.useful_prefetches, 1);
    }

    #[test]
    fn redundant_prefetch_dropped() {
        let mut h = hierarchy();
        let b = BlockAddr::new(0x5000);
        let r = h.demand_access(0, b, false, 0);
        let t = r.complete_at + 1;
        assert_eq!(
            h.issue_prefetch(0, PrefetchRequest::to_l1(b), t),
            PrefetchOutcome::Redundant
        );
        assert_eq!(h.stats(0).prefetch.dropped_redundant, 1);
    }

    #[test]
    fn l2_fill_prefetch_serves_later_l1_miss_from_l2() {
        let mut h = hierarchy();
        let b = BlockAddr::new(0x6000);
        h.issue_prefetch(0, PrefetchRequest::to_l2(b), 0);
        let r = h.demand_access(0, b, false, 10_000);
        assert!(!r.l1_hit);
        assert_eq!(r.served_by, HitLevel::L2);
        let s = h.stats(0);
        assert_eq!(s.l2c.useful_prefetches, 1);
        assert_eq!(s.l2c.prefetch_fills, 1);
        assert_eq!(s.l1d.prefetch_fills, 0);
    }

    #[test]
    fn unused_prefetch_counted_useless_at_finalize() {
        let mut h = hierarchy();
        h.issue_prefetch(0, PrefetchRequest::to_l1(BlockAddr::new(0x7000)), 0);
        h.finalize();
        let s = h.stats(0);
        // The block resides in L1, L2 and LLC, but only the targeted level
        // (L1) carries the prefetch metadata, so it is counted useless once.
        assert_eq!(s.l1d.useless_prefetches, 1);
        assert_eq!(s.l2c.useless_prefetches + s.llc.useless_prefetches, 0);
    }

    #[test]
    fn mshr_limit_defers_excess_prefetches() {
        let mut h = hierarchy();
        let mshrs = h.config().l1d.mshrs;
        let mut deferred = 0;
        for i in 0..(mshrs + 8) {
            if h.issue_prefetch(
                0,
                PrefetchRequest::to_l1(BlockAddr::new(0x10_0000 + i as u64)),
                0,
            ) == PrefetchOutcome::Refused(Refusal::L1FillBuffers)
            {
                deferred += 1;
            }
        }
        assert_eq!(deferred, 8);
        assert_eq!(h.stats(0).prefetch.issued, mshrs as u64);
        assert_eq!(h.l1_mshr_occupancy(0), mshrs);
        // Once time passes and the fills land, the MSHRs free up again.
        h.advance_to(100_000);
        assert_eq!(h.l1_mshr_occupancy(0), 0);
        assert_eq!(
            h.issue_prefetch(
                0,
                PrefetchRequest::to_l1(BlockAddr::new(0x20_0000)),
                100_000
            ),
            PrefetchOutcome::Issued
        );
    }

    #[test]
    fn l1_fill_and_evict_notifications_are_produced() {
        let mut h = hierarchy();
        let b = BlockAddr::new(0x8000);
        let r = h.demand_access(0, b, false, 0);
        h.advance_to(r.complete_at);
        let mut fills = Vec::new();
        h.take_l1_fills(0, &mut fills);
        assert_eq!(fills.len(), 1);
        assert_eq!(fills[0].block, b);
        assert!(!fills[0].was_prefetch);
        h.take_l1_fills(0, &mut fills);
        assert!(fills.is_empty(), "notifications are drained");
    }

    #[test]
    fn warmup_statistics_can_be_disabled_and_reset() {
        let mut h = hierarchy();
        h.set_stats_enabled(false);
        h.demand_access(0, BlockAddr::new(0x9000), false, 0);
        assert_eq!(h.stats(0).l1d.demand_accesses, 0);
        h.set_stats_enabled(true);
        h.demand_access(0, BlockAddr::new(0xa000), false, 0);
        assert_eq!(h.stats(0).l1d.demand_accesses, 1);
        h.reset_stats();
        assert_eq!(h.stats(0).l1d.demand_accesses, 0);
    }

    #[test]
    fn pending_fills_match_a_reference_btreemap_under_churn() {
        // Deterministic LCG churn over a monotone clock: pushes (at most
        // one pending prefetch fill per core and block, as the hierarchy
        // guarantees), promotions through the (core, block) index, and
        // drains, mirrored by a seq-keyed BTreeMap that promotes by
        // scanning and drains by minimum (cycle, seq).
        use std::collections::BTreeMap;
        let mut fills = PendingFills::new(2);
        let mut reference: BTreeMap<u64, PendingFill> = BTreeMap::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        let mut state = 0x5eed_f111_u64;
        let mut lcg = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 16
        };
        for step in 0..30_000 {
            let r = lcg();
            let core = (r % 2) as usize;
            let block = BlockAddr::new((r >> 1) % 24);
            let pending_prefetch = |reference: &BTreeMap<u64, PendingFill>| {
                reference
                    .values()
                    .any(|f| f.core == core && f.block == block && f.is_prefetch)
            };
            match (r >> 8) % 6 {
                0 | 1 => {
                    let is_prefetch = r & 0x4000 != 0 && !pending_prefetch(&reference);
                    let fill = PendingFill {
                        at: now + 1 + (r >> 16) % 200,
                        core,
                        block,
                        is_prefetch,
                        demand_touched: !is_prefetch,
                        fill_l1: true,
                        fill_l2: false,
                        fill_llc: false,
                        target: None,
                    };
                    fills.push(fill);
                    reference.insert(seq, fill);
                    seq += 1;
                }
                2 => {
                    let at = now + 1 + (r >> 16) % 150;
                    let touch = r & 0x4000 != 0;
                    fills.promote_prefetch(core, block, at, touch);
                    for f in reference.values_mut() {
                        if f.core == core && f.block == block && f.is_prefetch {
                            f.demand_touched |= touch;
                            f.at = f.at.min(at);
                        }
                    }
                }
                3 => now += (r >> 16) % 60,
                _ => {
                    now += 1;
                    loop {
                        let due = reference
                            .iter()
                            .filter(|(_, f)| f.at <= now)
                            .min_by_key(|(&s, f)| (f.at, s))
                            .map(|(&s, _)| s);
                        let got = fills.pop_due(now);
                        match due {
                            Some(s) => {
                                let want = reference.remove(&s).expect("due entry");
                                let got = got.expect("a fill is due");
                                assert_eq!(
                                    (got.at, got.core, got.block, got.demand_touched),
                                    (want.at, want.core, want.block, want.demand_touched),
                                    "step {step}"
                                );
                            }
                            None => {
                                assert!(got.is_none(), "step {step}: nothing is due");
                                break;
                            }
                        }
                    }
                    let min = reference.values().map(|f| f.at).min();
                    assert_eq!(fills.next_at, min.unwrap_or(u64::MAX), "step {step}");
                }
            }
            assert_eq!(fills.queue.len(), reference.len(), "step {step}");
        }
    }

    #[test]
    fn stamped_verdicts_match_a_fresh_classification_under_churn() {
        // Deterministic LCG churn on a 2-core hierarchy (so one core's
        // shared-LLC fills and evictions reach the other's verdicts):
        // demand accesses, prefetch issues and clock advances over 3 sets'
        // worth of blocks per level, 3x the LLC's ways, so every level
        // evicts. A pool of queued requests keeps cached verdicts; after
        // every operation each verdict the stamps call current must equal
        // a fresh classification.
        let mut h = MemoryHierarchy::new(SimConfig::paper_multi_core(2));
        let ways = h.llc.ways() as u64;
        let block = |r: u64| BlockAddr::new(((r % (3 * ways)) << 16) + (r / (3 * ways)) % 3);
        let mut state = 0x57a3_9e11_u64;
        let mut lcg = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 16
        };
        let mut pool: Vec<(usize, QueuedPrefetch)> = Vec::new();
        let (mut now, mut added, mut classified) = (0u64, 0u64, 0u64);
        let (mut reused, mut stale) = (0u64, 0u64);
        for step in 0..40_000 {
            let r = lcg();
            let core = (r % 2) as usize;
            let req = {
                let b = block(r >> 4);
                match (r >> 12) % 3 {
                    0 => PrefetchRequest::to_l1(b),
                    1 => PrefetchRequest::to_l2(b),
                    _ => PrefetchRequest::new(b, FillLevel::Llc),
                }
            };
            match (r >> 16) % 8 {
                0..=2 => {
                    h.demand_access(core, req.block, r & 0x8000 != 0, now);
                }
                3 | 4 => {
                    h.issue_prefetch(core, req, now);
                }
                5 => {
                    now += (r >> 20) % 400;
                    h.advance_to(now);
                }
                _ if pool.len() < 96 => {
                    pool.push((core, QueuedPrefetch::new(req)));
                    added += 1;
                }
                _ => {
                    let slot = (r >> 20) as usize % pool.len();
                    pool[slot] = (core, QueuedPrefetch::new(req));
                    added += 1;
                }
            }
            now += (r >> 28) % 4;
            for (core, entry) in &mut pool {
                match entry.classified {
                    Some((seen, verdict)) if h.stamps.unchanged_since(entry.req.block, seen) => {
                        let fresh = h.classify(*core, &entry.req);
                        assert_eq!(verdict, fresh, "step {step}: {:?}", entry.req);
                        reused += 1;
                    }
                    Some(_) => stale += 1,
                    None => {}
                }
                h.verdict(*core, entry, &mut classified);
            }
        }
        assert!(
            h.stamps.counts.iter().all(|&n| n > 0),
            "every change kind occurs: {:?}",
            h.stamps.counts
        );
        let fills = |level: fn(&HierarchyStats) -> u64| (0..2).all(|c| level(&h.stats(c)) > 0);
        assert!(
            fills(|s| s.l1d.prefetch_fills)
                && fills(|s| s.l2c.prefetch_fills)
                && fills(|s| s.llc.prefetch_fills),
            "both cores fill prefetches into every level"
        );
        assert!(
            reused > 10 * stale && stale > 0,
            "{reused} reused, {stale} stale"
        );
        // Only new and stale entries were classified afresh.
        assert_eq!(classified, added + stale);
    }

    #[test]
    fn l2_class_bound_is_the_earliest_live_l2_mshr_expiry() {
        // Core 1's demand misses stage the blocks in the shared LLC, so
        // core 0's L2-targeted prefetches read them from the LLC and
        // complete exactly one L1+L2+LLC path after issue (no DRAM).
        let mut h = MemoryHierarchy::new(SimConfig::paper_multi_core(2));
        let cfg = *h.config();
        let mshrs = cfg.l2c.mshrs as u64;
        let path = cfg.l1d.latency + cfg.l2c.latency + cfg.llc_per_core.latency;
        assert!(
            path >= mshrs,
            "every prefetch below is still live at the last issue"
        );
        let block = |i: u64| BlockAddr::new(0x40_0000 + i);
        for i in 0..=mshrs {
            h.demand_access(1, block(i), false, i);
        }
        let base = 100_000;
        h.advance_to(base);
        for i in 0..mshrs {
            let now = base + i;
            assert_eq!(h.prefetch_class_bounds(0, now).l2, 0, "an L2 MSHR is free");
            let outcome = h.issue_prefetch(0, PrefetchRequest::to_l2(block(i)), now);
            assert_eq!(outcome, PrefetchOutcome::Issued);
            assert_eq!(
                h.l2_pf_inflight[0].get(&block(i).raw()),
                Some(&(now + path))
            );
        }
        let l2 = h.prefetch_class_bounds(0, base + mshrs - 1).l2;
        assert_eq!(l2, base + path, "the first prefetch's completion");
        let fresh = PrefetchRequest::to_l2(block(mshrs));
        assert_eq!(
            h.issue_prefetch(0, fresh, l2 - 1),
            PrefetchOutcome::Refused(Refusal::L2Mshrs)
        );
        assert_eq!(h.prefetch_class_bounds(0, l2 - 1).l2, l2);
        assert_eq!(h.prefetch_class_bounds(0, l2).l2, 0, "one MSHR expired");
        assert_eq!(h.issue_prefetch(0, fresh, l2), PrefetchOutcome::Issued);
    }

    #[test]
    fn multicore_cores_have_private_l1() {
        let mut h = MemoryHierarchy::new(SimConfig::paper_multi_core(2));
        let b = BlockAddr::new(0xb000);
        let r = h.demand_access(0, b, false, 0);
        h.advance_to(r.complete_at);
        // Core 1 does not see core 0's L1/L2 contents but shares the LLC.
        let r1 = h.demand_access(1, b, false, r.complete_at + 1);
        assert!(!r1.l1_hit);
        assert_eq!(r1.served_by, HitLevel::Llc);
    }
}
