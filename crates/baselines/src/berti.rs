//! vBerti — a virtual-address, timeliness-aware local-delta prefetcher
//! (Berti, MICRO'22, with the cross-page "vBerti" enhancement evaluated in
//! the Gaze paper).
//!
//! Berti learns, per load PC, which block *deltas* would have been timely:
//! when a block is demanded, it looks at the recent history of accesses made
//! by the same PC and counts which earlier access was far enough in the past
//! to have hidden the fetch latency. Deltas with high confidence are
//! prefetched into the L1D, lower-confidence deltas into the L2C. The
//! virtual-address variant may cross 4 KB page boundaries, restricted to
//! ±4 pages as in the paper's tuned configuration.

use std::collections::VecDeque;

use prefetch_common::access::DemandAccess;
use prefetch_common::addr::BlockAddr;
use prefetch_common::prefetcher::{Prefetcher, PrefetcherStats};
use prefetch_common::request::PrefetchRequest;
use prefetch_common::sink::RequestSink;
use prefetch_common::table::{SetAssocTable, TableConfig};

/// Configuration of [`Berti`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BertiConfig {
    /// Tracked load PCs.
    pub ip_entries: usize,
    /// Candidate deltas kept per PC.
    pub deltas_per_ip: usize,
    /// Per-PC history window used to derive timely deltas.
    pub history_len: usize,
    /// Accesses between confidence re-evaluations.
    pub round_len: u32,
    /// Confidence (fraction of the round a delta covered) for L1 fills.
    pub l1_confidence: f64,
    /// Confidence for L2 fills.
    pub l2_confidence: f64,
    /// Cross-page limit in 4 KB pages per direction (4 = eight-page window).
    pub page_range: i64,
    /// Number of accesses a delta must reach back to be considered timely
    /// (stands in for the measured fetch latency).
    pub timeliness_depth: usize,
}

impl Default for BertiConfig {
    fn default() -> Self {
        BertiConfig {
            ip_entries: 64,
            deltas_per_ip: 8,
            history_len: 16,
            round_len: 32,
            l1_confidence: 0.60,
            l2_confidence: 0.30,
            page_range: 4,
            timeliness_depth: 4,
        }
    }
}

#[derive(Debug, Clone)]
struct DeltaStat {
    delta: i64,
    hits: u32,
}

#[derive(Debug, Clone)]
struct IpEntry {
    history: VecDeque<BlockAddr>,
    deltas: Vec<DeltaStat>,
    round_accesses: u32,
    best: Vec<(i64, f64)>,
}

/// The vBerti prefetcher.
#[derive(Debug)]
pub struct Berti {
    cfg: BertiConfig,
    table: SetAssocTable<IpEntry>,
    stats: PrefetcherStats,
}

impl Berti {
    /// Creates a vBerti prefetcher with the paper's tuned configuration
    /// (eight-page prefetch range).
    pub fn new() -> Self {
        Self::with_config(BertiConfig::default())
    }

    /// Creates a vBerti prefetcher from an explicit configuration.
    pub fn with_config(cfg: BertiConfig) -> Self {
        Berti {
            table: SetAssocTable::new(TableConfig::new((cfg.ip_entries / 4).max(1), 4)),
            stats: PrefetcherStats::default(),
            cfg,
        }
    }

    fn within_page_range(&self, from: BlockAddr, to: BlockAddr) -> bool {
        let page_from = (from.raw() >> 6) as i64;
        let page_to = (to.raw() >> 6) as i64;
        (page_to - page_from).abs() <= self.cfg.page_range
    }
}

impl Default for Berti {
    fn default() -> Self {
        Self::new()
    }
}

impl Prefetcher for Berti {
    fn name(&self) -> &str {
        "vberti"
    }

    fn on_access(&mut self, access: &DemandAccess, _cache_hit: bool, sink: &mut RequestSink) {
        if !access.kind.is_load() {
            return;
        }
        self.stats.accesses += 1;
        let block = access.block();
        let pc = access.pc;
        let cfg = self.cfg;

        if self.table.peek(pc, pc).is_none() {
            let mut history = VecDeque::with_capacity(cfg.history_len);
            history.push_back(block);
            self.table.insert(
                pc,
                pc,
                IpEntry {
                    history,
                    deltas: Vec::new(),
                    round_accesses: 0,
                    best: Vec::new(),
                },
            );
            return;
        }
        let entry = self.table.get_mut(pc, pc).expect("entry just checked");

        // Learn timely deltas: compare against accesses far enough back in
        // this PC's history that the fetch would have completed in time.
        if entry.history.len() > cfg.timeliness_depth {
            let timely_end = entry.history.len() - cfg.timeliness_depth;
            for i in 0..timely_end {
                let delta = block.delta_from(entry.history[i]);
                if delta == 0 {
                    continue;
                }
                match entry.deltas.iter_mut().find(|d| d.delta == delta) {
                    Some(d) => d.hits += 1,
                    None => {
                        if entry.deltas.len() < cfg.deltas_per_ip {
                            entry.deltas.push(DeltaStat { delta, hits: 1 });
                        }
                    }
                }
            }
        }
        entry.history.push_back(block);
        if entry.history.len() > cfg.history_len {
            entry.history.pop_front();
        }

        // Periodically recompute the confident delta set.
        entry.round_accesses += 1;
        if entry.round_accesses >= cfg.round_len {
            let denom = f64::from(entry.round_accesses);
            entry.best = entry
                .deltas
                .iter()
                .map(|d| (d.delta, f64::from(d.hits) / denom))
                .filter(|(_, c)| *c >= cfg.l2_confidence)
                .collect();
            entry
                .best
                .sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            entry.best.truncate(4);
            entry.deltas.clear();
            entry.round_accesses = 0;
        }

        let best = entry.best.clone();
        let mut issued = 0u64;
        for (delta, confidence) in best {
            let Some(target) = block.checked_add_signed(delta) else {
                continue;
            };
            if !self.within_page_range(block, target) {
                continue;
            }
            let req = if confidence >= cfg.l1_confidence {
                PrefetchRequest::to_l1(target)
            } else {
                PrefetchRequest::to_l2(target)
            };
            sink.push(req);
            issued += 1;
        }
        self.stats.issued += issued;
    }

    fn storage_bits(&self) -> u64 {
        // Table IV reports 2.55 KB for vBerti's tables (excluding the L1D
        // line extensions it needs for latency measurement).
        let per_entry = 16 // PC tag
            + self.cfg.history_len as u64 * 12
            + self.cfg.deltas_per_ip as u64 * (13 + 6)
            + 4 * (13 + 6)
            + 8;
        self.cfg.ip_entries as u64 * per_entry
    }

    fn stats(&self) -> PrefetcherStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prefetch_common::prefetcher::PrefetcherExt;
    use prefetch_common::request::FillLevel;

    fn run(p: &mut Berti, pc: u64, blocks: &[u64]) -> Vec<PrefetchRequest> {
        let mut out = Vec::new();
        for &b in blocks {
            out.extend(p.on_access_vec(&DemandAccess::load(pc, b * 64), false));
        }
        out
    }

    #[test]
    fn streaming_pc_learns_a_timely_delta() {
        let mut p = Berti::new();
        let blocks: Vec<u64> = (0..120u64).collect();
        let reqs = run(&mut p, 0x400, &blocks);
        assert!(
            !reqs.is_empty(),
            "a steady stream must produce prefetches after the first round"
        );
        // The learned deltas reach several blocks ahead (timeliness), not just +1.
        assert!(reqs.iter().any(|r| r.fill_level == FillLevel::L1));
        let ahead = reqs.iter().map(|r| r.block.raw() as i64).max().unwrap();
        assert!(
            ahead > 120,
            "prefetches should run ahead of the demand stream"
        );
    }

    #[test]
    fn irregular_pc_produces_no_confident_deltas() {
        let mut p = Berti::new();
        let mut state = 99u64;
        let blocks: Vec<u64> = (0..150)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 20) % 1_000_000
            })
            .collect();
        let reqs = run(&mut p, 0x400, &blocks);
        assert!(
            reqs.is_empty(),
            "random accesses must not generate confident deltas"
        );
    }

    #[test]
    fn cross_page_prefetches_are_limited_to_the_window() {
        let cfg = BertiConfig {
            page_range: 1,
            ..BertiConfig::default()
        };
        let mut p = Berti::with_config(cfg);
        // Stride of 96 blocks (1.5 pages): after learning, targets 1.5 pages
        // ahead are within a 1-page window only half the time.
        let blocks: Vec<u64> = (0..80u64).map(|i| i * 96).collect();
        let reqs = run(&mut p, 0x400, &blocks);
        // A generous window allows the same workload to prefetch more than
        // the narrow one, which suppresses most of it.
        let mut wide = Berti::new();
        let wide_reqs = run(&mut wide, 0x400, &blocks);
        assert!(wide_reqs.len() >= reqs.len());
    }

    #[test]
    fn confidence_splits_fill_levels() {
        let mut p = Berti::new();
        // Alternate between two strides so one delta has ~50% confidence.
        let mut blocks = Vec::new();
        let mut b = 0u64;
        for i in 0..200 {
            b += if i % 2 == 0 { 1 } else { 3 };
            blocks.push(b);
        }
        let reqs = run(&mut p, 0x400, &blocks);
        assert!(!reqs.is_empty());
        assert!(
            reqs.iter().any(|r| r.fill_level == FillLevel::L2),
            "medium-confidence deltas must fall back to L2 fills"
        );
    }

    #[test]
    fn storage_is_a_few_kilobytes() {
        let p = Berti::new();
        let kb = p.storage_bits() as f64 / 8.0 / 1024.0;
        assert!(
            kb > 1.0 && kb < 4.0,
            "vBerti tables should be a few KB, got {kb:.2}"
        );
    }
}
