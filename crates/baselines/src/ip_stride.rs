//! IP-stride: the widely deployed commercial per-instruction stride
//! prefetcher (Intel "smart memory access" style).
//!
//! Each load instruction (PC) tracks its last accessed block and last stride;
//! when the same stride repeats, confidence grows and the prefetcher issues a
//! few blocks down the stride. It is cheap and very accurate on strided code
//! but covers nothing else.

use prefetch_common::access::DemandAccess;
use prefetch_common::addr::BlockAddr;
use prefetch_common::prefetcher::{Prefetcher, PrefetcherStats};
use prefetch_common::request::PrefetchRequest;
use prefetch_common::sink::RequestSink;
use prefetch_common::table::{SetAssocTable, TableConfig};

#[derive(Debug, Clone, Copy)]
struct IpEntry {
    last_block: BlockAddr,
    stride: i64,
    confidence: u8,
}

/// Configuration of [`IpStride`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IpStrideConfig {
    /// Number of tracked instruction pointers.
    pub entries: usize,
    /// Associativity of the IP table.
    pub ways: usize,
    /// Confidence (0–3) required before prefetching.
    pub threshold: u8,
    /// Number of blocks prefetched ahead once confident.
    pub degree: usize,
}

impl Default for IpStrideConfig {
    fn default() -> Self {
        IpStrideConfig {
            entries: 64,
            ways: 4,
            threshold: 2,
            degree: 3,
        }
    }
}

/// The IP-stride prefetcher.
#[derive(Debug)]
pub struct IpStride {
    cfg: IpStrideConfig,
    table: SetAssocTable<IpEntry>,
    stats: PrefetcherStats,
}

impl IpStride {
    /// Creates an IP-stride prefetcher with the default 64-entry table.
    pub fn new() -> Self {
        Self::with_config(IpStrideConfig::default())
    }

    /// Creates an IP-stride prefetcher with an explicit configuration.
    pub fn with_config(cfg: IpStrideConfig) -> Self {
        IpStride {
            table: SetAssocTable::new(TableConfig::new((cfg.entries / cfg.ways).max(1), cfg.ways)),
            stats: PrefetcherStats::default(),
            cfg,
        }
    }
}

impl Default for IpStride {
    fn default() -> Self {
        Self::new()
    }
}

impl Prefetcher for IpStride {
    fn name(&self) -> &str {
        "ip-stride"
    }

    fn on_access(&mut self, access: &DemandAccess, _cache_hit: bool, sink: &mut RequestSink) {
        if !access.kind.is_load() {
            return;
        }
        self.stats.accesses += 1;
        let block = access.block();
        let pc = access.pc;
        match self.table.get_mut(pc, pc) {
            Some(entry) => {
                let stride = block.delta_from(entry.last_block);
                if stride == 0 {
                    return;
                }
                if stride == entry.stride {
                    entry.confidence = (entry.confidence + 1).min(3);
                } else {
                    entry.confidence = entry.confidence.saturating_sub(1);
                    if entry.confidence == 0 {
                        entry.stride = stride;
                    }
                }
                entry.last_block = block;
                if entry.confidence >= self.cfg.threshold && entry.stride != 0 {
                    let s = entry.stride;
                    for i in 1..=self.cfg.degree as i64 {
                        if let Some(target) = block.checked_add_signed(s * i) {
                            sink.push(PrefetchRequest::to_l1(target));
                            self.stats.issued += 1;
                        }
                    }
                }
            }
            None => {
                self.table.insert(
                    pc,
                    pc,
                    IpEntry {
                        last_block: block,
                        stride: 0,
                        confidence: 0,
                    },
                );
            }
        }
    }

    fn storage_bits(&self) -> u64 {
        // PC tag (16b hashed) + last block (36b) + stride (7b) + confidence (2b) + LRU (2b).
        self.cfg.entries as u64 * (16 + 36 + 7 + 2 + 2)
    }

    fn stats(&self) -> PrefetcherStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prefetch_common::prefetcher::PrefetcherExt;

    fn run(p: &mut IpStride, pc: u64, blocks: &[u64]) -> Vec<PrefetchRequest> {
        let mut out = Vec::new();
        for &b in blocks {
            out.extend(p.on_access_vec(&DemandAccess::load(pc, b * 64), false));
        }
        out
    }

    #[test]
    fn constant_stride_is_learned_and_prefetched() {
        let mut p = IpStride::new();
        let reqs = run(&mut p, 0x400, &[10, 12, 14, 16, 18]);
        assert!(!reqs.is_empty());
        // After confidence builds, each access prefetches stride-2 blocks ahead.
        let last = &reqs[reqs.len() - 3..];
        assert_eq!(last[0].block.raw(), 20);
        assert_eq!(last[1].block.raw(), 22);
        assert_eq!(last[2].block.raw(), 24);
    }

    #[test]
    fn irregular_accesses_do_not_prefetch() {
        let mut p = IpStride::new();
        let reqs = run(&mut p, 0x400, &[10, 100, 3, 77, 912, 5]);
        assert!(reqs.is_empty());
    }

    #[test]
    fn stride_change_requires_relearning() {
        let mut p = IpStride::new();
        run(&mut p, 0x400, &[0, 1, 2, 3, 4]);
        // Switch from stride 1 to stride 10: confidence decays, then the new
        // stride is learned and prefetched.
        run(&mut p, 0x400, &[100, 110, 120, 130, 140, 150, 160]);
        let retrained = run(&mut p, 0x400, &[170]);
        assert_eq!(retrained.len(), 3);
        assert_eq!(retrained[0].block.raw(), 180);
        assert_eq!(retrained[2].block.raw(), 200);
    }

    #[test]
    fn different_pcs_are_tracked_independently() {
        let mut p = IpStride::new();
        run(&mut p, 0x400, &[0, 2, 4, 6]);
        // A different PC has no history yet.
        let other = run(&mut p, 0x500, &[1000]);
        assert!(other.is_empty());
        // The original PC is still confident.
        let orig = run(&mut p, 0x400, &[8]);
        assert_eq!(orig.len(), 3);
    }

    #[test]
    fn storage_is_sub_kilobyte() {
        let p = IpStride::new();
        assert!(
            p.storage_bits() / 8 < 1024,
            "IP-stride must stay well under 1 KB"
        );
    }

    #[test]
    fn stores_ignored() {
        let mut p = IpStride::new();
        assert!(p
            .on_access_vec(&DemandAccess::store(0x1, 0), false)
            .is_empty());
        assert_eq!(p.stats().accesses, 0);
    }
}
