//! IPCP — Instruction Pointer Classifier-based Prefetching (ISCA'20).
//!
//! IPCP classifies each load IP into one of three classes and prefetches with
//! a class-specific engine:
//!
//! * **CS** (constant stride): the IP repeats a fixed block stride,
//! * **CPLX** (complex stride): the IP's stride sequence is irregular but
//!   predictable from a signature of recent strides,
//! * **GS** (global stream): the IP participates in a dense region-sized
//!   stream, detected from recent region density.
//!
//! The bouquet is evaluated at the L1D (`IPCP-L1` in the paper's figures).

use prefetch_common::access::DemandAccess;
use prefetch_common::addr::{BlockAddr, RegionGeometry};
use prefetch_common::prefetcher::{Prefetcher, PrefetcherStats};
use prefetch_common::request::PrefetchRequest;
use prefetch_common::sink::RequestSink;
use prefetch_common::table::{SetAssocTable, TableConfig};

/// Configuration of [`Ipcp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IpcpConfig {
    /// IP table entries (64, Table IV).
    pub ip_entries: usize,
    /// Complex-stride prediction table entries (128, Table IV).
    pub cspt_entries: usize,
    /// Region-stream tracker entries (8, Table IV).
    pub rst_entries: usize,
    /// Prefetch degree for the constant-stride class.
    pub cs_degree: usize,
    /// Prefetch degree for the global-stream class.
    pub gs_degree: usize,
    /// Region density (demanded blocks) that flips a region to "stream".
    pub stream_threshold: usize,
}

impl Default for IpcpConfig {
    fn default() -> Self {
        IpcpConfig {
            ip_entries: 64,
            cspt_entries: 128,
            rst_entries: 8,
            cs_degree: 4,
            gs_degree: 8,
            stream_threshold: 12,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct IpEntry {
    last_block: BlockAddr,
    last_stride: i64,
    cs_confidence: u8,
    stride_signature: u16,
    stream_confidence: u8,
}

#[derive(Debug, Clone, Copy)]
struct CsptEntry {
    stride: i64,
    confidence: u8,
}

#[derive(Debug, Clone, Copy)]
struct RegionEntry {
    touched: u32,
}

/// The IPCP-L1 prefetcher.
#[derive(Debug)]
pub struct Ipcp {
    cfg: IpcpConfig,
    geom: RegionGeometry,
    ip_table: SetAssocTable<IpEntry>,
    cspt: SetAssocTable<CsptEntry>,
    rst: SetAssocTable<RegionEntry>,
    stats: PrefetcherStats,
}

impl Ipcp {
    /// Creates an IPCP prefetcher with the Table IV configuration.
    pub fn new() -> Self {
        Self::with_config(IpcpConfig::default())
    }

    /// Creates an IPCP prefetcher from an explicit configuration.
    pub fn with_config(cfg: IpcpConfig) -> Self {
        Ipcp {
            geom: RegionGeometry::gaze_default(),
            ip_table: SetAssocTable::new(TableConfig::new((cfg.ip_entries / 4).max(1), 4)),
            cspt: SetAssocTable::new(TableConfig::new(cfg.cspt_entries.next_power_of_two(), 1)),
            rst: SetAssocTable::new(TableConfig::fully_associative(cfg.rst_entries)),
            stats: PrefetcherStats::default(),
            cfg,
        }
    }

    fn signature_update(sig: u16, stride: i64) -> u16 {
        ((sig << 3) ^ (stride as u16 & 0x3f)) & 0x7f
    }
}

impl Default for Ipcp {
    fn default() -> Self {
        Self::new()
    }
}

impl Prefetcher for Ipcp {
    fn name(&self) -> &str {
        "ipcp-l1"
    }

    fn on_access(&mut self, access: &DemandAccess, _cache_hit: bool, sink: &mut RequestSink) {
        if !access.kind.is_load() {
            return;
        }
        self.stats.accesses += 1;
        let block = access.block();
        let pc = access.pc;
        let region = self.geom.region_of(access.addr).raw();
        let mut issued = 0u64;

        // Region-stream tracking (GS class).
        let stream_hot = {
            match self.rst.get_mut(region, region) {
                Some(r) => {
                    r.touched += 1;
                    r.touched as usize >= self.cfg.stream_threshold
                }
                None => {
                    self.rst.insert(region, region, RegionEntry { touched: 1 });
                    false
                }
            }
        };

        let entry = match self.ip_table.get_mut(pc, pc) {
            Some(e) => e,
            None => {
                self.ip_table.insert(
                    pc,
                    pc,
                    IpEntry {
                        last_block: block,
                        last_stride: 0,
                        cs_confidence: 0,
                        stride_signature: 0,
                        stream_confidence: 0,
                    },
                );
                return;
            }
        };

        let stride = block.delta_from(entry.last_block);
        if stride == 0 {
            return;
        }

        // Constant-stride classification.
        if stride == entry.last_stride {
            entry.cs_confidence = (entry.cs_confidence + 1).min(3);
        } else {
            entry.cs_confidence = entry.cs_confidence.saturating_sub(1);
        }
        // Stream classification.
        if stream_hot {
            entry.stream_confidence = (entry.stream_confidence + 1).min(3);
        } else {
            entry.stream_confidence = entry.stream_confidence.saturating_sub(1);
        }

        let old_signature = entry.stride_signature;
        entry.stride_signature = Self::signature_update(old_signature, stride);
        let cs_confident = entry.cs_confidence >= 2;
        let gs_confident = entry.stream_confidence >= 2;
        let last_stride = stride;
        entry.last_stride = stride;
        entry.last_block = block;
        let signature = entry.stride_signature;

        // Train the complex-stride table: old signature predicts this stride.
        match self
            .cspt
            .get_mut(u64::from(old_signature), u64::from(old_signature))
        {
            Some(c) => {
                if c.stride == stride {
                    c.confidence = (c.confidence + 1).min(3);
                } else {
                    c.confidence = c.confidence.saturating_sub(1);
                    if c.confidence == 0 {
                        c.stride = stride;
                    }
                }
            }
            None => {
                self.cspt.insert(
                    u64::from(old_signature),
                    u64::from(old_signature),
                    CsptEntry {
                        stride,
                        confidence: 1,
                    },
                );
            }
        }

        if gs_confident {
            // Global stream: aggressive next-line run.
            for i in 1..=self.cfg.gs_degree as i64 {
                if let Some(target) = block.checked_add_signed(i) {
                    sink.push(PrefetchRequest::to_l1(target));
                    issued += 1;
                }
            }
        } else if cs_confident {
            for i in 1..=self.cfg.cs_degree as i64 {
                if let Some(target) = block.checked_add_signed(last_stride * i) {
                    sink.push(PrefetchRequest::to_l1(target));
                    issued += 1;
                }
            }
        } else {
            // Complex stride: follow the signature chain for a couple of steps.
            let mut sig = signature;
            let mut current = block;
            for _ in 0..2 {
                let Some(c) = self.cspt.get(u64::from(sig), u64::from(sig)).copied() else {
                    break;
                };
                if c.confidence < 2 || c.stride == 0 {
                    break;
                }
                let Some(next) = current.checked_add_signed(c.stride) else {
                    break;
                };
                current = next;
                sink.push(PrefetchRequest::to_l1(current));
                issued += 1;
                sig = Self::signature_update(sig, c.stride);
            }
        }
        self.stats.issued += issued;
    }

    fn storage_bits(&self) -> u64 {
        // Table IV lists 0.7 KB total for IPCP.
        let ip = self.cfg.ip_entries as u64 * (16 + 36 + 7 + 2 + 7 + 2 + 2);
        let cspt = self.cfg.cspt_entries as u64 * (7 + 2);
        let rst = self.cfg.rst_entries as u64 * (36 + 6 + 3);
        ip + cspt + rst
    }

    fn stats(&self) -> PrefetcherStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prefetch_common::prefetcher::PrefetcherExt;

    fn run(p: &mut Ipcp, pc: u64, blocks: &[u64]) -> Vec<PrefetchRequest> {
        let mut out = Vec::new();
        for &b in blocks {
            out.extend(p.on_access_vec(&DemandAccess::load(pc, b * 64), false));
        }
        out
    }

    #[test]
    fn constant_stride_class_prefetches_down_the_stride() {
        let mut p = Ipcp::new();
        let reqs = run(&mut p, 0x400, &[100, 103, 106, 109, 112]);
        assert!(!reqs.is_empty());
        let last = &reqs[reqs.len() - 4..];
        assert_eq!(last[0].block.raw(), 115);
        assert_eq!(last[3].block.raw(), 124);
    }

    #[test]
    fn complex_stride_class_follows_recurring_stride_sequences() {
        let mut p = Ipcp::new();
        // Repeating stride pattern +1,+2,+3 — not constant, but signature-predictable.
        let mut blocks = Vec::new();
        let mut b = 1000u64;
        for _ in 0..12 {
            for s in [1u64, 2, 3] {
                b += s;
                blocks.push(b);
            }
        }
        let reqs = run(&mut p, 0x400, &blocks);
        assert!(
            !reqs.is_empty(),
            "complex-stride engine should eventually predict"
        );
    }

    #[test]
    fn dense_region_activates_stream_class() {
        let mut p = Ipcp::new();
        let blocks: Vec<u64> = (0..32u64).collect();
        let reqs = run(&mut p, 0x400, &blocks);
        // Once the region is hot the degree jumps to the GS degree (8).
        let max_batch = reqs.windows(8).any(|w| {
            w.iter()
                .zip(w.iter().skip(1))
                .all(|(a, b)| b.block.raw() == a.block.raw() + 1)
        });
        assert!(
            max_batch,
            "expected an aggressive sequential run of prefetches"
        );
    }

    #[test]
    fn irregular_ip_stays_quiet() {
        let mut p = Ipcp::new();
        let reqs = run(&mut p, 0x400, &[5, 900, 17, 4400, 23, 77000]);
        assert!(
            reqs.len() <= 2,
            "irregular IP should produce almost no prefetches, got {}",
            reqs.len()
        );
    }

    #[test]
    fn storage_is_under_one_kilobyte() {
        let p = Ipcp::new();
        assert!(
            p.storage_bits() / 8 < 1024,
            "IPCP is a sub-KB design (0.7 KB in Table IV)"
        );
    }
}
