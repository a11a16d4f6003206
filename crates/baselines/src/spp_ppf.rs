//! SPP-PPF: the Signature Path Prefetcher (MICRO'16) with Perceptron-based
//! Prefetch Filtering (ISCA'19).
//!
//! SPP compresses the recent delta history of each 4 KB page into a
//! *signature*, looks the signature up in a pattern table that records which
//! delta tends to follow it and with what confidence, and then walks the
//! predicted path ahead ("lookahead"), multiplying confidences as it goes.
//! PPF adds a perceptron that vetoes predicted prefetches whose feature
//! weights (signature, delta, offset) have been associated with useless
//! prefetches in the past.

use prefetch_common::access::DemandAccess;
use prefetch_common::addr::{BlockAddr, RegionGeometry};
use prefetch_common::prefetcher::{Prefetcher, PrefetcherStats};
use prefetch_common::request::PrefetchRequest;
use prefetch_common::sink::RequestSink;
use prefetch_common::table::{SetAssocTable, TableConfig};

/// Configuration of [`SppPpf`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SppConfig {
    /// Signature table entries (per-page signature tracking).
    pub signature_entries: usize,
    /// Pattern table entries (signature -> delta predictions).
    pub pattern_entries: usize,
    /// Delta slots per pattern-table entry.
    pub deltas_per_signature: usize,
    /// Maximum lookahead depth.
    pub max_depth: usize,
    /// Path confidence below which the walk stops.
    pub confidence_threshold: f64,
    /// Path confidence above which fills target the L1 (below: L2).
    pub l1_threshold: f64,
    /// Whether the perceptron filter is active.
    pub use_ppf: bool,
    /// Perceptron weight table size (per feature).
    pub ppf_weights: usize,
}

impl Default for SppConfig {
    fn default() -> Self {
        SppConfig {
            signature_entries: 256,
            pattern_entries: 512,
            deltas_per_signature: 4,
            max_depth: 6,
            confidence_threshold: 0.25,
            l1_threshold: 0.60,
            use_ppf: true,
            ppf_weights: 1024,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct SignatureEntry {
    signature: u16,
    last_offset: usize,
}

#[derive(Debug, Clone)]
struct PatternEntry {
    deltas: Vec<(i64, u32)>,
    total: u32,
}

/// A small perceptron filter over (signature, delta, offset) features.
#[derive(Debug, Clone)]
struct Perceptron {
    weights_sig: Vec<i32>,
    weights_delta: Vec<i32>,
    weights_offset: Vec<i32>,
    threshold: i32,
}

impl Perceptron {
    fn new(size: usize) -> Self {
        Perceptron {
            weights_sig: vec![0; size],
            weights_delta: vec![0; size],
            weights_offset: vec![0; size],
            threshold: -2,
        }
    }

    fn indices(&self, signature: u16, delta: i64, offset: usize) -> (usize, usize, usize) {
        let n = self.weights_sig.len();
        (
            signature as usize % n,
            (delta.unsigned_abs() as usize * 2 + usize::from(delta < 0)) % n,
            offset % n,
        )
    }

    fn score(&self, signature: u16, delta: i64, offset: usize) -> i32 {
        let (a, b, c) = self.indices(signature, delta, offset);
        self.weights_sig[a] + self.weights_delta[b] + self.weights_offset[c]
    }

    fn accepts(&self, signature: u16, delta: i64, offset: usize) -> bool {
        self.score(signature, delta, offset) >= self.threshold
    }

    fn train(&mut self, signature: u16, delta: i64, offset: usize, useful: bool) {
        let (a, b, c) = self.indices(signature, delta, offset);
        let step = if useful { 1 } else { -1 };
        for w in [
            &mut self.weights_sig[a],
            &mut self.weights_delta[b],
            &mut self.weights_offset[c],
        ] {
            *w = (*w + step).clamp(-16, 15);
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct IssuedMeta {
    signature: u16,
    delta: i64,
    offset: usize,
}

/// The SPP-PPF prefetcher.
#[derive(Debug)]
pub struct SppPpf {
    cfg: SppConfig,
    geom: RegionGeometry,
    signatures: SetAssocTable<SignatureEntry>,
    patterns: SetAssocTable<PatternEntry>,
    perceptron: Perceptron,
    /// Issued-prefetch metadata keyed by block (the PPF training lookups run
    /// on every access, so this must not be a linear scan). Each block keeps
    /// a bucket of metas: re-predictions of the same block each train the
    /// perceptron once, exactly like the original flat list did.
    issued: std::collections::HashMap<u64, Vec<IssuedMeta>>,
    issued_len: usize,
    stats: PrefetcherStats,
}

impl SppPpf {
    /// Creates an SPP-PPF prefetcher with the default configuration.
    pub fn new() -> Self {
        Self::with_config(SppConfig::default())
    }

    /// Creates an SPP prefetcher *without* the perceptron filter.
    pub fn without_filter() -> Self {
        Self::with_config(SppConfig {
            use_ppf: false,
            ..SppConfig::default()
        })
    }

    /// Creates an SPP-PPF prefetcher from an explicit configuration.
    pub fn with_config(cfg: SppConfig) -> Self {
        SppPpf {
            geom: RegionGeometry::gaze_default(),
            signatures: SetAssocTable::new(TableConfig::new((cfg.signature_entries / 4).max(1), 4)),
            patterns: SetAssocTable::new(TableConfig::new((cfg.pattern_entries / 4).max(1), 4)),
            perceptron: Perceptron::new(cfg.ppf_weights),
            issued: std::collections::HashMap::new(),
            issued_len: 0,
            stats: PrefetcherStats::default(),
            cfg,
        }
    }

    fn update_signature(signature: u16, delta: i64) -> u16 {
        ((signature << 3) ^ (delta as u16 & 0x3f)) & 0xfff
    }

    fn take_issued(&mut self, block: u64) -> Option<IssuedMeta> {
        let bucket = self.issued.get_mut(&block)?;
        let meta = bucket.pop().expect("issued buckets are never left empty");
        if bucket.is_empty() {
            self.issued.remove(&block);
        }
        self.issued_len -= 1;
        Some(meta)
    }

    fn train_pattern(&mut self, signature: u16, delta: i64) {
        let key = u64::from(signature);
        match self.patterns.get_mut(key, key) {
            Some(p) => {
                p.total += 1;
                match p.deltas.iter_mut().find(|(d, _)| *d == delta) {
                    Some((_, count)) => *count += 1,
                    None => {
                        if p.deltas.len() < self.cfg.deltas_per_signature {
                            p.deltas.push((delta, 1));
                        } else if let Some(weakest) =
                            p.deltas.iter_mut().min_by_key(|(_, count)| *count)
                        {
                            if weakest.1 <= 1 {
                                *weakest = (delta, 1);
                            }
                        }
                    }
                }
                if p.total > 256 {
                    p.total /= 2;
                    for (_, c) in &mut p.deltas {
                        *c /= 2;
                    }
                }
            }
            None => {
                self.patterns.insert(
                    key,
                    key,
                    PatternEntry {
                        deltas: vec![(delta, 1)],
                        total: 1,
                    },
                );
            }
        }
    }
}

impl Default for SppPpf {
    fn default() -> Self {
        Self::new()
    }
}

impl Prefetcher for SppPpf {
    fn name(&self) -> &str {
        if self.cfg.use_ppf {
            "spp-ppf"
        } else {
            "spp"
        }
    }

    fn on_access(&mut self, access: &DemandAccess, _cache_hit: bool, sink: &mut RequestSink) {
        if !access.kind.is_load() {
            return;
        }
        self.stats.accesses += 1;
        let block = access.block();
        let page = self.geom.region_of(access.addr).raw();
        let offset = self.geom.offset_of(access.addr);

        // Positive PPF training: a demanded block we prefetched was useful.
        if let Some(meta) = self.take_issued(block.raw()) {
            self.perceptron
                .train(meta.signature, meta.delta, meta.offset, true);
        }

        let (signature, delta) = match self.signatures.get_mut(page, page) {
            Some(entry) => {
                let delta = offset as i64 - entry.last_offset as i64;
                if delta == 0 {
                    return;
                }
                let old = entry.signature;
                entry.signature = Self::update_signature(old, delta);
                entry.last_offset = offset;
                (old, delta)
            }
            None => {
                self.signatures.insert(
                    page,
                    page,
                    SignatureEntry {
                        signature: 0,
                        last_offset: offset,
                    },
                );
                return;
            }
        };
        self.train_pattern(signature, delta);

        // Lookahead walk from the *current* signature.
        let mut issued_now = 0u64;
        let mut sig = Self::update_signature(signature, delta);
        let mut current = block;
        let mut confidence = 1.0f64;
        for _ in 0..self.cfg.max_depth {
            let key = u64::from(sig);
            let Some(p) = self.patterns.get(key, key) else {
                break;
            };
            if p.total == 0 || p.deltas.is_empty() {
                break;
            }
            let Some(&(best_delta, best_count)) = p.deltas.iter().max_by_key(|(_, c)| *c) else {
                break;
            };
            confidence *= f64::from(best_count) / f64::from(p.total.max(1));
            if confidence < self.cfg.confidence_threshold || best_delta == 0 {
                break;
            }
            let Some(next) = current.checked_add_signed(best_delta) else {
                break;
            };
            current = next;
            let target_offset = (offset as i64 + current.delta_from(block)).rem_euclid(64) as usize;
            let accepted =
                !self.cfg.use_ppf || self.perceptron.accepts(sig, best_delta, target_offset);
            if accepted {
                let req = if confidence >= self.cfg.l1_threshold {
                    PrefetchRequest::to_l1(current)
                } else {
                    PrefetchRequest::to_l2(current)
                };
                sink.push(req);
                issued_now += 1;
                if self.issued_len < 8192 {
                    self.issued
                        .entry(current.raw())
                        .or_default()
                        .push(IssuedMeta {
                            signature: sig,
                            delta: best_delta,
                            offset: target_offset,
                        });
                    self.issued_len += 1;
                }
            }
            sig = Self::update_signature(sig, best_delta);
        }
        self.stats.issued += issued_now;
    }

    fn on_evict(&mut self, block: BlockAddr) {
        // Negative PPF training: an issued prefetch was evicted without use.
        if let Some(meta) = self.take_issued(block.raw()) {
            self.perceptron
                .train(meta.signature, meta.delta, meta.offset, false);
        }
    }

    fn storage_bits(&self) -> u64 {
        // Table IV reports 39.3 KB for the full SPP-PPF configuration.
        let st = self.cfg.signature_entries as u64 * (16 + 12 + 6);
        let pt = self.cfg.pattern_entries as u64
            * (12 + self.cfg.deltas_per_signature as u64 * (7 + 8) + 8);
        let ppf = if self.cfg.use_ppf {
            3 * self.cfg.ppf_weights as u64 * 5
        } else {
            0
        };
        // Plus the large prefetch/reject history tables PPF requires.
        let ppf_history = if self.cfg.use_ppf { 2 * 1024 * 40 } else { 0 };
        st + pt + ppf + ppf_history
    }

    fn stats(&self) -> PrefetcherStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prefetch_common::prefetcher::PrefetcherExt;

    fn run(p: &mut SppPpf, pc: u64, addrs: &[u64]) -> Vec<PrefetchRequest> {
        let mut out = Vec::new();
        for &a in addrs {
            out.extend(p.on_access_vec(&DemandAccess::load(pc, a), false));
        }
        out
    }

    #[test]
    fn steady_stride_is_predicted_with_lookahead() {
        let mut p = SppPpf::new();
        let addrs: Vec<u64> = (0..200u64).map(|i| 0x10_0000 + i * 128).collect();
        let reqs = run(&mut p, 0x400, &addrs);
        assert!(!reqs.is_empty());
        // Lookahead should reach more than one delta ahead of the last demand.
        let max = reqs.iter().map(|r| r.block.raw()).max().unwrap();
        let last_demand = (0x10_0000 + 199 * 128) / 64;
        assert!(
            max >= last_demand + 4,
            "lookahead should run ahead (max {max}, demand {last_demand})"
        );
    }

    #[test]
    fn random_accesses_produce_little() {
        let mut p = SppPpf::new();
        let mut state = 7u64;
        let addrs: Vec<u64> = (0..300)
            .map(|_| {
                state = state
                    .wrapping_mul(2862933555777941757)
                    .wrapping_add(3037000493);
                (state >> 10) % (64 * 1024 * 1024)
            })
            .collect();
        let reqs = run(&mut p, 0x400, &addrs);
        assert!(
            (reqs.len() as f64) < addrs.len() as f64 * 0.5,
            "random traffic should not trigger confident paths ({} reqs)",
            reqs.len()
        );
    }

    #[test]
    fn ppf_suppresses_repeatedly_useless_prefetches() {
        let mut filtered = SppPpf::new();
        let mut unfiltered = SppPpf::without_filter();
        // Train a stride, then keep evicting every issued prefetch unused so
        // the perceptron learns to reject this context.
        for round in 0..30u64 {
            let base = 0x20_0000 + round * 64 * 64;
            let addrs: Vec<u64> = (0..32u64).map(|i| base + i * 128).collect();
            let reqs_f = run(&mut filtered, 0x400, &addrs);
            let reqs_u = run(&mut unfiltered, 0x400, &addrs);
            for r in &reqs_f {
                filtered.on_evict(r.block);
            }
            for r in &reqs_u {
                unfiltered.on_evict(r.block);
            }
        }
        let test_addrs: Vec<u64> = (0..32u64).map(|i| 0x90_0000 + i * 128).collect();
        let final_f = run(&mut filtered, 0x400, &test_addrs);
        let final_u = run(&mut unfiltered, 0x400, &test_addrs);
        assert!(
            final_f.len() < final_u.len(),
            "the perceptron filter should reject prefetches that were always useless ({} vs {})",
            final_f.len(),
            final_u.len()
        );
    }

    #[test]
    fn storage_is_tens_of_kilobytes_with_ppf() {
        let p = SppPpf::new();
        let kb = p.storage_bits() as f64 / 8.0 / 1024.0;
        assert!(
            kb > 10.0 && kb < 60.0,
            "SPP-PPF storage should be tens of KB, got {kb:.2}"
        );
        let bare = SppPpf::without_filter();
        assert!(bare.storage_bits() < p.storage_bits());
    }
}
