//! Simulator configuration mirroring Table II of the paper.

use crate::params::Fnv1a;

/// Configuration of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Cache-line size in bytes.
    pub line_size: u64,
    /// Associativity (ways).
    pub ways: usize,
    /// Access (hit) latency in core cycles.
    pub latency: u64,
    /// Number of miss-status holding registers.
    pub mshrs: usize,
}

impl CacheConfig {
    /// Number of sets implied by the size, line size and associativity.
    ///
    /// # Panics
    ///
    /// Panics if the parameters do not describe a valid power-of-two set
    /// count.
    pub fn sets(&self) -> usize {
        let sets = (self.size_bytes / self.line_size) as usize / self.ways;
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "cache sets must be a power of two, got {sets}"
        );
        sets
    }

    fn fingerprint_into(&self, h: &mut Fnv1a) {
        h.mix(self.size_bytes);
        h.mix(self.line_size);
        h.mix(self.ways as u64);
        h.mix(self.latency);
        h.mix(self.mshrs as u64);
    }

    /// Returns a copy resized to `size_bytes`, minimally growing the
    /// associativity when the implied set count would not be a power of
    /// two — the same trick Table II's 48 KB / 12-way L1D uses: the odd
    /// factor of the block count moves into the ways, keeping the
    /// capacity exact and the set count a power of two. Sizes that
    /// already divide evenly keep their associativity (and therefore
    /// their fingerprint) unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `size_bytes` is not a whole number of cache lines (a
    /// fractional size would silently realize less capacity than the
    /// fingerprint hashes) or holds fewer blocks than the current
    /// associativity.
    pub fn resized(mut self, size_bytes: u64) -> Self {
        self.size_bytes = size_bytes;
        assert!(
            size_bytes.is_multiple_of(self.line_size),
            "cache size {size_bytes} is not a whole number of {}-byte lines",
            self.line_size
        );
        let blocks = (size_bytes / self.line_size) as usize;
        assert!(
            blocks >= self.ways,
            "cache of {size_bytes} bytes holds fewer than {} blocks",
            self.ways
        );
        if blocks.is_multiple_of(self.ways) && (blocks / self.ways).is_power_of_two() {
            return self;
        }
        let odd = blocks >> blocks.trailing_zeros();
        let mut ways = odd;
        while ways < self.ways {
            ways *= 2;
        }
        self.ways = ways;
        self
    }

    /// Paper L1D: 48 KB, 12-way, 5-cycle, 16 MSHRs.
    pub fn paper_l1d() -> Self {
        CacheConfig {
            size_bytes: 48 * 1024,
            line_size: 64,
            ways: 12,
            latency: 5,
            mshrs: 16,
        }
    }

    /// Paper L2C: 512 KB, 8-way, 10-cycle, 32 MSHRs.
    pub fn paper_l2c() -> Self {
        CacheConfig {
            size_bytes: 512 * 1024,
            line_size: 64,
            ways: 8,
            latency: 10,
            mshrs: 32,
        }
    }

    /// Paper LLC: 2 MB per core, 16-way, 20-cycle, 64 MSHRs.
    pub fn paper_llc_per_core() -> Self {
        CacheConfig {
            size_bytes: 2 * 1024 * 1024,
            line_size: 64,
            ways: 16,
            latency: 20,
            mshrs: 64,
        }
    }
}

/// DRAM configuration (DDR4-like, Table II).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Number of channels.
    pub channels: usize,
    /// Ranks per channel.
    pub ranks_per_channel: usize,
    /// Banks per rank.
    pub banks_per_rank: usize,
    /// Transfer rate in mega-transfers per second.
    pub mtps: u64,
    /// Data-bus width in bits.
    pub bus_width_bits: u64,
    /// Row-buffer size per bank in bytes.
    pub row_buffer_bytes: u64,
    /// tRP = tRCD = tCAS in nanoseconds (12.5 ns in the paper).
    pub trp_trcd_tcas_ns: f64,
    /// Core clock frequency in GHz (4 GHz in the paper), used to convert
    /// DRAM timings to core cycles.
    pub core_ghz: f64,
    /// Fixed memory-controller / on-chip-interconnect overhead per request,
    /// in core cycles. This captures the request/response network and
    /// controller queuing outside the DRAM array itself so that total
    /// off-chip latency lands in the 250–350 cycle range ChampSim reports.
    pub controller_overhead_cycles: u64,
}

impl DramConfig {
    fn fingerprint_into(&self, h: &mut Fnv1a) {
        h.mix(self.channels as u64);
        h.mix(self.ranks_per_channel as u64);
        h.mix(self.banks_per_rank as u64);
        h.mix(self.mtps);
        h.mix(self.bus_width_bits);
        h.mix(self.row_buffer_bytes);
        h.mix_f64(self.trp_trcd_tcas_ns);
        h.mix_f64(self.core_ghz);
        h.mix(self.controller_overhead_cycles);
    }

    /// Single-channel configuration used for 1-core runs ("1C" in Table II).
    pub fn paper_single_channel() -> Self {
        DramConfig {
            channels: 1,
            ranks_per_channel: 1,
            banks_per_rank: 8,
            mtps: 3200,
            bus_width_bits: 64,
            row_buffer_bytes: 2048,
            trp_trcd_tcas_ns: 12.5,
            core_ghz: 4.0,
            controller_overhead_cycles: 130,
        }
    }

    /// Channel/rank scaling per core count, as in Table II: 1C: 1ch×1rk,
    /// 2C: 2ch×1rk, 4C: 2ch×2rk, 8C: 4ch×2rk.
    pub fn paper_for_cores(cores: usize) -> Self {
        let mut cfg = Self::paper_single_channel();
        match cores {
            0 | 1 => {}
            2 => cfg.channels = 2,
            3 | 4 => {
                cfg.channels = 2;
                cfg.ranks_per_channel = 2;
            }
            _ => {
                cfg.channels = 4;
                cfg.ranks_per_channel = 2;
            }
        }
        cfg
    }

    /// tRP/tRCD/tCAS in core cycles.
    pub fn timing_cycles(&self) -> u64 {
        (self.trp_trcd_tcas_ns * self.core_ghz).round() as u64
    }

    /// Core cycles the channel data bus is occupied transferring one line.
    pub fn line_transfer_cycles(&self, line_size: u64) -> u64 {
        let bytes_per_transfer = self.bus_width_bits / 8;
        let transfers = line_size.div_ceil(bytes_per_transfer);
        // One transfer every 1/MTPS microseconds; core runs at core_ghz GHz.
        let cycles_per_transfer = self.core_ghz * 1000.0 / self.mtps as f64;
        (transfers as f64 * cycles_per_transfer).ceil() as u64
    }

    /// Total banks across all channels and ranks.
    pub fn total_banks(&self) -> usize {
        self.channels * self.ranks_per_channel * self.banks_per_rank
    }
}

/// Out-of-order core configuration (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Fetch/dispatch/retire width.
    pub width: usize,
    /// Reorder-buffer entries.
    pub rob_entries: usize,
    /// Load-queue entries.
    pub load_queue: usize,
    /// Store-queue entries.
    pub store_queue: usize,
}

impl CoreConfig {
    fn fingerprint_into(&self, h: &mut Fnv1a) {
        h.mix(self.width as u64);
        h.mix(self.rob_entries as u64);
        h.mix(self.load_queue as u64);
        h.mix(self.store_queue as u64);
    }

    /// Paper core: 4-wide OoO, 352-entry ROB, 128/72-entry LQ/SQ.
    pub fn paper_default() -> Self {
        CoreConfig {
            width: 4,
            rob_entries: 352,
            load_queue: 128,
            store_queue: 72,
        }
    }
}

/// Complete system configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Number of cores.
    pub cores: usize,
    /// Core microarchitecture.
    pub core: CoreConfig,
    /// Per-core L1 data cache.
    pub l1d: CacheConfig,
    /// Per-core L2 cache.
    pub l2c: CacheConfig,
    /// Shared last-level cache capacity *per core* (total = per-core × cores).
    pub llc_per_core: CacheConfig,
    /// DRAM subsystem.
    pub dram: DramConfig,
    /// Prefetch-queue entries per core.
    pub prefetch_queue: usize,
    /// Maximum prefetches issued from the queue per cycle.
    pub prefetch_issue_width: usize,
}

impl SimConfig {
    /// The paper's single-core configuration (Table II).
    pub fn paper_single_core() -> Self {
        SimConfig {
            cores: 1,
            core: CoreConfig::paper_default(),
            l1d: CacheConfig::paper_l1d(),
            l2c: CacheConfig::paper_l2c(),
            llc_per_core: CacheConfig::paper_llc_per_core(),
            dram: DramConfig::paper_single_channel(),
            // The prefetch queue stands in for the region-granular prefetch
            // buffers every evaluated spatial prefetcher provisions (32
            // regions x 64 blocks), so it is sized in blocks accordingly.
            prefetch_queue: 256,
            prefetch_issue_width: 4,
        }
    }

    /// The paper's configuration for `cores` cores (scales LLC and DRAM
    /// channels/ranks as in Table II).
    pub fn paper_multi_core(cores: usize) -> Self {
        assert!(
            (1..=16).contains(&cores),
            "supported core counts are 1..=16"
        );
        let mut cfg = Self::paper_single_core();
        cfg.cores = cores;
        cfg.dram = DramConfig::paper_for_cores(cores);
        cfg
    }

    /// Returns a copy with a different LLC capacity per core, in megabytes
    /// (Fig. 16b sweep). Fractional sizes (0.5 MB) are supported.
    pub fn with_llc_mb_per_core(mut self, mb: f64) -> Self {
        self.llc_per_core = self.llc_per_core.resized((mb * 1024.0 * 1024.0) as u64);
        self
    }

    /// Returns a copy with a different L2 capacity per core, in kilobytes
    /// (Fig. 16c sweep). Sizes whose block count is not
    /// associativity × power-of-two (the paper's 1536 KB point) get a
    /// minimally larger associativity via [`CacheConfig::resized`].
    pub fn with_l2_kb(mut self, kb: u64) -> Self {
        self.l2c = self.l2c.resized(kb * 1024);
        self
    }

    /// Returns a copy with a different DRAM transfer rate in MT/s
    /// (Fig. 16a sweep).
    pub fn with_dram_mtps(mut self, mtps: u64) -> Self {
        self.dram.mtps = mtps;
        self
    }

    /// Folds every configuration field into an FNV-1a hash (see
    /// [`RunParams::fingerprint`](crate::params::RunParams::fingerprint),
    /// which keys the experiment engine's shared baselines and the
    /// persistent results store on it).
    pub fn fingerprint_into(&self, h: &mut Fnv1a) {
        h.mix(self.cores as u64);
        self.core.fingerprint_into(h);
        self.l1d.fingerprint_into(h);
        self.l2c.fingerprint_into(h);
        self.llc_per_core.fingerprint_into(h);
        self.dram.fingerprint_into(h);
        h.mix(self.prefetch_queue as u64);
        h.mix(self.prefetch_issue_width as u64);
    }

    /// Stable FNV-1a fingerprint of the full configuration.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        self.fingerprint_into(&mut h);
        h.finish()
    }

    /// Total LLC capacity across all cores.
    pub fn llc_total(&self) -> CacheConfig {
        let mut llc = self.llc_per_core;
        llc.size_bytes *= self.cores as u64;
        // Keep associativity fixed and grow the set count with capacity.
        llc
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::paper_single_core()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_l1d_matches_table_ii() {
        let l1d = CacheConfig::paper_l1d();
        assert_eq!(l1d.size_bytes, 48 * 1024);
        assert_eq!(l1d.ways, 12);
        assert_eq!(l1d.latency, 5);
        assert_eq!(l1d.mshrs, 16);
        assert_eq!(l1d.sets(), 64);
    }

    #[test]
    fn paper_l2_and_llc_set_counts() {
        assert_eq!(CacheConfig::paper_l2c().sets(), 1024);
        assert_eq!(CacheConfig::paper_llc_per_core().sets(), 2048);
    }

    #[test]
    fn dram_timing_conversion() {
        let d = DramConfig::paper_single_channel();
        assert_eq!(d.timing_cycles(), 50); // 12.5ns at 4GHz
        assert_eq!(d.line_transfer_cycles(64), 10); // 8 transfers * 1.25 cycles
        assert_eq!(d.total_banks(), 8);
    }

    #[test]
    fn dram_scales_with_core_count() {
        assert_eq!(DramConfig::paper_for_cores(1).channels, 1);
        assert_eq!(DramConfig::paper_for_cores(2).channels, 2);
        let four = DramConfig::paper_for_cores(4);
        assert_eq!((four.channels, four.ranks_per_channel), (2, 2));
        let eight = DramConfig::paper_for_cores(8);
        assert_eq!((eight.channels, eight.ranks_per_channel), (4, 2));
    }

    #[test]
    fn config_sweep_helpers() {
        let cfg = SimConfig::paper_single_core()
            .with_llc_mb_per_core(0.5)
            .with_l2_kb(128)
            .with_dram_mtps(800);
        assert_eq!(cfg.llc_per_core.size_bytes, 512 * 1024);
        assert_eq!(cfg.l2c.size_bytes, 128 * 1024);
        assert_eq!(cfg.dram.mtps, 800);
    }

    #[test]
    fn resizing_keeps_sets_a_power_of_two() {
        // Power-of-two friendly sizes keep the paper's 8 ways.
        for kb in [128u64, 256, 512, 1024] {
            let l2 = SimConfig::paper_single_core().with_l2_kb(kb).l2c;
            assert_eq!(l2.ways, 8, "{kb}KB");
            assert!(l2.sets().is_power_of_two());
        }
        // The paper's 1536 KB point (Fig. 16c) has 3×2^13 blocks: the odd
        // factor moves into the associativity (8 -> 12), like the 48 KB /
        // 12-way L1D.
        let l2 = SimConfig::paper_single_core().with_l2_kb(1536).l2c;
        assert_eq!(l2.size_bytes, 1536 * 1024);
        assert_eq!(l2.ways, 12);
        assert_eq!(l2.sets(), 2048);
        // Every Fig. 16 sweep point builds a valid geometry.
        for mb in [0.5f64, 1.0, 2.0, 4.0, 8.0] {
            let llc = SimConfig::paper_single_core()
                .with_llc_mb_per_core(mb)
                .llc_per_core;
            assert!(llc.sets().is_power_of_two());
        }
    }

    #[test]
    fn llc_total_scales_with_cores() {
        let cfg = SimConfig::paper_multi_core(8);
        assert_eq!(cfg.llc_total().size_bytes, 16 * 1024 * 1024);
        assert_eq!(cfg.dram.channels, 4);
    }
}
