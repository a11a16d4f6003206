//! A bank-/channel-aware DRAM timing model.
//!
//! The model captures the three effects that matter for prefetcher
//! evaluation: row-buffer locality (open-row hits are much cheaper than row
//! conflicts), per-bank busy time, and finite channel data-bus bandwidth.
//! Useless prefetch traffic therefore delays later demand requests — the
//! mechanism behind the multi-core degradation of over-aggressive prefetchers
//! in Fig. 14.

use prefetch_common::addr::BlockAddr;

use crate::config::DramConfig;

#[derive(Debug, Clone, Copy)]
struct Bank {
    open_row: Option<u64>,
    busy_until: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Channel {
    /// Next cycle at which a *demand* transfer can start (demands have
    /// priority at the controller and only queue behind other demands).
    demand_bus_free_at: u64,
    /// Next cycle at which any transfer (including prefetches) can start.
    bus_free_at: u64,
}

/// Running DRAM access counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Total line reads serviced.
    pub reads: u64,
    /// Reads that hit an open row.
    pub row_hits: u64,
    /// Reads that required opening a closed row.
    pub row_misses: u64,
    /// Reads that had to close another row first.
    pub row_conflicts: u64,
}

/// DDR-style DRAM with channels, ranks, banks and open-row policy.
#[derive(Debug, Clone)]
pub struct DramModel {
    config: DramConfig,
    channels: Vec<Channel>,
    banks: Vec<Bank>,
    timing: u64,
    transfer: u64,
    stats: DramStats,
}

impl DramModel {
    /// Creates a DRAM model for `config` with a 64 B line size.
    pub fn new(config: DramConfig) -> Self {
        Self::with_line_size(config, 64)
    }

    /// Creates a DRAM model with an explicit line size in bytes.
    pub fn with_line_size(config: DramConfig, line_size: u64) -> Self {
        let banks = vec![
            Bank {
                open_row: None,
                busy_until: 0
            };
            config.total_banks()
        ];
        let channels = vec![Channel::default(); config.channels];
        let timing = config.timing_cycles();
        let transfer = config.line_transfer_cycles(line_size);
        DramModel {
            config,
            channels,
            banks,
            timing,
            transfer,
            stats: DramStats::default(),
        }
    }

    /// The configuration this model was built from.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Access counters.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// The channel `block` maps to: the only part of [`Self::map`] the
    /// prefetch-backlog checks need, without its bank and row divisions.
    fn channel_of(&self, block: BlockAddr) -> usize {
        (block.raw() as usize) % self.config.channels
    }

    fn map(&self, block: BlockAddr) -> (usize, usize, u64) {
        let raw = block.raw();
        let channel = self.channel_of(block);
        let banks_per_channel = self.config.ranks_per_channel * self.config.banks_per_rank;
        let bank_in_channel = ((raw as usize) / self.config.channels) % banks_per_channel;
        let bank = channel * banks_per_channel + bank_in_channel;
        let blocks_per_row = self.config.row_buffer_bytes / 64;
        let row = raw / self.config.channels as u64 / banks_per_channel as u64 / blocks_per_row;
        (channel, bank, row)
    }

    /// Cycles of channel-bus backlog a *prefetch* read may add beyond the
    /// unloaded access latency before the controller refuses it (demand reads
    /// are always accepted). This models a finite controller queue: prefetch
    /// traffic is bounded to what the bus can absorb within this window.
    pub const PREFETCH_BACKLOG_LIMIT: u64 = 600;

    /// Whether a prefetch read for `block` would currently be accepted by the
    /// controller (see [`Self::PREFETCH_BACKLOG_LIMIT`]).
    pub fn accepts_prefetch(&self, block: BlockAddr, now: u64) -> bool {
        let channel_idx = self.channel_of(block);
        let unloaded_completion = now + self.idle_closed_latency();
        self.channels[channel_idx].bus_free_at <= unloaded_completion + Self::PREFETCH_BACKLOG_LIMIT
    }

    /// The earliest arrival cycle at which [`Self::accepts_prefetch`]
    /// holds for `block`, assuming no intervening DRAM traffic. Read-only: used by the simulator's queue-aware cycle
    /// skipping to bound how far the clock may fast-forward while a refused
    /// prefetch waits for the channel backlog to clear.
    pub fn prefetch_accepted_from(&self, block: BlockAddr) -> u64 {
        let channel_idx = self.channel_of(block);
        self.channels[channel_idx]
            .bus_free_at
            .saturating_sub(self.idle_closed_latency() + Self::PREFETCH_BACKLOG_LIMIT)
    }

    /// Services a *demand* line read for `block` arriving at `now`; returns
    /// the cycle at which the data transfer completes. Demand reads have
    /// priority at the controller: they queue only behind other demand
    /// transfers (plus bank timing), never behind pending prefetch transfers.
    pub fn access(&mut self, block: BlockAddr, now: u64) -> u64 {
        self.access_inner(block, now, false)
    }

    /// Services a *prefetch* line read for `block` arriving at `now`.
    /// Prefetch reads queue behind all previously scheduled traffic.
    pub fn access_prefetch(&mut self, block: BlockAddr, now: u64) -> u64 {
        self.access_inner(block, now, true)
    }

    /// Estimates (without booking any resources) when a demand read for
    /// `block` arriving at `now` would complete. Used to promote in-flight
    /// prefetches that a demand merges with: the merged request completes no
    /// later than a freshly issued demand would have.
    pub fn estimate_demand(&self, block: BlockAddr, now: u64) -> u64 {
        let (channel_idx, bank_idx, row) = self.map(block);
        let arrival = now + self.config.controller_overhead_cycles;
        let bank = &self.banks[bank_idx];
        let start = arrival.max(bank.busy_until);
        let array_latency = match bank.open_row {
            Some(open) if open == row => self.timing,
            Some(_) => 3 * self.timing,
            None => 2 * self.timing,
        };
        let data_start = (start + array_latency).max(self.channels[channel_idx].demand_bus_free_at);
        data_start + self.transfer
    }

    fn access_inner(&mut self, block: BlockAddr, now: u64, is_prefetch: bool) -> u64 {
        let (channel_idx, bank_idx, row) = self.map(block);
        self.stats.reads += 1;

        // Controller / interconnect overhead before the command reaches the
        // bank; it does not occupy the bank or the data bus.
        let arrival = now + self.config.controller_overhead_cycles;
        let bank = &mut self.banks[bank_idx];
        let start = arrival.max(bank.busy_until);
        let array_latency = match bank.open_row {
            Some(open) if open == row => {
                self.stats.row_hits += 1;
                self.timing // tCAS
            }
            Some(_) => {
                self.stats.row_conflicts += 1;
                3 * self.timing // tRP + tRCD + tCAS
            }
            None => {
                self.stats.row_misses += 1;
                2 * self.timing // tRCD + tCAS
            }
        };
        bank.open_row = Some(row);

        let channel = &mut self.channels[channel_idx];
        let queue_behind = if is_prefetch {
            channel.bus_free_at
        } else {
            channel.demand_bus_free_at
        };
        let data_start = (start + array_latency).max(queue_behind);
        let done = data_start + self.transfer;
        if !is_prefetch {
            channel.demand_bus_free_at = done;
        }
        channel.bus_free_at = channel.bus_free_at.max(done);
        // The bank is busy for the row activation / column access itself;
        // time spent waiting for the (prioritized) data bus does not keep the
        // bank array occupied, so queued prefetch transfers do not lock later
        // demand reads out of the bank.
        bank.busy_until = start + array_latency;
        done
    }

    /// Minimum possible latency of a single isolated access to an idle,
    /// closed bank (useful for sanity checks and for core-model sizing).
    pub fn idle_closed_latency(&self) -> u64 {
        self.config.controller_overhead_cycles + 2 * self.timing + self.transfer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramConfig;

    fn model() -> DramModel {
        DramModel::new(DramConfig::paper_single_channel())
    }

    #[test]
    fn first_access_pays_closed_row_latency() {
        let mut d = model();
        let done = d.access(BlockAddr::new(0), 0);
        assert_eq!(done, d.idle_closed_latency());
        assert_eq!(d.stats().row_misses, 1);
    }

    #[test]
    fn row_hit_is_cheaper_than_conflict() {
        let mut d = model();
        let first = d.access(BlockAddr::new(0), 0);
        // Same row (block 0 and 1 map to the same row on a single channel).
        let hit_done = d.access(BlockAddr::new(1), first);
        let hit_latency = hit_done - first;
        // A block in the same bank but a different row forces a conflict.
        let blocks_per_row = 2048 / 64;
        let far = BlockAddr::new(8 * blocks_per_row * 7);
        let conflict_done = d.access(far, hit_done);
        let conflict_latency = conflict_done - hit_done;
        assert!(
            hit_latency < conflict_latency,
            "row hit {hit_latency} should beat conflict {conflict_latency}"
        );
    }

    #[test]
    fn channel_bus_serializes_transfers() {
        let mut d = model();
        // Two accesses to different banks issued at the same time still share
        // the single channel's data bus.
        let a = d.access(BlockAddr::new(0), 0);
        let b = d.access(BlockAddr::new(1 << 20), 0);
        assert!(b > a, "second transfer must wait for the bus");
        assert!(b >= a + d.config().line_transfer_cycles(64));
    }

    #[test]
    fn more_channels_increase_parallelism() {
        let mut one = DramModel::new(DramConfig::paper_single_channel());
        let mut four = DramModel::new(DramConfig {
            channels: 4,
            ..DramConfig::paper_single_channel()
        });
        // Issue 16 concurrent accesses to consecutive blocks at cycle 0 and
        // compare the completion time of the last one.
        let last_one = (0..16)
            .map(|i| one.access(BlockAddr::new(i), 0))
            .max()
            .unwrap();
        let last_four = (0..16)
            .map(|i| four.access(BlockAddr::new(i), 0))
            .max()
            .unwrap();
        assert!(
            last_four < last_one,
            "4-channel DRAM should finish earlier ({last_four} vs {last_one})"
        );
    }

    #[test]
    fn higher_mtps_reduces_transfer_time() {
        let slow = DramConfig {
            mtps: 800,
            ..DramConfig::paper_single_channel()
        };
        let fast = DramConfig {
            mtps: 12800,
            ..DramConfig::paper_single_channel()
        };
        assert!(
            DramModel::new(fast).idle_closed_latency() < DramModel::new(slow).idle_closed_latency()
        );
    }

    #[test]
    fn stats_accumulate() {
        let mut d = model();
        for i in 0..10 {
            d.access(BlockAddr::new(i), i * 1000);
        }
        let s = d.stats();
        assert_eq!(s.reads, 10);
        assert_eq!(s.row_hits + s.row_misses + s.row_conflicts, 10);
    }
}
