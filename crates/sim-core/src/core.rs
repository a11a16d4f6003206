//! A simplified out-of-order core model.
//!
//! The model captures what matters for prefetcher evaluation: a finite
//! reorder buffer and load queue bound how much memory-level parallelism the
//! core can expose, dispatch is `width`-wide, and instructions retire in
//! order, so a long-latency load at the ROB head stalls the pipeline until
//! its data returns. Non-memory instructions execute in a single cycle;
//! stores commit without stalling the core (their cache effects are applied
//! by the system).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::config::CoreConfig;

#[derive(Debug, Clone, Copy)]
struct RobEntry {
    ready_at: u64,
}

/// Retire/dispatch bookkeeping for one core.
#[derive(Debug, Clone)]
pub struct CoreModel {
    cfg: CoreConfig,
    rob: VecDeque<RobEntry>,
    retired: u64,
    /// Completion times of dispatched loads whose data has not yet been
    /// observed to return. Replaces an O(ROB) scan per dispatch slot with an
    /// amortized O(log LQ) heap: a load with `ready_at > now` cannot have
    /// retired, so the popped view is exactly the in-flight load count.
    load_completions: BinaryHeap<Reverse<u64>>,
    /// `ready_at` of the youngest single-cycle instruction (`dispatch + 1`).
    /// Dispatch cycles never decrease, so it is the latest `ready_at` of any
    /// single-cycle entry in the ROB.
    last_simple_ready: u64,
}

impl CoreModel {
    /// Creates an idle core.
    pub fn new(cfg: CoreConfig) -> Self {
        CoreModel {
            cfg,
            rob: VecDeque::with_capacity(cfg.rob_entries),
            retired: 0,
            load_completions: BinaryHeap::new(),
            last_simple_ready: 0,
        }
    }

    /// The core configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Instructions retired since construction (or the last
    /// [`reset_retired`](Self::reset_retired)).
    pub fn retired_instructions(&self) -> u64 {
        self.retired
    }

    /// Resets the retired-instruction counter (used at the warm-up boundary).
    pub fn reset_retired(&mut self) {
        self.retired = 0;
    }

    /// Whether the reorder buffer has room for another instruction.
    pub fn can_dispatch(&self) -> bool {
        self.rob.len() < self.cfg.rob_entries
    }

    fn drain_completed_loads(&mut self, now: u64) {
        while let Some(&Reverse(ready)) = self.load_completions.peek() {
            if ready > now {
                break;
            }
            self.load_completions.pop();
        }
    }

    /// Number of loads currently in the ROB whose data has not yet returned.
    pub fn loads_in_flight(&mut self, now: u64) -> usize {
        self.drain_completed_loads(now);
        self.load_completions.len()
    }

    /// Whether another load can be dispatched this cycle (load-queue bound).
    pub fn can_dispatch_load(&mut self, now: u64) -> bool {
        self.can_dispatch() && self.loads_in_flight(now) < self.cfg.load_queue
    }

    /// Dispatches a single-cycle (non-memory or store) instruction.
    ///
    /// # Panics
    ///
    /// Panics if the ROB is full; callers must check
    /// [`can_dispatch`](Self::can_dispatch).
    pub fn dispatch_simple(&mut self, now: u64) {
        assert!(self.can_dispatch(), "dispatch into a full ROB");
        self.rob.push_back(RobEntry { ready_at: now + 1 });
        self.last_simple_ready = now + 1;
    }

    /// Dispatches a load whose data becomes available at `ready_at`.
    ///
    /// # Panics
    ///
    /// Panics if the ROB is full.
    pub fn dispatch_load(&mut self, ready_at: u64) {
        assert!(self.can_dispatch(), "dispatch into a full ROB");
        self.rob.push_back(RobEntry { ready_at });
        self.load_completions.push(Reverse(ready_at));
    }

    /// Retires up to `width` completed instructions from the ROB head and
    /// returns how many retired this cycle.
    pub fn retire(&mut self, now: u64) -> u64 {
        let mut count = 0;
        while count < self.cfg.width as u64 {
            match self.rob.front() {
                Some(entry) if entry.ready_at <= now => {
                    self.rob.pop_front();
                    count += 1;
                }
                _ => break,
            }
        }
        self.retired += count;
        count
    }

    /// Current ROB occupancy.
    pub fn rob_occupancy(&self) -> usize {
        self.rob.len()
    }

    /// The earliest cycle strictly after `now` at which this core's state can
    /// change without new input: the completion time of the nearest
    /// still-outstanding instruction. `None` when every ROB entry is already
    /// complete (or the ROB is empty) — the core is not waiting on time.
    ///
    /// O(log LQ), without a ROB scan. Every incomplete load is in
    /// `load_completions` (a load with `ready_at > now` cannot have retired,
    /// and draining only pops completions `<= now`), so the heap top after
    /// draining is the nearest load completion. A single-cycle entry is
    /// incomplete only if it was dispatched at `now` itself, and then its
    /// `ready_at` is `last_simple_ready`. `now` must not be earlier than any
    /// dispatch or drain cycle, which the system's monotone clock
    /// guarantees. Debug builds check the result against the full ROB scan.
    ///
    /// Used by the system's event-driven cycle skipping to fast-forward over
    /// stall cycles.
    pub fn next_event_at(&mut self, now: u64) -> Option<u64> {
        self.drain_completed_loads(now);
        let load = self.load_completions.peek().map(|&Reverse(r)| r);
        let simple = (self.last_simple_ready > now).then_some(self.last_simple_ready);
        let next = match (load, simple) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        debug_assert_eq!(
            next,
            self.rob
                .iter()
                .map(|e| e.ready_at)
                .filter(|&r| r > now)
                .min(),
            "wake-up bound disagrees with the ROB scan"
        );
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core() -> CoreModel {
        CoreModel::new(CoreConfig::paper_default())
    }

    #[test]
    fn simple_instructions_retire_next_cycle() {
        let mut c = core();
        c.dispatch_simple(0);
        assert_eq!(c.retire(0), 0);
        assert_eq!(c.retire(1), 1);
        assert_eq!(c.retired_instructions(), 1);
    }

    #[test]
    fn retire_width_is_bounded() {
        let mut c = core();
        for _ in 0..10 {
            c.dispatch_simple(0);
        }
        assert_eq!(c.retire(5), 4);
        assert_eq!(c.retire(5), 4);
        assert_eq!(c.retire(5), 2);
    }

    #[test]
    fn long_latency_load_blocks_retirement() {
        let mut c = core();
        c.dispatch_load(100);
        c.dispatch_simple(0);
        // The younger instruction is ready but cannot retire past the load.
        assert_eq!(c.retire(50), 0);
        assert_eq!(c.retire(100), 2);
    }

    #[test]
    fn rob_capacity_enforced() {
        let mut c = CoreModel::new(CoreConfig {
            rob_entries: 4,
            ..CoreConfig::paper_default()
        });
        for _ in 0..4 {
            assert!(c.can_dispatch());
            c.dispatch_load(1000);
        }
        assert!(!c.can_dispatch());
    }

    #[test]
    fn load_queue_limits_outstanding_loads() {
        let mut c = CoreModel::new(CoreConfig {
            load_queue: 2,
            ..CoreConfig::paper_default()
        });
        c.dispatch_load(1000);
        c.dispatch_load(1000);
        assert!(!c.can_dispatch_load(0));
        // Once the loads complete they no longer occupy the load queue.
        assert!(c.can_dispatch_load(1000));
    }

    #[test]
    fn reset_retired_clears_counter_only() {
        let mut c = core();
        c.dispatch_simple(0);
        c.retire(1);
        c.reset_retired();
        assert_eq!(c.retired_instructions(), 0);
        assert_eq!(c.rob_occupancy(), 0);
    }

    #[test]
    #[should_panic(expected = "full ROB")]
    fn dispatch_into_full_rob_panics() {
        let mut c = CoreModel::new(CoreConfig {
            rob_entries: 1,
            ..CoreConfig::paper_default()
        });
        c.dispatch_simple(0);
        c.dispatch_simple(0);
    }

    #[test]
    fn next_event_at_matches_a_reference_rob_scan_under_churn() {
        // Deterministic LCG churn over a monotone clock: interleaved
        // simple and load dispatches, retirement, load-queue probes and
        // idle cycles, mirrored by a shadow ROB of `ready_at` values.
        let mut c = CoreModel::new(CoreConfig {
            rob_entries: 48,
            load_queue: 12,
            ..CoreConfig::paper_default()
        });
        let mut shadow: VecDeque<u64> = VecDeque::new();
        let mut state = 0x0bad_5eed_cafe_f00du64;
        let mut lcg = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 16
        };
        let mut now = 0u64;
        for step in 0..50_000 {
            let r = lcg();
            match r % 8 {
                0..=2 if c.can_dispatch() => {
                    c.dispatch_simple(now);
                    shadow.push_back(now + 1);
                }
                3 if c.can_dispatch_load(now) => {
                    let ready = now + 1 + (r >> 8) % 300;
                    c.dispatch_load(ready);
                    shadow.push_back(ready);
                }
                4 | 5 => {
                    let retired = c.retire(now);
                    for _ in 0..retired {
                        assert!(shadow.pop_front().expect("retired entry") <= now);
                    }
                }
                6 => now += 1 + (r >> 8) % 40,
                _ => now += 1,
            }
            let expected = shadow.iter().copied().filter(|&t| t > now).min();
            assert_eq!(c.next_event_at(now), expected, "step {step} at {now}");
            assert_eq!(c.rob_occupancy(), shadow.len());
        }
    }
}
