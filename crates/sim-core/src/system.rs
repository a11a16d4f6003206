//! The full simulated system: cores + prefetchers + memory hierarchy.
//!
//! [`System`] owns one [`CoreModel`], one trace
//! reader, one L1D prefetcher (and optionally an L2C prefetcher, for the
//! multi-level study of Fig. 13) per core, plus the shared
//! [`MemoryHierarchy`]. Traces arrive as
//! [`TraceSource`]s, so an in-memory [`Trace`](crate::trace::Trace) and a
//! streamed on-disk [`GztTrace`](crate::gzt::GztTrace) are interchangeable
//! (and produce bit-identical reports). Simulation follows the paper's
//! methodology: every core first executes a warm-up instruction budget with
//! statistics disabled, then a measured budget; cores that finish early keep
//! replaying their trace so that multi-core contention persists until the
//! slowest core completes.

use std::collections::VecDeque;

use prefetch_common::access::{AccessKind, DemandAccess};
use prefetch_common::addr::BlockAddr;
use prefetch_common::prefetcher::Prefetcher;
use prefetch_common::request::FillLevel;
use prefetch_common::sink::RequestSink;

use crate::config::SimConfig;
use crate::core::CoreModel;
use crate::hierarchy::{L1FillEvent, MemoryHierarchy, PrefetchOutcome, QueuedPrefetch, Refusal};
use crate::stats::{CoreStats, SimReport};
use crate::trace::{TraceReader, TraceRecord, TraceSource};

/// Maximum cycles per retired instruction before the simulator declares the
/// run wedged. Generous enough for fully memory-bound phases.
const DEADLOCK_CYCLES_PER_INSTR: u64 = 10_000;

struct PerCore<'t> {
    core: CoreModel,
    reader: Box<dyn TraceReader + 't>,
    l1_prefetcher: Box<dyn Prefetcher>,
    l2_prefetcher: Option<Box<dyn Prefetcher>>,
    prefetch_queue: VecDeque<QueuedPrefetch>,
    /// Reusable request buffer for this core's prefetcher hooks — the hot
    /// path never allocates.
    sink: RequestSink,
    /// Reusable buffers the hierarchy's L1 fill and eviction notifications
    /// are swapped into each cycle.
    fills: Vec<L1FillEvent>,
    evictions: Vec<BlockAddr>,
    pending: Option<(TraceRecord, u32)>,
    instr_id: u64,
    measured_cycles: Option<u64>,
    measure_start_cycle: u64,
    measured_instructions: u64,
}

/// Deterministic counts of the prefetch issue path and of the skip
/// target's work, accumulated in plain fields (the per-cycle loop touches
/// no shared atomics) and published once per [`System::run`]. They
/// describe host work, not the simulated machine: a skipped and an
/// unskipped run of one system differ here while their reports match, so
/// they never enter a [`SimReport`] or a stored record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IssueCounters {
    /// Prefetch-queue requests handed to the hierarchy for issue.
    pub attempts: u64,
    /// Attempts refused, indexed like [`Refusal::ALL`]: L1 prefetch fill
    /// buffers busy, L2 MSHRs busy, DRAM prefetch backlog full.
    pub refused: [u64; 3],
    /// Queued requests whose wake bound the skip target computed.
    pub skip_evaluations: u64,
    /// Fresh redundancy/source classifications of queued requests: a new
    /// request's first, and one after each change to its block. Other
    /// attempts and skip evaluations reuse the cached verdict.
    pub classifications: u64,
}

impl IssueCounters {
    /// Attempts refused for `reason`.
    pub fn refused(&self, reason: Refusal) -> u64 {
        self.refused[reason as usize]
    }
}

/// A complete simulated machine executing one trace per core.
pub struct System<'t> {
    cfg: SimConfig,
    hierarchy: MemoryHierarchy,
    cores: Vec<PerCore<'t>>,
    cycle: u64,
    cycle_skip: bool,
    /// Cycles this system stepped one at a time (accumulated locally —
    /// the per-cycle loop must not touch shared atomics).
    cycles_stepped: u64,
    /// Cycles fast-forwarded over by event-driven skipping.
    cycles_skipped: u64,
    /// Cycles jumped over solely to reach the wedge deadline when no event
    /// was scheduled. Kept apart from `cycles_skipped`: a wedge jump is a
    /// failure path, not recovered idle time, and must not inflate the
    /// skip-engagement numbers the metrics and the benchmark report.
    cycles_wedged: u64,
    issue: IssueCounters,
    /// Watermarks of what has already been folded into the process-global
    /// metrics, so the public getters can stay cumulative across runs.
    published_stepped: u64,
    published_skipped: u64,
    published_issue: IssueCounters,
    published_wraps: u64,
}

impl<'t> System<'t> {
    /// Builds a single-core system.
    pub fn single_core(
        cfg: SimConfig,
        trace: &'t dyn TraceSource,
        prefetcher: Box<dyn Prefetcher>,
    ) -> Self {
        assert_eq!(cfg.cores, 1, "single_core requires a 1-core configuration");
        Self::new(cfg, vec![trace], vec![prefetcher])
    }

    /// Builds a system with one trace source and one L1D prefetcher per
    /// core. The same source may back several cores (homogeneous mixes) —
    /// every core gets its own independent reader.
    ///
    /// # Panics
    ///
    /// Panics if the number of traces or prefetchers does not match
    /// `cfg.cores`.
    pub fn new(
        cfg: SimConfig,
        traces: Vec<&'t dyn TraceSource>,
        prefetchers: Vec<Box<dyn Prefetcher>>,
    ) -> Self {
        assert_eq!(traces.len(), cfg.cores, "one trace per core required");
        assert_eq!(
            prefetchers.len(),
            cfg.cores,
            "one prefetcher per core required"
        );
        let hierarchy = MemoryHierarchy::new(cfg);
        let cores = traces
            .into_iter()
            .zip(prefetchers)
            .map(|(trace, l1_prefetcher)| PerCore {
                core: CoreModel::new(cfg.core),
                reader: trace.reader(),
                l1_prefetcher,
                l2_prefetcher: None,
                prefetch_queue: VecDeque::new(),
                sink: RequestSink::new(),
                fills: Vec::new(),
                evictions: Vec::new(),
                pending: None,
                instr_id: 0,
                measured_cycles: None,
                measure_start_cycle: 0,
                measured_instructions: 0,
            })
            .collect();
        System {
            cfg,
            hierarchy,
            cores,
            cycle: 0,
            cycle_skip: true,
            cycles_stepped: 0,
            cycles_skipped: 0,
            cycles_wedged: 0,
            issue: IssueCounters::default(),
            published_stepped: 0,
            published_skipped: 0,
            published_issue: IssueCounters::default(),
            published_wraps: 0,
        }
    }

    /// Enables or disables event-driven cycle skipping (on by default).
    ///
    /// Skipping fast-forwards the clock over cycles that are provably
    /// no-ops: every core stalled, and every queued prefetch guaranteed to
    /// be refused (MSHRs full, DRAM backlog window closed) until the
    /// fast-forward target. It is exact — every statistic is bit-identical
    /// to the unskipped simulation — and exists as a toggle only so tests
    /// can assert that equivalence.
    pub fn set_cycle_skip(&mut self, enabled: bool) {
        self.cycle_skip = enabled;
    }

    /// Attaches an L2C prefetcher to `core` (multi-level prefetching,
    /// Fig. 13). The L2 prefetcher trains on the demand stream that misses
    /// the L1D and its requests are clamped to fill the L2C or below.
    pub fn set_l2_prefetcher(&mut self, core: usize, prefetcher: Box<dyn Prefetcher>) {
        self.cores[core].l2_prefetcher = Some(prefetcher);
    }

    /// The simulator configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Moves the sink's requests into the bounded prefetch queue, optionally
    /// clamping L1-targeted requests to the L2 (for L2-attached prefetchers).
    fn enqueue_sink(
        queue: &mut VecDeque<QueuedPrefetch>,
        cap: usize,
        sink: &RequestSink,
        clamp_to_l2: bool,
        dropped_queue_full: &mut u64,
    ) {
        for mut req in sink.iter() {
            if clamp_to_l2 && req.fill_level == FillLevel::L1 {
                req.fill_level = FillLevel::L2;
            }
            if queue.len() >= cap {
                *dropped_queue_full += 1;
            } else {
                queue.push_back(QueuedPrefetch::new(req));
            }
        }
    }

    /// Advances core `idx` by one cycle. Returns whether the core made any
    /// observable progress (retired, dispatched, received fills/evictions,
    /// emitted or issued prefetches) — the signal the event-driven cycle
    /// skipping uses to detect fully stalled cycles.
    fn step_core(&mut self, idx: usize, measuring: bool, target: u64) -> bool {
        let now = self.cycle;
        let cfg = self.cfg;
        let pc = &mut self.cores[idx];
        let mut dropped_queue_full = 0u64;
        let mut progress = false;

        // 1. Deliver fill / eviction notifications to the L1 prefetcher.
        self.hierarchy.take_l1_fills(idx, &mut pc.fills);
        for fill in &pc.fills {
            pc.l1_prefetcher.on_fill(fill.block, fill.was_prefetch);
            progress = true;
        }
        self.hierarchy.take_l1_evictions(idx, &mut pc.evictions);
        for &block in &pc.evictions {
            pc.l1_prefetcher.on_evict(block);
            progress = true;
        }

        // 2. Give the prefetcher its cycle tick (e.g. Gaze's Prefetch Buffer
        //    drains a few blocks per cycle).
        pc.sink.clear();
        pc.l1_prefetcher.tick(&mut pc.sink);
        if !pc.sink.is_empty() {
            progress = true;
            Self::enqueue_sink(
                &mut pc.prefetch_queue,
                cfg.prefetch_queue,
                &pc.sink,
                false,
                &mut dropped_queue_full,
            );
        }

        // 3. Retire.
        if pc.core.retire(now) > 0 {
            progress = true;
        }
        if measuring && pc.measured_cycles.is_none() {
            let after = pc.core.retired_instructions();
            pc.measured_instructions = after;
            if after >= target {
                pc.measured_cycles = Some(now.saturating_sub(pc.measure_start_cycle).max(1));
            }
        }

        // 4. Dispatch up to `width` instructions.
        for _ in 0..cfg.core.width {
            if !pc.core.can_dispatch() {
                break;
            }
            if pc.pending.is_none() {
                let rec = pc.reader.next_record();
                pc.pending = Some((rec, rec.non_mem_before));
            }
            let (rec, remaining) = pc.pending.expect("pending record present");
            if remaining > 0 {
                pc.core.dispatch_simple(now);
                progress = true;
                pc.pending = Some((rec, remaining - 1));
                continue;
            }
            // The memory instruction itself. Loads stall at dispatch when the
            // load queue or the L1D demand MSHRs are exhausted, which is what
            // bounds the memory-level parallelism a single core can expose.
            if !rec.is_store
                && (!pc.core.can_dispatch_load(now)
                    || self.hierarchy.l1_demand_occupancy(idx) >= cfg.l1d.mshrs)
            {
                break;
            }
            pc.instr_id += 1;
            let access = DemandAccess {
                pc: rec.pc,
                addr: rec.addr,
                kind: if rec.is_store {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                },
                instr_id: pc.instr_id,
            };
            let result = self
                .hierarchy
                .demand_access(idx, rec.addr.block(), rec.is_store, now);
            pc.sink.clear();
            pc.l1_prefetcher
                .on_access(&access, result.l1_hit, &mut pc.sink);
            Self::enqueue_sink(
                &mut pc.prefetch_queue,
                cfg.prefetch_queue,
                &pc.sink,
                false,
                &mut dropped_queue_full,
            );
            if !result.l1_hit {
                if let Some(l2pf) = pc.l2_prefetcher.as_mut() {
                    let l2_hit = matches!(result.served_by, crate::hierarchy::HitLevel::L2);
                    pc.sink.clear();
                    l2pf.on_access(&access, l2_hit, &mut pc.sink);
                    // L2 prefetcher requests are clamped to fill the L2 or below.
                    Self::enqueue_sink(
                        &mut pc.prefetch_queue,
                        cfg.prefetch_queue,
                        &pc.sink,
                        true,
                        &mut dropped_queue_full,
                    );
                }
            }
            if rec.is_store {
                pc.core.dispatch_simple(now);
            } else {
                pc.core.dispatch_load(result.complete_at);
            }
            progress = true;
            pc.pending = None;
        }

        // 5. Issue prefetches from the queue, after demands so that demand
        //    misses get MSHRs first. A prefetch that cannot get a fill-buffer
        //    slot is rotated to the back of the queue (it is not lost and it
        //    does not block requests behind it targeting other levels). A
        //    cycle that only rotates refused requests has no observable
        //    effect, so it does not count as progress — [`next_issue_cycle`]
        //    can then fast-forward to the first cycle an attempt could land.
        //    A requeued request keeps its verdict, so a retry classifies it
        //    again only after a change to its block.
        for _ in 0..cfg.prefetch_issue_width {
            let Some(mut entry) = pc.prefetch_queue.pop_front() else {
                break;
            };
            self.issue.attempts += 1;
            self.hierarchy.advance_to(now);
            let verdict = self
                .hierarchy
                .verdict(idx, &mut entry, &mut self.issue.classifications);
            let outcome = self
                .hierarchy
                .issue_classified(idx, entry.req, verdict, now);
            if let PrefetchOutcome::Refused(reason) = outcome {
                self.issue.refused[reason as usize] += 1;
                pc.prefetch_queue.push_back(entry);
            } else {
                progress = true;
            }
        }
        if dropped_queue_full > 0 {
            self.hierarchy
                .note_prefetch_queue_drops(idx, dropped_queue_full);
        }
        progress
    }

    /// The earliest future cycle at which anything can *issue*, observed
    /// from a cycle in which nothing progressed: the nearest pending cache
    /// fill, ROB-entry completion, prefetcher tick readiness
    /// ([`Prefetcher::next_ready_at`]) or prefetch-queue retry that could
    /// consume a request — whichever comes first. Every cycle strictly
    /// before the returned one is a provable no-op (queued prefetches only
    /// rotate), so the clock may jump there. `None` means no event is
    /// scheduled at all (the simulation is wedged).
    fn next_issue_cycle(&mut self) -> Option<u64> {
        let now = self.cycle;
        let mut next = self.hierarchy.next_fill_at().unwrap_or(u64::MAX);
        for pc in &mut self.cores {
            if let Some(t) = pc.core.next_event_at(now) {
                next = next.min(t);
            }
            if let Some(t) = pc.l1_prefetcher.next_ready_at(now) {
                next = next.min(t.max(now + 1));
            }
            if let Some(t) = pc.l2_prefetcher.as_ref().and_then(|p| p.next_ready_at(now)) {
                next = next.min(t.max(now + 1));
            }
        }
        // Queued prefetches: request at queue position `p` gets its next
        // issue attempt at `now + 1 + p / width` (each futile cycle attempts
        // and rotates exactly `width` requests), but the attempt can only
        // consume the request once its hierarchy-side refusal clears. The
        // fill-buffer and MSHR bounds are per core, so they are computed
        // once per core; each request adds its verdict (cached until its
        // block changes) and DRAM bound.
        let width = self.cfg.prefetch_issue_width;
        if width == 0 {
            // Queued requests can never issue.
            return (next != u64::MAX).then_some(next);
        }
        for (idx, pc) in self.cores.iter_mut().enumerate() {
            if pc.prefetch_queue.is_empty() || now + 1 >= next {
                continue;
            }
            let class = self.hierarchy.prefetch_class_bounds(idx, now);
            // `attempt` is `now + 1 + pos / width`, advanced batch by batch.
            let mut attempt = now + 1;
            let mut batch_left = width;
            for entry in &mut pc.prefetch_queue {
                if batch_left == 0 {
                    attempt += 1;
                    batch_left = width;
                }
                batch_left -= 1;
                if attempt >= next {
                    // Attempt times grow with the position; nothing
                    // further back can beat the current bound.
                    break;
                }
                self.issue.skip_evaluations += 1;
                let verdict = self
                    .hierarchy
                    .verdict(idx, entry, &mut self.issue.classifications);
                let clear = self
                    .hierarchy
                    .prefetch_block_clear_at(&entry.req, verdict, class);
                next = next.min(attempt.max(clear));
            }
        }
        (next != u64::MAX).then_some(next)
    }

    /// Reproduces the prefetch-queue rotation that `elided` consecutive
    /// futile cycles would have performed, so a fast-forwarded run attempts
    /// requests in exactly the order the stepped run would. Each futile
    /// cycle pops `width` requests and pushes every one back (all attempts
    /// are refused on futile cycles by construction), i.e. rotates the
    /// queue left by `width mod len`.
    fn replay_queue_rotation(&mut self, elided: u64) {
        let width = self.cfg.prefetch_issue_width as u64;
        for pc in &mut self.cores {
            let len = pc.prefetch_queue.len() as u64;
            if len == 0 || width == 0 {
                continue;
            }
            let rot = ((elided % len) * (width % len)) % len;
            pc.prefetch_queue.rotate_left(rot as usize);
        }
    }

    fn run_phase(&mut self, instructions_per_core: u64, measuring: bool) {
        for pc in &mut self.cores {
            pc.core.reset_retired();
            pc.measured_cycles = None;
            pc.measure_start_cycle = self.cycle;
            pc.measured_instructions = 0;
        }
        let deadline = self.cycle + instructions_per_core.max(1) * DEADLOCK_CYCLES_PER_INSTR;
        loop {
            let all_done = self
                .cores
                .iter()
                .all(|pc| pc.core.retired_instructions() >= instructions_per_core);
            if all_done {
                break;
            }
            assert!(
                self.cycle < deadline,
                "simulation wedged: no forward progress"
            );
            // Apply any cache fills that completed by this cycle so that
            // MSHRs free and stalled cores can make progress even on cycles
            // where they issue no new requests.
            self.hierarchy.advance_to(self.cycle);
            let mut any_progress = false;
            for idx in 0..self.cores.len() {
                any_progress |= self.step_core(idx, measuring, instructions_per_core);
            }
            // Event-driven cycle skipping: when every core is fully stalled
            // (typically on DRAM) and every queued prefetch is provably
            // refused until then, fast-forward straight to the next issue
            // opportunity — fill completion, ROB wake-up, prefetcher tick
            // readiness or MSHR/backlog retry — instead of spinning. The
            // elided cycles' only effect, prefetch-queue rotation, is
            // replayed so issue order stays bit-identical.
            if self.cycle_skip && !any_progress {
                match self.next_issue_cycle() {
                    Some(next) if next > self.cycle => {
                        let elided = next - self.cycle - 1;
                        if elided > 0 {
                            self.replay_queue_rotation(elided);
                        }
                        self.cycles_skipped += next - self.cycle;
                        self.cycle = next;
                        continue;
                    }
                    Some(_) => {}
                    None => {
                        // Nothing will ever happen again: jump to the deadline
                        // so the wedge assertion above reports it. This is a
                        // failure path, accounted apart from recovered idle
                        // cycles (`cycles_skipped` feeds perf metrics).
                        self.cycles_wedged += deadline - self.cycle;
                        self.cycle = deadline;
                        continue;
                    }
                }
            }
            self.cycles_stepped += 1;
            self.cycle += 1;
        }
        if measuring {
            // Any core that reached the target exactly at the final cycle.
            for pc in &mut self.cores {
                if pc.measured_cycles.is_none() {
                    pc.measured_instructions = pc.core.retired_instructions();
                    pc.measured_cycles =
                        Some(self.cycle.saturating_sub(pc.measure_start_cycle).max(1));
                }
            }
        }
    }

    /// Runs `warmup` instructions per core with statistics disabled, then
    /// `measured` instructions per core with statistics enabled, and returns
    /// the per-core report.
    pub fn run(&mut self, warmup: u64, measured: u64) -> SimReport {
        assert!(measured > 0, "measured instruction budget must be positive");
        if warmup > 0 {
            self.hierarchy.set_stats_enabled(false);
            self.run_phase(warmup, false);
        }
        self.hierarchy.set_stats_enabled(true);
        self.hierarchy.reset_stats();
        self.run_phase(measured, true);
        self.hierarchy.finalize();
        self.publish_metrics();

        let cores = self
            .cores
            .iter()
            .enumerate()
            .map(|(idx, pc)| {
                let h = self.hierarchy.stats(idx);
                CoreStats {
                    // Report the instructions actually retired when the
                    // measurement window closed; padding this up to the
                    // budget would silently inflate IPC for under-retiring
                    // cores.
                    instructions: pc.measured_instructions,
                    cycles: pc.measured_cycles.unwrap_or(1),
                    l1d: h.l1d,
                    l2c: h.l2c,
                    llc: h.llc,
                    prefetch: h.prefetch,
                }
            })
            .collect();
        SimReport { cores }
    }

    /// Cycles advanced one at a time since construction.
    pub fn cycles_stepped(&self) -> u64 {
        self.cycles_stepped
    }

    /// Cycles fast-forwarded over by event-driven skipping since
    /// construction. Wedge-deadline jumps are excluded (see
    /// [`cycles_wedged`](Self::cycles_wedged)).
    pub fn cycles_skipped(&self) -> u64 {
        self.cycles_skipped
    }

    /// Cycles jumped over solely to reach the wedge deadline (a run that
    /// increments this panics immediately afterwards; the counter exists so
    /// tests and diagnostics can tell a wedge jump from recovered idle
    /// time).
    pub fn cycles_wedged(&self) -> u64 {
        self.cycles_wedged
    }

    /// Prefetch issue and skip-target counts since construction.
    pub fn issue_counters(&self) -> IssueCounters {
        self.issue
    }

    /// Times the cores' trace readers wrapped to the start of their pass
    /// since construction, summed over cores. A synthetic trace sized for
    /// its budget ([`records_for`](crate::params::records_for)) never
    /// wraps in a single-core run; in a multi-core run, cores that finish
    /// early keep replaying by design so contention persists.
    pub fn trace_wraps(&self) -> u64 {
        self.cores.iter().map(|pc| pc.reader.wraps()).sum()
    }

    /// Folds the cycle, issue and trace-wrap counts accumulated since the
    /// previous publication into the process-global metrics
    /// (`gaze_sim_cycles_*_total`, `gaze_sim_prefetch_*_total`,
    /// `gaze_sim_skip_evaluations_total`, `gaze_sim_trace_wraps_total`).
    /// Nine atomic adds per `run`,
    /// nothing per cycle — and purely observational, so simulation output
    /// stays bit-exact. Wedge jumps are never published: they would inflate
    /// the skip totals right before the wedge panic.
    fn publish_metrics(&mut self) {
        use gaze_obs::metrics::Counter;
        use std::sync::OnceLock;
        struct Published {
            stepped: Counter,
            skipped: Counter,
            attempts: Counter,
            refused: [Counter; 3],
            skip_evaluations: Counter,
            classifications: Counter,
            wraps: Counter,
        }
        static METRICS: OnceLock<Published> = OnceLock::new();
        let m = METRICS.get_or_init(|| {
            let reg = gaze_obs::metrics::registry();
            Published {
                stepped: reg.counter(
                    "gaze_sim_cycles_stepped_total",
                    "Simulator cycles advanced one at a time",
                ),
                skipped: reg.counter(
                    "gaze_sim_cycles_skipped_total",
                    "Simulator cycles fast-forwarded by event-driven skipping",
                ),
                attempts: reg.counter(
                    "gaze_sim_prefetch_attempts_total",
                    "Prefetch-queue requests handed to the hierarchy for issue",
                ),
                refused: Refusal::ALL.map(|reason| {
                    reg.counter_with(
                        "gaze_sim_prefetch_refusals_total",
                        "Prefetch issue attempts refused and requeued, by reason",
                        &[("reason", reason.label())],
                    )
                }),
                skip_evaluations: reg.counter(
                    "gaze_sim_skip_evaluations_total",
                    "Queued prefetch requests whose wake bound the skip target computed",
                ),
                classifications: reg.counter(
                    "gaze_sim_prefetch_classifications_total",
                    "Fresh redundancy/source classifications of queued prefetch requests",
                ),
                wraps: reg.counter(
                    "gaze_sim_trace_wraps_total",
                    "Times a core's trace reader wrapped to the start of its pass",
                ),
            }
        });
        let (issue, seen) = (self.issue, self.published_issue);
        m.stepped.add(self.cycles_stepped - self.published_stepped);
        m.skipped.add(self.cycles_skipped - self.published_skipped);
        m.attempts.add(issue.attempts - seen.attempts);
        for (i, counter) in m.refused.iter().enumerate() {
            counter.add(issue.refused[i] - seen.refused[i]);
        }
        m.skip_evaluations
            .add(issue.skip_evaluations - seen.skip_evaluations);
        m.classifications
            .add(issue.classifications - seen.classifications);
        self.published_stepped = self.cycles_stepped;
        self.published_skipped = self.cycles_skipped;
        self.published_issue = issue;
        let wraps = self.trace_wraps();
        m.wraps.add(wraps - self.published_wraps);
        self.published_wraps = wraps;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;
    use prefetch_common::prefetcher::NullPrefetcher;
    use prefetch_common::request::PrefetchRequest;

    /// A deliberately aggressive prefetcher used only in tests: prefetches
    /// the next `degree` sequential blocks on every access, the first
    /// `l1_degree` of them into the L1D and the remainder into the L2C
    /// (the same fill-level split real spatial prefetchers use).
    struct NextLine {
        degree: usize,
        l1_degree: usize,
    }

    impl Prefetcher for NextLine {
        fn name(&self) -> &str {
            "test-next-line"
        }

        fn on_access(&mut self, access: &DemandAccess, _hit: bool, sink: &mut RequestSink) {
            for d in 1..=self.degree as i64 {
                let Some(block) = access.block().checked_add_signed(d) else {
                    continue;
                };
                if d <= self.l1_degree as i64 {
                    sink.push(PrefetchRequest::to_l1(block));
                } else {
                    sink.push(PrefetchRequest::to_l2(block));
                }
            }
        }

        fn storage_bits(&self) -> u64 {
            0
        }
    }

    fn streaming_trace(records: usize) -> Trace {
        let recs = (0..records)
            .map(|i| TraceRecord::load(0x400000, 0x10_0000 + i as u64 * 64, 4))
            .collect();
        Trace::new("stream", recs)
    }

    fn random_ish_trace(records: usize) -> Trace {
        // Deterministic pseudo-random walk over a 16 MB footprint.
        let mut state = 0x12345678u64;
        let recs = (0..records)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let addr = (state >> 16) % (16 * 1024 * 1024);
                TraceRecord::load(0x400100 + (i as u64 % 7) * 4, addr & !63, 2)
            })
            .collect();
        Trace::new("random", recs)
    }

    /// A prefetcher asking for the blocks behind an access to address 0 has
    /// none to ask for: the run trips no empty-way tag check in a debug
    /// build and drops no phantom request as redundant.
    #[test]
    fn no_request_reaches_behind_block_zero() {
        struct Behind;
        impl Prefetcher for Behind {
            fn name(&self) -> &str {
                "test-behind"
            }

            fn on_access(&mut self, access: &DemandAccess, _hit: bool, sink: &mut RequestSink) {
                for d in 1..=2 {
                    if let Some(block) = access.block().checked_add_signed(-d) {
                        sink.push(PrefetchRequest::to_l1(block));
                    }
                }
            }

            fn storage_bits(&self) -> u64 {
                0
            }
        }
        let recs = (0..500)
            .map(|_| TraceRecord::load(0x400000, 0, 4))
            .collect();
        let trace = Trace::new("address-zero", recs);
        let report = System::single_core(SimConfig::paper_single_core(), &trace, Box::new(Behind))
            .run(1_000, 5_000);
        let core = &report.cores[0];
        assert!(core.l1d.demand_accesses > 0);
        assert_eq!(core.prefetch.requested, 0);
        assert_eq!(core.prefetch.dropped_redundant, 0);
    }

    #[test]
    fn system_runs_and_reports_ipc() {
        let trace = streaming_trace(2000);
        let mut sys = System::single_core(
            SimConfig::paper_single_core(),
            &trace,
            Box::new(NullPrefetcher::new()),
        );
        let report = sys.run(1_000, 5_000);
        assert_eq!(report.cores.len(), 1);
        let ipc = report.cores[0].ipc();
        assert!(ipc > 0.05 && ipc <= 4.0, "IPC {ipc} out of plausible range");
        assert!(report.cores[0].l1d.demand_accesses > 0);
    }

    #[test]
    fn prefetching_improves_streaming_ipc() {
        let trace = streaming_trace(4000);
        let cfg = SimConfig::paper_single_core();
        let base =
            System::single_core(cfg, &trace, Box::new(NullPrefetcher::new())).run(2_000, 20_000);
        let pref = System::single_core(
            cfg,
            &trace,
            Box::new(NextLine {
                degree: 16,
                l1_degree: 4,
            }),
        )
        .run(2_000, 20_000);
        let speedup = pref.speedup_over(&base);
        assert!(
            speedup > 1.05,
            "next-line prefetching should speed up streaming, got {speedup:.3}"
        );
        assert!(pref.cores[0].overall_accuracy() > 0.8);
    }

    #[test]
    fn useless_prefetches_hurt_accuracy_on_random_accesses() {
        let trace = random_ish_trace(3000);
        let cfg = SimConfig::paper_single_core();
        let pref = System::single_core(
            cfg,
            &trace,
            Box::new(NextLine {
                degree: 4,
                l1_degree: 4,
            }),
        )
        .run(1_000, 10_000);
        assert!(
            pref.cores[0].overall_accuracy() < 0.5,
            "random accesses should make next-line inaccurate, got {:.3}",
            pref.cores[0].overall_accuracy()
        );
    }

    #[test]
    fn multicore_run_produces_per_core_stats() {
        let t0 = streaming_trace(1500);
        let t1 = random_ish_trace(1500);
        let cfg = SimConfig::paper_multi_core(2);
        let mut sys = System::new(
            cfg,
            vec![&t0 as &dyn TraceSource, &t1],
            vec![
                Box::new(NullPrefetcher::new()),
                Box::new(NullPrefetcher::new()),
            ],
        );
        let report = sys.run(500, 4_000);
        assert_eq!(report.cores.len(), 2);
        assert!(report.cores.iter().all(|c| c.instructions >= 4_000));
        assert!(report.cores.iter().all(|c| c.cycles > 0));
    }

    #[test]
    fn l2_prefetcher_requests_are_clamped_to_l2() {
        let trace = streaming_trace(2000);
        let cfg = SimConfig::paper_single_core();
        let mut sys = System::single_core(cfg, &trace, Box::new(NullPrefetcher::new()));
        sys.set_l2_prefetcher(
            0,
            Box::new(NextLine {
                degree: 2,
                l1_degree: 2,
            }),
        );
        let report = sys.run(500, 8_000);
        // The L2 prefetcher produced fills at the L2, never at the L1.
        assert_eq!(report.cores[0].l1d.prefetch_fills, 0);
        assert!(report.cores[0].l2c.prefetch_fills > 0);
    }

    #[test]
    #[should_panic(expected = "one trace per core")]
    fn trace_count_must_match_cores() {
        let trace = streaming_trace(10);
        let _ = System::new(
            SimConfig::paper_multi_core(2),
            vec![&trace as &dyn TraceSource],
            vec![Box::new(NullPrefetcher::new())],
        );
    }

    /// Cycle skipping must be exact: every metric of every report equals the
    /// unskipped simulation, across prefetching styles and core counts.
    #[test]
    fn cycle_skipping_is_bit_identical_to_unskipped_simulation() {
        let stream = streaming_trace(3000);
        let random = random_ish_trace(3000);
        let single = SimConfig::paper_single_core();

        fn run_pair<'t>(mk: &dyn Fn() -> System<'t>) -> (SimReport, SimReport, u64, u64) {
            let mut skipped = mk();
            let mut unskipped = mk();
            unskipped.set_cycle_skip(false);
            let a = skipped.run(1_000, 8_000);
            let b = unskipped.run(1_000, 8_000);
            (a, b, skipped.cycle(), unskipped.cycle())
        }

        // No prefetching: maximal stall windows, maximal skipping.
        let (a, b, ca, cb) =
            run_pair(&|| System::single_core(single, &random, Box::new(NullPrefetcher::new())));
        assert_eq!(a, b, "null-prefetcher reports must match");
        assert_eq!(ca, cb, "final cycle counts must match");

        // An eager prefetcher exercising the queue/tick interaction.
        let (a, b, ca, cb) = run_pair(&|| {
            System::single_core(
                single,
                &stream,
                Box::new(NextLine {
                    degree: 8,
                    l1_degree: 4,
                }),
            )
        });
        assert_eq!(a, b, "prefetching reports must match");
        assert_eq!(ca, cb);

        // Multi-core with heterogeneous traces.
        let (a, b, ca, cb) = run_pair(&|| {
            System::new(
                SimConfig::paper_multi_core(2),
                vec![&stream as &dyn TraceSource, &random],
                vec![
                    Box::new(NullPrefetcher::new()),
                    Box::new(NextLine {
                        degree: 4,
                        l1_degree: 4,
                    }),
                ],
            )
        });
        assert_eq!(a, b, "multi-core reports must match");
        assert_eq!(ca, cb);
    }

    /// The queue-aware case: an eager prefetcher keeps the prefetch queue
    /// non-empty through the stall windows, where the pre-queue-aware skip
    /// disengaged entirely. The fast-forward must both engage and stay
    /// bit-exact.
    #[test]
    fn queue_aware_skip_is_exact_and_engages_under_prefetch_pressure() {
        let random = random_ish_trace(3000);
        let mk = || {
            System::single_core(
                SimConfig::paper_single_core(),
                &random,
                Box::new(NextLine {
                    degree: 16,
                    l1_degree: 8,
                }),
            )
        };
        let mut skipped = mk();
        let mut unskipped = mk();
        unskipped.set_cycle_skip(false);
        let a = skipped.run(1_000, 8_000);
        let b = unskipped.run(1_000, 8_000);
        assert_eq!(a, b, "queue-pressure reports must match");
        assert_eq!(skipped.cycle(), unskipped.cycle());
        assert!(
            skipped.cycles_skipped() > 0,
            "skip must engage on a memory-bound prefetcher-enabled run"
        );
        assert_eq!(unskipped.cycles_skipped(), 0);
        // Skipped + stepped must account for exactly the cycles the
        // unskipped run stepped through.
        assert_eq!(
            skipped.cycles_stepped() + skipped.cycles_skipped(),
            unskipped.cycles_stepped()
        );
    }

    /// Jumping to the deadline because nothing is scheduled is a failure
    /// path; it must not be booked as recovered idle time.
    #[test]
    fn wedge_deadline_jump_is_not_counted_as_skipped() {
        let trace = streaming_trace(10);
        let mut cfg = SimConfig::paper_single_core();
        cfg.core.width = 0; // nothing can ever dispatch or retire
        let mut sys = System::single_core(cfg, &trace, Box::new(NullPrefetcher::new()));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sys.run(0, 100)));
        assert!(result.is_err(), "a width-0 core must wedge");
        assert_eq!(sys.cycles_skipped(), 0, "wedge jump booked as skipped");
        assert!(sys.cycles_wedged() > 0);
    }

    /// Without a prefetcher, skipping must engage on a memory-bound trace,
    /// end on the same cycle, and replace exactly the loop iterations it
    /// saves.
    #[test]
    fn cycle_skipping_advances_fewer_loop_iterations_but_same_final_cycle() {
        let random = random_ish_trace(2000);
        let mk = || {
            System::single_core(
                SimConfig::paper_single_core(),
                &random,
                Box::new(NullPrefetcher::new()),
            )
        };
        let mut skipped = mk();
        let mut unskipped = mk();
        unskipped.set_cycle_skip(false);
        skipped.run(500, 4_000);
        unskipped.run(500, 4_000);
        assert!(skipped.cycles_skipped() > 0, "skip must engage");
        assert_eq!(skipped.cycle(), unskipped.cycle());
        assert_eq!(
            skipped.cycles_stepped() + skipped.cycles_skipped(),
            unskipped.cycles_stepped()
        );
    }

    /// Skip-vs-unskipped exactness for one system constructor: reports,
    /// final cycle and the stepped/skipped identity. Returns the skipped
    /// run's issue counters.
    fn assert_skip_exact<'t>(mk: &dyn Fn() -> System<'t>, what: &str) -> IssueCounters {
        let mut skipped = mk();
        let mut unskipped = mk();
        unskipped.set_cycle_skip(false);
        let a = skipped.run(1_000, 8_000);
        let b = unskipped.run(1_000, 8_000);
        assert_eq!(a, b, "{what}: skipped run diverged");
        assert_eq!(skipped.cycle(), unskipped.cycle(), "{what}: final cycle");
        assert!(skipped.cycles_skipped() > 0, "{what}: skip never engaged");
        assert_eq!(
            skipped.cycles_stepped() + skipped.cycles_skipped(),
            unskipped.cycles_stepped(),
            "{what}: stepped + skipped"
        );
        let counters = skipped.issue_counters();
        assert!(counters.skip_evaluations > 0, "{what}: no skip evaluations");
        counters
    }

    /// An L2-attached prefetcher queues L2-clamped requests, so the skip
    /// target's hoisted L2-MSHR bound (not the L1 fill-buffer bound) gates
    /// them; skipping must stay exact.
    #[test]
    fn skip_is_exact_with_an_l2_attached_prefetcher() {
        let random = random_ish_trace(3000);
        let counters = assert_skip_exact(
            &|| {
                let mut sys = System::single_core(
                    SimConfig::paper_single_core(),
                    &random,
                    Box::new(NextLine {
                        degree: 4,
                        l1_degree: 4,
                    }),
                );
                sys.set_l2_prefetcher(
                    0,
                    Box::new(NextLine {
                        degree: 24,
                        l1_degree: 0,
                    }),
                );
                sys
            },
            "l2-attached",
        );
        assert!(counters.refused(Refusal::L2Mshrs) > 0, "{counters:?}");
    }

    /// With caches shrunk to 4 KB / 16 KB / 64 KB per core, two cores
    /// interleaving a stream with re-touches of a 256 KB working set, and
    /// prefetchers at both L1 and L2, a short run evicts at every level
    /// and fills blocks that queued requests name (one core's fill lands
    /// in the shared LLC under the other's queued L2 request). The debug
    /// verdict guard in `MemoryHierarchy::verdict` then fails if a
    /// `Fill`, `LlcEviction` or `L2Eviction` stamp is missing; the skipped
    /// run must stay exact.
    #[test]
    fn skip_is_exact_with_small_caches_and_two_prefetch_levels() {
        let mut state = 0x9876_5432u64;
        let recs = (0..3000u64)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let addr = if i % 2 == 0 {
                    0x10_0000 + i * 64
                } else {
                    0x80_0000 + (((state >> 16) % (256 * 1024)) & !63)
                };
                TraceRecord::load(0x400000 + (i % 3) * 4, addr, 2)
            })
            .collect();
        let mixed = Trace::new("mixed", recs);
        let mut cfg = SimConfig::paper_multi_core(2);
        cfg.l1d = cfg.l1d.resized(4 * 1024);
        cfg.l2c = cfg.l2c.resized(16 * 1024);
        cfg.llc_per_core = cfg.llc_per_core.resized(64 * 1024);
        assert_skip_exact(
            &|| {
                let mut sys = System::new(
                    cfg,
                    vec![&mixed as &dyn TraceSource, &mixed],
                    (0..2)
                        .map(|_| {
                            Box::new(NextLine {
                                degree: 4,
                                l1_degree: 4,
                            }) as Box<dyn Prefetcher>
                        })
                        .collect(),
                );
                for core in 0..2 {
                    sys.set_l2_prefetcher(
                        core,
                        Box::new(NextLine {
                            degree: 16,
                            l1_degree: 0,
                        }),
                    );
                }
                sys
            },
            "small caches",
        );
    }

    /// A trace shorter than its instruction budget is replayed and its
    /// wraps are counted; a trace longer than the budget never wraps.
    #[test]
    fn trace_wraps_count_replays_of_a_short_trace() {
        // 5 instructions per record: 2,500 per pass of the short trace,
        // 20,000 of the long one, against a 9,000-instruction budget.
        let short = streaming_trace(500);
        let long = streaming_trace(4000);
        let wraps = |trace: &Trace| {
            let mut sys = System::single_core(
                SimConfig::paper_single_core(),
                trace,
                Box::new(NullPrefetcher::new()),
            );
            sys.run(1_000, 8_000);
            sys.trace_wraps()
        };
        assert!(wraps(&short) > 0, "a short trace replays");
        assert_eq!(wraps(&long), 0, "a long trace never wraps");
    }

    /// Four cores of aggressive prefetching saturate every refusal class:
    /// L1 fill buffers, L2 MSHRs and the shared DRAM channel's prefetch
    /// backlog. Each reason must occur, so every branch of the skip
    /// target's wake bound is exercised, and skipping must stay exact.
    #[test]
    fn skip_is_exact_when_four_cores_hit_every_refusal_reason() {
        let stream = streaming_trace(3000);
        let random = random_ish_trace(3000);
        let counters = assert_skip_exact(
            &|| {
                System::new(
                    SimConfig::paper_multi_core(4),
                    vec![&stream as &dyn TraceSource, &random, &stream, &random],
                    (0..4)
                        .map(|_| {
                            Box::new(NextLine {
                                degree: 32,
                                l1_degree: 8,
                            }) as Box<dyn Prefetcher>
                        })
                        .collect(),
                )
            },
            "4-core aggressive",
        );
        for reason in Refusal::ALL {
            assert!(
                counters.refused(reason) > 0,
                "{} never refused: {counters:?}",
                reason.label()
            );
        }
        let refused: u64 = counters.refused.iter().sum();
        assert!(counters.attempts > refused, "{counters:?}");
    }
}
