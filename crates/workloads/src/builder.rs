//! A small deterministic trace builder shared by all workload generators.

use crate::rng::SmallRng;
use sim_core::trace::TraceRecord;

/// Deterministic trace builder: wraps an RNG seeded from the workload name so
/// that every generator produces exactly the same trace on every run, and
/// counts the instructions its records represent.
#[derive(Debug)]
pub struct TraceBuilder {
    records: Vec<TraceRecord>,
    instructions: u64,
    rng: SmallRng,
}

impl TraceBuilder {
    /// Creates a builder seeded from `seed`.
    pub fn new(seed: u64) -> Self {
        TraceBuilder {
            records: Vec::new(),
            instructions: 0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Creates a builder seeded from a workload name (stable hash).
    pub fn from_name(name: &str) -> Self {
        let mut seed = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            seed ^= u64::from(b);
            seed = seed.wrapping_mul(0x1000_0000_01b3);
        }
        Self::new(seed)
    }

    /// The deterministic RNG (for generators that need extra randomness).
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    /// Appends a load of `addr` issued by `pc`, preceded by `gap` non-memory
    /// instructions.
    pub fn load(&mut self, pc: u64, addr: u64, gap: u32) -> &mut Self {
        self.push(TraceRecord::load(pc, addr, gap))
    }

    /// Appends a store of `addr` issued by `pc`, preceded by `gap` non-memory
    /// instructions.
    pub fn store(&mut self, pc: u64, addr: u64, gap: u32) -> &mut Self {
        self.push(TraceRecord::store(pc, addr, gap))
    }

    /// Appends records another generator built, in order (how composite
    /// workloads concatenate their parts).
    pub fn extend(&mut self, records: Vec<TraceRecord>) {
        for record in records {
            self.push(record);
        }
    }

    fn push(&mut self, record: TraceRecord) -> &mut Self {
        self.instructions += record.instruction_count();
        self.records.push(record);
        self
    }

    /// Appends a load with a gap drawn uniformly from `lo..=hi`.
    pub fn load_jittered(&mut self, pc: u64, addr: u64, lo: u32, hi: u32) -> &mut Self {
        let gap = if hi > lo {
            self.rng.gen_range(lo..=hi)
        } else {
            lo
        };
        self.load(pc, addr, gap)
    }

    /// Instructions the records produced so far represent.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Finishes the build and returns the records.
    pub fn into_records(self) -> Vec<TraceRecord> {
        self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_is_deterministic_per_name() {
        let mut a = TraceBuilder::from_name("bwaves-like");
        let mut b = TraceBuilder::from_name("bwaves-like");
        for i in 0..100u64 {
            a.load_jittered(1, i * 64, 1, 8);
            b.load_jittered(1, i * 64, 1, 8);
        }
        assert_eq!(a.into_records(), b.into_records());
    }

    #[test]
    fn different_names_give_different_jitter() {
        let mut a = TraceBuilder::from_name("x");
        let mut b = TraceBuilder::from_name("y");
        for i in 0..50u64 {
            a.load_jittered(1, i * 64, 1, 100);
            b.load_jittered(1, i * 64, 1, 100);
        }
        assert_ne!(a.into_records(), b.into_records());
    }

    #[test]
    fn load_and_store_are_recorded_in_order() {
        let mut b = TraceBuilder::new(1);
        b.load(0x10, 0x100, 2).store(0x14, 0x200, 0);
        assert_eq!(b.instructions(), 4);
        let recs = b.into_records();
        assert_eq!(recs.len(), 2);
        assert!(!recs[0].is_store);
        assert!(recs[1].is_store);
        assert_eq!(recs[0].non_mem_before, 2);
    }
}
