//! Simulation statistics and the metrics reported in the paper.

/// Demand-access statistics for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand loads/stores that looked up this cache.
    pub demand_accesses: u64,
    /// Demand accesses that hit.
    pub demand_hits: u64,
    /// Demand accesses that missed.
    pub demand_misses: u64,
    /// Prefetch fills installed into this cache.
    pub prefetch_fills: u64,
    /// Prefetched lines later referenced by a demand access.
    pub useful_prefetches: u64,
    /// Prefetched lines evicted (or left at end of simulation) unreferenced.
    pub useless_prefetches: u64,
}

impl CacheStats {
    /// Demand miss ratio in `[0, 1]`; zero when there were no accesses.
    pub fn miss_ratio(&self) -> f64 {
        if self.demand_accesses == 0 {
            0.0
        } else {
            self.demand_misses as f64 / self.demand_accesses as f64
        }
    }

    /// Misses per kilo-instruction given the retired instruction count.
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.demand_misses as f64 * 1000.0 / instructions as f64
        }
    }
}

/// Prefetch-side statistics for one core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Requests emitted by the prefetcher.
    pub requested: u64,
    /// Requests actually issued to the memory hierarchy.
    pub issued: u64,
    /// Requests dropped because the block was already cached at (or above)
    /// the requested fill level.
    pub dropped_redundant: u64,
    /// Requests dropped because the prefetch queue was full.
    pub dropped_queue_full: u64,
    /// Always 0: a prefetch refused for want of a fill buffer, an MSHR or
    /// DRAM backlog room is requeued and retried, never dropped. The
    /// results store does not persist it; the field stays only because
    /// the benchmark reads it.
    pub dropped_mshr_full: u64,
    /// Demand accesses that hit an in-flight prefetch (late prefetches).
    pub late: u64,
}

/// Per-core simulation results.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CoreStats {
    /// Instructions retired during the measured phase.
    pub instructions: u64,
    /// Cycles elapsed while retiring them.
    pub cycles: u64,
    /// L1 data cache statistics.
    pub l1d: CacheStats,
    /// L2 cache statistics.
    pub l2c: CacheStats,
    /// This core's share of LLC statistics.
    pub llc: CacheStats,
    /// Prefetching statistics.
    pub prefetch: PrefetchStats,
}

impl CoreStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Overall prefetch accuracy as defined in §IV-A3 of the paper:
    /// `(useful_L1 + useful_L2) / (useful_L1 + useless_L1 + useful_L2 + useless_L2)`.
    ///
    /// Prefetches filled into the LLC are not issued by any evaluated
    /// prefetcher but are included for completeness.
    pub fn overall_accuracy(&self) -> f64 {
        let useful =
            self.l1d.useful_prefetches + self.l2c.useful_prefetches + self.llc.useful_prefetches;
        let useless =
            self.l1d.useless_prefetches + self.l2c.useless_prefetches + self.llc.useless_prefetches;
        if useful + useless == 0 {
            0.0
        } else {
            useful as f64 / (useful + useless) as f64
        }
    }

    /// IPC speedup over `baseline` (1.0 when the baseline retired
    /// nothing).
    pub fn speedup_over(&self, baseline: &CoreStats) -> f64 {
        if baseline.ipc() == 0.0 {
            1.0
        } else {
            self.ipc() / baseline.ipc()
        }
    }

    /// LLC miss coverage over `baseline`: the fraction of the baseline's
    /// LLC demand misses this run no longer takes (0.0 when the baseline
    /// took none).
    pub fn coverage_over(&self, baseline: &CoreStats) -> f64 {
        let base = baseline.llc.demand_misses;
        if base == 0 {
            return 0.0;
        }
        let remaining = self.llc.demand_misses.min(base);
        (base - remaining) as f64 / base as f64
    }

    /// Fraction of useful prefetches that arrived late (demand hit the
    /// in-flight request rather than the filled block).
    pub fn late_fraction(&self) -> f64 {
        let useful = self.l1d.useful_prefetches
            + self.l2c.useful_prefetches
            + self.llc.useful_prefetches
            + self.prefetch.late;
        if useful == 0 {
            0.0
        } else {
            self.prefetch.late as f64 / useful as f64
        }
    }
}

/// Results of one simulation run (all cores).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimReport {
    /// Per-core statistics, indexed by core id.
    pub cores: Vec<CoreStats>,
}

impl SimReport {
    /// Per-core IPCs.
    pub fn ipcs(&self) -> Vec<f64> {
        self.cores.iter().map(CoreStats::ipc).collect()
    }

    /// Arithmetic-mean IPC across cores.
    pub fn mean_ipc(&self) -> f64 {
        if self.cores.is_empty() {
            0.0
        } else {
            self.ipcs().iter().sum::<f64>() / self.cores.len() as f64
        }
    }

    /// Geometric-mean per-core speedup of this report over `baseline`
    /// (the metric used for multi-core comparisons in the paper).
    pub fn speedup_over(&self, baseline: &SimReport) -> f64 {
        assert_eq!(
            self.cores.len(),
            baseline.cores.len(),
            "core-count mismatch in speedup comparison"
        );
        let mut log_sum = 0.0;
        let mut n = 0usize;
        for (a, b) in self.cores.iter().zip(&baseline.cores) {
            let (ia, ib) = (a.ipc(), b.ipc());
            if ia > 0.0 && ib > 0.0 {
                log_sum += (ia / ib).ln();
                n += 1;
            }
        }
        if n == 0 {
            1.0
        } else {
            (log_sum / n as f64).exp()
        }
    }
}

/// Geometric mean of a slice of positive values; 0 if empty.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().filter(|v| **v > 0.0).map(|v| v.ln()).sum();
    let n = values.iter().filter(|v| **v > 0.0).count();
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_mpki() {
        let mut cs = CoreStats {
            instructions: 1000,
            cycles: 2000,
            ..Default::default()
        };
        cs.l1d.demand_misses = 50;
        assert!((cs.ipc() - 0.5).abs() < 1e-12);
        assert!((cs.l1d.mpki(cs.instructions) - 50.0).abs() < 1e-12);
    }

    #[test]
    fn accuracy_combines_levels() {
        let mut cs = CoreStats::default();
        cs.l1d.useful_prefetches = 30;
        cs.l1d.useless_prefetches = 10;
        cs.l2c.useful_prefetches = 10;
        cs.l2c.useless_prefetches = 10;
        assert!((cs.overall_accuracy() - 40.0 / 60.0).abs() < 1e-12);
    }

    #[test]
    fn accuracy_zero_when_no_prefetches() {
        let cs = CoreStats::default();
        assert_eq!(cs.overall_accuracy(), 0.0);
        assert_eq!(cs.late_fraction(), 0.0);
    }

    #[test]
    fn coverage_uses_remaining_llc_misses() {
        let mut baseline = CoreStats::default();
        baseline.llc.demand_misses = 100;
        let mut cs = CoreStats::default();
        cs.llc.demand_misses = 40;
        assert!((cs.coverage_over(&baseline) - 0.6).abs() < 1e-12);
        // More misses than the baseline cover nothing; no baseline misses
        // leave nothing to cover.
        cs.llc.demand_misses = 140;
        assert_eq!(cs.coverage_over(&baseline), 0.0);
        assert_eq!(cs.coverage_over(&CoreStats::default()), 0.0);
    }

    #[test]
    fn speedup_is_geometric_mean_of_per_core_ratios() {
        let base = SimReport {
            cores: vec![
                CoreStats {
                    instructions: 100,
                    cycles: 100,
                    ..Default::default()
                },
                CoreStats {
                    instructions: 100,
                    cycles: 200,
                    ..Default::default()
                },
            ],
        };
        let new = SimReport {
            cores: vec![
                CoreStats {
                    instructions: 100,
                    cycles: 50,
                    ..Default::default()
                },
                CoreStats {
                    instructions: 100,
                    cycles: 200,
                    ..Default::default()
                },
            ],
        };
        // Core 0 speeds up 2x, core 1 unchanged: geomean = sqrt(2).
        assert!((new.speedup_over(&base) - 2.0f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn geometric_mean_basics() {
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn late_fraction_bounds() {
        let mut cs = CoreStats::default();
        cs.prefetch.late = 10;
        cs.l1d.useful_prefetches = 90;
        assert!((cs.late_fraction() - 0.1).abs() < 1e-12);
    }
}
