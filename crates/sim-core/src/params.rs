//! Run parameters: instruction budgets, scale presets and stable
//! fingerprints.
//!
//! [`RunParams`] couples the per-core instruction budgets of one simulation
//! with the [`SimConfig`] it runs under. It lives in `sim-core` (rather
//! than the experiment harness) so that every layer that needs to *key* on
//! a run — the experiment engine's shared baselines, the persistent
//! results store, the `trace-pack` CLI deriving trace lengths from a
//! scale — shares one definition and one stable
//! [`fingerprint`](RunParams::fingerprint).
//!
//! Fingerprints are FNV-1a over the [`MODEL_EPOCH`] and every field
//! (floats via their IEEE-754 bit patterns), so they are a pure function
//! of the model version and the parameter values: stable across
//! processes, platforms and re-runs. They key the on-disk results store,
//! so changing what is hashed (or how) is a format-affecting change —
//! bump the store version when touching [`Fnv1a`].

use crate::config::SimConfig;

/// Version of the simulated model, folded into every
/// [`RunParams::fingerprint`] and therefore into every results-store key.
///
/// Bump it in any change that moves a simulated number (a fidelity fix,
/// a trace-generator change): rows stored under the old epoch then miss
/// and re-simulate instead of being served as current. The golden-figure
/// test binds this value to a digest of the committed figure CSVs, so a
/// golden-CSV change without a bump fails there.
pub const MODEL_EPOCH: u64 = 2;

/// Instruction budgets and system configuration of one simulation.
#[derive(Debug, Clone, Copy)]
pub struct RunParams {
    /// Warm-up instructions per core (statistics disabled).
    pub warmup: u64,
    /// Measured instructions per core.
    pub measured: u64,
    /// System configuration.
    pub config: SimConfig,
}

impl RunParams {
    /// A short run suitable for unit/integration tests.
    pub fn test() -> Self {
        RunParams {
            warmup: 5_000,
            measured: 20_000,
            config: SimConfig::paper_single_core(),
        }
    }

    /// The quick CI scale: large enough for every figure to show the
    /// paper's trends, small enough that the full set regenerates in a
    /// couple of minutes.
    pub fn quick() -> Self {
        RunParams {
            warmup: 10_000,
            measured: 60_000,
            config: SimConfig::paper_single_core(),
        }
    }

    /// The default experiment scale used by the benches: large enough for
    /// patterns to be learned and contention to appear, small enough that the
    /// full figure set regenerates in minutes rather than days.
    pub fn experiment() -> Self {
        RunParams {
            warmup: 50_000,
            measured: 200_000,
            config: SimConfig::paper_single_core(),
        }
    }

    /// The paper's own per-core budgets (200M warm-up + 200M measured). Only
    /// practical as an overnight run on the parallel engine
    /// (`gaze-experiments --paper`).
    pub fn paper_scale() -> Self {
        RunParams {
            warmup: 200_000_000,
            measured: 200_000_000,
            config: SimConfig::paper_single_core(),
        }
    }

    /// Looks up a named scale preset (`test`, `quick`, `bench`/`full`, or
    /// `paper`). This is the one table of scale names: `GAZE_SCALE`, the
    /// `--scale` flags of the CLIs and `ExperimentScale::named` in
    /// `gaze-sim` all resolve through it.
    pub fn named_scale(name: &str) -> Option<Self> {
        match name {
            "test" => Some(Self::test()),
            "quick" => Some(Self::quick()),
            "bench" | "full" => Some(Self::experiment()),
            "paper" => Some(Self::paper_scale()),
            _ => None,
        }
    }

    /// Returns a copy scaled to `cores` cores (LLC and DRAM scale per
    /// Table II).
    pub fn with_cores(mut self, cores: usize) -> Self {
        let mtps = self.config.dram.mtps;
        let llc = self.config.llc_per_core;
        let l2 = self.config.l2c;
        self.config = SimConfig::paper_multi_core(cores);
        self.config.dram.mtps = mtps;
        self.config.llc_per_core = llc;
        self.config.l2c = l2;
        self
    }

    /// Returns a copy with a different system configuration.
    pub fn with_config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Stable FNV-1a fingerprint of the [`MODEL_EPOCH`], the budgets and
    /// the full configuration.
    ///
    /// Two `RunParams` of one build fingerprint identically exactly when
    /// every budget and configuration field is equal, so the fingerprint
    /// is a valid cache / store key for deterministic simulations; a model
    /// epoch bump moves every fingerprint.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.mix(MODEL_EPOCH);
        h.mix(self.warmup);
        h.mix(self.measured);
        self.config.fingerprint_into(&mut h);
        h.finish()
    }
}

/// Instructions one pass of a synthetic trace must hold so that a
/// single-core run at `params` never wraps: both budgets, up to
/// `width - 1` instructions each phase retires past its target, and a
/// full ROB of dispatch read-ahead.
pub fn records_for(params: &RunParams) -> u64 {
    let core = params.config.core;
    params.warmup + params.measured + (core.rob_entries + 2 * (core.width - 1)) as u64
}

/// Stable FNV-1a fingerprint of a trace *mix*, one trace per core: the
/// results store keys every row by it.
///
/// A one-trace mix is a single-core run, so its fingerprint is that
/// trace's own [`source_fingerprint`](crate::trace::source_fingerprint).
/// A larger mix folds the core count, then every core's trace
/// fingerprint in core order: `[a, b]` and `[b, a]` are distinct mixes
/// (core placement matters under shared-LLC contention).
pub fn mix_fingerprint(core_trace_fingerprints: &[u64]) -> u64 {
    if let [single] = core_trace_fingerprints {
        return *single;
    }
    let mut h = Fnv1a::new();
    h.mix(core_trace_fingerprints.len() as u64);
    for &fp in core_trace_fingerprints {
        h.mix(fp);
    }
    h.finish()
}

/// An incremental FNV-1a-style hasher over `u64` words: the one hasher
/// behind every stable fingerprint (run parameters, trace mixes, the
/// trace-stream fingerprint in [`crate::trace`], store key hashes).
///
/// Each word is folded whole with the 64-bit FNV offset basis
/// `0xcbf2_9ce4_8422_2325` and the FNV-64 prime `0x100_0000_01b3`. Both
/// constants are part of the on-disk key definition of the results
/// store: changing either moves every stored key, so it may only happen
/// together with a GZR version bump.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// Starts a hash at the FNV offset basis.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Folds one word into the hash.
    pub fn mix(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(0x100_0000_01b3);
    }

    /// Folds an IEEE-754 double in by bit pattern.
    pub fn mix_f64(&mut self, v: f64) {
        self.mix(v.to_bits());
    }

    /// The accumulated hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_stable_and_value_sensitive() {
        let a = RunParams::quick();
        let b = RunParams::quick();
        assert_eq!(a.fingerprint(), b.fingerprint());

        let mut c = RunParams::quick();
        c.measured += 1;
        assert_ne!(a.fingerprint(), c.fingerprint());

        let d = RunParams::quick().with_config(SimConfig::paper_single_core().with_l2_kb(128));
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn scale_presets_resolve_by_name() {
        assert_eq!(
            RunParams::named_scale("quick").map(|p| p.measured),
            Some(60_000)
        );
        assert_eq!(
            RunParams::named_scale("paper").map(|p| p.warmup),
            Some(200_000_000)
        );
        assert_eq!(
            RunParams::named_scale("bench").map(|p| p.measured),
            RunParams::named_scale("full").map(|p| p.measured),
        );
        assert!(RunParams::named_scale("nope").is_none());
    }

    #[test]
    fn records_for_scales_with_budgets() {
        assert_eq!(records_for(&RunParams::test()), 25_358);
        assert_eq!(records_for(&RunParams::quick()), 70_358);
        let tiny = RunParams {
            warmup: 10,
            measured: 10,
            ..RunParams::test()
        };
        assert_eq!(records_for(&tiny), 378);
    }

    #[test]
    fn multi_core_params_fingerprint_differently() {
        let one = RunParams::test();
        let four = RunParams::test().with_cores(4);
        assert_ne!(one.fingerprint(), four.fingerprint());
    }

    #[test]
    fn mix_fingerprint_is_order_count_and_content_sensitive() {
        let (a, b) = (0x1111u64, 0x2222u64);
        assert_eq!(mix_fingerprint(&[a, b]), mix_fingerprint(&[a, b]));
        assert_ne!(mix_fingerprint(&[a, b]), mix_fingerprint(&[b, a]));
        assert_ne!(mix_fingerprint(&[a]), mix_fingerprint(&[a, a]));
        // A one-core mix is a single-core run: its lone trace's key.
        assert_eq!(mix_fingerprint(&[a]), a);
    }
}
