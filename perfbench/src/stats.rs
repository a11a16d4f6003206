//! Exact order statistics over raw samples, and the output digest.

/// A percentile read from raw samples: the value, the percentile it
/// actually is, and how many samples it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at that rank.
    pub value: f64,
    /// The percentile reported, in `0..=100`.
    pub pct: f64,
    /// Number of samples.
    pub n: usize,
}

/// Samples a tail percentile must leave above it to be reported.
pub const TAIL_SAMPLES: usize = 10;

/// Sorted copy of `samples` (NaN-free by construction: every sample is a
/// measured duration or count).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    s
}

/// Nearest-rank percentile `pct` (in `0..=100`) of `samples`.
///
/// # Panics
///
/// Panics on an empty sample set.
pub fn percentile(samples: &[f64], pct: f64) -> Percentile {
    assert!(!samples.is_empty(), "percentile of no samples");
    let s = sorted(samples);
    let rank = ((pct / 100.0) * s.len() as f64).ceil().max(1.0) as usize;
    Percentile {
        value: s[rank.min(s.len()) - 1],
        pct,
        n: s.len(),
    }
}

/// The median (nearest-rank p50).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).value
}

/// The highest percentile up to p99 that leaves at least
/// [`TAIL_SAMPLES`] samples above it. With too few samples for any tail
/// percentile, the median is reported (and `pct` says so).
pub fn tail(samples: &[f64]) -> Percentile {
    let n = samples.len();
    if n <= 2 * TAIL_SAMPLES {
        return percentile(samples, 50.0);
    }
    let p99_rank = (0.99 * n as f64).ceil() as usize;
    let rank = p99_rank.min(n - TAIL_SAMPLES);
    let s = sorted(samples);
    Percentile {
        value: s[rank - 1],
        pct: 100.0 * rank as f64 / n as f64,
        n,
    }
}

/// 64-bit FNV-1a digest of `bytes`, as 16 hex digits.
pub fn digest(bytes: &[u8]) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // 1..=n in scrambled order, so sorting is exercised.
        (0..n).map(|i| ((i * 7919) % n + 1) as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles_on_known_samples() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50.0).value, 50.0);
        assert_eq!(percentile(&s, 99.0).value, 99.0);
        assert_eq!(percentile(&s, 100.0).value, 100.0);
        assert_eq!(percentile(&s, 0.0).value, 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn tail_is_p99_when_ten_samples_lie_beyond_it() {
        let t = tail(&ramp(1000));
        assert_eq!(t.value, 990.0);
        assert_eq!(t.pct, 99.0);
        assert_eq!(t.n, 1000);
    }

    #[test]
    fn tail_backs_off_until_ten_samples_lie_beyond_it() {
        // 200 samples: p99 would leave 2 above it; rank 190 leaves 10.
        let t = tail(&ramp(200));
        assert_eq!(t.value, 190.0);
        assert_eq!(t.pct, 95.0);
        let above = ramp(200).iter().filter(|v| **v > t.value).count();
        assert_eq!(above, TAIL_SAMPLES);
    }

    #[test]
    fn tail_falls_back_to_the_median_on_small_sets() {
        let t = tail(&ramp(9));
        assert_eq!(t.value, 5.0);
        assert_eq!(t.pct, 50.0);
        assert_eq!(t.n, 9);
    }

    #[test]
    fn digest_is_fnv1a() {
        // FNV-1a 64 reference values.
        assert_eq!(digest(b""), "cbf29ce484222325");
        assert_eq!(digest(b"a"), "af63dc4c8601ec8c");
        assert_ne!(digest(b"fig06"), digest(b"fig15"));
    }
}
