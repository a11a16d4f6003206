//! The process-global metrics registry: counters, gauges and log2-bucket
//! histograms with Prometheus text exposition.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc`
//! clones over atomics; callers obtain them once (typically into a
//! `OnceLock`'d struct) and record through them with plain atomic adds —
//! the registry's mutex is touched only at registration and render time,
//! never on the hot path.
//!
//! Histograms use fixed power-of-two buckets: value `v` lands in the
//! bucket whose upper bound is the smallest `2^k - 1 >= v`. That makes
//! recording branch-free (`leading_zeros`), bounds every quantile
//! estimate by construction (the reported quantile is the upper bound of
//! the bucket holding the true one — at most 2x above it), and needs no
//! a-priori range configuration. Latency series in this workspace record
//! **microseconds**.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Number of histogram buckets: one per power-of-two upper bound
/// (`2^0 - 1 = 0` through `2^63 - 1`) plus a final catch-all.
pub const BUCKETS: usize = 65;

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// A fresh, unregistered counter (the registry hands out registered
    /// ones).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down (queue depths, in-flight requests).
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl Gauge {
    /// A fresh, unregistered gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

struct HistogramInner {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

/// A fixed log2-bucket histogram of `u64` samples.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// The bucket index `value` lands in: the smallest `i` with
/// `value <= bucket_upper_bound(i)`.
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// The largest value bucket `index` holds: `2^index - 1`, saturating at
/// `u64::MAX` for the final catch-all bucket.
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

impl Histogram {
    /// A fresh, unregistered histogram (usable standalone — the load
    /// generator aggregates per-scenario latencies this way).
    pub fn new() -> Histogram {
        Histogram {
            inner: Arc::new(HistogramInner {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                sum: AtomicU64::new(0),
                count: AtomicU64::new(0),
            }),
        }
    }

    /// Records one sample: three relaxed atomic adds, no allocation.
    pub fn record(&self, value: u64) {
        self.inner.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(value, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the per-bucket counts.
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.inner.buckets[i].load(Ordering::Relaxed))
    }

    /// The `q`-quantile (`0.0..=1.0`) as the upper bound of the bucket
    /// holding the rank-`ceil(q*count)` sample — an overestimate by at
    /// most the bucket width (< 2x the true value).
    ///
    /// Pinned edge cases (relied on by dashboards and the property suite):
    ///
    /// * **empty histogram** — returns 0 for every `q`,
    /// * **`q = 0.0`** — the naïve rank `ceil(0·n) = 0` would underflow the
    ///   rank convention; the target rank is clamped to `1..=count`, so
    ///   `q = 0.0` reports the *minimum* sample's bucket bound,
    /// * **one sample (`n = 1`)** — every `q` reports that sample's bucket
    ///   bound (rank clamps to 1),
    /// * **`q` outside `0.0..=1.0`** — clamped into range (`q > 1.0`
    ///   behaves as 1.0, i.e. the maximum sample's bucket bound; a NaN
    ///   `q` ends up at rank 1, same as `q = 0.0`).
    pub fn quantile(&self, q: f64) -> u64 {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut cumulative = 0u64;
        for (i, n) in counts.iter().enumerate() {
            cumulative += n;
            if cumulative >= target {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(BUCKETS - 1)
    }

    /// Median, i.e. `quantile(0.5)`.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th percentile, i.e. `quantile(0.99)`.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

struct Family {
    help: &'static str,
    kind: &'static str,
    /// Rendered inner label pairs (`k="v",…`, empty for unlabeled) →
    /// the series handle.
    series: BTreeMap<String, Metric>,
}

/// A named collection of metric families, rendered together.
///
/// Almost every caller wants the process-global [`registry`]; separate
/// instances exist only so tests can render in isolation.
#[derive(Default)]
pub struct Registry {
    families: Mutex<BTreeMap<&'static str, Family>>,
}

/// The process-global registry `GET /metrics` renders.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Escapes a label value per the exposition format: backslash, double
/// quote and newline. Quoted log values use the same rule
/// (`log::format_value`); JSON has its own (`json::json_string`).
pub(crate) fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn render_labels(labels: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&escape_label(v));
        out.push('"');
    }
    out
}

impl Registry {
    fn get_or_insert(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let mut families = self.families.lock().unwrap_or_else(PoisonError::into_inner);
        let family = families.entry(name).or_insert_with(|| Family {
            help,
            kind: "",
            series: BTreeMap::new(),
        });
        let metric = family
            .series
            .entry(render_labels(labels))
            .or_insert_with(make)
            .clone();
        if family.kind.is_empty() {
            family.kind = metric.kind();
        }
        assert_eq!(
            family.kind,
            metric.kind(),
            "metric family '{name}' registered with two kinds"
        );
        metric
    }

    /// The unlabeled counter `name`, created on first use.
    pub fn counter(&self, name: &'static str, help: &'static str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// The counter `name` with the given label pairs, created on first
    /// use. Registering the same (name, labels) again returns the same
    /// underlying series.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter_with(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Counter {
        match self.get_or_insert(name, help, labels, || Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c,
            other => panic!("'{name}' is a {}, not a counter", other.kind()),
        }
    }

    /// The unlabeled gauge `name`, created on first use.
    pub fn gauge(&self, name: &'static str, help: &'static str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// The gauge `name` with the given label pairs, created on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge_with(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Gauge {
        match self.get_or_insert(name, help, labels, || Metric::Gauge(Gauge::new())) {
            Metric::Gauge(g) => g,
            other => panic!("'{name}' is a {}, not a gauge", other.kind()),
        }
    }

    /// The unlabeled histogram `name`, created on first use.
    pub fn histogram(&self, name: &'static str, help: &'static str) -> Histogram {
        self.histogram_with(name, help, &[])
    }

    /// The histogram `name` with the given label pairs, created on first
    /// use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram_with(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Histogram {
        match self.get_or_insert(name, help, labels, || Metric::Histogram(Histogram::new())) {
            Metric::Histogram(h) => h,
            other => panic!("'{name}' is a {}, not a histogram", other.kind()),
        }
    }

    /// Renders every registered family in Prometheus text exposition
    /// format (sorted by family name, then by label set — deterministic
    /// for a given set of values).
    pub fn render(&self) -> String {
        let families = self.families.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = String::new();
        for (name, family) in families.iter() {
            out.push_str("# HELP ");
            out.push_str(name);
            out.push(' ');
            out.push_str(family.help);
            out.push('\n');
            out.push_str("# TYPE ");
            out.push_str(name);
            out.push(' ');
            out.push_str(family.kind);
            out.push('\n');
            for (labels, metric) in &family.series {
                match metric {
                    Metric::Counter(c) => {
                        render_sample(&mut out, name, "", labels, None, c.get() as f64);
                    }
                    Metric::Gauge(g) => {
                        render_sample(&mut out, name, "", labels, None, g.get() as f64);
                    }
                    Metric::Histogram(h) => render_histogram(&mut out, name, labels, h),
                }
            }
        }
        out
    }
}

fn render_sample(
    out: &mut String,
    name: &str,
    suffix: &str,
    labels: &str,
    le: Option<&str>,
    value: f64,
) {
    out.push_str(name);
    out.push_str(suffix);
    if !labels.is_empty() || le.is_some() {
        out.push('{');
        out.push_str(labels);
        if let Some(le) = le {
            if !labels.is_empty() {
                out.push(',');
            }
            out.push_str("le=\"");
            out.push_str(le);
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    if value.fract() == 0.0 && value.abs() < 9.0e15 {
        out.push_str(&format!("{}", value as i64));
    } else {
        out.push_str(&format!("{value}"));
    }
    out.push('\n');
}

/// Emits cumulative `_bucket` lines up to the highest occupied bucket
/// (plus the mandatory `+Inf`), then `_sum` and `_count`.
fn render_histogram(out: &mut String, name: &str, labels: &str, h: &Histogram) {
    let counts = h.bucket_counts();
    let highest = counts
        .iter()
        .rposition(|&n| n > 0)
        .map(|i| (i + 1).min(BUCKETS - 1))
        .unwrap_or(0);
    let mut cumulative = 0u64;
    for (i, n) in counts.iter().enumerate().take(highest + 1) {
        cumulative += n;
        let le = bucket_upper_bound(i);
        if le == u64::MAX {
            break;
        }
        render_sample(
            out,
            name,
            "_bucket",
            labels,
            Some(&le.to_string()),
            cumulative as f64,
        );
    }
    render_sample(out, name, "_bucket", labels, Some("+Inf"), h.count() as f64);
    render_sample(out, name, "_sum", labels, None, h.sum() as f64);
    render_sample(out, name, "_count", labels, None, h.count() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two_minus_one() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(10), 1023);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        // Every value's bucket bound actually bounds it.
        for v in [0u64, 1, 2, 3, 7, 100, 4096, u64::MAX - 1, u64::MAX] {
            assert!(v <= bucket_upper_bound(bucket_index(v)), "{v}");
        }
    }

    #[test]
    fn counter_and_gauge_do_arithmetic() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let g = Gauge::new();
        g.set(10);
        g.add(5);
        g.sub(7);
        assert_eq!(g.get(), 8);
        // Clones share the underlying series.
        let c2 = c.clone();
        c2.inc();
        assert_eq!(c.get(), 43);
    }

    #[test]
    fn histogram_counts_sums_and_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0, "empty histogram");
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1106);
        // Median sample is 3 → bucket [2,3] → upper bound 3, exact here.
        assert_eq!(h.p50(), 3);
        // p99 of 5 samples is the max sample's bucket: 1000 ∈ [512,1023].
        assert_eq!(h.p99(), 1023);
        assert_eq!(h.quantile(0.0), 1, "rank clamps to the first sample");
        assert_eq!(h.quantile(1.0), 1023);
    }

    #[test]
    fn registry_returns_the_same_series_for_the_same_identity() {
        let reg = Registry::default();
        let a = reg.counter_with("t_requests_total", "requests", &[("route", "/runs")]);
        let b = reg.counter_with("t_requests_total", "requests", &[("route", "/runs")]);
        let other = reg.counter_with("t_requests_total", "requests", &[("route", "/specs")]);
        a.inc();
        b.inc();
        other.add(7);
        assert_eq!(a.get(), 2, "same labels share the series");
        assert_eq!(other.get(), 7);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let reg = Registry::default();
        let _ = reg.counter("t_mixed", "first as counter");
        let _ = reg.gauge("t_mixed", "now as gauge");
    }

    #[test]
    fn render_emits_valid_exposition_text() {
        let reg = Registry::default();
        reg.counter("t_total", "a counter").add(3);
        reg.gauge("t_depth", "a gauge").set(-2);
        let h = reg.histogram_with("t_latency_us", "a histogram", &[("route", "/x")]);
        h.record(0);
        h.record(5);
        h.record(300);
        let text = reg.render();
        assert!(text.contains("# HELP t_total a counter\n"), "{text}");
        assert!(text.contains("# TYPE t_total counter\n"), "{text}");
        assert!(text.contains("\nt_total 3\n"), "{text}");
        assert!(text.contains("# TYPE t_depth gauge\n"), "{text}");
        assert!(text.contains("\nt_depth -2\n"), "{text}");
        assert!(text.contains("# TYPE t_latency_us histogram\n"), "{text}");
        assert!(
            text.contains("t_latency_us_bucket{route=\"/x\",le=\"0\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("t_latency_us_bucket{route=\"/x\",le=\"7\"} 2\n"),
            "{text}"
        );
        assert!(
            text.contains("t_latency_us_bucket{route=\"/x\",le=\"511\"} 3\n"),
            "{text}"
        );
        assert!(
            text.contains("t_latency_us_bucket{route=\"/x\",le=\"+Inf\"} 3\n"),
            "{text}"
        );
        assert!(
            text.contains("t_latency_us_sum{route=\"/x\"} 305\n"),
            "{text}"
        );
        assert!(
            text.contains("t_latency_us_count{route=\"/x\"} 3\n"),
            "{text}"
        );
        // Buckets are cumulative and monotone.
        let buckets: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("t_latency_us_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "{buckets:?}");
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let reg = Registry::default();
        reg.counter_with("t_esc_total", "escapes", &[("k", "a\"b")])
            .inc();
        assert!(reg.render().contains("t_esc_total{k=\"a\\\"b\"} 1"));
    }
}
