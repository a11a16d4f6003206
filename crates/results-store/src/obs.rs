//! Process-global `gzr_*` metric series for the store.
//!
//! Every [`ResultsStore`](crate::ResultsStore) instance in the process
//! contributes to one shared family set (registered lazily in the
//! [`gaze_obs`] registry): cumulative I/O counters and flush/compaction
//! duration histograms. Per-store snapshots stay on the store itself
//! (`records_decoded()` etc.); these series exist so `/metrics` can
//! expose store behaviour without holding a store lock.

use std::sync::OnceLock;

use gaze_obs::metrics::{registry, Counter, Histogram};

/// The store-layer metric handles, registered once per process.
pub(crate) struct StoreMetrics {
    /// Positioned single-record reads (point lookups).
    pub preads: Counter,
    /// Records decoded from disk (open scans, point reads, query scans).
    pub records_decoded: Counter,
    /// Record reads that failed and were treated as misses.
    pub read_errors: Counter,
    /// Wall time of flushes that persisted at least one record.
    pub flush_duration_us: Histogram,
    /// Wall time of compactions that actually merged segments.
    pub compact_duration_us: Histogram,
}

/// The lazily registered process-global [`StoreMetrics`].
pub(crate) fn metrics() -> &'static StoreMetrics {
    static METRICS: OnceLock<StoreMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = registry();
        StoreMetrics {
            preads: r.counter("gzr_preads_total", "Positioned single-record segment reads"),
            records_decoded: r.counter(
                "gzr_records_decoded_total",
                "Records decoded from disk across all stores",
            ),
            read_errors: r.counter(
                "gzr_read_errors_total",
                "Record reads that failed and were treated as misses",
            ),
            flush_duration_us: r.histogram(
                "gzr_flush_duration_us",
                "Wall time of flushes that persisted records, in microseconds",
            ),
            compact_duration_us: r.histogram(
                "gzr_compact_duration_us",
                "Wall time of compactions that merged segments, in microseconds",
            ),
        }
    })
}
