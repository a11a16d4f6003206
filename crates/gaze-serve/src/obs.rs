//! The serve-layer metric families (`gaze_http_*`, `gaze_jobs_*`) and
//! the label helpers that keep their cardinality fixed.
//!
//! Every request is recorded against a route *label*, not its raw path —
//! `/jobs/job-1a2b-0` and `/jobs/job-1a2b-1` are both `/jobs` — so the
//! exposition stays bounded no matter what clients ask for. Status codes
//! collapse to their class (`2xx`..`5xx`) for the same reason.

use gaze_obs::metrics::{registry, Gauge};

/// Maps a request path to its fixed route label. Unknown paths are
/// `other`.
pub(crate) fn route_label(path: &str) -> &'static str {
    if path.starts_with("/jobs") {
        return "/jobs";
    }
    match path {
        "/healthz" => "/healthz",
        "/metrics" => "/metrics",
        "/runs" => "/runs",
        "/specs" => "/specs",
        "/experiments" => "/experiments",
        _ => "other",
    }
}

/// Collapses a status code to its class label.
pub(crate) fn class_label(status: u16) -> &'static str {
    match status / 100 {
        2 => "2xx",
        3 => "3xx",
        4 => "4xx",
        _ => "5xx",
    }
}

/// The gauge of requests currently being handled.
pub(crate) fn in_flight() -> Gauge {
    registry().gauge(
        "gaze_http_in_flight",
        "Requests currently being parsed or handled",
    )
}

/// Counts one finished request and records its wall time.
pub(crate) fn note_request(route: &'static str, status: u16, us: u64) {
    let r = registry();
    r.counter_with(
        "gaze_http_requests_total",
        "HTTP requests served, by route and status class",
        &[("route", route), ("class", class_label(status))],
    )
    .inc();
    r.histogram_with(
        "gaze_http_request_duration_us",
        "Wall time from parsed request to written response, in microseconds",
        &[("route", route)],
    )
    .record(us);
}

/// Counts one job lifecycle transition (`to` ∈ queued, running, done,
/// failed).
pub(crate) fn note_job_transition(to: &'static str) {
    registry()
        .counter_with(
            "gaze_jobs_transitions_total",
            "Job lifecycle transitions, by destination state",
            &[("to", to)],
        )
        .inc();
}

/// Publishes the current wait-queue depth.
pub(crate) fn set_queue_depth(depth: usize) {
    registry()
        .gauge(
            "gaze_jobs_queue_depth",
            "Jobs waiting for an executor right now",
        )
        .set(depth as i64);
}

/// Records one finished job's wall time (running → done/failed).
pub(crate) fn note_job_duration(us: u64) {
    registry()
        .histogram(
            "gaze_job_duration_us",
            "Wall time of one async sweep job, in microseconds",
        )
        .record(us);
}

/// Counts one refused submission (`reason` ∈ queue_full, shutdown).
pub(crate) fn note_job_rejected(reason: &'static str) {
    registry()
        .counter_with(
            "gaze_jobs_rejected_total",
            "Job submissions refused at admission, by reason",
            &[("reason", reason)],
        )
        .inc();
}

/// Counts one submission absorbed by an identical in-flight job.
pub(crate) fn note_job_deduped() {
    registry()
        .counter(
            "gaze_jobs_deduped_total",
            "Submissions absorbed by an identical queued/running job",
        )
        .inc();
}

/// Refreshes the store-shape gauges (`gzr_store_*`) from a store
/// snapshot; called at scrape time so `/metrics` always shows the
/// current shape without a background sampler.
pub(crate) fn set_store_shape(rows: u64, mix_rows: u64, segments: u64, pending: u64) {
    let r = registry();
    r.gauge("gzr_store_rows", "Distinct single-core rows in the store")
        .set(rows as i64);
    r.gauge(
        "gzr_store_mix_rows",
        "Distinct multi-core mix rows in the store",
    )
    .set(mix_rows as i64);
    r.gauge("gzr_store_segments", "Segment files backing the store")
        .set(segments as i64);
    r.gauge(
        "gzr_store_pending",
        "Appended rows not yet flushed to a segment",
    )
    .set(pending as i64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_labels_are_bounded() {
        assert_eq!(route_label("/healthz"), "/healthz");
        assert_eq!(route_label("/metrics"), "/metrics");
        assert_eq!(route_label("/jobs"), "/jobs");
        assert_eq!(route_label("/jobs/job-1a2b-0"), "/jobs");
        assert_eq!(route_label("/jobs/job-1a2b-0/result"), "/jobs");
        assert_eq!(route_label("/experiments"), "/experiments");
        assert_eq!(route_label("/nope"), "other");
        // Every other path lands in the same 7 labels.
        assert_eq!(route_label("/jobs/job-1a2b-0/events"), "/jobs");
        assert_eq!(route_label("/figures/fig06"), "other");
        assert_eq!(route_label("/admin/compact"), "other");
        assert_eq!(route_label("/runs"), "/runs");
        assert_eq!(route_label("/specs"), "/specs");
    }

    #[test]
    fn status_classes_collapse() {
        assert_eq!(class_label(200), "2xx");
        assert_eq!(class_label(202), "2xx");
        assert_eq!(class_label(301), "3xx");
        assert_eq!(class_label(404), "4xx");
        assert_eq!(class_label(429), "4xx");
        assert_eq!(class_label(500), "5xx");
        assert_eq!(class_label(503), "5xx");
    }
}
