//! The serving layer's registered observability instruments.
//!
//! Every admission, completion, shed, timeout, and contained panic is
//! counted in the process-wide [`ucore_obs`] registry, rendered on
//! `GET /metrics` in the Prometheus exposition format. The serve-layer
//! metric-name contract (DESIGN.md §17):
//!
//! | name                       | type      | meaning                                        |
//! |----------------------------|-----------|------------------------------------------------|
//! | `serve.accepted`           | counter   | connections accepted by the listener           |
//! | `serve.requests`           | counter   | requests handed to a worker                    |
//! | `serve.responses_ok`       | counter   | 2xx responses written                          |
//! | `serve.responses_error`    | counter   | taxonomy-coded error responses written         |
//! | `serve.shed`               | counter   | connections shed by admission control (503)    |
//! | `serve.timeouts`           | counter   | requests that exceeded their deadline (504)    |
//! | `serve.panics`             | counter   | handler panics contained by the envelope       |
//! | `serve.ingress_rejected`   | counter   | connections rejected at the HTTP layer (4xx)   |
//! | `serve.bytes_out`          | counter   | response body bytes written                    |
//! | `serve.body_cache_hits`    | counter   | artifact requests answered from the body cache |
//! | `serve.queue_depth`        | gauge     | connections currently parked in the queue      |
//! | `serve.inflight`           | gauge     | requests currently executing in workers        |
//! | `serve.body_cache_entries` | gauge     | clean artifact bodies cached (at most 34)      |
//! | `serve.request_us`         | histogram | request wall time (µs; timing, non-golden)     |
//!
//! Counters and gauges are request-count-derived, so a scrape after a
//! known request sequence is deterministic; `serve.request_us` is
//! wall-clock timing and carries the `_us` suffix that
//! [`ucore_obs::is_timing_metric`] excludes from golden comparisons.

use std::sync::{Arc, OnceLock};
use ucore_obs::{Counter, Gauge, Histogram};

/// Upper bounds (µs) for the request wall-time histogram: fine from
/// 10 µs to 1 ms, where warm requests land, then coarse up to 2 s.
const REQUEST_US_BOUNDS: [f64; 13] = [
    10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 25000.0, 100000.0,
    500000.0, 2000000.0,
];

/// One `Arc` per instrument, resolved from the registry exactly once.
pub(crate) struct ServeMetrics {
    pub(crate) accepted: Arc<Counter>,
    pub(crate) requests: Arc<Counter>,
    pub(crate) responses_ok: Arc<Counter>,
    pub(crate) responses_error: Arc<Counter>,
    pub(crate) shed: Arc<Counter>,
    pub(crate) timeouts: Arc<Counter>,
    pub(crate) panics: Arc<Counter>,
    pub(crate) ingress_rejected: Arc<Counter>,
    pub(crate) bytes_out: Arc<Counter>,
    pub(crate) body_cache_hits: Arc<Counter>,
    pub(crate) queue_depth: Arc<Gauge>,
    pub(crate) inflight: Arc<Gauge>,
    pub(crate) body_cache_entries: Arc<Gauge>,
    pub(crate) request_us: Arc<Histogram>,
}

/// The crate's registered instruments.
pub(crate) fn metrics() -> &'static ServeMetrics {
    static METRICS: OnceLock<ServeMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = ucore_obs::registry();
        ServeMetrics {
            accepted: r.counter("serve.accepted"),
            requests: r.counter("serve.requests"),
            responses_ok: r.counter("serve.responses_ok"),
            responses_error: r.counter("serve.responses_error"),
            shed: r.counter("serve.shed"),
            timeouts: r.counter("serve.timeouts"),
            panics: r.counter("serve.panics"),
            ingress_rejected: r.counter("serve.ingress_rejected"),
            bytes_out: r.counter("serve.bytes_out"),
            body_cache_hits: r.counter("serve.body_cache_hits"),
            queue_depth: r.gauge("serve.queue_depth"),
            inflight: r.gauge("serve.inflight"),
            body_cache_entries: r.gauge("serve.body_cache_entries"),
            request_us: r.histogram("serve.request_us", &REQUEST_US_BOUNDS),
        }
    })
}
