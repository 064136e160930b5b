//! Observability for the EVEREST pipeline: span tracing, metrics, and
//! Chrome-trace export.
//!
//! The crate has three layers:
//!
//! * [`trace`] — a thread-safe [`Tracer`] handing out RAII [`Span`]
//!   guards. Spans record name, category, start/end timestamps (µs),
//!   nesting (parent span ids), and `key=value` attributes. The global
//!   tracer defaults to a no-op that performs **no heap allocation per
//!   span**, so instrumented code costs nearly nothing when tracing is
//!   off.
//! * [`metrics`] — a [`MetricsRegistry`] of named counters, gauges, and
//!   HDR-style log-bucketed [`histogram`]s with percentile estimation
//!   and a serializable, mergeable [`MetricsSnapshot`].
//! * [`recorder`] — the always-on [`FlightRecorder`]: a bounded ring of
//!   recent structured events per thread, dumped on demand or when a
//!   runtime alarm fires. Reach it via [`flight`].
//! * [`export`] / [`openmetrics`] — exporters: Chrome trace-event JSON
//!   (loadable in `chrome://tracing` / Perfetto), a human-readable
//!   flame summary table, and OpenMetrics/Prometheus text.
//!
//! Instrumented crates call [`span`] / [`metrics`](fn@metrics)
//! unconditionally; a front-end (e.g. `everestc --trace`) opts in by
//! installing a recording tracer via [`install_global`].
//!
//! ```
//! use everest_telemetry as telemetry;
//!
//! telemetry::install_global(telemetry::Tracer::recording());
//! {
//!     let mut span = telemetry::span("compile", "sdk");
//!     span.attr("kernel", "fft");
//! }
//! let spans = telemetry::take_global().finish();
//! assert_eq!(spans.len(), 1);
//! let json = telemetry::export::chrome_trace_json(
//!     &telemetry::export::spans_to_events(&spans),
//! );
//! assert!(json.starts_with('['));
//! ```

pub mod export;
pub mod histogram;
pub mod metrics;
pub mod openmetrics;
pub mod recorder;
pub mod trace;

pub use export::TraceEvent;
pub use histogram::{HistogramSnapshot, LogHistogram};
pub use metrics::{MetricsRegistry, MetricsSnapshot};
pub use recorder::{
    EventKind, FlightBurst, FlightDump, FlightEvent, FlightRecorder, BURST_SLOTS,
    DEFAULT_RING_CAPACITY, RETIRED_RINGS,
};
pub use trace::{Span, SpanRecord, Tracer};

use parking_lot::RwLock;
use std::sync::atomic::{AtomicBool, Ordering};

static GLOBAL: RwLock<Tracer> = RwLock::new(Tracer::disabled());
/// Whether [`GLOBAL`] records. Written only under `GLOBAL`'s write lock,
/// so [`span`] can skip the lock entirely while tracing is off.
static TRACING: AtomicBool = AtomicBool::new(false);
static METRICS: MetricsRegistry = MetricsRegistry::new();
static FLIGHT: FlightRecorder = FlightRecorder::new();

/// Replaces the global tracer (usually with [`Tracer::recording`]).
pub fn install_global(tracer: Tracer) {
    let mut global = GLOBAL.write();
    TRACING.store(tracer.is_enabled(), Ordering::Release);
    *global = tracer;
}

/// A handle to the current global tracer.
pub fn global() -> Tracer {
    GLOBAL.read().clone()
}

/// Swaps the global tracer back to disabled and returns the old one, so
/// its spans can be [`Tracer::finish`]ed exactly once.
pub fn take_global() -> Tracer {
    let mut global = GLOBAL.write();
    TRACING.store(false, Ordering::Release);
    std::mem::take(&mut *global)
}

/// Opens a span on the global tracer. While the global tracer is
/// disabled this is one atomic load: no lock and no heap allocation.
pub fn span(name: &str, category: &str) -> Span {
    if !TRACING.load(Ordering::Acquire) {
        return Span::inert();
    }
    GLOBAL.read().span(name, category)
}

/// The process-wide metrics registry.
pub fn metrics() -> &'static MetricsRegistry {
    &METRICS
}

/// The process-wide flight recorder (always on, bounded overhead).
pub fn flight() -> &'static FlightRecorder {
    &FLIGHT
}

#[cfg(test)]
mod tests {
    use super::*;

    // The only unit test that touches the global tracer, so no other
    // test in this binary can observe the install.
    #[test]
    fn span_flag_follows_install_and_take() {
        assert!(!span("flag.before", "test").is_recording());
        install_global(Tracer::recording());
        {
            let span = span("flag.on", "test");
            assert!(span.is_recording());
        }
        let spans = take_global().finish();
        assert!(spans.iter().any(|s| s.name == "flag.on"));
        assert!(!span("flag.after", "test").is_recording(), "inert after take_global");
        install_global(Tracer::disabled());
        assert!(!span("flag.disabled", "test").is_recording());
    }
}
