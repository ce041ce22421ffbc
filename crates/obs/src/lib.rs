//! Zero-dependency observability for the simulation pipeline.
//!
//! The paper's methodology is data-movement accounting: loads, stores,
//! hits, misses, and writebacks at every level feed the AMAT and energy
//! models. This crate makes that accounting *inspectable while it runs*
//! instead of only in the final report:
//!
//! * [`MetricsRegistry`] — named atomic counters, gauges, and
//!   power-of-two-bucket histograms. Workers update lock-free through
//!   `Arc` handles; readers snapshot consistently.
//! * [`span!`] — scoped span timers building a hierarchical phase-timing
//!   tree (trace generation → cache simulation → grid evaluation → replay)
//!   with monotonic wall times and per-span event counts.
//! * [`ProgressSampler`] — a sampler thread rendering live `--progress`
//!   (rate, ETA, structures walked) from epoch-published `progress.*`
//!   counters, never touching the hot path.
//! * [`export_json`] — the run manifest plus a full metrics dump as
//!   deterministic JSON (`--metrics-out`), and [`render_summary`] for the
//!   human table.
//! * [`recorder`] — a flight recorder of per-thread bounded ring buffers
//!   holding timestamped span/instant/counter events, drained into
//!   [`chrome_trace_json`] (Perfetto / chrome://tracing timelines, one
//!   lane per thread) for `--trace-out`.
//! * [`prometheus_text`] — the registry rendered as Prometheus text
//!   exposition (histograms become p50/p90/p99 summaries), served by the
//!   daemon's `/metrics` via content negotiation.
//!
//! # The enabled flag
//!
//! Everything is off by default. Instrumented code guards its probes with
//! [`enabled`] — a single relaxed atomic load — so a simulation run that
//! never asked for telemetry pays one predictable branch, not atomics, on
//! its hot path. The CLI flips the flag on for `--progress` /
//! `--metrics-out`.
//!
//! # Determinism
//!
//! [`set_deterministic`] zeroes span wall times in the export so two
//! identical runs emit byte-identical JSON — the property the golden
//! tests pin. Counter values are already deterministic because the
//! simulator itself is.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
mod export;
mod progress;
mod prometheus;
pub mod recorder;
pub mod registry;
pub mod span;

pub use chrome::chrome_trace_json;
pub use export::{export_json, json, render_summary};
pub use progress::ProgressSampler;
pub use prometheus::{prometheus_text, PROMETHEUS_CONTENT_TYPE};
pub use registry::{
    Counter, Gauge, Histogram, HistogramSnapshot, Metric, MetricValue, MetricsRegistry,
    HISTOGRAM_BUCKETS,
};
pub use span::{SpanGuard, SpanNode};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

static ENABLED: AtomicBool = AtomicBool::new(false);
static DETERMINISTIC: AtomicBool = AtomicBool::new(false);
static GLOBAL: MetricsRegistry = MetricsRegistry::new();

/// Is observability on? One relaxed load — the hot-path guard.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn observability on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Should exports suppress run-varying values (span wall times)?
#[inline]
pub fn deterministic() -> bool {
    DETERMINISTIC.load(Ordering::Relaxed)
}

/// Toggle deterministic export mode (see [module docs](self)).
pub fn set_deterministic(on: bool) {
    DETERMINISTIC.store(on, Ordering::Relaxed);
}

/// The process-global registry instrumented code publishes into.
pub fn global() -> &'static MetricsRegistry {
    &GLOBAL
}

/// Export the global registry as the deterministic `memsim-obs/1` JSON
/// document — the `/metrics` endpoint hook for long-lived processes (the
/// `memsim-server` daemon serves these bytes verbatim). Equivalent to
/// `export_json(manifest, global())`.
pub fn export_global(manifest: &[(&str, String)]) -> String {
    export_json(manifest, &GLOBAL)
}

/// Clear the global registry and the span tree (not the flags). Call
/// before enabling observability for a fresh run in a long-lived process.
pub fn reset() {
    GLOBAL.clear();
    span::reset();
}

#[doc(hidden)]
pub fn test_lock() -> MutexGuard<'static, ()> {
    // Tests that touch the process-global state (flags, registry, span
    // tree) serialize on this so `cargo test`'s parallel runner cannot
    // interleave them.
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_round_trip() {
        let _lock = test_lock();
        reset();
        global().counter("t.count").add(5);
        assert_eq!(global().counter_value("t.count"), Some(5));
        reset();
        assert!(global().is_empty());
    }

    #[test]
    fn flags_toggle() {
        let _lock = test_lock();
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        set_deterministic(true);
        assert!(deterministic());
        set_deterministic(false);
    }
}
