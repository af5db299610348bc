//! `gas-obs`: observability for the GenomeAtScale reproduction.
//!
//! Three small pieces, no third-party dependencies:
//!
//! - [`trace`]: structured tracing — RAII [`Span`]s with phase tags,
//!   recorded into per-thread buffers and drained through a global
//!   recorder that is a guaranteed-cheap no-op while disabled
//!   (`GAS_TRACE=1` or [`set_enabled`]).
//! - [`metrics`]: a process-global registry of named counters, gauges
//!   and latency histograms ([`LatencyHistogram`] moved here from
//!   `gas_index::service`), snapshotted for export.
//! - [`export`]: hand-rolled Prometheus-text and JSON writers (both
//!   round-trip-parseable), folded-stacks dumps for flamegraphs, and the
//!   predicted-vs-measured collectives report.
//!
//! The serving stack (`gas-index`) and the simulator (`gas-dstsim`) hang
//! their instrumentation off this crate; it depends on nothing, so it
//! sits at the bottom of the workspace DAG.

#![forbid(unsafe_code)]

pub mod export;
pub mod hist;
pub mod metrics;
pub mod trace;

pub use export::{
    collective_cost_report, folded_stacks, metrics_to_json, parse_prometheus,
    render_collective_costs, to_prometheus, trace_to_json, CollectiveCost,
};
pub use hist::{LatencyHistogram, HISTOGRAM_BUCKETS};
pub use metrics::{
    counter, gauge, histogram, reset_metrics, snapshot, Counter, Gauge, Histogram, MetricsSnapshot,
};
pub use trace::{clear, set_enabled, span, take_events, trace_enabled, Span, TraceEvent};
