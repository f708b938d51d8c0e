//! `oreo-obs` — live observability for the OREO serving stack.
//!
//! Three pieces, each usable alone:
//!
//! * [`metrics`] — a lock-free [`Registry`] of named atomic
//!   [`Counter`]s, [`Gauge`]s, and fixed-size log-bucketed
//!   [`Histogram`]s. Histograms stream p50/p95/p99 without storing
//!   samples: 15 KiB of buckets per histogram, quantiles within
//!   [`RELATIVE_ERROR`] (one sub-bucket width, 1/32 ≈ 3.1%) of the
//!   exact sorted-sample answer, and mergeable across threads.
//! * [`journal`] — a bounded, seq-stamped structured [`Journal`] of
//!   [`EventKind`]s covering the query lifecycle (enqueue → pickup →
//!   scan → complete) and every policy decision (observe outcomes,
//!   switch decisions with cost deltas, reorg window phases, pool
//!   evictions, tiered degradations). Instrumented code holds an
//!   `Arc<dyn EventSink>`; the [`NullSink`] makes instrumentation free
//!   when disabled. A single-tenant run's journal replays to exactly
//!   the engine's `CostLedger`, on any number of workers.
//! * [`export`] — JSON / Prometheus-text renderings of a
//!   [`MetricsSnapshot`], a [`SnapshotWriter`] for periodic JSONL
//!   snapshot files, and [`render_trace`] for the human-readable
//!   decision trace.
//!
//! The crate is deliberately dependency-free (std only) so every layer
//! of the workspace — core, storage, engine, bench — can publish into
//! it without cycles.

pub mod export;
pub mod journal;
pub mod metrics;
pub mod registry;

pub use export::SnapshotWriter;
pub use journal::{render_trace, Event, EventKind, EventSink, Journal, NullSink, ReorgPhaseKind};
pub use metrics::{Counter, Gauge, Histogram, HistogramStats, NUM_BUCKETS, RELATIVE_ERROR};
pub use registry::{MetricValue, MetricsSnapshot, Registry};
