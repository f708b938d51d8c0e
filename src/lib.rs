//! # OREO — Online Re-organization Optimizer
//!
//! A from-scratch Rust reproduction of *“Dynamic Data Layout Optimization
//! with Worst-case Guarantees”* (ICDE 2024): an online algorithmic framework
//! that decides **when** to reorganize a partitioned dataset and **which**
//! data layout to switch to, minimizing combined query + reorganization
//! cost over an unknown query stream with a provably tight
//! `2·H(|S_max|)` competitive ratio (a dynamic variant of uniform metrical
//! task systems).
//!
//! This crate is a facade re-exporting the workspace's subsystems:
//!
//! * [`query`] — predicates, schemas, queries;
//! * [`storage`] — partitioned columnar tables, metadata, data skipping,
//!   and the on-disk generation store physical reorganization publishes to;
//! * [`sampling`] — sliding windows, reservoirs, R-TBS;
//! * [`layout`] — Range / Z-order / Qd-tree layout generation;
//! * [`core`] — the D-UMTS reorganizer, layout manager, and the assembled
//!   [`core::Oreo`] framework;
//! * [`workload`] — TPC-H/TPC-DS/telemetry-shaped datasets and drifting
//!   query streams;
//! * [`sim`] — the evaluation harness with every baseline from the paper;
//! * [`engine`] — the concurrent serving layer: multi-threaded
//!   snapshot-isolated scans with non-blocking background reorganization
//!   (the paper's Δ as a measured window);
//! * [`obs`] — live observability: the lock-free metrics registry,
//!   streaming log-bucketed histograms, the bounded structured event
//!   journal (policy decision trace), and the JSON/Prometheus exporters.
//!
//! ## Quickstart
//!
//! ```
//! use oreo::prelude::*;
//! use std::sync::Arc;
//!
//! // a dataset + workload shaped after the paper's TPC-H setting
//! let bundle = oreo::workload::tpch_bundle(5_000, 42);
//! let stream = bundle.stream(StreamConfig {
//!     total_queries: 600,
//!     segments: 3,
//!     seed: 7,
//!     ..Default::default()
//! });
//!
//! // OREO: start on the default arrival-order layout, generate Qd-tree
//! // candidates on the fly, let D-UMTS decide when to switch
//! let config = OreoConfig {
//!     alpha: 30.0,
//!     partitions: 16,
//!     data_sample_rows: 1_000,
//!     window: 100,
//!     generation_interval: 100,
//!     ..Default::default()
//! };
//! let initial = oreo::sim::default_spec(&bundle, config.partitions, 0);
//! let mut oreo = Oreo::new(
//!     Arc::clone(&bundle.table),
//!     initial,
//!     Arc::new(QdTreeGenerator::new()),
//!     config,
//! );
//! for q in &stream.queries {
//!     oreo.observe(q);
//! }
//! let ledger = oreo.ledger();
//! assert_eq!(ledger.queries, 600);
//! assert!(ledger.total() > 0.0);
//! ```

pub use oreo_core as core;
pub use oreo_engine as engine;
pub use oreo_layout as layout;
pub use oreo_obs as obs;
pub use oreo_query as query;
pub use oreo_sampling as sampling;
pub use oreo_sim as sim;
pub use oreo_storage as storage;
pub use oreo_workload as workload;

/// The most commonly used items in one import.
pub mod prelude {
    pub use oreo_core::{CostLedger, Dumts, DumtsConfig, Oreo, OreoConfig, TransitionPolicy};
    pub use oreo_engine::{Engine, EngineConfig, EngineStats, TenantSpec, TenantStats};
    pub use oreo_layout::{
        LayoutGenerator, LayoutSpec, QdTreeGenerator, RangeGenerator, RangeLayout, ZOrderGenerator,
    };
    pub use oreo_query::{ColumnType, Predicate, Query, QueryBuilder, Scalar, Schema};
    pub use oreo_storage::{
        LayoutModel, SnapshotCell, Table, TableBuilder, TableSnapshot, TieredStore,
    };
    pub use oreo_workload::{DatasetBundle, StreamConfig};
}
