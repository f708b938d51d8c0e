//! # oreo-engine
//!
//! The concurrent serving layer: OREO turned from a one-query-at-a-time
//! simulation into a system where scans and reorganizations *overlap*.
//!
//! * [`queue`] — a sharded, batching MPMC work queue front end;
//! * [`engine`] — the [`Engine`]: a scan worker pool over snapshot-isolated
//!   table state ([`oreo_storage::TableSnapshot`]), a mutex-serialized
//!   [`oreo_core::Oreo`] bookkeeping core, and a dedicated background
//!   reorganizer thread that builds target layouts aside and publishes them
//!   atomically without blocking readers;
//! * [`reorg`] — the background build + the [`ReorgWindow`] measurement:
//!   the paper's reorganization delay Δ (§VI-D5) as a *measured* wall-clock
//!   and query-count window, not a configured constant;
//! * `metrics` (private) — the run's statistics: the registry handles the
//!   hot paths publish into, and the [`EngineStats`] / [`TenantStats`]
//!   report [`Engine::shutdown`] reads back from them.
//!
//! The engine publishes into a live `oreo_obs::Registry` as it runs —
//! query/scan/reorg counters, streaming latency histograms, ledger and
//! α̂ gauges — and can journal every policy decision and query lifecycle
//! span ([`engine::ObsConfig`]): the journal replays to exactly the
//! engine's `CostLedger` (`oreo_core::CostLedger::replay`), on any number
//! of workers.
//!
//! With [`ServeMode::Tiered`] the engine backs every snapshot with an
//! [`oreo_storage::TieredStore`] generation directory: the reorganizer
//! persists its aside rewrite (write + fsync + atomic rename) *before* the
//! snapshot-pointer swap, readers pin the old generation until released,
//! and the run reports an empirical α — the measured rewrite cost over the
//! extrapolated full-scan cost ([`EngineStats::empirical_alpha`]) — from
//! the same stream that measures Δ, restoring Table I and §VI-D5 to one
//! experiment. Tiered scans read partition pages through a fixed-capacity
//! [`oreo_storage::BufferPool`] ([`EngineConfig::buffer_pool_bytes`]):
//! pool misses are real disk reads, hits are served from memory, and the
//! cold/warm split feeds [`EngineStats::alpha_cold`] /
//! [`EngineStats::alpha_warm`] so α̂ is extrapolated from measured *disk*
//! throughput instead of memory bandwidth.
//!
//! Bookkeeping (D-UMTS counters, layout-manager admission, the cost ledger)
//! runs through the same [`oreo_core::Oreo`] pieces as the simulator. Driven
//! in lockstep — each query submitted after [`Engine::drain`] returned for
//! the one before — the engine's decisions and ledger equal
//! [`oreo_core::Oreo::observe`]'s replay of the stream exactly (`oreo-sim`'s
//! `Schedule::Served`), on any number of workers.
//!
//! ## Quickstart
//!
//! ```
//! use oreo_engine::{Engine, EngineConfig};
//! use oreo_core::OreoConfig;
//! use oreo_layout::{QdTreeGenerator, RangeLayout};
//! use oreo_query::{ColumnType, QueryBuilder, Scalar, Schema};
//! use oreo_storage::TableBuilder;
//! use std::sync::Arc;
//!
//! let schema = Arc::new(Schema::from_pairs([("v", ColumnType::Int)]));
//! let mut b = TableBuilder::new(Arc::clone(&schema));
//! for i in 0..2_000i64 {
//!     b.push_row(&[Scalar::Int((i * 17) % 1_000)]);
//! }
//! let table = Arc::new(b.finish());
//!
//! let config = OreoConfig {
//!     alpha: 10.0,
//!     partitions: 8,
//!     window: 50,
//!     generation_interval: 50,
//!     data_sample_rows: 500,
//!     ..Default::default()
//! };
//! let initial = Arc::new(RangeLayout::from_sample(&table, 0, config.partitions));
//! let engine = Engine::start(
//!     Arc::clone(&table),
//!     initial,
//!     Arc::new(QdTreeGenerator::new()),
//!     config,
//!     EngineConfig { workers: 2, ..Default::default() },
//! );
//! for i in 0..200i64 {
//!     let lo = (i * 5) % 900;
//!     let q = QueryBuilder::new(&schema).between("v", lo, lo + 50).build();
//!     engine.submit(q);
//! }
//! engine.drain();
//! let stats = engine.shutdown();
//! assert_eq!(stats.queries, 200);
//! assert_eq!(stats.ledger.queries, 200);
//! ```

pub mod engine;
pub mod ingest;
mod metrics;
pub mod queue;
pub mod reorg;

pub use engine::{
    Engine, EngineConfig, ObsConfig, QueryOutcome, ResultHandle, ServeMode, TenantSpec,
};
pub use metrics::{EngineStats, TenantStats};
pub use oreo_storage::{ApplyReceipt, IngestOp};
pub use queue::ShardedQueue;
pub use reorg::{materialize, ReorgRequest, ReorgWindow};

#[cfg(test)]
mod tests {
    use super::*;
    use oreo_core::OreoConfig;
    use oreo_layout::{QdTreeGenerator, RangeLayout};
    use oreo_query::{ColumnType, Query, QueryBuilder, Scalar, Schema};
    use oreo_storage::{Table, TableBuilder};
    use std::sync::Arc;

    fn table(n: i64) -> Arc<Table> {
        let s = Arc::new(Schema::from_pairs([
            ("ts", ColumnType::Timestamp),
            ("a", ColumnType::Int),
            ("b", ColumnType::Int),
        ]));
        let mut b = TableBuilder::new(Arc::clone(&s));
        for i in 0..n {
            b.push_row(&[
                Scalar::Int(i),
                Scalar::Int((i * 7) % 1000),
                Scalar::Int((i * 13) % 1000),
            ]);
        }
        Arc::new(b.finish())
    }

    fn drifting_queries(t: &Arc<Table>, n: usize) -> Vec<Query> {
        (0..n)
            .map(|i| {
                let col = if i < n / 2 { "a" } else { "b" };
                let lo = ((i * 37) % 900) as i64;
                QueryBuilder::new(t.schema())
                    .between(col, lo, lo + 60)
                    .build()
                    .with_seq(i as u64)
            })
            .collect()
    }

    fn config() -> OreoConfig {
        OreoConfig {
            alpha: 5.0,
            window: 50,
            generation_interval: 50,
            data_sample_rows: 800,
            partitions: 16,
            seed: 11,
            ..Default::default()
        }
    }

    fn start(t: &Arc<Table>, oreo: OreoConfig, cfg: EngineConfig) -> Engine {
        let initial = Arc::new(RangeLayout::from_sample(t, 0, oreo.partitions));
        Engine::start(
            Arc::clone(t),
            initial,
            Arc::new(QdTreeGenerator::new()),
            oreo,
            cfg,
        )
    }

    #[test]
    fn concurrent_scans_return_exact_row_sets() {
        let t = table(2000);
        let queries = drifting_queries(&t, 300);
        let engine = start(
            &t,
            config(),
            EngineConfig {
                workers: 4,
                batch: 8,
                ..Default::default()
            },
        );
        let handles: Vec<_> = queries
            .iter()
            .map(|q| engine.submit_tracked(q.clone()))
            .collect();
        for (q, h) in queries.iter().zip(handles) {
            let out = h.wait();
            let expected: Vec<u32> = (0..t.num_rows() as u32)
                .filter(|&r| t.row_matches(r as usize, &q.predicate))
                .collect();
            assert_eq!(out.scan.matches, expected, "row set diverged at {}", q.seq);
        }
        let stats = engine.shutdown();
        assert_eq!(stats.queries, 300);
        // every decision was eventually built and published
        assert_eq!(stats.snapshots_published, stats.switches);
        assert_eq!(stats.windows.len() as u64, stats.switches);
        assert!(stats.switches >= 1, "stream never triggered a reorg");
    }

    #[test]
    fn measured_delay_lands_switches_at_publish_time() {
        let t = table(2000);
        let queries = drifting_queries(&t, 400);
        let engine = start(&t, config(), EngineConfig::default().with_workers(2));
        let initial = engine.pin().layout();
        for q in &queries {
            engine.submit(q.clone());
        }
        engine.drain();
        let stats = engine.shutdown();
        assert!(stats.switches >= 1);
        assert_ne!(
            stats.tenants[0].final_physical, initial,
            "measured switch never landed"
        );
        assert!(stats.mean_delta_queries().is_some());
        for w in &stats.windows {
            assert!(w.wall >= w.build);
            assert_eq!(w.rows, 2000);
        }
    }

    fn tmproot(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "oreo-engine-{tag}-{}-{}",
            std::process::id(),
            rand::random::<u32>()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Tiered serving: every publish commits an on-disk generation, old
    /// generations are garbage-collected once unpinned, and the same run
    /// yields an empirical α (write bill vs scan throughput) next to the
    /// measured Δ — in the report and in the live `alpha.hat` gauge alike.
    #[test]
    fn tiered_mode_persists_generations_and_measures_alpha() {
        let t = table(2000);
        let queries = drifting_queries(&t, 400);
        let root = tmproot("tiered");
        let prom = root.with_extension("prom");
        let engine = start(
            &t,
            config(),
            EngineConfig {
                workers: 2,
                obs: ObsConfig {
                    metrics_prom: Some(prom.clone()),
                    ..Default::default()
                },
                ..Default::default()
            }
            .tiered(&root),
        );
        let registry = Arc::clone(engine.registry());
        assert!(root.join("gen-000001").exists(), "initial gen persisted");
        for q in &queries {
            engine.submit(q.clone());
        }
        engine.drain();
        let store_gens = engine.tiered().expect("tiered store").generations_on_disk();
        assert!(!store_gens.is_empty());
        let stats = engine.shutdown();
        assert!(stats.switches >= 1, "stream never reorganized");
        assert_eq!(stats.mode.label(), "tiered");
        assert!(stats.tiered_errors.is_empty(), "{:?}", stats.tiered_errors);
        for w in &stats.windows {
            assert!(w.bytes_written > 0, "tiered rewrite wrote nothing");
            assert!(w.generation >= 2);
            assert!(w.wall >= w.build + w.write, "Δ window excludes the write");
        }
        // bytes accounting is on encoded file sizes and α is measurable
        assert!(stats.bytes_scanned > 0);
        assert!(stats.table_bytes > 0);
        assert!(stats.scan_seconds > 0.0);
        let alpha = stats.empirical_alpha().expect("α measurable");
        assert!(alpha > 0.0, "α = {alpha}");
        assert_eq!(
            stats.reorg_bytes_written(),
            stats.windows.iter().map(|w| w.bytes_written).sum::<u64>()
        );
        // The Prometheus dump at shutdown refreshes the derived gauges from
        // the drained counters: the live α̂ is the report's, one rule.
        let gauge = registry
            .snapshot()
            .gauge("alpha.hat")
            .expect("alpha.hat gauge");
        assert_eq!(
            gauge.to_bits(),
            alpha.to_bits(),
            "alpha.hat gauge {gauge} vs EngineStats::empirical_alpha {alpha}"
        );
        std::fs::remove_file(&prom).unwrap();
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// Memory-mode runs report scan bytes too (the satellite fix): the
    /// SnapshotScan byte accounting must make Memory and Tiered
    /// reports comparable.
    #[test]
    fn memory_mode_reports_scan_bytes() {
        let t = table(1000);
        let queries = drifting_queries(&t, 100);
        let engine = start(&t, config(), EngineConfig::default().with_workers(2));
        for q in &queries {
            engine.submit(q.clone());
        }
        engine.drain();
        let stats = engine.shutdown();
        assert_eq!(stats.mode, ServeMode::Memory);
        assert!(stats.bytes_scanned > 0, "memory scans must report bytes");
        assert!(stats.table_bytes > 0);
        for w in &stats.windows {
            assert_eq!(w.bytes_written, 0);
            assert_eq!(w.generation, 0);
        }
        // no physical rewrite → no empirical α (build-only ratios would
        // under-report Table I's write-inclusive quantity)
        assert_eq!(stats.empirical_alpha(), None);
    }

    /// Restarting a tiered engine on a root left behind by a previous run
    /// must not collide with the existing generations: the new engine
    /// continues the sequence and supersedes them.
    #[test]
    fn tiered_engine_restarts_on_existing_root() {
        let t = table(1200);
        let queries = drifting_queries(&t, 200);
        let root = tmproot("restart");
        let run = |expect_min_gen: u64| {
            let engine = start(
                &t,
                config(),
                EngineConfig {
                    workers: 1,
                    ..Default::default()
                }
                .tiered(&root),
            );
            for q in &queries {
                engine.submit(q.clone());
            }
            engine.drain();
            let current = engine.tiered().expect("tiered").current().number();
            assert!(current >= expect_min_gen, "{current} < {expect_min_gen}");
            engine.shutdown();
            current
        };
        let first = run(1);
        // second engine on the same root: continues past the survivor
        let second = run(first + 1);
        assert!(second > first);
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// A journal-enabled run on two workers, driven in lockstep: the
    /// drained event stream replays to the live ledger bit-for-bit, every
    /// query's lifecycle span is complete, and the registry's counters
    /// agree with the shutdown stats.
    #[test]
    fn journal_and_registry_track_a_fifo_run() {
        use oreo_core::CostLedger;
        use oreo_obs::EventKind;

        let t = table(2000);
        let queries = drifting_queries(&t, 300);
        let engine = start(
            &t,
            config(),
            EngineConfig::default()
                .with_workers(2)
                .with_journal_capacity(16_384),
        );
        for q in &queries {
            engine.submit(q.clone());
            engine.drain();
        }

        // live registry readable mid-flight (before shutdown)
        let snap = engine.registry().snapshot();
        assert_eq!(snap.counter("engine.queries_submitted"), Some(300));
        assert_eq!(snap.counter("engine.queries_completed"), Some(300));
        let latency = snap.histogram("engine.latency_us").expect("histogram");
        assert_eq!(latency.count, 300);

        let stats = engine.shutdown();
        assert_eq!(stats.events_dropped, 0, "journal sized for the run");
        assert!(!stats.events.is_empty());
        // seq-sorted and unique
        assert!(stats.events.windows(2).all(|w| w[0].seq < w[1].seq));
        // ledger replay parity (satellite: event-level EXACT)
        assert_eq!(CostLedger::replay(&stats.events), stats.ledger);
        // span coverage: each submit_id appears as enqueue → pickup →
        // scan → complete exactly once
        let count_of = |pred: &dyn Fn(&EventKind) -> bool| {
            stats.events.iter().filter(|e| pred(&e.kind)).count() as u64
        };
        assert_eq!(
            count_of(&|k| matches!(k, EventKind::QueryEnqueued { .. })),
            300
        );
        assert_eq!(
            count_of(&|k| matches!(k, EventKind::QueryPickup { .. })),
            300
        );
        assert_eq!(
            count_of(&|k| matches!(k, EventKind::QueryScanned { .. })),
            300
        );
        assert_eq!(
            count_of(&|k| matches!(k, EventKind::QueryCompleted { .. })),
            300
        );
        assert_eq!(
            count_of(&|k| matches!(k, EventKind::QueryObserved { .. })),
            stats.ledger.queries
        );
        assert_eq!(
            count_of(&|k| matches!(k, EventKind::SwitchDecided { .. })),
            stats.switches
        );
        // latency stats came from the histogram; count/max are exact
        assert_eq!(stats.latency.count, 300);
        assert!(stats.latency.p50 <= stats.latency.p99);
        // trace renders one line per event + header
        let trace = oreo_obs::render_trace(&stats.events);
        assert_eq!(trace.lines().count(), stats.events.len() + 1);
    }

    /// The metrics exporter emits ≥2 JSONL snapshots (initial + final),
    /// with cell label, elapsed time, and the required keys.
    #[test]
    fn exporter_writes_periodic_snapshots() {
        use engine::ObsConfig;

        let t = table(1500);
        let queries = drifting_queries(&t, 200);
        let dir = tmproot("metrics");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.jsonl");
        let engine = start(
            &t,
            config(),
            EngineConfig::default().with_workers(2).with_obs(ObsConfig {
                metrics_json: Some(path.clone()),
                metrics_interval: Some(std::time::Duration::from_millis(10)),
                label: "test-cell".into(),
                ..Default::default()
            }),
        );
        for q in &queries {
            engine.submit(q.clone());
        }
        engine.drain();
        let stats = engine.shutdown();
        assert_eq!(stats.queries, 200);

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 2, "want ≥2 snapshots, got {}", lines.len());
        for line in &lines {
            assert!(line.contains("\"cell\":\"test-cell\""));
            assert!(line.contains("\"elapsed_s\":"));
            assert!(line.contains("\"engine.latency_us\":{"));
        }
        // the final snapshot reflects the drained run
        let last = lines.last().unwrap();
        assert!(last.contains("\"engine.queries_completed\":200"));
        assert!(last.contains("\"pool.hit_rate\":"));
        assert!(last.contains("\"alpha.hat\":"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn sentinel_append(i: i64) -> IngestOp {
        // a-values ≥ 5000 are outside the base domain (base a,b < 1000), so
        // sentinel queries hit only ingested rows.
        IngestOp::Append {
            values: vec![
                Scalar::Int(10_000 + i),
                Scalar::Int(5_000 + i),
                Scalar::Int(0),
            ],
        }
    }

    /// The write path end to end (memory serving): appends/updates/deletes
    /// are immediately visible through the served overlay, a background
    /// reorganization folds them into the base under stable row ids, and
    /// answers are identical before and after the fold.
    #[test]
    fn ingest_is_visible_exact_and_folded() {
        let t = table(2000);
        let engine = start(
            &t,
            config(),
            EngineConfig {
                workers: 2,
                ..Default::default()
            },
        );
        for i in 0..40 {
            let r = engine.ingest(&[sentinel_append(i)]).unwrap();
            assert_eq!(r.appended, 1);
            assert_eq!(r.seq, i as u64 + 1);
        }
        // delete base rows 10..20, then update delta row 2000 (the first
        // append): tombstone + re-append under id 2040.
        let deletes: Vec<IngestOp> = (10u32..20).map(|row| IngestOp::Delete { row }).collect();
        assert_eq!(engine.ingest(&deletes).unwrap().deleted, 10);
        engine
            .ingest(&[IngestOp::Update {
                row: 2000,
                values: vec![Scalar::Int(10_000), Scalar::Int(5_000), Scalar::Int(0)],
            }])
            .unwrap();
        assert_eq!(engine.live_rows(), 2000 + 41 - 11);

        let q_delta = QueryBuilder::new(t.schema())
            .between("a", 5_000, 5_039)
            .build();
        let mut want_delta: Vec<u32> = (2001..2040).collect();
        want_delta.push(2040); // the update's re-append (a = 5000)
        let out = engine.submit_tracked(q_delta.clone()).wait();
        assert_eq!(out.scan.matches, want_delta, "delta rows served");

        let q_base = QueryBuilder::new(t.schema()).between("a", 70, 70).build();
        let want_base: Vec<u32> = (0..2000u32)
            .filter(|&r| (i64::from(r) * 7) % 1000 == 70 && !(10..20).contains(&r))
            .collect();
        let out = engine.submit_tracked(q_base.clone()).wait();
        assert_eq!(out.scan.matches, want_base, "tombstoned base rows hidden");

        // Drive the drifting stream until switches fold the deltas in.
        for q in drifting_queries(&t, 500) {
            engine.submit(q);
        }
        engine.drain();
        let out = engine.submit_tracked(q_delta).wait();
        assert_eq!(out.scan.matches, want_delta, "post-fold answers identical");
        let out = engine.submit_tracked(q_base).wait();
        assert_eq!(out.scan.matches, want_base);

        let stats = engine.shutdown();
        assert!(stats.switches >= 1, "stream never reorganized");
        assert!(stats.folds() >= 1, "no reorganization folded the deltas");
        assert_eq!(stats.folded_rows(), 41, "all delta rows folded once");
        assert_eq!(stats.ingest_batches, 42);
        assert_eq!(stats.rows_appended, 41);
        assert_eq!(stats.rows_deleted, 11);
        assert_eq!(stats.delta_rows, 0, "nothing left unfolded");
        assert!(stats.delta_bytes_scanned > 0, "pre-fold scans read runs");
        assert!(stats.write_amplification().unwrap() >= 1.0);
        // merge + fold work entered the ledger as compaction
        assert!(stats.ledger.compactions >= 41);
        assert!(stats.ledger.compaction_cost > 0.0);
        assert!(stats.ledger.total() > stats.ledger.query_cost + stats.ledger.reorg_cost);
    }

    /// Tiered serving: every accepted batch is WAL-logged before it is
    /// applied, folds GC the covered records, and the pooled byte
    /// accounting invariant holds with delta scans in the mix.
    #[test]
    fn tiered_ingest_wal_logs_and_folds_truncate() {
        let t = table(1500);
        let root = tmproot("ingest");
        let engine = start(
            &t,
            config(),
            EngineConfig {
                workers: 2,
                ..Default::default()
            }
            .tiered(&root),
        );
        let wal_path = root.join("wal.log");
        assert!(wal_path.exists(), "tiered engine opens a WAL");
        for i in 0..30 {
            engine.ingest(&[sentinel_append(i)]).unwrap();
        }
        let wal_size = std::fs::metadata(&wal_path).unwrap().len();
        assert!(wal_size > 8, "records appended past the magic");

        let q = QueryBuilder::new(t.schema())
            .between("a", 5_000, 5_029)
            .build();
        let want: Vec<u32> = (1500..1530).collect();
        let out = engine.submit_tracked(q.clone()).wait();
        assert_eq!(
            out.scan.matches, want,
            "deltas visible through pooled scans"
        );

        for q in drifting_queries(&t, 400) {
            engine.submit(q);
        }
        engine.drain();
        let out = engine.submit_tracked(q).wait();
        assert_eq!(out.scan.matches, want, "post-fold answers identical");

        let stats = engine.shutdown();
        assert!(stats.tiered_errors.is_empty(), "{:?}", stats.tiered_errors);
        assert!(stats.switches >= 1);
        assert!(stats.folds() >= 1);
        assert_eq!(stats.folded_rows(), 30);
        assert_eq!(stats.delta_rows, 0);
        assert!(
            std::fs::metadata(&wal_path).unwrap().len() < wal_size,
            "fold must truncate the covered WAL records"
        );
        assert_eq!(
            stats.io_cold_bytes + stats.io_cached_bytes + stats.delta_bytes_scanned,
            stats.bytes_scanned,
            "pooled byte accounting must stay exact with deltas"
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// A failed WAL (here: the path is a directory) degrades ingestion to
    /// memory-only — writes still succeed and serve, the reorganizer stays
    /// alive, and the degradation lands in `tiered_errors` (voiding α) —
    /// the same contract as failed tiered publishes.
    #[test]
    fn wal_failure_degrades_ingestion_not_the_engine() {
        let t = table(1200);
        let root = tmproot("waldir");
        std::fs::create_dir_all(root.join("wal.log")).unwrap();
        let engine = start(
            &t,
            config(),
            EngineConfig {
                workers: 1,
                ..Default::default()
            }
            .tiered(&root),
        );
        engine.ingest(&[sentinel_append(0)]).unwrap();
        let q = QueryBuilder::new(t.schema())
            .between("a", 5_000, 5_000)
            .build();
        let out = engine.submit_tracked(q).wait();
        assert_eq!(out.scan.matches, vec![1200], "memory-only ingest serves");
        for q in drifting_queries(&t, 300) {
            engine.submit(q);
        }
        engine.drain();
        let stats = engine.shutdown();
        assert!(!stats.tiered_errors.is_empty(), "degradation recorded");
        assert!(
            stats.tiered_errors[0].contains("wal open"),
            "{:?}",
            stats.tiered_errors
        );
        assert!(stats.switches >= 1, "reorganizer must stay alive");
        assert_eq!(stats.empirical_alpha(), None, "degraded run reports no α");
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// The worker's degrade path: a pooled scan that hits a damaged
    /// partition blob falls back to the in-memory snapshot — answers stay
    /// exact — and the failure voids α̂ in the shutdown report *and* in the
    /// live `alpha.*` gauges, which share one rule.
    #[test]
    fn damaged_partition_file_degrades_scans_and_voids_alpha() {
        use engine::ObsConfig;

        let t = table(2000);
        let root = tmproot("degrade");
        let prom_dir = tmproot("degrade-prom");
        std::fs::create_dir_all(&prom_dir).unwrap();
        let engine = start(
            &t,
            config(),
            EngineConfig {
                workers: 2,
                // one 64 KiB page for a 16-partition table: every scan
                // re-reads its partitions from disk
                buffer_pool_bytes: 1,
                ..Default::default()
            }
            .tiered(&root)
            // the shutdown dump is what refreshes the derived gauges
            .with_obs(ObsConfig {
                metrics_prom: Some(prom_dir.join("metrics.prom")),
                ..Default::default()
            }),
        );
        let registry = Arc::clone(engine.registry());

        // Healthy phase: run until a rewrite persisted, so α̂ is measurable
        // and only the degradation rule can void it. Draining waits out the
        // reorganizer, so the pinned generation is the one queries scan.
        for q in drifting_queries(&t, 400) {
            engine.submit(q);
        }
        engine.drain();
        assert!(engine.ledger().switches >= 1, "stream never reorganized");

        let pinned = engine.pin();
        let generation = pinned.generation().expect("tiered snapshot");
        // Partition 0's blob opens the segment: cut the file inside it.
        let victim = generation.dir().join("segment");
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&victim)
            .unwrap();
        file.set_len(16).unwrap();
        drop(file);

        // Every partition holds some `a` in 0..=999, so this reads them
        // all; twice, because the one-page pool may still hold partition
        // 0's page the first time round.
        let cover = QueryBuilder::new(t.schema()).between("a", 0, 999).build();
        let mut queries = vec![cover.clone(), cover];
        queries.extend(drifting_queries(&t, 100));
        for q in &queries {
            let out = engine.submit_tracked(q.clone()).wait();
            let expected: Vec<u32> = (0..t.num_rows() as u32)
                .filter(|&r| t.row_matches(r as usize, &q.predicate))
                .collect();
            assert_eq!(out.scan.matches, expected, "degraded scan lost rows");
        }
        drop(pinned);
        let stats = engine.shutdown();

        assert!(stats.scan_io_errors > 0, "no pooled scan hit the damage");
        assert_eq!(stats.empirical_alpha(), None);
        assert_eq!(stats.alpha_cold(), None);
        assert_eq!(stats.alpha_warm(), None);
        // Only the degradation voided α̂: the run measured both its sides.
        let snap = registry.snapshot();
        let counter = |name| snap.counter(name).expect("counter registered");
        assert!(counter("reorg.persisted") > 0, "no rewrite persisted");
        assert!(
            counter("engine.cold_scan_bytes") + counter("engine.warm_scan_bytes") > 0,
            "no scan bytes measured"
        );
        assert_eq!(
            snap.counter("engine.scan_io_errors"),
            Some(stats.scan_io_errors)
        );
        for gauge in ["alpha.hat", "alpha.cold", "alpha.warm"] {
            let v = snap.gauge(gauge).expect("gauge registered");
            assert!(v.is_nan(), "{gauge} = {v} after a degraded scan");
        }
        std::fs::remove_dir_all(&root).unwrap();
        std::fs::remove_dir_all(&prom_dir).unwrap();
    }

    /// Readers pinning concurrently with publishes never observe a snapshot
    /// that loses or duplicates rows — the epoch/CoW publish invariant.
    /// The publisher starts once every reader runs, and each reader pins
    /// before it first looks at `stop`, so the readers pin at least once
    /// however the threads are scheduled.
    #[test]
    fn pin_publish_never_loses_or_duplicates_rows() {
        use oreo_storage::{SnapshotCell, TableSnapshot};
        let t = table(600);
        let n = t.num_rows();
        let expected: Vec<u32> = (0..n as u32).collect();
        let cell = Arc::new(SnapshotCell::new(TableSnapshot::build(
            &t,
            &vec![0u32; n],
            1,
            0,
            "init",
        )));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let start = Arc::new(std::sync::Barrier::new(4));

        let publisher = {
            let cell = Arc::clone(&cell);
            let t = Arc::clone(&t);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                for gen in 1..40u32 {
                    let k = (gen % 7 + 1) as usize;
                    let assignment: Vec<u32> = (0..t.num_rows())
                        .map(|r| ((r as u32).wrapping_mul(gen)) % k as u32)
                        .collect();
                    cell.publish(TableSnapshot::build(
                        &t,
                        &assignment,
                        k,
                        u64::from(gen),
                        "gen",
                    ));
                }
            })
        };
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                let start = Arc::clone(&start);
                let expected = expected.clone();
                std::thread::spawn(move || {
                    let mut pins = 0u64;
                    let mut last_epoch = 0;
                    start.wait();
                    loop {
                        let snap = cell.pin();
                        assert!(snap.epoch() >= last_epoch, "epoch went backwards");
                        last_epoch = snap.epoch();
                        assert_eq!(snap.row_cover(), expected, "partition cover broken");
                        pins += 1;
                        if stop.load(std::sync::atomic::Ordering::Relaxed) {
                            break;
                        }
                    }
                    pins
                })
            })
            .collect();
        publisher.join().unwrap();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let total: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
        assert!(total > 0);
        assert_eq!(cell.epoch(), 40);
    }
}
