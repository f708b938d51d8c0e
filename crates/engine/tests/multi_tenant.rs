//! Multi-tenant engine invariants.
//!
//! The load-bearing property of the N-tenant refactor is *per-tenant
//! ledger parity*: serving N tenants interleaved through one engine — one
//! worker pool, one buffer pool, one reorganizer — must produce, for
//! every tenant, a `CostLedger` byte-identical to an independent
//! single-tenant engine run over that tenant's substream alone. The tests
//! here drive interleaved query/ingest/fold streams (randomized and
//! deterministic, memory and tiered+pooled) against that oracle.

use oreo_core::OreoConfig;
use oreo_engine::{Engine, EngineConfig, EngineStats, ObsConfig, TenantSpec};
use oreo_layout::RangeLayout;
use oreo_obs::MetricsSnapshot;
use oreo_query::{ColumnType, Query, QueryBuilder, Scalar, Schema};
use oreo_storage::{IngestOp, Table, TableBuilder};
use proptest::prelude::*;
use std::sync::Arc;

fn table(kind: u64, n: i64) -> Arc<Table> {
    let schema = Arc::new(Schema::from_pairs([
        ("ts", ColumnType::Timestamp),
        ("a", ColumnType::Int),
        ("b", ColumnType::Int),
    ]));
    let mut b = TableBuilder::new(Arc::clone(&schema));
    for i in 0..n {
        b.push_row(&[
            Scalar::Int(i),
            Scalar::Int((i * (7 + kind as i64)) % 1000),
            Scalar::Int((i * (13 + kind as i64)) % 1000),
        ]);
    }
    Arc::new(b.finish())
}

fn oreo_config(seed: u64) -> OreoConfig {
    OreoConfig {
        alpha: 5.0,
        window: 40,
        generation_interval: 40,
        data_sample_rows: 400,
        partitions: 8,
        seed,
        ..Default::default()
    }
}

fn tenant_spec(name: &str, t: &Arc<Table>, oreo: OreoConfig) -> TenantSpec {
    TenantSpec {
        name: name.into(),
        table: Arc::clone(t),
        initial_spec: Arc::new(RangeLayout::from_sample(t, 0, oreo.partitions)),
        generator: Arc::new(oreo_layout::QdTreeGenerator::new()),
        oreo,
    }
}

fn tmproot(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "oreo-mt-{tag}-{}-{}",
        std::process::id(),
        rand::random::<u32>()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One step of a tenant's substream.
#[derive(Clone, Debug)]
enum Op {
    Query(Query),
    Ingest(Vec<IngestOp>),
}

/// Drive `script` through `engine` in lockstep: each query completes, and
/// the candidates it set off are admitted and the switch it decided lands,
/// before the next op runs. The quiesce after every query is what makes
/// fold contents — and therefore compaction charges — deterministic, so the
/// interleaved run is byte-comparable to the per-tenant oracles.
fn drive(engine: &Engine, script: &[(usize, Op)]) {
    for (tenant, op) in script {
        match op {
            Op::Query(q) => {
                engine.submit_to(*tenant, q.clone());
                engine.drain();
            }
            Op::Ingest(ops) => {
                engine.ingest_to(*tenant, ops).expect("ingest accepted");
            }
        }
    }
}

/// The oracle: the tenant's substream alone, through a fresh single-tenant
/// engine with the same configuration.
fn run_solo(t: &Arc<Table>, oreo: OreoConfig, config: EngineConfig, ops: &[Op]) -> EngineStats {
    let initial = Arc::new(RangeLayout::from_sample(t, 0, oreo.partitions));
    let engine = Engine::start(
        Arc::clone(t),
        initial,
        Arc::new(oreo_layout::QdTreeGenerator::new()),
        oreo,
        config,
    );
    let script: Vec<(usize, Op)> = ops.iter().map(|op| (0, op.clone())).collect();
    drive(&engine, &script);
    engine.shutdown()
}

/// Three sentinel appends outside the base domain (a, b < 1000), numbered
/// from `base`.
fn sentinel_batch(base: i64) -> Vec<IngestOp> {
    (base..base + 3)
        .map(|i| IngestOp::Append {
            values: vec![
                Scalar::Int(10_000 + i),
                Scalar::Int(5_000 + i),
                Scalar::Int(0),
            ],
        })
        .collect()
}

/// Materialize a proptest-generated `(tenant, kind, param)` trace into the
/// interleaved script plus each tenant's substream (identical objects, so
/// any divergence is the engine's, not the generator's).
fn materialize(tables: &[Arc<Table>], trace: &[(u8, u8, u16)]) -> (Vec<(usize, Op)>, Vec<Vec<Op>>) {
    let n = tables.len();
    let mut script = Vec::with_capacity(trace.len());
    let mut per_tenant: Vec<Vec<Op>> = vec![Vec::new(); n];
    let mut query_seq = vec![0u64; n];
    let mut ingest_seq = vec![0i64; n];
    for &(tenant, kind, param) in trace {
        let tenant = tenant as usize % n;
        let op = if kind < 8 {
            let col = if kind % 2 == 0 { "a" } else { "b" };
            let lo = i64::from(param) % 900;
            let q = QueryBuilder::new(tables[tenant].schema())
                .between(col, lo, lo + 60)
                .build()
                .with_seq(query_seq[tenant]);
            query_seq[tenant] += 1;
            Op::Query(q)
        } else {
            let base = ingest_seq[tenant];
            ingest_seq[tenant] += 3;
            Op::Ingest(sentinel_batch(base))
        };
        per_tenant[tenant].push(op.clone());
        script.push((tenant, op));
    }
    (script, per_tenant)
}

/// Assert tenant `i` of the interleaved run matches its solo oracle
/// exactly — ledger byte-for-byte, switch count, and final layouts.
fn assert_tenant_parity(multi: &EngineStats, i: usize, solo: &EngineStats, label: &str) {
    let (ten, solo_ten) = (&multi.tenants[i], &solo.tenants[0]);
    assert_eq!(
        ten.ledger, solo.ledger,
        "{label}: tenant {i} ledger diverged from its solo run"
    );
    assert_eq!(ten.switches, solo.switches, "{label}: tenant {i} switches");
    assert_eq!(
        ten.final_physical, solo_ten.final_physical,
        "{label}: tenant {i} physical layout"
    );
    assert_eq!(
        ten.final_logical, solo_ten.final_logical,
        "{label}: tenant {i} logical layout"
    );
}

fn parity_case(trace: &[(u8, u8, u16)], tiered: bool) {
    let tables = [table(0, 1200), table(3, 1200)];
    let (script, per_tenant) = materialize(&tables, trace);
    let names = ["alpha", "beta"];
    let (config, root) = if tiered {
        let root = tmproot("parity");
        (
            EngineConfig::default().with_workers(2).tiered(&root),
            Some(root),
        )
    } else {
        (EngineConfig::default().with_workers(2), None)
    };
    let specs = (0..2)
        .map(|i| tenant_spec(names[i], &tables[i], oreo_config(17 + i as u64)))
        .collect();
    let engine = Engine::start_tenants(specs, config);
    drive(&engine, &script);
    let multi = engine.shutdown();
    assert!(multi.tiered_errors.is_empty(), "{:?}", multi.tiered_errors);
    for i in 0..2 {
        let (solo_cfg, solo_root) = if tiered {
            let r = tmproot(names[i]);
            (EngineConfig::default().with_workers(2).tiered(&r), Some(r))
        } else {
            (EngineConfig::default().with_workers(2), None)
        };
        let solo = run_solo(
            &tables[i],
            oreo_config(17 + i as u64),
            solo_cfg,
            &per_tenant[i],
        );
        assert!(solo.tiered_errors.is_empty(), "{:?}", solo.tiered_errors);
        let label = if tiered { "tiered" } else { "memory" };
        assert_tenant_parity(&multi, i, &solo, label);
        if let Some(r) = solo_root {
            let _ = std::fs::remove_dir_all(r);
        }
    }
    if let Some(r) = root {
        let _ = std::fs::remove_dir_all(r);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6 })]

    /// Random interleavings of two tenants' query/ingest/fold streams:
    /// per-tenant ledgers must be byte-identical to independent
    /// single-tenant runs, in memory serving.
    #[test]
    fn interleaved_tenants_match_solo_runs_memory(
        trace in proptest::collection::vec((0..2u8, 0..10u8, any::<u16>()), 40..90)
    ) {
        parity_case(&trace, false);
    }

    /// The same invariant through the full disk path: tiered stores under
    /// per-tenant subdirectories, scans through the one shared buffer
    /// pool, folds persisting generations.
    #[test]
    fn interleaved_tenants_match_solo_runs_tiered(
        trace in proptest::collection::vec((0..2u8, 0..10u8, any::<u16>()), 30..60)
    ) {
        parity_case(&trace, true);
    }
}

/// Every admission wait and every acquisition of a tenant's core mutex the
/// fleet series counts is counted in exactly one tenant's series too. Read
/// it on a drained engine: a sample is recorded in the fleet series just
/// before its tenant's.
fn assert_core_histograms_add_up(snap: &MetricsSnapshot, tenants: usize) {
    for metric in [
        "core.admission_wait_us",
        "core.lock_wait_us",
        "core.lock_hold_us",
    ] {
        let count = |prefix: &str| {
            let name = format!("{prefix}{metric}");
            snap.histogram(&name)
                .unwrap_or_else(|| panic!("{name} registered"))
                .count
        };
        let per_tenant: u64 = (0..tenants).map(|i| count(&format!("tenant.{i}."))).sum();
        assert_eq!(count(""), per_tenant, "{metric}: fleet != Σ tenants");
    }
}

/// Deterministic three-tenant fold parity through tiered+pooled serving,
/// plus the layout/namespace contracts the refactor promises: per-tenant
/// store subdirectories, per-tenant metric namespaces next to intact
/// aggregate series, and per-tenant stats that add up to the fleet's.
#[test]
fn three_tenants_fold_parity_and_namespaces_tiered() {
    let tables = [table(0, 1500), table(2, 1500), table(5, 1500)];
    let names = ["orders", "events", "logs"];
    let root = tmproot("three");
    // A fixed interleave with queries drifting from column a to b (forcing
    // switches + folds) and ingest bursts on every tenant.
    let trace: Vec<(u8, u8, u16)> = (0..240)
        .map(|i| {
            let tenant = (i % 3) as u8;
            let kind = if i % 11 == 7 {
                9 // ingest burst
            } else if i < 120 {
                0 // column a
            } else {
                1 // column b
            };
            (tenant, kind, (i as u16).wrapping_mul(37) % 900)
        })
        .collect();
    let (script, per_tenant) = materialize(&tables, &trace);
    let specs = (0..3)
        .map(|i| tenant_spec(names[i], &tables[i], oreo_config(29 + i as u64)))
        .collect();
    let engine =
        Engine::start_tenants(specs, EngineConfig::default().with_workers(2).tiered(&root));
    // Tenant stores live under per-tenant subdirectories of one data dir.
    for name in names {
        assert!(
            root.join(format!("tenant-{name}"))
                .join("gen-000001")
                .exists(),
            "tenant-{name} store not created"
        );
        assert!(
            root.join(format!("tenant-{name}")).join("wal.log").exists(),
            "tenant-{name} WAL not created"
        );
    }
    drive(&engine, &script);

    // Per-tenant metric namespaces exist and agree with the aggregates.
    let snap = engine.registry().snapshot();
    let mut per_tenant_completed = 0;
    for i in 0..3 {
        let c = snap
            .counter(&format!("tenant.{i}.engine.queries_completed"))
            .expect("per-tenant series registered");
        assert!(c > 0, "tenant {i} served no queries?");
        per_tenant_completed += c;
    }
    assert_eq!(
        snap.counter("engine.queries_completed"),
        Some(per_tenant_completed),
        "aggregate must equal the sum of tenant series"
    );
    assert_core_histograms_add_up(&snap, 3);

    let multi = engine.shutdown();
    assert!(multi.tiered_errors.is_empty(), "{:?}", multi.tiered_errors);
    assert_eq!(multi.tenants.len(), 3);
    assert_eq!(
        multi.queries,
        multi.tenants.iter().map(|t| t.queries).sum::<u64>()
    );
    assert!(
        multi.tenants.iter().all(|t| t.switches >= 1),
        "every tenant's drift should reorganize: {:?}",
        multi.tenants.iter().map(|t| t.switches).collect::<Vec<_>>()
    );
    // Windows are tagged with their tenant and every tenant shows up.
    for name in names {
        assert!(
            multi.windows.iter().any(|w| w.tenant == name),
            "no window for {name}"
        );
    }
    for i in 0..3 {
        let solo_root = tmproot(names[i]);
        let solo = run_solo(
            &tables[i],
            oreo_config(29 + i as u64),
            EngineConfig::default().with_workers(2).tiered(&solo_root),
            &per_tenant[i],
        );
        assert_tenant_parity(&multi, i, &solo, "three-tenant tiered");
        let _ = std::fs::remove_dir_all(solo_root);
    }
    std::fs::remove_dir_all(&root).unwrap();
}

/// A single-tenant engine must not grow tenant-namespaced series — PR 8's
/// registry schema is frozen for the N = 1 case.
#[test]
fn single_tenant_registry_schema_is_unchanged() {
    let t = table(0, 800);
    let engine = Engine::start(
        Arc::clone(&t),
        Arc::new(RangeLayout::from_sample(&t, 0, 8)),
        Arc::new(oreo_layout::QdTreeGenerator::new()),
        oreo_config(1),
        EngineConfig::default().with_workers(2),
    );
    for i in 0..50i64 {
        let q = QueryBuilder::new(t.schema())
            .between("a", (i * 11) % 800, (i * 11) % 800 + 40)
            .build();
        engine.submit(q);
    }
    engine.drain();
    let snap = engine.registry().snapshot();
    assert_eq!(snap.counter("engine.queries_completed"), Some(50));
    assert_eq!(
        snap.counter("tenant.0.engine.queries_completed"),
        None,
        "single-tenant runs must not register tenant namespaces"
    );
    let stats = engine.shutdown();
    assert_eq!(stats.tenants.len(), 1);
    assert_eq!(stats.tenants[0].name, "default");
    assert_eq!(stats.tenants[0].queries, 50);
    assert_eq!(stats.tenants[0].ledger, stats.ledger);
}

/// The fleet-sum gauges: with two tenants ingesting different volumes,
/// the aggregate `ingest.wal_bytes` / `ingest.delta_rows` are the sum of
/// the tenants' series — not the last writer's value — and equal what
/// `EngineStats` reports, before and after folds.
#[test]
fn ingest_gauges_aggregate_as_fleet_sums() {
    let tables = [table(0, 1200), table(3, 1200)];
    let names = ["big", "small"];
    let root = tmproot("gauges");
    let specs = (0..2)
        .map(|i| tenant_spec(names[i], &tables[i], oreo_config(61 + i as u64)))
        .collect();
    let engine =
        Engine::start_tenants(specs, EngineConfig::default().with_workers(2).tiered(&root));
    let registry = Arc::clone(engine.registry());
    // Tenant 0 writes five batches, tenant 1 two — and writes last.
    for i in 0..5 {
        engine.ingest_to(0, &sentinel_batch(3 * i)).unwrap();
    }
    for i in 0..2 {
        engine.ingest_to(1, &sentinel_batch(3 * i)).unwrap();
    }
    let fleet = |series: &str| {
        let snap = registry.snapshot();
        let tenants: Vec<f64> = (0..2)
            .map(|i| snap.gauge(&format!("tenant.{i}.{series}")).unwrap())
            .collect();
        (snap.gauge(series).unwrap(), tenants)
    };
    let wal_on_disk = || -> u64 {
        names
            .iter()
            .map(|n| {
                let wal = root.join(format!("tenant-{n}")).join("wal.log");
                std::fs::metadata(wal).unwrap().len()
            })
            .sum()
    };
    let (delta_rows, per_tenant) = fleet("ingest.delta_rows");
    assert_eq!(per_tenant, [15.0, 6.0]);
    assert_eq!(delta_rows, 21.0, "aggregate holds one tenant's value");
    let (wal_bytes, per_tenant) = fleet("ingest.wal_bytes");
    assert!(per_tenant[0] > per_tenant[1] && per_tenant[1] > 8.0);
    assert_eq!(wal_bytes, per_tenant[0] + per_tenant[1]);
    assert_eq!(wal_bytes, wal_on_disk() as f64);

    // Drift tenant 0 until a switch folds its deltas and truncates its log;
    // tenant 1 stays unfolded.
    let script: Vec<(usize, Op)> = (0..200)
        .map(|i| {
            let col = if i < 100 { "a" } else { "b" };
            let lo = (i * 37) % 900;
            let q = QueryBuilder::new(tables[0].schema())
                .between(col, lo, lo + 60)
                .build()
                .with_seq(i as u64);
            (0, Op::Query(q))
        })
        .collect();
    drive(&engine, &script);
    let wal_at_rest = wal_on_disk();
    let stats = engine.shutdown();
    assert!(stats.folds() >= 1, "tenant 0 never folded");
    let (delta_rows, per_tenant) = fleet("ingest.delta_rows");
    assert_eq!(per_tenant, [0.0, 6.0]);
    assert_eq!(delta_rows, stats.delta_rows as f64);
    assert_eq!(stats.delta_rows, 6);
    let (wal_bytes, per_tenant) = fleet("ingest.wal_bytes");
    assert_eq!(wal_bytes, per_tenant[0] + per_tenant[1]);
    assert_eq!(wal_bytes, stats.wal_bytes as f64);
    assert_eq!(stats.wal_bytes, wal_at_rest);
    std::fs::remove_dir_all(&root).unwrap();
}

/// α̂ as the engine defines it, recomputed from the `prefix` series of a
/// drained registry: the mean rewrite time over the time a full scan of
/// `alpha.table_bytes` takes at the measured scan throughput — of the cold
/// scans when there are any, of all scans otherwise. `None` before a
/// rewrite was persisted or after a degradation.
fn alpha_hat_from_counters(snap: &MetricsSnapshot, prefix: &str) -> Option<f64> {
    let c = |name: &str| snap.counter(&format!("{prefix}{name}")).unwrap();
    let table_bytes = snap.gauge(&format!("{prefix}alpha.table_bytes")).unwrap();
    let persisted = c("reorg.persisted");
    let degraded = c("engine.scan_io_errors") + c("reorg.tiered_errors") > 0;
    if degraded || persisted == 0 || table_bytes.is_nan() || table_bytes <= 0.0 {
        return None;
    }
    let rewrite_seconds = c("reorg.persist_ns") as f64 / 1e9 / persisted as f64;
    let (cold_bytes, cold_ns) = (c("engine.cold_scan_bytes"), c("engine.cold_scan_ns"));
    let (bytes, ns) = if cold_bytes > 0 && cold_ns > 0 {
        (cold_bytes, cold_ns)
    } else {
        (
            cold_bytes + c("engine.warm_scan_bytes"),
            cold_ns + c("engine.warm_scan_ns"),
        )
    };
    let bytes_per_second = bytes as f64 / (ns as f64 / 1e9);
    (bytes > 0 && ns > 0).then(|| rewrite_seconds / (table_bytes / bytes_per_second))
}

/// Each tenant's derived gauges come from its own counters: after a
/// two-tenant tiered lockstep run, `tenant.<i>.alpha.hat` is that tenant's
/// α̂ and `tenant.<i>.engine.qps` its own rate, while the one shared pool
/// has no per-tenant series. Every view's queue-wait histogram holds one
/// sample per query it completed, and its construct-time histogram one per
/// boundary it built.
#[test]
fn tenant_views_carry_their_own_derived_gauges_and_queue_waits() {
    let tables = [table(0, 1200), table(3, 1200)];
    let names = ["drifting", "steady"];
    let root = tmproot("derived");
    let prom = root.with_extension("prom");
    let specs = (0..2)
        .map(|i| tenant_spec(names[i], &tables[i], oreo_config(83 + i as u64)))
        .collect();
    // The Prometheus dump at shutdown refreshes the derived gauges.
    let config = EngineConfig {
        workers: 2,
        obs: ObsConfig {
            metrics_prom: Some(prom.clone()),
            ..Default::default()
        },
        ..Default::default()
    };
    let engine = Engine::start_tenants(specs, config.tiered(&root));
    let registry = Arc::clone(engine.registry());
    // Tenant 0 drifts from column a to b, so it rewrites; tenant 1 stays on
    // a.
    let script: Vec<(usize, Op)> = (0..320)
        .map(|i| {
            let tenant = i % 2;
            let col = if tenant == 0 && i >= 160 { "b" } else { "a" };
            let lo = ((i * 37) % 900) as i64;
            let q = QueryBuilder::new(tables[tenant].schema())
                .between(col, lo, lo + 60)
                .build()
                .with_seq((i / 2) as u64);
            (tenant, Op::Query(q))
        })
        .collect();
    drive(&engine, &script);
    let stats = engine.shutdown();
    assert!(stats.tiered_errors.is_empty(), "{:?}", stats.tiered_errors);
    assert!(stats.tenants[0].switches >= 1, "tenant 0 never rewrote");
    let snap = registry.snapshot();
    let hat = snap.gauge("tenant.0.alpha.hat").expect("registered");
    let want = alpha_hat_from_counters(&snap, "tenant.0.").expect("tenant 0's α̂");
    assert!(hat.is_finite(), "tenant.0.alpha.hat = {hat}");
    assert!(
        (hat - want).abs() <= 1e-12 * want,
        "tenant.0.alpha.hat {hat} vs tenant 0's counters {want}"
    );
    let tenant_1 = snap.gauge("tenant.1.alpha.hat").expect("registered");
    match alpha_hat_from_counters(&snap, "tenant.1.") {
        Some(want) => assert!((tenant_1 - want).abs() <= 1e-12 * want),
        None => assert!(tenant_1.is_nan()),
    }
    let qps = |prefix: &str| snap.gauge(&format!("{prefix}engine.qps")).unwrap();
    assert!(qps("tenant.1.") > 0.0 && qps("tenant.1.") < qps(""));
    assert!(snap.gauge("pool.hit_rate").is_some());
    for i in 0..2 {
        assert!(
            snap.get(&format!("tenant.{i}.pool.hit_rate")).is_none(),
            "the shared pool has no per-tenant series"
        );
    }
    for prefix in ["", "tenant.0.", "tenant.1."] {
        let waits = snap
            .histogram(&format!("{prefix}engine.queue_wait_us"))
            .expect("registered");
        assert_eq!(
            Some(waits.count),
            snap.counter(&format!("{prefix}engine.queries_completed")),
            "{prefix}engine.queue_wait_us"
        );
        let constructs = snap
            .histogram(&format!("{prefix}core.construct_us"))
            .expect("registered");
        assert_eq!(
            Some(constructs.count),
            snap.counter(&format!("{prefix}core.candidates_built")),
            "{prefix}core.construct_us"
        );
    }
    std::fs::remove_file(&prom).unwrap();
    std::fs::remove_dir_all(&root).unwrap();
}

/// Cost conservation on the multi-worker engine: with every query tracked,
/// the per-query scan accounting handed back in `QueryOutcome` sums to the
/// `EngineStats` totals, and — where per-tenant fields exist — to the sum
/// of `TenantStats`. Four workers, two tenants, tiered + pooled, with
/// ingest in the mix so every summed field is non-zero. In the same run
/// every decided switch publishes, and the
/// reorganizer runs each tenant's switches in decision order.
#[test]
fn scan_accounting_is_conserved_across_workers_and_tenants() {
    let tables = [table(0, 1500), table(4, 1500)];
    let names = ["left", "right"];
    let root = tmproot("conserve");
    let specs = (0..2)
        .map(|i| tenant_spec(names[i], &tables[i], oreo_config(71 + i as u64)))
        .collect();
    let engine = Engine::start_tenants(
        specs,
        EngineConfig {
            workers: 4,
            batch: 4,
            ..Default::default()
        }
        .tiered(&root),
    );
    let mut handles = Vec::new();
    for i in 0..300i64 {
        for (tenant, t) in tables.iter().enumerate() {
            if i % 25 == 0 {
                engine.ingest_to(tenant, &sentinel_batch(3 * i)).unwrap();
            }
            // drifting ranges, plus the odd query that reaches the deltas
            let q = if i % 10 == 9 {
                QueryBuilder::new(t.schema()).between("a", 5_000, 6_000)
            } else {
                let col = if i < 150 { "a" } else { "b" };
                let lo = (i * 37) % 900;
                QueryBuilder::new(t.schema()).between(col, lo, lo + 60)
            };
            handles.push((tenant, engine.submit_tracked_to(tenant, q.build())));
        }
    }
    // [rows_read, matches, bytes, cold, cached, chunks, delta bytes,
    //  partitions read, partitions covered, columns decoded, frames decided]
    let mut total = [0u64; 11];
    let mut per_tenant = [[0u64; 11]; 2];
    for (tenant, handle) in handles {
        let scan = handle.wait().scan;
        let fields = [
            scan.rows_read,
            scan.matches.len() as u64,
            scan.bytes_scanned,
            scan.io_cold_bytes,
            scan.io_cached_bytes,
            scan.chunks_evaluated,
            scan.delta_bytes_scanned,
            scan.partitions_read as u64,
            scan.partitions_covered as u64,
            scan.columns_decoded,
            scan.frames_decided,
        ];
        for (slot, v) in fields.into_iter().enumerate() {
            total[slot] += v;
            per_tenant[tenant][slot] += v;
        }
    }
    engine.drain();
    assert_core_histograms_add_up(&engine.registry().snapshot(), 2);
    let stats = engine.shutdown();
    assert_eq!(stats.scan_io_errors, 0, "a fallback would void the sums");
    assert_eq!(
        total,
        [
            stats.rows_scanned,
            stats.rows_matched,
            stats.bytes_scanned,
            stats.io_cold_bytes,
            stats.io_cached_bytes,
            stats.chunks_evaluated,
            stats.delta_bytes_scanned,
            stats.partitions_read,
            stats.partitions_covered,
            stats.columns_decoded,
            stats.frames_decided,
        ],
        "Σ QueryOutcome.scan != EngineStats"
    );
    // Every partition here is one frame of at most 1024 rows, and a frame
    // its partition's min/max left undecided straddles the range: no
    // header decides one, so frames decided sums zeros (the storage tests
    // cover multi-frame partitions).
    assert!(
        total[..10].iter().all(|&v| v > 0),
        "a summed field stayed 0: {total:?}"
    );
    assert_eq!(stats.queries, 600);
    for (i, ten) in stats.tenants.iter().enumerate() {
        assert_eq!(ten.queries, 300, "{}", ten.name);
        assert_eq!(ten.io_cold_bytes, per_tenant[i][3], "{}", ten.name);
        assert_eq!(ten.io_cached_bytes, per_tenant[i][4], "{}", ten.name);
        assert_eq!(ten.partitions_read, per_tenant[i][7], "{}", ten.name);
        assert_eq!(ten.partitions_covered, per_tenant[i][8], "{}", ten.name);
        assert_eq!(ten.columns_decoded, per_tenant[i][9], "{}", ten.name);
        assert_eq!(ten.frames_decided, per_tenant[i][10], "{}", ten.name);
    }
    assert_eq!(
        stats
            .tenants
            .iter()
            .map(|t| t.snapshots_published)
            .sum::<u64>(),
        stats.snapshots_published
    );
    for ten in &stats.tenants {
        assert_eq!(
            ten.snapshots_published, ten.switches,
            "{}: a decided switch never published",
            ten.name
        );
        let seqs: Vec<u64> = stats
            .windows
            .iter()
            .filter(|w| w.tenant == ten.name)
            .map(|w| w.decided_seq)
            .collect();
        assert!(
            seqs.is_sorted(),
            "{}: windows out of decision order: {seqs:?}",
            ten.name
        );
    }
    assert!(
        stats.tenants.iter().any(|t| t.switches >= 1),
        "the drift never reorganized a tenant"
    );
    assert_eq!(stats.windows.len() as u64, stats.switches);
    std::fs::remove_dir_all(&root).unwrap();
}

/// Tiered serving stores each tenant under `root/tenant-<name>/`, so a name
/// holding a path separator or `..` would create a store, sweep generations
/// and remove a `wal.log` outside `root`. The engine refuses it at start.
#[test]
#[should_panic(expected = "tenant name")]
fn tenant_name_cannot_escape_the_tiered_root() {
    let t = table(0, 200);
    let root = tmproot("escape").join("root");
    let specs = ["ok", "a/../../x"]
        .into_iter()
        .map(|name| tenant_spec(name, &t, oreo_config(3)))
        .collect();
    Engine::start_tenants(specs, EngineConfig::default().with_workers(2).tiered(&root));
}
