//! Workspace-level integration tests for the concurrent serving layer:
//! the engine must change *how* queries are executed (parallel,
//! snapshot-isolated, reorganized in the background) without changing
//! *what* they return or *what* the bookkeeping decides.

use oreo::core::OreoConfig;
use oreo::engine::{Engine, EngineConfig};
use oreo::sim::{default_spec, make_generator, run_policy, PolicySetup, Schedule, Technique};
use oreo::storage::{SnapshotCell, TableSnapshot, TieredStore};
use oreo::workload::{tpch_bundle, StreamConfig};
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn config(seed: u64) -> OreoConfig {
    OreoConfig {
        alpha: 30.0,
        partitions: 16,
        window: 100,
        generation_interval: 100,
        data_sample_rows: 1_000,
        seed,
        ..Default::default()
    }
}

/// The default engine on two workers, driven in lockstep over a fixed
/// stream, produces *exactly* the ledger, switch decisions, final layouts
/// and state-space peak of `oreo-sim`'s served-order OREO — concurrency
/// changes the serving plane, never the bookkeeping.
#[test]
fn engine_ledger_matches_sequential_sim_on_fixed_stream() {
    let seed = 3;
    let bundle = tpch_bundle(4_000, 1);
    let stream = bundle.stream(StreamConfig {
        total_queries: 600,
        segments: 4,
        seed: 2,
        ..Default::default()
    });

    let setup = PolicySetup::new(bundle.clone(), Technique::QdTree, config(seed));
    let mut reference = setup.scheduled(Schedule::Served);
    let sim = run_policy(&mut reference, &stream.queries, 0);
    let reference = reference.framework();

    let engine = Engine::start(
        Arc::clone(&bundle.table),
        default_spec(&bundle, config(seed).partitions, seed),
        make_generator(Technique::QdTree, &bundle),
        config(seed),
        EngineConfig::default().with_workers(2),
    );
    for q in &stream.queries {
        engine.submit(q.clone());
        engine.drain();
    }
    let stats = engine.shutdown();

    assert_eq!(stats.ledger, sim.ledger, "ledger diverged from oreo-sim");
    assert_eq!(stats.switches, sim.switches, "switch decisions diverged");
    assert!(stats.switches >= 1, "stream never reorganized");
    let tenant = &stats.tenants[0];
    assert_eq!(tenant.final_physical, reference.physical_layout());
    assert_eq!(tenant.final_logical, reference.logical_layout());
    assert_eq!(tenant.max_states_seen, reference.max_states_seen());
    assert_eq!(stats.queries, 600);

    // PR 9 regression: with ingestion never invoked, the write path is
    // completely inert — nothing compacted, nothing billed as compaction,
    // no delta bytes scanned. This is what keeps the parity above exact.
    assert_eq!(
        stats.ledger.compactions, 0,
        "read-only run billed a compaction"
    );
    assert_eq!(stats.ledger.compaction_cost, 0.0);
    assert_eq!(stats.ingest_batches, 0);
    assert_eq!(stats.folds(), 0);
    assert_eq!(stats.delta_bytes_scanned, 0);
}

/// Scans executing while reorganizations are in flight return exactly the
/// row sets sequential execution would: snapshot isolation means a query
/// sees one complete, consistent partition cover — never a half-moved
/// table.
#[test]
fn concurrent_scans_during_reorg_return_sequential_row_sets() {
    let seed = 5;
    let bundle = tpch_bundle(3_000, 1);
    let stream = bundle.stream(StreamConfig {
        total_queries: 400,
        segments: 4,
        seed: 9,
        ..Default::default()
    });
    let engine = Engine::start(
        Arc::clone(&bundle.table),
        default_spec(&bundle, config(seed).partitions, seed),
        make_generator(Technique::QdTree, &bundle),
        config(seed),
        EngineConfig {
            workers: 4,
            batch: 8,
            ..Default::default()
        },
    );
    let handles: Vec<_> = stream
        .queries
        .iter()
        .map(|q| engine.submit_tracked(q.clone()))
        .collect();
    let n = bundle.table.num_rows() as u32;
    for (q, h) in stream.queries.iter().zip(handles) {
        let out = h.wait();
        let expected: Vec<u32> = (0..n)
            .filter(|&r| bundle.table.row_matches(r as usize, &q.predicate))
            .collect();
        assert_eq!(
            out.scan.matches, expected,
            "row set diverged (stream seq {}, served layout {}, epoch {})",
            q.seq, out.served_layout, out.served_epoch
        );
    }
    let stats = engine.shutdown();
    assert!(
        stats.switches >= 1,
        "stream never triggered a reorganization"
    );
    assert_eq!(
        stats.windows.len() as u64,
        stats.switches,
        "every decision must complete a background build"
    );
    for w in &stats.windows {
        assert!(w.wall >= w.build, "window excludes its own build time?");
        assert_eq!(w.rows, 3_000, "rebuild moved a partial table");
    }
}

/// Disk-tiered serving changes *where* snapshots live (every publish
/// commits a `gen-N/` directory before the pointer swap), not *what* the
/// bookkeeping decides: the tiered default engine, driven in lockstep,
/// replays `oreo-sim`'s served-order ledger exactly, while the same run also measures
/// the rewrite's byte/wall-clock bill (the empirical α inputs) and
/// recovers its last committed generation after a restart.
#[test]
fn tiered_engine_replays_sim_ledger_and_recovers_generation() {
    let seed = 3;
    let bundle = tpch_bundle(4_000, 1);
    let stream = bundle.stream(StreamConfig {
        total_queries: 600,
        segments: 4,
        seed: 2,
        ..Default::default()
    });

    let setup = PolicySetup::new(bundle.clone(), Technique::QdTree, config(seed));
    let sim = run_policy(&mut setup.scheduled(Schedule::Served), &stream.queries, 0);

    let root = std::env::temp_dir().join(format!("oreo-itest-tiered-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let engine = Engine::start(
        Arc::clone(&bundle.table),
        default_spec(&bundle, config(seed).partitions, seed),
        make_generator(Technique::QdTree, &bundle),
        config(seed),
        EngineConfig::default().with_workers(2).tiered(&root),
    );
    for q in &stream.queries {
        engine.submit(q.clone());
        engine.drain();
    }
    let stats = engine.shutdown();

    // the acceptance criterion: the tiered engine replays the ledger exactly
    assert_eq!(stats.ledger, sim.ledger, "tiered ledger diverged");
    assert_eq!(stats.switches, sim.switches, "switch decisions diverged");
    assert_eq!(
        stats.ledger.compactions, 0,
        "read-only run billed a compaction"
    );
    assert_eq!(stats.wal_bytes, 0, "read-only run grew a WAL");

    // the same run produced the empirical-α inputs
    assert!(stats.switches >= 1, "stream never reorganized");
    assert!(stats.bytes_scanned > 0);
    for w in &stats.windows {
        assert!(w.bytes_written > 0, "rewrite persisted nothing");
    }
    assert!(stats.empirical_alpha().is_some(), "α not measurable");

    // tiered scans really travel through the buffer pool: pages were
    // requested, the stream re-touches partitions so some of them hit,
    // and no pooled scan fell back to the in-memory path
    let pool = stats.pool.expect("tiered run has a buffer pool");
    assert!(pool.misses > 0, "no page was ever read from disk");
    assert!(pool.hits > 0, "warm stream should re-hit pooled pages");
    assert!(stats.io_cold_bytes > 0 && stats.io_cached_bytes > 0);
    assert_eq!(
        stats.bytes_scanned,
        stats.io_cold_bytes + stats.io_cached_bytes,
        "tiered byte accounting must equal pooled page traffic"
    );
    assert_eq!(stats.scan_io_errors, 0, "pooled scans degraded");
    assert!(stats.pool_hit_rate() > 0.0);
    assert!(stats.alpha_warm().is_some(), "warm α̂ missing");

    // restart: the last committed generation recovers with the full table
    let (store, recovered, report) =
        TieredStore::open(&root, bundle.table.schema()).expect("reopen");
    assert_eq!(report.generation, 1 + stats.snapshots_published);
    assert_eq!(recovered.total_rows(), bundle.table.num_rows() as u64);
    assert_eq!(
        recovered.row_cover(),
        (0..bundle.table.num_rows() as u32).collect::<Vec<_>>()
    );
    drop(store);
    drop(recovered);
    std::fs::remove_dir_all(&root).unwrap();
}

/// Randomized pin/publish interleavings never lose or duplicate partitions:
/// whatever snapshot a reader pins, its partitions cover every base-table
/// row exactly once.
#[test]
fn snapshot_pin_publish_preserves_partition_cover() {
    let bundle = tpch_bundle(800, 7);
    let table = &bundle.table;
    let n = table.num_rows();
    let expected: Vec<u32> = (0..n as u32).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);

    let cell = SnapshotCell::new(TableSnapshot::build(table, &vec![0; n], 1, 0, "init"));
    let mut pinned = vec![cell.pin()];
    for round in 1..60u64 {
        // random action mix: publish a random re-partition, pin, or drop
        match rng.random_range(0..3u8) {
            0 | 1 => {
                let k = rng.random_range(1..9usize);
                let salt: u32 = rng.random();
                let assignment: Vec<u32> = (0..n as u32)
                    .map(|r| r.wrapping_mul(2654435761).wrapping_add(salt) % k as u32)
                    .collect();
                cell.publish(TableSnapshot::build(table, &assignment, k, round, "rand"));
            }
            _ => pinned.push(cell.pin()),
        }
        if pinned.len() > 8 {
            pinned.remove(0); // old pins release; Arc drops the snapshot
        }
        // every pin taken at any point still covers the table exactly
        for snap in &pinned {
            assert_eq!(snap.row_cover(), expected, "round {round}");
        }
        assert_eq!(cell.pin().row_cover(), expected, "round {round}");
    }
}
