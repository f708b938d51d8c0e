//! The cost model is the physical truth: for any layout and query, the
//! *fraction of rows* the logical model predicts equals what the on-disk
//! store actually reads under metadata pruning — the property that makes
//! simulation results transfer to the physical substrate.

use oreo::layout::{build_exact_model, LayoutSpec, QdTreeBuilder, RangeLayout, ZOrderLayout};
use oreo::prelude::*;
use oreo::storage::{concat_tables, BufferPool, BufferPoolConfig};
use std::path::{Path, PathBuf};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "oreo-it-{}-{}-{}",
        tag,
        std::process::id(),
        rand::random::<u32>()
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// `table` under `assignment`, persisted as generation 1 of a store at `dir`.
fn persist(
    dir: &Path,
    table: &Table,
    assignment: &[u32],
    k: usize,
) -> (TieredStore, TableSnapshot) {
    let mut snap = TableSnapshot::build(table, assignment, k, 0, "layout");
    let (store, _) = TieredStore::create(dir, &mut snap).unwrap();
    (store, snap)
}

fn pool() -> BufferPool {
    BufferPool::new(BufferPoolConfig::default())
}

#[test]
fn logical_cost_equals_physical_rows_read() {
    let bundle = oreo::workload::tpch_bundle(8_000, 1);
    let table = &bundle.table;
    let stream = bundle.stream(StreamConfig {
        total_queries: 40,
        segments: 4,
        seed: 2,
        ..Default::default()
    });

    let specs: Vec<(&str, Box<dyn LayoutSpec>)> = vec![
        ("range", Box::new(RangeLayout::from_sample(table, 0, 8))),
        (
            "zorder",
            Box::new(ZOrderLayout::from_sample(
                table,
                &[table.schema().col("l_shipdate").unwrap(), 4],
                8,
                8,
            )),
        ),
        (
            "qdtree",
            Box::new(QdTreeBuilder::new(8).build(table, &stream.queries)),
        ),
    ];

    for (name, spec) in specs {
        let assignment = spec.assign(table);
        let dir = tmpdir(name);
        let (store, snap) = persist(&dir, table, &assignment, spec.k());
        let model = build_exact_model(spec.as_ref(), 0, table);
        let pool = pool();

        for (i, q) in stream.queries.iter().take(12).enumerate() {
            let stats = snap.scan_pooled(&q.predicate, &pool).unwrap();
            if i == 0 {
                assert!(stats.io_cold_bytes > 0, "{name}: the first scan reads disk");
            }
            let physical_fraction = stats.rows_read as f64 / table.num_rows() as f64;
            let logical = model.cost(q);
            assert!(
                (physical_fraction - logical).abs() < 1e-9,
                "{name}: physical {physical_fraction} != logical {logical} for {:?}",
                q.predicate
            );
        }
        drop((store, snap));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn matched_rows_are_identical_across_layouts() {
    // Reorganization must never change query *results* — only I/O. The
    // number of matching rows is layout-invariant.
    let bundle = oreo::workload::telemetry_bundle(5_000, 2);
    let table = &bundle.table;
    let stream = bundle.stream(StreamConfig {
        total_queries: 20,
        segments: 2,
        seed: 3,
        ..Default::default()
    });

    let by_time = RangeLayout::from_sample(table, 0, 6);
    let tree = QdTreeBuilder::new(6).build(table, &stream.queries);

    let dir1 = tmpdir("layout-a");
    let dir2 = tmpdir("layout-b");
    let (store_a, snap_a) = persist(&dir1, table, &by_time.assign(table), by_time.k());
    let (store_b, snap_b) = persist(&dir2, table, &tree.assign(table), tree.k());
    // one pool per store: both stores number their generation 1
    let (pool_a, pool_b) = (pool(), pool());

    for q in &stream.queries {
        let a = snap_a.scan_pooled(&q.predicate, &pool_a).unwrap();
        let b = snap_b.scan_pooled(&q.predicate, &pool_b).unwrap();
        assert_eq!(
            a.matches.len(),
            b.matches.len(),
            "layouts disagree on results for {:?}",
            q.predicate
        );
        // and both agree with the in-memory ground truth
        let truth = (table.selectivity(&q.predicate) * table.num_rows() as f64).round() as usize;
        assert_eq!(a.matches.len(), truth);
    }
    drop((store_a, snap_a, store_b, snap_b));
    std::fs::remove_dir_all(&dir1).unwrap();
    std::fs::remove_dir_all(&dir2).unwrap();
}

#[test]
fn physical_reorganization_preserves_content() {
    let bundle = oreo::workload::tpcds_bundle(4_000, 5);
    let table = &bundle.table;
    let by_ticket = RangeLayout::from_sample(table, 0, 5);
    let dir = tmpdir("content");
    let (store, snap) = persist(&dir, table, &by_ticket.assign(table), 5);

    let stream = bundle.stream(StreamConfig {
        total_queries: 30,
        segments: 3,
        seed: 6,
        ..Default::default()
    });
    let tree = QdTreeBuilder::new(8).build(table, &stream.queries);
    let mut next = TableSnapshot::build(table, &tree.assign(table), tree.k(), 1, "qdtree");
    store.publish(&mut next).unwrap();
    drop((store, snap));
    let (store2, recovered, _) = TieredStore::open(&dir, table.schema()).unwrap();
    for (published, read) in next.partitions().iter().zip(recovered.partitions()) {
        assert_eq!(published.rows(), read.rows());
    }

    assert_eq!(recovered.total_rows(), table.num_rows() as u64);
    let parts: Vec<Table> = recovered
        .partitions()
        .iter()
        .map(|p| (*p.data).clone())
        .collect();
    let back = concat_tables(table.schema(), &parts).unwrap();
    // same multiset of ticket numbers (the unique key)
    let mut original: Vec<i64> = (0..table.num_rows())
        .map(|r| table.scalar(r, 0).as_int().unwrap())
        .collect();
    let mut roundtrip: Vec<i64> = (0..back.num_rows())
        .map(|r| back.scalar(r, 0).as_int().unwrap())
        .collect();
    original.sort_unstable();
    roundtrip.sort_unstable();
    assert_eq!(original, roundtrip);

    drop((store2, recovered, next));
    std::fs::remove_dir_all(&dir).unwrap();
}
