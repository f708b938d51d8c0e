//! The physical storage substrate: partitions on disk, metadata-pruned
//! scans through a buffer pool, and a real reorganization — the machinery
//! behind Table I.
//!
//! ```text
//! cargo run --release --example physical_store
//! ```
//!
//! Writes a telemetry-shaped table to disk partitioned by arrival time (a
//! `TieredStore` generation), runs pruned scans through a `BufferPool`,
//! then physically reorganizes to a collector-major Qd-tree layout (the
//! next generation) and shows how the same queries' I/O changes.

use oreo::layout::{build_exact_model, LayoutSpec, QdTreeBuilder};
use oreo::prelude::*;
use oreo::storage::{BufferPool, BufferPoolConfig};
use std::time::Instant;

fn main() -> oreo::storage::Result<()> {
    let bundle = oreo::workload::telemetry_bundle(60_000, 3);
    let table = &bundle.table;
    let k = 16;

    // initial on-disk layout: range partitions on arrival_time
    let by_time = RangeLayout::from_sample(table, 0, k);
    let dir = std::env::temp_dir().join(format!("oreo-example-store-{}", std::process::id()));
    let t0 = Instant::now();
    let mut snap = TableSnapshot::build(table, &by_time.assign(table), k, 0, "by-time");
    let (store, receipt) = TieredStore::create(&dir, &mut snap)?;
    println!(
        "wrote {} partitions, {:.1} MB compressed, in {:?}",
        snap.num_partitions(),
        receipt.bytes_written as f64 / 1e6,
        t0.elapsed()
    );
    let pool = BufferPool::new(BufferPoolConfig::default());

    // two queries from the production mix
    let schema = table.schema();
    let day = 24 * 3600;
    let time_q = QueryBuilder::new(schema)
        .between("arrival_time", 30 * day, 33 * day)
        .build();
    let collector_q = QueryBuilder::new(schema)
        .eq("collector", "collector-001")
        .build();

    for (name, q) in [
        ("3-day time range", &time_q),
        ("collector filter", &collector_q),
    ] {
        let scan = snap.scan_pooled(&q.predicate, &pool)?;
        println!(
            "[by-time layout] {name}: read {}/{} partitions ({:.1} KB of pages), {} rows matched",
            scan.partitions_read,
            snap.num_partitions(),
            scan.bytes_scanned as f64 / 1e3,
            scan.matches.len()
        );
    }

    // physically reorganize to a Qd-tree optimized for collector queries
    let workload: Vec<Query> = (0..50)
        .map(|i| {
            QueryBuilder::new(schema)
                .eq("collector", format!("collector-{:03}", i % 8).as_str())
                .build()
        })
        .collect();
    let tree = QdTreeBuilder::new(k).build(table, &workload);
    let t0 = Instant::now();
    let mut next = TableSnapshot::build(table, &tree.assign(table), tree.k(), 1, tree.describe());
    store.publish(&mut next)?;
    println!(
        "\nphysical reorganization to {} took {:?} (re-route → regroup → compress + write)",
        tree.describe(),
        t0.elapsed()
    );

    for (name, q) in [
        ("3-day time range", &time_q),
        ("collector filter", &collector_q),
    ] {
        let scan = next.scan_pooled(&q.predicate, &pool)?;
        println!(
            "[qd-tree layout] {name}: read {}/{} partitions ({:.1} KB of pages), {} rows matched",
            scan.partitions_read,
            next.num_partitions(),
            scan.bytes_scanned as f64 / 1e3,
            scan.matches.len()
        );
    }

    // the logical cost model agrees with what the physical scans did
    let model = build_exact_model(&tree, 1, table);
    println!(
        "\nlogical cost model: collector query reads {:.1}% of rows on the new layout",
        model.cost(&collector_q) * 100.0
    );

    drop((snap, next, store));
    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
