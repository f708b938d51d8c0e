//! Measuring α on your own hardware, then configuring OREO with it — the
//! deployment workflow the paper prescribes (§VI-D1: "users can measure
//! typical values of α based on their system configuration to provide as
//! inputs to OREO").
//!
//! ```text
//! cargo run --release --example measure_alpha
//! ```
//!
//! Writes a physical store (a `TieredStore` generation), times a full-scan
//! query versus a physical reorganization (re-route → regroup → compress +
//! write + sync, the engine's generation publish), and runs the framework
//! with the measured ratio as its α.

use oreo::layout::LayoutSpec;
use oreo::prelude::*;
use oreo::sim::{run_policy, PolicySetup, Technique};
use std::time::Instant;

fn main() -> oreo::storage::Result<()> {
    // 1. Build a physical store from a TPC-H-shaped table.
    let bundle = oreo::workload::tpch_bundle(120_000, 7);
    let table = &bundle.table;
    let k = 16;
    let by_key = RangeLayout::from_sample(table, bundle.default_sort_col, k);
    let dir = std::env::temp_dir().join(format!("oreo-measure-{}", std::process::id()));
    let mut snap = TableSnapshot::build(table, &by_key.assign(table), k, 0, "by-key");
    let (store, _) = TieredStore::create(&dir, &mut snap)?;
    println!(
        "store: {} partitions, {:.1} MB on disk",
        snap.num_partitions(),
        snap.total_bytes() as f64 / 1e6
    );

    // 2. Measure the scan/reorganization ratio (Table I's methodology).
    let t0 = Instant::now();
    for _ in 0..3 {
        store.full_scan()?;
    }
    let scan = t0.elapsed().as_secs_f64() / 3.0;

    let ship = table.schema().col("l_shipdate").expect("shipdate");
    let by_ship = RangeLayout::from_sample(table, ship, k);
    let t0 = Instant::now();
    let mut next = TableSnapshot::build(table, &by_ship.assign(table), k, 1, "by-ship");
    store.publish(&mut next)?;
    let reorg = t0.elapsed().as_secs_f64();
    let alpha = (reorg / scan).max(1.0);
    println!("measured: full scan {scan:.3}s, reorganization {reorg:.3}s → α ≈ {alpha:.0}");
    drop((snap, next, store));
    std::fs::remove_dir_all(&dir)?;

    // 3. Run OREO with the measured α against the do-nothing default.
    let stream = bundle.stream(StreamConfig {
        total_queries: 3_000,
        segments: 6,
        seed: 5,
        ..Default::default()
    });
    let config = OreoConfig {
        alpha,
        partitions: 32,
        data_sample_rows: 4_000,
        ..Default::default()
    };
    let setup = PolicySetup::new(bundle.clone(), Technique::QdTree, config);
    let mut oreo = setup.oreo();
    let r = run_policy(&mut oreo, &stream.queries, 0);
    println!(
        "\nOREO with measured α: query {:.0} + reorg {:.0} = {:.0} logical scans \
         ({} reorganizations over {} queries)",
        r.ledger.query_cost,
        r.ledger.reorg_cost,
        r.total(),
        r.switches,
        r.ledger.queries
    );
    println!(
        "equivalent wall-time estimate: {:.1}s query + {:.1}s reorg",
        r.ledger.query_cost * scan,
        r.switches as f64 * reorg
    );
    Ok(())
}
