//! Multi-tenant serving quickstart: N tables behind one engine — one
//! worker pool, one shared buffer pool, one reorganizer running every
//! tenant's layout switches in decision order.
//!
//! Each tenant keeps its own OREO instance (§VIII), so co-tenants never
//! touch its bookkeeping: driven in lockstep, its cost ledger is
//! byte-identical to a dedicated single-tenant engine's, or `oreo-sim`'s
//! served-order run, on the same substream.
//!
//! ```sh
//! cargo run --release --example multi_tenant
//! ```

use oreo::prelude::*;
use oreo::sim::{default_spec, make_generator, Technique};
use oreo::workload::{telemetry_bundle, tpch_bundle};
use std::sync::Arc;

fn main() {
    // Two co-resident tenants with different schemas and different drift:
    // a TPC-H-shaped analytics table and a telemetry table.
    let analytics = tpch_bundle(20_000, 1);
    let telemetry = telemetry_bundle(20_000, 2);

    let config = OreoConfig {
        alpha: 60.0,
        partitions: 32,
        data_sample_rows: 2_000,
        seed: 3,
        ..Default::default()
    };

    let tenants = vec![
        TenantSpec {
            name: "analytics".into(),
            table: Arc::clone(&analytics.table),
            initial_spec: default_spec(&analytics, config.partitions, config.seed),
            generator: make_generator(Technique::QdTree, &analytics),
            oreo: config.clone(),
        },
        TenantSpec {
            name: "telemetry".into(),
            table: Arc::clone(&telemetry.table),
            initial_spec: default_spec(&telemetry, config.partitions, config.seed),
            generator: make_generator(Technique::QdTree, &telemetry),
            oreo: config.clone(),
        },
    ];

    let engine = Engine::start_tenants(
        tenants,
        EngineConfig {
            workers: 2,
            ..Default::default()
        },
    );

    // Interleave the two tenants' drifting streams; any number of threads
    // may submit, each query tagged with its tenant index.
    let streams = [
        analytics.stream(StreamConfig {
            total_queries: 3_000,
            segments: 5,
            seed: 7,
            ..Default::default()
        }),
        telemetry.stream(StreamConfig {
            total_queries: 3_000,
            segments: 5,
            seed: 8,
            ..Default::default()
        }),
    ];
    for i in 0..3_000 {
        for (tenant, stream) in streams.iter().enumerate() {
            engine.submit_to(tenant, stream.queries[i].clone());
        }
    }

    engine.drain();
    let stats = engine.shutdown();

    println!(
        "served {} queries over {} tenants at {:.0} qps",
        stats.queries,
        stats.tenants.len(),
        stats.qps
    );
    for ten in &stats.tenants {
        println!(
            "  {:>10}: {} queries, p50 {:.0} µs, p99 {:.0} µs, {} switches ({} published)",
            ten.name,
            ten.queries,
            ten.latency.p50,
            ten.latency.p99,
            ten.switches,
            ten.snapshots_published,
        );
        println!(
            "  {:>10}  ledger: query {:.1} + reorg {:.1} = {:.1} — billed by its own OREO",
            "",
            ten.ledger.query_cost,
            ten.ledger.reorg_cost,
            ten.ledger.total(),
        );
    }
    println!("fleet ledger: {:.1}", stats.ledger.total());
}
