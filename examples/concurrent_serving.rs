//! Concurrent serving quickstart: run OREO as a live engine — multi-threaded
//! scans over snapshot-isolated table state, with layout switches built in
//! the background and published without blocking readers.
//!
//! ```sh
//! cargo run --release --example concurrent_serving
//! ```

use oreo::prelude::*;
use oreo::sim::{default_spec, make_generator, Technique};
use oreo::workload::tpch_bundle;
use std::sync::Arc;

fn main() {
    // A TPC-H-shaped dataset and a drifting query stream.
    let bundle = tpch_bundle(20_000, 1);
    let stream = bundle.stream(StreamConfig {
        total_queries: 4_000,
        segments: 6,
        seed: 7,
        ..Default::default()
    });

    let config = OreoConfig {
        alpha: 60.0,
        partitions: 32,
        data_sample_rows: 2_000,
        seed: 3,
        ..Default::default()
    };

    // Boot the engine: 4 scan workers, background reorganizer on. Δ is
    // measured: the logical switch lands when the rebuilt snapshot is
    // published, not after a configured number of queries.
    let engine = Engine::start(
        Arc::clone(&bundle.table),
        default_spec(&bundle, config.partitions, config.seed),
        make_generator(Technique::QdTree, &bundle),
        config,
        EngineConfig::default().with_workers(4),
    );

    // Feed the stream from this thread (any number of threads may submit).
    let mut tracked = None;
    for (i, q) in stream.queries.iter().enumerate() {
        if i == stream.queries.len() / 2 {
            tracked = Some(engine.submit_tracked(q.clone()));
        } else {
            engine.submit(q.clone());
        }
    }

    // A tracked query returns its full outcome, including the exact global
    // row ids it matched and which snapshot served it.
    let outcome = tracked.expect("tracked one query").wait();
    println!(
        "tracked query: {} matching rows, served by layout {} (epoch {}), {} µs",
        outcome.scan.matches.len(),
        outcome.served_layout,
        outcome.served_epoch,
        outcome.latency.as_micros(),
    );

    engine.drain();
    let stats = engine.shutdown();

    println!();
    println!(
        "served {} queries at {:.0} qps with {} workers",
        stats.queries, stats.qps, stats.workers
    );
    println!(
        "latency: p50 {:.0} µs, p99 {:.0} µs",
        stats.latency.p50, stats.latency.p99
    );
    println!(
        "ledger: query cost {:.1}, reorg cost {:.1} ({} switches) — the simulator's \
         accounting code, run in the order the engine served",
        stats.ledger.query_cost, stats.ledger.reorg_cost, stats.switches
    );
    for w in &stats.windows {
        println!(
            "reorg → layout {}: Δ = {} queries / {:.1} ms (decided at seq {}, {} rows re-routed \
             into {} partitions)",
            w.target,
            w.queries_during,
            w.wall.as_secs_f64() * 1e3,
            w.decided_seq,
            w.rows,
            w.partitions,
        );
    }
    if stats.windows.is_empty() {
        println!("(no reorganization triggered on this stream)");
    }
}
