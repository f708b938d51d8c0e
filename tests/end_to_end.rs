//! Cross-crate integration: the full OREO pipeline over each synthetic
//! dataset at small scale (fast enough for debug-mode CI).

use oreo::prelude::*;
use oreo::sim::{run_policy, PolicySetup, Schedule, Technique};
use std::sync::Arc;

fn small_config() -> OreoConfig {
    OreoConfig {
        alpha: 30.0,
        window: 100,
        generation_interval: 100,
        partitions: 16,
        data_sample_rows: 1_500,
        seed: 5,
        ..Default::default()
    }
}

#[test]
fn oreo_runs_on_all_three_datasets() {
    for bundle in oreo::workload::all_bundles(6_000, 1) {
        let stream = bundle.stream(StreamConfig {
            total_queries: 800,
            segments: 4,
            seed: 2,
            ..Default::default()
        });
        let setup = PolicySetup::new(bundle.clone(), Technique::QdTree, small_config());
        let mut oreo = setup.oreo();
        let r = run_policy(&mut oreo, &stream.queries, 0);
        assert_eq!(r.ledger.queries, 800, "{}", bundle.name);
        assert!(r.ledger.query_cost > 0.0);
        assert!(
            r.ledger.query_cost < 800.0,
            "{}: query cost not bounded by full scans",
            bundle.name
        );
        assert!(
            (r.ledger.reorg_cost - r.switches as f64 * 30.0).abs() < 1e-9,
            "{}: ledger inconsistent",
            bundle.name
        );
    }
}

#[test]
fn oreo_adapts_better_than_never_reorganizing() {
    let bundle = oreo::workload::tpch_bundle(10_000, 3);
    let stream = bundle.stream(StreamConfig {
        total_queries: 1_500,
        segments: 5,
        seed: 4,
        ..Default::default()
    });
    let config = small_config();
    let initial = oreo::sim::default_spec(&bundle, config.partitions, config.seed);
    let never = oreo::layout::build_exact_model(initial.as_ref(), 0, &bundle.table);
    let never_cost: f64 = stream.queries.iter().map(|q| never.cost(q)).sum();

    let mut system = Oreo::new(
        Arc::clone(&bundle.table),
        initial,
        Arc::new(QdTreeGenerator::new()),
        config,
    );
    for q in &stream.queries {
        system.observe(q);
    }
    assert!(
        system.ledger().total() < never_cost,
        "OREO {} !< never-reorganize {}",
        system.ledger().total(),
        never_cost
    );
}

#[test]
fn both_techniques_work_through_the_full_stack() {
    let bundle = oreo::workload::tpcds_bundle(6_000, 2);
    let stream = bundle.stream(StreamConfig {
        total_queries: 600,
        segments: 3,
        seed: 6,
        ..Default::default()
    });
    for technique in [Technique::QdTree, Technique::ZOrder] {
        let setup = PolicySetup::new(bundle.clone(), technique, small_config());
        let mut oreo = setup.oreo();
        let r = run_policy(&mut oreo, &stream.queries, 0);
        assert_eq!(r.ledger.queries, 600, "{technique:?}");
    }
}

#[test]
fn framework_is_deterministic_end_to_end() {
    let bundle = oreo::workload::telemetry_bundle(5_000, 9);
    let stream = bundle.stream(StreamConfig {
        total_queries: 500,
        segments: 3,
        seed: 8,
        ..Default::default()
    });
    let run = || {
        let setup = PolicySetup::new(bundle.clone(), Technique::QdTree, small_config());
        let mut oreo = setup.oreo();
        let r = run_policy(&mut oreo, &stream.queries, 50);
        (r.trajectory.clone(), r.switches, r.ledger)
    };
    assert_eq!(run(), run());
}

#[test]
fn configured_delay_only_hurts_query_cost() {
    let bundle = oreo::workload::tpch_bundle(6_000, 4);
    let stream = bundle.stream(StreamConfig {
        total_queries: 900,
        segments: 4,
        seed: 11,
        ..Default::default()
    });
    let setup = PolicySetup::new(bundle, Technique::QdTree, small_config());
    let run_at = |delay: u64| {
        let mut oreo = setup.scheduled(Schedule::Configured(delay));
        run_policy(&mut oreo, &stream.queries, 0).ledger
    };
    let immediate = run_at(0);
    let delayed = run_at(30);
    // decisions are identical (same seeds) → same reorg cost; the delay can
    // only increase the query bill (§VI-D5)
    assert_eq!(immediate.switches, delayed.switches);
    assert!(delayed.query_cost >= immediate.query_cost - 1e-9);
}
