//! Release-profile integration test: the paper's policy-ordering narrative
//! (§VI-C) on a drifting TPC-H stream.
//!
//! Compiled away under `debug_assertions` — the four policy runs take a
//! few seconds in release and an order of magnitude more unoptimized. Run
//! with:
//!
//! ```sh
//! cargo test --release -p oreo-sim --test policy_ordering
//! ```
//!
//! Configuration notes (the outcome of a tuning investigation): the
//! narrative needs the paper's segment-length-to-α ratio.
//! The evaluation setup (§VI-A3) drifts every ~1 500 queries with α=80 —
//! D-UMTS must absorb ~α of service cost on its counters before each
//! switch, so segments only a few multiples of α long (like the previous
//! 6 000-query/10-segment attempt, 600 queries/segment at α=60) drown the
//! signal in exploration no matter how γ/ε are tuned. At 12 000 queries
//! over 8 segments (1 500 queries/segment, α=80) OREO beats the
//! fully-informed Static baseline by ~40% under the vendored RNG.

#![cfg(not(debug_assertions))]

use oreo_core::OreoConfig;
use oreo_sim::{run_policy, PolicySetup, Technique};
use oreo_workload::{tpch_bundle, StreamConfig};

/// On a drifting TPC-H-shaped stream, dynamic reorganization (OREO) beats
/// the static layout in total cost, Greedy has the lowest query cost but
/// pays the most reorganization, and Regret reorganizes the least among
/// the reactive methods.
#[test]
fn policy_ordering_matches_paper_narrative() {
    let bundle = tpch_bundle(30_000, 1);
    let stream = bundle.stream(StreamConfig {
        total_queries: 12_000,
        segments: 8,
        seed: 2,
        ..Default::default()
    });
    let config = OreoConfig {
        alpha: 80.0,
        partitions: 64,
        data_sample_rows: 6_000,
        seed: 3,
        ..Default::default()
    };
    let setup = PolicySetup::new(bundle, Technique::QdTree, config);

    let mut static_p = setup.static_policy(&stream.queries);
    let mut greedy = setup.greedy();
    let mut regret = setup.regret();
    let mut oreo = setup.oreo();

    let rs = run_policy(&mut static_p, &stream.queries, 0);
    let rg = run_policy(&mut greedy, &stream.queries, 0);
    let rr = run_policy(&mut regret, &stream.queries, 0);
    let ro = run_policy(&mut oreo, &stream.queries, 0);

    // dynamic reorganization beats static overall (paper: up to 32%; this
    // stream gives OREO ≈ 3 087 vs Static ≈ 5 303)
    assert!(
        ro.total() < rs.total(),
        "OREO {} !< Static {}",
        ro.total(),
        rs.total()
    );
    // Greedy reorganizes at least as much as anyone
    assert!(rg.switches >= ro.switches, "Greedy switched less than OREO");
    assert!(
        rg.switches >= rr.switches,
        "Greedy switched less than Regret"
    );
    // Greedy's query cost is the smallest among online methods
    assert!(rg.ledger.query_cost <= ro.ledger.query_cost + 1e-9);
    assert!(rg.ledger.query_cost <= rr.ledger.query_cost + 1e-9);
    // and OREO's worst-case machinery keeps it ahead of the heuristics in
    // combined cost on this stream
    assert!(
        ro.total() < rg.total(),
        "OREO {} !< Greedy {}",
        ro.total(),
        rg.total()
    );
}
