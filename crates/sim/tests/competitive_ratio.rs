//! Release-profile integration tests: the workload zoo's two regression
//! claims, asserted against the full framework (not the synthetic cost
//! matrices of the in-crate unit tests).
//!
//! Compiled away under `debug_assertions` — each test replays 12 000
//! queries through live OREO instances and the offline DP. Run with:
//!
//! ```sh
//! cargo test --release -p oreo-sim --test competitive_ratio
//! ```
//!
//! The configuration mirrors `serve_throughput --quick --scenario suite`
//! exactly (α = 80, 64 partitions, 100-query candidate cadence, 1 500-query
//! zoo phases), so a failure here reproduces under the bench binary and vice
//! versa. The binary asserts the same two claims, and also the lockstep
//! engine's ledger parity with served-order OREO runs on every scenario.

#![cfg(not(debug_assertions))]

use oreo_core::OreoConfig;
use oreo_sim::{adversarial_bound, compare_oreo_static, zoo_stream, PolicySetup, Technique};
use oreo_workload::{telemetry_bundle, Scenario, ScenarioConfig};

/// The suite's shared framework configuration: paper defaults with the
/// candidate window/generation cadence halved so candidates train on
/// intra-phase windows (zoo phases are ~1 500 queries).
fn suite_setup() -> PolicySetup {
    PolicySetup::new(
        telemetry_bundle(20_000, 1),
        Technique::QdTree,
        OreoConfig {
            alpha: 80.0,
            epsilon: 0.08,
            gamma: 1.0,
            window: 100,
            generation_interval: 100,
            partitions: 64,
            data_sample_rows: 6_000,
            seed: 3,
            ..Default::default()
        },
    )
}

const SUITE_CFG: ScenarioConfig = ScenarioConfig {
    total_queries: 12_000,
    seed: 2,
};

/// The additive constant of the adversarial assertion, in units of α —
/// kept in lockstep with `SUITE_SLACK_ALPHAS` in the `serve_throughput`
/// binary. The classic proof grants O(α) for the phase in flight; the
/// full framework adds estimate-vs-exact model noise on top (decisions on
/// sample estimates, billing on exact models).
const SLACK_ALPHAS: f64 = 8.0;

/// Theorem IV.2 against the real machinery: the adaptive MTS adversary
/// generates its stream against a live OREO instance, and OREO's online
/// total must stay within `2·H(n)·cost(OFF) + c·α` of the exact offline
/// DP over the adversary's own state space (one probe-optimal layout per
/// probe family plus the default layout).
#[test]
fn adversarial_zoo_respects_2hn_bound() {
    let setup = suite_setup();
    let (stream, bound) = adversarial_bound(&setup, SUITE_CFG, SLACK_ALPHAS);
    assert_eq!(stream.queries.len(), SUITE_CFG.total_queries);
    assert!(
        bound.offline.total_cost > 0.0,
        "degenerate offline optimum — the adversary emitted free queries"
    );
    // Online can never beat the offline DP over the same surface.
    assert!(bound.oreo_total >= bound.offline.total_cost - 1e-9);
    assert!(
        bound.holds,
        "2·H(n) bound violated: OREO {:.1} > 2·H({}) · OFF {:.1} + {}·α = {:.1} (ratio {:.2})",
        bound.oreo_total,
        bound.n_states,
        bound.offline.total_cost,
        SLACK_ALPHAS,
        bound.bound,
        bound.ratio,
    );
}

/// The zoo's ordering claim: on every *oblivious* scenario — flash crowds,
/// diurnal cycles, rotating predicates, correlated columns — OREO's total
/// (service + α·switches) beats the fully informed Static baseline, whose
/// one layout is built from a uniform sample of the entire stream it will
/// be judged on. Static loses because the zoo's phase anchors collectively
/// overflow a single 64-partition layout; OREO re-specializes and pays α
/// per move.
#[test]
fn oreo_beats_informed_static_on_every_oblivious_scenario() {
    let setup = suite_setup();
    let mut failures: Vec<String> = Vec::new();
    for scenario in Scenario::ALL {
        if scenario.is_adversarial() {
            continue;
        }
        let stream = zoo_stream(&setup, scenario, SUITE_CFG);
        let (oreo_run, static_run) = compare_oreo_static(&setup, &stream);
        let (oreo_total, static_total) = (oreo_run.total(), static_run.total());
        if oreo_total >= static_total {
            failures.push(format!(
                "{}: OREO {oreo_total:.1} ({} switches) >= Static {static_total:.1}",
                scenario.name(),
                oreo_run.switches,
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "OREO must beat Static on every non-adversarial zoo scenario: {failures:?}"
    );
}
