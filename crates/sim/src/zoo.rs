//! Workload-zoo assembly: attach the zoo's adaptive MTS adversary to a live
//! OREO instance and check Theorem IV.2's 2·H(n) bound against the true
//! offline DP optimum.
//!
//! `oreo-workload` defines the scenarios and the `LayoutOracle` trait the
//! adversary interrogates; the real oracle is [`PolicySetup::oreo`]'s
//! policy (see [`crate::ScheduledPolicy`]). This module supplies the
//! offline state space the bound is measured against: one probe-optimal
//! layout per adversary family and the shared default layout, all costed
//! with exact full-table models — the same surface OREO's own ledger is
//! billed on.

use crate::offline_dp::{offline_optimum, OfflineOptimum};
use crate::policy::{run_policy, RunResult};
use crate::setup::{default_spec, make_generator, PolicySetup};
use oreo_layout::build_exact_model;
use oreo_query::Query;
use oreo_workload::{adversary_probes, QueryStream, Scenario, ScenarioConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Generate one zoo stream for a policy setup: oblivious scenarios generate
/// directly; the adversarial scenario runs against a fresh live OREO
/// instance (discarded afterwards — use [`adversarial_bound`] when the
/// attacked run's costs are needed too).
pub fn zoo_stream(setup: &PolicySetup, scenario: Scenario, cfg: ScenarioConfig) -> QueryStream {
    match scenario {
        Scenario::Adversarial => {
            let mut oracle = setup.oreo();
            scenario.generate_with_oracle(setup.bundle.table.schema(), cfg, &mut oracle)
        }
        _ => scenario.generate(setup.bundle.table.schema(), cfg),
    }
}

/// Run OREO and the fully informed Static baseline over one stream,
/// returning `(oreo, static)` run results. The zoo's ordering claim — OREO
/// beats Static on every non-adversarial scenario — reduces to comparing
/// the two totals.
pub fn compare_oreo_static(setup: &PolicySetup, stream: &QueryStream) -> (RunResult, RunResult) {
    let mut oreo = setup.oreo();
    let oreo_run = run_policy(&mut oreo, &stream.queries, 0);
    let mut static_policy = setup.static_policy(&stream.queries);
    let static_run = run_policy(&mut static_policy, &stream.queries, 0);
    (oreo_run, static_run)
}

/// Outcome of one adversarial bound measurement (Theorem IV.2 as a
/// regression test).
#[derive(Clone, Debug)]
pub struct AdversarialBound {
    /// OREO's online total (service + α·switches) on the adaptive stream.
    pub oreo_total: f64,
    /// Switches the adversary extracted from OREO.
    pub oreo_switches: u64,
    /// The offline DP optimum over the probe-state space.
    pub offline: OfflineOptimum,
    /// States in the offline space (probe families + the default layout).
    pub n_states: usize,
    /// Harmonic number H(n) of the state-space size.
    pub h_n: f64,
    /// The asserted ceiling: `2·H(n)·offline.total_cost + slack·α`.
    pub bound: f64,
    /// `oreo_total / offline.total_cost` (diagnostic).
    pub ratio: f64,
    /// Whether `oreo_total <= bound`.
    pub holds: bool,
}

/// Attack a fresh OREO instance with the adaptive adversary and measure
/// cost(OREO) against `2·H(n)·cost(OFF) + slack_alphas·α`, where OFF is the
/// exact offline DP over one probe-optimal layout per adversary family plus
/// the default layout.
///
/// `slack_alphas` is the additive constant `c` of the assertion, in units
/// of α: the classic proof grants the online algorithm O(α) slack for the
/// phase in flight, and the full framework adds estimate-vs-exact model
/// noise on top (decisions use sample estimates, the bill is exact).
pub fn adversarial_bound(
    setup: &PolicySetup,
    cfg: ScenarioConfig,
    slack_alphas: f64,
) -> (QueryStream, AdversarialBound) {
    let mut oracle = setup.oreo();
    let stream =
        Scenario::Adversarial.generate_with_oracle(setup.bundle.table.schema(), cfg, &mut oracle);
    let oreo_total = oracle.framework().ledger().total();
    let oreo_switches = oracle.framework().switches();

    // The offline state space: a layout tuned to each probe family (the
    // adversary's own repertoire — the strongest fixed schedule chooses
    // among exactly these) plus the default layout everyone starts from.
    let probes = adversary_probes(setup.bundle.table.schema(), cfg.seed);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x0FF1);
    let sample = setup
        .bundle
        .table
        .sample(&mut rng, setup.config.data_sample_rows);
    let generator = make_generator(setup.technique, &setup.bundle);
    let mut models = Vec::with_capacity(probes.len() + 1);
    for (i, probe) in probes.iter().enumerate() {
        let train: Vec<Query> = (0..64).map(|_| probe.instantiate(&mut rng)).collect();
        let spec = generator.generate(&sample, &train, setup.config.partitions, &mut rng);
        models.push(build_exact_model(
            spec.as_ref(),
            i as u64,
            &setup.bundle.table,
        ));
    }
    let default = default_spec(&setup.bundle, setup.config.partitions, setup.config.seed);
    models.push(build_exact_model(
        default.as_ref(),
        probes.len() as u64,
        &setup.bundle.table,
    ));

    let costs: Vec<Vec<f64>> = stream
        .queries
        .iter()
        .map(|q| models.iter().map(|m| m.cost(q)).collect())
        .collect();
    let offline = offline_optimum(&costs, setup.config.alpha);
    let n_states = models.len();
    let h_n: f64 = (1..=n_states).map(|i| 1.0 / i as f64).sum();
    let bound = 2.0 * h_n * offline.total_cost + slack_alphas * setup.config.alpha;
    let ratio = if offline.total_cost > 0.0 {
        oreo_total / offline.total_cost
    } else {
        f64::INFINITY
    };
    let holds = oreo_total <= bound;
    (
        stream,
        AdversarialBound {
            oreo_total,
            oreo_switches,
            offline,
            n_states,
            h_n,
            bound,
            ratio,
            holds,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::Technique;
    use oreo_core::OreoConfig;
    use oreo_workload::telemetry_bundle;

    fn small_setup() -> PolicySetup {
        PolicySetup::new(
            telemetry_bundle(2_000, 1),
            Technique::QdTree,
            OreoConfig {
                alpha: 20.0,
                partitions: 16,
                data_sample_rows: 1_000,
                window: 100,
                generation_interval: 100,
                seed: 11,
                ..Default::default()
            },
        )
    }

    #[test]
    fn zoo_streams_generate_for_every_scenario() {
        let setup = small_setup();
        let cfg = ScenarioConfig {
            total_queries: 300,
            seed: 5,
        };
        for s in Scenario::ALL {
            let stream = zoo_stream(&setup, s, cfg);
            assert_eq!(stream.queries.len(), 300, "{}", s.name());
            assert!(!stream.segments.is_empty(), "{}", s.name());
        }
    }

    #[test]
    fn adversarial_stream_is_reproducible_with_a_fresh_oracle() {
        let setup = small_setup();
        let cfg = ScenarioConfig {
            total_queries: 250,
            seed: 6,
        };
        let a = zoo_stream(&setup, Scenario::Adversarial, cfg);
        let b = zoo_stream(&setup, Scenario::Adversarial, cfg);
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.segments, b.segments);
    }

    #[test]
    fn oracle_ledger_matches_a_replay_of_the_stream() {
        // The attacked instance's ledger must equal a fresh OREO replaying
        // the emitted stream — this is what lets the bench serve the
        // pre-generated adversarial stream and still claim the attacked
        // run's costs.
        let setup = small_setup();
        let cfg = ScenarioConfig {
            total_queries: 250,
            seed: 8,
        };
        let mut oracle = setup.oreo();
        let stream = Scenario::Adversarial.generate_with_oracle(
            setup.bundle.table.schema(),
            cfg,
            &mut oracle,
        );
        let attacked = *oracle.framework().ledger();

        let replayed = run_policy(&mut setup.oreo(), &stream.queries, 0).ledger;
        assert_eq!(attacked, replayed);
    }

    #[test]
    fn adversarial_bound_measures_a_finite_ratio() {
        let setup = small_setup();
        let cfg = ScenarioConfig {
            total_queries: 400,
            seed: 9,
        };
        let (stream, bound) = adversarial_bound(&setup, cfg, 8.0);
        assert_eq!(stream.queries.len(), 400);
        assert_eq!(
            bound.n_states,
            oreo_workload::ADVERSARY_PROBE_FAMILIES + 1,
            "probe layouts + default"
        );
        assert!(bound.offline.total_cost > 0.0, "offline cost degenerate");
        assert!(bound.oreo_total >= bound.offline.total_cost - 1e-9);
        assert!(bound.ratio.is_finite());
        assert!(bound.h_n > 1.0);
    }
}
