//! # oreo-sim
//!
//! The simulation harness that drives OREO and every baseline of the
//! paper's evaluation over identical query streams:
//!
//! * [`policy`] — the [`ReorgPolicy`] interface + the stream runner;
//! * [`policies`] — Static, Greedy, Regret, OREO, MTS-Optimal and
//!   Offline-Optimal implementations. Greedy and Regret draw their
//!   candidates from OREO's own `LayoutManager` (§VI-A3: all online methods
//!   see the same candidates). OREO is one [`ScheduledPolicy`] whose
//!   [`Schedule`] says when candidates join and switches land: the paper's
//!   configured delay Δ, or the serving engine's order, the reference of
//!   every engine ledger parity;
//! * [`mutable`] — the row-level mutable oracle the live-ingestion
//!   equivalence tests compare delta-aware scans against;
//! * [`offline_dp`] — the *true* offline UMTS optimum by dynamic
//!   programming, used to verify Theorem IV.1 empirically;
//! * [`setup`] — one-stop assembly of comparable policy sets per dataset;
//! * [`report`] — ASCII tables for the figure/table harnesses;
//! * [`zoo`] — the workload zoo's streams (the adaptive adversary attacks
//!   a live OREO) and the 2·H(n) bound measurement against the offline DP.

pub mod mutable;
pub mod offline_dp;
pub mod policies;
pub mod policy;
pub mod report;
pub mod setup;
pub mod zoo;

pub use mutable::MutableOracle;
pub use offline_dp::{offline_optimum, OfflineOptimum};
pub use policies::{
    GreedyPolicy, MtsOptimalPolicy, OfflineTemplatePolicy, RegretPolicy, Schedule, ScheduledPolicy,
    StaticPolicy, TemplateLayouts,
};
pub use policy::{run_policy, ReorgPolicy, RunResult, StepCost};
pub use report::{fmt_f, fmt_pct_change, AsciiTable};
pub use setup::{default_spec, make_generator, PolicySetup, Technique};
pub use zoo::{adversarial_bound, compare_oreo_static, zoo_stream, AdversarialBound};

#[cfg(test)]
mod tests {
    use super::*;
    use oreo_core::{CostLedger, Dumts, DumtsConfig, OreoConfig, TransitionPolicy};
    use oreo_workload::{tpch_bundle, StreamConfig};

    // NOTE: the former `policy_ordering_matches_paper_narrative` test
    // (quarantined with `#[ignore]` since the workspace bootstrap) now
    // lives in `tests/policy_ordering.rs` as a release-profile
    // integration test. The tuning investigation found the old 6 000-query
    // / 10-segment configuration gave only ~600 queries per drift segment —
    // too short for D-UMTS to amortize its α=60 exploration (counters must
    // absorb ~α of cost before every switch), so *no* tuning of γ/ε could
    // make OREO beat the fully-informed Static baseline there. At the
    // paper's segment-length-to-α ratio (§VI-A3: 1 500-query segments,
    // α=80) the narrative holds with a wide margin; the header of
    // `tests/policy_ordering.rs` records the finding.

    /// Theorem IV.1 empirically: the classic algorithm's expected cost is
    /// within 2(1 + ln n)·OPT + O(α) of the DP optimum on oblivious random
    /// streams.
    #[test]
    fn competitive_ratio_respected_against_dp_optimum() {
        use rand::{Rng, SeedableRng};
        let n = 6usize;
        let alpha = 8.0;
        let queries = 4_000usize;
        let mut adv = rand::rngs::StdRng::seed_from_u64(31);
        // oblivious adversarial-ish stream: block-correlated costs so that
        // switching actually matters
        let mut costs: Vec<Vec<f64>> = Vec::with_capacity(queries);
        let mut cheap = 0usize;
        for t in 0..queries {
            if t % 200 == 0 {
                cheap = adv.random_range(0..n);
            }
            costs.push(
                (0..n)
                    .map(|s| {
                        if s == cheap {
                            0.05 * adv.random::<f64>()
                        } else {
                            0.5 + 0.5 * adv.random::<f64>()
                        }
                    })
                    .collect(),
            );
        }
        let opt = offline_optimum(&costs, alpha);
        assert!(opt.total_cost > 0.0);

        let trials = 10;
        let mut total = 0.0;
        for seed in 0..trials {
            let states: Vec<u64> = (0..n as u64).collect();
            let mut d = Dumts::new(
                &states,
                DumtsConfig {
                    alpha,
                    transition: TransitionPolicy::Uniform,
                    seed,
                },
            );
            let mut cost = 0.0;
            for row in &costs {
                let o = d.observe_query(|s| row[s as usize]);
                cost += row[d.current() as usize];
                if o.switched_to.is_some() {
                    cost += alpha;
                }
            }
            total += cost;
        }
        let mean = total / trials as f64;
        let h_n: f64 = (1..=n).map(|i| 1.0 / i as f64).sum();
        let bound = 2.0 * h_n * opt.total_cost + 4.0 * alpha; // additive slack
        assert!(
            mean <= bound,
            "algorithm {mean:.1} exceeds 2H(n)·OPT bound {bound:.1} (OPT = {:.1})",
            opt.total_cost
        );
        // and the algorithm is genuinely online: it must cost more than OPT
        assert!(mean >= opt.total_cost - 1e-9);
    }

    /// MTS Optimal and Offline Optimal order correctly: offline knowledge
    /// of switch points beats online switching over the same state space.
    #[test]
    fn offline_beats_online_over_same_states() {
        let bundle = tpch_bundle(10_000, 4);
        let stream = bundle.stream(StreamConfig {
            total_queries: 2_000,
            segments: 5,
            seed: 5,
            ..Default::default()
        });
        let config = OreoConfig {
            alpha: 40.0,
            partitions: 32,
            data_sample_rows: 2_000,
            seed: 6,
            ..Default::default()
        };
        let setup = PolicySetup::new(bundle, Technique::QdTree, config);
        let layouts = setup.template_layouts(&stream);
        let mut mts = setup.mts_optimal(&layouts);
        let mut offline = setup.offline_optimal(&layouts, &stream.segments);

        let rm = run_policy(&mut mts, &stream.queries, 0);
        let roff = run_policy(&mut offline, &stream.queries, 0);
        assert!(
            roff.ledger.query_cost <= rm.ledger.query_cost + 1e-9,
            "offline query cost {} > online {}",
            roff.ledger.query_cost,
            rm.ledger.query_cost
        );
        assert_eq!(roff.switches as usize, stream.segments.len() - 1);
    }

    /// Greedy and Regret's bills on a small fixed TPC-H stream with Qd-tree
    /// and Z-order candidates, pinned to the bit (f64s compared exactly).
    /// Both take each boundary's candidates from OREO's `LayoutManager`
    /// (sliding-window source, no ε-test), so a change to which candidates
    /// they see, or when, shows here.
    #[test]
    fn greedy_and_regret_ledgers_are_pinned() {
        let bundle = tpch_bundle(8_000, 4);
        let stream = bundle.stream(StreamConfig {
            total_queries: 1_200,
            segments: 4,
            seed: 11,
            ..Default::default()
        });
        let config = OreoConfig {
            alpha: 20.0,
            partitions: 16,
            window: 100,
            generation_interval: 100,
            data_sample_rows: 1_000,
            seed: 3,
            ..Default::default()
        };
        // (technique, [(query_cost, reorg_cost, switches)] for Greedy, Regret)
        let pinned = [
            (
                Technique::QdTree,
                [(218.66812499999583, 120.0, 6), (286.7026250000031, 60.0, 3)],
            ),
            (
                Technique::ZOrder,
                [(440.30775000000654, 80.0, 4), (435.52725000000464, 40.0, 2)],
            ),
        ];
        for (technique, expected) in pinned {
            let setup = PolicySetup::new(bundle.clone(), technique, config.clone());
            let runs = [
                run_policy(&mut setup.greedy(), &stream.queries, 0),
                run_policy(&mut setup.regret(), &stream.queries, 0),
            ];
            for (run, want) in runs.iter().zip(expected) {
                let got = (run.ledger.query_cost, run.ledger.reorg_cost, run.switches);
                assert_eq!(got, want, "{} on {}", run.name, technique.label());
            }
        }
    }

    /// MTS Optimal's bill on the stream above, pinned to the bit for both
    /// candidate techniques. It runs D-UMTS over the fixed per-template
    /// states with no sample predictor: its jump weights are each state's
    /// skipped fraction over the last completed phase, which the policy
    /// keeps itself, so a change to that predictor or to which states are
    /// costed shows here.
    #[test]
    fn mts_optimal_ledger_is_pinned() {
        let bundle = tpch_bundle(8_000, 4);
        let stream = bundle.stream(StreamConfig {
            total_queries: 1_200,
            segments: 4,
            seed: 11,
            ..Default::default()
        });
        let config = OreoConfig {
            alpha: 20.0,
            partitions: 16,
            window: 100,
            generation_interval: 100,
            data_sample_rows: 1_000,
            seed: 3,
            ..Default::default()
        };
        let ledger = |query_cost: f64, switches: u64| CostLedger {
            query_cost,
            reorg_cost: switches as f64 * 20.0,
            switches,
            queries: 1_200,
            compaction_cost: 0.0,
            compactions: 0,
        };
        for (technique, want) in [
            (Technique::QdTree, ledger(163.40012500000185, 7)),
            (Technique::ZOrder, ledger(323.0660000000021, 6)),
        ] {
            let setup = PolicySetup::new(bundle.clone(), technique, config.clone());
            let layouts = setup.template_layouts(&stream);
            let run = run_policy(&mut setup.mts_optimal(&layouts), &stream.queries, 0);
            assert_eq!(run.ledger, want, "{}", technique.label());
            assert_eq!(run.switches, want.switches, "{}", technique.label());
        }
    }

    /// OREO's bill under [`Schedule::Configured`] on the stream above,
    /// pinned to the bit at Δ = 0 (what the figures run) and Δ = 40 (a
    /// Table II row). The values predate the schedule: they were taken when
    /// Δ was an `OreoConfig` field that `Oreo::observe` applied itself.
    #[test]
    fn configured_schedule_ledgers_are_pinned() {
        let bundle = tpch_bundle(8_000, 4);
        let stream = bundle.stream(StreamConfig {
            total_queries: 1_200,
            segments: 4,
            seed: 11,
            ..Default::default()
        });
        let config = OreoConfig {
            alpha: 20.0,
            partitions: 16,
            window: 100,
            generation_interval: 100,
            data_sample_rows: 1_000,
            seed: 3,
            ..Default::default()
        };
        let setup = PolicySetup::new(bundle, Technique::QdTree, config);
        let ledger = |query_cost: f64| CostLedger {
            query_cost,
            reorg_cost: 60.0,
            switches: 3,
            queries: 1_200,
            compaction_cost: 0.0,
            compactions: 0,
        };
        for (delay, want) in [
            (0, ledger(343.9767500000032)),
            (40, ledger(421.63375000000417)),
        ] {
            let mut policy = setup.scheduled(Schedule::Configured(delay));
            let run = run_policy(&mut policy, &stream.queries, 0);
            assert_eq!(run.ledger, want, "Δ = {delay}");
            assert_eq!(*policy.framework().ledger(), want, "Δ = {delay}");
            assert_eq!(run.switches, 3, "Δ = {delay}");
        }
    }

    /// Under `Configured(Δ)` a switch decided at query `d` moves the
    /// physical layout at query `d + Δ`.
    #[test]
    fn delay_defers_physical_switch() {
        let bundle = tpch_bundle(4_000, 4);
        let stream = bundle.stream(StreamConfig {
            total_queries: 600,
            segments: 3,
            seed: 5,
            ..Default::default()
        });
        let config = OreoConfig {
            alpha: 3.0,
            partitions: 8,
            window: 30,
            generation_interval: 30,
            data_sample_rows: 500,
            ..Default::default()
        };
        let setup = PolicySetup::new(bundle, Technique::QdTree, config);
        let mut policy = setup.scheduled(Schedule::Configured(25));
        let mut decided = None;
        let mut moved = None;
        let mut physical = policy.framework().physical_layout();
        for (i, q) in stream.queries.iter().enumerate() {
            let step = policy.observe(q);
            if decided.is_none() && step.switched {
                decided = Some(i);
            }
            let now = policy.framework().physical_layout();
            if moved.is_none() && now != physical {
                moved = Some(i);
            }
            physical = now;
        }
        let (d, m) = (
            decided.expect("a switch decision"),
            moved.expect("a physical switch"),
        );
        assert_eq!(m, d + 25, "physical switch must land Δ after the decision");
    }
}
