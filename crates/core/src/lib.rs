//! # oreo-core
//!
//! The paper's primary contribution: an online reorganization framework with
//! a worst-case guarantee, built from
//!
//! * [`dumts`] — **D-UMTS**, the dynamic-state-space extension (Algorithm 4)
//!   of the classic Borodin–Linial–Saks counter algorithm (Algorithms 1–3,
//!   its fixed-state-space special case), achieving the asymptotically tight
//!   `2·H(|S_max|)` competitive ratio of Theorem IV.1;
//! * [`predictor`] — γ-biased transition distributions (§IV-C, Theorem IV.2);
//! * [`layout_manager`] — the LAYOUT MANAGER: candidate generation from
//!   workload samples and ε-distance admission (Algorithm 5);
//! * [`oreo`] — the assembled framework (Fig. 1) wiring both components to a
//!   table, with pending-switch bookkeeping and cost accounting (when a
//!   decided switch lands — the reorganization delay — is the driver's
//!   call: `oreo-sim`'s schedule or the engine's publish).

pub mod config;
pub mod cost;
pub mod dumts;
pub mod layout_manager;
pub mod oreo;
pub mod predictor;

pub use config::OreoConfig;
pub use cost::CostLedger;
pub use dumts::{Dumts, DumtsConfig, StateId, StepOutcome};
pub use layout_manager::{
    Admission, BuiltCandidates, CandidateSource, CandidateTask, LayoutManager, ManagerConfig,
    ManagerStats,
};
pub use oreo::{Oreo, StepReport};
pub use predictor::TransitionPolicy;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Structural invariants of D-UMTS under arbitrary cost streams and
        /// dynamic state churn: the current state exists, active counters
        /// stay below α, and |S_max| is monotone. Each state gets one jump
        /// weight when it is added, as OREO's admission sets one.
        #[test]
        fn dumts_invariants(
            seed in 0u64..1000,
            alpha in 1.0f64..20.0,
            steps in 1usize..300,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut d = Dumts::new(&[0, 1, 2], DumtsConfig {
                alpha,
                transition: TransitionPolicy::default_biased(),
                seed,
            });
            for s in 0..3 {
                d.set_weight(s, rng.random());
            }
            let mut next_state = 3u64;
            let mut max_seen = d.max_states_seen();
            for _ in 0..steps {
                let action: u8 = rng.random_range(0..10);
                match action {
                    0 => {
                        d.add_state(next_state);
                        d.set_weight(next_state, rng.random());
                        next_state += 1;
                    }
                    1 => {
                        let removable: Vec<_> = d
                            .states()
                            .into_iter()
                            .filter(|&s| s != d.current())
                            .collect();
                        if d.states().len() > 1 {
                            if let Some(&victim) = removable.first() {
                                d.remove_state(victim);
                            }
                        }
                    }
                    _ => {
                        let base: f64 = rng.random();
                        d.observe_query(|s| ((s as f64 * 0.37 + base) % 1.0).abs());
                    }
                }
                prop_assert!(d.states().contains(&d.current()));
                for s in d.active_states() {
                    prop_assert!(d.counter(s).unwrap() < alpha);
                }
                prop_assert!(d.max_states_seen() >= max_seen);
                max_seen = d.max_states_seen();
                prop_assert!(!d.active_states().is_empty() || d.states().len() == 1);
            }
        }

        /// Reorg cost equals switches × α in the framework ledger under any
        /// α.
        #[test]
        fn ledger_consistency(alpha in 1.0f64..10.0, seed in 0u64..20) {
            use oreo_layout::{QdTreeGenerator, RangeLayout};
            use oreo_query::{ColumnType, QueryBuilder, Scalar, Schema};
            use oreo_storage::TableBuilder;
            use std::sync::Arc;

            let schema = Arc::new(Schema::from_pairs([
                ("ts", ColumnType::Timestamp),
                ("v", ColumnType::Int),
            ]));
            let mut b = TableBuilder::new(Arc::clone(&schema));
            for i in 0..800i64 {
                b.push_row(&[Scalar::Int(i), Scalar::Int((i * 11) % 500)]);
            }
            let table = Arc::new(b.finish());
            let config = OreoConfig {
                alpha,
                window: 25,
                generation_interval: 25,
                partitions: 8,
                data_sample_rows: 300,
                seed,
                ..Default::default()
            };
            let initial = Arc::new(RangeLayout::from_sample(&table, 0, 8));
            let mut oreo = Oreo::new(
                Arc::clone(&table),
                initial,
                Arc::new(QdTreeGenerator::new()),
                config,
            );
            for i in 0..150i64 {
                let q = QueryBuilder::new(table.schema())
                    .between("v", (i * 13) % 400, (i * 13) % 400 + 50)
                    .build();
                oreo.observe(&q);
            }
            let l = oreo.ledger();
            prop_assert!((l.reorg_cost - l.switches as f64 * alpha).abs() < 1e-9);
            prop_assert_eq!(l.queries, 150);
            prop_assert!(l.query_cost <= 150.0 + 1e-9);
        }
    }
}
