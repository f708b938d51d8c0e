//! The Greedy baseline (§VI-A3): whenever a new candidate layout appears,
//! compare its (estimated) query cost on the sliding window against the
//! current layout's and switch if the candidate is better — ignoring the
//! reorganization cost entirely.

use super::online::OnlineBaseline;
use crate::policy::{ReorgPolicy, StepCost};
use oreo_query::Query;

/// Greedy reorganizer.
pub struct GreedyPolicy {
    base: OnlineBaseline,
}

impl GreedyPolicy {
    /// A greedy policy switching to the cheapest candidate each interval.
    pub(crate) fn new(base: OnlineBaseline) -> Self {
        Self { base }
    }
}

impl ReorgPolicy for GreedyPolicy {
    fn name(&self) -> String {
        "Greedy".into()
    }

    fn observe(&mut self, query: &Query) -> StepCost {
        let candidates = self.base.candidates(query);
        let mut switched = false;
        if !candidates.is_empty() {
            let window = self.base.window();
            let cur_cost = self.base.estimate().mean_cost(&window);
            let best = (candidates.into_iter())
                .map(|(spec, model)| (model.mean_cost(&window), spec, model))
                .min_by(|a, b| a.0.total_cmp(&b.0));
            if let Some((cand_cost, spec, model)) = best {
                // switch unconditionally on improvement — α be damned
                if cand_cost < cur_cost {
                    self.base.switch_to(&spec, model);
                    switched = true;
                }
            }
        }
        self.base.bill(query, switched)
    }

    fn switches(&self) -> u64 {
        self.base.switches()
    }
}
