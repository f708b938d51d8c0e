//! MTS Optimal (§VI-C): OREO's modified MTS algorithm running over a
//! *fixed, precomputed* state space containing the best layout for each
//! query template (segment) — isolating the value of workload knowledge in
//! state-space construction from the online switching algorithm itself.

use crate::policies::templates::TemplateLayouts;
use crate::policy::{ReorgPolicy, StepCost};
use oreo_core::{Dumts, DumtsConfig};
use oreo_query::Query;
use oreo_storage::LayoutModel;

/// D-UMTS over per-template layouts.
pub struct MtsOptimalPolicy {
    reorganizer: Dumts,
    /// state id (= segment index) → exact model
    models: Vec<LayoutModel>,
    alpha: f64,
}

impl MtsOptimalPolicy {
    /// A D-UMTS policy over the fixed per-segment template layouts.
    pub fn new(layouts: &TemplateLayouts, config: DumtsConfig) -> Self {
        assert!(!layouts.is_empty());
        let alpha = config.alpha;
        let models = layouts.models().to_vec();
        let ids: Vec<u64> = (0..models.len() as u64).collect();
        let reorganizer = Dumts::new(&ids, config);
        Self {
            reorganizer,
            models,
            alpha,
        }
    }
}

impl ReorgPolicy for MtsOptimalPolicy {
    fn name(&self) -> String {
        "MTS Optimal".into()
    }

    fn observe(&mut self, query: &Query) -> StepCost {
        let models = &self.models;
        let outcome = self
            .reorganizer
            .observe_query(|s| models[s as usize].cost(query));
        let service = self.models[self.reorganizer.current() as usize].cost(query);
        StepCost {
            service,
            reorg: if outcome.switched_to.is_some() {
                self.alpha
            } else {
                0.0
            },
            switched: outcome.switched_to.is_some(),
        }
    }

    fn switches(&self) -> u64 {
        self.reorganizer.switches()
    }
}
