//! MTS Optimal (§VI-C): OREO's modified MTS algorithm running over a
//! *fixed, precomputed* state space containing the best layout for each
//! query template (segment) — isolating the value of workload knowledge in
//! state-space construction from the online switching algorithm itself.
//!
//! With no admission sample to score states on, its jump predictor (§IV-C)
//! is the last phase: when a phase ends, each state's weight becomes the
//! average fraction of data it skipped over that phase.

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
    /// Per state: its cost, clamped to `[0, 1]`, summed over the running
    /// phase.
    phase_costs: Vec<f64>,
    /// Queries in the running phase.
    phase_queries: u64,
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
            phase_costs: vec![0.0; models.len()],
            phase_queries: 0,
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
        let costs: Vec<f64> = self.models.iter().map(|m| m.cost(query)).collect();
        let outcome = self.reorganizer.observe_query(|s| costs[s as usize]);
        for (sum, c) in self.phase_costs.iter_mut().zip(&costs) {
            *sum += c.clamp(0.0, 1.0);
        }
        self.phase_queries += 1;
        if outcome.phase_reset {
            // The phase this query closed scores the next one's jumps. The
            // step that reset drew no jump: OREO's D-UMTS configuration
            // stays in place on a reset.
            for (s, sum) in self.phase_costs.iter_mut().enumerate() {
                let mean = *sum / self.phase_queries as f64;
                (self.reorganizer).set_weight(s as u64, (1.0 - mean).clamp(0.0, 1.0));
                *sum = 0.0;
            }
            self.phase_queries = 0;
        }
        let service = costs[self.reorganizer.current() as usize];
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
