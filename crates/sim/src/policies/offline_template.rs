//! Offline Optimal (§VI-C): sees the whole workload in advance and switches
//! to each template's best layout *exactly at* the template boundary — the
//! lower-bound reference of Fig. 4. It pays α per boundary switch but never
//! lags the drift the way online methods must.

use crate::policies::templates::TemplateLayouts;
use crate::policy::{ReorgPolicy, StepCost};
use oreo_query::Query;
use oreo_storage::LayoutModel;
use oreo_workload::Segment;

/// Template-boundary switcher with full workload knowledge.
pub struct OfflineTemplatePolicy {
    /// (start sequence, exact model) per segment, in order.
    plan: Vec<(u64, LayoutModel)>,
    alpha: f64,
    seen: u64,
    /// Index of the segment currently in force.
    at: usize,
    switches: u64,
}

impl OfflineTemplatePolicy {
    /// The clairvoyant per-segment policy (knows segment boundaries).
    pub fn new(layouts: &TemplateLayouts, segments: &[Segment], alpha: f64) -> Self {
        assert!(!segments.is_empty());
        assert_eq!(layouts.len(), segments.len(), "one layout per segment");
        let plan = (segments.iter().zip(layouts.models()))
            .map(|(s, model)| (s.start as u64, model.clone()))
            .collect();
        Self {
            plan,
            alpha,
            seen: 0,
            at: 0,
            switches: 0,
        }
    }
}

impl ReorgPolicy for OfflineTemplatePolicy {
    fn name(&self) -> String {
        "Offline Optimal".into()
    }

    fn observe(&mut self, query: &Query) -> StepCost {
        let seq = self.seen;
        self.seen += 1;
        let mut cost = StepCost::default();
        // advance to the segment owning `seq`; each advance is a switch
        while self.at + 1 < self.plan.len() && self.plan[self.at + 1].0 <= seq {
            self.at += 1;
            self.switches += 1;
            cost.reorg += self.alpha;
            cost.switched = true;
        }
        cost.service = self.plan[self.at].1.cost(query);
        cost
    }

    fn switches(&self) -> u64 {
        self.switches
    }
}
