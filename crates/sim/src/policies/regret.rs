//! The Regret baseline (§VI-A3), inspired by TASM's storage management:
//! track the *cumulative* query-cost difference between the current layout
//! and each alternative; when some alternative's accumulated saving exceeds
//! the reorganization cost α, switch to it. New candidates retroactively
//! replay the queries serviced on the current layout to initialize their
//! saving counters.

use super::online::OnlineBaseline;
use crate::policy::{ReorgPolicy, StepCost};
use oreo_layout::SharedSpec;
use oreo_query::Query;
use oreo_storage::LayoutModel;
use std::collections::VecDeque;

/// Cap on the replay history per current layout, bounding the retroactive
/// evaluation cost of each new candidate. Long histories add nothing: a
/// candidate whose savings need >4000 queries to reach α will accumulate
/// them incrementally after admission anyway.
const MAX_HISTORY: usize = 4_000;

/// Cap on tracked alternatives (oldest evicted first).
const MAX_ALTERNATIVES: usize = 16;

struct Alternative {
    spec: SharedSpec,
    model: LayoutModel,
    /// Σ (c(current, q) − c(alt, q)) since this layout became current.
    saving: f64,
}

/// Regret-based reorganizer.
pub struct RegretPolicy {
    base: OnlineBaseline,
    alternatives: Vec<Alternative>,
    /// Queries serviced on the current layout (bounded replay buffer).
    history: VecDeque<Query>,
}

impl RegretPolicy {
    /// A regret-triggered policy (switch when accumulated regret exceeds α).
    pub(crate) fn new(base: OnlineBaseline) -> Self {
        Self {
            base,
            alternatives: Vec::new(),
            history: VecDeque::new(),
        }
    }

    fn admit_candidate(&mut self, spec: SharedSpec, model: LayoutModel) {
        // Retroactive saving over the replay buffer (the paper: "using all
        // queries that have been serviced on the current layout").
        let current = self.base.estimate();
        let saving: f64 = (self.history.iter())
            .map(|q| current.cost(q) - model.cost(q))
            .sum();
        self.alternatives.push(Alternative {
            spec,
            model,
            saving,
        });
        if self.alternatives.len() > MAX_ALTERNATIVES {
            self.alternatives.remove(0);
        }
    }
}

impl ReorgPolicy for RegretPolicy {
    fn name(&self) -> String {
        "Regret".into()
    }

    fn observe(&mut self, query: &Query) -> StepCost {
        for (spec, model) in self.base.candidates(query) {
            self.admit_candidate(spec, model);
        }

        // Update cumulative savings with this query.
        let cur = self.base.estimate().cost(query);
        for alt in &mut self.alternatives {
            alt.saving += cur - alt.model.cost(query);
        }
        self.history.push_back(query.clone());
        if self.history.len() > MAX_HISTORY {
            self.history.pop_front();
        }

        // Switch when the best accumulated saving exceeds α.
        let best = (self.alternatives.iter().enumerate())
            .max_by(|a, b| a.1.saving.total_cmp(&b.1.saving))
            .filter(|(_, alt)| alt.saving > self.base.alpha())
            .map(|(idx, _)| idx);
        if let Some(idx) = best {
            let chosen = self.alternatives.swap_remove(idx);
            self.base.switch_to(&chosen.spec, chosen.model);
            // savings were measured against the old current; restart
            self.alternatives.clear();
            self.history.clear();
        }
        self.base.bill(query, best.is_some())
    }

    fn switches(&self) -> u64 {
        self.base.switches()
    }
}
