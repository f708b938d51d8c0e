//! The full OREO framework as a simulator policy, driven by a [`Schedule`].

use crate::policy::{ReorgPolicy, StepCost};
use oreo_core::Oreo;
use oreo_query::Query;
use oreo_storage::LayoutId;
use oreo_workload::LayoutOracle;
use std::collections::VecDeque;

/// When a boundary's candidates join the state space and when a decided
/// switch lands on the physical layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// The paper's simulator (§VI-D5): a boundary's candidates are admitted
    /// before its query is decided ([`Oreo::decide`]), and a switch lands
    /// Δ queries after the query that decided it — before that later
    /// query's settle, so Δ = 0 bills the deciding query on the new layout.
    /// Table II sweeps Δ; the other paper harnesses run Δ = 0.
    Configured(u64),
    /// The order the serving engine runs a query in when driven in
    /// lockstep ([`Oreo::observe`]): a boundary's candidates join after its
    /// query is decided, and a switch lands right after the query that
    /// decided it. The reference of every engine ledger parity.
    Served,
}

/// OREO as a simulator policy, fed in the order its [`Schedule`] says.
///
/// It is also the workload zoo's [`LayoutOracle`]: probing reads a query's
/// exact cost on the current *physical* layout without advancing
/// anything ([`Oreo::physical_cost`]), and serving observes the query.
/// Because generation interleaves probe and serve against the very
/// instance being attacked, the policy's ledger after generation *is*
/// OREO's online cost on the emitted stream, and — everything being
/// seeded — a fresh, identically built policy replaying the stream
/// reproduces it exactly.
pub struct ScheduledPolicy {
    inner: Oreo,
    schedule: Schedule,
    /// Under [`Schedule::Configured`]: (stream position at which the
    /// switch lands, target), in decision order.
    due: VecDeque<(u64, LayoutId)>,
}

impl ScheduledPolicy {
    /// Drive `oreo` by `schedule` from here on.
    pub fn new(oreo: Oreo, schedule: Schedule) -> Self {
        Self {
            inner: oreo,
            schedule,
            due: VecDeque::new(),
        }
    }

    /// Access the wrapped framework (for layouts and state-space statistics).
    pub fn framework(&self) -> &Oreo {
        &self.inner
    }
}

impl ReorgPolicy for ScheduledPolicy {
    fn name(&self) -> String {
        match self.schedule {
            Schedule::Configured(_) => "OREO".into(),
            Schedule::Served => "OREO (served order)".into(),
        }
    }

    fn observe(&mut self, query: &Query) -> StepCost {
        let oreo = &mut self.inner;
        let report = match self.schedule {
            Schedule::Configured(delay) => {
                let mut report = oreo.decide(query);
                if let Some(target) = report.reorg_decision {
                    self.due.push_back((report.seq + delay, target));
                }
                // One landing per due decision, oldest first: each lands
                // exactly the switch at the front of the pending queue.
                while let Some(&(at, target)) = self.due.front() {
                    if at > report.seq {
                        break;
                    }
                    self.due.pop_front();
                    oreo.complete_reorg(target);
                }
                oreo.settle(query, &mut report);
                report
            }
            Schedule::Served => oreo.observe(query),
        };
        let switched = report.reorg_decision.is_some();
        StepCost {
            service: report.service_cost,
            reorg: if switched { oreo.config().alpha } else { 0.0 },
            switched,
        }
    }

    fn switches(&self) -> u64 {
        self.inner.switches()
    }
}

impl LayoutOracle for ScheduledPolicy {
    fn probe_cost(&mut self, query: &Query) -> f64 {
        self.inner.physical_cost(query)
    }

    fn serve(&mut self, query: &Query) {
        ReorgPolicy::observe(self, query);
    }
}
