//! [`ReorgPolicy`] adapters for the full OREO framework.

use crate::policy::{ReorgPolicy, StepCost};
use oreo_core::{Oreo, OreoConfig, StepReport};
use oreo_layout::{LayoutGenerator, SharedSpec};
use oreo_query::Query;
use oreo_storage::Table;
use std::sync::Arc;

/// OREO as a simulator policy.
pub struct OreoPolicy {
    inner: Oreo,
}

impl OreoPolicy {
    /// Wraps a full OREO instance behind the [`crate::ReorgPolicy`] interface.
    pub fn new(
        table: Arc<Table>,
        initial_spec: SharedSpec,
        generator: Arc<dyn LayoutGenerator>,
        config: OreoConfig,
    ) -> Self {
        Self {
            inner: Oreo::new(table, initial_spec, generator, config),
        }
    }

    /// Access the wrapped framework (for state-space statistics).
    pub fn framework(&self) -> &Oreo {
        &self.inner
    }
}

impl ReorgPolicy for OreoPolicy {
    fn name(&self) -> String {
        "OREO".into()
    }

    fn observe(&mut self, query: &Query) -> StepCost {
        let report = self.inner.observe(query);
        step_cost(&report, self.inner.config().alpha)
    }

    fn switches(&self) -> u64 {
        self.inner.switches()
    }
}

/// OREO in the order the serving engine (`oreo-engine`) runs it when each
/// query is submitted only after the engine has drained the one before:
/// capture → step → settle under the engine's lock, then the admission of
/// the boundary's candidates, built off the lock, then the landing of the
/// switch the query decided, when its snapshot publishes. Unlike
/// [`OreoPolicy`], a boundary's candidates join after its query is decided,
/// and a switch lands after the query that decided it, whatever
/// `OreoConfig::reorg_delay` says. Admission and landing commute: admitting
/// reads neither the physical layout nor the pending switches, and landing
/// touches neither the layout manager nor D-UMTS. This is the reference
/// every engine-vs-simulator ledger parity compares against.
pub struct ServedOrderPolicy {
    inner: Oreo,
}

impl From<OreoPolicy> for ServedOrderPolicy {
    /// Feeds `policy`'s framework in served order from here on.
    fn from(policy: OreoPolicy) -> Self {
        Self {
            inner: policy.inner,
        }
    }
}

impl ServedOrderPolicy {
    /// Access the wrapped framework (for layouts and state-space statistics).
    pub fn framework(&self) -> &Oreo {
        &self.inner
    }
}

impl ReorgPolicy for ServedOrderPolicy {
    fn name(&self) -> String {
        "OREO (served order)".into()
    }

    fn observe(&mut self, query: &Query) -> StepCost {
        let oreo = &mut self.inner;
        let (mut report, task) = oreo.capture(query);
        oreo.step(query, &mut report);
        oreo.settle(query, &mut report);
        if let Some(task) = task {
            oreo.admit(task.build());
        }
        if let Some(target) = report.reorg_decision {
            oreo.complete_reorg(target);
        }
        step_cost(&report, oreo.config().alpha)
    }

    fn switches(&self) -> u64 {
        self.inner.switches()
    }
}

/// What one observed query cost: its service, and α if it decided a switch.
fn step_cost(report: &StepReport, alpha: f64) -> StepCost {
    let switched = report.reorg_decision.is_some();
    StepCost {
        service: report.service_cost,
        reorg: if switched { alpha } else { 0.0 },
        switched,
    }
}
