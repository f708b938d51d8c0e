//! What the Greedy and Regret baselines share (§VI-A3: "the three online
//! approaches ... utilize the same set of data layout candidates"): OREO's
//! own [`LayoutManager`] as the candidate producer, the layout the policy
//! currently lives in, and its bill. Each policy keeps only its decision
//! rule.

use crate::policy::StepCost;
use oreo_core::{LayoutManager, OreoConfig};
use oreo_layout::{build_exact_model, LayoutGenerator, SharedSpec};
use oreo_query::Query;
use oreo_storage::{LayoutModel, Table};
use std::sync::Arc;

/// Candidate producer, current layout and switch count of one online
/// baseline.
pub(crate) struct OnlineBaseline {
    /// Built as [`oreo_core::Oreo::new`] builds OREO's. Its ε-test is never
    /// run: at any ε it rejects exact duplicates, and a recurring template
    /// regenerates an identical layout the baselines must still see. So it
    /// is handed no live states: only the ε-test reads their costs.
    manager: LayoutManager,
    table: Arc<Table>,
    alpha: f64,
    /// Sample model of the current layout (decision surface).
    estimate: LayoutModel,
    /// Exact model of the current layout (billing surface).
    exact: LayoutModel,
    switches: u64,
}

impl OnlineBaseline {
    /// A baseline living in `initial_spec` over `table`, drawing candidates
    /// from `generator` with `config`'s sample, window and cadence.
    pub(crate) fn new(
        table: Arc<Table>,
        initial_spec: SharedSpec,
        generator: Arc<dyn LayoutGenerator>,
        config: &OreoConfig,
    ) -> Self {
        let (manager, estimate) =
            LayoutManager::for_table(&table, Arc::clone(&initial_spec), generator, config);
        let exact = build_exact_model(initial_spec.as_ref(), estimate.id(), &table);
        Self {
            manager,
            table,
            alpha: config.alpha,
            estimate,
            exact,
            switches: 0,
        }
    }

    /// Push `query` into the manager's samples. On a generation boundary,
    /// the candidates it generated, as `(spec, sample model)` pairs;
    /// otherwise none.
    pub(crate) fn candidates(&mut self, query: &Query) -> Vec<(SharedSpec, LayoutModel)> {
        let task = self.manager.capture(query, std::iter::empty());
        task.map(|t| t.build().into_candidates())
            .unwrap_or_default()
    }

    /// The manager's sliding window of recent queries.
    pub(crate) fn window(&self) -> Vec<Query> {
        self.manager.window_queries()
    }

    /// Sample model of the current layout.
    pub(crate) fn estimate(&self) -> &LayoutModel {
        &self.estimate
    }

    /// Reorganization cost α.
    pub(crate) fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Layout switches so far.
    pub(crate) fn switches(&self) -> u64 {
        self.switches
    }

    /// The switch step: live in `spec` from now on, decided on `model`.
    pub(crate) fn switch_to(&mut self, spec: &SharedSpec, model: LayoutModel) {
        self.switches += 1;
        self.exact = build_exact_model(spec.as_ref(), self.switches, &self.table);
        self.estimate = model;
    }

    /// The billing step: `query` served on the current layout, plus α when
    /// this step `switched`.
    pub(crate) fn bill(&self, query: &Query, switched: bool) -> StepCost {
        StepCost {
            service: self.exact.cost(query),
            reorg: if switched { self.alpha } else { 0.0 },
            switched,
        }
    }
}
