//! The LAYOUT MANAGER: producer of the dynamic state space (§V).
//!
//! Responsibilities:
//!
//! 1. **Candidate generation** (§V-A): every `generation_interval` queries,
//!    call the pluggable [`LayoutGenerator`] on a small *data* sample and a
//!    *workload* sample — by default the sliding window of recent queries
//!    (the configuration the paper found best), optionally a uniform
//!    reservoir or both (the §VI-D4 ablation).
//! 2. **Admission** (Algorithm 5): evaluate the candidate's cost vector on
//!    an R-TBS time-biased query sample and admit only if its normalized L1
//!    distance to *every* existing state exceeds ε — keeping the state space
//!    compact, which directly tightens the `2H(|S_max|)` competitive ratio.
//!
//! A generation boundary is three steps, and only the first and last touch
//! the manager: [`LayoutManager::capture`] pushes the query into the samples
//! and, on a boundary, hands back a [`CandidateTask`] that owns everything
//! generation reads; [`CandidateTask::build`] generates, models and costs
//! the candidates on whatever thread holds the task; and
//! [`LayoutManager::admit`] runs the ε-test against the states live *then*
//! and installs the survivors. [`LayoutManager::observe`] is the three in a
//! row. D-UMTS keeps its bound for states that join at any point of the
//! stream (Theorem IV.1), so a driver may answer the boundary query — and
//! many after it — before the candidate it triggered exists.

use crate::config::OreoConfig;
use oreo_layout::{build_model, LayoutGenerator, SharedSpec};
use oreo_query::Query;
use oreo_sampling::{Reservoir, SlidingWindow, TimeBiasedReservoir};
use oreo_storage::{cost_vector_distance, LayoutId, LayoutModel, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Capacity of the R-TBS admission sample.
pub(crate) const RTBS_CAPACITY: usize = 64;
/// Decay rate λ of the R-TBS admission sample.
pub(crate) const RTBS_LAMBDA: f64 = 0.005;

/// Which workload sample feeds `generate_layout` (§VI-D4 ablation).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CandidateSource {
    /// Sliding window only (paper default, best overall).
    SlidingWindow,
    /// Uniform reservoir only.
    Reservoir,
    /// One candidate from each per generation round.
    Both,
}

/// Layout-manager configuration (defaults = the paper's §VI-A3 setup).
#[derive(Clone, Debug)]
pub struct ManagerConfig {
    /// Admission distance threshold ε (default 0.08).
    pub epsilon: f64,
    /// Sliding-window length (default 200 queries).
    pub window: usize,
    /// Generate candidates every this many queries (default = window).
    pub generation_interval: u64,
    /// Capacity of the uniform reservoir (ablation source).
    pub reservoir_capacity: usize,
    /// Workload sample source for candidate generation.
    pub source: CandidateSource,
    /// RNG seed (sampling + generator randomness).
    pub seed: u64,
}

impl Default for ManagerConfig {
    fn default() -> Self {
        Self {
            epsilon: 0.08,
            window: 200,
            generation_interval: 200,
            reservoir_capacity: 200,
            source: CandidateSource::SlidingWindow,
            seed: 0,
        }
    }
}

/// A state owned by the manager: the routing spec plus its estimated
/// (sample-scaled) metadata model.
#[derive(Clone)]
pub struct ManagedLayout {
    /// Stable identifier, shared with the reorganizer's state space.
    pub id: LayoutId,
    /// The routing spec (how rows map to partitions).
    pub spec: SharedSpec,
    /// Estimated per-partition metadata used for cost evaluation. Shared:
    /// a [`CandidateTask`] costs its candidate against every live state's
    /// model, and capturing one is a pointer copy.
    pub model: Arc<LayoutModel>,
}

impl std::fmt::Debug for ManagedLayout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ManagedLayout")
            .field("id", &self.id)
            .field("name", &self.model.name())
            .finish()
    }
}

/// Bookkeeping counters (Fig. 6 reports state-space size; the docs report
/// admission rates).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ManagerStats {
    /// Candidate layouts produced by the generator.
    pub generated: u64,
    /// Candidates that passed the ε-distance admission test.
    pub admitted: u64,
    /// Candidates rejected as too close to an existing state.
    pub rejected: u64,
    /// Generation boundaries whose [`CandidateTask`] a driver discarded
    /// unbuilt because a newer boundary fired first
    /// ([`LayoutManager::discard`]); always 0 under
    /// [`LayoutManager::observe`].
    pub superseded: u64,
    /// Largest state-space size observed (the paper's |S_max|).
    pub peak_states: usize,
}

/// One generation boundary's inputs, captured under whatever lock guards
/// the manager and built without it: the workload sample(s) to generate
/// from, the R-TBS admission sample, the generator, the data sample and the
/// sample models of the states live at capture. `Send`, and everything
/// large in it is behind an `Arc`.
pub struct CandidateTask {
    generator: Arc<dyn LayoutGenerator>,
    data_sample: Arc<Table>,
    full_rows: f64,
    k: usize,
    /// The manager's generator state at capture. Generation draws from this
    /// copy, so what the samplers draw next does not depend on when — or
    /// whether — the task is built.
    rng: StdRng,
    /// One workload per candidate ([`CandidateSource::Both`] captures two).
    workloads: Vec<Vec<Query>>,
    sample: Vec<Query>,
    states: Vec<(LayoutId, Arc<LayoutModel>)>,
    /// `queries_seen` at capture.
    captured_at: u64,
}

/// A layout generated and costed by [`CandidateTask::build`], not yet
/// ε-tested: the test is against the states live at admission.
struct Candidate {
    spec: SharedSpec,
    /// Carries a provisional id until admission assigns the real one.
    model: LayoutModel,
    costs: Vec<f64>,
}

/// What [`CandidateTask::build`] produced, for [`LayoutManager::admit`].
pub struct BuiltCandidates {
    sample: Vec<Query>,
    /// Cost vector over `sample` of every state captured, by id.
    state_costs: BTreeMap<LayoutId, Vec<f64>>,
    candidates: Vec<Candidate>,
    captured_at: u64,
}

impl CandidateTask {
    /// The construct step: `generate`, `build_model` and one cost vector
    /// over the admission sample per candidate and per captured state —
    /// the vector both Algorithm 5's ε-distance and the §IV-C predictor
    /// weights are read from. Touches nothing but the task.
    pub fn build(mut self) -> BuiltCandidates {
        let candidates = (self.workloads.iter().filter(|w| !w.is_empty()))
            .map(|workload| {
                let spec =
                    self.generator
                        .generate(&self.data_sample, workload, self.k, &mut self.rng);
                let model = build_model(spec.as_ref(), u64::MAX, &self.data_sample, self.full_rows);
                let costs = model.cost_vector(&self.sample);
                Candidate { spec, model, costs }
            })
            .collect();
        let state_costs = (self.states.iter())
            .map(|(id, model)| (*id, model.cost_vector(&self.sample)))
            .collect();
        BuiltCandidates {
            sample: self.sample,
            state_costs,
            candidates,
            captured_at: self.captured_at,
        }
    }
}

impl BuiltCandidates {
    /// The boundary's candidates before the ε-test, in generation order, as
    /// `(spec, sample model)` pairs — for a driver that weighs candidates by
    /// its own rule instead of admitting them (the Greedy and Regret
    /// baselines). Each model carries a placeholder id.
    pub fn into_candidates(self) -> Vec<(SharedSpec, LayoutModel)> {
        (self.candidates.into_iter())
            .map(|c| (c.spec, c.model))
            .collect()
    }
}

/// What [`LayoutManager::admit`] did with one boundary's candidates.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Admission {
    /// Layouts that passed the ε-test and joined the state space, in
    /// generation order.
    pub admitted: Vec<LayoutId>,
    /// Queries the manager observed between the boundary's capture and
    /// this admission (0 under [`LayoutManager::observe`]).
    pub lag_queries: u64,
    /// §IV-C predictor score — skipped fraction on the admission sample,
    /// `1 − mean cost` — of every state live after the admission. Empty
    /// when the admission sample was.
    pub weights: BTreeMap<LayoutId, f64>,
}

/// The LAYOUT MANAGER.
///
/// # Example
///
/// ```
/// use oreo_core::{LayoutManager, ManagerConfig};
/// use oreo_layout::{QdTreeGenerator, RangeLayout, SharedSpec};
/// use oreo_query::{ColumnType, QueryBuilder, Scalar, Schema};
/// use oreo_storage::TableBuilder;
/// use std::sync::Arc;
///
/// // a tiny one-column table
/// let schema = Arc::new(Schema::from_pairs([("v", ColumnType::Int)]));
/// let mut b = TableBuilder::new(Arc::clone(&schema));
/// for i in 0..1_000i64 {
///     b.push_row(&[Scalar::Int(i)]);
/// }
/// let table = b.finish();
///
/// // start from an equi-depth range layout; grow Qd-tree candidates
/// let initial: SharedSpec = Arc::new(RangeLayout::from_sample(&table, 0, 8));
/// let config = ManagerConfig {
///     window: 50,
///     generation_interval: 50,
///     ..Default::default()
/// };
/// let (mut manager, initial_id) =
///     LayoutManager::new(table, 1_000.0, Arc::new(QdTreeGenerator::new()), 8, initial, config);
///
/// // every `generation_interval` queries the manager proposes candidates
/// for i in 0..100i64 {
///     let lo = (i * 9) % 900;
///     let q = QueryBuilder::new(&schema).between("v", lo, lo + 40).build();
///     let _admitted = manager.observe(&q);
/// }
/// assert!(manager.states().contains_key(&initial_id));
/// assert!(manager.stats().generated > 0);
/// assert_eq!(manager.num_states(), manager.states().len());
/// ```
pub struct LayoutManager {
    config: ManagerConfig,
    generator: Arc<dyn LayoutGenerator>,
    /// Small data sample used for `generate_layout` and candidate costing.
    data_sample: Arc<Table>,
    /// Row count of the full table (for scaling sample metadata).
    full_rows: f64,
    /// Target partition count handed to the generator.
    k: usize,
    window: SlidingWindow<Query>,
    reservoir: Reservoir<Query>,
    rtbs: TimeBiasedReservoir<Query>,
    states: BTreeMap<LayoutId, ManagedLayout>,
    next_id: LayoutId,
    queries_seen: u64,
    rng: StdRng,
    stats: ManagerStats,
}

impl LayoutManager {
    /// Create a manager seeded with one initial (default) layout spec.
    /// Returns the manager and the initial state's id.
    pub fn new(
        data_sample: Table,
        full_rows: f64,
        generator: Arc<dyn LayoutGenerator>,
        k: usize,
        initial_spec: SharedSpec,
        config: ManagerConfig,
    ) -> (Self, LayoutId) {
        assert!(k >= 1);
        assert!(config.epsilon >= 0.0 && config.epsilon <= 1.0);
        let mut this = Self {
            window: SlidingWindow::new(config.window),
            reservoir: Reservoir::new(config.reservoir_capacity),
            rtbs: TimeBiasedReservoir::new(RTBS_CAPACITY, RTBS_LAMBDA),
            rng: StdRng::seed_from_u64(config.seed),
            config,
            generator,
            data_sample: Arc::new(data_sample),
            full_rows,
            k,
            states: BTreeMap::new(),
            next_id: 0,
            queries_seen: 0,
            stats: ManagerStats::default(),
        };
        let model = build_model(initial_spec.as_ref(), 0, &this.data_sample, full_rows);
        let id = this.install(initial_spec, model);
        (this, id)
    }

    /// The manager [`crate::Oreo::new`] builds over `table`: generation runs
    /// on a `data_sample_rows` sample of `table` (drawn with seed
    /// `seed ^ 0xD5A7`), `initial_spec` is state 0, and the rest is
    /// [`OreoConfig::manager_config`].
    pub fn for_table(
        table: &Table,
        initial_spec: SharedSpec,
        generator: Arc<dyn LayoutGenerator>,
        config: &OreoConfig,
    ) -> (Self, LayoutId) {
        let mut sample_rng = StdRng::seed_from_u64(config.seed ^ 0xD5A7);
        let data_sample = table.sample(&mut sample_rng, config.data_sample_rows);
        Self::new(
            data_sample,
            table.num_rows() as f64,
            generator,
            config.partitions,
            initial_spec,
            config.manager_config(),
        )
    }

    /// Enter `spec` into the state space under the next id; `model` is its
    /// sample model under any id.
    fn install(&mut self, spec: SharedSpec, model: LayoutModel) -> LayoutId {
        let id = self.next_id;
        self.next_id += 1;
        let model = Arc::new(model.with_id(id));
        self.states.insert(id, ManagedLayout { id, spec, model });
        self.stats.peak_states = self.stats.peak_states.max(self.states.len());
        id
    }

    /// Current state space (id → managed layout).
    pub fn states(&self) -> &BTreeMap<LayoutId, ManagedLayout> {
        &self.states
    }

    /// Current state-space size |S|.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Admission/eviction counters so far.
    pub fn stats(&self) -> ManagerStats {
        self.stats
    }

    /// The configuration this manager was built with.
    pub fn config(&self) -> &ManagerConfig {
        &self.config
    }

    /// A state's managed entry.
    pub fn state(&self, id: LayoutId) -> Option<&ManagedLayout> {
        self.states.get(&id)
    }

    /// Observe one query: update samples; on generation boundaries, produce
    /// candidates and run admission. Returns the layouts admitted.
    /// This is [`LayoutManager::capture`] → [`CandidateTask::build`] →
    /// [`LayoutManager::admit`] with nothing in between.
    pub fn observe(&mut self, query: &Query) -> Vec<LayoutId> {
        match self.capture(query) {
            Some(task) => self.admit(task.build()).admitted,
            None => Vec::new(),
        }
    }

    /// The capture step: push `query` into the samples and, on a
    /// generation boundary, hand back everything candidate construction
    /// reads. Cost is the samples' clones plus one pointer per live state.
    pub fn capture(&mut self, query: &Query) -> Option<CandidateTask> {
        self.queries_seen += 1;
        self.window.push(query.clone());
        self.reservoir.push(query.clone(), &mut self.rng);
        self.rtbs.push(query.clone(), &mut self.rng);

        if !self
            .queries_seen
            .is_multiple_of(self.config.generation_interval)
        {
            return None;
        }
        let workloads = match self.config.source {
            CandidateSource::SlidingWindow => vec![self.window.to_vec()],
            CandidateSource::Reservoir => vec![self.reservoir.to_vec()],
            CandidateSource::Both => vec![self.window.to_vec(), self.reservoir.to_vec()],
        };
        let states = self.states.values();
        Some(CandidateTask {
            generator: Arc::clone(&self.generator),
            data_sample: Arc::clone(&self.data_sample),
            full_rows: self.full_rows,
            k: self.k,
            rng: self.rng.clone(),
            workloads,
            sample: self.rtbs.to_vec(),
            states: states.map(|s| (s.id, Arc::clone(&s.model))).collect(),
            captured_at: self.queries_seen,
        })
    }

    /// The admit step — Algorithm 5: a candidate joins iff its cost vector
    /// over the boundary's R-TBS sample is more than ε away (normalized L1)
    /// from that of every state live *now*, earlier candidates of the same
    /// boundary included. A state that joined after the capture is costed
    /// here, on the same sample; one that left is ignored. O(states)
    /// vector distances when the state space did not change in between.
    pub fn admit(&mut self, built: BuiltCandidates) -> Admission {
        let BuiltCandidates {
            sample,
            mut state_costs,
            candidates,
            captured_at,
        } = built;
        let mut live: Vec<(LayoutId, Vec<f64>)> = (self.states.values())
            .map(|s| {
                let captured = state_costs.remove(&s.id);
                (
                    s.id,
                    captured.unwrap_or_else(|| s.model.cost_vector(&sample)),
                )
            })
            .collect();
        let mut admitted = Vec::new();
        for Candidate { spec, model, costs } in candidates {
            self.stats.generated += 1;
            let min_dist = (live.iter())
                .map(|(_, state)| cost_vector_distance(&costs, state))
                .fold(f64::INFINITY, f64::min);
            if min_dist > self.config.epsilon {
                self.stats.admitted += 1;
                let id = self.install(spec, model);
                live.push((id, costs));
                admitted.push(id);
            } else {
                self.stats.rejected += 1;
            }
        }
        let weights = if sample.is_empty() {
            BTreeMap::new()
        } else {
            let score = |costs: &[f64]| {
                let mean = costs.iter().sum::<f64>() / costs.len() as f64;
                (1.0 - mean).clamp(0.0, 1.0)
            };
            live.iter().map(|(id, c)| (*id, score(c))).collect()
        };
        Admission {
            admitted,
            lag_queries: self.queries_seen - captured_at,
            weights,
        }
    }

    /// Drop a captured boundary unbuilt — a driver that constructs off the
    /// lock keeps only the newest boundary's task per table — and count it.
    pub fn discard(&mut self, task: CandidateTask) {
        drop(task);
        self.stats.superseded += 1;
    }

    /// The sliding window contents. The Greedy baseline weighs each
    /// boundary's candidates on it; the candidates themselves come from
    /// this manager too, so every online policy sees the same ones.
    pub fn window_queries(&self) -> Vec<Query> {
        self.window.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oreo_layout::{QdTreeGenerator, RangeGenerator, RangeLayout};
    use oreo_query::{ColumnType, QueryBuilder, Scalar, Schema};
    use oreo_storage::TableBuilder;

    fn table(n: i64) -> Table {
        let s = Arc::new(Schema::from_pairs([
            ("ts", ColumnType::Timestamp),
            ("a", ColumnType::Int),
            ("b", ColumnType::Int),
        ]));
        let mut b = TableBuilder::new(Arc::clone(&s));
        for i in 0..n {
            b.push_row(&[
                Scalar::Int(i),
                Scalar::Int((i * 7) % 1000),
                Scalar::Int((i * 13) % 1000),
            ]);
        }
        b.finish()
    }

    fn manager(epsilon: f64) -> (LayoutManager, LayoutId, Table) {
        let t = table(2000);
        let initial = Arc::new(RangeLayout::from_sample(&t, 0, 8));
        let cfg = ManagerConfig {
            epsilon,
            window: 50,
            generation_interval: 50,
            ..Default::default()
        };
        let (m, id) = LayoutManager::new(
            t.clone(),
            2000.0,
            Arc::new(QdTreeGenerator::new()),
            8,
            initial,
            cfg,
        );
        (m, id, t)
    }

    fn a_query(t: &Table, lo: i64) -> Query {
        QueryBuilder::new(t.schema())
            .between("a", lo, lo + 200)
            .build()
    }

    #[test]
    fn generates_on_interval_and_admits_useful_layouts() {
        let (mut m, initial, t) = manager(0.05);
        let mut added = Vec::new();
        for i in 0..100 {
            added.extend(m.observe(&a_query(&t, i % 10)));
        }
        // two generation rounds; a qd-tree on `a` is very different from the
        // initial range-on-ts layout, so the first candidate is admitted
        assert!(!added.is_empty(), "no layout admitted");
        assert!(m.num_states() >= 2);
        assert_ne!(added[0], initial);
        assert!(m.stats().generated >= 2);
    }

    #[test]
    fn duplicate_layouts_are_rejected() {
        let (mut m, _, t) = manager(0.05);
        // constant workload → generated qd-trees are identical; only the
        // first can be admitted
        for i in 0..500 {
            let _ = m.observe(&a_query(&t, 100).with_seq(i));
        }
        assert!(
            m.num_states() <= 3,
            "state space exploded: {}",
            m.num_states()
        );
        assert!(m.stats().rejected > 0, "expected rejections");
    }

    #[test]
    fn epsilon_one_admits_nothing() {
        let (mut m, _, t) = manager(1.0);
        for i in 0..300 {
            let _ = m.observe(&a_query(&t, i % 7));
        }
        assert_eq!(m.num_states(), 1, "ε=1 must reject everything");
        assert_eq!(m.stats().admitted, 0);
    }

    #[test]
    fn generation_uses_configured_source() {
        let t = table(1000);
        let initial = Arc::new(RangeLayout::from_sample(&t, 0, 4));
        let cfg = ManagerConfig {
            epsilon: 0.0,
            window: 20,
            generation_interval: 20,
            source: CandidateSource::Both,
            ..Default::default()
        };
        let (mut m, _) = LayoutManager::new(
            t.clone(),
            1000.0,
            Arc::new(RangeGenerator::new(1)),
            4,
            initial,
            cfg,
        );
        for i in 0..20 {
            let _ = m.observe(&a_query(&t, i));
        }
        // Both → two candidates per round
        assert_eq!(m.stats().generated, 2);
    }
}
