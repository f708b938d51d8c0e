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
//! The manager keeps the samples, the generator and the id allocator; the
//! state space itself is the caller's ([`crate::Oreo`] keeps each live
//! layout once), and the two steps that read it are handed the live
//! `(id, sample model)` pairs. A generation boundary is three steps, and
//! only the first and last touch the manager: [`LayoutManager::capture`]
//! pushes the query into the samples and, on a boundary, hands back a
//! [`CandidateTask`] that owns everything generation reads;
//! [`CandidateTask::build`] generates, models and costs the candidates on
//! whatever thread holds the task; and [`LayoutManager::admit`] runs the
//! ε-test against the states live *then* and returns the survivors for the
//! caller to install. D-UMTS keeps its bound for states that join at any
//! point of the stream (Theorem IV.1), so a driver may answer the boundary
//! query — and many after it — before the candidate it triggered exists.

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

/// Bookkeeping counters (Fig. 6 reports admissions and rejections beside
/// the peak state-space size, which D-UMTS counts).
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
    /// [`crate::Oreo::observe`].
    pub superseded: u64,
}

/// One generation boundary's inputs, captured under whatever lock guards
/// the manager and built without it: the workload sample(s) to generate
/// from, the R-TBS admission sample, the generator, the data sample and the
/// sample models of the states live at capture. `Send`, and everything
/// large in it is behind an `Arc`; a clone builds the same candidates.
#[derive(Clone)]
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
    /// this admission (0 under [`crate::Oreo::observe`]).
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
/// use std::collections::BTreeMap;
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
/// let (mut manager, initial) =
///     LayoutManager::new(table, 1_000.0, Arc::new(QdTreeGenerator::new()), 8, initial, config);
///
/// // the caller keeps the live states: here, id → sample model
/// let mut live = BTreeMap::from([(initial.id(), Arc::new(initial))]);
///
/// // every `generation_interval` queries the manager proposes candidates
/// for i in 0..100i64 {
///     let lo = (i * 9) % 900;
///     let q = QueryBuilder::new(&schema).between("v", lo, lo + 40).build();
///     if let Some(task) = manager.capture(&q, live.iter().map(|(&id, m)| (id, m))) {
///         let built = task.build();
///         let (_admission, admitted) = manager.admit(built, live.iter().map(|(&id, m)| (id, m)));
///         for (_spec, model) in admitted {
///             live.insert(model.id(), Arc::new(model));
///         }
///     }
/// }
/// assert_eq!(manager.stats().generated, 2);
/// assert_eq!(live.len() as u64, 1 + manager.stats().admitted);
/// ```
pub struct LayoutManager {
    config: ManagerConfig,
    generator: Arc<dyn LayoutGenerator>,
    /// Small data sample used for `generate_layout` and candidate costing,
    /// fixed for the manager's life and so prepared once
    /// ([`Table::prepared`]): no build re-sorts it.
    data_sample: Arc<Table>,
    /// Row count of the full table (for scaling sample metadata).
    full_rows: f64,
    /// Target partition count handed to the generator.
    k: usize,
    window: SlidingWindow<Query>,
    reservoir: Reservoir<Query>,
    rtbs: TimeBiasedReservoir<Query>,
    next_id: LayoutId,
    queries_seen: u64,
    rng: StdRng,
    stats: ManagerStats,
}

impl LayoutManager {
    /// Create a manager seeded with one initial (default) layout spec.
    /// Returns the manager and the initial state's sample model, which
    /// carries the initial state's id.
    pub fn new(
        data_sample: Table,
        full_rows: f64,
        generator: Arc<dyn LayoutGenerator>,
        k: usize,
        initial_spec: SharedSpec,
        config: ManagerConfig,
    ) -> (Self, LayoutModel) {
        assert!(k >= 1);
        assert!(config.epsilon >= 0.0 && config.epsilon <= 1.0);
        let mut this = Self {
            window: SlidingWindow::new(config.window),
            reservoir: Reservoir::new(config.reservoir_capacity),
            rtbs: TimeBiasedReservoir::new(RTBS_CAPACITY, RTBS_LAMBDA),
            rng: StdRng::seed_from_u64(config.seed),
            config,
            generator,
            data_sample: Arc::new(data_sample.prepared()),
            full_rows,
            k,
            next_id: 0,
            queries_seen: 0,
            stats: ManagerStats::default(),
        };
        let model = build_model(initial_spec.as_ref(), 0, &this.data_sample, full_rows);
        let model = this.assign_id(model);
        (this, model)
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
    ) -> (Self, LayoutModel) {
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

    /// `model` under the next state id.
    fn assign_id(&mut self, model: LayoutModel) -> LayoutModel {
        let id = self.next_id;
        self.next_id += 1;
        model.with_id(id)
    }

    /// Generation and admission counters so far.
    pub fn stats(&self) -> ManagerStats {
        self.stats
    }

    /// The configuration this manager was built with.
    pub fn config(&self) -> &ManagerConfig {
        &self.config
    }

    /// The capture step: push `query` into the samples and, on a
    /// generation boundary, hand back everything candidate construction
    /// reads, `live` — the states live now, as `(id, sample model)` pairs —
    /// included. `live` is read only on a boundary. Cost is the samples'
    /// clones plus one pointer per live state.
    pub fn capture<'a>(
        &mut self,
        query: &Query,
        live: impl IntoIterator<Item = (LayoutId, &'a Arc<LayoutModel>)>,
    ) -> Option<CandidateTask> {
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
        Some(CandidateTask {
            generator: Arc::clone(&self.generator),
            data_sample: Arc::clone(&self.data_sample),
            full_rows: self.full_rows,
            k: self.k,
            rng: self.rng.clone(),
            workloads,
            sample: self.rtbs.to_vec(),
            states: (live.into_iter())
                .map(|(id, model)| (id, Arc::clone(model)))
                .collect(),
            captured_at: self.queries_seen,
        })
    }

    /// The admit step — Algorithm 5: a candidate joins iff its cost vector
    /// over the boundary's R-TBS sample is more than ε away (normalized L1)
    /// from that of every state in `live` — the states live *now*, as
    /// `(id, sample model)` pairs — and of the earlier candidates of the
    /// same boundary. A state that joined after the capture is costed here,
    /// on the same sample; one that left is ignored. O(states) vector
    /// distances when the state space did not change in between.
    ///
    /// Returns what happened and the admitted layouts, as `(spec, sample
    /// model)` pairs in generation order, each model under its new state
    /// id, for the caller to install.
    pub fn admit<'a>(
        &mut self,
        built: BuiltCandidates,
        live: impl IntoIterator<Item = (LayoutId, &'a Arc<LayoutModel>)>,
    ) -> (Admission, Vec<(SharedSpec, LayoutModel)>) {
        let BuiltCandidates {
            sample,
            mut state_costs,
            candidates,
            captured_at,
        } = built;
        let mut live: Vec<(LayoutId, Vec<f64>)> = (live.into_iter())
            .map(|(id, model)| {
                let captured = state_costs.remove(&id);
                (id, captured.unwrap_or_else(|| model.cost_vector(&sample)))
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
                let model = self.assign_id(model);
                live.push((model.id(), costs));
                admitted.push((spec, model));
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
        let admission = Admission {
            admitted: admitted.iter().map(|(_, model)| model.id()).collect(),
            lag_queries: self.queries_seen - captured_at,
            weights,
        };
        (admission, admitted)
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

    type Live = BTreeMap<LayoutId, Arc<LayoutModel>>;

    fn manager(epsilon: f64) -> (LayoutManager, Live, Table) {
        let t = table(2000);
        let initial = Arc::new(RangeLayout::from_sample(&t, 0, 8));
        let cfg = ManagerConfig {
            epsilon,
            window: 50,
            generation_interval: 50,
            ..Default::default()
        };
        let (m, initial) = LayoutManager::new(
            t.clone(),
            2000.0,
            Arc::new(QdTreeGenerator::new()),
            8,
            initial,
            cfg,
        );
        (m, Live::from([(initial.id(), Arc::new(initial))]), t)
    }

    /// The caller's side of one query: capture, and on a boundary build and
    /// admit against `live`, installing the survivors there. Returns the
    /// ids admitted.
    fn observe(m: &mut LayoutManager, live: &mut Live, q: &Query) -> Vec<LayoutId> {
        let Some(task) = m.capture(q, live.iter().map(|(&id, model)| (id, model))) else {
            return Vec::new();
        };
        let built = task.build();
        let (admission, admitted) = m.admit(built, live.iter().map(|(&id, model)| (id, model)));
        for (_, model) in admitted {
            live.insert(model.id(), Arc::new(model));
        }
        admission.admitted
    }

    fn a_query(t: &Table, lo: i64) -> Query {
        QueryBuilder::new(t.schema())
            .between("a", lo, lo + 200)
            .build()
    }

    #[test]
    fn generates_on_interval_and_admits_useful_layouts() {
        let (mut m, mut live, t) = manager(0.05);
        let initial = *live.keys().next().unwrap();
        let mut added = Vec::new();
        for i in 0..100 {
            added.extend(observe(&mut m, &mut live, &a_query(&t, i % 10)));
        }
        // two generation rounds; a qd-tree on `a` is very different from the
        // initial range-on-ts layout, so the first candidate is admitted
        assert!(!added.is_empty(), "no layout admitted");
        assert!(live.len() >= 2);
        assert_ne!(added[0], initial);
        assert!(m.stats().generated >= 2);
    }

    #[test]
    fn duplicate_layouts_are_rejected() {
        let (mut m, mut live, t) = manager(0.05);
        // constant workload → generated qd-trees are identical; only the
        // first can be admitted
        for i in 0..500 {
            let _ = observe(&mut m, &mut live, &a_query(&t, 100).with_seq(i));
        }
        assert!(live.len() <= 3, "state space exploded: {}", live.len());
        assert!(m.stats().rejected > 0, "expected rejections");
    }

    #[test]
    fn epsilon_one_admits_nothing() {
        let (mut m, mut live, t) = manager(1.0);
        for i in 0..300 {
            let _ = observe(&mut m, &mut live, &a_query(&t, i % 7));
        }
        assert_eq!(live.len(), 1, "ε=1 must reject everything");
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
        let (mut m, initial) = LayoutManager::new(
            t.clone(),
            1000.0,
            Arc::new(RangeGenerator::new(1)),
            4,
            initial,
            cfg,
        );
        let mut live = Live::from([(initial.id(), Arc::new(initial))]);
        for i in 0..20 {
            let _ = observe(&mut m, &mut live, &a_query(&t, i));
        }
        // Both → two candidates per round
        assert_eq!(m.stats().generated, 2);
    }
}

#[cfg(test)]
mod pinned {
    use super::*;
    use oreo_layout::{QdTreeGenerator, RangeLayout};
    use oreo_workload::{telemetry, Scenario, ScenarioConfig};

    /// FNV-1a over the bits of a cost vector: equal digests mean equal
    /// vectors, bit for bit.
    fn digest(costs: &[f64]) -> u64 {
        costs.iter().fold(0xcbf2_9ce4_8422_2325, |h, c| {
            (c.to_bits().to_le_bytes().iter())
                .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
        })
    }

    /// What candidate construction outputs on the `correlated` stream over
    /// a 1 500-row telemetry sample (k = 32, window and interval 100, the
    /// default ε): per boundary, every candidate's name and cost vector
    /// over the admission sample, and the ids admitted — captured before
    /// the sample was prepared once per manager, so a construction that
    /// grows another tree, compiles another model or costs a query
    /// differently shows here.
    #[test]
    fn construction_output_is_pinned() {
        let table = telemetry::telemetry_table(20_000, 7);
        let sample = table.sample(&mut StdRng::seed_from_u64(5), 1_500);
        let stream = Scenario::CorrelatedColumns.generate(
            table.schema(),
            ScenarioConfig {
                total_queries: 2_200,
                seed: 7,
            },
        );
        let initial = Arc::new(RangeLayout::from_sample(&sample, 0, 32));
        let config = ManagerConfig {
            window: 100,
            generation_interval: 100,
            ..Default::default()
        };
        let (mut manager, initial) = LayoutManager::new(
            sample,
            table.num_rows() as f64,
            Arc::new(QdTreeGenerator::new()),
            32,
            initial,
            config,
        );
        let mut live = BTreeMap::from([(initial.id(), Arc::new(initial))]);
        // (cost-vector digest of the boundary's one candidate, ids admitted)
        let pinned: [(u64, &[LayoutId]); 22] = [
            (0x305fb77b9f660aad, &[1]),
            (0x943e5ac85372cea4, &[]),
            (0x8966c8a3a9f0cdec, &[]),
            (0xaa3fe3bf16f9cb46, &[]),
            (0x12bda9455af497d2, &[]),
            (0x91d2f3264d3a5ef1, &[2]),
            (0x9151dd18e2aef5f9, &[3]),
            (0xd4d0292fed4d2cee, &[]),
            (0xa5447de36413f104, &[]),
            (0x56e4b54eb8362aec, &[]),
            (0x528bca328577fb14, &[]),
            (0x724bcb71fec44852, &[4]),
            (0x8a9906bdf6001c59, &[]),
            (0x339a7455e31ab074, &[]),
            (0x091d54c3366b0d71, &[]),
            (0xaf1dc1e29aa3648a, &[]),
            (0x4ba2f73d3e141fd6, &[5]),
            (0x8db5d952516144e7, &[6]),
            (0x908bc49838353108, &[]),
            (0x1ede332b558adeb8, &[]),
            (0xbfe0deb977479db5, &[]),
            (0x021b3afec7804c91, &[]),
        ];
        let mut boundaries = 0;
        for q in &stream.queries {
            let Some(task) = manager.capture(q, live.iter().map(|(&id, m)| (id, m))) else {
                continue;
            };
            let built = task.build();
            let got: Vec<(&str, u64)> = (built.candidates.iter())
                .map(|c| (c.model.name(), digest(&c.costs)))
                .collect();
            let (want, want_admitted) = pinned[boundaries];
            assert_eq!(got, [("qdtree(k=32)", want)], "boundary {boundaries}");
            let (admission, admitted) = manager.admit(built, live.iter().map(|(&id, m)| (id, m)));
            assert_eq!(admission.admitted, want_admitted, "boundary {boundaries}");
            for (_, model) in admitted {
                live.insert(model.id(), Arc::new(model));
            }
            boundaries += 1;
        }
        assert_eq!(boundaries, pinned.len());
    }
}
