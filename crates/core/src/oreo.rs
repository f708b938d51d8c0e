//! The assembled OREO framework (Fig. 1): LAYOUT MANAGER (producer of the
//! dynamic state space) + REORGANIZER (D-UMTS consumer), wired to a table.
//!
//! Per query, the framework:
//!
//! 1. lets the manager update its samples and possibly admit new candidate
//!    layouts (installed in the state table and forwarded to the
//!    reorganizer as state-add events);
//! 2. steps the reorganizer with the *estimated* (metadata-only) costs of
//!    its active states — a switch decision charges α immediately;
//! 3. lands a decided switch on the *physical* layout only when its
//!    reorganization completes ([`Oreo::complete_reorg`]): queries keep
//!    running on the old layout while it is in flight, so when it lands —
//!    the reorganization delay Δ of §III-B/§VI-D5 — is the driver's to
//!    say;
//! 4. charges the query's service cost against the physical layout's
//!    *exact* (fully materialized) metadata — decisions use estimates, the
//!    bill uses ground truth.

use crate::config::OreoConfig;
use crate::cost::CostLedger;
use crate::dumts::Dumts;
use crate::layout_manager::{Admission, BuiltCandidates, CandidateTask, LayoutManager};
use oreo_layout::{build_exact_model, LayoutGenerator, SharedSpec};
use oreo_obs::{EventKind, EventSink, NullSink};
use oreo_query::Query;
use oreo_storage::{LayoutId, LayoutModel, Table};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// One layout of the state space, kept once: by [`Oreo`], for the layout
/// manager, the reorganizer and the bill alike.
struct LiveLayout {
    /// Routing spec (what a switch materializes).
    spec: SharedSpec,
    /// Estimated (sample-scaled) model — the costing surface for D-UMTS
    /// counters and the admission ε-test. Shared with the candidate tasks
    /// captured while the layout is live.
    estimated: Arc<LayoutModel>,
    /// Exact model, materialized lazily the first time the layout is
    /// physical, and dropped when the table changes.
    exact: Option<LayoutModel>,
}

/// What happened while observing one query.
#[derive(Clone, Debug, Default)]
pub struct StepReport {
    /// Stream position of the observed query.
    pub seq: u64,
    /// Service cost charged (fraction of table read on the physical layout).
    pub service_cost: f64,
    /// `Some(target)` when the reorganizer decided to switch this step
    /// (α was charged now; the physical switch lands when
    /// [`Oreo::complete_reorg`] is called for it).
    pub reorg_decision: Option<LayoutId>,
    /// The D-UMTS phase ended this step.
    pub phase_reset: bool,
    /// Layouts admitted to the state space this step.
    pub admitted: Vec<LayoutId>,
    /// Layout the query physically ran on.
    pub physical: LayoutId,
    /// The reorganizer's logical current state.
    pub logical: LayoutId,
}

/// The OREO framework instance for one table.
///
/// # Example
///
/// ```
/// use oreo_core::{Oreo, OreoConfig};
/// use oreo_layout::{QdTreeGenerator, RangeLayout};
/// use oreo_query::{ColumnType, QueryBuilder, Scalar, Schema};
/// use oreo_storage::TableBuilder;
/// use std::sync::Arc;
///
/// let schema = Arc::new(Schema::from_pairs([("v", ColumnType::Int)]));
/// let mut b = TableBuilder::new(Arc::clone(&schema));
/// for i in 0..2_000i64 {
///     b.push_row(&[Scalar::Int((i * 17) % 1_000)]);
/// }
/// let table = Arc::new(b.finish());
///
/// let config = OreoConfig {
///     alpha: 10.0,
///     partitions: 8,
///     window: 50,
///     generation_interval: 50,
///     ..Default::default()
/// };
/// let initial = Arc::new(RangeLayout::from_sample(&table, 0, config.partitions));
/// let mut oreo = Oreo::new(
///     Arc::clone(&table),
///     initial,
///     Arc::new(QdTreeGenerator::new()),
///     config,
/// );
/// for i in 0..200i64 {
///     let lo = (i * 5) % 900;
///     let q = QueryBuilder::new(&schema).between("v", lo, lo + 50).build();
///     let report = oreo.observe(&q);
///     assert!(report.service_cost >= 0.0);
/// }
/// assert_eq!(oreo.ledger().queries, 200);
/// assert!(oreo.ledger().total() > 0.0);
/// ```
pub struct Oreo {
    config: OreoConfig,
    table: Arc<Table>,
    manager: LayoutManager,
    reorganizer: Dumts,
    /// The state space: every live layout, by id — the reorganizer's
    /// states.
    live: BTreeMap<LayoutId, LiveLayout>,
    /// Layout the queries are physically served on.
    physical: LayoutId,
    /// Targets of decided switches that have not landed, in decision order.
    pending: VecDeque<LayoutId>,
    ledger: CostLedger,
    seq: u64,
    /// Where policy events go. [`NullSink`] (the default) makes every
    /// emission a single cold branch; callers are expected to run the
    /// framework under a lock, so events land in ledger-operation order —
    /// which is what makes the journal replayable (see
    /// [`CostLedger::replay`]).
    sink: Arc<dyn EventSink>,
}

impl Oreo {
    /// Build a framework over `table`, starting from `initial_spec` (the
    /// default layout, e.g. range-partitioning by arrival time) and using
    /// `generator` for on-the-fly candidates.
    pub fn new(
        table: Arc<Table>,
        initial_spec: SharedSpec,
        generator: Arc<dyn LayoutGenerator>,
        config: OreoConfig,
    ) -> Self {
        Self::with_initial_model(
            Arc::clone(&table),
            Arc::clone(&initial_spec),
            generator,
            config,
            |id| build_exact_model(initial_spec.as_ref(), id, &table),
        )
    }

    /// As [`Oreo::new`], with the initial layout's exact model built by
    /// `exact` from the state id the framework gives that layout. A caller
    /// that materializes the initial layout anyway — the serving engine —
    /// hands over its snapshot's model
    /// ([`oreo_storage::TableSnapshot::model`], the model
    /// [`Oreo::complete_reorg_with`] takes for every later layout) instead
    /// of having the whole table routed a second time.
    pub fn with_initial_model(
        table: Arc<Table>,
        initial_spec: SharedSpec,
        generator: Arc<dyn LayoutGenerator>,
        config: OreoConfig,
        exact: impl FnOnce(LayoutId) -> LayoutModel,
    ) -> Self {
        let (manager, estimated) =
            LayoutManager::for_table(&table, Arc::clone(&initial_spec), generator, &config);
        let initial_id = estimated.id();

        let reorganizer =
            Dumts::new(&[initial_id], config.dumts_config()).with_initial_state(initial_id);

        let exact = exact(initial_id);
        assert_eq!(exact.id(), initial_id, "exact model is for another layout");
        let initial = LiveLayout {
            exact: Some(exact),
            spec: initial_spec,
            estimated: Arc::new(estimated),
        };

        Self {
            config,
            table,
            manager,
            reorganizer,
            live: BTreeMap::from([(initial_id, initial)]),
            physical: initial_id,
            pending: VecDeque::new(),
            ledger: CostLedger::new(),
            seq: 0,
            sink: Arc::new(NullSink),
        }
    }

    /// Route policy events (admissions, switch decisions, observe
    /// outcomes, landed reorganizations) into `sink` — typically an
    /// `oreo_obs::Journal`. Events are emitted at the exact ledger
    /// operation sites, so a journal drained from a sequential (FIFO)
    /// run replays to the ledger bit-for-bit.
    pub fn set_event_sink(&mut self, sink: Arc<dyn EventSink>) {
        self.sink = sink;
    }

    /// Observe (and "run") one query, advancing the whole framework.
    ///
    /// This is the order the serving engine (`oreo-engine`) runs a query in
    /// when it is driven in lockstep: [`Oreo::capture`] → [`Oreo::step`] →
    /// [`Oreo::settle`], then the admission of the boundary's candidates
    /// ([`Oreo::admit`]), then the landing of the switch the query decided
    /// ([`Oreo::complete_reorg`]). A boundary's candidates join after its
    /// query is decided, and a switch lands right after the query that
    /// decided it. Admission and landing commute: admitting reads neither
    /// the physical layout nor the pending switches, and landing touches
    /// neither the layout manager nor D-UMTS.
    pub fn observe(&mut self, query: &Query) -> StepReport {
        let (mut report, task) = self.capture(query);
        self.step(query, &mut report);
        self.settle(query, &mut report);
        if let Some(task) = task {
            report.admitted = self.admit(task.build()).admitted;
        }
        if let Some(target) = report.reorg_decision {
            self.complete_reorg(target);
        }
        report
    }

    /// Decide one query without settling it: advance the layout manager
    /// (sampling, candidate generation, ε-admission), refresh the
    /// sample-based predictor, and step the D-UMTS reorganizer. A switch
    /// decision charges α to the ledger immediately and enqueues the target
    /// as pending; the *physical* layout is untouched.
    ///
    /// This is [`Oreo::capture`] → [`CandidateTask::build`] →
    /// [`Oreo::admit`] → [`Oreo::step`] with nothing in between: a
    /// candidate exists before the query that triggered it is decided —
    /// what the simulator's figures run. [`Oreo::observe`] and the engine
    /// admit after the step instead; Theorem IV.1 holds for states that
    /// join at any point of the stream.
    pub fn decide(&mut self, query: &Query) -> StepReport {
        let (mut report, task) = self.capture(query);
        if let Some(task) = task {
            report.admitted = self.admit(task.build()).admitted;
        }
        self.step(query, &mut report);
        report
    }

    /// Capture piece of [`Oreo::observe`]: assign the query its stream
    /// position and push it into the manager's samples. On a generation
    /// boundary the second value owns everything candidate construction
    /// reads; build it anywhere and hand the result to [`Oreo::admit`].
    pub fn capture(&mut self, query: &Query) -> (StepReport, Option<CandidateTask>) {
        let seq = self.seq;
        self.seq += 1;
        let report = StepReport {
            seq,
            ..Default::default()
        };
        let live = self.live.iter().map(|(&id, l)| (id, &l.estimated));
        (report, self.manager.capture(query, live))
    }

    /// Admit piece of [`Oreo::observe`]: ε-test a boundary's built
    /// candidates against the states live now, install the survivors in
    /// the state table and the reorganizer, and refresh the sample-based
    /// predictor (§IV-C: each live state's jump weight = its skipped
    /// fraction on the boundary's admission sample). O(states); builds
    /// nothing.
    pub fn admit(&mut self, built: BuiltCandidates) -> Admission {
        let live = self.live.iter().map(|(&id, l)| (id, &l.estimated));
        let (admission, admitted) = self.manager.admit(built, live);
        for (spec, model) in admitted {
            let id = model.id();
            let estimated = Arc::new(model);
            self.live.insert(
                id,
                LiveLayout {
                    spec,
                    estimated,
                    exact: None,
                },
            );
            self.reorganizer.add_state(id);
        }
        for (&id, &weight) in &admission.weights {
            self.reorganizer.set_weight(id, weight);
        }
        if self.sink.enabled() {
            for &layout in &admission.admitted {
                self.sink.emit(EventKind::StateAdmitted {
                    stream_seq: self.seq.saturating_sub(1),
                    layout,
                });
            }
        }
        admission
    }

    /// Drop a captured boundary unbuilt, counted in
    /// [`crate::ManagerStats::superseded`] — for a driver that keeps only
    /// the newest boundary's task while an older one is being built.
    pub fn discard(&mut self, task: CandidateTask) {
        self.manager.discard(task);
    }

    /// Step piece of [`Oreo::observe`]: one D-UMTS step over the estimated
    /// costs of the states active now.
    pub fn step(&mut self, query: &Query, report: &mut StepReport) {
        let seq = report.seq;
        let logical_before = self.reorganizer.current();
        let live = &self.live;
        let outcome = (self.reorganizer).observe_query(|s| live[&s].estimated.cost(query));
        report.phase_reset = outcome.phase_reset;
        if report.phase_reset && self.sink.enabled() {
            self.sink.emit(EventKind::PhaseReset { stream_seq: seq });
        }
        if let Some(target) = outcome.switched_to {
            // The decision pays α now; the physical swap lands later.
            self.ledger.add_reorg(self.config.alpha);
            self.pending.push_back(target);
            report.reorg_decision = Some(target);
            if self.sink.enabled() {
                self.sink.emit(EventKind::SwitchDecided {
                    stream_seq: seq,
                    from: logical_before,
                    target,
                    alpha: self.config.alpha,
                    pending: self.pending.len() as u64,
                });
            }
        }
    }

    /// Land pending switches up to and including `target` *now*: a driver
    /// calls this when its reorganization toward `target` has completed
    /// (the engine when the snapshot publishes, the simulator when its
    /// schedule says so). Pending switches are FIFO, so decisions that
    /// preceded `target` (already superseded builds) land with it. Returns
    /// `true` if `target` was pending; when it is not, the pending queue is
    /// left untouched.
    pub fn complete_reorg(&mut self, target: LayoutId) -> bool {
        self.complete_reorg_with(target, None)
    }

    /// As [`Oreo::complete_reorg`], additionally installing `exact` as the
    /// target's exact metadata model so the next [`Oreo::settle`] does not
    /// have to materialize it. A background reorganizer has this model for
    /// free (the published snapshot's metadata is exact), and building it
    /// lazily would otherwise run a full-table routing pass under whatever
    /// lock serializes the framework.
    pub fn complete_reorg_with(&mut self, target: LayoutId, exact: Option<LayoutModel>) -> bool {
        if !self.pending.contains(&target) {
            return false;
        }
        if let Some(model) = exact {
            debug_assert_eq!(model.id(), target, "exact model is for another layout");
            let live = self
                .live
                .get_mut(&target)
                .expect("a pending target is live");
            live.exact.get_or_insert(model);
        }
        while let Some(t) = self.pending.pop_front() {
            self.physical = t;
            if self.sink.enabled() {
                self.sink.emit(EventKind::ReorgApplied {
                    stream_seq: self.seq.saturating_sub(1),
                    target: t,
                });
            }
            if t == target {
                break;
            }
        }
        true
    }

    /// Settlement piece of [`Oreo::observe`]: charge the query's service
    /// cost against the physical layout's exact metadata.
    pub fn settle(&mut self, query: &Query, report: &mut StepReport) {
        let service = self.exact_model(self.physical).cost(query);
        self.ledger.add_query(service);
        report.service_cost = service;
        if self.sink.enabled() {
            let logical = self.reorganizer.current();
            self.sink.emit(EventKind::QueryObserved {
                stream_seq: report.seq,
                service_cost: service,
                physical: self.physical,
                logical,
                counter: self.reorganizer.counter(logical).unwrap_or(0.0),
            });
        }

        report.physical = self.physical;
        report.logical = self.reorganizer.current();
    }

    /// Materialize (or fetch) the exact metadata model of a layout.
    fn exact_model(&mut self, id: LayoutId) -> &LayoutModel {
        let table = &self.table;
        let live = self.live.get_mut(&id).expect("physical layout is live");
        (live.exact).get_or_insert_with(|| build_exact_model(live.spec.as_ref(), id, table))
    }

    /// Exact service cost `query` would incur on the *current physical*
    /// layout, without advancing the stream or the ledger. This is the
    /// observation surface an MTS adversary is entitled to (it may inspect
    /// the online algorithm's state before emitting the next task); the
    /// workload zoo's adversarial scenario probes it to emit, each step,
    /// the query the layout serves worst.
    pub fn physical_cost(&mut self, query: &Query) -> f64 {
        let id = self.physical;
        self.exact_model(id).cost(query)
    }

    /// Replace the table this framework optimizes — the fold path: a
    /// compacting reorganizer merged delta partitions into the base, so
    /// every *exact* model is stale and must be rebuilt (lazily) against
    /// the merged rows. Estimated models and the manager's samples refresh
    /// on their own cadence (they are sample-scaled approximations by
    /// design, §IV-C); only the billing surface must be exact immediately.
    pub fn set_table(&mut self, table: Arc<Table>) {
        self.table = table;
        for live in self.live.values_mut() {
            live.exact = None;
        }
    }

    /// Charge compaction work (folding ingested deltas into the base
    /// layout) to the ledger and journal it. `cost` is in the same unit as
    /// α — fractions of a full table scan — so the total cost the
    /// competitive analysis sees includes the write path's merge work.
    pub fn charge_compaction(&mut self, cost: f64, rows_written: u64) {
        self.ledger.add_compaction(cost);
        if self.sink.enabled() {
            self.sink.emit(EventKind::CompactionCharged {
                stream_seq: self.seq,
                rows_written,
                cost,
            });
        }
    }

    /// Accumulated costs.
    pub fn ledger(&self) -> &CostLedger {
        &self.ledger
    }

    /// The table this framework optimizes.
    pub fn table(&self) -> &Arc<Table> {
        &self.table
    }

    /// Routing spec of a state in the state space — what a concurrent
    /// driver materializes a snapshot from.
    pub fn spec(&self, id: LayoutId) -> Option<SharedSpec> {
        self.live.get(&id).map(|l| Arc::clone(&l.spec))
    }

    /// The layout queries are physically served on.
    pub fn physical_layout(&self) -> LayoutId {
        self.physical
    }

    /// The reorganizer's logical state.
    pub fn logical_layout(&self) -> LayoutId {
        self.reorganizer.current()
    }

    /// Current dynamic state-space size.
    pub fn num_states(&self) -> usize {
        self.live.len()
    }

    /// Largest state space seen (|S_max| of the competitive bound).
    pub fn max_states_seen(&self) -> usize {
        self.reorganizer.max_states_seen()
    }

    /// D-UMTS phase count.
    pub fn phases(&self) -> u64 {
        self.reorganizer.phases()
    }

    /// Switches decided so far.
    pub fn switches(&self) -> u64 {
        self.reorganizer.switches()
    }

    /// Layout-manager statistics (admissions, rejections, …).
    pub fn manager_stats(&self) -> crate::layout_manager::ManagerStats {
        self.manager.stats()
    }

    /// Human-readable name of a layout, when still known.
    pub fn layout_name(&self, id: LayoutId) -> Option<String> {
        self.live.get(&id).map(|l| l.estimated.name().to_string())
    }

    /// The configuration in force.
    pub fn config(&self) -> &OreoConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oreo_layout::{QdTreeGenerator, RangeLayout};
    use oreo_query::{ColumnType, QueryBuilder, Scalar, Schema};
    use oreo_storage::TableBuilder;

    fn table(n: i64) -> Arc<Table> {
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
        Arc::new(b.finish())
    }

    fn framework(table: &Arc<Table>, config: OreoConfig) -> Oreo {
        let initial = Arc::new(RangeLayout::from_sample(table, 0, config.partitions));
        Oreo::new(
            Arc::clone(table),
            initial,
            Arc::new(QdTreeGenerator::new()),
            config,
        )
    }

    fn drifting_queries(t: &Arc<Table>, n: usize) -> Vec<Query> {
        // phase 1: queries on `a`; phase 2: queries on `b`
        (0..n)
            .map(|i| {
                let col = if i < n / 2 { "a" } else { "b" };
                let lo = ((i * 37) % 900) as i64;
                QueryBuilder::new(t.schema())
                    .between(col, lo, lo + 60)
                    .build()
                    .with_seq(i as u64)
            })
            .collect()
    }

    #[test]
    fn adapts_to_drifting_workload() {
        let t = table(4000);
        let config = OreoConfig {
            alpha: 5.0,
            window: 50,
            generation_interval: 50,
            data_sample_rows: 1000,
            partitions: 16,
            ..Default::default()
        };
        let mut oreo = framework(&t, config);
        let queries = drifting_queries(&t, 600);
        let mut admitted = 0;
        for q in &queries {
            let r = oreo.observe(q);
            admitted += r.admitted.len();
        }
        assert!(admitted >= 1, "no candidate layouts admitted");
        assert!(oreo.switches() >= 1, "never reorganized");
        let l = oreo.ledger();
        assert_eq!(l.queries, 600);
        assert!(l.query_cost > 0.0);
        assert!(l.reorg_cost > 0.0);
        // adapting must beat paying full scans throughout
        assert!(l.query_cost < 600.0 * 0.9);
    }

    #[test]
    fn ledger_reorg_cost_is_switches_times_alpha() {
        let t = table(2000);
        let config = OreoConfig {
            alpha: 4.0,
            window: 40,
            generation_interval: 40,
            partitions: 8,
            data_sample_rows: 500,
            ..Default::default()
        };
        let mut oreo = framework(&t, config);
        for q in drifting_queries(&t, 400) {
            oreo.observe(&q);
        }
        let l = *oreo.ledger();
        assert!((l.reorg_cost - l.switches as f64 * 4.0).abs() < 1e-9);
        assert_eq!(l.switches, oreo.switches());
    }

    #[test]
    fn complete_reorg_lands_pending_switch_early() {
        let t = table(2000);
        let config = OreoConfig {
            alpha: 3.0,
            window: 30,
            generation_interval: 30,
            partitions: 8,
            data_sample_rows: 500,
            ..Default::default()
        };
        let mut oreo = framework(&t, config);
        let queries = drifting_queries(&t, 500);
        let initial = oreo.physical_layout();
        let mut landed = false;
        for q in &queries {
            let mut r = oreo.decide(q);
            // nothing lands until the driver says so
            if let Some(target) = r.reorg_decision {
                assert_eq!(oreo.pending.back(), Some(&target));
                assert!(oreo.spec(target).is_some(), "pending target has a spec");
                // a miss must not disturb the pending queue
                assert!(!oreo.complete_reorg(u64::MAX));
                assert_eq!(oreo.pending.back(), Some(&target));
                assert!(oreo.complete_reorg(target));
                assert_eq!(oreo.physical_layout(), target);
                landed = true;
            }
            oreo.settle(q, &mut r);
        }
        assert!(landed, "no switch decided");
        assert_ne!(oreo.physical_layout(), initial);
        assert!(oreo.pending.is_empty());
        assert!(!oreo.complete_reorg(12345), "nothing pending");
    }

    #[test]
    fn journal_replay_reproduces_ledger_bit_for_bit() {
        use oreo_obs::Journal;

        let t = table(2000);
        let config = OreoConfig {
            alpha: 5.0,
            window: 40,
            generation_interval: 40,
            partitions: 8,
            data_sample_rows: 500,
            ..Default::default()
        };
        let journal = Arc::new(Journal::new(1, 1 << 14));
        let mut oreo = framework(&t, config);
        oreo.set_event_sink(Arc::clone(&journal) as Arc<dyn EventSink>);
        for q in drifting_queries(&t, 400) {
            oreo.observe(&q);
        }
        assert!(oreo.switches() >= 1, "want at least one switch to replay");
        assert_eq!(journal.events_dropped(), 0, "journal sized for the run");
        let events = journal.events();
        let replayed = CostLedger::replay(&events);
        // bit-for-bit: the replay performs the same f64 additions in the
        // same order the live ledger did
        assert_eq!(replayed, *oreo.ledger());
        // every query produced exactly one observe event, every switch one
        // decision event, and each landed switch one applied event
        let observed = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::QueryObserved { .. }))
            .count();
        let decided = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::SwitchDecided { .. }))
            .count();
        let applied = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::ReorgApplied { .. }))
            .count();
        assert_eq!(observed as u64, oreo.ledger().queries);
        assert_eq!(decided as u64, oreo.ledger().switches);
        assert_eq!(applied as u64, oreo.ledger().switches, "every switch lands");
    }

    /// Under `observe` (the served order) a switch lands right after the
    /// query that decided it, so each `ReorgApplied` carries its
    /// `SwitchDecided`'s stream position.
    #[test]
    fn reorg_applied_carries_the_deciding_seq_under_observe() {
        use oreo_obs::Journal;

        let t = table(2000);
        let config = OreoConfig {
            alpha: 5.0,
            window: 40,
            generation_interval: 40,
            partitions: 8,
            data_sample_rows: 500,
            ..Default::default()
        };
        let journal = Arc::new(Journal::new(1, 1 << 14));
        let mut oreo = framework(&t, config);
        oreo.set_event_sink(Arc::clone(&journal) as Arc<dyn EventSink>);
        for q in drifting_queries(&t, 400) {
            oreo.observe(&q);
        }
        assert_eq!(journal.events_dropped(), 0, "journal sized for the run");
        let (mut decided, mut applied) = (Vec::new(), Vec::new());
        for e in journal.events() {
            match e.kind {
                EventKind::SwitchDecided { stream_seq, .. } => decided.push(stream_seq),
                EventKind::ReorgApplied { stream_seq, .. } => applied.push(stream_seq),
                _ => {}
            }
        }
        assert!(!decided.is_empty(), "want at least one switch");
        assert_eq!(applied, decided);
    }

    #[test]
    fn deterministic_across_runs() {
        let t = table(1500);
        let config = OreoConfig {
            alpha: 6.0,
            window: 30,
            generation_interval: 30,
            partitions: 8,
            data_sample_rows: 400,
            seed: 42,
            ..Default::default()
        };
        let queries = drifting_queries(&t, 300);
        let run = || {
            let mut oreo = framework(&t, config.clone());
            for q in &queries {
                oreo.observe(q);
            }
            (*oreo.ledger(), oreo.switches(), oreo.num_states())
        };
        assert_eq!(run(), run());
    }
}
