//! Candidate construction off the core mutex.
//!
//! A generation boundary captures its inputs under the lock; the worker
//! that hit it builds, costs and ε-tests the candidate with no lock held
//! and re-takes the lock only to admit. These tests force the interleavings
//! with a generator that blocks on a channel inside `generate` — never with
//! sleeps — and check what must survive them: a stuck build holds the core
//! lock not at all and its tenant's stream only at the run-ahead bound, a
//! burst client adapts as a sequential one does, past the fault guard a
//! boundary that fires meanwhile supersedes the waiting one, no boundary is
//! dropped, and the ledger stays conserved. The synchronous composition
//! (`Oreo::decide`) must equal the pieces. One test makes builds merely
//! slow, with a generator that sleeps, to check that `Engine::drain` waits
//! for them; nothing there depends on how long the sleep is.

use oreo_core::{CandidateSource, CostLedger, Oreo, OreoConfig};
use oreo_engine::{Engine, EngineConfig, EngineStats, IngestOp};
use oreo_layout::{LayoutGenerator, QdTreeGenerator, RangeLayout, SharedSpec};
use oreo_obs::{EventSink, Journal, Registry};
use oreo_query::{ColumnType, Query, QueryBuilder, Scalar, Schema};
use oreo_storage::{Table, TableBuilder};
use oreo_workload::{telemetry_bundle, Scenario, ScenarioConfig};
use rand::rngs::StdRng;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

const INTERVAL: usize = 50;

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

/// Queries on `a` for the first half of the stream, on `b` for the second;
/// `seq` is the stream position.
fn drifting_queries(t: &Arc<Table>, n: usize) -> Vec<Query> {
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

fn config() -> OreoConfig {
    OreoConfig {
        alpha: 5.0,
        window: INTERVAL,
        generation_interval: INTERVAL as u64,
        data_sample_rows: 800,
        partitions: 16,
        seed: 11,
        ..Default::default()
    }
}

fn start(t: &Arc<Table>, generator: Arc<dyn LayoutGenerator>, cfg: EngineConfig) -> Engine {
    start_with(t, generator, config(), cfg)
}

fn start_with(
    t: &Arc<Table>,
    generator: Arc<dyn LayoutGenerator>,
    oreo: OreoConfig,
    cfg: EngineConfig,
) -> Engine {
    let initial = Arc::new(RangeLayout::from_sample(t, 0, oreo.partitions));
    Engine::start(Arc::clone(t), initial, generator, oreo, cfg)
}

/// A qd-tree generator whose `generate` announces each call on `entered`
/// and then waits on `gate`: one message lets one call through, dropping
/// the sender opens the gate for good. Records the workload of every call.
struct GatedGenerator {
    inner: QdTreeGenerator,
    entered: Mutex<Sender<()>>,
    gate: Mutex<Receiver<()>>,
    workloads: Mutex<Vec<Vec<Query>>>,
}

/// The generator, the test's end of `entered`, and the gate's sender.
fn gated() -> (Arc<GatedGenerator>, Receiver<()>, Sender<()>) {
    let (entered_tx, entered_rx) = channel();
    let (gate_tx, gate_rx) = channel();
    let generator = Arc::new(GatedGenerator {
        inner: QdTreeGenerator::new(),
        entered: Mutex::new(entered_tx),
        gate: Mutex::new(gate_rx),
        workloads: Mutex::new(Vec::new()),
    });
    (generator, entered_rx, gate_tx)
}

impl LayoutGenerator for GatedGenerator {
    fn name(&self) -> &str {
        "gated-qdtree"
    }

    fn generate(
        &self,
        sample: &Table,
        workload: &[Query],
        k: usize,
        rng: &mut StdRng,
    ) -> SharedSpec {
        self.workloads.lock().unwrap().push(workload.to_vec());
        // The test may have stopped listening once the gate is open.
        let _ = self.entered.lock().unwrap().send(());
        let _ = self.gate.lock().unwrap().recv();
        self.inner.generate(sample, workload, k, rng)
    }
}

/// Submit `queries` one at a time, each answered before the next is sent,
/// so the core observes them in stream order on any number of workers.
fn lockstep(engine: &Engine, queries: &[Query]) {
    for q in queries {
        engine.submit_tracked(q.clone()).wait();
    }
}

fn counter(registry: &Registry, name: &str) -> u64 {
    registry.counter(name).get()
}

/// (a) While a build is stuck inside `generate`, queries complete and the
/// ledger can be read: the core mutex is not held across construction. What
/// a stuck build does hold is its own tenant's stream, and only at the
/// run-ahead bound.
#[test]
fn candidate_construction_does_not_hold_the_core_lock() {
    // An interval long enough that 300 further queries fit the run-ahead
    // allowance (a quarter interval, the boundary query included).
    let interval = 1_240;
    let allowance = interval / 4 - 1;
    let t = table(3000);
    let queries = drifting_queries(&t, interval + allowance + 40);
    let (generator, entered, gate) = gated();
    let oreo = OreoConfig {
        window: interval,
        generation_interval: interval as u64,
        ..config()
    };
    let engine = start_with(&t, generator, oreo, EngineConfig::default().with_workers(2));
    let registry = Arc::clone(engine.registry());
    let waits = registry.histogram("core.admission_wait_us");

    lockstep(&engine, &queries[..interval]);
    entered.recv().expect("the first boundary reaches generate");

    // The gate is shut: one worker sits inside `generate`. 300 further
    // queries are answered without a pause, and the ledger reads.
    lockstep(&engine, &queries[interval..interval + 300]);
    assert_eq!(waits.count(), 0);
    assert_eq!(engine.ledger().queries, interval as u64 + 300);
    assert_eq!(counter(&registry, "core.candidates_built"), 0);

    // The rest of the allowance takes the stream to the bound, the build
    // still stuck; the 40 queries sent after that wait for the admission.
    lockstep(&engine, &queries[interval + 300..interval + allowance]);
    assert_eq!(waits.count(), 0);
    let held: Vec<_> = queries[interval + allowance..]
        .iter()
        .map(|q| engine.submit_tracked(q.clone()))
        .collect();
    assert_eq!(engine.ledger().queries, (interval + allowance) as u64);
    drop(gate);
    for h in held {
        h.wait();
    }
    let stats = engine.shutdown();
    let m = stats.tenants[0].manager;
    assert_eq!(m.generated, 1);
    assert_eq!(m.generated, m.admitted + m.rejected);
    assert_eq!(
        m.admitted, 1,
        "a qd-tree on `a` is far from range-on-ts: {m:?}"
    );
    assert_eq!(m.superseded, 0);
    assert_eq!(stats.tenants[0].num_states as u64, 1 + m.admitted);
    assert_eq!(counter(&registry, "core.candidates_built"), 1);
    assert_eq!(counter(&registry, "core.admission_overruns"), 0);
    // The stream stood exactly at the bound when the candidate joined.
    let lag = registry.histogram("core.candidate_lag_queries").stats();
    assert_eq!((lag.count, lag.max), (1, allowance as u64));
    assert!(waits.count() >= 1);
}

/// (b) The fault path: a generator stuck for longer than `ADMISSION_GUARD`
/// stops holding its stream, two boundaries fire during the one build, the
/// older waiting task is dropped unbuilt, and the one `generate` call that
/// follows sees the newest window. (The only test that waits on the clock:
/// the guard's two seconds, once.)
#[test]
fn two_boundaries_during_one_build_supersede() {
    let t = table(3000);
    let queries = drifting_queries(&t, 3 * INTERVAL);
    let (generator, entered, gate) = gated();
    let engine = start(
        &t,
        Arc::clone(&generator) as Arc<dyn LayoutGenerator>,
        EngineConfig::default().with_workers(2),
    );
    let registry = Arc::clone(engine.registry());

    lockstep(&engine, &queries[..INTERVAL]);
    entered.recv().expect("the first boundary reaches generate");
    lockstep(&engine, &queries[INTERVAL..]);
    drop(gate);
    let stats = engine.shutdown();

    let workloads = generator.workloads.lock().unwrap();
    assert_eq!(workloads.len(), 2, "exactly one more generate call");
    let seqs = |w: &[Query]| w.iter().map(|q| q.seq).collect::<Vec<_>>();
    assert_eq!(seqs(&workloads[0]), (0..50).collect::<Vec<_>>());
    assert_eq!(seqs(&workloads[1]), (100..150).collect::<Vec<_>>());
    assert_eq!(stats.tenants[0].manager.superseded, 1);
    assert_eq!(stats.tenants[0].manager.generated, 2);
    // Every query past the first boundary's allowance went through on the
    // guard, and is counted.
    let allowance = INTERVAL / 4 - 1;
    assert_eq!(
        counter(&registry, "core.admission_overruns"),
        (2 * INTERVAL - allowance) as u64
    );
}

fn journal_kinds(journal: &Journal) -> Vec<oreo_obs::EventKind> {
    journal.events().into_iter().map(|e| e.kind).collect()
}

/// (c) `Oreo::decide` is its pieces, composed inline: same reports, same
/// ledger, same states, same journal — for every candidate source.
#[test]
fn decide_is_capture_build_admit() {
    let bundle = telemetry_bundle(6_000, 3);
    let stream = Scenario::CorrelatedColumns.generate(
        bundle.table.schema(),
        ScenarioConfig {
            total_queries: 1_200,
            seed: 7,
        },
    );
    for source in [
        CandidateSource::SlidingWindow,
        CandidateSource::Reservoir,
        CandidateSource::Both,
    ] {
        let config = OreoConfig {
            alpha: 20.0,
            window: 100,
            generation_interval: 100,
            partitions: 16,
            data_sample_rows: 1_000,
            candidate_source: source,
            seed: 5,
            ..Default::default()
        };
        let framework = || {
            let initial = Arc::new(RangeLayout::from_sample(&bundle.table, 0, 16));
            let journal = Arc::new(Journal::new(1, 1 << 15));
            let mut oreo = Oreo::new(
                Arc::clone(&bundle.table),
                initial,
                Arc::new(QdTreeGenerator::new()),
                config.clone(),
            );
            oreo.set_event_sink(Arc::clone(&journal) as Arc<dyn EventSink>);
            (oreo, journal)
        };
        let (mut whole, whole_journal) = framework();
        let (mut pieces, pieces_journal) = framework();
        for q in &stream.queries {
            let mut a = whole.decide(q);
            whole.settle(q, &mut a);

            let (mut b, task) = pieces.capture(q);
            if let Some(task) = task {
                let admission = pieces.admit(task.build());
                assert_eq!(admission.lag_queries, 0);
                b.admitted = admission.admitted;
            }
            pieces.step(q, &mut b);
            pieces.settle(q, &mut b);

            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "{source:?} at {}",
                q.seq
            );
        }
        assert_eq!(*whole.ledger(), *pieces.ledger(), "{source:?}");
        assert_eq!(whole.manager_stats(), pieces.manager_stats(), "{source:?}");
        assert_eq!(whole.num_states(), pieces.num_states(), "{source:?}");
        assert_eq!(whole.logical_layout(), pieces.logical_layout());
        assert!(whole.manager_stats().admitted >= 1, "{source:?}");
        assert_eq!(whole_journal.events_dropped(), 0);
        assert_eq!(
            journal_kinds(&whole_journal),
            journal_kinds(&pieces_journal),
            "{source:?}"
        );
    }
}

/// Three appends outside the base domain, numbered from `base`.
fn sentinel_batch(base: i64) -> Vec<IngestOp> {
    (base..base + 3)
        .map(|i| IngestOp::Append {
            values: vec![
                Scalar::Int(10_000 + i),
                Scalar::Int(5_000 + i),
                Scalar::Int(0),
            ],
        })
        .collect()
}

/// Everything the conservation test reads from one run.
fn conservation_run(workers: usize) -> (EngineStats, f64, u64, u64) {
    let t = table(3000);
    let queries = drifting_queries(&t, 600);
    let cfg = EngineConfig::default()
        .with_workers(workers)
        .with_journal_capacity(1 << 14);
    let engine = start(&t, Arc::new(QdTreeGenerator::new()), cfg);
    let registry = Arc::clone(engine.registry());
    let mut handles = Vec::with_capacity(queries.len());
    for (i, q) in queries.iter().enumerate() {
        if i % 97 == 96 {
            let base = i as i64;
            engine.ingest(&sentinel_batch(base)).expect("ingest");
        }
        handles.push(engine.submit_tracked(q.clone()));
    }
    let served: f64 = handles.into_iter().map(|h| h.wait().service_cost).sum();
    let stats = engine.shutdown();
    let built = counter(&registry, "core.candidates_built");
    let superseded = counter(&registry, "core.candidates_superseded");
    // A burst client adapts as a sequential one does: the stream never ran
    // further past a boundary than the allowance, on any worker count.
    let lag = registry.histogram("core.candidate_lag_queries").stats();
    assert!(lag.max < INTERVAL as u64 / 4, "admission lag {lag:?}");
    assert_eq!(counter(&registry, "core.admission_overruns"), 0);
    (stats, served, built, superseded)
}

/// (d) Conservation with deferred admission, on 2 and 4 workers.
#[test]
fn measured_mode_conserves_costs_with_deferred_admission() {
    for workers in [2, 4] {
        let (stats, served, built, superseded) = conservation_run(workers);
        let ledger = stats.ledger;
        assert_eq!(stats.queries, 600);
        assert_eq!(ledger.queries, 600);
        // Σ per-query cost = ledger query cost (summed in another order).
        assert!(
            (served - ledger.query_cost).abs() < 1e-9 * ledger.query_cost.max(1.0),
            "{workers} workers: outcomes {served} vs ledger {}",
            ledger.query_cost
        );
        // switches · α + compaction = what the ledger billed for movement.
        assert_eq!(ledger.switches, stats.switches);
        assert_eq!(ledger.reorg_cost, stats.switches as f64 * config().alpha);
        assert!(ledger.compactions > 0, "ingested batches merge");
        let total = ledger.query_cost + ledger.reorg_cost + ledger.compaction_cost;
        assert!((ledger.total() - total).abs() < 1e-9);
        // Ledger operations happen under the core mutex in journal order,
        // so the journal replays to the ledger on any number of workers.
        assert_eq!(stats.events_dropped, 0);
        assert_eq!(
            CostLedger::replay(&stats.events),
            ledger,
            "{workers} workers"
        );
        // Every decided switch was built and published.
        assert!(stats.switches >= 1, "stream never triggered a reorg");
        assert_eq!(stats.snapshots_published, stats.switches);
        assert_eq!(stats.windows.len() as u64, stats.switches);
        // Shutdown dropped no boundary, and with the stream held at the
        // allowance none fired while another waited: each was built.
        assert_eq!(built, (600 / INTERVAL) as u64);
        assert_eq!(superseded, 0);
        assert_eq!(stats.tenants[0].manager.generated, built);
        assert_eq!(stats.tenants[0].manager.superseded, superseded);
        assert_eq!(
            stats.tenants[0].manager.generated,
            stats.tenants[0].manager.admitted + stats.tenants[0].manager.rejected
        );
    }
}

/// (e) A single worker has nobody to hand construction to: it builds right
/// after the boundary's batch, before its next pop, and the stream drains.
#[test]
fn one_worker_constructs_inline_and_drains() {
    let t = table(3000);
    let queries = drifting_queries(&t, 300);
    let engine = start(
        &t,
        Arc::new(QdTreeGenerator::new()),
        EngineConfig::default().with_workers(1),
    );
    let registry = Arc::clone(engine.registry());
    for q in &queries {
        engine.submit(q.clone());
    }
    engine.drain();
    let stats = engine.shutdown();
    assert_eq!(stats.queries, 300);
    // All six boundaries are built, each within the allowance — the rest
    // of the boundary's batch (16), cut at a quarter interval — and with
    // nobody else to wait for.
    assert_eq!(stats.tenants[0].manager.generated, (300 / INTERVAL) as u64);
    assert_eq!(stats.tenants[0].manager.superseded, 0);
    let lag = registry.histogram("core.candidate_lag_queries").stats();
    assert_eq!(lag.count, 6);
    assert!(lag.max < INTERVAL as u64 / 4, "admission lag {lag:?}");
    assert_eq!(registry.histogram("core.admission_wait_us").count(), 0);
    assert_eq!(counter(&registry, "core.admission_overruns"), 0);
    assert!(stats.tenants[0].manager.admitted >= 1);
}

/// A qd-tree generator that sleeps inside `generate`: a slow build.
struct SlowGenerator(QdTreeGenerator);

impl LayoutGenerator for SlowGenerator {
    fn name(&self) -> &str {
        "slow-qdtree"
    }

    fn generate(
        &self,
        sample: &Table,
        workload: &[Query],
        k: usize,
        rng: &mut StdRng,
    ) -> SharedSpec {
        std::thread::sleep(std::time::Duration::from_millis(30));
        self.0.generate(sample, workload, k, rng)
    }
}

/// (f) `Engine::drain` returns only once the background work its queries
/// set off is done: the last boundary's candidates are admitted and every
/// decided switch has landed, however long a build takes.
#[test]
fn drain_waits_for_admissions_and_landings() {
    let t = table(3000);
    let queries = drifting_queries(&t, 300);
    let generator = Arc::new(SlowGenerator(QdTreeGenerator::new()));
    let engine = start(&t, generator, EngineConfig::default().with_workers(2));
    let registry = Arc::clone(engine.registry());
    for q in &queries {
        engine.submit(q.clone());
    }
    engine.drain();
    // The stream's last query is its sixth boundary.
    assert_eq!(
        counter(&registry, "core.candidates_built"),
        (300 / INTERVAL) as u64
    );
    let switches = counter(&registry, "reorg.switches");
    assert!(switches >= 1, "stream never decided a switch");
    assert_eq!(counter(&registry, "reorg.snapshots_published"), switches);
    assert_eq!(counter(&registry, "reorg.windows"), switches);
    let stats = engine.shutdown();
    assert_eq!(stats.tenants[0].manager.superseded, 0);
}

/// (g) The construct step's wall time is recorded once per built boundary —
/// `core.construct_us` counts what `core.candidates_built` counts — and it
/// times the build itself: every sample covers the generator's sleep.
#[test]
fn construct_time_is_recorded_per_built_boundary() {
    let t = table(3000);
    let queries = drifting_queries(&t, 300);
    let generator = Arc::new(SlowGenerator(QdTreeGenerator::new()));
    let engine = start(&t, generator, EngineConfig::default().with_workers(2));
    let registry = Arc::clone(engine.registry());
    lockstep(&engine, &queries);
    engine.drain();
    let built = counter(&registry, "core.candidates_built");
    let construct = registry.histogram("core.construct_us").stats();
    assert_eq!(built, (300 / INTERVAL) as u64);
    assert_eq!(construct.count, built);
    assert!(construct.min >= 30_000, "{construct:?}");
    engine.shutdown();
}

/// (h) The lock histograms time bookkeeping only: in a lockstep run with
/// one query a batch, the core mutex is taken once per query, once per
/// admission and once per landing. `Engine::drain`'s polls and the
/// hand-off of a boundary's task take it untimed.
#[test]
fn lock_histograms_count_only_bookkeeping() {
    let t = table(3000);
    let queries = drifting_queries(&t, 300);
    let cfg = EngineConfig {
        batch: 1,
        ..EngineConfig::default().with_workers(2)
    };
    let engine = start(&t, Arc::new(QdTreeGenerator::new()), cfg);
    let registry = Arc::clone(engine.registry());
    for q in &queries {
        engine.submit(q.clone());
        engine.drain();
    }
    let built = counter(&registry, "core.candidates_built");
    let windows = counter(&registry, "reorg.windows");
    assert_eq!(built, (300 / INTERVAL) as u64);
    assert!(windows >= 1, "stream never landed a switch");
    let holds = registry.histogram("core.lock_hold_us").count();
    assert_eq!(holds, queries.len() as u64 + built + windows);
    assert_eq!(registry.histogram("core.lock_wait_us").count(), holds);
    engine.shutdown();
}
