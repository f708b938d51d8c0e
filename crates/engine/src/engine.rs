//! The serving engine: a worker pool executing snapshot-isolated scans,
//! OREO bookkeeping serialized per tenant by one mutex, and a dedicated
//! background reorganizer thread that never blocks readers.
//!
//! Data path per query (Fig. 1, made concurrent):
//!
//! 1. a worker pins the current [`TableSnapshot`] and scans it — the only
//!    expensive phase, and it runs with **no lock held**;
//! 2. the worker feeds the query to [`oreo_core::Oreo`]'s capture, step and
//!    settle pieces under its tenant's mutex, so D-UMTS and layout-manager
//!    bookkeeping run the same code as the sequential simulator;
//! 3. a switch decision is handed to the reorganizer thread, which
//!    materializes the target layout aside and atomically publishes it —
//!    queries keep running on the old snapshot for the whole window, which
//!    is exactly the paper's reorganization delay Δ, now measured: the
//!    logical switch lands when the snapshot publishes
//!    ([`oreo_core::Oreo::complete_reorg_with`]);
//! 4. a generation boundary only *captures* its inputs under the tenant's
//!    mutex. The worker that hit it finishes the batch, fulfils its results,
//!    and then builds and costs the candidate layout with no lock held,
//!    re-taking the mutex for the O(states) admission. The mutex is held for
//!    bookkeeping, never for a qd-tree. D-UMTS's 2·H(|S_max|) holds for
//!    states that join at any point of the stream (Theorem IV.1), but the
//!    cost it is competitive *with* is lower the sooner a candidate joins,
//!    so a tenant's stream may run at most a quarter of a generation
//!    interval past a boundary whose candidate is still being built: a
//!    worker that would take it further answers the rest of its batch and
//!    then waits — holding no lock — for the admission. The bound is in
//!    queries, not in time, so a slow host changes latencies and never
//!    which states the policy sees. One construction runs per engine at a
//!    time. Only past [`ADMISSION_GUARD`] (a generator that does not
//!    return) do queries flow again; a boundary that fires then replaces
//!    its tenant's waiting task (latest wins, the older one is counted
//!    superseded).
//!
//! Driven in lockstep — each query submitted once [`Engine::drain`] has
//! returned for the previous one — the engine runs each query's capture →
//! step → settle, then its boundary's admission, then the landing of the
//! switch it decided: the *served order* [`oreo_core::Oreo::observe`] runs
//! (`oreo-sim`'s `Schedule::Served`), so on any worker count the ledger
//! equals that replay exactly.
//!
//! # One OREO per tenant
//!
//! The engine serves N tenants (tables) from one process, as §VIII puts
//! it: "each table can maintain its own instance of OREO". Each tenant's
//! [`oreo_core::Oreo`], pending boundaries and query count sit behind its
//! own core mutex (taken after its ingest lock, never two tenants' at
//! once), so each tenant's D-UMTS bookkeeping is byte-identical to an
//! independent single-tenant run. The tenants share one worker pool, one
//! [`BufferPool`] and one reorganizer thread, which executes switch
//! decisions in the order they were made (FIFO overall, hence within a
//! tenant — the order `Oreo::pending` expects). Single-tenant construction
//! ([`Engine::start`]) is the N = 1 case.

use crate::ingest::{build_fold_snapshot, FoldBuild, IngestState};
use crate::metrics::{
    alpha_readings, as_micros_u64, as_nanos_u64, EngineStats, LiveMetrics, PoolGauges, TenantStats,
};
use crate::queue::ShardedQueue;
use crate::reorg::{materialize, ReorgRequest, ReorgWindow};
use oreo_core::{CandidateTask, CostLedger, Oreo, OreoConfig};
use oreo_layout::{LayoutGenerator, SharedSpec};
use oreo_obs::{
    EventKind, EventSink, Gauge, Journal, NullSink, Registry, ReorgPhaseKind, SnapshotWriter,
};
use oreo_query::Query;
use oreo_storage::{
    ApplyReceipt, BufferPool, BufferPoolConfig, DeltaBuffer, IngestOp, LayoutId, MergePolicy,
    SnapshotCell, SnapshotScan, Table, TableSnapshot, TieredStore, Wal,
};
use std::ops::{Deref, DerefMut};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Fault guard on the run-ahead bound (see the [module docs](self)): a
/// boundary whose candidate is still not admitted this long after its
/// capture stops holding its tenant's stream back, so a generator that
/// never returns costs a tenant its adaptation, not its service. It is not
/// a policy parameter — a healthy construction takes milliseconds, and
/// which states D-UMTS sees when is bounded in queries alone — and every
/// query it lets through is counted in `core.admission_overruns`, which
/// the test suite and the benchmark runs expect to read 0.
pub const ADMISSION_GUARD: Duration = Duration::from_secs(2);

/// Where snapshots live between publishes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum ServeMode {
    /// Snapshots are memory-only: the reorganizer materializes and
    /// publishes without touching disk. Fastest; nothing survives a
    /// restart.
    #[default]
    Memory,
    /// Snapshots are backed by an [`oreo_storage::TieredStore`] under
    /// `root`: every publish persists a `gen-N/` directory (write + fsync +
    /// atomic rename) *before* the snapshot-pointer swap, readers pin the
    /// old generation until released, and the engine reports the rewrite's
    /// bytes + wall-clock as an empirical α alongside the measured Δ.
    Tiered {
        /// Root directory for the generation subdirectories.
        root: PathBuf,
    },
}

impl ServeMode {
    /// Short label for reports (`"memory"` / `"tiered"`).
    pub fn label(&self) -> &'static str {
        match self {
            ServeMode::Memory => "memory",
            ServeMode::Tiered { .. } => "tiered",
        }
    }
}

/// Observability configuration: the event journal and the metrics
/// exporters. The metrics *registry* itself is always on — workers
/// publish counters and histograms unconditionally (a handful of relaxed
/// atomics per query, bounded memory) — this struct controls what is
/// *recorded* (journal) and *exported* (snapshot files).
#[derive(Clone, Debug, Default)]
pub struct ObsConfig {
    /// Per-shard event-journal capacity; `0` (the default) disables the
    /// journal entirely — instrumented code then holds a null sink and
    /// skips even constructing events. Size it at several events per
    /// expected query for replay-parity runs (drops void the replay).
    pub journal_capacity: usize,
    /// Append periodic JSONL metric snapshots to this file (one line per
    /// snapshot; see `oreo_obs::SnapshotWriter`). `None` = no exporter
    /// thread.
    pub metrics_json: Option<PathBuf>,
    /// Interval between periodic snapshots (`None` = 250 ms). The
    /// exporter also writes one snapshot immediately at start and one at
    /// shutdown, so any run emits ≥ 2.
    pub metrics_interval: Option<Duration>,
    /// Write a Prometheus text-exposition dump of the final registry
    /// state to this file at shutdown.
    pub metrics_prom: Option<PathBuf>,
    /// Cell label stamped on every snapshot line (distinguishes serving
    /// cells appending to a shared file).
    pub label: String,
}

impl ObsConfig {
    /// Snapshot cadence with the default applied.
    pub fn interval(&self) -> Duration {
        self.metrics_interval.unwrap_or(Duration::from_millis(250))
    }
}

/// One tenant of a multi-tenant engine: its table, initial layout,
/// candidate generator, and OREO configuration (see
/// [`Engine::start_tenants`]).
pub struct TenantSpec {
    /// Tenant name — the key queries and reports are routed by. Tiered
    /// serving stores the tenant under `root/tenant-<name>/`, so a name is
    /// non-empty ASCII alphanumerics, `-` and `_` ([`Engine::start_tenants`]
    /// panics otherwise).
    pub name: String,
    /// The tenant's table.
    pub table: Arc<Table>,
    /// Initial layout specification.
    pub initial_spec: SharedSpec,
    /// Candidate layout generator.
    pub generator: Arc<dyn LayoutGenerator>,
    /// Per-tenant OREO (D-UMTS) configuration.
    pub oreo: OreoConfig,
}

/// Engine tuning knobs.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Scan worker threads; the work queue has one shard per worker.
    pub workers: usize,
    /// Max queries a worker claims per queue pop (bookkeeping takes each
    /// of the batch's tenants' core mutexes once).
    pub batch: usize,
    /// Snapshot persistence: memory-only or disk-tiered.
    pub mode: ServeMode,
    /// Buffer-pool capacity for [`ServeMode::Tiered`] scans, in bytes.
    /// Tiered scans read partition pages through a pool of this size
    /// (cold misses hit the disk, warm hits are served from memory);
    /// ignored in [`ServeMode::Memory`].
    pub buffer_pool_bytes: u64,
    /// Observability: event journal + metric exporters.
    pub obs: ObsConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            batch: 16,
            mode: ServeMode::Memory,
            buffer_pool_bytes: oreo_storage::bufpool::DEFAULT_CAPACITY_BYTES,
            obs: ObsConfig::default(),
        }
    }
}

impl EngineConfig {
    /// Sets the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the serve mode (memory-only or disk-tiered).
    pub fn with_mode(mut self, mode: ServeMode) -> Self {
        self.mode = mode;
        self
    }

    /// Shorthand for [`ServeMode::Tiered`] rooted at `root`.
    pub fn tiered(self, root: impl Into<PathBuf>) -> Self {
        self.with_mode(ServeMode::Tiered { root: root.into() })
    }

    /// Sets the tiered-scan buffer-pool capacity in bytes.
    pub fn with_buffer_pool_bytes(mut self, bytes: u64) -> Self {
        self.buffer_pool_bytes = bytes;
        self
    }

    /// Enables the event journal with the given per-shard capacity.
    pub fn with_journal_capacity(mut self, capacity: usize) -> Self {
        self.obs.journal_capacity = capacity;
        self
    }

    /// Sets the full observability configuration.
    pub fn with_obs(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }
}

/// Everything the engine observed for one query.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// Stream position assigned by the bookkeeping core (observe order).
    pub seq: u64,
    /// The snapshot scan (matching global row ids, rows read, pruning).
    pub scan: SnapshotScan,
    /// Layout of the snapshot the scan ran against.
    pub served_layout: LayoutId,
    /// Epoch of the snapshot the scan ran against.
    pub served_epoch: u64,
    /// Switch decided while observing this query, if any.
    pub decision: Option<LayoutId>,
    /// Service cost charged to the ledger for this query.
    pub service_cost: f64,
    /// Service latency: worker pickup → completion (scan + bookkeeping,
    /// including the tenant's core-mutex wait; excludes time queued behind
    /// other queries, which a closed-loop harness would otherwise dominate
    /// with).
    pub latency: Duration,
}

struct Slot {
    value: Mutex<Option<QueryOutcome>>,
    ready: Condvar,
}

/// Handle to one tracked query's outcome (see [`Engine::submit_tracked`]).
pub struct ResultHandle {
    slot: Arc<Slot>,
}

impl ResultHandle {
    /// Block until the query completes.
    pub fn wait(self) -> QueryOutcome {
        let mut v = self.slot.value.lock().expect("result slot poisoned");
        loop {
            if let Some(out) = v.take() {
                return out;
            }
            v = self.slot.ready.wait(v).expect("result slot poisoned");
        }
    }
}

struct Job {
    query: Query,
    slot: Option<Arc<Slot>>,
    /// Submission order (assigned at enqueue) — the span id tying this
    /// query's journal events together.
    submit_id: u64,
    /// Index into the engine's tenant map.
    tenant: u32,
    /// When the job was pushed onto the work queue.
    enqueued: Instant,
}

/// One tenant's serving state: its write path, snapshot cell, disk tier,
/// policy state, and the counters its per-tenant report is assembled from.
/// The tenant's index is the table id stamped on pool page keys and tiered
/// generations.
struct Tenant {
    /// Tenant name — the report label.
    name: String,
    /// The tenant's write path: delta buffer, WAL, and base identity. Lock
    /// order is strictly ingest → core; every snapshot publish (ingest
    /// overlay updates *and* reorganizer folds) happens under this lock so
    /// overlay attachments can never be lost to a racing publish.
    ingest: Mutex<IngestState>,
    /// The tenant's served snapshot.
    cell: SnapshotCell,
    /// The tenant's disk tier, in [`ServeMode::Tiered`] runs.
    tiered: Option<TieredStore>,
    /// The tenant's policy state. Bookkeeping takes it through
    /// [`Shared::lock_core`]; polls and waits through
    /// [`Tenant::lock_untimed`].
    core: Mutex<TenantCore>,
    /// Notified when one of the tenant's boundaries is admitted.
    admitted: Condvar,
    /// The tenant's namespaced metric handles (`tenant.<index>.<metric>`)
    /// — only in multi-tenant runs, so a single-tenant registry stays
    /// byte-identical to the pre-tenancy schema.
    metrics: Option<LiveMetrics>,
}

/// What a tenant's bookkeeping reads and writes, behind its core mutex.
struct TenantCore {
    oreo: Oreo,
    /// Queries whose bookkeeping completed for this tenant.
    observed: u64,
    /// The tenant's generation boundaries awaiting admission (see
    /// [`construct_candidates`]).
    boundaries: Boundaries,
}

/// When a generation boundary was captured: the clock, and the tenant's
/// `observed` count.
#[derive(Clone, Copy)]
struct Stamp {
    at: Instant,
    observed: u64,
}

/// A tenant's generation boundaries between capture and admission.
#[derive(Default)]
struct Boundaries {
    /// The newest boundary nobody has started building. One deep: a newer
    /// boundary replaces it (latest wins) — which takes a stream let past
    /// its bound by [`ADMISSION_GUARD`], since the bound is under an
    /// interval.
    waiting: Option<(CandidateTask, Stamp)>,
    /// The boundary a worker is building right now.
    building: Option<Stamp>,
}

impl Boundaries {
    /// The oldest boundary whose candidate is not in yet.
    fn oldest(&self) -> Option<Stamp> {
        self.building
            .or(self.waiting.as_ref().map(|(_, stamp)| *stamp))
    }
}

impl TenantCore {
    /// `None` when the tenant's stream may take another query; otherwise it
    /// is a full run-ahead allowance — a quarter of its generation interval
    /// — past its oldest boundary, and the value is what is left of that
    /// boundary's [`ADMISSION_GUARD`].
    fn hold_left(&self) -> Option<Duration> {
        let stamp = self.boundaries.oldest()?;
        let run_ahead = self.oreo.config().generation_interval / 4;
        (self.observed - stamp.observed >= run_ahead)
            .then(|| (stamp.at + ADMISSION_GUARD).saturating_duration_since(Instant::now()))
    }
}

impl Tenant {
    /// Take the tenant's core mutex untimed: polls, waits and the hand-off
    /// of a boundary's task are not bookkeeping (`core.lock_*_us`).
    fn lock_untimed(&self) -> MutexGuard<'_, TenantCore> {
        self.core.lock().expect("tenant core poisoned")
    }
}

/// The aggregate metrics plus `tenant`'s namespaced copy, when present.
/// Hot paths publish through this so the per-tenant series stay consistent
/// with the fleet-wide ones by construction.
fn metric_views<'a>(
    shared: &'a Shared,
    tenant: &'a Tenant,
) -> impl Iterator<Item = &'a LiveMetrics> {
    std::iter::once(&shared.metrics).chain(tenant.metrics.as_ref())
}

/// Set a gauge whose aggregate series is the fleet *sum* (table bytes, WAL
/// bytes, unfolded delta rows, ledger, states): `tenant`'s namespaced gauge
/// takes `value` and the aggregate is republished as the sum over the
/// tenants that have set theirs. A single-tenant engine has no namespaced
/// series — the aggregate *is* the tenant. Callers serialize per tenant (a
/// lock or the reorganizer thread), so its own gauge never goes backwards.
fn set_fleet_gauge(
    shared: &Shared,
    tenant: &Tenant,
    gauge: impl Fn(&LiveMetrics) -> &Gauge,
    value: f64,
) {
    let Some(tm) = &tenant.metrics else {
        return gauge(&shared.metrics).set(value);
    };
    gauge(tm).set(value);
    let set_values = shared
        .tenants
        .iter()
        .filter_map(|t| t.metrics.as_ref().map(|m| gauge(m).get()))
        .filter(|v| v.is_finite());
    gauge(&shared.metrics).set(set_values.sum());
}

struct Shared {
    /// The tenant map, indexed by the `tenant` tag jobs carry.
    tenants: Vec<Tenant>,
    /// Page cache shared by every tenant's tiered scans (page keys carry
    /// the owning tenant's table id), in [`ServeMode::Tiered`] runs.
    pool: Option<Arc<BufferPool>>,
    queue: ShardedQueue<Job>,
    config: EngineConfig,
    /// Set while a worker is building candidates ([`construct_candidates`]):
    /// at most one construction runs per engine.
    constructing: AtomicBool,
    submitted: AtomicU64,
    completed: AtomicU64,
    drain_lock: Mutex<()>,
    drain_cv: Condvar,
    /// Callers blocked in [`Engine::drain`]: `drain_cv` is notified only
    /// while one waits.
    drainers: AtomicUsize,
    /// The live metrics registry (always on).
    registry: Arc<Registry>,
    /// Pre-resolved handles into `registry` for the hot paths.
    metrics: LiveMetrics,
    /// The shared buffer pool's gauges (aggregate only).
    pool_gauges: PoolGauges,
    /// The bounded event journal, when configured.
    journal: Option<Arc<Journal>>,
    /// `journal` as a sink (or [`NullSink`]) for span events.
    sink: Arc<dyn EventSink>,
    /// Engine birth — the exporter's qps/elapsed origin.
    started: Instant,
}

/// A tenant's core mutex, held for bookkeeping: derefs to its policy state
/// and, on drop, records how long it was held in `core.lock_hold_us`.
struct CoreGuard<'a> {
    core: MutexGuard<'a, TenantCore>,
    acquired: Instant,
    shared: &'a Shared,
    tenant: &'a Tenant,
}

impl Shared {
    /// Nothing in flight (see [`Engine::drain`]). A query's boundary is
    /// captured and its switch counted before the `Release` increment of
    /// `completed` that this `Acquire` load pairs with, so both are seen
    /// once the query is; a switch's window is counted after it lands.
    fn quiescent(&self) -> bool {
        let idle = |ten: &Tenant| ten.lock_untimed().boundaries.oldest().is_none();
        let m = &self.metrics;
        self.completed.load(Ordering::Acquire) >= self.submitted.load(Ordering::Relaxed)
            && self.tenants.iter().all(idle)
            && m.reorg_windows.get() >= m.switches.get()
    }

    /// Wake the callers blocked in [`Engine::drain`], if any: a futex
    /// `notify_all` is a syscall even with no waiter, and the workers call
    /// this once a batch.
    fn wake_drainers(&self) {
        if self.drainers.load(Ordering::SeqCst) > 0 {
            self.drain_cv.notify_all();
        }
    }

    /// Take `ten`'s core mutex for bookkeeping, recording the wait in
    /// `core.lock_wait_us`. Lock order is ingest → core, one tenant's core
    /// at a time.
    fn lock_core<'a>(&'a self, ten: &'a Tenant) -> CoreGuard<'a> {
        let asked = Instant::now();
        let core = ten.core.lock().expect("tenant core poisoned");
        let acquired = Instant::now();
        let waited = as_micros_u64(acquired - asked);
        for m in metric_views(self, ten) {
            m.lock_wait_us.record(waited);
        }
        CoreGuard {
            core,
            acquired,
            shared: self,
            tenant: ten,
        }
    }
}

impl Deref for CoreGuard<'_> {
    type Target = TenantCore;
    fn deref(&self) -> &TenantCore {
        &self.core
    }
}

impl DerefMut for CoreGuard<'_> {
    fn deref_mut(&mut self) -> &mut TenantCore {
        &mut self.core
    }
}

impl Drop for CoreGuard<'_> {
    fn drop(&mut self) {
        let held = as_micros_u64(self.acquired.elapsed());
        for m in metric_views(self.shared, self.tenant) {
            m.lock_hold_us.record(held);
        }
    }
}

/// What the reorganizer thread returns at join: every completed window and
/// the disk-tier degradation messages.
type ReorgOutcome = (Vec<ReorgWindow>, Vec<String>);

/// The concurrent serving engine. See the [module docs](self) for the data
/// path; construct with [`Engine::start`], feed with [`Engine::submit`] /
/// [`Engine::submit_tracked`] from any number of threads, finish with
/// [`Engine::drain`] + [`Engine::shutdown`].
pub struct Engine {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    reorg: Option<JoinHandle<ReorgOutcome>>,
    exporter: Option<JoinHandle<()>>,
    /// Tells the exporter thread to write its final snapshot and exit.
    exporter_stop: Arc<(Mutex<bool>, Condvar)>,
    started: Instant,
}

impl Engine {
    /// Boot a single-tenant engine: build the bookkeeping core,
    /// materialize the initial snapshot, and spawn the worker pool plus
    /// (optionally) the background reorganizer. This is the N = 1 special
    /// case of [`Engine::start_tenants`], with the tenant named
    /// `"default"` and its disk tier rooted *directly* at the configured
    /// root (no `tenant-*/` subdirectory).
    pub fn start(
        table: Arc<Table>,
        initial_spec: SharedSpec,
        generator: Arc<dyn LayoutGenerator>,
        oreo_config: OreoConfig,
        config: EngineConfig,
    ) -> Self {
        Self::start_tenants(
            vec![TenantSpec {
                name: "default".into(),
                table,
                initial_spec,
                generator,
                oreo: oreo_config,
            }],
            config,
        )
    }

    /// Boot an N-tenant engine: one OREO instance, snapshot cell, and
    /// write path per tenant; one shared worker pool, buffer pool, and
    /// reorganizer. Tenant *index* (position in `specs`) is
    /// the table id on pool page keys and tiered generations, and the id
    /// queries are routed by ([`Engine::submit_to`]). With more than one
    /// tenant, tiered serving stores tenant `i` under
    /// `root/tenant-<name>/`.
    ///
    /// # Panics
    /// Panics on an empty tenant list, duplicate tenant names, or a name
    /// that is empty or holds anything but ASCII alphanumerics, `-` and
    /// `_` (tiered serving joins it under `root`).
    pub fn start_tenants(specs: Vec<TenantSpec>, config: EngineConfig) -> Self {
        assert!(!specs.is_empty(), "engine needs at least one tenant");
        {
            let mut names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), specs.len(), "tenant names must be unique");
            for name in names {
                assert!(
                    !name.is_empty()
                        && name
                            .bytes()
                            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_'),
                    "tenant name {name:?} must be non-empty ASCII alphanumerics, '-' or '_'"
                );
            }
        }
        let registry = Arc::new(Registry::new());
        let metrics = LiveMetrics::new(&registry);
        let pool_gauges = PoolGauges::new(&registry);
        let journal = (config.obs.journal_capacity > 0).then(|| {
            // Shard per thread that emits: workers + reorganizer + the
            // submitting front end, capped to keep per-journal memory sane.
            let shards = (config.workers.max(1) + 2).min(16);
            Arc::new(Journal::new(shards, config.obs.journal_capacity))
        });
        let sink: Arc<dyn EventSink> = match &journal {
            Some(j) => Arc::clone(j) as Arc<dyn EventSink>,
            None => Arc::new(NullSink),
        };
        let multi_tenant = specs.len() > 1;
        let mut tenants = Vec::with_capacity(specs.len());
        let mut any_tiered = false;
        for (index, spec) in specs.into_iter().enumerate() {
            // The initial layout is routed once: its snapshot's model is
            // the core's exact model of it.
            let mut initial_snapshot = None;
            let mut oreo = Oreo::with_initial_model(
                Arc::clone(&spec.table),
                Arc::clone(&spec.initial_spec),
                spec.generator,
                spec.oreo,
                |initial_id| {
                    let snapshot = materialize(&spec.table, &spec.initial_spec, initial_id);
                    let model = snapshot.model();
                    initial_snapshot = Some(snapshot);
                    model
                },
            );
            let mut initial_snapshot = initial_snapshot.expect("initial layout materialized");
            oreo.set_event_sink(Arc::clone(&sink));
            // A single tenant keeps the pre-tenancy flat layout (store +
            // wal.log directly at the root); N tenants get subdirectories.
            let tenant_root = match &config.mode {
                ServeMode::Memory => None,
                ServeMode::Tiered { root } => Some(if multi_tenant {
                    root.join(format!("tenant-{}", spec.name))
                } else {
                    root.clone()
                }),
            };
            let tiered = tenant_root.as_ref().map(|root| {
                let (store, _receipt) =
                    TieredStore::create_for_table(root, index as u32, &mut initial_snapshot)
                        .expect("create tiered store");
                store
            });
            any_tiered |= tiered.is_some();
            // The write path. In tiered serving every accepted batch is
            // WAL-logged (append + fsync = the ack point) before it mutates
            // the delta buffer; a WAL failure degrades ingestion to
            // memory-only instead of failing writes or killing the engine.
            // The engine starts from the boot table, so any WAL left on the
            // root belongs to a previous process: storage-level recovery
            // (`Wal::open` + `DeltaBuffer::resume`) is the crash path, the
            // engine starts clean.
            let mut ingest_errors = Vec::new();
            let wal = tenant_root.as_ref().and_then(|root| {
                let path = root.join("wal.log");
                let _ = std::fs::remove_file(&path);
                match Wal::open(&path) {
                    Ok((wal, _recovery)) => Some(wal),
                    Err(e) => {
                        let msg = format!(
                            "wal open at {} failed: {e} (ingestion degraded to memory-only)",
                            path.display()
                        );
                        eprintln!("oreo-ingest: {msg}");
                        ingest_errors.push(msg);
                        metrics.tiered_errors.inc();
                        None
                    }
                }
            });
            // At most 2 delta runs, amortized write amplification
            // O(2·√m) over m batches (arXiv:2011.02615).
            let ingest = IngestState::new(
                DeltaBuffer::new(
                    Arc::clone(spec.table.schema()),
                    spec.table.num_rows() as u64,
                    MergePolicy::KBinomial { k: 2 },
                ),
                wal,
                Arc::clone(&spec.table),
                ingest_errors,
            );
            let tenant_metrics = multi_tenant
                .then(|| LiveMetrics::with_prefix(&registry, &format!("tenant.{index}.")));
            tenants.push(Tenant {
                name: spec.name,
                ingest: Mutex::new(ingest),
                cell: SnapshotCell::new(initial_snapshot),
                tiered,
                core: Mutex::new(TenantCore {
                    oreo,
                    observed: 0,
                    boundaries: Boundaries::default(),
                }),
                admitted: Condvar::new(),
                metrics: tenant_metrics,
            });
        }
        let pool = any_tiered.then(|| {
            Arc::new(
                BufferPool::new(BufferPoolConfig {
                    capacity_bytes: config.buffer_pool_bytes,
                    ..BufferPoolConfig::default()
                })
                .with_event_sink(Arc::clone(&sink)),
            )
        });
        let worker_count = config.workers.max(1);
        let started = Instant::now();
        let shared = Arc::new(Shared {
            tenants,
            pool,
            queue: ShardedQueue::new(worker_count),
            config,
            constructing: AtomicBool::new(false),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            drain_lock: Mutex::new(()),
            drain_cv: Condvar::new(),
            drainers: AtomicUsize::new(0),
            registry,
            metrics,
            pool_gauges,
            journal,
            sink,
            started,
        });

        let (reorg_tx, rx) = channel::<ReorgRequest>();
        let reorg = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("oreo-reorg".into())
                .spawn(move || reorg_loop(&shared, &rx))
                .expect("spawn reorganizer")
        };

        let workers = (0..worker_count)
            .map(|home| {
                let shared = Arc::clone(&shared);
                let tx = reorg_tx.clone();
                std::thread::Builder::new()
                    .name(format!("oreo-worker-{home}"))
                    .spawn(move || worker_loop(&shared, home, tx))
                    .expect("spawn worker")
            })
            .collect();
        // Workers hold the only senders now; the reorganizer exits when the
        // last worker does.
        drop(reorg_tx);

        for ten in &shared.tenants {
            let bytes = ten.cell.pin().total_bytes();
            set_fleet_gauge(&shared, ten, |m| &m.table_bytes, bytes as f64);
        }

        let exporter_stop = Arc::new((Mutex::new(false), Condvar::new()));
        let exporter = shared.config.obs.metrics_json.clone().map(|path| {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&exporter_stop);
            std::thread::Builder::new()
                .name("oreo-metrics".into())
                .spawn(move || exporter_loop(&shared, &stop, &path))
                .expect("spawn metrics exporter")
        });

        Self {
            shared,
            workers,
            reorg: Some(reorg),
            exporter,
            exporter_stop,
            started,
        }
    }

    /// The live metrics registry — every counter/gauge/histogram the
    /// engine publishes, readable at any time.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.shared.registry
    }

    /// The event journal, when one was configured.
    pub fn journal(&self) -> Option<&Arc<Journal>> {
        self.shared.journal.as_ref()
    }

    /// Enqueue a query for tenant 0 (fire-and-forget; outcomes land in the
    /// stats). The single-tenant API.
    pub fn submit(&self, query: Query) {
        self.submit_to(0, query);
    }

    /// Enqueue a query for tenant 0 and get a handle to its outcome.
    pub fn submit_tracked(&self, query: Query) -> ResultHandle {
        self.submit_tracked_to(0, query)
    }

    /// Enqueue a query for the tenant at `tenant` (its index in the
    /// [`Engine::start_tenants`] spec list).
    pub fn submit_to(&self, tenant: usize, query: Query) {
        self.enqueue(tenant, query, None);
    }

    /// Enqueue a query for the tenant at `tenant` and get a handle to its
    /// outcome.
    pub fn submit_tracked_to(&self, tenant: usize, query: Query) -> ResultHandle {
        let slot = Arc::new(Slot {
            value: Mutex::new(None),
            ready: Condvar::new(),
        });
        self.enqueue(tenant, query, Some(Arc::clone(&slot)));
        ResultHandle { slot }
    }

    fn enqueue(&self, tenant: usize, query: Query, slot: Option<Arc<Slot>>) {
        let ten = &self.shared.tenants[tenant];
        let submit_id = self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        for m in metric_views(&self.shared, ten) {
            m.queries_submitted.inc();
        }
        if self.shared.sink.enabled() {
            self.shared
                .sink
                .emit(EventKind::QueryEnqueued { submit_id });
        }
        self.shared.queue.push(Job {
            query,
            slot,
            submit_id,
            tenant: tenant as u32,
            enqueued: Instant::now(),
        });
    }

    /// Apply one batch of write operations: appends land in delta runs,
    /// updates tombstone-and-reappend, deletes tombstone. The batch is
    /// validated, WAL-logged (append + fsync — the durability ack point;
    /// tiered serving only), applied to the delta buffer, and published as
    /// the current snapshot's overlay, all under the ingest lock. The next
    /// background reorganization folds the deltas into the base layout.
    ///
    /// A WAL failure degrades ingestion to memory-only — the batch still
    /// succeeds, the error lands in [`EngineStats::tiered_errors`] — so
    /// the write path has the same degradation contract as tiered
    /// publishes. Validation errors reject the whole batch atomically.
    pub fn ingest(&self, ops: &[IngestOp]) -> oreo_storage::Result<ApplyReceipt> {
        self.ingest_to(0, ops)
    }

    /// [`Engine::ingest`] addressed to the tenant at `tenant`.
    pub fn ingest_to(&self, tenant: usize, ops: &[IngestOp]) -> oreo_storage::Result<ApplyReceipt> {
        let shared = &self.shared;
        let ten = &shared.tenants[tenant];
        let mut ing = ten.ingest.lock().expect("ingest poisoned");
        // Validate before WAL-logging: the log must never hold a record
        // replay would reject.
        ing.buffer.validate(ops)?;
        let seq = ing.buffer.next_seq();
        let mut wal_failure = None;
        if let Some(wal) = ing.wal.as_mut() {
            if let Err(e) = wal.append(seq, ops) {
                wal_failure = Some(format!(
                    "wal append of batch {seq} failed: {e} (ingestion degraded to memory-only)"
                ));
            }
        }
        if let Some(msg) = wal_failure {
            eprintln!("oreo-ingest: {msg}");
            ing.errors.push(msg);
            ing.wal = None;
            for m in metric_views(shared, ten) {
                m.tiered_errors.inc();
            }
            set_fleet_gauge(shared, ten, |m| &m.wal_bytes, 0.0);
        } else if let Some(wal) = &ing.wal {
            set_fleet_gauge(shared, ten, |m| &m.wal_bytes, wal.bytes() as f64);
        }
        let receipt = ing.buffer.apply(ops)?;
        for m in metric_views(shared, ten) {
            m.ingest_batches.inc();
            m.ingest_rows.add(receipt.appended);
            m.ingest_deletes.add(receipt.deleted);
            m.ingest_rows_written.add(receipt.rows_written);
        }
        let delta_rows = ing.buffer.delta_rows() as f64;
        set_fleet_gauge(shared, ten, |m| &m.delta_rows, delta_rows);
        // Publish the new overlay: readers pin snapshots, so clone the
        // current one and re-attach. Still under the ingest lock — every
        // overlay-bearing publish is — so a racing fold can't lose it.
        let mut snapshot = ten.cell.pin().as_ref().clone();
        snapshot.set_delta(ing.buffer.overlay());
        ten.cell.publish(snapshot);
        // Charge the merge work (lock order ingest → core): rewriting
        // `rows_written` of the table's live rows is that fraction of a
        // full rewrite, which costs α.
        if receipt.rows_written > 0 {
            let live = ing.base.num_rows() as u64 + ing.buffer.delta_rows();
            let mut core = shared.lock_core(ten);
            let oreo = &mut core.oreo;
            let alpha = oreo.config().alpha;
            oreo.charge_compaction(
                alpha * receipt.rows_written as f64 / live.max(1) as f64,
                receipt.rows_written,
            );
        }
        Ok(receipt)
    }

    /// Rows a full scan of tenant 0's served snapshot returns right now:
    /// base rows plus delta rows minus tombstones.
    pub fn live_rows(&self) -> u64 {
        self.shared.tenants[0].cell.pin().live_rows()
    }

    /// Block until the engine is quiescent: every submitted query has
    /// completed, no tenant has a generation boundary waiting or building,
    /// and every decided switch has landed. An engine driven in lockstep —
    /// submit one query, then `drain` — thus runs the served order of the
    /// [module docs](self). It polls the tenants' core mutexes untimed, so
    /// it adds no samples to `core.lock_wait_us` or `core.lock_hold_us`.
    pub fn drain(&self) {
        let shared = &self.shared;
        let mut guard = shared.drain_lock.lock().expect("drain poisoned");
        // Counted before the first look, so a change after it notifies; one
        // that slips between a look and the wait costs one timeout.
        shared.drainers.fetch_add(1, Ordering::SeqCst);
        while !shared.quiescent() {
            guard = shared
                .drain_cv
                .wait_timeout(guard, Duration::from_millis(1))
                .expect("drain poisoned")
                .0;
        }
        shared.drainers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Pin tenant 0's currently served snapshot.
    pub fn pin(&self) -> Arc<TableSnapshot> {
        self.shared.tenants[0].cell.pin()
    }

    /// Epoch of tenant 0's currently served snapshot.
    pub fn epoch(&self) -> u64 {
        self.shared.tenants[0].cell.epoch()
    }

    /// The disk tier backing tenant 0's snapshots, in [`ServeMode::Tiered`]
    /// runs.
    pub fn tiered(&self) -> Option<&TieredStore> {
        self.shared.tenants[0].tiered.as_ref()
    }

    /// The shared buffer pool tiered scans read through, in
    /// [`ServeMode::Tiered`] runs.
    pub fn pool(&self) -> Option<&Arc<BufferPool>> {
        self.shared.pool.as_ref()
    }

    /// The bookkeeping ledger, summed over tenants read one at a time (for
    /// a single-tenant engine this *is* the tenant's ledger).
    pub fn ledger(&self) -> CostLedger {
        let shared = &self.shared;
        let ledger = |ten| *shared.lock_core(ten).oreo.ledger();
        total_ledger(shared.tenants.iter().map(ledger))
    }

    /// Queries fully served so far.
    pub fn completed(&self) -> u64 {
        self.shared.completed.load(Ordering::Relaxed)
    }

    /// Stop accepting work, wait for the pipeline (workers + reorganizer)
    /// to finish everything in flight — candidate constructions included —
    /// and return aggregate statistics.
    pub fn shutdown(mut self) -> EngineStats {
        self.shared.queue.close();
        for handle in self.workers.drain(..) {
            handle.join().expect("worker panicked");
        }
        let (windows, mut tiered_errors) = self
            .reorg
            .take()
            .expect("shutdown runs once")
            .join()
            .expect("reorganizer panicked");
        // Every tenant's write-path degradations, and what is still
        // unfolded — read from the live buffer and log. A degraded WAL is
        // gone and counts 0 bytes; so does one no batch ever reached (it
        // is only its header, and its `ingest.wal_bytes` gauge is unset).
        let (mut delta_rows, mut tombstones, mut wal_bytes) = (0u64, 0u64, 0u64);
        for ten in &self.shared.tenants {
            let ing = ten.ingest.lock().expect("ingest poisoned");
            tiered_errors.extend(ing.errors.iter().cloned());
            delta_rows += ing.buffer.delta_rows();
            tombstones += ing.buffer.tombstone_count() as u64;
            if ing.buffer.next_seq() > 1 {
                wal_bytes += ing.wal.as_ref().map_or(0, Wal::bytes);
            }
        }
        // Stop the exporter last among the threads so its final snapshot
        // sees the fully drained counters.
        if let Some(handle) = self.exporter.take() {
            let (lock, cv) = &*self.exporter_stop;
            *lock.lock().expect("exporter stop poisoned") = true;
            cv.notify_all();
            handle.join().expect("metrics exporter panicked");
        }
        if let Some(path) = &self.shared.config.obs.metrics_prom {
            update_derived_gauges(&self.shared);
            let prom = self.shared.registry.snapshot().to_prometheus();
            if let Err(e) = std::fs::write(path, prom) {
                eprintln!("oreo-metrics: prometheus dump to {path:?} failed: {e}");
            }
        }
        let (events, events_dropped) = match &self.shared.journal {
            Some(journal) => (journal.drain(), journal.events_dropped()),
            None => (Vec::new(), 0),
        };
        let elapsed = self.started.elapsed();
        let queries = self.shared.completed.load(Ordering::Relaxed);
        // The registry is the only accumulator: the report is a read of it.
        let m = &self.shared.metrics;
        for tm in std::iter::once(m).chain(
            self.shared
                .tenants
                .iter()
                .filter_map(|t| t.metrics.as_ref()),
        ) {
            // A covered partition is a read one, and a scan decodes at
            // most the predicate's columns of the partitions it read.
            assert!(
                tm.partitions_covered.get() <= tm.partitions_read.get(),
                "more partitions answered from metadata than read"
            );
            assert!(
                tm.columns_decoded.get() <= tm.columns_read.get(),
                "more columns decoded than partitions read × predicate columns"
            );
        }
        let tenants: Vec<TenantStats> = self
            .shared
            .tenants
            .iter()
            .map(|ten| {
                let core = ten.lock_untimed();
                // The workers have exited, and a worker builds or supersedes
                // every boundary it captured before it does.
                assert!(
                    core.boundaries.oldest().is_none(),
                    "tenant {}: a boundary was dropped",
                    ten.name
                );
                let oreo = &core.oreo;
                let manager = oreo.manager_stats();
                assert_eq!(
                    manager.generated,
                    manager.admitted + manager.rejected,
                    "tenant {}: a generated candidate was neither admitted nor rejected",
                    ten.name
                );
                // A single tenant has no namespaced series: it is the
                // aggregate.
                let tm = ten.metrics.as_ref().unwrap_or(m);
                TenantStats {
                    name: ten.name.clone(),
                    queries: tm.queries_completed.get(),
                    latency: tm.latency_us.stats(),
                    ledger: *oreo.ledger(),
                    switches: oreo.switches(),
                    manager,
                    snapshots_published: tm.snapshots_published.get(),
                    io_cold_bytes: tm.io_cold_bytes.get(),
                    io_cached_bytes: tm.io_cached_bytes.get(),
                    partitions_read: tm.partitions_read.get(),
                    partitions_covered: tm.partitions_covered.get(),
                    columns_decoded: tm.columns_decoded.get(),
                    frames_decided: tm.frames_decided.get(),
                    final_physical: oreo.physical_layout(),
                    final_logical: oreo.logical_layout(),
                    num_states: oreo.num_states(),
                    max_states_seen: oreo.max_states_seen(),
                }
            })
            .collect();
        EngineStats {
            workers: self.shared.config.workers.max(1),
            queries,
            elapsed,
            qps: if elapsed.as_secs_f64() > 0.0 {
                queries as f64 / elapsed.as_secs_f64()
            } else {
                0.0
            },
            latency: m.latency_us.stats(),
            ledger: total_ledger(tenants.iter().map(|t| t.ledger)),
            switches: tenants.iter().map(|t| t.switches).sum(),
            snapshots_published: m.snapshots_published.get(),
            windows,
            tiered_errors,
            rows_scanned: m.rows_scanned.get(),
            rows_matched: m.rows_matched.get(),
            bytes_scanned: m.bytes_scanned.get(),
            scan_seconds: m.scan_ns.get() as f64 / 1e9,
            io_cold_bytes: m.io_cold_bytes.get(),
            io_cached_bytes: m.io_cached_bytes.get(),
            pool: self.shared.pool.as_ref().map(|p| p.stats()),
            scan_io_errors: m.scan_io_errors.get(),
            chunks_evaluated: m.chunks_evaluated.get(),
            rows_short_circuited: m.rows_short_circuited.get(),
            partitions_read: m.partitions_read.get(),
            partitions_covered: m.partitions_covered.get(),
            columns_decoded: m.columns_decoded.get(),
            frames_decided: m.frames_decided.get(),
            delta_bytes_scanned: m.delta_bytes_scanned.get(),
            ingest_batches: m.ingest_batches.get(),
            rows_appended: m.ingest_rows.get(),
            rows_deleted: m.ingest_deletes.get(),
            ingest_rows_written: m.ingest_rows_written.get(),
            delta_rows,
            tombstones,
            wal_bytes,
            table_bytes: m.table_bytes.get() as u64,
            mode: self.shared.config.mode.clone(),
            alpha: alpha_readings(m),
            tenants,
            events,
            events_dropped,
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // Unblock any still-running workers; threads detach and exit on
        // their own if `shutdown` was never called.
        self.shared.queue.close();
        let (lock, cv) = &*self.exporter_stop;
        if let Ok(mut stopped) = lock.lock() {
            *stopped = true;
            cv.notify_all();
        }
    }
}

/// Recompute the derived gauges — qps and α̂ of the aggregate view and of
/// each tenant's, each from its own counters, and the buffer-pool readings.
fn update_derived_gauges(shared: &Shared) {
    let elapsed = shared.started.elapsed().as_secs_f64();
    let tenant_views = shared.tenants.iter().filter_map(|t| t.metrics.as_ref());
    for m in std::iter::once(&shared.metrics).chain(tenant_views) {
        m.update_derived(elapsed);
    }
    if let Some(pool) = &shared.pool {
        shared.pool_gauges.set(&pool.stats());
    }
}

/// The periodic JSON exporter: one snapshot line immediately, one per
/// interval, and one final line at stop — so even the shortest run emits
/// at least two.
fn exporter_loop(shared: &Shared, stop: &(Mutex<bool>, Condvar), path: &std::path::Path) {
    let mut writer = match SnapshotWriter::create(path) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("oreo-metrics: cannot open {path:?}: {e}");
            return;
        }
    };
    let label = shared.config.obs.label.clone();
    let interval = shared.config.obs.interval();
    let write_one = |shared: &Shared, writer: &mut SnapshotWriter| {
        update_derived_gauges(shared);
        let snap = shared.registry.snapshot();
        if let Err(e) = writer.append(&label, shared.started.elapsed().as_secs_f64(), &snap) {
            eprintln!("oreo-metrics: snapshot append failed: {e}");
        }
    };
    write_one(shared, &mut writer);
    let (lock, cv) = stop;
    let mut stopped = lock.lock().expect("exporter stop poisoned");
    loop {
        if *stopped {
            break;
        }
        let (guard, _) = cv
            .wait_timeout(stopped, interval)
            .expect("exporter stop poisoned");
        stopped = guard;
        if *stopped {
            break;
        }
        drop(stopped);
        write_one(shared, &mut writer);
        stopped = lock.lock().expect("exporter stop poisoned");
    }
    drop(stopped);
    // Final snapshot: the drained end-of-run state.
    write_one(shared, &mut writer);
}

fn worker_loop(shared: &Shared, home: usize, reorg_tx: Sender<ReorgRequest>) {
    let mut warned = false;
    while let Some(batch) = shared.queue.pop_batch(home, shared.config.batch) {
        // Phase 1 — scans against the job's tenant's pinned snapshot, no
        // locks held. In tiered serving the scan reads partition pages
        // through the shared buffer pool (real disk I/O on misses); a
        // pooled scan that fails degrades to the in-memory snapshot. The
        // failure voids α̂ for the run (`alpha_readings`); the query's wall
        // time, failed attempt included, still lands in `engine.scan_us`.
        let mut scanned = Vec::with_capacity(batch.len());
        for job in batch {
            let picked = Instant::now();
            if shared.sink.enabled() {
                shared.sink.emit(EventKind::QueryPickup {
                    submit_id: job.submit_id,
                });
            }
            let ten = &shared.tenants[job.tenant as usize];
            let queue_wait_us = as_micros_u64(picked.saturating_duration_since(job.enqueued));
            for m in metric_views(shared, ten) {
                m.queue_wait_us.record(queue_wait_us);
            }
            let snapshot = ten.cell.pin();
            let scan = match (&shared.pool, snapshot.generation()) {
                (Some(pool), Some(_)) => match snapshot.scan_pooled(&job.query.predicate, pool) {
                    Ok(scan) => scan,
                    Err(e) => {
                        for m in metric_views(shared, ten) {
                            m.scan_io_errors.inc();
                        }
                        // A persistent fault (unreadable file, bad disk)
                        // would otherwise print once per queued query;
                        // the full count lands in scan_io_errors.
                        if !warned {
                            warned = true;
                            eprintln!(
                                "oreo-worker-{home}: pooled scan failed: {e} (memory \
                                 fallback; further errors counted silently)"
                            );
                        }
                        snapshot.scan(&job.query.predicate)
                    }
                },
                _ => snapshot.scan(&job.query.predicate),
            };
            let scan_wall = picked.elapsed();
            let predicate_columns = job.query.predicate.columns().len();
            for m in metric_views(shared, ten) {
                m.record_scan(&scan, predicate_columns, scan_wall);
            }
            if shared.sink.enabled() {
                shared.sink.emit(EventKind::QueryScanned {
                    submit_id: job.submit_id,
                    rows_read: scan.rows_read,
                    bytes: scan.bytes_scanned,
                    matched: scan.matches.len() as u64,
                });
            }
            scanned.push((job, picked, scan, snapshot.layout(), snapshot.epoch()));
        }

        // Phases 2–4 once for the whole batch, unless the bookkeeping
        // holds part of it back at a run-ahead bound: then again for that
        // part, once the admission it waits for is in.
        while !scanned.is_empty() {
            scanned = serve_scanned(shared, scanned, &reorg_tx);
            if let Some((job, ..)) = scanned.first() {
                await_admission(shared, &shared.tenants[job.tenant as usize]);
            }
        }
    }
}

/// A scanned query awaiting its bookkeeping: the job, when a worker picked
/// it up, its scan, and the layout and epoch of the snapshot that served it.
type Scanned = (Job, Instant, SnapshotScan, LayoutId, u64);

/// Phases 2–4 of [`worker_loop`] for one batch of scanned queries. Returns
/// the queries it held back, grouped by tenant and in batch order within a
/// tenant: those whose tenant's stream is a full run-ahead allowance past a
/// boundary still awaiting admission. Everything else is answered, and a
/// boundary this batch captured is built, before it returns.
fn serve_scanned(
    shared: &Shared,
    mut scanned: Vec<Scanned>,
    reorg_tx: &Sender<ReorgRequest>,
) -> Vec<Scanned> {
    let (mut held, mut captured) = (Vec::new(), false);
    // Phase 2 — bookkeeping under one tenant's core mutex at a time, taken
    // once per tenant in the batch: the stable sort keeps each tenant's
    // queries in batch order, so each tenant's decision stream is exactly
    // the single-tenant one.
    scanned.sort_by_key(|(job, ..)| job.tenant);
    let mut fulfilled = Vec::with_capacity(scanned.len());
    let mut scanned = scanned.into_iter().peekable();
    while let Some((first, ..)) = scanned.peek() {
        let tenant_index = first.tenant as usize;
        let ten = &shared.tenants[tenant_index];
        let mut core = shared.lock_core(ten);
        while let Some((job, picked, scan, served_layout, served_epoch)) =
            scanned.next_if(|(job, ..)| job.tenant as usize == tenant_index)
        {
            // `observed` moves under this lock only, so the bound is
            // exact: no stream is ever further past a pending boundary
            // than its allowance. A query the guard lets past it is counted.
            if let Some(left) = core.hold_left() {
                if !left.is_zero() {
                    held.push((job, picked, scan, served_layout, served_epoch));
                    continue;
                }
                for m in metric_views(shared, ten) {
                    m.admission_overruns.inc();
                }
            }
            let TenantCore {
                oreo,
                observed,
                boundaries,
            } = &mut *core;
            // `Oreo::decide` without its build: a boundary's task waits
            // with the tenant until this batch is answered
            // (`construct_candidates`). Latest wins: a task it replaces
            // (fault guard only) is never built.
            let (mut report, task) = oreo.capture(&job.query);
            if let Some(task) = task {
                captured = true;
                let stamp = Stamp {
                    at: Instant::now(),
                    observed: *observed,
                };
                if let Some((stale, _)) = boundaries.waiting.replace((task, stamp)) {
                    oreo.discard(stale);
                    for m in metric_views(shared, ten) {
                        m.candidates_superseded.inc();
                    }
                }
            }
            oreo.step(&job.query, &mut report);
            oreo.settle(&job.query, &mut report);
            *observed += 1;
            if let Some(target) = report.reorg_decision {
                for m in metric_views(shared, ten) {
                    m.switches.inc();
                }
                let spec = oreo.spec(target).expect("decided target has a spec");
                // Send while holding the tenant's core mutex so the build
                // queue and `Oreo::pending` stay in the same order.
                let _ = reorg_tx.send(ReorgRequest {
                    tenant: job.tenant,
                    target,
                    spec,
                    decided_seq: report.seq,
                    decided_at: Instant::now(),
                    tenant_observed_at_decision: *observed,
                });
            }
            fulfilled.push((
                picked,
                job.slot,
                job.submit_id,
                tenant_index,
                QueryOutcome {
                    seq: report.seq,
                    scan,
                    served_layout,
                    served_epoch,
                    decision: report.reorg_decision,
                    service_cost: report.service_cost,
                    latency: Duration::ZERO,
                },
            ));
        }
        // Batch-granular gauges, read under the tenant's mutex: its live
        // ledger and state-space views.
        let oreo = &core.oreo;
        let ledger = *oreo.ledger();
        let (states, peak_states) = (oreo.num_states(), oreo.max_states_seen());
        set_fleet_gauge(shared, ten, |m| &m.ledger_query_cost, ledger.query_cost);
        set_fleet_gauge(shared, ten, |m| &m.ledger_reorg_cost, ledger.reorg_cost);
        set_fleet_gauge(shared, ten, |m| &m.ledger_total, ledger.total());
        set_fleet_gauge(shared, ten, |m| &m.num_states, states as f64);
        set_fleet_gauge(shared, ten, |m| &m.max_states_seen, peak_states as f64);
    }

    // Phase 3 — fulfill results and wake drainers.
    for (picked, slot, submit_id, tenant_index, mut outcome) in fulfilled {
        let ten = &shared.tenants[tenant_index];
        outcome.latency = picked.elapsed();
        let latency_us = as_micros_u64(outcome.latency);
        for m in metric_views(shared, ten) {
            m.latency_us.record(latency_us);
            m.queries_completed.inc();
        }
        if shared.sink.enabled() {
            shared.sink.emit(EventKind::QueryCompleted {
                submit_id,
                stream_seq: outcome.seq,
                latency_us,
            });
        }
        if let Some(slot) = slot {
            let mut v = slot.value.lock().expect("result slot poisoned");
            *v = Some(outcome);
            drop(v);
            slot.ready.notify_all();
        }
        shared.completed.fetch_add(1, Ordering::Release);
    }
    shared.wake_drainers();

    // Phase 4 — candidate construction, after the batch is answered, only
    // by a worker that left a boundary: its polls take core mutexes.
    if captured {
        construct_candidates(shared);
    }
    held
}

/// Wait, holding no lock, until `ten`'s stream may move again: until the
/// boundary that holds it at its run-ahead bound is admitted (or, a fault,
/// is older than [`ADMISSION_GUARD`]). The candidate is some other worker's
/// to build: the caller has been through [`construct_candidates`] since it
/// last captured a boundary, so it is not waiting for itself.
fn await_admission(shared: &Shared, ten: &Tenant) {
    let mut core = ten.lock_untimed();
    let mut waited_since = None;
    while let Some(left) = core.hold_left().filter(|left| !left.is_zero()) {
        waited_since.get_or_insert_with(Instant::now);
        core = ten
            .admitted
            .wait_timeout(core, left)
            .expect("tenant core poisoned")
            .0;
    }
    if let Some(since) = waited_since {
        let waited = as_micros_u64(since.elapsed());
        for m in metric_views(shared, ten) {
            m.admission_wait_us.record(waited);
        }
    }
}

/// Build, cost and admit every waiting generation boundary, on the calling
/// worker's thread: the construct and admit steps of `Oreo::decide`, which
/// the bookkeeping under the tenant's core mutex left out. Construction
/// holds no lock; admission takes the core mutex for O(states) work.
///
/// At most one worker constructs at a time — a second would only admit
/// candidates fitted to older windows later — and it does not return to the
/// queue while any tenant has a boundary waiting. A worker that leaves one
/// calls this after answering its batch, and either becomes the constructor
/// or finds one that has yet to look again, so no task is left behind: when
/// the last worker exits, every captured boundary has been admitted or
/// superseded.
fn construct_candidates(shared: &Shared) {
    let none_waiting = |ten: &Tenant| ten.lock_untimed().boundaries.waiting.is_none();
    loop {
        if shared.constructing.swap(true, Ordering::SeqCst) {
            return;
        }
        // Every tenant in each pass (no short circuit), so none starves.
        let pass = |built: bool, tenant_index| build_waiting(shared, tenant_index) | built;
        while (0..shared.tenants.len()).fold(false, pass) {}
        shared.constructing.store(false, Ordering::SeqCst);
        // A boundary left after the last look, by a worker that then saw
        // the flag still set and went away, is this worker's to build.
        if shared.tenants.iter().all(none_waiting) {
            return;
        }
    }
}

/// Build and admit the waiting boundary of the tenant at `tenant_index`, if
/// it has one (whether it had).
fn build_waiting(shared: &Shared, tenant_index: usize) -> bool {
    let ten = &shared.tenants[tenant_index];
    let task = {
        let b = &mut ten.lock_untimed().boundaries;
        let Some((task, stamp)) = b.waiting.take() else {
            return false;
        };
        b.building = Some(stamp);
        task
    };
    let started = Instant::now();
    let built = task.build();
    let constructed = as_micros_u64(started.elapsed());
    {
        let mut core = shared.lock_core(ten);
        let admission = core.oreo.admit(built);
        core.boundaries.building = None;
        // Counted before the mutex is released, so a drain that sees the
        // boundary resolved sees it counted.
        for m in metric_views(shared, ten) {
            m.candidates_built.inc();
            m.candidate_lag_queries.record(admission.lag_queries);
            m.construct_us.record(constructed);
        }
    }
    ten.admitted.notify_all();
    shared.wake_drainers();
    true
}

/// The reorganizer, run on the `oreo-reorg` thread: switch decisions
/// execute one at a time in the order the workers sent them, which is the
/// order each tenant's `Oreo::pending` expects. It exits once every worker
/// has, so a run always drains `Oreo::pending`.
fn reorg_loop(shared: &Shared, rx: &Receiver<ReorgRequest>) -> ReorgOutcome {
    let mut windows = Vec::new();
    let mut tiered_errors = Vec::new();
    for req in rx {
        windows.push(execute_reorg(shared, req, &mut tiered_errors));
    }
    (windows, tiered_errors)
}

/// Execute one reorganization for the tenant that decided it:
/// freeze the tenant's delta prefix (the reorganization is also the
/// compaction), build the target snapshot aside, persist it to the
/// tenant's disk tier, publish, invalidate the superseded generation's
/// pages in the shared pool, and land the logical switch in the tenant's
/// OREO instance. Runs on the reorganizer thread; readers never block.
fn execute_reorg(
    shared: &Shared,
    req: ReorgRequest,
    tiered_errors: &mut Vec<String>,
) -> ReorgWindow {
    let tenant_index = req.tenant as usize;
    let ten = &shared.tenants[tenant_index];
    let build_start = Instant::now();
    // Freeze the delta prefix: captured runs and tombstones fold into the
    // rewritten base; batches arriving during the build merge only among
    // themselves and surface as the published snapshot's overlay.
    let (mut capture, base, base_ids, prev_folded, prev_next) = {
        let mut ing = ten.ingest.lock().expect("ingest poisoned");
        (
            ing.buffer.freeze_for_fold(),
            Arc::clone(&ing.base),
            Arc::clone(&ing.base_ids),
            ing.folded,
            ing.buffer.next_row(),
        )
    };
    let built = build_fold_snapshot(&base, &base_ids, capture.as_ref(), &req.spec, req.target)
        .unwrap_or_else(|e| {
            // The merge failed before anything published: unfreeze (the
            // captured state lives only in the buffer) and fall back to a pure
            // layout rewrite of the current base.
            let msg = format!(
                "fold build for layout {} failed: {e} (deltas kept in memory)",
                req.target
            );
            eprintln!("oreo-reorg: {msg}");
            {
                let mut ing = ten.ingest.lock().expect("ingest poisoned");
                ing.buffer.abort_fold();
                ing.errors.push(msg);
            }
            for m in metric_views(shared, ten) {
                m.tiered_errors.inc();
            }
            capture = None;
            build_fold_snapshot(&base, &base_ids, None, &req.spec, req.target)
                .expect("base-only build is infallible")
        });
    let FoldBuild {
        mut snapshot,
        merged,
    } = built;
    let build = build_start.elapsed();
    if shared.sink.enabled() {
        shared.sink.emit(EventKind::ReorgPhase {
            target: req.target,
            phase: ReorgPhaseKind::Build,
            micros: as_micros_u64(build),
            bytes: 0,
        });
    }
    let rows = snapshot.total_rows();
    let partitions = snapshot.num_partitions();
    // The snapshot's metadata *is* the target's exact model; hand it to
    // the core so the next settle() does not rebuild it under the serving
    // mutex.
    let exact = snapshot.model();
    // Disk tier: persist the aside rewrite (write + fsync + atomic rename)
    // *before* the pointer swap — the rename is the durability point. A
    // disk failure (ENOSPC, unwritable root, …) must not kill the serving
    // plane: degrade to a memory-only publish, record the error, and keep
    // going — the window then carries bytes_written = 0 and is excluded
    // from the empirical α.
    let (folded_mark, next_row_mark) = match capture.as_ref() {
        Some(cap) => (cap.watermark, cap.next_row),
        None => (prev_folded, prev_next),
    };
    let mut persist_ok = true;
    let (write, bytes_written, generation) = match &ten.tiered {
        Some(store) => match store.publish_with_fold(&mut snapshot, folded_mark, next_row_mark) {
            Ok(receipt) => (receipt.wall, receipt.bytes_written, receipt.generation),
            Err(e) => {
                persist_ok = false;
                let msg = format!("tiered publish of layout {} failed: {e}", req.target);
                eprintln!("oreo-reorg: {msg} (serving from memory)");
                tiered_errors.push(msg);
                for m in metric_views(shared, ten) {
                    m.tiered_errors.inc();
                }
                if shared.sink.enabled() {
                    shared
                        .sink
                        .emit(EventKind::TieredDegraded { target: req.target });
                }
                (Duration::ZERO, 0, 0)
            }
        },
        None => (Duration::ZERO, 0, 0),
    };
    // Read after the publish, which sizes the partitions as their encoded
    // blobs: the unit of `alpha.table_bytes`, the full scan α̂ extrapolates to.
    let snapshot_bytes = snapshot.total_bytes();
    if bytes_written > 0 {
        for m in metric_views(shared, ten) {
            m.persisted.inc();
            m.persist_ns.add(as_nanos_u64(build + write));
            m.reorg_bytes_written.add(bytes_written);
        }
        if shared.sink.enabled() {
            shared.sink.emit(EventKind::ReorgPhase {
                target: req.target,
                phase: ReorgPhaseKind::Write,
                micros: as_micros_u64(write),
                bytes: bytes_written,
            });
        }
    }
    let publish_start = Instant::now();
    let mut folded_rows = 0u64;
    {
        let mut ing = ten.ingest.lock().expect("ingest poisoned");
        if let (Some(cap), Some((table, ids))) = (capture.as_ref(), merged.as_ref()) {
            ing.buffer.complete_fold();
            ing.base = Arc::clone(table);
            ing.base_ids = Arc::clone(ids);
            ing.folded = cap.watermark;
            folded_rows = cap.delta_rows;
            // The folded base is durable (or this is memory serving): WAL
            // records at or below the watermark are dead weight — GC them.
            // After a failed persist the log must keep them; replay is
            // idempotent, so the truncation just waits for the next
            // successful fold.
            if persist_ok {
                let mut trunc_err = None;
                if let Some(wal) = ing.wal.as_mut() {
                    if let Err(e) = wal.truncate_through(cap.watermark) {
                        trunc_err = Some(format!(
                            "wal truncation through {} failed: {e} \
                             (log kept; replay is idempotent)",
                            cap.watermark
                        ));
                    }
                }
                if let Some(msg) = trunc_err {
                    eprintln!("oreo-reorg: {msg}");
                    ing.errors.push(msg);
                    for m in metric_views(shared, ten) {
                        m.tiered_errors.inc();
                    }
                }
                if let Some(wal) = &ing.wal {
                    set_fleet_gauge(shared, ten, |m| &m.wal_bytes, wal.bytes() as f64);
                }
            }
        }
        // Re-attach the live overlay (batches ingested during the build)
        // under the same lock every overlay publish takes.
        snapshot.set_delta(ing.buffer.overlay());
        let delta_rows = ing.buffer.delta_rows() as f64;
        set_fleet_gauge(shared, ten, |m| &m.delta_rows, delta_rows);
        ten.cell.publish(snapshot);
    }
    if folded_rows > 0 {
        for m in metric_views(shared, ten) {
            m.folds.inc();
            m.folded_rows.add(folded_rows);
        }
    }
    if shared.sink.enabled() {
        shared.sink.emit(EventKind::ReorgPhase {
            target: req.target,
            phase: ReorgPhaseKind::Publish,
            micros: as_micros_u64(publish_start.elapsed()),
            bytes: 0,
        });
    }
    // The superseded generation's pages will never be requested again
    // under a new snapshot (keys carry the tenant's table id and the
    // generation number); drop exactly this tenant's retired pages so they
    // stop occupying shared pool capacity.
    if let (Some(pool), true) = (&shared.pool, generation > 1) {
        let invalidate_start = Instant::now();
        pool.invalidate_generation(tenant_index as u32, generation - 1);
        if shared.sink.enabled() {
            shared.sink.emit(EventKind::ReorgPhase {
                target: req.target,
                phase: ReorgPhaseKind::Invalidate,
                micros: as_micros_u64(invalidate_start.elapsed()),
                bytes: 0,
            });
        }
    }
    for m in metric_views(shared, ten) {
        m.snapshots_published.inc();
    }
    set_fleet_gauge(shared, ten, |m| &m.table_bytes, snapshot_bytes as f64);
    let queries_during = {
        let mut core = shared.lock_core(ten);
        let oreo = &mut core.oreo;
        if let Some((table, _)) = merged {
            // Deltas folded in: the tenant's exact models must rebuild
            // against the merged base, and the merge work beyond the
            // α-billed base rewrite is charged as compaction.
            oreo.set_table(table);
            let live = oreo.table().num_rows() as u64;
            if folded_rows > 0 && live > 0 {
                let alpha = oreo.config().alpha;
                oreo.charge_compaction(alpha * folded_rows as f64 / live as f64, folded_rows);
            }
        }
        oreo.complete_reorg_with(req.target, Some(exact));
        core.observed
            .saturating_sub(req.tenant_observed_at_decision)
    };
    for m in metric_views(shared, ten) {
        m.reorg_windows.inc();
        m.reorg_build_ns.add(as_nanos_u64(build));
        m.reorg_delta_queries.add(queries_during);
    }
    shared.wake_drainers();
    ReorgWindow {
        tenant: ten.name.clone(),
        target: req.target,
        decided_seq: req.decided_seq,
        wall: req.decided_at.elapsed(),
        build,
        write,
        bytes_written,
        generation,
        queries_during,
        rows,
        partitions,
        folded_rows,
    }
}

/// The fleet's ledger: every tenant's, merged (the bill the user pays).
fn total_ledger(ledgers: impl Iterator<Item = CostLedger>) -> CostLedger {
    ledgers.fold(CostLedger::new(), |mut total, ledger| {
        total.merge(&ledger);
        total
    })
}
