//! The serving layer's statistics. `LiveMetrics` holds pre-resolved
//! handles into the engine's `oreo_obs::Registry`, the only accumulator:
//! the hot paths add to its counters and histograms as they run, the
//! exporter snapshots it live, and [`EngineStats`] / [`TenantStats`] are
//! what [`Engine::shutdown`](crate::Engine::shutdown) reads back from it.
//! The measured α̂ is computed from those counters in one place
//! (`alpha_readings`), for the live `alpha.*` gauges and the report alike.
//!
//! Workers record each query's latency, in microseconds, into a shared
//! log-bucketed [`oreo_obs::Histogram`] as it completes, so percentiles are
//! available **live** (the metrics exporter reads them mid-run) and the
//! engine's memory for latency tracking is a fixed ~15 KiB per histogram —
//! *not* one `u64` per query. [`oreo_obs::HistogramStats`] is the summary
//! the engine reports: count, sum, mean and max are exact, percentiles are
//! within one log-bucket of the exact nearest-rank answer
//! (`oreo_obs::RELATIVE_ERROR`, 1/32 ≈ 3.1%; values below 32 µs are exact).

use crate::engine::ServeMode;
use crate::reorg::ReorgWindow;
use oreo_core::{CostLedger, ManagerStats};
use oreo_obs::{Counter, Event, Gauge, Histogram, HistogramStats, Registry};
use oreo_storage::{LayoutId, PoolStats, SnapshotScan};
use std::sync::Arc;
use std::time::Duration;

/// Duration → whole microseconds, saturating.
pub(crate) fn as_micros_u64(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Duration → whole nanoseconds, saturating (counters are integers).
pub(crate) fn as_nanos_u64(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Pre-resolved registry handles for everything the serving hot path
/// publishes — resolved once at startup so workers touch only atomics.
/// Scan times are accumulated in nanoseconds (counters are integers; a
/// sub-µs scan would otherwise vanish).
pub(crate) struct LiveMetrics {
    pub(crate) queries_submitted: Arc<Counter>,
    pub(crate) queries_completed: Arc<Counter>,
    pub(crate) rows_scanned: Arc<Counter>,
    pub(crate) rows_matched: Arc<Counter>,
    pub(crate) bytes_scanned: Arc<Counter>,
    pub(crate) scan_ns: Arc<Counter>,
    pub(crate) cold_scans: Arc<Counter>,
    pub(crate) cold_scan_bytes: Arc<Counter>,
    pub(crate) cold_scan_ns: Arc<Counter>,
    pub(crate) warm_scan_bytes: Arc<Counter>,
    pub(crate) warm_scan_ns: Arc<Counter>,
    pub(crate) io_cold_bytes: Arc<Counter>,
    pub(crate) io_cached_bytes: Arc<Counter>,
    pub(crate) scan_io_errors: Arc<Counter>,
    pub(crate) chunks_evaluated: Arc<Counter>,
    pub(crate) rows_short_circuited: Arc<Counter>,
    pub(crate) partitions_read: Arc<Counter>,
    pub(crate) partitions_covered: Arc<Counter>,
    pub(crate) columns_decoded: Arc<Counter>,
    pub(crate) frames_decided: Arc<Counter>,
    pub(crate) columns_read: Arc<Counter>,
    pub(crate) latency_us: Arc<Histogram>,
    pub(crate) scan_us: Arc<Histogram>,
    /// Time each query spent on the work queue: enqueue → worker pickup.
    pub(crate) queue_wait_us: Arc<Histogram>,
    pub(crate) switches: Arc<Counter>,
    pub(crate) snapshots_published: Arc<Counter>,
    pub(crate) reorg_windows: Arc<Counter>,
    pub(crate) reorg_build_ns: Arc<Counter>,
    pub(crate) reorg_bytes_written: Arc<Counter>,
    pub(crate) reorg_delta_queries: Arc<Counter>,
    pub(crate) persisted: Arc<Counter>,
    pub(crate) persist_ns: Arc<Counter>,
    pub(crate) tiered_errors: Arc<Counter>,
    pub(crate) ingest_batches: Arc<Counter>,
    pub(crate) ingest_rows: Arc<Counter>,
    pub(crate) ingest_deletes: Arc<Counter>,
    pub(crate) ingest_rows_written: Arc<Counter>,
    pub(crate) delta_bytes_scanned: Arc<Counter>,
    pub(crate) folds: Arc<Counter>,
    pub(crate) folded_rows: Arc<Counter>,
    pub(crate) delta_rows: Arc<Gauge>,
    pub(crate) wal_bytes: Arc<Gauge>,
    pub(crate) ledger_query_cost: Arc<Gauge>,
    pub(crate) ledger_reorg_cost: Arc<Gauge>,
    pub(crate) ledger_total: Arc<Gauge>,
    pub(crate) num_states: Arc<Gauge>,
    pub(crate) max_states_seen: Arc<Gauge>,
    pub(crate) qps: Arc<Gauge>,
    pub(crate) table_bytes: Arc<Gauge>,
    pub(crate) alpha_hat: Arc<Gauge>,
    pub(crate) alpha_cold: Arc<Gauge>,
    pub(crate) alpha_warm: Arc<Gauge>,
    /// Time spent waiting for / holding a tenant's core mutex, per
    /// acquisition for bookkeeping (a batch's queries, an admission, a
    /// landing, a compaction charge, a ledger read); polls and waits are
    /// not timed. A hold is wall time, so its max and far tail include the
    /// holder being descheduled inside the section: on a 2-vCPU host,
    /// holds of 1.1–4.4 ms around 5–10 µs of bookkeeping.
    pub(crate) lock_wait_us: Arc<Histogram>,
    pub(crate) lock_hold_us: Arc<Histogram>,
    /// Generation boundaries whose candidates were built and ε-tested /
    /// dropped unbuilt for a newer boundary.
    pub(crate) candidates_built: Arc<Counter>,
    pub(crate) candidates_superseded: Arc<Counter>,
    /// Queries observed between a boundary's capture and its admission.
    pub(crate) candidate_lag_queries: Arc<Histogram>,
    /// Wall time of one boundary's construct step ([`oreo_core::CandidateTask::build`]).
    pub(crate) construct_us: Arc<Histogram>,
    /// Time a worker spent waiting for an admission with queries it held
    /// back at the run-ahead allowance (recorded only when it waited).
    pub(crate) admission_wait_us: Arc<Histogram>,
    /// Queries served past the run-ahead allowance because their boundary
    /// was older than [`ADMISSION_GUARD`](crate::engine::ADMISSION_GUARD): 0 unless a generator hangs.
    pub(crate) admission_overruns: Arc<Counter>,
}

impl LiveMetrics {
    /// The aggregate (unprefixed) series — always registered, so the
    /// fleet-wide schema is identical whether the engine serves 1 tenant
    /// or N.
    pub(crate) fn new(r: &Registry) -> Self {
        Self::with_prefix(r, "")
    }

    /// Resolve the same series under `prefix` (e.g. `tenant.0.`) — the
    /// per-tenant namespace of a multi-tenant engine. Workers publish into
    /// both the aggregate and the tenant's prefixed handles.
    pub(crate) fn with_prefix(r: &Registry, prefix: &str) -> Self {
        let c = |name: &str| r.counter(&format!("{prefix}{name}"));
        let g = |name: &str| r.gauge(&format!("{prefix}{name}"));
        let h = |name: &str| r.histogram(&format!("{prefix}{name}"));
        Self {
            queries_submitted: c("engine.queries_submitted"),
            queries_completed: c("engine.queries_completed"),
            rows_scanned: c("engine.rows_scanned"),
            rows_matched: c("engine.rows_matched"),
            bytes_scanned: c("engine.bytes_scanned"),
            scan_ns: c("engine.scan_ns"),
            cold_scans: c("engine.cold_scans"),
            cold_scan_bytes: c("engine.cold_scan_bytes"),
            cold_scan_ns: c("engine.cold_scan_ns"),
            warm_scan_bytes: c("engine.warm_scan_bytes"),
            warm_scan_ns: c("engine.warm_scan_ns"),
            io_cold_bytes: c("engine.io_cold_bytes"),
            io_cached_bytes: c("engine.io_cached_bytes"),
            scan_io_errors: c("engine.scan_io_errors"),
            chunks_evaluated: c("engine.chunks_evaluated"),
            rows_short_circuited: c("engine.rows_short_circuited"),
            partitions_read: c("engine.scan.partitions_read"),
            partitions_covered: c("engine.scan.partitions_covered"),
            columns_decoded: c("engine.scan.columns_decoded"),
            frames_decided: c("engine.scan.frames_decided"),
            columns_read: c("engine.scan.columns_read"),
            latency_us: h("engine.latency_us"),
            scan_us: h("engine.scan_us"),
            queue_wait_us: h("engine.queue_wait_us"),
            switches: c("reorg.switches"),
            snapshots_published: c("reorg.snapshots_published"),
            reorg_windows: c("reorg.windows"),
            reorg_build_ns: c("reorg.build_ns"),
            reorg_bytes_written: c("reorg.bytes_written"),
            reorg_delta_queries: c("reorg.delta_queries_total"),
            persisted: c("reorg.persisted"),
            persist_ns: c("reorg.persist_ns"),
            tiered_errors: c("reorg.tiered_errors"),
            ingest_batches: c("ingest.batches"),
            ingest_rows: c("ingest.rows_appended"),
            ingest_deletes: c("ingest.rows_deleted"),
            ingest_rows_written: c("ingest.rows_written"),
            delta_bytes_scanned: c("engine.delta_bytes_scanned"),
            folds: c("reorg.folds"),
            folded_rows: c("reorg.folded_rows"),
            delta_rows: g("ingest.delta_rows"),
            wal_bytes: g("ingest.wal_bytes"),
            ledger_query_cost: g("ledger.query_cost"),
            ledger_reorg_cost: g("ledger.reorg_cost"),
            ledger_total: g("ledger.total"),
            num_states: g("core.num_states"),
            max_states_seen: g("core.max_states_seen"),
            qps: g("engine.qps"),
            table_bytes: g("alpha.table_bytes"),
            alpha_hat: g("alpha.hat"),
            alpha_cold: g("alpha.cold"),
            alpha_warm: g("alpha.warm"),
            lock_wait_us: h("core.lock_wait_us"),
            lock_hold_us: h("core.lock_hold_us"),
            candidates_built: c("core.candidates_built"),
            candidates_superseded: c("core.candidates_superseded"),
            candidate_lag_queries: h("core.candidate_lag_queries"),
            construct_us: h("core.construct_us"),
            admission_wait_us: h("core.admission_wait_us"),
            admission_overruns: c("core.admission_overruns"),
        }
    }

    /// Recompute the gauges derived from this view's own counters: qps
    /// over `elapsed` seconds and α̂ ([`alpha_readings`], `NaN` when a side
    /// has no samples yet or the run degraded).
    pub(crate) fn update_derived(&self, elapsed: f64) {
        if elapsed > 0.0 {
            self.qps.set(self.queries_completed.get() as f64 / elapsed);
        }
        let [hat, cold, warm] = alpha_readings(self);
        self.alpha_hat.set(hat.unwrap_or(f64::NAN));
        self.alpha_cold.set(cold.unwrap_or(f64::NAN));
        self.alpha_warm.set(warm.unwrap_or(f64::NAN));
    }

    /// Publish one scan's accounting and its wall time — the only place a
    /// scan's quantities are summed; [`Engine::shutdown`](crate::Engine::shutdown) reads them back.
    /// `predicate_columns` is how many columns the scanned predicate
    /// constrains: with `partitions_read` it bounds what the scan can have
    /// decoded.
    pub(crate) fn record_scan(
        &self,
        scan: &SnapshotScan,
        predicate_columns: usize,
        wall: Duration,
    ) {
        let ns = as_nanos_u64(wall);
        self.partitions_read.add(scan.partitions_read as u64);
        self.partitions_covered.add(scan.partitions_covered as u64);
        self.columns_decoded.add(scan.columns_decoded);
        self.frames_decided.add(scan.frames_decided);
        self.columns_read
            .add((scan.partitions_read * predicate_columns) as u64);
        self.rows_scanned.add(scan.rows_read);
        self.rows_matched.add(scan.matches.len() as u64);
        self.bytes_scanned.add(scan.bytes_scanned);
        self.scan_ns.add(ns);
        self.io_cold_bytes.add(scan.io_cold_bytes);
        self.io_cached_bytes.add(scan.io_cached_bytes);
        self.chunks_evaluated.add(scan.chunks_evaluated);
        self.rows_short_circuited.add(scan.rows_short_circuited);
        self.delta_bytes_scanned.add(scan.delta_bytes_scanned);
        self.scan_us.record(as_micros_u64(wall));
        // Temperature classification: a scan is "cold" when the majority
        // of its page bytes came from disk. Memory scans (no pooled I/O at
        // all) are warm by definition.
        if scan.io_cold_bytes > 0 && scan.io_cold_bytes >= scan.io_cached_bytes {
            self.cold_scans.inc();
            self.cold_scan_bytes.add(scan.bytes_scanned);
            self.cold_scan_ns.add(ns);
        } else {
            self.warm_scan_bytes.add(scan.bytes_scanned);
            self.warm_scan_ns.add(ns);
        }
    }
}

/// The shared buffer pool's readings. There is one pool per engine, so
/// these exist only as aggregate series: no tenant has a value of its own.
pub(crate) struct PoolGauges {
    hit_rate: Arc<Gauge>,
    hits: Arc<Gauge>,
    misses: Arc<Gauge>,
    evictions: Arc<Gauge>,
    pages_resident: Arc<Gauge>,
}

impl PoolGauges {
    pub(crate) fn new(r: &Registry) -> Self {
        Self {
            hit_rate: r.gauge("pool.hit_rate"),
            hits: r.gauge("pool.hits"),
            misses: r.gauge("pool.misses"),
            evictions: r.gauge("pool.evictions"),
            pages_resident: r.gauge("pool.pages_resident"),
        }
    }

    pub(crate) fn set(&self, stats: &PoolStats) {
        self.hit_rate.set(stats.hit_rate());
        self.hits.set(stats.hits as f64);
        self.misses.set(stats.misses as f64);
        self.evictions.set(stats.evictions as f64);
        self.pages_resident.set(stats.pages_resident as f64);
    }
}

/// One tenant's slice of a run, returned inside [`EngineStats::tenants`].
/// The ledger is the tenant's own OREO instance's — byte-identical to an
/// independent single-tenant run over the same substream.
#[derive(Clone, Debug)]
pub struct TenantStats {
    /// Tenant name (the routing key).
    pub name: String,
    /// Queries fully served for this tenant.
    pub queries: u64,
    /// Per-query service latency summary for this tenant, in µs. In a
    /// single-tenant run this is the aggregate histogram.
    pub latency: HistogramStats,
    /// The tenant's own D-UMTS cost ledger.
    pub ledger: CostLedger,
    /// Switch decisions this tenant's instance made.
    pub switches: u64,
    /// The tenant's layout-manager counters: candidates generated /
    /// admitted / rejected, boundaries superseded.
    /// `generated == admitted + rejected` once the engine has shut down.
    pub manager: ManagerStats,
    /// Snapshots the reorganizer published for this tenant.
    pub snapshots_published: u64,
    /// Page bytes this tenant's pooled scans read from disk.
    pub io_cold_bytes: u64,
    /// Page bytes this tenant's pooled scans served from the shared pool.
    pub io_cached_bytes: u64,
    /// Partitions this tenant's scans read (after pruning).
    pub partitions_read: u64,
    /// Partitions among them answered from their metadata alone (see
    /// [`EngineStats::partitions_covered`]).
    pub partitions_covered: u64,
    /// Column payloads this tenant's pooled scans decoded, or read as
    /// packed frames.
    pub columns_decoded: u64,
    /// Packed integer frames whose header answered a kernel for this
    /// tenant's pooled scans (see [`EngineStats::frames_decided`]).
    pub frames_decided: u64,
    /// Physical layout when the engine stopped.
    pub final_physical: LayoutId,
    /// Logical (D-UMTS) layout when the engine stopped.
    pub final_logical: LayoutId,
    /// Live state-space size at shutdown.
    pub num_states: usize,
    /// |S_max| of the competitive bound.
    pub max_states_seen: usize,
}

impl TenantStats {
    /// The tenant's share of the shared pool's hit rate: cached page bytes
    /// over all page bytes its scans requested (0.0 without pooled I/O).
    pub fn pool_hit_rate(&self) -> f64 {
        let total = self.io_cold_bytes + self.io_cached_bytes;
        if total == 0 {
            0.0
        } else {
            self.io_cached_bytes as f64 / total as f64
        }
    }
}

/// Aggregate statistics returned by [`Engine::shutdown`](crate::Engine::shutdown).
#[derive(Clone, Debug)]
pub struct EngineStats {
    /// Worker threads the engine ran with.
    pub workers: usize,
    /// Queries fully served.
    pub queries: u64,
    /// Wall-clock from engine start to shutdown.
    pub elapsed: Duration,
    /// Queries per second over `elapsed`.
    pub qps: f64,
    /// Per-query service latency summary (worker pickup → completion), in
    /// µs.
    pub latency: HistogramStats,
    /// The bookkeeping core's cost ledger (identical semantics to the
    /// sequential simulator).
    pub ledger: CostLedger,
    /// Switch decisions made.
    pub switches: u64,
    /// Snapshots the background reorganizer published.
    pub snapshots_published: u64,
    /// Measured reorganization windows, in decision order.
    pub windows: Vec<ReorgWindow>,
    /// Disk-tier publish failures the reorganizer survived (the affected
    /// switches degraded to memory-only publishes and their windows carry
    /// `bytes_written == 0`). Always empty in [`ServeMode::Memory`].
    pub tiered_errors: Vec<String>,
    /// Per-tenant breakdowns, in tenant-index order (exactly one entry
    /// for a single-tenant engine).
    pub tenants: Vec<TenantStats>,
    /// Rows read across all scans (after pruning).
    pub rows_scanned: u64,
    /// Rows matched across all scans.
    pub rows_matched: u64,
    /// Bytes read across all scans: in-memory partition bytes in
    /// [`ServeMode::Memory`], page bytes actually fetched through the
    /// buffer pool in [`ServeMode::Tiered`].
    pub bytes_scanned: u64,
    /// Wall-clock seconds spent inside snapshot scans, summed across
    /// workers.
    pub scan_seconds: f64,
    /// Page bytes read from disk across all pooled scans.
    pub io_cold_bytes: u64,
    /// Page bytes served from the buffer pool across all pooled scans.
    pub io_cached_bytes: u64,
    /// Buffer-pool counters at shutdown (`None` in [`ServeMode::Memory`]).
    pub pool: Option<PoolStats>,
    /// Pooled scans that failed and fell back to the in-memory path.
    pub scan_io_errors: u64,
    /// 1024-row chunks the vectorized scan kernels evaluated across all
    /// scans.
    pub chunks_evaluated: u64,
    /// Rows for which the adaptive AND order skipped at least one later
    /// kernel (already filtered out by a cheaper atom).
    pub rows_short_circuited: u64,
    /// Partitions read across all scans (after pruning) — the count
    /// behind the paper's fraction, and the base of
    /// [`Self::partitions_covered`].
    pub partitions_read: u64,
    /// Partitions among [`Self::partitions_read`] whose min/max or
    /// distinct-set metadata proved every row matches, so the scan
    /// returned their row ids without decoding or evaluating a column.
    /// They are read and billed like any other: this is the finer number
    /// *beside* the fraction of data a layout cannot skip, the share of
    /// that fraction it serves without looking.
    pub partitions_covered: u64,
    /// Column payloads pooled scans decoded, or read as packed frames —
    /// at most one per partition read and predicate column, fewer where
    /// metadata decided a column (0 in [`ServeMode::Memory`]).
    pub columns_decoded: u64,
    /// Kernel evaluations of a packed integer frame that the frame's
    /// header answered without unpacking a value: the frame lies wholly
    /// outside the predicate's range or wholly inside it (0 in
    /// [`ServeMode::Memory`]).
    pub frames_decided: u64,
    /// Bytes scanned in delta runs across all scans (subset of
    /// [`Self::bytes_scanned`]; 0 when nothing was ingested).
    pub delta_bytes_scanned: u64,
    /// Ingest batches accepted by [`Engine::ingest`](crate::Engine::ingest).
    pub ingest_batches: u64,
    /// Rows appended (including the re-append half of updates).
    pub rows_appended: u64,
    /// Rows tombstoned (deletes + the tombstone half of updates).
    pub rows_deleted: u64,
    /// Rows written building and merging delta runs — the
    /// write-amplification numerator over [`Self::rows_appended`].
    pub ingest_rows_written: u64,
    /// Delta rows still unfolded at shutdown.
    pub delta_rows: u64,
    /// Tombstones still unfolded at shutdown.
    pub tombstones: u64,
    /// WAL size at shutdown (0 in memory serving or after degradation).
    pub wal_bytes: u64,
    /// Bytes a full (unpruned) scan of the final snapshots reads, summed
    /// over tenants — the `alpha.table_bytes` gauge α̂'s full scan is
    /// extrapolated to.
    pub table_bytes: u64,
    /// The serve mode the engine ran in.
    pub mode: ServeMode,
    /// `[α̂, α̂ cold, α̂ warm]` at shutdown ([`alpha_readings`]).
    pub(crate) alpha: [Option<f64>; 3],
    /// The drained event journal, seq-ordered (empty unless
    /// [`ObsConfig::journal_capacity`](crate::ObsConfig::journal_capacity) was set). For a single-tenant run,
    /// on any number of workers, `CostLedger::replay(&events)` reproduces
    /// [`Self::ledger`] bit-for-bit.
    pub events: Vec<Event>,
    /// Events the journal overwrote because a ring filled. Replay parity
    /// requires 0.
    pub events_dropped: u64,
}

impl EngineStats {
    /// Mean measured Δ in queries (`None` without completed windows).
    pub fn mean_delta_queries(&self) -> Option<f64> {
        if self.windows.is_empty() {
            return None;
        }
        Some(
            self.windows
                .iter()
                .map(|w| w.queries_during as f64)
                .sum::<f64>()
                / self.windows.len() as f64,
        )
    }

    /// Mean measured Δ in seconds (`None` without completed windows).
    pub fn mean_delta_seconds(&self) -> Option<f64> {
        if self.windows.is_empty() {
            return None;
        }
        Some(
            self.windows
                .iter()
                .map(|w| w.wall.as_secs_f64())
                .sum::<f64>()
                / self.windows.len() as f64,
        )
    }

    /// Total bytes written by aside rewrites (0 in memory-only serving).
    pub fn reorg_bytes_written(&self) -> u64 {
        self.windows.iter().map(|w| w.bytes_written).sum()
    }

    /// Folds completed (reorganizations that merged deltas into the base).
    pub fn folds(&self) -> u64 {
        self.windows.iter().filter(|w| w.folded_rows > 0).count() as u64
    }

    /// Delta rows folded into the base across all reorganizations.
    pub fn folded_rows(&self) -> u64 {
        self.windows.iter().map(|w| w.folded_rows).sum()
    }

    /// Measured write amplification of the ingest path: delta-run rows
    /// written per row appended. `None` before any append. Folds are
    /// *excluded* — the fold rewrite is the layout switch the α charge
    /// already bills; this ratio isolates the merge policy the
    /// `dynamization` bench bounds.
    pub fn write_amplification(&self) -> Option<f64> {
        if self.rows_appended == 0 {
            return None;
        }
        Some(self.ingest_rows_written as f64 / self.rows_appended as f64)
    }

    /// The empirical α of this serving run: mean aside-rewrite wall-clock
    /// over the extrapolated full-scan wall-clock, both measured on the
    /// same query stream. `None` until the run has both persisted rewrites
    /// and non-pruned scans — in particular, always `None` in
    /// [`ServeMode::Memory`] (no physical rewrite to bill), and `None`
    /// when any tiered publish or pooled scan failed mid-run: the degraded
    /// scans serve with in-memory byte accounting, so the scan-throughput
    /// calibration would mix units and the ratio would be wrong.
    pub fn empirical_alpha(&self) -> Option<f64> {
        self.alpha[0]
    }

    /// α̂ from the cold (disk) scan throughput only; `None` without cold
    /// scans or under the degradations that void [`Self::empirical_alpha`].
    pub fn alpha_cold(&self) -> Option<f64> {
        self.alpha[1]
    }

    /// α̂ from the warm (pool-hit / memory) scan throughput only.
    pub fn alpha_warm(&self) -> Option<f64> {
        self.alpha[2]
    }

    /// Buffer-pool hit rate over the run (0.0 without a pool).
    pub fn pool_hit_rate(&self) -> f64 {
        self.pool.map_or(0.0, |p| p.hit_rate())
    }
}

/// `[α̂, α̂ cold, α̂ warm]` from `m`'s counters — the paper's Table I ratio,
/// the wall-clock of one reorganization over that of one full-table scan,
/// observed on the served stream. Both the live `alpha.*` gauges and
/// [`EngineStats`] read it.
///
/// * The numerator is the mean persisted rewrite (`reorg.persist_ns` over
///   `reorg.persisted`: build + write + fsync + commit). Memory-only
///   rewrites are not counted — Table I's α is the cost of the physical
///   rewrite, and a build-only ratio would under-report it by the whole
///   disk persist.
/// * The denominator is a full scan of `alpha.table_bytes` at a measured
///   scan throughput: pruned queries calibrate the throughput, the full
///   scan is extrapolated. A scan is cold when most of its page bytes came
///   from disk, warm otherwise. α̂ cold and α̂ warm use their own
///   throughput; α̂ uses the cold one when there are cold samples, since
///   Table I's full scan is a disk scan, and otherwise the combined one.
///
/// A reading is `None` until its two sides have samples (scans with
/// nonzero bytes and time, one persisted rewrite). All three are `None`
/// once a pooled scan or a tiered publish degraded: the fallback scans
/// serve with in-memory byte accounting, so the throughput would mix
/// units.
pub(crate) fn alpha_readings(m: &LiveMetrics) -> [Option<f64>; 3] {
    let table_bytes = m.table_bytes.get();
    let persisted = m.persisted.get();
    let degraded = m.scan_io_errors.get() > 0 || m.tiered_errors.get() > 0;
    // An unset table size reads NaN: no full scan to extrapolate.
    let measurable = persisted > 0 && table_bytes > 0.0;
    if degraded || !measurable {
        return [None; 3];
    }
    let reorg_seconds = m.persist_ns.get() as f64 / 1e9 / persisted as f64;
    // Rewrite time over the full scan that `bytes` read in `ns` implies.
    let alpha = |bytes: u64, ns: u64| {
        (bytes > 0 && ns > 0).then(|| {
            let bytes_per_second = bytes as f64 / (ns as f64 / 1e9);
            reorg_seconds / (table_bytes / bytes_per_second)
        })
    };
    let (cold_bytes, cold_ns) = (m.cold_scan_bytes.get(), m.cold_scan_ns.get());
    let (warm_bytes, warm_ns) = (m.warm_scan_bytes.get(), m.warm_scan_ns.get());
    let cold = alpha(cold_bytes, cold_ns);
    let combined = || alpha(cold_bytes + warm_bytes, cold_ns + warm_ns);
    [cold.or_else(combined), cold, alpha(warm_bytes, warm_ns)]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fresh handles on a private registry, `alpha.table_bytes` set.
    fn metrics(table_bytes: f64) -> LiveMetrics {
        let m = LiveMetrics::new(&Registry::new());
        m.table_bytes.set(table_bytes);
        m
    }

    fn warm(m: &LiveMetrics, bytes: u64, seconds: f64) {
        m.warm_scan_bytes.add(bytes);
        m.warm_scan_ns.add((seconds * 1e9) as u64);
    }

    fn cold(m: &LiveMetrics, bytes: u64, seconds: f64) {
        m.cold_scan_bytes.add(bytes);
        m.cold_scan_ns.add((seconds * 1e9) as u64);
    }

    fn persisted(m: &LiveMetrics, seconds: f64) {
        m.persisted.inc();
        m.persist_ns.add((seconds * 1e9) as u64);
    }

    fn close(reading: Option<f64>, want: f64) -> bool {
        reading.is_some_and(|v| (v - want).abs() <= 1e-9 * want)
    }

    #[test]
    fn alpha_needs_both_sides() {
        let m = metrics(2_000_000.0);
        assert_eq!(alpha_readings(&m), [None; 3]);
        warm(&m, 1_000_000, 0.01); // 100 MB/s → full scan 0.02 s
        assert_eq!(alpha_readings(&m), [None; 3], "no rewrite persisted yet");
        persisted(&m, 1.0);
        persisted(&m, 3.0); // mean 2.0 s
        assert!(close(alpha_readings(&m)[0], 100.0));
        // without a table size there is no full scan to extrapolate
        m.table_bytes.set(f64::NAN);
        assert_eq!(alpha_readings(&m), [None; 3]);
    }

    #[test]
    fn cold_scans_dominate_alpha_when_present() {
        let m = metrics(1_000_000.0);
        // warm: 1 GB/s; cold: 100 MB/s — a 10x temperature gap
        warm(&m, 1_000_000, 0.001);
        cold(&m, 1_000_000, 0.01);
        persisted(&m, 1.0);
        let [hat, cold, warm] = alpha_readings(&m);
        // α̂ uses the cold throughput: full scan = 0.01 s → α = 100
        assert!(close(hat, 100.0));
        assert!(close(cold, 100.0));
        // the warm reading is 10x larger (scan looks 10x cheaper)
        assert!(close(warm, 1000.0));
    }

    #[test]
    fn warm_only_runs_fall_back_to_combined_throughput() {
        let m = metrics(1_000_000.0);
        warm(&m, 500_000, 0.005); // 100 MB/s
        persisted(&m, 0.8);
        let [hat, cold, warm] = alpha_readings(&m);
        assert!(close(hat, 80.0));
        assert_eq!(cold, None, "no cold samples");
        assert!(close(warm, 80.0));
    }

    #[test]
    fn alpha_ignores_zero_byte_scans() {
        let m = metrics(1_000.0);
        warm(&m, 0, 0.5); // fully pruned queries calibrate nothing
        persisted(&m, 1.0);
        assert_eq!(alpha_readings(&m), [None; 3]);
    }

    #[test]
    fn bulk_rewrites_read_like_one_by_one() {
        let one_by_one = metrics(1_000_000.0);
        warm(&one_by_one, 500_000, 0.005);
        persisted(&one_by_one, 0.5);
        persisted(&one_by_one, 1.5);
        let bulk = metrics(1_000_000.0);
        warm(&bulk, 500_000, 0.005);
        bulk.persisted.add(2);
        bulk.persist_ns.add(2_000_000_000);
        assert_eq!(alpha_readings(&one_by_one), alpha_readings(&bulk));
        // the numerator is the mean rewrite: 1.0 s over a 0.01 s full scan
        assert!(close(alpha_readings(&bulk)[0], 100.0));
    }
}
