//! **Serving throughput** — the concurrent engine under load: scan
//! queries/sec and p50/p99 latency at 1/2/4/8 worker threads, with and
//! without concurrent background reorganization, on the TPC-H workload.
//!
//! This is the experiment the paper *cannot* run in its simulator: queries
//! keep arriving while a reorganization is in flight, and the delay Δ of
//! §VI-D5 is a **measured** window (wall-clock and queries served during
//! the switch), not a configured constant.
//!
//! With `--tiered` the engine serves through the disk tier
//! (`TieredStore`): every publish persists a `gen-N/` generation directory
//! (write + fsync + atomic rename) before the snapshot-pointer swap, and
//! the same run then reports an **empirical α** — the measured
//! aside-rewrite cost over the extrapolated full-scan cost — next to the
//! measured Δ. One `--tiered --json` run emits both numbers from one query
//! stream, unifying Table I's offline α measurement with the engine's Δ.
//!
//! The harness also replays the same stream through a single-worker FIFO
//! engine and through `oreo-sim`'s sequential OREO policy, asserting the
//! two ledgers are *identical* — concurrency (and the disk tier) changes
//! the serving plane, never the bookkeeping.
//!
//! Tiered scans travel through a fixed-capacity **buffer pool**
//! (`--buffer-pool-mb N`, default 64): partition pages are fetched from
//! disk on misses and served from memory on hits, the run reports
//! hit/miss/eviction counters plus the cold-vs-warm α̂ split (α̂ from
//! measured disk throughput vs. from pool-hit throughput), and the JSON
//! report carries hit-rate and qps per cell so a capacity sweep plots
//! qps-vs-capacity directly.
//!
//! `--scenario <name>` swaps the TPC-H drift stream for a member of the
//! workload zoo (`oreo-workload::scenarios`, over the telemetry dataset):
//! `flash-crowd`, `diurnal`, `rotating`, `correlated`, or `adversarial`
//! (the adaptive MTS adversary, generated against a live OREO instance).
//! `--scenario suite` runs every zoo member through both the simulator
//! (OREO vs the fully informed Static baseline, plus the offline-DP 2·H(n)
//! bound for the adversary) and one engine serving cell, asserts the
//! zoo's two regression claims programmatically, and writes
//! `BENCH_scenarios.json` — the repo's scenario regression trajectory.
//!
//! Live observability (`oreo-obs`): `--metrics-json <path>` streams
//! periodic JSONL registry snapshots (one line per interval per cell —
//! streaming latency percentiles, pool hit rate, current α̂) while the
//! cells run, `--metrics-interval-ms <n>` sets the cadence (default 250),
//! `--metrics-prom <path>` dumps the final registry in Prometheus text
//! exposition format, and `--trace <path>` writes the parity run's policy
//! decision trace. The parity check itself runs with the event journal
//! enabled and additionally asserts that replaying the journal reproduces
//! the engine's `CostLedger` bit-for-bit.
//!
//! `--ingest-rate <rows_per_1000_queries>` turns the default grid into a
//! mixed read/write run: a deterministic mutation schedule
//! (`oreo-workload::mutation`, ~90% appends with updates and deletes mixed
//! in) is interleaved with query submission at the requested rate, so every
//! measured cell serves delta-aware scans while the reorganizer folds
//! deltas into the base. Cells then report ingest totals, folds, write
//! amplification, and delta scan bytes. The ledger-parity replay always
//! runs *without* ingestion — with writes disabled the single-worker FIFO
//! engine must still replay `oreo-sim` byte-exactly (PR 9's regression
//! guarantee).
//!
//! `--tenants <N>` switches to the multi-tenant harness: N tables behind
//! one engine — one worker pool, one buffer pool, one reorganizer, one
//! OREO instance per tenant (§VIII). Tenant 0 serves the zoo's adaptive
//! adversary (the reorg-hungry tenant); tenants 1..N serve quiet diurnal
//! streams over their own tables. The harness asserts per-tenant FIFO
//! ledger parity (every tenant's ledger byte-identical to an independent
//! `oreo-sim` run of its substream), then measures one closed-loop cell
//! and reports per-tenant qps, p50/p99, pool hit%, switches, completed
//! reorgs and total cost. It writes `BENCH_multitenant.json`.
//!
//! Flags: `--quick` (reduced scale), `--tiered` (disk-tiered serving),
//! `--buffer-pool-mb <n>` (tiered page-cache capacity), `--ingest-rate
//! <n>` (rows ingested per 1 000 queries), `--scenario <name|suite>`
//! (workload zoo), `--tenants <N>` (multi-tenant harness), `--json <path>`
//! (machine-readable report for cross-PR trajectories), `--metrics-json` /
//! `--metrics-interval-ms` / `--metrics-prom` / `--trace` (observability,
//! above).

use oreo_bench::common::{
    default_config, json_path_arg, make_stream, write_json_report, Json, Scale,
};
use oreo_core::CostLedger;
use oreo_engine::{
    Engine, EngineConfig, EngineStats, ObsConfig, ServeMode, TenantSpec, TenantStats,
};
use oreo_obs::render_trace;
use oreo_sim::{
    adversarial_bound, compare_oreo_static, default_spec, fmt_f, make_generator, run_policy,
    zoo_stream, PolicySetup, Technique, ThroughputReport,
};
use oreo_workload::{
    mutation_stream, telemetry_bundle, tpch_bundle, MutationConfig, MutationStream, QueryStream,
    Scenario, ScenarioConfig,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Queries per serving cell (smaller than the figure harnesses: every cell
/// replays the stream once per worker count × reorg mode).
fn serving_queries(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 2_000,
        Scale::Full => 10_000,
    }
}

/// Queries per scenario in `--scenario suite` mode: long enough that every
/// zoo phase amortizes α at the paper's ratio (~1 500 queries per phase at
/// α = 80; see ROADMAP.md on `policy_ordering`) *and* that enough distinct
/// phase anchors accumulate to overflow the fully informed Static layout's
/// partition budget — the zoo's ordering claim needs ≥ 8 phases.
fn suite_queries(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 12_000,
        Scale::Full => 20_000,
    }
}

/// The zoo scenarios' framework configuration: the paper defaults, but with
/// the candidate window/generation cadence halved. Zoo phases are ~1 500
/// queries, so candidates must be trained on intra-phase windows — at the
/// default 200-query cadence a generation straddles phase boundaries often
/// enough that the rotating scenario churns between mixed-shape layouts
/// instead of parking on per-phase ones.
fn scenario_config(seed: u64) -> oreo_core::OreoConfig {
    oreo_core::OreoConfig {
        window: 100,
        generation_interval: 100,
        ..default_config(seed)
    }
}

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Worker counts for single-scenario serving cells (reorg always on — the
/// zoo exists to exercise reorganization behavior).
const SCENARIO_WORKERS: [usize; 3] = [1, 2, 4];

/// The additive constant `c` of the asserted adversarial bound
/// `cost(OREO) ≤ 2·H(n)·cost(OFF) + c·α`. The proof grants O(α) for the
/// phase in flight; the full framework adds estimate-vs-exact noise
/// (decisions on sample estimates, billing on exact models), measured well
/// inside this slack — see `tests/competitive_ratio.rs`, which asserts the
/// same constant.
const SUITE_SLACK_ALPHAS: f64 = 8.0;

/// A fresh generation root for one tiered cell (removed after the run).
fn cell_root(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("oreo-serve-{}-{tag}", std::process::id()))
}

fn serve_mode(tiered: bool, tag: &str) -> ServeMode {
    if tiered {
        let root = cell_root(tag);
        let _ = std::fs::remove_dir_all(&root);
        ServeMode::Tiered { root }
    } else {
        ServeMode::Memory
    }
}

/// Remove a tiered cell's generation root once the engine is done with it.
fn cleanup(mode: &ServeMode) {
    if let ServeMode::Tiered { root } = mode {
        let _ = std::fs::remove_dir_all(root);
    }
}

/// Parse `--buffer-pool-mb <n>` (default 64 MiB).
fn parse_pool_mb() -> u64 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--buffer-pool-mb")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// Parse `--ingest-rate <rows_per_1000_queries>`, if present.
fn parse_ingest_rate() -> Option<u64> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--ingest-rate")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

/// Parse `--tenants <N>`, if present (the multi-tenant harness).
fn parse_tenants() -> Option<usize> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--tenants")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

/// Parse `--scenario <name|suite>`, if present.
fn parse_scenario() -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--scenario")
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Parse a `--flag <path>` argument, if present.
fn parse_path_flag(flag: &str) -> Option<PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
}

/// Observability flags shared by every mode of this binary.
#[derive(Clone, Debug, Default)]
struct ObsFlags {
    /// `--metrics-json <path>`: JSONL registry snapshots, one line per
    /// interval per serving cell (cells append to the shared file, each
    /// line stamped with the cell label).
    metrics_json: Option<PathBuf>,
    /// `--metrics-prom <path>`: final registry state in Prometheus text
    /// exposition format (each cell overwrites — the file holds the last
    /// cell's dump).
    metrics_prom: Option<PathBuf>,
    /// `--metrics-interval-ms <n>`: snapshot cadence (default 250 ms).
    interval_ms: u64,
    /// `--trace <path>`: the parity run's rendered policy decision trace.
    trace: Option<PathBuf>,
}

impl ObsFlags {
    fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        let interval_ms = args
            .iter()
            .position(|a| a == "--metrics-interval-ms")
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(250);
        Self {
            metrics_json: parse_path_flag("--metrics-json"),
            metrics_prom: parse_path_flag("--metrics-prom"),
            interval_ms,
            trace: parse_path_flag("--trace"),
        }
    }

    /// The engine-side config for one serving cell (no journal — the
    /// bounded event journal runs on the parity replay, not the measured
    /// throughput cells).
    fn cell_config(&self, label: String) -> ObsConfig {
        ObsConfig {
            metrics_json: self.metrics_json.clone(),
            metrics_prom: self.metrics_prom.clone(),
            metrics_interval: Some(Duration::from_millis(self.interval_ms.max(1))),
            label,
            ..Default::default()
        }
    }
}

/// The serving environment shared by the parity replay and every measured
/// cell: serve tier, buffer-pool capacity, framework config, and
/// observability flags.
struct ServeEnv<'a> {
    tiered: bool,
    pool_mb: u64,
    config: &'a oreo_core::OreoConfig,
    obs: &'a ObsFlags,
}

fn run_cell(
    bundle: &oreo_workload::DatasetBundle,
    stream: &QueryStream,
    workers: usize,
    background_reorg: bool,
    env: &ServeEnv<'_>,
    ingest: Option<&MutationStream>,
) -> (ThroughputReport, EngineStats) {
    let config = env.config.clone();
    let initial = default_spec(bundle, config.partitions, config.seed);
    let generator = make_generator(Technique::QdTree, bundle);
    let mode = serve_mode(env.tiered, &format!("w{workers}-r{background_reorg}"));
    let cell_label = format!(
        "w{workers}-reorg_{}",
        if background_reorg { "on" } else { "off" }
    );
    let engine = Engine::start(
        Arc::clone(&bundle.table),
        initial,
        generator,
        config,
        EngineConfig::default()
            .with_workers(workers)
            .with_background_reorg(background_reorg)
            .with_mode(mode.clone())
            .with_buffer_pool_bytes(env.pool_mb * 1024 * 1024)
            .with_obs(env.obs.cell_config(cell_label)),
    );
    let started = Instant::now();
    let mut next_batch = 0usize;
    for (i, q) in stream.queries.iter().enumerate() {
        if let Some(ms) = ingest {
            while next_batch < ms.batches.len() && ms.batches[next_batch].after_query <= i {
                engine
                    .ingest(&ms.batches[next_batch].ops)
                    .expect("ingest batch");
                next_batch += 1;
            }
        }
        engine.submit(q.clone());
    }
    if let Some(ms) = ingest {
        while next_batch < ms.batches.len() {
            engine
                .ingest(&ms.batches[next_batch].ops)
                .expect("ingest batch");
            next_batch += 1;
        }
    }
    engine.drain();
    let elapsed = started.elapsed().as_secs_f64();
    let stats = engine.shutdown();
    cleanup(&mode);
    for e in &stats.tiered_errors {
        eprintln!("[workers={workers}] disk-tier degradation: {e}");
    }
    let report = ThroughputReport {
        label: if background_reorg {
            "reorg on".into()
        } else {
            "reorg off".into()
        },
        serve_mode: stats.mode.label().into(),
        workers,
        queries: stats.queries,
        elapsed_s: elapsed,
        qps: stats.queries as f64 / elapsed,
        p50_us: stats.latency.p50_us,
        p95_us: stats.latency.p95_us,
        p99_us: stats.latency.p99_us,
        max_us: stats.latency.max_us,
        mean_us: stats.latency.mean_us,
        switches: stats.switches,
        reorgs_completed: stats.snapshots_published,
        mean_delta_queries: stats.mean_delta_queries().unwrap_or(0.0),
        mean_delta_s: stats.mean_delta_seconds().unwrap_or(0.0),
        bytes_scanned: stats.bytes_scanned,
        reorg_bytes_written: stats.reorg_bytes_written(),
        alpha_empirical: stats.empirical_alpha().unwrap_or(0.0),
        alpha_cold: stats.alpha_cold().unwrap_or(0.0),
        alpha_warm: stats.alpha_warm().unwrap_or(0.0),
        pool_hits: stats.pool.map_or(0, |p| p.hits),
        pool_misses: stats.pool.map_or(0, |p| p.misses),
        pool_evictions: stats.pool.map_or(0, |p| p.evictions),
        pool_hit_rate: stats.pool_hit_rate(),
        io_cold_bytes: stats.io_cold_bytes,
        io_cached_bytes: stats.io_cached_bytes,
        chunks_evaluated: stats.chunks_evaluated,
        rows_short_circuited: stats.rows_short_circuited,
        total_cost: stats.ledger.total(),
    };
    (report, stats)
}

/// Replay `stream` through `oreo-sim`'s sequential OREO and through a
/// single-worker FIFO engine in the measured serve mode — with the event
/// journal enabled — asserting three-way parity: the engine's ledger
/// equals the simulator's, and replaying the journal's policy events
/// ([`CostLedger::replay`]) reproduces the engine's ledger bit-for-bit.
/// Returns `true` (the assertions fire otherwise) so JSON reports can
/// carry the check.
fn assert_ledger_parity(
    bundle: &oreo_workload::DatasetBundle,
    stream: &QueryStream,
    env: &ServeEnv<'_>,
) -> bool {
    let config = env.config;
    let setup = PolicySetup::new(bundle.clone(), Technique::QdTree, config.clone());
    let mut sequential = setup.oreo();
    let sim_result = run_policy(&mut sequential, &stream.queries, 0);
    let parity_mode = serve_mode(env.tiered, "parity");
    // Lifecycle spans cost ~5 events/query plus policy events; size the
    // ring so a full FIFO replay never overwrites.
    let journal_capacity = stream.queries.len() * 8 + 4096;
    let parity_engine = Engine::start(
        Arc::clone(&bundle.table),
        default_spec(bundle, config.partitions, config.seed),
        make_generator(Technique::QdTree, bundle),
        config.clone(),
        EngineConfig::sequential_parity()
            .with_mode(parity_mode.clone())
            .with_buffer_pool_bytes(env.pool_mb * 1024 * 1024)
            .with_journal_capacity(journal_capacity),
    );
    for q in &stream.queries {
        parity_engine.submit(q.clone());
    }
    parity_engine.drain();
    let parity = parity_engine.shutdown();
    cleanup(&parity_mode);
    let ledgers_match =
        parity.ledger == sim_result.ledger && parity.switches == sim_result.switches;
    println!(
        "ledger parity vs oreo-sim sequential OREO ({} FIFO): {} (engine total {:.2}, \
         sim total {:.2}, switches {} / {})",
        parity.mode.label(),
        if ledgers_match { "EXACT" } else { "MISMATCH" },
        parity.ledger.total(),
        sim_result.ledger.total(),
        parity.switches,
        sim_result.switches,
    );
    assert!(
        ledgers_match,
        "single-threaded engine ledger must replay oreo-sim exactly"
    );
    let replayed = CostLedger::replay(&parity.events);
    let replay_match = parity.events_dropped == 0 && replayed == parity.ledger;
    println!(
        "journal replay parity: {} ({} events, {} dropped, replayed total {:.2})",
        if replay_match { "EXACT" } else { "MISMATCH" },
        parity.events.len(),
        parity.events_dropped,
        replayed.total(),
    );
    assert!(
        replay_match,
        "replaying the event journal must reproduce the engine ledger bit-for-bit \
         (dropped {}, replayed {:?} vs ledger {:?})",
        parity.events_dropped, replayed, parity.ledger
    );
    if let Some(path) = &env.obs.trace {
        let trace = render_trace(&parity.events);
        match std::fs::write(path, trace) {
            Ok(()) => println!(
                "decision trace: {} events written to {}",
                parity.events.len(),
                path.display()
            ),
            Err(e) => eprintln!("decision trace write to {path:?} failed: {e}"),
        }
    }
    ledgers_match && replay_match
}

/// Append the write-path fields to a cell's JSON object (only emitted when
/// `--ingest-rate` is active).
fn with_ingest_fields(cell: Json, stats: &EngineStats) -> Json {
    let Json::Obj(mut fields) = cell else {
        return cell;
    };
    let mut push = |k: &str, v: Json| fields.push((k.to_string(), v));
    push("ingest_batches", Json::from(stats.ingest_batches));
    push("rows_appended", Json::from(stats.rows_appended));
    push("rows_deleted", Json::from(stats.rows_deleted));
    push("ingest_rows_written", Json::from(stats.ingest_rows_written));
    push(
        "write_amplification",
        stats.write_amplification().map_or(Json::Null, Json::from),
    );
    push("delta_bytes_scanned", Json::from(stats.delta_bytes_scanned));
    push("delta_rows_unfolded", Json::from(stats.delta_rows));
    push("folds", Json::from(stats.folds()));
    push("folded_rows", Json::from(stats.folded_rows()));
    push("compactions", Json::from(stats.ledger.compactions));
    push("compaction_cost", Json::from(stats.ledger.compaction_cost));
    push("wal_bytes", Json::from(stats.wal_bytes));
    Json::Obj(fields)
}

/// One serving cell as a JSON object (the `cells` array entry shared by
/// every mode of this binary).
fn cell_json(r: &ThroughputReport) -> Json {
    Json::obj([
        ("mode", Json::from(r.label.clone())),
        ("serve_mode", Json::from(r.serve_mode.clone())),
        ("workers", Json::from(r.workers)),
        ("queries", Json::from(r.queries)),
        ("elapsed_s", Json::from(r.elapsed_s)),
        ("qps", Json::from(r.qps)),
        ("p50_us", Json::from(r.p50_us)),
        ("p95_us", Json::from(r.p95_us)),
        ("p99_us", Json::from(r.p99_us)),
        ("max_us", Json::from(r.max_us)),
        ("mean_us", Json::from(r.mean_us)),
        ("switches", Json::from(r.switches)),
        ("reorgs_completed", Json::from(r.reorgs_completed)),
        ("mean_delta_queries", Json::from(r.mean_delta_queries)),
        ("mean_delta_s", Json::from(r.mean_delta_s)),
        ("bytes_scanned", Json::from(r.bytes_scanned)),
        ("reorg_bytes_written", Json::from(r.reorg_bytes_written)),
        (
            "alpha_empirical",
            if r.alpha_empirical > 0.0 {
                Json::from(r.alpha_empirical)
            } else {
                Json::Null
            },
        ),
        (
            "alpha_cold",
            if r.alpha_cold > 0.0 {
                Json::from(r.alpha_cold)
            } else {
                Json::Null
            },
        ),
        (
            "alpha_warm",
            if r.alpha_warm > 0.0 {
                Json::from(r.alpha_warm)
            } else {
                Json::Null
            },
        ),
        ("pool_hits", Json::from(r.pool_hits)),
        ("pool_misses", Json::from(r.pool_misses)),
        ("pool_evictions", Json::from(r.pool_evictions)),
        ("pool_hit_rate", Json::from(r.pool_hit_rate)),
        ("io_cold_bytes", Json::from(r.io_cold_bytes)),
        ("io_cached_bytes", Json::from(r.io_cached_bytes)),
        ("chunks_evaluated", Json::from(r.chunks_evaluated)),
        ("rows_short_circuited", Json::from(r.rows_short_circuited)),
        ("total_cost", Json::from(r.total_cost)),
    ])
}

fn main() {
    let scale = Scale::from_args();
    let tiered = std::env::args().any(|a| a == "--tiered");
    let pool_mb = parse_pool_mb();
    let json_path = json_path_arg();
    let obs = ObsFlags::from_args();

    if let Some(n) = parse_tenants() {
        assert!(
            (2..=8).contains(&n),
            "--tenants takes 2..=8 co-tenants, got {n}"
        );
        run_multitenant(n, scale, tiered, pool_mb, json_path, &obs);
        return;
    }

    match parse_scenario().as_deref() {
        None => run_default(scale, tiered, pool_mb, json_path, &obs, parse_ingest_rate()),
        Some("suite") => run_suite(scale, tiered, pool_mb, json_path, &obs),
        Some(name) => {
            let scenario = Scenario::from_name(name).unwrap_or_else(|| {
                let known: Vec<&str> = Scenario::ALL.iter().map(|s| s.name()).collect();
                panic!("unknown scenario {name:?}; known: {known:?} (or \"suite\")")
            });
            run_scenario(scenario, scale, tiered, pool_mb, json_path, &obs);
        }
    }
}

/// The original harness: TPC-H drift stream over the full worker × reorg
/// grid.
fn run_default(
    scale: Scale,
    tiered: bool,
    pool_mb: u64,
    json_path: Option<PathBuf>,
    obs: &ObsFlags,
    ingest_rate: Option<u64>,
) {
    let seed = 3;
    let queries = serving_queries(scale);

    println!("== Serving throughput: concurrent engine vs worker count ==");
    println!(
        "scale: {} ({} rows, {} queries/cell, serve mode: {}, {} hardware threads available)",
        scale.label(),
        scale.rows(),
        queries,
        if tiered {
            format!("tiered, {pool_mb} MiB buffer pool")
        } else {
            "memory".into()
        },
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    println!();

    let bundle = tpch_bundle(scale.rows(), 1);
    let mut stream = make_stream(&bundle, scale, 2);
    stream.queries.truncate(queries);
    let config = default_config(seed);
    let env = ServeEnv {
        tiered,
        pool_mb,
        config: &config,
        obs,
    };

    // The mutation schedule every measured cell interleaves: ~90% appends,
    // the rest updates + deletes, one batch per ~100 served queries.
    let ingest = ingest_rate.map(|per_k| {
        let total_rows = (queries as u64 * per_k / 1000).max(1);
        let batches = (queries / 100).clamp(1, 200);
        let per_batch = (total_rows / batches as u64).max(1) as usize;
        let schedule = mutation_stream(
            bundle.table.schema(),
            bundle.table.num_rows() as u64,
            MutationConfig {
                batches,
                appends_per_batch: per_batch - 2 * (per_batch / 10).min(per_batch / 2),
                updates_per_batch: per_batch / 10,
                deletes_per_batch: per_batch / 10,
                total_queries: queries,
                seed: 11,
            },
        );
        println!(
            "ingest schedule: {} batches, {} appends + {} tombstones over {} queries \
             ({} rows / 1 000 queries requested)",
            schedule.batches.len(),
            schedule.appended,
            schedule.deleted,
            queries,
            per_k,
        );
        schedule
    });

    // Ledger parity: sequential simulator vs single-worker FIFO engine —
    // in the *same* serve mode as the measured cells, so the acceptance
    // check covers the tiered path too. Always runs WITHOUT ingestion:
    // with writes disabled the engine must replay oreo-sim byte-exactly.
    let ledgers_match = assert_ledger_parity(&bundle, &stream, &env);
    println!();

    let mut reports: Vec<ThroughputReport> = Vec::new();
    let mut cell_stats: Vec<EngineStats> = Vec::new();
    for &workers in &WORKER_COUNTS {
        for reorg in [true, false] {
            let (report, stats) = run_cell(&bundle, &stream, workers, reorg, &env, ingest.as_ref());
            println!(
                "[workers={} {}] {:>7} qps, p50 {:>6} µs, p99 {:>7} µs, {} switches, {} reorgs, \
                 mean Δ = {} queries / {}s",
                report.workers,
                report.label,
                fmt_f(report.qps, 0),
                fmt_f(report.p50_us, 0),
                fmt_f(report.p99_us, 0),
                report.switches,
                report.reorgs_completed,
                fmt_f(report.mean_delta_queries, 1),
                fmt_f(report.mean_delta_s, 3),
            );
            if ingest.is_some() {
                println!(
                    "[workers={} {}]   ingest: {} rows in {} batches ({} tombstones), \
                     WA {}, {} folds ({} rows), {} delta bytes scanned, {} rows unfolded",
                    report.workers,
                    report.label,
                    stats.rows_appended,
                    stats.ingest_batches,
                    stats.rows_deleted,
                    stats
                        .write_amplification()
                        .map_or("-".into(), |w| fmt_f(w, 2)),
                    stats.folds(),
                    stats.folded_rows(),
                    stats.delta_bytes_scanned,
                    stats.delta_rows,
                );
            }
            if reorg {
                debug_assert_eq!(stats.snapshots_published, stats.switches);
            }
            reports.push(report);
            cell_stats.push(stats);
        }
    }

    println!();
    println!("{}", ThroughputReport::render_table(&reports));

    // The unified measurement: α and Δ as observables of the same stream.
    if tiered {
        for (report, stats) in reports
            .iter()
            .zip(&cell_stats)
            .filter(|(r, _)| r.label == "reorg on")
        {
            let workers = &report.workers;
            let est = stats.alpha_estimator();
            match (stats.empirical_alpha(), stats.mean_delta_queries()) {
                (Some(alpha), Some(delta_q)) => println!(
                    "[workers={workers}] empirical α = {:.1} (mean rewrite {:.4}s over \
                     extrapolated full scan {:.4}s, {} bytes/rewrite) — same stream's \
                     measured Δ = {:.1} queries / {:.4}s",
                    alpha,
                    est.mean_reorg_seconds().unwrap_or(0.0),
                    est.full_scan_seconds().unwrap_or(0.0),
                    fmt_f(est.mean_reorg_bytes().unwrap_or(0.0), 0),
                    delta_q,
                    stats.mean_delta_seconds().unwrap_or(0.0),
                ),
                _ => println!(
                    "[workers={workers}] empirical α not measurable (no completed rewrite)"
                ),
            }
            let pool = stats.pool.unwrap_or_default();
            println!(
                "[workers={workers}]   buffer pool: {} hits / {} misses ({:.1}% hit rate), \
                 {} evictions; scan bytes cold {} / cached {}; α̂ cold = {}, α̂ warm = {}",
                pool.hits,
                pool.misses,
                stats.pool_hit_rate() * 100.0,
                pool.evictions,
                stats.io_cold_bytes,
                stats.io_cached_bytes,
                stats.alpha_cold().map_or("-".into(), |a| fmt_f(a, 1)),
                stats.alpha_warm().map_or("-".into(), |a| fmt_f(a, 1)),
            );
        }
        println!();
    }

    let cell = |workers: usize, label: &str| {
        reports
            .iter()
            .find(|r| r.workers == workers && r.label == label)
            .expect("cell present")
    };
    let speedup_4 = cell(4, "reorg on").speedup_over(cell(1, "reorg on"));
    let speedup_8 = cell(8, "reorg on").speedup_over(cell(1, "reorg on"));
    println!(
        "scan throughput scaling (reorg on): 1→4 workers = {:.2}x, 1→8 workers = {:.2}x",
        speedup_4, speedup_8
    );
    // Scan work runs lock-free, so the scaling target is >2x from 1→4
    // workers on a host that actually has the cores. Report only: a perf
    // property asserted on shared/undersized runners is flaky by
    // construction.
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    if hw < 4 {
        println!(
            "(only {hw} hardware thread(s) available — the >2x 1→4 scaling target \
             needs a multi-core host)"
        );
    }

    if let Some(path) = json_path {
        let rows = reports
            .iter()
            .zip(&cell_stats)
            .map(|(r, s)| {
                let cell = cell_json(r);
                if ingest.is_some() {
                    with_ingest_fields(cell, s)
                } else {
                    cell
                }
            })
            .collect();
        let doc = Json::obj([
            ("benchmark", Json::from("serve_throughput")),
            ("scale", Json::from(scale.label())),
            (
                "ingest_rate_per_1000",
                ingest_rate.map_or(Json::Null, Json::from),
            ),
            (
                "ingest_rows",
                ingest
                    .as_ref()
                    .map_or(Json::Null, |m| Json::from(m.appended)),
            ),
            (
                "ingest_tombstones",
                ingest
                    .as_ref()
                    .map_or(Json::Null, |m| Json::from(m.deleted)),
            ),
            (
                "serve_mode",
                Json::from(if tiered { "tiered" } else { "memory" }),
            ),
            (
                "buffer_pool_mb",
                if tiered {
                    Json::from(pool_mb)
                } else {
                    Json::Null
                },
            ),
            ("dataset", Json::from(bundle.name)),
            ("rows", Json::from(scale.rows())),
            ("queries_per_cell", Json::from(queries)),
            ("hardware_threads", Json::from(hw)),
            ("ledger_parity_with_sim", Json::from(ledgers_match)),
            ("journal_replay_parity", Json::from(ledgers_match)),
            ("speedup_1_to_4_reorg_on", Json::from(speedup_4)),
            ("speedup_1_to_8_reorg_on", Json::from(speedup_8)),
            ("cells", Json::Arr(rows)),
        ]);
        write_json_report(&path, &doc);
    }
}

/// One zoo scenario through the serving engine: telemetry dataset, the
/// scenario's stream (the adversary generated against a live OREO twin),
/// ledger-parity assertion, then serving cells at 1/2/4 workers with
/// background reorganization on.
fn run_scenario(
    scenario: Scenario,
    scale: Scale,
    tiered: bool,
    pool_mb: u64,
    json_path: Option<PathBuf>,
    obs: &ObsFlags,
) {
    let seed = 3;
    // Zoo phases need ~1 500 queries each to amortize α = 80, so scenario
    // cells run the longer suite stream rather than `serving_queries`.
    let queries = suite_queries(scale);

    println!(
        "== Serving throughput: scenario zoo / {} ==",
        scenario.name()
    );
    println!("  {}", scenario.description());
    println!("  stresses: {}", scenario.paper_section());
    println!(
        "scale: {} ({} rows, {} queries/cell, serve mode: {})",
        scale.label(),
        scale.rows(),
        queries,
        if tiered {
            format!("tiered, {pool_mb} MiB buffer pool")
        } else {
            "memory".into()
        },
    );
    println!();

    let bundle = telemetry_bundle(scale.rows(), 1);
    let config = scenario_config(seed);
    let setup = PolicySetup::new(bundle.clone(), Technique::QdTree, config.clone());
    let cfg = ScenarioConfig {
        total_queries: queries,
        seed: 2,
    };
    let stream = zoo_stream(&setup, scenario, cfg);
    let env = ServeEnv {
        tiered,
        pool_mb,
        config: &config,
        obs,
    };

    let ledgers_match = assert_ledger_parity(&bundle, &stream, &env);
    println!();

    let mut reports: Vec<ThroughputReport> = Vec::new();
    for &workers in &SCENARIO_WORKERS {
        let (report, _) = run_cell(&bundle, &stream, workers, true, &env, None);
        println!(
            "[workers={}] {:>7} qps, p50 {:>6} µs, p99 {:>7} µs, {} switches, hit% {:.1}, \
             α̂ {}",
            report.workers,
            fmt_f(report.qps, 0),
            fmt_f(report.p50_us, 0),
            fmt_f(report.p99_us, 0),
            report.switches,
            report.pool_hit_rate * 100.0,
            if report.alpha_empirical > 0.0 {
                fmt_f(report.alpha_empirical, 1)
            } else {
                "-".into()
            },
        );
        reports.push(report);
    }

    println!();
    println!("{}", ThroughputReport::render_table(&reports));

    if let Some(path) = json_path {
        let rows = reports.iter().map(cell_json).collect();
        let doc = Json::obj([
            ("benchmark", Json::from("serve_scenario")),
            ("scenario", Json::from(scenario.name())),
            ("description", Json::from(scenario.description())),
            ("paper_section", Json::from(scenario.paper_section())),
            ("scale", Json::from(scale.label())),
            (
                "serve_mode",
                Json::from(if tiered { "tiered" } else { "memory" }),
            ),
            (
                "buffer_pool_mb",
                if tiered {
                    Json::from(pool_mb)
                } else {
                    Json::Null
                },
            ),
            ("dataset", Json::from(bundle.name)),
            ("rows", Json::from(scale.rows())),
            ("queries_per_cell", Json::from(queries)),
            ("segments", Json::from(stream.segments.len())),
            ("ledger_parity_with_sim", Json::from(ledgers_match)),
            ("journal_replay_parity", Json::from(ledgers_match)),
            ("cells", Json::Arr(rows)),
        ]);
        write_json_report(&path, &doc);
    }
}

/// The whole zoo: per scenario, the simulator comparison (OREO vs Static;
/// the 2·H(n) offline-DP bound for the adversary) plus one engine serving
/// cell. Asserts the zoo's regression claims and writes
/// `BENCH_scenarios.json`.
fn run_suite(scale: Scale, tiered: bool, pool_mb: u64, json_path: Option<PathBuf>, obs: &ObsFlags) {
    let seed = 3;
    let queries = suite_queries(scale);

    println!("== Scenario suite: workload zoo regression trajectory ==");
    println!(
        "scale: {} ({} rows, {} queries/scenario, serve mode: {}, α = {})",
        scale.label(),
        scale.rows(),
        queries,
        if tiered { "tiered" } else { "memory" },
        default_config(seed).alpha,
    );
    println!();

    let bundle = telemetry_bundle(scale.rows(), 1);
    let config = scenario_config(seed);
    let setup = PolicySetup::new(bundle.clone(), Technique::QdTree, config.clone());
    let cfg = ScenarioConfig {
        total_queries: queries,
        seed: 2,
    };
    let env = ServeEnv {
        tiered,
        pool_mb,
        config: &config,
        obs,
    };

    let mut entries: Vec<Json> = Vec::new();
    let mut bound_json = Json::Null;
    let mut ordering_failures: Vec<String> = Vec::new();
    let mut bound_failure: Option<String> = None;

    for scenario in Scenario::ALL {
        let (stream, bound) = if scenario.is_adversarial() {
            let (stream, bound) = adversarial_bound(&setup, cfg, SUITE_SLACK_ALPHAS);
            (stream, Some(bound))
        } else {
            (zoo_stream(&setup, scenario, cfg), None)
        };

        let (oreo_run, static_run) = compare_oreo_static(&setup, &stream);
        let oreo_total = oreo_run.total();
        let static_total = static_run.total();
        let beats_static = oreo_total < static_total;

        let (report, _) = run_cell(&bundle, &stream, 2, true, &env, None);

        println!(
            "[{:>11}] sim: OREO {:>8} vs Static {:>8} ({}{:.1}%), {} switches | \
             engine: {:>7} qps, p99 {:>7} µs, hit% {:.1}",
            scenario.name(),
            fmt_f(oreo_total, 1),
            fmt_f(static_total, 1),
            if beats_static { "-" } else { "+" },
            ((oreo_total - static_total) / static_total * 100.0).abs(),
            oreo_run.switches,
            fmt_f(report.qps, 0),
            fmt_f(report.p99_us, 0),
            report.pool_hit_rate * 100.0,
        );

        if let Some(b) = &bound {
            println!(
                "[{:>11}] 2·H(n) bound: OREO {:.1} ≤ 2·H({}) · OFF {:.1} + {}·α = {:.1} — {} \
                 (ratio {:.2}, OFF switches {})",
                scenario.name(),
                b.oreo_total,
                b.n_states,
                b.offline.total_cost,
                SUITE_SLACK_ALPHAS,
                b.bound,
                if b.holds { "HOLDS" } else { "VIOLATED" },
                b.ratio,
                b.offline.switches,
            );
            if !b.holds {
                bound_failure = Some(format!(
                    "adversarial: OREO {:.1} > bound {:.1}",
                    b.oreo_total, b.bound
                ));
            }
            bound_json = Json::obj([
                ("n_states", Json::from(b.n_states)),
                ("h_n", Json::from(b.h_n)),
                ("oreo_total", Json::from(b.oreo_total)),
                ("oreo_switches", Json::from(b.oreo_switches)),
                ("offline_total", Json::from(b.offline.total_cost)),
                ("offline_switches", Json::from(b.offline.switches)),
                ("slack_alphas", Json::from(SUITE_SLACK_ALPHAS)),
                ("bound", Json::from(b.bound)),
                ("ratio", Json::from(b.ratio)),
                ("holds", Json::from(b.holds)),
            ]);
        } else if !beats_static {
            ordering_failures.push(format!(
                "{}: OREO {oreo_total:.1} ≥ Static {static_total:.1}",
                scenario.name()
            ));
        }

        entries.push(Json::obj([
            ("scenario", Json::from(scenario.name())),
            ("description", Json::from(scenario.description())),
            ("paper_section", Json::from(scenario.paper_section())),
            ("adversarial", Json::from(scenario.is_adversarial())),
            ("segments", Json::from(stream.segments.len())),
            ("sim_oreo_total", Json::from(oreo_total)),
            ("sim_static_total", Json::from(static_total)),
            ("sim_oreo_switches", Json::from(oreo_run.switches)),
            ("sim_static_switches", Json::from(static_run.switches)),
            ("oreo_beats_static", Json::from(beats_static)),
            ("qps", Json::from(report.qps)),
            ("p50_us", Json::from(report.p50_us)),
            ("p99_us", Json::from(report.p99_us)),
            ("pool_hit_rate", Json::from(report.pool_hit_rate)),
            (
                "alpha_empirical",
                if report.alpha_empirical > 0.0 {
                    Json::from(report.alpha_empirical)
                } else {
                    Json::Null
                },
            ),
            ("switches", Json::from(report.switches)),
            ("engine_total_cost", Json::from(report.total_cost)),
        ]));
    }

    println!();
    let doc = Json::obj([
        ("benchmark", Json::from("scenario_suite")),
        ("scale", Json::from(scale.label())),
        (
            "serve_mode",
            Json::from(if tiered { "tiered" } else { "memory" }),
        ),
        ("dataset", Json::from(bundle.name)),
        ("rows", Json::from(scale.rows())),
        ("queries_per_scenario", Json::from(queries)),
        ("alpha", Json::from(default_config(seed).alpha)),
        ("adversarial_bound", bound_json),
        ("scenarios", Json::Arr(entries)),
    ]);
    let path = json_path.unwrap_or_else(|| PathBuf::from("BENCH_scenarios.json"));
    write_json_report(&path, &doc);

    // The zoo's two regression claims, asserted programmatically so a CI
    // run of this mode gates on them.
    assert!(
        bound_failure.is_none(),
        "2·H(n) adversarial bound violated: {}",
        bound_failure.unwrap_or_default()
    );
    assert!(
        ordering_failures.is_empty(),
        "OREO must beat Static on every non-adversarial zoo scenario: {ordering_failures:?}"
    );
    println!(
        "suite ok: 2·H(n) bound holds on the adversary; OREO beats Static on all {} \
         non-adversarial scenarios",
        Scenario::ALL.len() - 1
    );
}

/// Queries per quiet co-tenant in `--tenants` mode: long enough that the
/// aggressor's drift (at a quarter of this volume) amortizes its reduced α
/// and triggers a steady stream of switches.
fn multitenant_queries(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 6_000,
        Scale::Full => 12_000,
    }
}

/// Framework config for the *quiet* co-tenants of `--tenants` mode.
/// Candidate generation runs on the serving path (it is part of the
/// framework's modeled cost; on a worker's own time in the measured-Δ
/// cell, with the tenant's stream held a quarter interval past the
/// boundary), and one generation pass costs
/// tens of milliseconds — if a quiet tenant regenerates every 100 queries,
/// its own p99 is generation stalls, not co-tenant interference. Quiet
/// tenants are stable workloads: they
/// regenerate rarely (well under 1% of queries), keep a small training
/// sample, and a halved partition count.
fn multitenant_config(seed: u64) -> oreo_core::OreoConfig {
    oreo_core::OreoConfig {
        window: 200,
        generation_interval: 1_500,
        data_sample_rows: 250,
        partitions: 32,
        ..default_config(seed)
    }
}

/// One tenant of the multi-tenant harness: its own table, framework
/// config, zoo stream, and sim setup (for the per-tenant parity oracle).
struct TenantCase {
    name: String,
    scenario: Scenario,
    bundle: oreo_workload::DatasetBundle,
    config: oreo_core::OreoConfig,
    stream: QueryStream,
    /// Submit one query of this tenant every `stride` rounds of the
    /// interleaved loop — the aggressor runs sparse (its own service
    /// footprint is small either way) while its reorganization pressure
    /// rides on α and cadence, not on query volume.
    stride: usize,
    /// Per-tenant concurrency cap in the closed-loop cell — the
    /// frontend-fairness knob a real multi-tenant gateway applies. The
    /// aggressor is capped at 1 so its (possibly slow) scans can occupy at
    /// most one worker; otherwise every quiet tenant's tail is just the
    /// aggressor's service time.
    inflight: usize,
}

impl TenantCase {
    fn spec(&self) -> TenantSpec {
        TenantSpec {
            name: self.name.clone(),
            table: Arc::clone(&self.bundle.table),
            initial_spec: default_spec(&self.bundle, self.config.partitions, self.config.seed),
            generator: make_generator(Technique::QdTree, &self.bundle),
            oreo: self.config.clone(),
        }
    }
}

/// In-flight queries per *quiet* tenant in the measured (closed-loop)
/// cell (the aggressor is capped at 1 — see [`TenantCase::inflight`]). An
/// open loop would submit every stream instantly and measure queue
/// backlog; a small bounded window keeps the engine busy while latency
/// still reflects service time plus co-tenant interference.
const MT_INFLIGHT: usize = 4;

/// Start an N-tenant engine, submit every tenant's stream round-robin
/// interleaved (each tenant firing every [`TenantCase::stride`] rounds),
/// drain, and return (elapsed, stats). `closed_loop` bounds each tenant
/// to its [`TenantCase::inflight`] outstanding queries (the measured
/// cell); the parity replay runs open-loop — bookkeeping order is all
/// that matters there.
fn run_multitenant_cell(
    cases: &[TenantCase],
    config: EngineConfig,
    closed_loop: bool,
) -> (f64, EngineStats) {
    let engine = Engine::start_tenants(cases.iter().map(TenantCase::spec).collect(), config);
    let started = Instant::now();
    let rounds = cases
        .iter()
        .map(|c| c.stream.queries.len() * c.stride)
        .max()
        .unwrap();
    let mut inflight: Vec<std::collections::VecDeque<oreo_engine::ResultHandle>> =
        (0..cases.len()).map(|_| Default::default()).collect();
    for i in 0..rounds {
        for (t, case) in cases.iter().enumerate() {
            if i % case.stride != 0 {
                continue;
            }
            if let Some(q) = case.stream.queries.get(i / case.stride) {
                if closed_loop {
                    if inflight[t].len() >= case.inflight {
                        inflight[t].pop_front().unwrap().wait();
                    }
                    inflight[t].push_back(engine.submit_tracked_to(t, q.clone()));
                } else {
                    engine.submit_to(t, q.clone());
                }
            }
        }
    }
    for pending in &mut inflight {
        while let Some(h) = pending.pop_front() {
            h.wait();
        }
    }
    engine.drain();
    let elapsed = started.elapsed().as_secs_f64();
    let stats = engine.shutdown();
    for e in &stats.tiered_errors {
        eprintln!("[multitenant] disk-tier degradation: {e}");
    }
    (elapsed, stats)
}

fn tenant_json(case: &TenantCase, ten: &TenantStats, elapsed: f64, tiered: bool) -> Json {
    Json::obj([
        ("name", Json::from(ten.name.clone())),
        ("scenario", Json::from(case.scenario.name())),
        ("queries", Json::from(ten.queries)),
        ("qps", Json::from(ten.queries as f64 / elapsed)),
        ("p50_us", Json::from(ten.latency.p50_us)),
        ("p99_us", Json::from(ten.latency.p99_us)),
        ("mean_us", Json::from(ten.latency.mean_us)),
        (
            "pool_hit_rate",
            if tiered {
                Json::from(ten.pool_hit_rate())
            } else {
                Json::Null
            },
        ),
        ("switches", Json::from(ten.switches)),
        ("reorgs_completed", Json::from(ten.snapshots_published)),
        ("total_cost", Json::from(ten.ledger.total())),
    ])
}

/// The multi-tenant harness (`--tenants N`): one adversarial tenant +
/// N−1 quiet co-tenants behind one engine. Asserts per-tenant ledger
/// parity against independent `oreo-sim` runs and measures one
/// closed-loop cell.
fn run_multitenant(
    n: usize,
    scale: Scale,
    tiered: bool,
    pool_mb: u64,
    json_path: Option<PathBuf>,
    obs: &ObsFlags,
) {
    let queries = multitenant_queries(scale);
    // Tenant 0 serves the zoo's adaptive MTS adversary: a stream engineered
    // so reorganizations barely pay for themselves, so it switches often
    // and each switch bills the shared serving plane — builds, generation
    // writes + fsync, pool invalidations. It runs *sparse* (a quarter of
    // the co-tenants' query volume, spread evenly via `stride`) so its own
    // scans take a bounded share of the workers.
    let crowd = Scenario::from_name("adversarial").expect("zoo scenario");
    let quiet = Scenario::from_name("diurnal").expect("zoo scenario");
    const CROWD_STRIDE: usize = 4;

    println!("== Multi-tenant serving: {n} tables, one engine, one OREO per tenant ==");
    println!(
        "scale: {} ({} rows/co-tenant, {} rows for tenant 0, {} queries/co-tenant, \
         {} for tenant 0, serve mode: {})",
        scale.label(),
        scale.rows(),
        scale.rows() * 8,
        queries,
        queries / CROWD_STRIDE,
        if tiered {
            format!("tiered, {pool_mb} MiB shared buffer pool")
        } else {
            "memory".into()
        },
    );
    println!(
        "tenant 0 \"crowd\" serves the {} stream (reorg-hungry); \
         tenants 1..{n} serve {} streams",
        crowd.name(),
        quiet.name(),
    );
    println!();

    let cases: Vec<TenantCase> = (0..n)
        .map(|i| {
            // The aggressor's table is eight times the co-tenants' (its
            // aside rewrites are eight times the work, and its scan costs
            // — hence its drift-driven switch benefits — scale with it) at
            // a short window and generation cadence: few queries, but each
            // window of them justifies another heavy rebuild of the big
            // table, each billing the same α as everyone else.
            let bundle = telemetry_bundle(
                if i == 0 {
                    scale.rows() * 8
                } else {
                    scale.rows()
                },
                1 + i as u64,
            );
            let config = if i == 0 {
                oreo_core::OreoConfig {
                    window: 50,
                    generation_interval: 50,
                    ..multitenant_config(3)
                }
            } else {
                multitenant_config(3 + i as u64)
            };
            let setup = PolicySetup::new(bundle.clone(), Technique::QdTree, config.clone());
            let scenario = if i == 0 { crowd } else { quiet };
            let stride = if i == 0 { CROWD_STRIDE } else { 1 };
            let inflight = if i == 0 { 1 } else { MT_INFLIGHT };
            let stream = zoo_stream(
                &setup,
                scenario,
                ScenarioConfig {
                    total_queries: queries / stride,
                    seed: 2 + i as u64,
                },
            );
            TenantCase {
                name: if i == 0 {
                    "crowd".into()
                } else {
                    format!("quiet-{i}")
                },
                scenario,
                bundle,
                config,
                stream,
                stride,
                inflight,
            }
        })
        .collect();

    // Per-tenant FIFO ledger parity: the N-tenant engine's interleaved
    // stream must leave every tenant's ledger byte-identical to an
    // independent sequential `oreo-sim` run of that tenant's substream —
    // co-tenancy changes the serving plane, never the bookkeeping.
    let parity_mode = serve_mode(tiered, "mt-parity");
    let (_, parity) = run_multitenant_cell(
        &cases,
        EngineConfig::sequential_parity()
            .with_mode(parity_mode.clone())
            .with_buffer_pool_bytes(pool_mb * 1024 * 1024),
        false,
    );
    cleanup(&parity_mode);
    let mut parity_ok = true;
    for (case, ten) in cases.iter().zip(&parity.tenants) {
        let setup = PolicySetup::new(case.bundle.clone(), Technique::QdTree, case.config.clone());
        let sim = run_policy(&mut setup.oreo(), &case.stream.queries, 0);
        let matches = ten.ledger == sim.ledger && ten.switches == sim.switches;
        parity_ok &= matches;
        println!(
            "ledger parity [{}]: {} (engine total {:.2}, sim total {:.2}, switches {} / {})",
            ten.name,
            if matches { "EXACT" } else { "MISMATCH" },
            ten.ledger.total(),
            sim.ledger.total(),
            ten.switches,
            sim.switches,
        );
    }
    assert!(
        parity_ok,
        "every tenant of the N-tenant engine must replay its independent oreo-sim run exactly"
    );
    println!();

    // One measured closed-loop cell: the engine's default configuration
    // (measured Δ, background reorganizer) on two workers.
    let alpha = cases[0].config.alpha;
    let mode = serve_mode(tiered, "mt-serve");
    let config = EngineConfig::default()
        .with_workers(2)
        .with_mode(mode.clone())
        .with_buffer_pool_bytes(pool_mb * 1024 * 1024)
        .with_obs(obs.cell_config("mt-serve".into()));
    let (elapsed, stats) = run_multitenant_cell(&cases, config, true);
    cleanup(&mode);
    println!(
        "[serve] {:.2}s, {} qps total, {} switches, {} reorgs completed in-run",
        elapsed,
        fmt_f(stats.queries as f64 / elapsed, 0),
        stats.switches,
        stats.snapshots_published,
    );
    for ten in &stats.tenants {
        println!(
            "[serve]   {:>8}: {:>7} qps, p50 {:>6} µs, p99 {:>7} µs, {} switches, \
             {} reorgs, total cost {:.1}{}",
            ten.name,
            fmt_f(ten.queries as f64 / elapsed, 0),
            fmt_f(ten.latency.p50_us, 0),
            fmt_f(ten.latency.p99_us, 0),
            ten.switches,
            ten.snapshots_published,
            ten.ledger.total(),
            if tiered {
                format!(", pool hit {:.1}%", ten.pool_hit_rate() * 100.0)
            } else {
                String::new()
            },
        );
    }
    let cell = Json::obj([
        ("elapsed_s", Json::from(elapsed)),
        ("qps_total", Json::from(stats.queries as f64 / elapsed)),
        ("switches", Json::from(stats.switches)),
        ("reorgs_completed", Json::from(stats.snapshots_published)),
        ("total_cost", Json::from(stats.ledger.total())),
        (
            "pool_hit_rate",
            if tiered {
                Json::from(stats.pool_hit_rate())
            } else {
                Json::Null
            },
        ),
        (
            "tenants",
            Json::Arr(
                cases
                    .iter()
                    .zip(&stats.tenants)
                    .map(|(c, t)| tenant_json(c, t, elapsed, tiered))
                    .collect(),
            ),
        ),
    ]);

    let doc = Json::obj([
        ("benchmark", Json::from("serve_multitenant")),
        ("scale", Json::from(scale.label())),
        (
            "serve_mode",
            Json::from(if tiered { "tiered" } else { "memory" }),
        ),
        (
            "buffer_pool_mb",
            if tiered {
                Json::from(pool_mb)
            } else {
                Json::Null
            },
        ),
        ("tenants", Json::from(n)),
        ("rows_per_tenant", Json::from(scale.rows())),
        ("queries_per_tenant", Json::from(queries)),
        ("alpha", Json::from(alpha)),
        ("ledger_parity_per_tenant", Json::from(parity_ok)),
        ("cell", cell),
    ]);
    let path = json_path.unwrap_or_else(|| PathBuf::from("BENCH_multitenant.json"));
    write_json_report(&path, &doc);
}
