//! **Serving throughput** — the gates only the concurrent engine can
//! provide, and one measured serving cell.
//!
//! The default mode replays the TPC-H drift stream through `oreo-sim`'s
//! served-order OREO (`oreo_sim::Schedule::Served`) and through the engine's
//! default configuration at two workers, driven in lockstep (each query
//! submitted once the engine has drained the one before) with the event
//! journal enabled, and asserts two parities: the engine's ledger equals
//! the simulator's (the unskipped fraction per query plus α per switch),
//! and replaying the journal reproduces the engine's ledger bit-for-bit.
//! Concurrency and the disk tier change the serving plane, never the
//! bookkeeping. It then measures one cell on the same configuration,
//! submitted open-loop: qps, p50/p99, switches and completed
//! reorganizations, and the delay Δ of §VI-D5 as a **measured** window
//! (wall-clock and queries served during a switch) — the experiment the
//! paper's simulator cannot run. Closed-loop qps against committed
//! baselines is the `benchmark/` harness's job; this cell is a report.
//!
//! With `--tiered` the engine serves through the disk tier
//! (`TieredStore` behind the default 64 MiB buffer pool): every publish
//! persists a generation before the snapshot-pointer swap, and the cell
//! also reports the **empirical α** — the measured rewrite cost over the
//! extrapolated full-scan cost, Table I's ratio — next to the measured Δ
//! of the same stream, and the pool hit rate.
//!
//! `--scenario suite` runs the workload zoo (`oreo-workload::scenarios`,
//! over the telemetry dataset). Per scenario it compares OREO with the
//! fully informed Static baseline in the simulator, asserts the lockstep
//! engine's two parities against the served-order OREO run of the same
//! stream, and on the adaptive adversary asserts the offline-DP 2·H(n)
//! bound. It writes `BENCH_scenarios.json`.
//!
//! `--tenants <N>` switches to the multi-tenant harness: N tables behind
//! one engine — one worker pool, one buffer pool, one reorganizer, one
//! OREO instance per tenant (§VIII). Tenant 0 serves the zoo's adaptive
//! adversary (the reorg-hungry tenant); tenants 1..N serve quiet diurnal
//! streams over their own tables. The harness drives the interleaved
//! streams in lockstep and asserts per-tenant ledger parity (every
//! tenant's ledger byte-identical to an independent served-order `oreo-sim`
//! run of its substream), then measures one closed-loop cell,
//! asserts that every tenant's decided switches all published, and
//! reports per-tenant qps, p50/p99, pool hit%, switches, completed reorgs
//! and total cost. It writes `BENCH_multitenant.json`.
//!
//! Observability (`oreo-obs`): `--metrics-json <path>` streams JSONL
//! registry snapshots while the measured cell runs, `--metrics-prom
//! <path>` dumps the cell's final registry in Prometheus text format, and
//! `--trace <path>` writes the parity run's policy decision trace.
//!
//! Flags: [`FLAGS`]; any other argument exits with status 2.

use oreo_bench::common::{
    arg_value, check_args, default_config, json_path_arg, make_stream, write_json_report, Json,
    Scale,
};
use oreo_core::{CostLedger, OreoConfig};
use oreo_engine::{
    Engine, EngineConfig, EngineStats, ObsConfig, ServeMode, TenantSpec, TenantStats,
};
use oreo_obs::{render_trace, Registry};
use oreo_sim::{
    adversarial_bound, compare_oreo_static, default_spec, fmt_f, make_generator, run_policy,
    zoo_stream, PolicySetup, RunResult, Schedule, Technique,
};
use oreo_workload::{
    telemetry_bundle, tpch_bundle, DatasetBundle, QueryStream, Scenario, ScenarioConfig,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Every flag this binary parses.
const FLAGS: &[&str] = &[
    "--quick",
    "--tiered",
    "--json <path>",
    "--scenario suite",
    "--tenants <n>",
    "--metrics-json <path>",
    "--metrics-prom <path>",
    "--trace <path>",
];

/// Worker threads of the measured cell.
const CELL_WORKERS: usize = 2;

/// Queries in the default mode's stream.
fn serving_queries(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 2_000,
        Scale::Full => 10_000,
    }
}

/// Queries per scenario in `--scenario suite` mode: long enough that every
/// zoo phase amortizes α at the paper's ratio (~1 500 queries per phase at
/// α = 80; see the header of `oreo-sim`'s `tests/policy_ordering.rs`) *and*
/// that enough distinct
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
fn scenario_config(seed: u64) -> OreoConfig {
    OreoConfig {
        window: 100,
        generation_interval: 100,
        ..default_config(seed)
    }
}

/// The additive constant `c` of the asserted adversarial bound
/// `cost(OREO) ≤ 2·H(n)·cost(OFF) + c·α`. The proof grants O(α) for the
/// phase in flight; the full framework adds estimate-vs-exact noise
/// (decisions on sample estimates, billing on exact models), measured well
/// inside this slack — see `tests/competitive_ratio.rs`, which asserts the
/// same constant.
const SUITE_SLACK_ALPHAS: f64 = 8.0;

/// A fresh generation root for one tiered run (removed after the run).
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

/// Remove a tiered run's generation root once the engine is done with it.
fn cleanup(mode: &ServeMode) {
    if let ServeMode::Tiered { root } = mode {
        let _ = std::fs::remove_dir_all(root);
    }
}

fn serve_mode_label(tiered: bool) -> &'static str {
    if tiered {
        "tiered"
    } else {
        "memory"
    }
}

/// The observability flags: exporters on the measured cell, the decision
/// trace on the parity run.
struct ObsFlags {
    metrics_json: Option<PathBuf>,
    metrics_prom: Option<PathBuf>,
    trace: Option<PathBuf>,
}

impl ObsFlags {
    fn from_args() -> Self {
        Self {
            metrics_json: arg_value("--metrics-json").map(PathBuf::from),
            metrics_prom: arg_value("--metrics-prom").map(PathBuf::from),
            trace: arg_value("--trace").map(PathBuf::from),
        }
    }

    /// The engine-side config for the measured cell (no journal — the
    /// bounded event journal runs on the parity replay).
    fn cell_config(&self, label: &str) -> ObsConfig {
        ObsConfig {
            metrics_json: self.metrics_json.clone(),
            metrics_prom: self.metrics_prom.clone(),
            label: label.into(),
            ..Default::default()
        }
    }
}

/// The two parities of one lockstep replay, each from its own comparison.
struct Parity {
    /// The engine's ledger and switch count equal the simulator's.
    ledger: bool,
    /// Replaying the event journal reproduces the engine's ledger.
    journal: bool,
}

/// Replay `stream` through the engine's default configuration at
/// [`CELL_WORKERS`] workers in the measured serve mode, in lockstep and
/// with the event journal enabled, and assert two parities: the engine's
/// ledger equals `sim`, the served-order `oreo-sim` run of the same stream
/// under `config`, and replaying the journal's policy events
/// ([`CostLedger::replay`]) reproduces the engine's ledger bit-for-bit.
/// Writes the rendered decision trace to `trace`, if given.
fn assert_parity(
    bundle: &DatasetBundle,
    stream: &QueryStream,
    config: &OreoConfig,
    sim: &RunResult,
    tiered: bool,
    trace: Option<&Path>,
) -> Parity {
    let mode = serve_mode(tiered, "parity");
    // Lifecycle spans cost ~5 events/query plus policy events; size the
    // ring so a full replay never overwrites.
    let journal_capacity = stream.queries.len() * 8 + 4096;
    let engine = Engine::start(
        Arc::clone(&bundle.table),
        default_spec(bundle, config.partitions, config.seed),
        make_generator(Technique::QdTree, bundle),
        config.clone(),
        EngineConfig::default()
            .with_workers(CELL_WORKERS)
            .with_mode(mode.clone())
            .with_journal_capacity(journal_capacity),
    );
    for q in &stream.queries {
        engine.submit(q.clone());
        engine.drain();
    }
    let parity = engine.shutdown();
    cleanup(&mode);
    let ledger = parity.ledger == sim.ledger && parity.switches == sim.switches;
    println!(
        "ledger parity vs oreo-sim served-order OREO ({}, {} workers, lockstep): {} (engine \
         total {:.2}, sim total {:.2}, switches {} / {})",
        parity.mode.label(),
        parity.workers,
        if ledger { "EXACT" } else { "MISMATCH" },
        parity.ledger.total(),
        sim.ledger.total(),
        parity.switches,
        sim.switches,
    );
    assert!(
        ledger,
        "the lockstep engine's ledger must replay oreo-sim's served order exactly"
    );
    let replayed = CostLedger::replay(&parity.events);
    let journal = parity.events_dropped == 0 && replayed == parity.ledger;
    println!(
        "journal replay parity: {} ({} events, {} dropped, replayed total {:.2})",
        if journal { "EXACT" } else { "MISMATCH" },
        parity.events.len(),
        parity.events_dropped,
        replayed.total(),
    );
    assert!(
        journal,
        "replaying the event journal must reproduce the engine ledger bit-for-bit \
         (dropped {}, replayed {:?} vs ledger {:?})",
        parity.events_dropped, replayed, parity.ledger
    );
    if let Some(path) = trace {
        match std::fs::write(path, render_trace(&parity.events)) {
            Ok(()) => println!(
                "decision trace: {} events written to {}",
                parity.events.len(),
                path.display()
            ),
            Err(e) => eprintln!("decision trace write to {path:?} failed: {e}"),
        }
    }
    Parity { ledger, journal }
}

fn print_degradations(tag: &str, stats: &EngineStats) {
    for e in &stats.tiered_errors {
        eprintln!("[{tag}] disk-tier degradation: {e}");
    }
}

/// The fields every measured cell reports; `--tenants` adds its
/// per-tenant rows to the same object.
fn cell_fields(elapsed: f64, stats: &EngineStats, tiered: bool) -> Vec<(&'static str, Json)> {
    let opt = |v: Option<f64>| v.map_or(Json::Null, Json::from);
    vec![
        ("elapsed_s", Json::from(elapsed)),
        ("qps_total", Json::from(stats.queries as f64 / elapsed)),
        ("p50_us", Json::from(stats.latency.p50)),
        ("p99_us", Json::from(stats.latency.p99)),
        ("switches", Json::from(stats.switches)),
        ("reorgs_completed", Json::from(stats.snapshots_published)),
        ("mean_delta_queries", opt(stats.mean_delta_queries())),
        ("mean_delta_s", opt(stats.mean_delta_seconds())),
        ("alpha_empirical", opt(stats.empirical_alpha())),
        ("pool_hit_rate", opt(tiered.then(|| stats.pool_hit_rate()))),
        ("total_cost", Json::from(stats.ledger.total())),
    ]
}

/// A cell is healthy when no construction outlived the engine's
/// `ADMISSION_GUARD`: no query went past a run-ahead bound on the guard
/// (`core.admission_overruns`) and no boundary was dropped unbuilt for a
/// newer one (`superseded`).
fn assert_healthy(tag: &str, registry: &Registry, stats: &EngineStats) {
    assert_eq!(
        registry.counter("core.admission_overruns").get(),
        0,
        "[{tag}] queries went past a run-ahead bound on the fault guard"
    );
    for ten in &stats.tenants {
        assert_eq!(
            ten.manager.superseded, 0,
            "[{tag}] tenant {}: boundaries superseded",
            ten.name
        );
    }
}

fn main() {
    check_args(FLAGS);
    let scale = Scale::from_args();
    let tiered = std::env::args().any(|a| a == "--tiered");
    let json_path = json_path_arg();

    if let Some(n) = arg_value("--tenants") {
        let n: usize = n.parse().unwrap_or(0);
        assert!(
            (2..=8).contains(&n),
            "--tenants takes 2..=8 co-tenants, got {n}"
        );
        run_multitenant(n, scale, tiered, json_path, &ObsFlags::from_args());
    } else if arg_value("--scenario").is_some() {
        run_suite(scale, tiered, json_path);
    } else {
        run_default(scale, tiered, json_path, &ObsFlags::from_args());
    }
}

/// The TPC-H drift stream: lockstep ledger and journal-replay parity, then
/// one measured cell.
fn run_default(scale: Scale, tiered: bool, json_path: Option<PathBuf>, obs: &ObsFlags) {
    let queries = serving_queries(scale);
    let hw = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("== Serving throughput: parity gates + one measured cell ==");
    println!(
        "scale: {} ({} rows, {queries} queries, serve mode: {}, {hw} hardware threads available)",
        scale.label(),
        scale.rows(),
        serve_mode_label(tiered),
    );
    println!();

    let bundle = tpch_bundle(scale.rows(), 1);
    let mut stream = make_stream(&bundle, scale, 2);
    stream.queries.truncate(queries);
    let config = default_config(3);

    // Parity runs in the *same* serve mode as the measured cell, so the
    // check covers the tiered path too.
    let setup = PolicySetup::new(bundle.clone(), Technique::QdTree, config.clone());
    let sim = run_policy(&mut setup.scheduled(Schedule::Served), &stream.queries, 0);
    let parity = assert_parity(
        &bundle,
        &stream,
        &config,
        &sim,
        tiered,
        obs.trace.as_deref(),
    );
    println!();

    // The measured cell: the whole stream submitted open-loop to the
    // engine's default configuration (measured Δ, background reorganizer).
    let mode = serve_mode(tiered, "cell");
    let engine = Engine::start(
        Arc::clone(&bundle.table),
        default_spec(&bundle, config.partitions, config.seed),
        make_generator(Technique::QdTree, &bundle),
        config.clone(),
        EngineConfig::default()
            .with_workers(CELL_WORKERS)
            .with_mode(mode.clone())
            .with_obs(obs.cell_config("cell")),
    );
    let registry = Arc::clone(engine.registry());
    let started = Instant::now();
    for q in &stream.queries {
        engine.submit(q.clone());
    }
    engine.drain();
    let elapsed = started.elapsed().as_secs_f64();
    let stats = engine.shutdown();
    cleanup(&mode);
    print_degradations("cell", &stats);
    assert_healthy("cell", &registry, &stats);
    println!(
        "[cell] {CELL_WORKERS} workers: {} qps, p50 {} µs, p99 {} µs, {} switches, {} reorgs, \
         mean Δ = {} queries / {}s",
        fmt_f(stats.queries as f64 / elapsed, 0),
        fmt_f(stats.latency.p50, 0),
        fmt_f(stats.latency.p99, 0),
        stats.switches,
        stats.snapshots_published,
        stats
            .mean_delta_queries()
            .map_or("-".into(), |d| fmt_f(d, 1)),
        stats
            .mean_delta_seconds()
            .map_or("-".into(), |d| fmt_f(d, 3)),
    );
    if tiered {
        let pool = stats.pool.unwrap_or_default();
        println!(
            "[cell] empirical α = {} (cold {}, warm {}) beside the same stream's Δ; buffer \
             pool {:.1}% hit rate ({} hits / {} misses, {} evictions)",
            stats.empirical_alpha().map_or("-".into(), |a| fmt_f(a, 1)),
            stats.alpha_cold().map_or("-".into(), |a| fmt_f(a, 1)),
            stats.alpha_warm().map_or("-".into(), |a| fmt_f(a, 1)),
            stats.pool_hit_rate() * 100.0,
            pool.hits,
            pool.misses,
            pool.evictions,
        );
    }
    assert_eq!(
        stats.snapshots_published, stats.switches,
        "every decided switch must publish its layout"
    );

    if let Some(path) = json_path {
        let doc = Json::obj([
            ("benchmark", Json::from("serve_throughput")),
            ("scale", Json::from(scale.label())),
            ("serve_mode", Json::from(serve_mode_label(tiered))),
            ("dataset", Json::from(bundle.name)),
            ("rows", Json::from(scale.rows())),
            ("queries", Json::from(queries)),
            ("workers", Json::from(CELL_WORKERS)),
            ("hardware_threads", Json::from(hw)),
            ("ledger_parity_with_sim", Json::from(parity.ledger)),
            ("journal_replay_parity", Json::from(parity.journal)),
            ("cell", Json::obj(cell_fields(elapsed, &stats, tiered))),
        ]);
        write_json_report(&path, &doc);
    }
}

/// The whole zoo: per scenario, the simulator comparison (OREO vs Static;
/// the 2·H(n) offline-DP bound for the adversary) and the lockstep engine's
/// parity with the simulator's served-order OREO run. Asserts the zoo's
/// regression claims and writes `BENCH_scenarios.json`.
fn run_suite(scale: Scale, tiered: bool, json_path: Option<PathBuf>) {
    let seed = 3;
    let queries = suite_queries(scale);

    println!("== Scenario suite: workload zoo regression trajectory ==");
    println!(
        "scale: {} ({} rows, {} queries/scenario, serve mode: {}, α = {})",
        scale.label(),
        scale.rows(),
        queries,
        serve_mode_label(tiered),
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

        println!(
            "[{:>11}] sim: OREO {:>8} vs Static {:>8} ({}{:.1}%), {} switches",
            scenario.name(),
            fmt_f(oreo_total, 1),
            fmt_f(static_total, 1),
            if beats_static { "-" } else { "+" },
            ((oreo_total - static_total) / static_total * 100.0).abs(),
            oreo_run.switches,
        );
        let served = run_policy(&mut setup.scheduled(Schedule::Served), &stream.queries, 0);
        let parity = assert_parity(&bundle, &stream, &config, &served, tiered, None);

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
            ("ledger_parity_with_sim", Json::from(parity.ledger)),
            ("journal_replay_parity", Json::from(parity.journal)),
        ]));
    }

    println!();
    let doc = Json::obj([
        ("benchmark", Json::from("scenario_suite")),
        ("scale", Json::from(scale.label())),
        ("serve_mode", Json::from(serve_mode_label(tiered))),
        ("dataset", Json::from(bundle.name)),
        ("rows", Json::from(scale.rows())),
        ("queries_per_scenario", Json::from(queries)),
        ("alpha", Json::from(default_config(seed).alpha)),
        ("adversarial_bound", bound_json),
        ("scenarios", Json::Arr(entries)),
    ]);
    let path = json_path.unwrap_or_else(|| PathBuf::from("BENCH_scenarios.json"));
    write_json_report(&path, &doc);

    // The zoo's two regression claims, asserted so a run of this mode gates
    // on them (engine parity is asserted per scenario above).
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
         non-adversarial scenarios; lockstep engine parity EXACT on all {}",
        Scenario::ALL.len() - 1,
        Scenario::ALL.len(),
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
/// framework's modeled cost; on a worker's own time in the measured
/// cell, with the tenant's stream held a quarter interval past the
/// boundary), and one generation pass costs
/// tens of milliseconds — if a quiet tenant regenerates every 100 queries,
/// its own p99 is generation stalls, not co-tenant interference. Quiet
/// tenants are stable workloads: they
/// regenerate rarely (well under 1% of queries), keep a small training
/// sample, and a halved partition count.
fn multitenant_config(seed: u64) -> OreoConfig {
    OreoConfig {
        window: 200,
        generation_interval: 1_500,
        data_sample_rows: 250,
        partitions: 32,
        ..default_config(seed)
    }
}

/// One tenant of the multi-tenant harness: its own table, framework
/// config and zoo stream.
struct TenantCase {
    name: String,
    scenario: Scenario,
    bundle: DatasetBundle,
    config: OreoConfig,
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
/// drain, assert the run healthy ([`assert_healthy`]), and return
/// (elapsed, stats). `closed_loop` bounds each tenant
/// to its [`TenantCase::inflight`] outstanding queries (the measured
/// cell); otherwise the run is the parity replay, in lockstep: each query
/// is submitted once the engine has drained the one before.
fn run_multitenant_cell(
    cases: &[TenantCase],
    config: EngineConfig,
    closed_loop: bool,
) -> (f64, EngineStats) {
    let engine = Engine::start_tenants(cases.iter().map(TenantCase::spec).collect(), config);
    let registry = Arc::clone(engine.registry());
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
                    engine.drain();
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
    print_degradations("multitenant", &stats);
    assert_healthy("multitenant", &registry, &stats);
    (elapsed, stats)
}

fn tenant_json(case: &TenantCase, ten: &TenantStats, elapsed: f64, tiered: bool) -> Json {
    Json::obj([
        ("name", Json::from(ten.name.clone())),
        ("scenario", Json::from(case.scenario.name())),
        ("queries", Json::from(ten.queries)),
        ("qps", Json::from(ten.queries as f64 / elapsed)),
        ("p50_us", Json::from(ten.latency.p50)),
        ("p99_us", Json::from(ten.latency.p99)),
        ("mean_us", Json::from(ten.latency.mean)),
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
/// parity against independent served-order `oreo-sim` runs and measures
/// one closed-loop cell.
fn run_multitenant(
    n: usize,
    scale: Scale,
    tiered: bool,
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
            "tiered, shared buffer pool"
        } else {
            "memory"
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
                OreoConfig {
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

    // Per-tenant ledger parity: the N-tenant engine's interleaved stream,
    // driven in lockstep on the default configuration, must leave every
    // tenant's ledger byte-identical to an independent served-order
    // `oreo-sim` run of that tenant's substream — co-tenancy changes the
    // serving plane, never the bookkeeping.
    let parity_mode = serve_mode(tiered, "mt-parity");
    let (_, parity) = run_multitenant_cell(
        &cases,
        EngineConfig::default()
            .with_workers(CELL_WORKERS)
            .with_mode(parity_mode.clone()),
        false,
    );
    cleanup(&parity_mode);
    let mut parity_ok = true;
    for (case, ten) in cases.iter().zip(&parity.tenants) {
        let setup = PolicySetup::new(case.bundle.clone(), Technique::QdTree, case.config.clone());
        let sim = run_policy(
            &mut setup.scheduled(Schedule::Served),
            &case.stream.queries,
            0,
        );
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
        "every tenant of the N-tenant engine must replay its independent served-order oreo-sim \
         run exactly"
    );
    println!();

    // One measured closed-loop cell: the engine's default configuration
    // (measured Δ, background reorganizer) on two workers.
    let alpha = cases[0].config.alpha;
    let mode = serve_mode(tiered, "mt-serve");
    let config = EngineConfig::default()
        .with_workers(CELL_WORKERS)
        .with_mode(mode.clone())
        .with_obs(obs.cell_config("mt-serve"));
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
            fmt_f(ten.latency.p50, 0),
            fmt_f(ten.latency.p99, 0),
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
    for ten in &stats.tenants {
        assert_eq!(
            ten.snapshots_published, ten.switches,
            "tenant {}: every decided switch must publish its layout",
            ten.name
        );
    }
    let mut cell = cell_fields(elapsed, &stats, tiered);
    cell.push((
        "tenants",
        Json::Arr(
            cases
                .iter()
                .zip(&stats.tenants)
                .map(|(c, t)| tenant_json(c, t, elapsed, tiered))
                .collect(),
        ),
    ));

    let doc = Json::obj([
        ("benchmark", Json::from("serve_multitenant")),
        ("scale", Json::from(scale.label())),
        ("serve_mode", Json::from(serve_mode_label(tiered))),
        ("tenants", Json::from(n)),
        ("rows_per_tenant", Json::from(scale.rows())),
        ("queries_per_tenant", Json::from(queries)),
        ("alpha", Json::from(alpha)),
        ("ledger_parity_per_tenant", Json::from(parity_ok)),
        ("cell", Json::obj(cell)),
    ]);
    let path = json_path.unwrap_or_else(|| PathBuf::from("BENCH_multitenant.json"));
    write_json_report(&path, &doc);
}
