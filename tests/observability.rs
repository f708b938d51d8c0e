//! Workspace-level observability integration tests: the `oreo-obs` layer
//! must *describe* a run without *changing* it. The event journal of a
//! two-worker run driven in lockstep replays to exactly the `CostLedger`
//! the engine (and `oreo-sim`'s served-order OREO) computed — in memory mode and
//! through the disk tier — every query's lifecycle span is complete, and
//! the metrics exporter streams JSONL snapshots with the documented
//! schema and monotone counters.

use oreo::core::{CostLedger, OreoConfig};
use oreo::engine::{Engine, EngineConfig, EngineStats, ObsConfig, ServeMode};
use oreo::obs::EventKind;
use oreo::sim::{default_spec, make_generator, run_policy, PolicySetup, Schedule, Technique};
use oreo::workload::{tpch_bundle, DatasetBundle, QueryStream, StreamConfig};
use std::sync::Arc;
use std::time::Duration;

fn config(seed: u64) -> OreoConfig {
    OreoConfig {
        alpha: 30.0,
        partitions: 16,
        window: 100,
        generation_interval: 100,
        data_sample_rows: 1_000,
        seed,
        ..Default::default()
    }
}

fn workload(rows: usize, queries: usize) -> (DatasetBundle, QueryStream) {
    let bundle = tpch_bundle(rows, 1);
    let stream = bundle.stream(StreamConfig {
        total_queries: queries,
        segments: 4,
        seed: 2,
        ..Default::default()
    });
    (bundle, stream)
}

/// A two-worker run driven in lockstep, with the journal sized so nothing
/// is dropped.
fn run_lockstep(
    bundle: &DatasetBundle,
    stream: &QueryStream,
    seed: u64,
    mode: ServeMode,
) -> EngineStats {
    let engine = Engine::start(
        Arc::clone(&bundle.table),
        default_spec(bundle, config(seed).partitions, seed),
        make_generator(Technique::QdTree, bundle),
        config(seed),
        EngineConfig::default()
            .with_workers(2)
            .with_mode(mode)
            .with_journal_capacity(stream.queries.len() * 8 + 4096),
    );
    for q in &stream.queries {
        engine.submit(q.clone());
        engine.drain();
    }
    engine.shutdown()
}

/// Replaying the journal's policy events reproduces the engine's ledger
/// bit-for-bit, and that ledger is the served-order simulator's — the trace
/// is a faithful record of the bookkeeping, not an approximation of it.
fn assert_trace_parity(stats: &EngineStats, sim_ledger: &CostLedger, queries: u64) {
    assert_eq!(stats.events_dropped, 0, "journal sized for the run");
    let replayed = CostLedger::replay(&stats.events);
    assert_eq!(&replayed, &stats.ledger, "journal replay vs engine ledger");
    assert_eq!(&stats.ledger, sim_ledger, "engine ledger vs oreo-sim");

    // span coverage: every submitted query appears as a complete
    // enqueue → pickup → scan → complete lifecycle, exactly once each
    let mut enqueued = vec![0u32; queries as usize];
    let mut picked = vec![0u32; queries as usize];
    let mut scanned = vec![0u32; queries as usize];
    let mut completed = vec![0u32; queries as usize];
    for e in &stats.events {
        match e.kind {
            EventKind::QueryEnqueued { submit_id } => enqueued[submit_id as usize] += 1,
            EventKind::QueryPickup { submit_id } => picked[submit_id as usize] += 1,
            EventKind::QueryScanned { submit_id, .. } => scanned[submit_id as usize] += 1,
            EventKind::QueryCompleted { submit_id, .. } => completed[submit_id as usize] += 1,
            _ => {}
        }
    }
    for stage in [&enqueued, &picked, &scanned, &completed] {
        assert!(stage.iter().all(|&n| n == 1), "incomplete lifecycle span");
    }
    // policy events match the ledger's op counts
    let observed = stats
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::QueryObserved { .. }))
        .count() as u64;
    let decided = stats
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::SwitchDecided { .. }))
        .count() as u64;
    assert_eq!(observed, stats.ledger.queries);
    assert_eq!(decided, stats.switches);
}

#[test]
fn journal_replay_matches_sim_in_memory_mode() {
    let seed = 3;
    let (bundle, stream) = workload(4_000, 500);
    let setup = PolicySetup::new(bundle.clone(), Technique::QdTree, config(seed));
    let sim = run_policy(&mut setup.scheduled(Schedule::Served), &stream.queries, 0);

    let stats = run_lockstep(&bundle, &stream, seed, ServeMode::Memory);
    assert_trace_parity(&stats, &sim.ledger, 500);
}

#[test]
fn journal_replay_matches_sim_in_tiered_mode() {
    let seed = 3;
    let (bundle, stream) = workload(4_000, 500);
    let setup = PolicySetup::new(bundle.clone(), Technique::QdTree, config(seed));
    let sim = run_policy(&mut setup.scheduled(Schedule::Served), &stream.queries, 0);

    let root = std::env::temp_dir().join(format!("oreo-obs-tiered-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let stats = run_lockstep(
        &bundle,
        &stream,
        seed,
        ServeMode::Tiered { root: root.clone() },
    );
    let _ = std::fs::remove_dir_all(&root);
    assert_trace_parity(&stats, &sim.ledger, 500);
}

/// Extract `"key":<unsigned integer>` from one JSONL snapshot line.
fn extract_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The exporter writes ≥2 snapshots per run (initial + final at minimum),
/// every line carries the documented schema keys, and monotone counters
/// never decrease across successive snapshots.
#[test]
fn exporter_snapshots_have_schema_and_monotone_counters() {
    let seed = 3;
    let (bundle, stream) = workload(4_000, 600);
    let dir = std::env::temp_dir().join(format!("oreo-obs-export-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("metrics.jsonl");

    let engine = Engine::start(
        Arc::clone(&bundle.table),
        default_spec(&bundle, config(seed).partitions, seed),
        make_generator(Technique::QdTree, &bundle),
        config(seed),
        EngineConfig::default().with_workers(2).with_obs(ObsConfig {
            metrics_json: Some(path.clone()),
            metrics_interval: Some(Duration::from_millis(5)),
            label: "obs-test".into(),
            ..Default::default()
        }),
    );
    for q in &stream.queries {
        engine.submit(q.clone());
    }
    engine.drain();
    let stats = engine.shutdown();
    assert_eq!(stats.queries, 600);

    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 2, "want ≥2 snapshots, got {}", lines.len());

    for line in &lines {
        assert!(line.starts_with("{\"snapshot_seq\":"), "snapshot framing");
        assert!(line.ends_with('}'), "complete JSON object per line");
        for key in [
            "\"cell\":\"obs-test\"",
            "\"elapsed_s\":",
            "\"engine.latency_us\":{\"count\":",
            "\"p50\":",
            "\"p99\":",
            "\"pool.hit_rate\":",
            "\"alpha.hat\":",
            "\"engine.queries_submitted\":",
            "\"engine.queries_completed\":",
        ] {
            assert!(line.contains(key), "snapshot missing {key}: {line}");
        }
    }

    // monotone counters: snapshot_seq strictly increases, cumulative
    // counters never decrease
    for counter in [
        "snapshot_seq",
        "engine.queries_submitted",
        "engine.queries_completed",
        "engine.rows_scanned",
        "engine.bytes_scanned",
        "reorg.switches",
    ] {
        let series: Vec<u64> = lines
            .iter()
            .map(|l| extract_u64(l, counter).unwrap_or_else(|| panic!("no {counter} in {l}")))
            .collect();
        assert!(
            series.windows(2).all(|w| w[0] <= w[1]),
            "{counter} not monotone: {series:?}"
        );
    }
    let last = lines.last().unwrap();
    assert_eq!(extract_u64(last, "engine.queries_completed"), Some(600));
}
