//! The traced replay: the harness drives the same stream *itself*,
//! single-threaded, through the layers' public functions and records a
//! span around each call. Counts taken here repeat exactly; on the
//! read-only workloads the replay's ledger must equal `oreo-sim`'s.
//!
//! Call sequence per query — the engine's, made synchronous:
//! `CompiledPredicate::compile` → `SnapshotCell::pin` → `scan` /
//! `scan_pooled` → `Oreo::decide` → (on a switch decision: `materialize` →
//! `TieredStore::publish` → `SnapshotCell::publish` →
//! `Oreo::complete_reorg_with`) → `Oreo::settle`. Landing the switch
//! between `decide` and `settle` is exactly where `Oreo::observe`'s
//! `apply_due` lands it at the simulator's Δ = 0, which is why the ledgers
//! agree. Both halves are recorded as `core.oreo.observe`.

use crate::stats::{percentile, sorted};
use crate::trace::{self, Span};
use crate::workloads::{Inputs, Workload};
use oreo_core::{CostLedger, Oreo};
use oreo_engine::materialize;
use oreo_layout::{LayoutGenerator, LayoutSpec, QdTreeGenerator, SharedSpec};
use oreo_query::{CompiledPredicate, Query};
use oreo_sampling::SlidingWindow;
use oreo_sim::{run_policy, PolicySetup, Technique};
use oreo_storage::format::{decode_partition, encode_partition, partition_decodes};
use oreo_storage::{
    BufferPool, BufferPoolConfig, DeltaBuffer, MergePolicy, SnapshotCell, Table, TieredStore, Wal,
};
use rand::rngs::StdRng;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

thread_local! {
    /// Rows routed by `LayoutSpec::assign` calls made during the replay.
    static ASSIGNED_ROWS: Cell<u64> = const { Cell::new(0) };
}

/// `QdTreeGenerator` with a span around every build; the specs it returns
/// time their `assign`.
struct TimedGenerator(QdTreeGenerator);

impl LayoutGenerator for TimedGenerator {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn generate(
        &self,
        sample: &Table,
        workload: &[Query],
        k: usize,
        rng: &mut StdRng,
    ) -> SharedSpec {
        let inner = trace::span("layout.qdtree.build", || {
            self.0.generate(sample, workload, k, rng)
        });
        Arc::new(TimedSpec(inner))
    }
}

/// A layout spec with a span around every whole-table routing pass.
struct TimedSpec(SharedSpec);

impl LayoutSpec for TimedSpec {
    fn k(&self) -> usize {
        self.0.k()
    }

    fn route(&self, table: &Table, row: usize) -> u32 {
        self.0.route(table, row)
    }

    fn describe(&self) -> String {
        self.0.describe()
    }

    fn assign(&self, table: &Table) -> Vec<u32> {
        ASSIGNED_ROWS.with(|c| c.set(c.get() + table.num_rows() as u64));
        trace::span("layout.spec.assign", || self.0.assign(table))
    }
}

/// What a replay produced besides its spans.
pub struct Replay {
    /// The replay's cost ledger (compared with `oreo-sim`'s).
    pub ledger: CostLedger,
    /// Switch decisions.
    pub switches: u64,
    /// Wall-clock of the replay loop, seconds.
    pub wall_s: f64,
    /// Wall-clock when the first quarter of the stream was done, seconds.
    pub quarter_wall_s: f64,
    /// Scans that failed or disagreed with `expected` (failed operations).
    pub failed: u64,
    /// Counts and receipts gathered alongside the spans.
    pub values: BTreeMap<&'static str, f64>,
}

/// The serving state a replay drives — what the engine keeps per tenant.
/// [`drive`] hands back the final state for [`probes`] to measure on.
pub struct State {
    cell: SnapshotCell,
    tier: Option<(TieredStore, BufferPool)>,
}

/// Drive the first `limit` queries of `inputs` through the layers, with
/// the span recorder on (`record`) or off (the null recorder). Set-up —
/// building the policy core and the first snapshot — is outside both the
/// replay's wall-clock and its trace. `expected` holds the oracle's match
/// count per checked stream position.
pub fn drive(
    w: &Workload,
    inputs: &Inputs,
    root: &Path,
    limit: usize,
    record: bool,
    expected: &BTreeMap<usize, u64>,
) -> Result<(Replay, State), String> {
    let table = inputs.table();
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("replay: {what}: {e}");
    let initial: SharedSpec = Arc::new(TimedSpec(inputs.initial_spec()));
    let mut oreo = Oreo::new(
        Arc::clone(table),
        Arc::clone(&initial),
        Arc::new(TimedGenerator(QdTreeGenerator::new())),
        inputs.config.clone(),
    );
    let mut snapshot = materialize(table, &initial, oreo.physical_layout());
    let tier = match w.pool_bytes {
        Some(capacity_bytes) => {
            let (store, _) = TieredStore::create(root, &mut snapshot)
                .map_err(|e| fail("create tiered store", &e))?;
            let pool = BufferPool::new(BufferPoolConfig {
                capacity_bytes,
                ..BufferPoolConfig::default()
            });
            Some((store, pool))
        }
        None => None,
    };
    let state = State {
        cell: SnapshotCell::new(snapshot),
        tier,
    };
    let mut write_path = match &inputs.mutations {
        Some(_) => {
            let (wal, _) = Wal::open(&root.join("wal.log")).map_err(|e| fail("open wal", &e))?;
            let buffer = DeltaBuffer::new(
                Arc::clone(table.schema()),
                table.num_rows() as u64,
                MergePolicy::KBinomial { k: 2 },
            );
            Some((wal, buffer))
        }
        None => None,
    };
    let batches = inputs.mutations.as_ref().map_or(&[][..], |m| &m.batches);

    let mut failed = 0u64;
    let mut next_batch = 0usize;
    let mut reorgs = 0u64;
    let mut partitions_read = 0u64;
    let mut partitions_total = 0u64;
    let mut publish_bytes = 0u64;
    let mut wal_bytes = 0u64;
    let mut rows_appended = 0u64;
    let mut runs_max = 0usize;
    let mut column_decodes = 0u64;
    let mut quarter_wall_s = 0.0;
    let decodes_before = partition_decodes();
    ASSIGNED_ROWS.with(|c| c.set(0));
    if record {
        trace::start();
    }
    let started = Instant::now();
    for (index, query) in inputs.queries.iter().take(limit).enumerate() {
        let seq = index as u64;
        while next_batch < batches.len() && batches[next_batch].after_query <= index {
            let (wal, buffer) = write_path.as_mut().expect("mutations imply a write path");
            let ops = &batches[next_batch].ops;
            trace::root(
                "ingest",
                next_batch as u64,
                seq,
                || -> Result<(), String> {
                    let batch_seq = buffer.next_seq();
                    wal_bytes += trace::span("storage.wal.append", || wal.append(batch_seq, ops))
                        .map_err(|e| fail("wal append", &e))?;
                    let receipt = trace::span("storage.delta.apply", || buffer.apply(ops))
                        .map_err(|e| fail("delta apply", &e))?;
                    rows_appended += receipt.appended;
                    runs_max = runs_max.max(buffer.runs().count());
                    let mut overlaid = state.cell.pin().as_ref().clone();
                    overlaid.set_delta(buffer.overlay());
                    state.cell.publish(overlaid);
                    if receipt.rows_written > 0 {
                        // The engine bills merge work as that share of a rewrite.
                        let live = table.num_rows() as u64 + buffer.delta_rows();
                        let alpha = oreo.config().alpha;
                        oreo.charge_compaction(
                            alpha * receipt.rows_written as f64 / live.max(1) as f64,
                            receipt.rows_written,
                        );
                    }
                    Ok(())
                },
            )?;
            next_batch += 1;
        }
        trace::root("q", seq, seq, || -> Result<(), String> {
            let compiled = trace::span("query.compile", || {
                CompiledPredicate::compile(&query.predicate)
            });
            black_box(&compiled);
            let snapshot = trace::span("storage.snapshot.pin", || state.cell.pin());
            let scan = trace::span("storage.snapshot.scan", || match &state.tier {
                Some((_, pool)) => {
                    snapshot
                        .scan_pooled(&query.predicate, pool)
                        .unwrap_or_else(|_| {
                            failed += 1;
                            snapshot.scan(&query.predicate)
                        })
                }
                None => snapshot.scan(&query.predicate),
            });
            partitions_read += scan.partitions_read as u64;
            partitions_total += scan.partitions_total as u64;
            if state.tier.is_some() {
                // A pooled scan decodes one payload per predicate column of
                // every partition it reads.
                column_decodes += (scan.partitions_read * compiled.columns().len()) as u64;
            }
            if expected
                .get(&index)
                .is_some_and(|&want| want != scan.matches.len() as u64)
            {
                failed += 1;
            }
            let mut report = trace::span("core.oreo.observe", || oreo.decide(query));
            if let Some(target) = report.reorg_decision {
                trace::root("reorg", reorgs, seq, || -> Result<(), String> {
                    let spec = oreo.spec(target).expect("decided target has a spec");
                    let mut next = trace::span("engine.reorg.materialize", || {
                        materialize(table, &spec, target)
                    });
                    let exact = next.model();
                    let mut retired = None;
                    if let Some((store, _)) = &state.tier {
                        let receipt =
                            trace::span("storage.tiered.publish", || store.publish(&mut next))
                                .map_err(|e| fail("tiered publish", &e))?;
                        publish_bytes += receipt.bytes_written;
                        retired = Some(receipt.generation - 1);
                    }
                    trace::span("storage.snapshot.publish", || {
                        if let Some((_, buffer)) = &write_path {
                            next.set_delta(buffer.overlay());
                        }
                        state.cell.publish(next);
                        if let (Some((_, pool)), Some(generation)) = (&state.tier, retired) {
                            pool.invalidate_generation(0, generation);
                        }
                    });
                    trace::span("core.oreo.complete_reorg", || {
                        oreo.complete_reorg_with(target, Some(exact))
                    });
                    Ok(())
                })?;
                reorgs += 1;
            }
            trace::span("core.oreo.observe", || oreo.settle(query, &mut report));
            Ok(())
        })?;
        if index + 1 == (inputs.queries.len() / 4).max(1) {
            quarter_wall_s = started.elapsed().as_secs_f64();
        }
    }
    let wall_s = started.elapsed().as_secs_f64();

    let manager = oreo.manager_stats();
    let queries = limit.min(inputs.queries.len()) as f64;
    let mut values = BTreeMap::new();
    values.insert("queries", queries);
    values.insert("assigned_rows", ASSIGNED_ROWS.with(Cell::get) as f64);
    values.insert("states_max", oreo.max_states_seen() as f64);
    values.insert("generated", manager.generated as f64);
    values.insert("admitted", manager.admitted as f64);
    values.insert(
        "partitions_read_ratio",
        partitions_read as f64 / partitions_total.max(1) as f64,
    );
    values.insert(
        "decodes_per_q",
        (partition_decodes() - decodes_before + column_decodes) as f64 / queries,
    );
    values.insert(
        "bytes_per_publish",
        publish_bytes as f64 / reorgs.max(1) as f64,
    );
    values.insert(
        "wal_bytes_per_row",
        wal_bytes as f64 / rows_appended.max(1) as f64,
    );
    values.insert("delta_runs_max", runs_max as f64);
    let ledger = *oreo.ledger();
    values.insert("switches", oreo.switches() as f64);
    values.insert("query_cost_per_kq", ledger.query_cost * 1e3 / queries);
    values.insert(
        "reorg_cost_per_kq",
        (ledger.reorg_cost + ledger.compaction_cost) * 1e3 / queries,
    );
    let replay = Replay {
        ledger,
        switches: oreo.switches(),
        wall_s,
        quarter_wall_s,
        failed,
        values,
    };
    Ok((replay, state))
}

/// `oreo-sim`'s sequential OREO over the same stream: the ledger and
/// switch count the replay's must equal exactly.
pub fn sim_ledger(inputs: &Inputs) -> (CostLedger, u64) {
    let setup = PolicySetup::new(
        inputs.bundle.clone(),
        Technique::QdTree,
        inputs.config.clone(),
    );
    let result = run_policy(&mut setup.oreo(), &inputs.queries, 0);
    (result.ledger, result.switches)
}

/// Micro-probes of public functions the replay cannot reach from outside
/// (they run inside `Oreo` or behind the scan): timed on the replay's own
/// final state, after the replay's wall-clock has been taken. Each probe is
/// a `probe/<n>` root in the trace.
pub fn probes(
    w: &Workload,
    inputs: &Inputs,
    replay: &mut Replay,
    state: State,
) -> Result<(), String> {
    let mut ordinal = 0u64;
    let mut probe = |name: &'static str, f: &mut dyn FnMut()| -> f64 {
        let started = Instant::now();
        trace::root("probe", ordinal, 0, || trace::span(name, &mut *f));
        ordinal += 1;
        started.elapsed().as_secs_f64()
    };

    // sampling.sliding: the per-query window push the layout manager makes.
    let mut clones: Vec<Query> = inputs.queries.clone();
    let mut window = SlidingWindow::new(inputs.config.window);
    let pushed = clones.len() as f64;
    let push_s = probe("sampling.sliding.push", &mut || {
        for q in clones.drain(..) {
            window.push(q);
        }
    });
    black_box(&window);
    replay
        .values
        .insert("sliding_push_ns_per_q", push_s * 1e9 / pushed);

    // storage.format: encode and decode every partition of the final
    // snapshot; throughput is over the encoded bytes.
    let snapshot = state.cell.pin();
    let schema = Arc::clone(inputs.table().schema());
    let mut encoded = Vec::with_capacity(snapshot.num_partitions());
    let encode_s = probe("storage.format.encode", &mut || {
        encoded = snapshot
            .partitions()
            .iter()
            .map(|part| encode_partition(&part.data))
            .collect();
    });
    let encoded_mb = encoded.iter().map(|b| b.len()).sum::<usize>() as f64 / 1e6;
    let mut decode_error = None;
    let decode_s = probe("storage.format.decode", &mut || {
        for bytes in &encoded {
            match decode_partition(&schema, bytes) {
                Ok(table) => {
                    black_box(table);
                }
                Err(e) => decode_error = Some(e.to_string()),
            }
        }
    });
    if let Some(e) = decode_error {
        return Err(format!(
            "probe: decode of a just-encoded partition failed: {e}"
        ));
    }
    replay
        .values
        .insert("encode_mb_per_s", encoded_mb / encode_s);
    replay
        .values
        .insert("decode_mb_per_s", encoded_mb / decode_s);

    // storage.bufpool: every file of the current generation read whole
    // through a fresh pool that fits it — once cold, once warm.
    if let (true, Some(generation)) = (w.tiered(), snapshot.generation()) {
        let pool = BufferPool::new(BufferPoolConfig::default());
        let mut files: Vec<(std::path::PathBuf, u64)> = std::fs::read_dir(generation.dir())
            .map_err(|e| format!("probe: list generation: {e}"))?
            .filter_map(|entry| {
                let entry = entry.ok()?;
                let len = entry.metadata().ok()?.len();
                (len > 0).then(|| (entry.path(), len))
            })
            .collect();
        files.sort();
        for key in ["pool_read_cold_us_p50", "pool_read_warm_us_p50"] {
            let mut micros = Vec::with_capacity(files.len());
            let mut read_error = None;
            probe("storage.bufpool.read", &mut || {
                for (file, (path, len)) in files.iter().enumerate() {
                    let started = Instant::now();
                    match pool.read_range(generation, file as u32, path, 0, *len) {
                        Ok(read) => {
                            black_box(read);
                        }
                        Err(e) => read_error = Some(e.to_string()),
                    }
                    micros.push(started.elapsed().as_secs_f64() * 1e6);
                }
            });
            if let Some(e) = read_error {
                return Err(format!("probe: pool read failed: {e}"));
            }
            replay.values.insert(key, percentile(&sorted(micros), 0.5));
        }
    }
    Ok(())
}

/// Durations of the spans named `name`, summed per stream position, in
/// nanoseconds (the two halves of `core.oreo.observe` count as one).
fn per_query_ns(spans: &[Span], name: &str) -> Vec<f64> {
    let mut by_query: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *by_query.entry(s.query).or_default() += s.duration_ns();
    }
    by_query.into_values().map(|ns| ns as f64).collect()
}

/// Durations of every span named `name`, nanoseconds.
fn durations_ns(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64)
        .collect()
}

/// Fold the spans of a finished replay into `replay.values`: the timed
/// half of the per-layer table. `null_quarter_wall_s` is the first
/// quarter's wall-clock under the null recorder.
pub fn summarize(replay: &mut Replay, spans: &[Span], null_quarter_wall_s: f64) {
    let queries = replay.values["queries"];
    let kq = queries / 1e3;
    let total = |name: &str| durations_ns(spans, name).iter().sum::<f64>();
    let p50 = |name: &str, scale: f64| percentile(&sorted(durations_ns(spans, name)), 0.5) / scale;
    let selfs = trace::self_times_ns(spans);

    let observe = sorted(per_query_ns(spans, "core.oreo.observe"));
    let core_busy_ns = total("core.oreo.observe") + total("core.oreo.complete_reorg");
    let replay_self_ns: u64 = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name != "probe" && !in_probe(spans, s))
        .map(|(_, &ns)| ns)
        .sum();
    let v = &mut replay.values;
    v.insert("compile_ns_per_q", total("query.compile") / queries);
    v.insert("qdtree_build_ms_p50", p50("layout.qdtree.build", 1e6));
    v.insert(
        "qdtree_builds",
        durations_ns(spans, "layout.qdtree.build").len() as f64,
    );
    let assigned = v["assigned_rows"].max(1.0);
    v.insert("assign_ns_per_row", total("layout.spec.assign") / assigned);
    v.insert("observe_us_p50", percentile(&observe, 0.5) / 1e3);
    v.insert(
        "observe_us_max",
        observe.last().copied().unwrap_or(0.0) / 1e3,
    );
    v.insert("core_busy_s_per_kq", core_busy_ns / 1e9 / kq);
    v.insert("scan_us_p50", p50("storage.snapshot.scan", 1e3));
    v.insert(
        "scan_busy_s_per_kq",
        total("storage.snapshot.scan") / 1e9 / kq,
    );
    v.insert("tiered_publish_ms_p50", p50("storage.tiered.publish", 1e6));
    v.insert("wal_append_us_p50", p50("storage.wal.append", 1e3));
    v.insert("delta_apply_us_p50", p50("storage.delta.apply", 1e3));
    v.insert("materialize_ms_p50", p50("engine.reorg.materialize", 1e6));
    v.insert("closure_ratio", replay_self_ns as f64 / 1e9 / replay.wall_s);
    v.insert(
        "overhead_ratio",
        replay.quarter_wall_s / null_quarter_wall_s,
    );
}

/// Whether `span` lies under a `probe/<n>` root.
fn in_probe(spans: &[Span], span: &Span) -> bool {
    let mut parent = span.parent;
    while let Some(p) = parent {
        if spans[p].name == "probe" {
            return true;
        }
        parent = spans[p].parent;
    }
    false
}
