//! One untraced repetition: a fresh engine, the closed loop, and the raw
//! numbers the orchestrator takes medians of.
//!
//! A repetition runs in a child process of its own (see `main.rs`), so its
//! `VmHWM` is that repetition's peak and nothing else's. The child prints
//! `key<TAB>value` lines; [`RepOutput::parse`] reads them back.

use crate::stats::{percentile, sorted};
use crate::workloads::{Inputs, Workload, CHECK_EVERY, INFLIGHT, WORKERS};
use oreo_engine::{Engine, EngineConfig, EngineStats, ResultHandle};
use oreo_layout::QdTreeGenerator;
use oreo_storage::{DeltaBuffer, MergePolicy, TieredStore, Wal};
use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Largest latencies each repetition reports: a little over 0.1 % of the
/// most repetitions a run can have (12 × 8 000 queries).
pub const TAIL_SAMPLES: usize = 100;

/// What one repetition measured.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RepOutput {
    /// Named measurements (internal keys; `metrics.rs` maps them to the
    /// published metric names).
    pub values: BTreeMap<String, f64>,
    /// `(stream position, match count)` of every checked query.
    pub checks: Vec<(usize, u64)>,
    /// The repetition's [`TAIL_SAMPLES`] largest harness latencies,
    /// microseconds, descending — enough for the orchestrator to take the
    /// run's p99.9 over the pooled repetitions.
    pub tail_us: Vec<f64>,
    /// Engine-reported degradations (`tiered_errors` entries).
    pub errors: Vec<String>,
}

impl RepOutput {
    fn set(&mut self, key: &str, value: f64) {
        self.values.insert(key.to_string(), value);
    }

    /// A measurement by key (0 when the repetition did not report it).
    pub fn get(&self, key: &str) -> f64 {
        self.values.get(key).copied().unwrap_or(0.0)
    }

    /// The child's stdout protocol.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.values {
            out.push_str(&format!("v\t{k}\t{v:?}\n"));
        }
        for (seq, count) in &self.checks {
            out.push_str(&format!("c\t{seq}\t{count}\n"));
        }
        for us in &self.tail_us {
            out.push_str(&format!("t\t{us:?}\n"));
        }
        for e in &self.errors {
            out.push_str(&format!("e\t{}\n", e.replace(['\n', '\t'], " ")));
        }
        out
    }

    /// Inverse of [`RepOutput::render`]; `Err` names the offending line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut out = Self::default();
        for line in text.lines() {
            let fields: Vec<&str> = line.split('\t').collect();
            let bad = || format!("unreadable repetition output line {line:?}");
            match fields.as_slice() {
                ["v", key, value] => {
                    out.set(key, value.parse().map_err(|_| bad())?);
                }
                ["c", seq, count] => out.checks.push((
                    seq.parse().map_err(|_| bad())?,
                    count.parse().map_err(|_| bad())?,
                )),
                ["t", us] => out.tail_us.push(us.parse().map_err(|_| bad())?),
                ["e", msg] => out.errors.push(msg.to_string()),
                _ => return Err(bad()),
            }
        }
        Ok(out)
    }
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn micros(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Latency samples of one repetition, microseconds.
#[derive(Default)]
struct Samples {
    /// Harness latency: submit → `wait()` return.
    latency: Vec<f64>,
    /// Engine service latency (`QueryOutcome::latency`).
    service: Vec<f64>,
    /// Harness latency − service latency.
    queue_wait: Vec<f64>,
    /// `Engine::ingest` call durations.
    ack: Vec<f64>,
}

/// Wait for the oldest outstanding query and record it.
fn complete(
    inflight: &mut VecDeque<(usize, Instant, ResultHandle)>,
    samples: &mut Samples,
    checks: &mut Vec<(usize, u64)>,
) {
    let (index, submitted, handle) = inflight.pop_front().expect("a query is outstanding");
    let outcome = handle.wait();
    let latency = micros(submitted.elapsed());
    let service = micros(outcome.latency);
    samples.latency.push(latency);
    samples.service.push(service);
    samples.queue_wait.push((latency - service).max(0.0));
    if index % CHECK_EVERY == 0 {
        checks.push((index, outcome.scan.matches.len() as u64));
    }
}

/// Reopen a tiered root the way a restarted process would and count the
/// live rows it recovers; returns `(live rows, open wall in ms)`.
fn reopen(root: &Path, inputs: &Inputs) -> Result<(u64, f64), String> {
    let schema = Arc::clone(inputs.table().schema());
    let started = Instant::now();
    let (_store, mut snapshot, report) =
        TieredStore::open(root, &schema).map_err(|e| format!("tiered reopen failed: {e}"))?;
    let (_wal, recovery) =
        Wal::open(&root.join("wal.log")).map_err(|e| format!("wal reopen failed: {e}"))?;
    let open_ms = started.elapsed().as_secs_f64() * 1e3;
    let mut buffer = DeltaBuffer::resume(
        schema,
        report.next_row,
        report.folded,
        MergePolicy::KBinomial { k: 2 },
    );
    for record in recovery.records.iter().filter(|r| r.seq > report.folded) {
        buffer
            .apply(&record.ops)
            .map_err(|e| format!("wal replay of batch {} failed: {e}", record.seq))?;
    }
    snapshot.set_delta(buffer.overlay());
    Ok((snapshot.live_rows(), open_ms))
}

/// Run one repetition of `w` over `inputs`, serving from `root` when the
/// workload is tiered.
pub fn run(w: &Workload, inputs: &Inputs, root: &Path) -> RepOutput {
    let mut out = RepOutput::default();

    // ---- set-up: initial layout + Engine::start, up to the first submit
    let setup_started = Instant::now();
    let initial = inputs.initial_spec();
    let mut config = EngineConfig::default().with_workers(WORKERS);
    if let Some(pool_bytes) = w.pool_bytes {
        config = config.tiered(root).with_buffer_pool_bytes(pool_bytes);
    }
    let engine = Engine::start(
        Arc::clone(inputs.table()),
        initial,
        Arc::new(QdTreeGenerator::new()),
        inputs.config.clone(),
        config,
    );
    out.set("setup_s", setup_started.elapsed().as_secs_f64());

    // ---- measured phase: closed loop, INFLIGHT outstanding
    let mut samples = Samples::default();
    let mut inflight = VecDeque::with_capacity(INFLIGHT);
    let batches = inputs.mutations.as_ref().map_or(&[][..], |m| &m.batches);
    let mut next_batch = 0usize;
    let mut ingest_failures = 0u64;
    let started = Instant::now();
    for (index, query) in inputs.queries.iter().enumerate() {
        while next_batch < batches.len() && batches[next_batch].after_query <= index {
            // Nothing is in flight while a batch lands, so every query sees
            // a whole number of batches and the oracle can replay it.
            while !inflight.is_empty() {
                complete(&mut inflight, &mut samples, &mut out.checks);
            }
            let ack_started = Instant::now();
            if engine.ingest(&batches[next_batch].ops).is_err() {
                ingest_failures += 1;
            }
            samples.ack.push(micros(ack_started.elapsed()));
            next_batch += 1;
        }
        if inflight.len() == INFLIGHT {
            complete(&mut inflight, &mut samples, &mut out.checks);
        }
        let query = query.clone();
        inflight.push_back((index, Instant::now(), engine.submit_tracked(query)));
    }
    while !inflight.is_empty() {
        complete(&mut inflight, &mut samples, &mut out.checks);
    }
    let wall = started.elapsed().as_secs_f64();

    // ---- outside the timed phase
    let live_rows = engine.live_rows();
    let stats = engine.shutdown();
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("wall_s", wall);
    out.set("live_rows", live_rows as f64);
    out.set("ingest_failures", ingest_failures as f64);
    record_samples(&mut out, samples);
    record_stats(&mut out, &stats, wall, inputs);
    out.errors = stats.tiered_errors.clone();
    if w.tiered() {
        match reopen(root, inputs) {
            Ok((live, open_ms)) => {
                out.set("recovered_live_rows", live as f64);
                out.set("open_ms", open_ms);
            }
            Err(e) => out.errors.push(e),
        }
    }
    out
}

fn record_samples(out: &mut RepOutput, samples: Samples) {
    let ack_total_s = samples.ack.iter().sum::<f64>() / 1e6;
    out.set("ack_total_s", ack_total_s);
    let latency = sorted(samples.latency);
    let service = sorted(samples.service);
    let queue_wait = sorted(samples.queue_wait);
    let ack = sorted(samples.ack);
    out.set("latency_p50_us", percentile(&latency, 0.5));
    out.tail_us = latency.iter().rev().take(TAIL_SAMPLES).copied().collect();
    out.set("service_p50_us", percentile(&service, 0.5));
    out.set("queue_wait_p50_us", percentile(&queue_wait, 0.5));
    out.set("queue_wait_p999_us", percentile(&queue_wait, 0.999));
    out.set("ack_p50_us", percentile(&ack, 0.5));
}

/// Copy the public `EngineStats` / `PoolStats` / `ReorgWindow` fields the
/// per-layer table is built from.
fn record_stats(out: &mut RepOutput, stats: &EngineStats, wall: f64, inputs: &Inputs) {
    let queries = stats.queries as f64;
    out.set("queries", queries);
    out.set("ledger_total", stats.ledger.total());
    out.set("bytes_scanned", stats.bytes_scanned as f64);
    out.set("table_bytes", stats.table_bytes as f64);
    out.set("rows_scanned", stats.rows_scanned as f64);
    out.set("scan_seconds", stats.scan_seconds);
    out.set("chunks_evaluated", stats.chunks_evaluated as f64);
    out.set("rows_short_circuited", stats.rows_short_circuited as f64);
    out.set("delta_bytes_scanned", stats.delta_bytes_scanned as f64);
    out.set("scan_io_errors", stats.scan_io_errors as f64);
    out.set("snapshots_published", stats.snapshots_published as f64);
    out.set("folds", stats.folds() as f64);
    out.set("rows_appended", stats.rows_appended as f64);
    out.set("ingest_batches", stats.ingest_batches as f64);
    out.set("write_amp", stats.write_amplification().unwrap_or(0.0));
    if let Some(pool) = stats.pool {
        out.set("pool_hit_rate", pool.hit_rate());
        out.set("pool_evictions", pool.evictions as f64);
        out.set("pool_cold_bytes", pool.cold_bytes as f64);
    }
    let windows = &stats.windows;
    let window_ms = sorted(windows.iter().map(|w| w.wall.as_secs_f64() * 1e3).collect());
    out.set("window_ms_p50", percentile(&window_ms, 0.5));
    out.set(
        "window_wall_share",
        windows.iter().map(|w| w.wall.as_secs_f64()).sum::<f64>() / wall,
    );
    out.set(
        "delta_queries_mean",
        stats.mean_delta_queries().unwrap_or(0.0),
    );
    out.set(
        "rows_rewritten_per_row",
        windows.iter().map(|w| w.rows).sum::<u64>() as f64 / inputs.table().num_rows() as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_round_trips() {
        let mut out = RepOutput::default();
        out.set("wall_s", 2.062_500_000_000_1);
        out.set("queries", 8000.0);
        out.checks = vec![(0, 17), (50, 0)];
        out.tail_us = vec![90_000.25, 512.0];
        out.errors = vec!["tiered publish of layout 3 failed:\tdisk full\n".into()];
        let parsed = RepOutput::parse(&out.render()).expect("parses");
        assert_eq!(parsed.values, out.values);
        assert_eq!(parsed.checks, out.checks);
        assert_eq!(parsed.tail_us, out.tail_us);
        assert_eq!(
            parsed.errors,
            vec!["tiered publish of layout 3 failed: disk full ".to_string()]
        );
        assert!(RepOutput::parse("v\twall_s\tfast\n").is_err());
        assert!(RepOutput::parse("garbage\n").is_err());
    }
}
