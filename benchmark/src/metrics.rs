//! The published metric tables — names, units, directions, bounds — and
//! how each value is computed from the repetitions and the traced replay.
//! `BENCHMARK.json` mirrors these tables; a golden test keeps them equal.

use crate::rep::RepOutput;
use crate::stats::{median, samples_beyond};
use crate::workloads::Workload;
use std::collections::BTreeMap;

/// Seconds one driver run measures for (`run_seconds` in `BENCHMARK.json`):
/// repetitions continue until their measured phases add up to this.
pub const RUN_SECONDS: u64 = 12;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The manifest's spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a user of the serving loop would see.
pub struct EndToEnd {
    /// Published name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end table, every value the median over the repetitions.
/// Bounds come from the cross-seed calibration in `NOISE.md`: at least
/// three times the widest quartile spread seen, capped at the contract's
/// 0.25, with room on the timing metrics for a slow spell of the host. The issue's
/// eighth metric, `failed_share`, is the contract's `failed` ÷ `attempted`
/// and is reported there (a metric that must read 0 cannot carry a
/// relative bound).
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "qps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
    },
    EndToEnd {
        name: "query_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "query_p999_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cost_per_kq",
        unit: "cost/kq",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "scan_fraction",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.16,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
];

/// Index of `query_p999_us` in [`END_TO_END`].
const P999: usize = 3;

/// One repetition's end-to-end readings, in [`END_TO_END`] order. Its own
/// p99.9 is the [`p999_rank`]-th largest latency it saw.
pub fn end_to_end_of(rep: &RepOutput) -> [f64; 7] {
    let queries = rep.get("queries");
    let own_tail = p999_rank(rep.get("queries") as usize);
    [
        rep.get("setup_s"),
        queries / rep.get("wall_s"),
        rep.get("latency_p50_us"),
        rep.tail_us.get(own_tail - 1).copied().unwrap_or(0.0),
        rep.get("ledger_total") * 1e3 / queries,
        rep.get("bytes_scanned") / (rep.get("table_bytes") * queries),
        rep.get("peak_rss_mb"),
    ]
}

/// 1-based rank from the top of the nearest-rank p99.9 of `n` samples:
/// the sample with `samples_beyond(n, 0.999)` samples beyond it.
fn p999_rank(n: usize) -> usize {
    samples_beyond(n, 0.999) + 1
}

/// The end-to-end values of a run: per metric the median over the
/// repetitions — except `query_p999_us`, which is the p99.9 of the run's
/// pooled latencies. One 8 000-query repetition has only eight samples
/// beyond its p99.9; the pooled run has at least forty, and the pooled
/// quantile is steadier than a median of five eight-sample tails.
pub fn end_to_end(reps: &[RepOutput]) -> Vec<f64> {
    let per_rep: Vec<[f64; 7]> = reps.iter().map(end_to_end_of).collect();
    let mut values: Vec<f64> = (0..END_TO_END.len())
        .map(|m| median(&per_rep.iter().map(|r| r[m]).collect::<Vec<_>>()))
        .collect();
    let samples: usize = reps.iter().map(|r| r.get("queries") as usize).sum();
    let mut pooled_tail: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.tail_us.iter().copied())
        .collect();
    pooled_tail.sort_by(|a, b| b.total_cmp(a));
    values[P999] = pooled_tail
        .get(p999_rank(samples) - 1)
        .copied()
        .unwrap_or(0.0);
    values
}

/// The workloads a per-layer metric exists on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// Every workload.
    All,
    /// The workloads serving through `TieredStore` + `BufferPool`.
    Tiered,
    /// The workload with a write path.
    Ingest,
}

impl Scope {
    /// Whether a metric of this scope applies to `w`.
    pub fn covers(self, w: &Workload) -> bool {
        match self {
            Scope::All => true,
            Scope::Tiered => w.tiered(),
            Scope::Ingest => w.ingest.is_some(),
        }
    }
}

/// Where a per-layer value comes from.
#[derive(Clone, Copy, Debug)]
pub enum Source {
    /// Median over the untraced repetitions of a reported value.
    Rep(&'static str),
    /// Median over the repetitions of `numerator ÷ denominator × scale`.
    RepPer(&'static str, &'static str, f64),
    /// The traced replay (spans, exact counts and probes).
    Replay(&'static str),
    /// Median of the fixed-work spins run before each repetition.
    HostCalib,
}

/// One per-layer metric; the name's prefix is `crate.module`.
pub struct Layer {
    /// Published name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Workloads it exists on (elsewhere it is not applicable).
    pub scope: Scope,
    /// Where the value comes from.
    pub source: Source,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    scope: Scope,
    source: Source,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        scope,
        source,
    }
}

use Better::{Higher, Lower};
use Scope::{All, Ingest, Tiered};
use Source::{HostCalib, Rep, RepPer, Replay};

/// The per-layer table (52 names). The README's interaction map says which
/// end-to-end metric each should move, on which workload.
#[rustfmt::skip]
pub const PER_LAYER: [Layer; 52] = [
    layer("query.compile.ns_per_q", "ns", Lower, All, Replay("compile_ns_per_q")),
    layer("layout.qdtree.build_ms_p50", "ms", Lower, All, Replay("qdtree_build_ms_p50")),
    layer("layout.qdtree.builds", "count", Lower, All, Replay("qdtree_builds")),
    layer("layout.spec.assign_ns_per_row", "ns", Lower, All, Replay("assign_ns_per_row")),
    layer("sampling.sliding.push_ns_per_q", "ns", Lower, All, Replay("sliding_push_ns_per_q")),
    layer("core.oreo.observe_us_p50", "us", Lower, All, Replay("observe_us_p50")),
    layer("core.oreo.observe_us_max", "us", Lower, All, Replay("observe_us_max")),
    layer("core.oreo.busy_s_per_kq", "s/kq", Lower, All, Replay("core_busy_s_per_kq")),
    layer("core.oreo.switches", "count", Lower, All, Replay("switches")),
    layer("core.oreo.states_max", "count", Lower, All, Replay("states_max")),
    layer("core.layout_manager.generated", "count", Lower, All, Replay("generated")),
    layer("core.layout_manager.admitted", "count", Lower, All, Replay("admitted")),
    layer("core.ledger.query_cost_per_kq", "cost/kq", Lower, All, Replay("query_cost_per_kq")),
    layer("core.ledger.reorg_cost_per_kq", "cost/kq", Lower, All, Replay("reorg_cost_per_kq")),
    layer("storage.snapshot.scan_us_p50", "us", Lower, All, Replay("scan_us_p50")),
    layer("storage.snapshot.busy_s_per_kq", "s/kq", Lower, All, Replay("scan_busy_s_per_kq")),
    layer("storage.snapshot.partitions_read_ratio", "ratio", Lower, All, Replay("partitions_read_ratio")),
    layer("storage.kernel.rows_per_s", "rows/s", Higher, All, RepPer("rows_scanned", "scan_seconds", 1.0)),
    layer("storage.kernel.chunks_per_q", "count", Lower, All, RepPer("chunks_evaluated", "queries", 1.0)),
    layer("storage.kernel.short_circuit_ratio", "ratio", Higher, All, RepPer("rows_short_circuited", "rows_scanned", 1.0)),
    layer("storage.bufpool.hit_rate", "ratio", Higher, Tiered, Rep("pool_hit_rate")),
    layer("storage.bufpool.evictions_per_kq", "count", Lower, Tiered, RepPer("pool_evictions", "queries", 1e3)),
    layer("storage.bufpool.cold_bytes_per_q", "bytes", Lower, Tiered, RepPer("pool_cold_bytes", "queries", 1.0)),
    layer("storage.bufpool.read_cold_us_p50", "us", Lower, Tiered, Replay("pool_read_cold_us_p50")),
    layer("storage.bufpool.read_warm_us_p50", "us", Lower, Tiered, Replay("pool_read_warm_us_p50")),
    layer("storage.format.decodes_per_q", "count", Lower, All, Replay("decodes_per_q")),
    layer("storage.format.decode_mb_per_s", "MB/s", Higher, All, Replay("decode_mb_per_s")),
    layer("storage.format.encode_mb_per_s", "MB/s", Higher, All, Replay("encode_mb_per_s")),
    layer("storage.tiered.publish_ms_p50", "ms", Lower, Tiered, Replay("tiered_publish_ms_p50")),
    layer("storage.tiered.bytes_per_publish", "bytes", Lower, Tiered, Replay("bytes_per_publish")),
    layer("storage.tiered.open_ms", "ms", Lower, Tiered, Rep("open_ms")),
    layer("storage.wal.append_us_p50", "us", Lower, Ingest, Replay("wal_append_us_p50")),
    layer("storage.wal.bytes_per_row", "bytes", Lower, Ingest, Replay("wal_bytes_per_row")),
    layer("storage.delta.apply_us_p50", "us", Lower, Ingest, Replay("delta_apply_us_p50")),
    layer("storage.delta.runs_max", "count", Lower, Ingest, Replay("delta_runs_max")),
    layer("storage.delta.bytes_scanned_per_q", "bytes", Lower, Ingest, RepPer("delta_bytes_scanned", "queries", 1.0)),
    layer("engine.queue.wait_us_p50", "us", Lower, All, Rep("queue_wait_p50_us")),
    layer("engine.queue.wait_us_p999", "us", Lower, All, Rep("queue_wait_p999_us")),
    layer("engine.service_us_p50", "us", Lower, All, Rep("service_p50_us")),
    layer("engine.reorg.materialize_ms_p50", "ms", Lower, All, Replay("materialize_ms_p50")),
    layer("engine.reorg.window_ms_p50", "ms", Lower, All, Rep("window_ms_p50")),
    layer("engine.reorg.delta_queries_mean", "count", Lower, All, Rep("delta_queries_mean")),
    layer("engine.reorg.busy_share", "ratio", Lower, All, Rep("window_wall_share")),
    layer("engine.reorg.publishes", "count", Lower, All, Rep("snapshots_published")),
    layer("engine.reorg.rows_rewritten_per_row", "ratio", Lower, All, Rep("rows_rewritten_per_row")),
    layer("engine.ingest.ack_us_p50", "us", Lower, Ingest, Rep("ack_p50_us")),
    layer("engine.ingest.rows_per_s", "rows/s", Higher, Ingest, RepPer("rows_appended", "ack_total_s", 1.0)),
    layer("engine.ingest.write_amp", "ratio", Lower, Ingest, Rep("write_amp")),
    layer("engine.reorg.folds", "count", Lower, Ingest, Rep("folds")),
    layer("trace.overhead_ratio", "ratio", Lower, All, Replay("overhead_ratio")),
    layer("trace.closure_ratio", "ratio", Higher, All, Replay("closure_ratio")),
    layer("host.calib_us", "us", Lower, All, HostCalib),
];

/// The per-layer values of a run, in [`PER_LAYER`] order; `None` where the
/// metric does not apply to the workload (or no replay was made).
pub fn per_layer(
    w: &Workload,
    reps: &[RepOutput],
    replay: Option<&BTreeMap<&'static str, f64>>,
    calib_us: &[f64],
) -> Vec<Option<f64>> {
    let over_reps = |f: &dyn Fn(&RepOutput) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    PER_LAYER
        .iter()
        .map(|layer| {
            if !layer.scope.covers(w) {
                return None;
            }
            match layer.source {
                Rep(key) => Some(over_reps(&|r| r.get(key))),
                RepPer(num, den, scale) => Some(over_reps(&|r| {
                    let d = r.get(den);
                    if d == 0.0 {
                        0.0
                    } else {
                        r.get(num) / d * scale
                    }
                })),
                Replay(key) => replay.map(|values| values.get(key).copied().unwrap_or(0.0)),
                HostCalib => Some(median(calib_us)),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    /// The names of ISSUE 12, verbatim, minus `failed_share` (the contract's
    /// `failed` ÷ `attempted`).
    const ISSUE_END_TO_END: [&str; 7] = [
        "setup_s",
        "qps",
        "query_p50_us",
        "query_p999_us",
        "cost_per_kq",
        "scan_fraction",
        "peak_rss_mb",
    ];
    const ISSUE_PER_LAYER: [&str; 52] = [
        "query.compile.ns_per_q",
        "layout.qdtree.build_ms_p50",
        "layout.qdtree.builds",
        "layout.spec.assign_ns_per_row",
        "sampling.sliding.push_ns_per_q",
        "core.oreo.observe_us_p50",
        "core.oreo.observe_us_max",
        "core.oreo.busy_s_per_kq",
        "core.oreo.switches",
        "core.oreo.states_max",
        "core.layout_manager.generated",
        "core.layout_manager.admitted",
        "core.ledger.query_cost_per_kq",
        "core.ledger.reorg_cost_per_kq",
        "storage.snapshot.scan_us_p50",
        "storage.snapshot.busy_s_per_kq",
        "storage.snapshot.partitions_read_ratio",
        "storage.kernel.rows_per_s",
        "storage.kernel.chunks_per_q",
        "storage.kernel.short_circuit_ratio",
        "storage.bufpool.hit_rate",
        "storage.bufpool.evictions_per_kq",
        "storage.bufpool.cold_bytes_per_q",
        "storage.bufpool.read_cold_us_p50",
        "storage.bufpool.read_warm_us_p50",
        "storage.format.decodes_per_q",
        "storage.format.decode_mb_per_s",
        "storage.format.encode_mb_per_s",
        "storage.tiered.publish_ms_p50",
        "storage.tiered.bytes_per_publish",
        "storage.tiered.open_ms",
        "storage.wal.append_us_p50",
        "storage.wal.bytes_per_row",
        "storage.delta.apply_us_p50",
        "storage.delta.runs_max",
        "storage.delta.bytes_scanned_per_q",
        "engine.queue.wait_us_p50",
        "engine.queue.wait_us_p999",
        "engine.service_us_p50",
        "engine.reorg.materialize_ms_p50",
        "engine.reorg.window_ms_p50",
        "engine.reorg.delta_queries_mean",
        "engine.reorg.busy_share",
        "engine.reorg.publishes",
        "engine.reorg.rows_rewritten_per_row",
        "engine.ingest.ack_us_p50",
        "engine.ingest.rows_per_s",
        "engine.ingest.write_amp",
        "engine.reorg.folds",
        "trace.overhead_ratio",
        "trace.closure_ratio",
        "host.calib_us",
    ];

    /// `BENCHMARK.json` as these tables say it should read.
    fn manifest() -> String {
        let mut s = String::from("{\n");
        s += "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
              \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n";
        s += "  \"paths\": [\"benchmark\"],\n";
        s += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
        s += "  \"workloads\": [\n";
        let rows: Vec<String> = WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect();
        s += &rows.join(",\n");
        s += "\n  ],\n  \"end_to_end\": [\n";
        let rows: Vec<String> = END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    m.better.as_str(),
                    m.bound
                )
            })
            .collect();
        s += &rows.join(",\n");
        s += "\n  ],\n  \"per_layer\": [\n";
        let rows: Vec<String> = PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    m.better.as_str()
                )
            })
            .collect();
        s += &rows.join(",\n");
        s += "\n  ]\n}\n";
        s
    }

    #[test]
    fn names_are_the_issues_and_the_manifests() {
        let end_to_end: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        let per_layer: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(end_to_end, ISSUE_END_TO_END);
        assert_eq!(per_layer, ISSUE_PER_LAYER);
        // One golden comparison covers names, units, directions, bounds,
        // workloads and run_seconds. To regenerate after an intended
        // change: BLESS=1 cargo test --manifest-path benchmark/Cargo.toml
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        if std::env::var_os("BLESS").is_some() {
            std::fs::write(path, manifest()).expect("write BENCHMARK.json");
        }
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, manifest(), "BENCHMARK.json is out of step");
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(WORKLOADS.iter().map(|w| (w.name, "count")))
        {
            assert!(name_ok(name), "{name}");
            assert!(unit_ok(unit), "{name}: unit {unit}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn write_path_and_pool_metrics_exist_only_where_they_apply() {
        let names_on = |w: &Workload| -> Vec<&'static str> {
            let values = per_layer(w, &[RepOutput::default()], Some(&BTreeMap::new()), &[1.0]);
            PER_LAYER
                .iter()
                .zip(values)
                .filter_map(|(m, v)| v.map(|_| m.name))
                .collect()
        };
        for w in &WORKLOADS {
            let names = names_on(w);
            let has = |prefix: &str| names.iter().any(|n| n.starts_with(prefix));
            let writes = w.name == "ingest-mixed";
            let tiered = matches!(w.name, "tiered-cold" | "ingest-mixed");
            assert_eq!(has("storage.wal."), writes, "{}", w.name);
            assert_eq!(has("storage.delta."), writes, "{}", w.name);
            assert_eq!(has("engine.ingest."), writes, "{}", w.name);
            assert_eq!(has("storage.bufpool."), tiered, "{}", w.name);
            assert_eq!(has("storage.tiered."), tiered, "{}", w.name);
            assert!(has("core.oreo.") && has("host."), "{}", w.name);
        }
    }

    #[test]
    fn end_to_end_is_the_median_over_repetitions() {
        let rep = |wall: f64| {
            let mut r = RepOutput::default();
            for (k, v) in [
                ("queries", 8000.0),
                ("wall_s", wall),
                ("ledger_total", 1600.0),
                ("bytes_scanned", 4e9),
                ("table_bytes", 1e6),
            ] {
                r.values.insert(k.into(), v);
            }
            r
        };
        let values = end_to_end(&[rep(2.0), rep(4.0), rep(100.0)]);
        assert_eq!(values[1], 2000.0, "qps: median repetition took 4 s");
        assert_eq!(values[4], 200.0, "cost_per_kq");
        assert_eq!(values[5], 0.5, "scan_fraction");
    }

    #[test]
    fn p999_is_taken_over_the_pooled_repetitions() {
        // Two repetitions of 10 000 latencies each: 20 000 pooled samples
        // leave 20 beyond p99.9, so the run's value is the 21st largest
        // overall — not the median of the repetitions' own 11th largest.
        let rep = |top: f64| {
            let mut r = RepOutput::default();
            r.values.insert("queries".into(), 10_000.0);
            r.tail_us = (0..30).map(|i| top - f64::from(i)).collect();
            r
        };
        let (a, b) = (rep(1_000.0), rep(500.0));
        assert_eq!(end_to_end_of(&a)[P999], 990.0);
        assert_eq!(end_to_end_of(&b)[P999], 490.0);
        assert_eq!(END_TO_END[P999].name, "query_p999_us");
        // pooled, descending: 1000..=971 (30 values), then 500, 499, …
        assert_eq!(end_to_end(&[a, b])[P999], 980.0);
    }
}
