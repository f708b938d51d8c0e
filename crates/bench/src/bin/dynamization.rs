//! **Dynamization** — measured write amplification of the delta-merge
//! policies on an adversarial insert stream, against the k-binomial
//! transform's competitive bound (Mathieu et al., arXiv:2011.02615).
//!
//! The stream is the worst case for any merging policy: `m` single-row
//! append batches, so every merge decision rewrites previously written
//! rows. The harness drives a bare [`DeltaBuffer`] (no engine, no queries)
//! under each [`MergePolicy`], sums the per-batch `rows_written` receipts,
//! and reports
//!
//! * measured WA = total rows written / rows ingested,
//! * the policy's guarantee: `k·m^{1/k} + 1` for k-binomial,
//!   `(m+1)/2 + 1` for the naive full merge,
//! * the final run count (k-binomial keeps ≤ k runs live; naive keeps 1).
//!
//! The run **asserts** that every policy's measured WA is within its bound
//! and that k-binomial beats the naive merge — the second worst-case
//! guarantee PR 9 adds next to the 2·H(n) layout bound — then writes
//! `BENCH_dynamization.json` (override with `--json <path>`). `--quick`
//! shrinks the stream; a release-profile mirror of the bound assertion
//! lives in `tests/dynamization.rs`.

use oreo_bench::common::{check_args, json_path_arg, write_json_report, Json, Scale};
use oreo_query::{ColumnType, Scalar, Schema};
use oreo_storage::{DeltaBuffer, IngestOp, MergePolicy};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Adversarial batches per policy run.
fn batches(scale: Scale) -> u64 {
    match scale {
        Scale::Quick => 512,
        Scale::Full => 4_096,
    }
}

/// One policy's measured run.
struct PolicyRun {
    label: String,
    rows_ingested: u64,
    rows_written: u64,
    wa: f64,
    bound: f64,
    within_bound: bool,
    final_runs: usize,
    merges: u64,
    elapsed_s: f64,
}

/// Drive `m` single-row append batches through a fresh buffer under
/// `policy`.
fn drive(policy: MergePolicy, m: u64) -> PolicyRun {
    let schema = Arc::new(Schema::from_pairs([
        ("ts", ColumnType::Int),
        ("v", ColumnType::Int),
    ]));
    let mut buf = DeltaBuffer::new(Arc::clone(&schema), 0, policy);
    let started = Instant::now();
    let mut rows_written = 0u64;
    let mut merges = 0u64;
    for i in 0..m as i64 {
        let receipt = buf
            .apply(&[IngestOp::Append {
                values: vec![Scalar::Int(i), Scalar::Int((i * 31) % 1_000)],
            }])
            .expect("append batch");
        rows_written += receipt.rows_written;
        merges += receipt.merged_runs as u64;
    }
    let elapsed_s = started.elapsed().as_secs_f64();
    let wa = rows_written as f64 / m as f64;
    let bound = policy.write_amplification_bound(m);
    let label = match policy {
        MergePolicy::NaiveFullMerge => "naive-full-merge".to_string(),
        MergePolicy::KBinomial { k } => format!("kbinomial-{k}"),
    };
    PolicyRun {
        label,
        rows_ingested: m,
        rows_written,
        wa,
        bound,
        within_bound: wa <= bound,
        final_runs: buf.runs().count(),
        merges,
        elapsed_s,
    }
}

fn main() {
    check_args(&["--quick", "--json <path>"]);
    let scale = Scale::from_args();
    let m = batches(scale);

    println!("== Dynamization: write amplification vs the k-binomial bound ==");
    println!(
        "scale: {} ({m} single-row adversarial append batches per policy)",
        scale.label(),
    );
    println!();

    let policies = [
        MergePolicy::NaiveFullMerge,
        MergePolicy::KBinomial { k: 2 },
        MergePolicy::KBinomial { k: 3 },
        MergePolicy::KBinomial { k: 4 },
    ];
    let runs: Vec<PolicyRun> = policies.iter().map(|&p| drive(p, m)).collect();

    for r in &runs {
        println!(
            "[{:>16}] WA {:>7.2} (bound {:>7.2}) — {:>8} rows written, {} merges, \
             {} final run(s), {:.3}s — {}",
            r.label,
            r.wa,
            r.bound,
            r.rows_written,
            r.merges,
            r.final_runs,
            r.elapsed_s,
            if r.within_bound {
                "WITHIN BOUND"
            } else {
                "EXCEEDS BOUND"
            },
        );
    }
    println!();

    let labels: Vec<&str> = runs.iter().map(|r| r.label.as_str()).collect();
    assert_eq!(
        labels,
        [
            "naive-full-merge",
            "kbinomial-2",
            "kbinomial-3",
            "kbinomial-4"
        ],
        "the report's policy names"
    );
    let naive = &runs[0];
    let kbin = &runs[1];
    println!(
        "k-binomial (k=2) writes {:.1}% of the naive merge's rows on the same stream",
        kbin.rows_written as f64 / naive.rows_written as f64 * 100.0,
    );

    let doc = Json::obj([
        ("benchmark", Json::from("dynamization")),
        ("scale", Json::from(scale.label())),
        ("batches", Json::from(m)),
        (
            "policies",
            Json::Arr(
                runs.iter()
                    .map(|r| {
                        Json::obj([
                            ("policy", Json::from(r.label.clone())),
                            ("rows_ingested", Json::from(r.rows_ingested)),
                            ("rows_written", Json::from(r.rows_written)),
                            ("write_amplification", Json::from(r.wa)),
                            ("bound", Json::from(r.bound)),
                            ("within_bound", Json::from(r.within_bound)),
                            ("final_runs", Json::from(r.final_runs)),
                            ("merges", Json::from(r.merges)),
                            ("elapsed_s", Json::from(r.elapsed_s)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let path = json_path_arg().unwrap_or_else(|| PathBuf::from("BENCH_dynamization.json"));
    write_json_report(&path, &doc);

    // The second worst-case guarantee, gated: every policy within its own
    // bound, and the transform strictly better than naive merging.
    for r in &runs {
        assert!(
            r.within_bound,
            "{}: measured WA {:.2} exceeds its guarantee {:.2}",
            r.label, r.wa, r.bound
        );
    }
    assert!(
        kbin.rows_written < naive.rows_written,
        "k-binomial must beat the naive full merge on the adversarial stream \
         ({} vs {} rows written)",
        kbin.rows_written,
        naive.rows_written
    );
    println!("dynamization ok: all policies within their WA guarantees");
}
