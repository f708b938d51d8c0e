//! Empirical verification of the delta-merge write-amplification bound:
//! on an adversarial stream of `m` single-row append batches, the k-binomial
//! merge policy's measured write amplification stays within its
//! `k·m^{1/k} + 1` bound (Mathieu et al., arXiv:2011.02615), the naive
//! full merge stays within `(m+1)/2 + 1`, and the transform strictly beats
//! the naive policy. Mirrors the assertions of the `dynamization` bench
//! binary (which runs the same stream at `--quick`/full scale and emits
//! `BENCH_dynamization.json`), the way `competitive_ratio.rs` mirrors the
//! 2·H(n) gate of `serve_throughput --scenario suite`.

use oreo::query::{ColumnType, Scalar, Schema};
use oreo::storage::{kbinomial_sizes, DeltaBuffer, IngestOp, MergePolicy};
use std::sync::Arc;

/// Adversarial stream: every batch is a single row, so each merge decision
/// rewrites previously written rows. Returns (rows_written, final_runs).
fn drive(policy: MergePolicy, m: u64) -> (u64, usize) {
    let schema = Arc::new(Schema::from_pairs([
        ("ts", ColumnType::Int),
        ("v", ColumnType::Int),
    ]));
    let mut buf = DeltaBuffer::new(Arc::clone(&schema), 0, policy);
    let mut rows_written = 0u64;
    for i in 0..m as i64 {
        let receipt = buf
            .apply(&[IngestOp::Append {
                values: vec![Scalar::Int(i), Scalar::Int(i % 97)],
            }])
            .expect("append");
        rows_written += receipt.rows_written;
    }
    (rows_written, buf.runs().count())
}

#[test]
fn measured_write_amplification_respects_every_policy_bound() {
    let m = 512u64;
    let policies = [
        MergePolicy::NaiveFullMerge,
        MergePolicy::KBinomial { k: 2 },
        MergePolicy::KBinomial { k: 3 },
        MergePolicy::KBinomial { k: 4 },
    ];
    let mut written = Vec::new();
    for policy in policies {
        let (rows_written, final_runs) = drive(policy, m);
        let wa = rows_written as f64 / m as f64;
        let bound = policy.write_amplification_bound(m);
        assert!(
            wa <= bound,
            "{policy:?}: measured WA {wa:.2} exceeds its guarantee {bound:.2} at m={m}"
        );
        match policy {
            MergePolicy::NaiveFullMerge => {
                assert_eq!(final_runs, 1, "naive merge keeps a single run")
            }
            MergePolicy::KBinomial { k } => assert!(
                final_runs <= k as usize,
                "k-binomial must keep at most k={k} runs, had {final_runs}"
            ),
        }
        written.push(rows_written);
    }
    assert!(
        written[1] < written[0],
        "k-binomial (k=2) must beat the naive full merge on the adversarial \
         stream ({} vs {} rows written)",
        written[1],
        written[0]
    );
    // Deeper transforms trade read fan-out for less rewriting.
    assert!(written[2] <= written[1] && written[3] <= written[2]);
}

#[test]
fn kbinomial_run_sizes_partition_the_stream() {
    // The transform's invariant shape: at any prefix m, the planned run
    // sizes are a valid k-binomial decomposition — they sum to m and are
    // non-increasing.
    for k in 2u64..=4 {
        for m in [1u64, 2, 7, 63, 64, 100, 511, 512, 1000] {
            let sizes = kbinomial_sizes(m, k);
            assert_eq!(sizes.iter().sum::<u64>(), m, "sizes must cover the stream");
            assert!(
                sizes.windows(2).all(|w| w[0] >= w[1]),
                "k-binomial run sizes must be non-increasing: {sizes:?}"
            );
            assert!(
                sizes.len() <= k as usize,
                "at most k={k} runs at m={m}: {sizes:?}"
            );
        }
    }
}
