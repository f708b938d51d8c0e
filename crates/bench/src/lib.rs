//! # oreo-bench
//!
//! Benchmark harnesses reproducing **every table and figure** of the
//! paper's evaluation (§VI), plus Criterion microbenchmarks of the hot
//! paths. One binary per experiment:
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `fig3_end_to_end`  | Fig. 3 — end-to-end query + reorg time, 4 methods × 2 techniques × 3 datasets |
//! | `fig4_optimal_gap` | Fig. 4 — cumulative cost vs MTS-Optimal / Offline-Optimal / Static |
//! | `fig5_alpha_sweep` | Fig. 5 — effect of the reorganization cost α |
//! | `fig6_epsilon`     | Fig. 6 — effect of the admission threshold ε |
//! | `table1_alpha`     | Table I — physically measured α on the disk substrate |
//! | `table2_ablations` | Table II — γ, SW/RS/SW+RS, and reorganization delay Δ |
//! | `serve_throughput` | Beyond the paper — asserted lockstep ledger and journal-replay parity with `oreo-sim`, one measured engine cell (qps, p50/p99, Δ, α̂), the workload-zoo suite and the multi-tenant harness |
//! | `dynamization`     | Beyond the paper — measured write amplification vs the k-binomial bound |
//!
//! Run with `--quick` for a reduced-scale pass (fewer queries); the default
//! reproduces the paper's 30 000-query streams. `fig3_end_to_end`,
//! `table1_alpha`, `dynamization` and `serve_throughput` also accept
//! `--json <path>` for machine-readable reports (see [`common::Json`]).
//! Each binary asserts its own gates and rejects flags it does not parse
//! ([`common::check_args`]).

pub mod common;
