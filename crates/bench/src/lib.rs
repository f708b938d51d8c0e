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
//! | `serve_throughput` | Beyond the paper — the concurrent engine's qps + p50/p99 at 1/2/4/8 workers, with/without background reorganization |
//!
//! Run with `--quick` for a reduced-scale pass (fewer queries); the default
//! reproduces the paper's 30 000-query streams. `fig3_end_to_end` and
//! `serve_throughput` also accept `--json <path>` for machine-readable
//! reports (see [`common::Json`]).

pub mod common;
pub mod multi_copy;
