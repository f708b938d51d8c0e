//! Latency bookkeeping for the serving layer, built on `oreo-obs`
//! streaming histograms.
//!
//! Workers record each query's latency, in microseconds, into a shared
//! log-bucketed [`oreo_obs::Histogram`] as it completes, so percentiles are
//! available **live** (the metrics exporter reads them mid-run) and the
//! engine's memory for latency tracking is a fixed ~15 KiB per histogram —
//! *not* one `u64` per query. [`oreo_obs::HistogramStats`] is the summary
//! the engine reports: count, sum, mean and max are exact, percentiles are
//! within one log-bucket of the exact nearest-rank answer
//! (`oreo_obs::RELATIVE_ERROR`, 1/32 ≈ 3.1%; values below 32 µs are exact).

use std::time::Duration;

/// Duration → whole microseconds, saturating.
pub fn as_micros_u64(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}
