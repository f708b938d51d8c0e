//! The three metric primitives: [`Counter`], [`Gauge`], and a fixed-size
//! log-bucketed [`Histogram`] (HdrHistogram-style) that streams
//! p50/p95/p99 without retaining samples.
//!
//! All three are updated with plain atomic operations — no locks on the
//! record path — so workers can publish into them from the hottest loops.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing `u64` counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins `f64` gauge (stored as bits in an `AtomicU64`).
///
/// A gauge that has never been set — or was set to a non-finite value —
/// renders as `null` in the JSON exporter, which is how "not measurable
/// yet" values (e.g. α̂ before the first persisted rewrite) appear in
/// snapshots.
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Self {
            bits: AtomicU64::new(f64::NAN.to_bits()),
        }
    }
}

impl Gauge {
    /// An unset gauge (reads as NaN).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the value.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value (NaN when never set).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Sub-bucket resolution: 2^5 = 32 sub-buckets per power of two.
const SUB_BITS: u32 = 5;
/// Sub-buckets per octave.
const SUB_COUNT: usize = 1 << SUB_BITS;
/// Octave groups above the exact range (`2^5 ..= 2^63`).
const GROUPS: usize = 64 - SUB_BITS as usize;
/// Total bucket count: 32 exact unit buckets + 59 groups of 32.
pub const NUM_BUCKETS: usize = SUB_COUNT * (GROUPS + 1);

/// The histogram's documented accuracy: any reported quantile is within
/// one bucket width of the exact nearest-rank value, and bucket widths are
/// at most `value / 32` — a relative error of `1/32` ≈ **3.125%** (values
/// below 32 are exact).
pub const RELATIVE_ERROR: f64 = 1.0 / SUB_COUNT as f64;

/// Bucket index of `v`: exact below 32, then `(exponent, sub-bucket)`
/// log-bucketing with 32 sub-buckets per octave.
fn bucket_index(v: u64) -> usize {
    if v < SUB_COUNT as u64 {
        v as usize
    } else {
        let e = 63 - v.leading_zeros(); // 5..=63
        let shift = e - SUB_BITS;
        let sub = ((v >> shift) as usize) - SUB_COUNT;
        (e - SUB_BITS + 1) as usize * SUB_COUNT + sub
    }
}

/// Inclusive value range `[low, high]` covered by bucket `i`.
fn bucket_bounds(i: usize) -> (u64, u64) {
    if i < SUB_COUNT {
        (i as u64, i as u64)
    } else {
        let group = (i / SUB_COUNT) as u32; // >= 1
        let sub = (i % SUB_COUNT) as u64;
        let shift = group - 1;
        let low = (SUB_COUNT as u64 + sub) << shift;
        let width = 1u64 << shift;
        // `low + (width - 1)`: the top bucket's high bound is u64::MAX, so
        // adding the full width before subtracting would overflow.
        (low, low + (width - 1))
    }
}

/// Point-in-time summary of a [`Histogram`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistogramStats {
    /// Samples recorded.
    pub count: u64,
    /// Exact sum of all samples (wraps only past `u64::MAX`).
    pub sum: u64,
    /// Exact minimum sample (0 when empty).
    pub min: u64,
    /// Exact maximum sample (0 when empty).
    pub max: u64,
    /// Exact mean (`sum / count`; 0 when empty).
    pub mean: f64,
    /// Streaming median (bucket midpoint; see [`RELATIVE_ERROR`]).
    pub p50: f64,
    /// Streaming 95th percentile.
    pub p95: f64,
    /// Streaming 99th percentile.
    pub p99: f64,
}

/// A fixed-size, mergeable, log-bucketed histogram over `u64` samples.
///
/// * **Fixed memory**: [`NUM_BUCKETS`] (= 1920) atomic bucket counters —
///   15 KiB — regardless of how many samples are recorded. This is what
///   lets the serving engine stream latency percentiles for arbitrarily
///   long runs instead of retaining one `u64` per query until shutdown.
/// * **Lock-free**: `record` is one `fetch_add` on the bucket plus
///   count/sum/min/max updates, all `Relaxed` atomics.
/// * **Bounded error**: quantiles return the midpoint of the bucket
///   containing the exact nearest-rank sample, so they are within one
///   bucket width — relative error ≤ [`RELATIVE_ERROR`] (1/32 ≈ 3.125%);
///   `count`, `sum`, `mean`, `min`, and `max` are exact.
/// * **Mergeable**: [`Histogram::merge`] adds bucket counts, and equals
///   histogramming the concatenation of the two sample sets exactly.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64; NUM_BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: Box::new([0u64; NUM_BUCKETS].map(AtomicU64::new)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Nearest-rank quantile `q ∈ [0, 1]` (0.0 when empty): the midpoint
    /// of the bucket holding the exact rank-`⌈q·count⌉` sample.
    pub fn quantile(&self, q: f64) -> f64 {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return 0.0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cum = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            let c = bucket.load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            cum += c;
            if cum >= rank {
                let (lo, hi) = bucket_bounds(i);
                return (lo + (hi - lo) / 2) as f64;
            }
        }
        // Racing writers can make the bucket sum lag `count` briefly.
        self.max.load(Ordering::Relaxed) as f64
    }

    /// Summary snapshot (count/sum/min/max/mean exact; quantiles within
    /// [`RELATIVE_ERROR`]).
    pub fn stats(&self) -> HistogramStats {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return HistogramStats::default();
        }
        let sum = self.sum.load(Ordering::Relaxed);
        HistogramStats {
            count,
            sum,
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            mean: sum as f64 / count as f64,
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }

    /// Fold `other`'s samples into `self`. Equivalent — bucket for bucket
    /// and in every exact statistic — to having recorded both sample sets
    /// into one histogram.
    pub fn merge(&self, other: &Histogram) {
        for (dst, src) in self.buckets.iter().zip(other.buckets.iter()) {
            let c = src.load(Ordering::Relaxed);
            if c > 0 {
                dst.fetch_add(c, Ordering::Relaxed);
            }
        }
        let other_count = other.count.load(Ordering::Relaxed);
        if other_count == 0 {
            return;
        }
        self.count.fetch_add(other_count, Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Raw bucket counts (index order; see [`NUM_BUCKETS`]). Exposed for
    /// exporters and the merge-equivalence tests.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..32u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bounds(v as usize), (v, v));
        }
    }

    #[test]
    fn buckets_tile_the_u64_range() {
        // Consecutive buckets abut: high(i) + 1 == low(i + 1).
        for i in 0..NUM_BUCKETS - 1 {
            let (_, hi) = bucket_bounds(i);
            let (lo_next, _) = bucket_bounds(i + 1);
            assert_eq!(hi + 1, lo_next, "gap after bucket {i}");
        }
        assert_eq!(bucket_bounds(NUM_BUCKETS - 1).1, u64::MAX);
        // Every probed value maps into a bucket that contains it.
        for v in [0, 1, 31, 32, 33, 63, 64, 1000, 123_456, u64::MAX] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v && v <= hi, "value {v} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn bucket_relative_width_is_bounded() {
        for i in SUB_COUNT..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            let width = (hi - lo + 1) as f64;
            assert!(
                width / lo as f64 <= RELATIVE_ERROR + 1e-12,
                "bucket {i}: width {width} over low {lo}"
            );
        }
    }

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let g = Gauge::new();
        assert!(g.get().is_nan(), "unset gauge reads NaN");
        g.set(0.75);
        assert_eq!(g.get(), 0.75);
    }

    #[test]
    fn exact_stats_and_streaming_quantiles() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.stats();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5050);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        assert!((s.mean - 50.5).abs() < 1e-12);
        // Exact nearest-rank values are 50 / 95 / 99; the stream stays
        // within one bucket's relative error.
        for (got, exact) in [(s.p50, 50.0), (s.p95, 95.0), (s.p99, 99.0)] {
            assert!(
                (got - exact).abs() <= exact * RELATIVE_ERROR + 1e-9,
                "got {got}, exact {exact}"
            );
        }
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.stats(), HistogramStats::default());
        assert_eq!(h.quantile(0.5), 0.0);
    }

    /// Nearest-rank percentile over an ascending-sorted slice: the exact
    /// answer the streaming quantiles approximate.
    fn nearest_rank(sorted: &[u64], p: f64) -> f64 {
        let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1] as f64
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&s, 0.50), 50.0);
        assert_eq!(nearest_rank(&s, 0.95), 95.0);
        assert_eq!(nearest_rank(&s, 0.99), 99.0);
        assert_eq!(nearest_rank(&s, 1.0), 100.0);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        // 42 lands in a width-2 bucket, [42, 43], whose midpoint is 42.
        let h = Histogram::new();
        h.record(42);
        let s = h.stats();
        assert_eq!((s.p50, s.p95, s.p99), (42.0, 42.0, 42.0));
        assert_eq!((s.min, s.max, s.mean), (42, 42, 42.0));
    }

    /// Mixed-magnitude latency samples: microseconds spanning the exact
    /// range through multi-second outliers.
    fn samples_strategy() -> impl proptest::strategy::Strategy<Value = Vec<u64>> {
        proptest::collection::vec(0u64..5_000_000, 1..400)
    }

    proptest::proptest! {
        // Log-bucketed p50/p95/p99 stay within one bucket's relative error
        // of the exact sorted-sample answer; count, mean and max are exact.
        #[test]
        fn histogram_percentiles_match_oracle(samples in samples_strategy()) {
            let mut sorted = samples;
            let h = Histogram::new();
            for &v in &sorted {
                h.record(v);
            }
            sorted.sort_unstable();
            let s = h.stats();
            let sum: u64 = sorted.iter().sum();
            proptest::prop_assert_eq!(s.count, sorted.len() as u64);
            proptest::prop_assert!((s.mean - sum as f64 / sorted.len() as f64).abs() < 1e-6);
            proptest::prop_assert_eq!(s.max, *sorted.last().expect("non-empty"));
            for (got, p) in [(s.p50, 0.50), (s.p95, 0.95), (s.p99, 0.99)] {
                let exact = nearest_rank(&sorted, p);
                proptest::prop_assert!(
                    (got - exact).abs() <= exact * RELATIVE_ERROR + 1e-9,
                    "histogram {} vs exact {} at p{}", got, exact, p
                );
            }
        }

        // Merging two histograms equals histogramming the concatenation —
        // the guarantee that lets per-worker histograms fold into one
        // summary.
        #[test]
        fn merge_equals_concatenation(
            a in samples_strategy(),
            b in samples_strategy(),
        ) {
            let ha = Histogram::new();
            for &v in &a {
                ha.record(v);
            }
            let hb = Histogram::new();
            for &v in &b {
                hb.record(v);
            }
            ha.merge(&hb);
            let concat = Histogram::new();
            for &v in a.iter().chain(&b) {
                concat.record(v);
            }
            proptest::prop_assert_eq!(ha.stats(), concat.stats());
            proptest::prop_assert_eq!(ha.bucket_counts(), concat.bucket_counts());
        }
    }
}
