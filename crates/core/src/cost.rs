//! Cost accounting: the ledger every policy reports into, so that
//! harnesses compare identical quantities — §III-A's objective of total
//! query cost plus total reorganization cost.

use oreo_obs::{Event, EventKind};
use serde::{Deserialize, Serialize};

/// Accumulated costs over a (partial) query stream, in *logical* units:
/// query cost = fraction of the table read (a unit-interval value per
/// query), and each reorganization costs α.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CostLedger {
    /// Σ service costs.
    pub query_cost: f64,
    /// Σ movement costs (switches × α).
    pub reorg_cost: f64,
    /// Number of layout switches.
    pub switches: u64,
    /// Number of queries accounted.
    pub queries: u64,
    /// Σ ingest-compaction costs (delta-run merges and background folds,
    /// in full-table-scan equivalents like α). Zero for read-only runs,
    /// which keeps ledger parity with pre-ingestion harnesses exact.
    #[serde(default)]
    pub compaction_cost: f64,
    /// Number of compaction charges (merges + folds).
    #[serde(default)]
    pub compactions: u64,
}

impl CostLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one serviced query.
    pub fn add_query(&mut self, cost: f64) {
        debug_assert!((0.0..=1.0 + 1e-9).contains(&cost), "query cost {cost}");
        self.query_cost += cost;
        self.queries += 1;
    }

    /// Record one reorganization of cost `alpha`.
    pub fn add_reorg(&mut self, alpha: f64) {
        self.reorg_cost += alpha;
        self.switches += 1;
    }

    /// Record one ingest compaction (delta-run merge or background fold)
    /// of `cost` full-table-scan equivalents.
    pub fn add_compaction(&mut self, cost: f64) {
        debug_assert!(cost >= 0.0, "compaction cost {cost}");
        self.compaction_cost += cost;
        self.compactions += 1;
    }

    /// Total objective: query + reorganization + compaction cost.
    pub fn total(&self) -> f64 {
        self.query_cost + self.reorg_cost + self.compaction_cost
    }

    /// Mean query cost per query.
    pub fn mean_query_cost(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.query_cost / self.queries as f64
        }
    }

    /// Rebuild a ledger from a seq-ordered policy event journal: every
    /// [`EventKind::SwitchDecided`] replays `add_reorg(alpha)` and every
    /// [`EventKind::QueryObserved`] replays `add_query(service_cost)`, in
    /// journal order. `Oreo` emits those events at the exact ledger
    /// operation sites (under whatever lock serializes the framework), so
    /// for one framework's run the replay reproduces the live ledger
    /// **bit-for-bit** — f64 addition order included. That turns ledger
    /// parity from one end-of-run equality into an auditable event
    /// stream: any divergence pinpoints the first mis-accounted event.
    pub fn replay(events: &[Event]) -> Self {
        let mut ledger = Self::new();
        for e in events {
            match e.kind {
                EventKind::QueryObserved { service_cost, .. } => ledger.add_query(service_cost),
                EventKind::SwitchDecided { alpha, .. } => ledger.add_reorg(alpha),
                EventKind::CompactionCharged { cost, .. } => ledger.add_compaction(cost),
                _ => {}
            }
        }
        ledger
    }

    /// Merge another ledger into this one.
    pub fn merge(&mut self, other: &CostLedger) {
        self.query_cost += other.query_cost;
        self.reorg_cost += other.reorg_cost;
        self.switches += other.switches;
        self.queries += other.queries;
        self.compaction_cost += other.compaction_cost;
        self.compactions += other.compactions;
    }
}

/// Accumulator turning a serving run's raw measurements into an
/// *empirical* α — the paper's Table I ratio (time of one reorganization
/// over time of one full-table scan), observed on the live query stream
/// instead of a dedicated offline experiment.
///
/// The serving layer feeds it two kinds of samples:
///
/// * per-query scans (bytes of the partitions actually read + wall-clock),
///   which calibrate the substrate's scan throughput; a *full* scan is then
///   `table_bytes / throughput` seconds — queries are pruned, so the full
///   scan the α denominator wants is extrapolated, not assumed;
/// * background reorganizations (wall-clock of the aside rewrite, fsync
///   and commit included), the α numerator.
///
/// Scans come in two temperatures. [`AlphaEstimator::record_scan`] records
/// a **warm** sample — a memory-resident or buffer-pool-served scan.
/// [`AlphaEstimator::record_cold_scan`] records a scan whose bytes came
/// mostly from disk (buffer-pool misses). Table I's denominator is a
/// *disk* full scan, so [`AlphaEstimator::alpha`] extrapolates from the
/// cold throughput whenever cold samples exist and only falls back to the
/// warm (memory-bandwidth-shaped) throughput without them;
/// [`AlphaEstimator::alpha_cold`] / [`AlphaEstimator::alpha_warm`] expose
/// the two readings separately.
///
/// # Example
///
/// ```
/// use oreo_core::AlphaEstimator;
///
/// // 1 MB table; queries scan at 100 MB/s, one rewrite took 0.8 s.
/// let mut a = AlphaEstimator::new(1_000_000);
/// a.record_scan(500_000, 0.005);
/// a.record_scan(250_000, 0.0025);
/// a.record_reorg(0.8);
/// assert!((a.alpha().unwrap() - 80.0).abs() < 1e-6);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AlphaEstimator {
    table_bytes: u64,
    warm_bytes: u64,
    warm_seconds: f64,
    cold_bytes: u64,
    cold_seconds: f64,
    reorg_seconds: f64,
    reorgs: u64,
}

impl AlphaEstimator {
    /// An estimator for a table whose full scan reads `table_bytes`.
    pub fn new(table_bytes: u64) -> Self {
        Self {
            table_bytes,
            ..Self::default()
        }
    }

    /// Record one served *warm* query (memory-resident or buffer-pool-hit
    /// scan): bytes of the partitions read (after pruning) and the scan's
    /// wall-clock seconds.
    pub fn record_scan(&mut self, bytes: u64, seconds: f64) {
        self.warm_bytes += bytes;
        self.warm_seconds += seconds;
    }

    /// Record one served *cold* query — a scan whose bytes came mostly
    /// from disk (buffer-pool misses).
    pub fn record_cold_scan(&mut self, bytes: u64, seconds: f64) {
        self.cold_bytes += bytes;
        self.cold_seconds += seconds;
    }

    /// Record one completed reorganization: the wall-clock seconds of the
    /// aside rewrite (build + write + fsync + commit).
    pub fn record_reorg(&mut self, seconds: f64) {
        self.record_reorgs(seconds, 1);
    }

    /// Record `count` completed reorganizations at once from their
    /// *total* seconds — what a live exporter has (a monotone seconds
    /// counter plus a rewrite count) when it rebuilds an estimator per
    /// snapshot. Equivalent to `count` [`AlphaEstimator::record_reorg`]
    /// calls summing to the same total; a no-op when `count == 0`.
    pub fn record_reorgs(&mut self, seconds: f64, count: u64) {
        if count == 0 {
            return;
        }
        self.reorg_seconds += seconds;
        self.reorgs += count;
    }

    /// Combined (warm + cold) scan throughput in bytes/second (`None` until
    /// a scan with nonzero bytes and time has been recorded).
    fn scan_bytes_per_second(&self) -> Option<f64> {
        let bytes = self.warm_bytes + self.cold_bytes;
        let seconds = self.warm_seconds + self.cold_seconds;
        (bytes > 0 && seconds > 0.0).then(|| bytes as f64 / seconds)
    }

    /// Cold-scan throughput in bytes/second (`None` without cold samples).
    fn cold_scan_bytes_per_second(&self) -> Option<f64> {
        (self.cold_bytes > 0 && self.cold_seconds > 0.0)
            .then(|| self.cold_bytes as f64 / self.cold_seconds)
    }

    /// Warm-scan throughput in bytes/second (`None` without warm samples).
    fn warm_scan_bytes_per_second(&self) -> Option<f64> {
        (self.warm_bytes > 0 && self.warm_seconds > 0.0)
            .then(|| self.warm_bytes as f64 / self.warm_seconds)
    }

    /// Extrapolated wall-clock of one *full* table scan — the α
    /// denominator. Uses the cold (disk) throughput when cold samples
    /// exist; otherwise falls back to the combined throughput, which for a
    /// memory-resident run means α̂ is extrapolated from memory bandwidth.
    fn full_scan_seconds(&self) -> Option<f64> {
        self.cold_scan_bytes_per_second()
            .or_else(|| self.scan_bytes_per_second())
            .map(|bps| self.table_bytes as f64 / bps)
    }

    /// Mean wall-clock of one reorganization — the α numerator (`None`
    /// until a reorganization has been recorded).
    fn mean_reorg_seconds(&self) -> Option<f64> {
        (self.reorgs > 0).then(|| self.reorg_seconds / self.reorgs as f64)
    }

    /// The empirical α: mean reorganization time over extrapolated
    /// full-scan time (the cold throughput when cold samples exist,
    /// otherwise the combined one). `None` until both sides have samples.
    pub fn alpha(&self) -> Option<f64> {
        match (self.mean_reorg_seconds(), self.full_scan_seconds()) {
            (Some(reorg), Some(scan)) if scan > 0.0 => Some(reorg / scan),
            _ => None,
        }
    }

    /// α extrapolated from the cold (disk) scan throughput only — the
    /// honest Table I reading. `None` without cold samples or rewrites.
    pub fn alpha_cold(&self) -> Option<f64> {
        match (self.mean_reorg_seconds(), self.cold_scan_bytes_per_second()) {
            (Some(reorg), Some(bps)) if bps > 0.0 => Some(reorg / (self.table_bytes as f64 / bps)),
            _ => None,
        }
    }

    /// α extrapolated from the warm (memory/pool-hit) scan throughput —
    /// the optimistic reading a fully cached working set would see.
    pub fn alpha_warm(&self) -> Option<f64> {
        match (self.mean_reorg_seconds(), self.warm_scan_bytes_per_second()) {
            (Some(reorg), Some(bps)) if bps > 0.0 => Some(reorg / (self.table_bytes as f64 / bps)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_totals() {
        let mut l = CostLedger::new();
        l.add_query(0.5);
        l.add_query(0.25);
        l.add_reorg(80.0);
        assert_eq!(l.queries, 2);
        assert_eq!(l.switches, 1);
        assert!((l.total() - 80.75).abs() < 1e-12);
        assert!((l.mean_query_cost() - 0.375).abs() < 1e-12);
    }

    #[test]
    fn empty_ledger_mean_is_zero() {
        assert_eq!(CostLedger::new().mean_query_cost(), 0.0);
    }

    #[test]
    fn alpha_estimator_needs_both_sides() {
        let mut a = AlphaEstimator::new(2_000_000);
        assert_eq!(a.alpha(), None);
        assert_eq!(a.full_scan_seconds(), None);
        a.record_scan(1_000_000, 0.01); // 100 MB/s → full scan 0.02 s
        assert_eq!(a.alpha(), None, "no reorg recorded yet");
        assert!((a.full_scan_seconds().unwrap() - 0.02).abs() < 1e-12);
        a.record_reorg(1.0);
        a.record_reorg(3.0); // mean 2.0 s
        assert!((a.alpha().unwrap() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn cold_scans_dominate_alpha_when_present() {
        let mut a = AlphaEstimator::new(1_000_000);
        // warm: 1 GB/s; cold: 100 MB/s — a 10x temperature gap
        a.record_scan(1_000_000, 0.001);
        a.record_cold_scan(1_000_000, 0.01);
        a.record_reorg(1.0);
        // denominator uses the cold throughput: full scan = 0.01 s → α = 100
        assert!((a.alpha().unwrap() - 100.0).abs() < 1e-9);
        assert!((a.alpha_cold().unwrap() - 100.0).abs() < 1e-9);
        // the warm reading is 10x larger (scan looks 10x cheaper)
        assert!((a.alpha_warm().unwrap() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn warm_only_runs_fall_back_to_combined_throughput() {
        let mut a = AlphaEstimator::new(1_000_000);
        a.record_scan(500_000, 0.005); // 100 MB/s
        a.record_reorg(0.8);
        assert!((a.alpha().unwrap() - 80.0).abs() < 1e-6);
        assert_eq!(a.alpha_cold(), None, "no cold samples");
        assert!((a.alpha_warm().unwrap() - 80.0).abs() < 1e-6);
    }

    #[test]
    fn alpha_estimator_ignores_zero_byte_scans() {
        let mut a = AlphaEstimator::new(1_000);
        a.record_scan(0, 0.5); // fully pruned queries calibrate nothing
        a.record_reorg(1.0);
        assert_eq!(a.scan_bytes_per_second(), None);
        assert_eq!(a.alpha(), None);
    }

    #[test]
    fn replay_reproduces_ledger_ops_in_order() {
        let mut live = CostLedger::new();
        let mut events = Vec::new();
        let costs = [0.125, 0.3, 0.0625, 0.7, 0.01];
        for (i, &c) in costs.iter().enumerate() {
            if i == 2 {
                live.add_reorg(80.0);
                events.push(Event {
                    seq: events.len() as u64,
                    at_us: 0,
                    kind: EventKind::SwitchDecided {
                        stream_seq: i as u64,
                        from: 0,
                        target: 1,
                        alpha: 80.0,
                        pending: 1,
                    },
                });
            }
            live.add_query(c);
            events.push(Event {
                seq: events.len() as u64,
                at_us: 0,
                kind: EventKind::QueryObserved {
                    stream_seq: i as u64,
                    service_cost: c,
                    physical: 0,
                    logical: 0,
                    counter: 0.0,
                },
            });
        }
        assert_eq!(CostLedger::replay(&events), live);
    }

    #[test]
    fn record_reorgs_matches_repeated_record_reorg() {
        let mut one_by_one = AlphaEstimator::new(1_000_000);
        one_by_one.record_scan(500_000, 0.005);
        one_by_one.record_reorg(0.5);
        one_by_one.record_reorg(1.5);
        let mut bulk = AlphaEstimator::new(1_000_000);
        bulk.record_scan(500_000, 0.005);
        bulk.record_reorgs(2.0, 2);
        assert_eq!(one_by_one, bulk);
        // count == 0 records nothing
        bulk.record_reorgs(9.9, 0);
        assert_eq!(one_by_one, bulk);
    }

    #[test]
    fn compaction_charges_enter_the_total_and_replay() {
        let mut live = CostLedger::new();
        live.add_query(0.5);
        live.add_compaction(0.125);
        live.add_compaction(0.25);
        assert_eq!(live.compactions, 2);
        assert!((live.total() - 0.875).abs() < 1e-12);
        let events = vec![
            Event {
                seq: 0,
                at_us: 0,
                kind: EventKind::QueryObserved {
                    stream_seq: 0,
                    service_cost: 0.5,
                    physical: 0,
                    logical: 0,
                    counter: 0.0,
                },
            },
            Event {
                seq: 1,
                at_us: 0,
                kind: EventKind::CompactionCharged {
                    stream_seq: 1,
                    rows_written: 100,
                    cost: 0.125,
                },
            },
            Event {
                seq: 2,
                at_us: 0,
                kind: EventKind::CompactionCharged {
                    stream_seq: 1,
                    rows_written: 200,
                    cost: 0.25,
                },
            },
        ];
        assert_eq!(CostLedger::replay(&events), live);
        // a read-only ledger stays bit-identical to the pre-ingestion shape
        let read_only = CostLedger::new();
        assert_eq!(read_only.compaction_cost, 0.0);
        assert_eq!(read_only.total(), 0.0);
    }

    #[test]
    fn merge_sums_fields() {
        let mut a = CostLedger::new();
        a.add_query(1.0);
        let mut b = CostLedger::new();
        b.add_query(0.5);
        b.add_reorg(10.0);
        a.merge(&b);
        assert_eq!(a.queries, 2);
        assert_eq!(a.switches, 1);
        assert!((a.total() - 11.5).abs() < 1e-12);
    }
}
