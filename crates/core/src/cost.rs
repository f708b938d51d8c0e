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
