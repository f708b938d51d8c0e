//! The bounded structured event journal: every policy decision and query
//! lifecycle transition as a sequence-stamped event in a fixed-capacity,
//! per-thread-sharded ring.
//!
//! Design constraints, in order:
//!
//! * **Zero cost when disabled.** Instrumented code holds an
//!   `Arc<dyn EventSink>`; the [`NullSink`] reports `enabled() == false`,
//!   so call sites skip even *constructing* the event. The serving engine
//!   runs with the null sink unless a journal was asked for.
//! * **Bounded.** Each shard is a ring of fixed capacity; when full, the
//!   oldest events are overwritten and counted in
//!   [`Journal::events_dropped`]. Memory is `shards × capacity` events,
//!   forever.
//! * **Ordered.** Every event is stamped from one global atomic sequence
//!   at emit time, so a drained journal sorts into a single total order —
//!   which is what lets a single-tenant run's policy events replay the
//!   `CostLedger` bit-for-bit: events are emitted *under the core mutex*
//!   at the exact ledger-operation sites, so seq order is ledger order.
//! * **Low contention.** Threads are assigned round-robin to a small set
//!   of shard mutexes; with one thread per shard an emit is an
//!   uncontended lock plus a vector write.
//!
//! Layout identifiers are carried as raw `u64` (the workspace's
//! `LayoutId` type alias) so this crate stays dependency-free.

use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Which phase of a background reorganization a
/// [`EventKind::ReorgPhase`] event measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReorgPhaseKind {
    /// Materializing the target layout aside (routing + partition build).
    Build,
    /// Persisting the aside rewrite (write + fsync + atomic rename).
    Write,
    /// Swapping the served snapshot pointer.
    Publish,
    /// Dropping the superseded generation's buffer-pool pages.
    Invalidate,
}

impl ReorgPhaseKind {
    /// Lower-case label (`"build"`, `"write"`, …).
    pub fn label(&self) -> &'static str {
        match self {
            ReorgPhaseKind::Build => "build",
            ReorgPhaseKind::Write => "write",
            ReorgPhaseKind::Publish => "publish",
            ReorgPhaseKind::Invalidate => "invalidate",
        }
    }
}

/// The event vocabulary: query lifecycle spans, policy decisions,
/// reorganization phases, and storage-layer incidents.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// A query entered the work queue (span start).
    QueryEnqueued {
        /// Submission order assigned by the engine front end.
        submit_id: u64,
    },
    /// A worker claimed the query and pinned a snapshot.
    QueryPickup {
        /// Submission order assigned by the engine front end.
        submit_id: u64,
    },
    /// The snapshot scan finished (still before bookkeeping).
    QueryScanned {
        /// Submission order assigned by the engine front end.
        submit_id: u64,
        /// Rows read after pruning.
        rows_read: u64,
        /// Bytes read by the scan.
        bytes: u64,
        /// Rows matching the predicate.
        matched: u64,
    },
    /// The query's result was fulfilled (span end).
    QueryCompleted {
        /// Submission order assigned by the engine front end.
        submit_id: u64,
        /// Stream position assigned by the bookkeeping core.
        stream_seq: u64,
        /// Pickup → completion latency in microseconds.
        latency_us: u64,
    },
    /// `Oreo` settled one query: the service cost charged to the ledger,
    /// plus the D-UMTS view after the step. Replaying these (with
    /// [`EventKind::SwitchDecided`]) in seq order reproduces the
    /// `CostLedger` exactly.
    QueryObserved {
        /// Stream position assigned by the bookkeeping core.
        stream_seq: u64,
        /// Service cost charged (fraction of table read).
        service_cost: f64,
        /// Physical layout the cost was billed against.
        physical: u64,
        /// The reorganizer's logical current state.
        logical: u64,
        /// The logical state's D-UMTS work-function counter after the
        /// step (the quantity Algorithm 4 spends toward α).
        counter: f64,
    },
    /// The D-UMTS phase ended this step (all counters exhausted).
    PhaseReset {
        /// Stream position assigned by the bookkeeping core.
        stream_seq: u64,
    },
    /// The reorganizer decided to switch — α entered the ledger *now*;
    /// the physical swap lands later (after Δ, or at publish).
    SwitchDecided {
        /// Stream position assigned by the bookkeeping core.
        stream_seq: u64,
        /// Logical state before the switch.
        from: u64,
        /// Switch target.
        target: u64,
        /// Reorganization cost charged (the ledger's cost delta).
        alpha: f64,
        /// Depth of the pending-switch queue after this decision.
        pending: u64,
    },
    /// The layout manager admitted a candidate to the state space.
    StateAdmitted {
        /// Stream position assigned by the bookkeeping core.
        stream_seq: u64,
        /// The admitted layout.
        layout: u64,
    },
    /// A pending switch landed: queries are physically served on
    /// `target` from here on.
    ReorgApplied {
        /// The owning OREO instance's stream position when the switch
        /// landed: the last query it observed.
        stream_seq: u64,
        /// The layout that became physical.
        target: u64,
    },
    /// One timed phase of a background reorganization window.
    ReorgPhase {
        /// The switch target being built.
        target: u64,
        /// Which phase.
        phase: ReorgPhaseKind,
        /// Phase wall-clock in microseconds.
        micros: u64,
        /// Bytes written by the phase (0 outside `Write`).
        bytes: u64,
    },
    /// A tiered publish failed and the switch degraded to a memory-only
    /// publish.
    TieredDegraded {
        /// The switch target whose persist failed.
        target: u64,
    },
    /// Ingest compaction work (delta-run merges or a background fold)
    /// entered the ledger. Replayed by `CostLedger::replay` alongside
    /// query and switch events.
    CompactionCharged {
        /// Stream position of the charge (the next query's position for
        /// charges between queries).
        stream_seq: u64,
        /// Rows rewritten by the merge/fold.
        rows_written: u64,
        /// Cost charged (same logical unit as α: full-table-scan
        /// equivalents).
        cost: f64,
    },
    /// The buffer pool evicted one page to make room.
    PoolEvicted {
        /// Generation the page belonged to.
        generation: u64,
        /// Partition-file index within the generation.
        file: u32,
        /// Page number within the file.
        page: u32,
    },
    /// A superseded generation's pages were dropped from the pool.
    PoolInvalidated {
        /// The retired generation.
        generation: u64,
        /// Pages dropped.
        pages: u64,
    },
}

/// One journal entry: a globally ordered sequence number, a relative
/// timestamp, and the event payload.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Global emit order (dense per journal, unique across shards).
    pub seq: u64,
    /// Microseconds since the journal was created.
    pub at_us: u64,
    /// The event payload.
    pub kind: EventKind,
}

/// Where instrumented code sends events. Implementations must be cheap
/// to query: call sites guard event *construction* behind
/// [`EventSink::enabled`].
pub trait EventSink: Send + Sync {
    /// Whether emitted events go anywhere. Call sites skip building the
    /// event when this is `false`.
    fn enabled(&self) -> bool;
    /// Record one event.
    fn emit(&self, kind: EventKind);
}

/// The disabled sink: `enabled()` is `false`, `emit` is a no-op. This is
/// what instrumented code holds when no journal was configured.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }
    fn emit(&self, _kind: EventKind) {}
}

struct Ring {
    buf: Vec<Event>,
    /// Overwrite position once the ring is full.
    next: usize,
    overwritten: u64,
}

impl Ring {
    fn push(&mut self, capacity: usize, event: Event) {
        if self.buf.len() < capacity {
            self.buf.push(event);
        } else {
            self.buf[self.next] = event;
            self.next = (self.next + 1) % capacity;
            self.overwritten += 1;
        }
    }
}

/// Process-wide thread ordinal assignment for shard selection.
static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);
thread_local! {
    static THREAD_ORDINAL: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn thread_ordinal() -> usize {
    THREAD_ORDINAL.with(|c| {
        let v = c.get();
        if v != usize::MAX {
            v
        } else {
            let v = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            c.set(v);
            v
        }
    })
}

/// The bounded, sharded event journal. See the [module docs](self).
pub struct Journal {
    shards: Vec<Mutex<Ring>>,
    capacity: usize,
    seq: AtomicU64,
    origin: Instant,
}

impl Journal {
    /// A journal of `shards` rings holding `capacity` events each.
    /// Memory is fixed at `shards × capacity` events.
    pub fn new(shards: usize, capacity: usize) -> Self {
        let shards = shards.max(1);
        let capacity = capacity.max(1);
        Self {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Ring {
                        buf: Vec::new(),
                        next: 0,
                        overwritten: 0,
                    })
                })
                .collect(),
            capacity,
            seq: AtomicU64::new(0),
            origin: Instant::now(),
        }
    }

    /// Per-shard ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events overwritten because a shard's ring was full. A journal
    /// sized for its run keeps this at 0 — the replay-parity assertions
    /// require it.
    pub fn events_dropped(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().expect("journal shard poisoned").overwritten)
            .sum()
    }

    /// All retained events, merged across shards and sorted into the
    /// global emit order (non-destructive).
    pub fn events(&self) -> Vec<Event> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(
                shard
                    .lock()
                    .expect("journal shard poisoned")
                    .buf
                    .iter()
                    .cloned(),
            );
        }
        out.sort_by_key(|e| e.seq);
        out
    }

    /// As [`Journal::events`], but clears the rings (drop counters are
    /// preserved).
    pub fn drain(&self) -> Vec<Event> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let mut ring = shard.lock().expect("journal shard poisoned");
            out.append(&mut ring.buf);
            ring.next = 0;
        }
        out.sort_by_key(|e| e.seq);
        out
    }
}

impl EventSink for Journal {
    fn enabled(&self) -> bool {
        true
    }

    fn emit(&self, kind: EventKind) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let at_us = u64::try_from(self.origin.elapsed().as_micros()).unwrap_or(u64::MAX);
        let shard = thread_ordinal() % self.shards.len();
        self.shards[shard]
            .lock()
            .expect("journal shard poisoned")
            .push(self.capacity, Event { seq, at_us, kind });
    }
}

/// Render a drained journal as a human-readable decision trace — the
/// `dump_trace` view: one line per event, seq-ordered, with relative
/// timestamps.
pub fn render_trace(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 64);
    out.push_str("seq        t(µs)        event\n");
    for e in events {
        let _ = writeln!(out, "{:<10} {:<12} {}", e.seq, e.at_us, describe(&e.kind));
    }
    out
}

/// One event as a trace line body.
fn describe(kind: &EventKind) -> String {
    match kind {
        EventKind::QueryEnqueued { submit_id } => format!("query {submit_id} enqueued"),
        EventKind::QueryPickup { submit_id } => format!("query {submit_id} picked up"),
        EventKind::QueryScanned {
            submit_id,
            rows_read,
            bytes,
            matched,
        } => format!("query {submit_id} scanned: {rows_read} rows / {bytes} B, {matched} matched"),
        EventKind::QueryCompleted {
            submit_id,
            stream_seq,
            latency_us,
        } => format!("query {submit_id} completed (stream seq {stream_seq}, {latency_us} µs)"),
        EventKind::QueryObserved {
            stream_seq,
            service_cost,
            physical,
            logical,
            counter,
        } => format!(
            "observe seq {stream_seq}: service {service_cost:.6} on layout {physical} \
             (logical {logical}, counter {counter:.4})"
        ),
        EventKind::PhaseReset { stream_seq } => {
            format!("phase reset at seq {stream_seq} (all counters exhausted)")
        }
        EventKind::SwitchDecided {
            stream_seq,
            from,
            target,
            alpha,
            pending,
        } => format!(
            "SWITCH at seq {stream_seq}: {from} -> {target} (charged α = {alpha}, \
             {pending} pending)"
        ),
        EventKind::StateAdmitted { stream_seq, layout } => {
            format!("state {layout} admitted at seq {stream_seq}")
        }
        EventKind::ReorgApplied { stream_seq, target } => {
            format!("reorg applied at seq {stream_seq}: physical layout is now {target}")
        }
        EventKind::ReorgPhase {
            target,
            phase,
            micros,
            bytes,
        } => format!(
            "reorg {} of layout {target}: {micros} µs, {bytes} B",
            phase.label()
        ),
        EventKind::TieredDegraded { target } => {
            format!("tiered publish of layout {target} FAILED (memory-only degradation)")
        }
        EventKind::CompactionCharged {
            stream_seq,
            rows_written,
            cost,
        } => {
            format!("compaction at seq {stream_seq}: {rows_written} rows rewritten, cost {cost:.6}")
        }
        EventKind::PoolEvicted {
            generation,
            file,
            page,
        } => format!("pool evicted page gen {generation} / file {file} / page {page}"),
        EventKind::PoolInvalidated { generation, pages } => {
            format!("pool invalidated generation {generation} ({pages} pages)")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_seq_ordered_across_shards() {
        let j = Journal::new(4, 64);
        for i in 0..10 {
            j.emit(EventKind::QueryEnqueued { submit_id: i });
        }
        let events = j.events();
        assert_eq!(events.len(), 10);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..10).collect::<Vec<_>>());
        assert_eq!(j.events_dropped(), 0);
    }

    #[test]
    fn full_ring_overwrites_oldest_and_counts_drops() {
        let j = Journal::new(1, 4);
        for i in 0..10 {
            j.emit(EventKind::QueryEnqueued { submit_id: i });
        }
        assert_eq!(j.events_dropped(), 6);
        let events = j.events();
        assert_eq!(events.len(), 4, "ring keeps exactly its capacity");
        // the survivors are the newest four
        let ids: Vec<u64> = events
            .iter()
            .map(|e| match e.kind {
                EventKind::QueryEnqueued { submit_id } => submit_id,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, vec![6, 7, 8, 9]);
    }

    #[test]
    fn drain_clears_but_keeps_drop_counter() {
        let j = Journal::new(2, 2);
        for i in 0..6 {
            j.emit(EventKind::PhaseReset { stream_seq: i });
        }
        let drained = j.drain();
        assert!(!drained.is_empty());
        assert!(j.events().is_empty(), "drain clears the rings");
        assert!(j.events_dropped() > 0, "drop counter survives drain");
    }

    #[test]
    fn concurrent_emits_keep_unique_seqs() {
        let j = std::sync::Arc::new(Journal::new(4, 10_000));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let j = std::sync::Arc::clone(&j);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000 {
                    j.emit(EventKind::QueryEnqueued {
                        submit_id: t * 1000 + i,
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let events = j.events();
        assert_eq!(events.len(), 4000);
        let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        seqs.dedup();
        assert_eq!(seqs.len(), 4000, "seqs unique and sorted");
        assert_eq!(j.events_dropped(), 0);
    }

    #[test]
    fn null_sink_is_disabled() {
        let s = NullSink;
        assert!(!s.enabled());
        s.emit(EventKind::PhaseReset { stream_seq: 0 });
    }

    #[test]
    fn trace_renders_one_line_per_event() {
        let j = Journal::new(1, 16);
        j.emit(EventKind::SwitchDecided {
            stream_seq: 7,
            from: 1,
            target: 9,
            alpha: 80.0,
            pending: 1,
        });
        j.emit(EventKind::ReorgPhase {
            target: 9,
            phase: ReorgPhaseKind::Write,
            micros: 1500,
            bytes: 4096,
        });
        let trace = render_trace(&j.events());
        assert_eq!(trace.lines().count(), 3, "header + 2 events");
        assert!(trace.contains("SWITCH at seq 7: 1 -> 9"));
        assert!(trace.contains("reorg write of layout 9: 1500 µs, 4096 B"));
    }
}
