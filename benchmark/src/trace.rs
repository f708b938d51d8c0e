//! In-memory span recorder for the traced replay.
//!
//! The replay is single-threaded, so the recorder is a thread-local stack:
//! [`span`] wraps a call into a layer's public function, nesting gives the
//! parent, and the spans are written out as JSON lines when the benchmark
//! ends. With the recorder disabled (the null recorder) [`span`] only runs
//! the closure, which is what `trace.overhead_ratio` compares against.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer name (`storage.snapshot.scan`) or root kind (`q`, `reorg`,
    /// `ingest`, `probe`).
    pub name: &'static str,
    /// Ordinal for root spans: printed as `q/<n>`, `reorg/<n>`, ….
    pub ordinal: Option<u64>,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Stream position of the query this work belongs to.
    pub query: u64,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall-clock length of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The printed name: `q/17` for roots, the layer name otherwise.
    pub fn label(&self) -> String {
        match self.ordinal {
            Some(n) => format!("{}/{n}", self.name),
            None => self.name.to_string(),
        }
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    query: u64,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording on this thread (dropping anything recorded before).
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            query: 0,
        });
    });
}

/// Stop recording and hand back the spans, in start order.
pub fn finish() -> Vec<Span> {
    RECORDER.with(|r| r.borrow_mut().take().map_or(Vec::new(), |rec| rec.spans))
}

fn open(name: &'static str, ordinal: Option<u64>, query: Option<u64>) -> Option<usize> {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        if let Some(q) = query {
            rec.query = q;
        }
        let index = rec.spans.len();
        let start_ns = rec.origin.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            name,
            ordinal,
            parent: rec.open.last().copied(),
            query: rec.query,
            start_ns,
            end_ns: start_ns,
        });
        rec.open.push(index);
        Some(index)
    })
}

fn close(index: usize) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.spans[index].end_ns = rec.origin.elapsed().as_nanos() as u64;
            let popped = rec.open.pop();
            debug_assert_eq!(popped, Some(index), "spans close innermost first");
        }
    });
}

fn record<T>(
    name: &'static str,
    ordinal: Option<u64>,
    query: Option<u64>,
    f: impl FnOnce() -> T,
) -> T {
    let index = open(name, ordinal, query);
    let out = f();
    if let Some(index) = index {
        close(index);
    }
    out
}

/// Record `f` as a span named `name` under whatever span is open.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    record(name, None, None, f)
}

/// Record `f` as a root-kind span `kind/<ordinal>` on behalf of stream
/// position `query` (nested kinds, such as a `reorg` opened while its
/// deciding query is still open, keep that query as parent).
pub fn root<T>(kind: &'static str, ordinal: u64, query: u64, f: impl FnOnce() -> T) -> T {
    record(kind, Some(ordinal), Some(query), f)
}

/// Each span's self time: its duration minus the part of that interval its
/// direct children cover (overlapping children are not counted twice).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Write the spans as JSON lines: `{"id", "name", "parent", "query",
/// "start_ns", "end_ns", "self_ns"}`.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times_ns(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"query\":{},\
             \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
            s.label(),
            s.query,
            s.start_ns,
            s.end_ns,
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            ordinal: None,
            parent,
            query: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = vec![
            s("q", None, 0, 100),          // 0: root
            s("scan", Some(0), 10, 40),    // 1: child
            s("observe", Some(0), 40, 90), // 2: adjacent child
            s("build", Some(2), 50, 70),   // 3: grandchild, counted against 2 only
            s("assign", Some(3), 55, 60),  // 4
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 30, 30, 15, 5]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_not_double_counted() {
        let spans = vec![
            s("q", None, 0, 100),
            s("a", Some(0), 10, 60),
            s("b", Some(0), 40, 80),
            s("c", Some(0), 90, 130), // clipped to the parent's interval
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn recorder_nests_and_null_recorder_records_nothing() {
        assert_eq!(span("off", || 7), 7);
        assert!(finish().is_empty());

        start();
        let value = root("q", 3, 3, || {
            span("storage.snapshot.scan", || ());
            root("reorg", 0, 3, || span("engine.reorg.materialize", || 11))
        });
        assert_eq!(value, 11);
        let spans = finish();
        let labels: Vec<String> = spans.iter().map(Span::label).collect();
        assert_eq!(
            labels,
            [
                "q/3",
                "storage.snapshot.scan",
                "reorg/0",
                "engine.reorg.materialize"
            ]
        );
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.query == 3 && s.end_ns >= s.start_ns));
        assert!(finish().is_empty(), "finish stops the recorder");
    }
}
