//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only around the benchmark's own calls into the layers
//! (never inside the program), kept in memory while the workload runs,
//! and written out as JSON lines when the run ends. An untraced run passes
//! no [`Tracer`] and pays nothing but a branch per call.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the run (1-based).
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// Layer call or phase name, e.g. `core.run` or `cell:crash`.
    pub name: &'static str,
    /// Grid cell the span belongs to, if any.
    pub cell: Option<u32>,
    /// Small per-thread number of the worker that ran the span.
    pub worker: u32,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

static NEXT_WORKER: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static WORKER: u32 = NEXT_WORKER.fetch_add(1, Ordering::Relaxed);
}

/// Collects spans from every worker thread of a run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span; `f` receives the span's id so nested calls
    /// can name it as their parent.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        cell: Option<u32>,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        let span = Span {
            id,
            parent,
            name,
            cell,
            worker: WORKER.with(|w| *w),
            start_ns,
            end_ns,
        };
        self.spans.lock().expect("span list poisoned").push(span);
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Every span closed so far, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span list poisoned").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Runs `f`, inside a span when a tracer is present.
pub fn timed<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<u64>,
    cell: Option<u32>,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => t.span(name, parent, cell, |_| f()),
        None => f(),
    }
}

/// Renders spans as JSON lines:
/// `{"id", "parent", "name", "cell", "worker", "start_ns", "end_ns"}`.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"cell\":{},\"worker\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            opt(s.parent),
            s.name,
            opt(s.cell.map(u64::from)),
            s.worker,
            s.start_ns,
            s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_to_their_parent() {
        let t = Tracer::new();
        t.span("outer", None, None, |outer| {
            timed(Some(&t), "inner", Some(outer), Some(3), || ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let (outer, inner) = (&spans[0], &spans[1]);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.cell, Some(3));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(to_jsonl(&spans).lines().count(), 2);
    }
}
