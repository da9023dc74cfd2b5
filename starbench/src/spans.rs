//! In-memory spans recorded around calls into the engine's public functions.
//!
//! A span has a name, a start and end (offsets from the recorder's origin),
//! the span that caused it, and the iteration it belongs to. Spans are kept
//! in memory while the benchmark measures and written out once at the end.
//! A span's self time is its duration minus the part of it that its child
//! spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Index of a span in its recorder.
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name of the call, e.g. `core.fence`.
    pub name: &'static str,
    /// Start, as an offset from the recorder's origin.
    pub start: Duration,
    /// End; equal to `start` while the span is open.
    pub end: Duration,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Iteration the span belongs to.
    pub iteration: u64,
}

impl Span {
    /// Wall time between start and end.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Records spans against one monotonic origin.
#[derive(Debug)]
pub struct SpanRecorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for SpanRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanRecorder {
    /// An empty recorder whose origin is now.
    pub fn new() -> Self {
        SpanRecorder { origin: Instant::now(), spans: Vec::new() }
    }

    /// Opens a span and returns its id.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, iteration: u64) -> SpanId {
        let now = self.origin.elapsed();
        self.spans.push(Span { name, start: now, end: now, parent, iteration });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end = self.origin.elapsed();
    }

    /// Runs `f` inside a span named `name` and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        iteration: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, iteration);
        let result = f();
        self.close(id);
        result
    }

    /// Adds an already-measured span (for tests and for callers that time
    /// work themselves).
    pub fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `id`: its duration minus the union of its direct
    /// children's intervals, clipped to the span itself.
    pub fn self_time(&self, id: SpanId) -> Duration {
        let children = self.spans.iter().filter(|s| s.parent == Some(id));
        uncovered(&self.spans[id], children)
    }

    /// Self time of every span, indexed like [`spans`](Self::spans).
    pub fn self_times(&self) -> Vec<Duration> {
        let mut children: Vec<Vec<&Span>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push(span);
            }
        }
        self.spans.iter().zip(children).map(|(span, kids)| uncovered(span, kids)).collect()
    }

    /// Total self time per span name, sorted by name.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, Duration> {
        let mut totals = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            *totals.entry(span.name).or_insert(Duration::ZERO) += own;
        }
        totals
    }

    /// Every span as one JSON object per line (times in microseconds).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let self_times = self.self_times();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\
                 \"parent\":{parent},\"iteration\":{},\"self_us\":{:.3}}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                s.iteration,
                self_times[id].as_secs_f64() * 1e6,
            );
        }
        out
    }
}

/// `span`'s duration minus the union of the `children` intervals that fall
/// inside it.
fn uncovered<'a>(span: &Span, children: impl IntoIterator<Item = &'a Span>) -> Duration {
    let mut intervals: Vec<(Duration, Duration)> = children
        .into_iter()
        .map(|c| (c.start.max(span.start), c.end.min(span.end)))
        .filter(|(start, end)| start < end)
        .collect();
    intervals.sort();
    let mut covered = Duration::ZERO;
    let mut reach = span.start;
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    span.duration().saturating_sub(covered)
}
