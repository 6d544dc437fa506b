//! In-memory span recording for the traced run, and self-time analysis.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! program's crates; nothing is added inside the program. They stay in
//! memory and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are seconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name (`pipeline.elaborated`, `stg.reach`, …).
    pub name: String,
    /// Free-form annotation (the `X-Simc-Flight` role of a request).
    pub tag: String,
    /// Identifier shared by every span of one spec or request.
    pub request: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in seconds.
    pub start: f64,
    /// End, in seconds.
    pub end: f64,
}

/// Records nested spans on one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Seconds since the tracer started.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Seconds since the tracer started at `instant`.
    pub fn at(&self, instant: Instant) -> f64 {
        instant.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &str, request: u64) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            tag: String::new(),
            request,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`; returns its
    /// duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let end = self.now();
        let span = &mut self.spans[id];
        span.end = end;
        end - span.start
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, request);
        let value = f();
        self.close(id);
        value
    }

    /// Records a finished span with explicit times (client-side request
    /// spans measured on other threads).
    pub fn record(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let (start, end) = (span.start.max(p.start), span.end.min(p.end));
            if end > start {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, intervals)| {
            intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut current: Option<(f64, f64)> = None;
            for &(start, end) in intervals.iter() {
                current = match current {
                    Some((s, e)) if start <= e => Some((s, e.max(end))),
                    Some((s, e)) => {
                        covered += e - s;
                        Some((start, end))
                    }
                    None => Some((start, end)),
                };
            }
            if let Some((s, e)) = current {
                covered += e - s;
            }
            (span.end - span.start - covered).max(0.0)
        })
        .collect()
}

/// Per-name totals: `(calls, total seconds, self seconds)`.
pub fn by_name(spans: &[Span]) -> BTreeMap<String, (u64, f64, f64)> {
    let mut table: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let row = table.entry(span.name.clone()).or_default();
        row.0 += 1;
        row.1 += span.end - span.start;
        row.2 += own;
    }
    table
}

/// The spans as a JSON array, one object per line.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "  {{\"id\": {i}, \"name\": {}, \"tag\": {}, \"request\": {}, \"parent\": {parent}, \"start\": {:.9}, \"end\": {:.9}}}",
            simc_obs::json::escape(&s.name),
            simc_obs::json::escape(&s.tag),
            s.request,
            s.start,
            s.end
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name: name.into(),
            tag: String::new(),
            request: 0,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_is_span_minus_child_coverage() {
        let spans = vec![
            span("root", None, 0.0, 10.0),
            span("a", Some(0), 1.0, 3.0),
            span("b", Some(0), 2.0, 5.0), // overlaps `a`: 1..5 covered once
            span("c", Some(0), 7.0, 8.0),
            span("a.inner", Some(1), 1.5, 2.0),
        ];
        let own = self_times(&spans);
        assert!((own[0] - (10.0 - 4.0 - 1.0)).abs() < 1e-12, "{own:?}");
        assert!(
            (own[1] - 1.5).abs() < 1e-12,
            "grandchildren are not the root's children"
        );
        assert!((own[2] - 3.0).abs() < 1e-12);
        assert!((own[4] - 0.5).abs() < 1e-12);
        let table = by_name(&spans);
        assert_eq!(table["a"].0, 1);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        let spans = vec![
            span("root", None, 0.0, 2.0),
            span("late", Some(0), 1.0, 5.0),
        ];
        assert!((self_times(&spans)[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_spans() {
        let mut tracer = Tracer::new();
        let root = tracer.open("root", 7);
        let inner = tracer.time("inner", 7, || 3);
        assert_eq!(inner, 3);
        tracer.close(root);
        let spans = tracer.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, 7);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        assert!(to_json(spans).contains("\"name\": \"inner\""));
    }
}
