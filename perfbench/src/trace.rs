//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer's public API, made from the
//! benchmark's own code: name, start, end, parent span and the query it
//! belongs to. Spans stay in a `Vec` while the round runs; the
//! per-layer aggregates are computed from them when the round ends, and
//! the first traced round's spans are written out as JSON lines once,
//! when the benchmark exits.
//!
//! When the tracer is disabled `enter`/`exit` return at once without
//! reading the clock, so an untraced round pays one branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Parent of a root span.
pub const NONE: u32 = u32::MAX;
/// Query id of a span outside any query (setup, maintenance).
pub const NO_QUERY: u64 = u64::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub query: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct SpanId(u32);

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, query: u64) -> SpanId {
        if !self.enabled {
            return SpanId(NONE);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NONE);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            query,
        });
        self.stack.push(id);
        SpanId(id)
    }

    /// Close the span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost first");
        self.spans[id.0 as usize].end_ns = end;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Hand over the recorded spans and start empty.
    pub fn take(&mut self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "take() with open spans");
        std::mem::take(&mut self.spans)
    }
}

/// Per-name aggregate of one round's spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    /// Wall time inside the spans.
    pub total_ns: u64,
    /// `total_ns` minus the part covered by child spans.
    pub self_ns: u64,
}

/// Self time of a span is its duration minus its children's durations
/// (children never overlap: the benchmark is single-threaded).
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NONE {
            child_ns[s.parent as usize] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, children) in spans.iter().zip(&child_ns) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns().saturating_sub(*children);
    }
    out
}

/// Durations of every span called `name`, in recording order.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .collect()
}

/// Write spans as one JSON object per line.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let file = std::fs::File::create(path)?;
    let mut out = std::io::BufWriter::new(file);
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NONE {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        let query = if s.query == NO_QUERY {
            "null".to_string()
        } else {
            s.query.to_string()
        };
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"query\":{query}}}",
            s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "a",
                start_ns: 0,
                end_ns: 100,
                parent: NONE,
                query: 1,
            },
            Span {
                name: "b",
                start_ns: 10,
                end_ns: 40,
                parent: 0,
                query: 1,
            },
            Span {
                name: "b",
                start_ns: 50,
                end_ns: 70,
                parent: 0,
                query: 1,
            },
            Span {
                name: "c",
                start_ns: 55,
                end_ns: 60,
                parent: 2,
                query: 1,
            },
        ];
        let t = layer_times(&spans);
        assert_eq!(t["a"].self_ns, 50);
        assert_eq!(t["b"].total_ns, 50);
        assert_eq!(t["b"].self_ns, 45);
        assert_eq!(t["c"].self_ns, 5);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("x", 0);
        t.exit(id);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nested_spans_link_parents() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer", 7);
        let inner = t.enter("inner", 7);
        t.exit(inner);
        t.exit(outer);
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[0].parent, NONE);
    }
}
