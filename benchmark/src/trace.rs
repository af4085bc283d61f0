//! In-memory spans recorded by the benchmark around its own public calls
//! (tracing *inside* the program is a later change), plus the span
//! arithmetic the budget table is built from.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The span's index in its recorder's list.
    pub id: u32,
    /// The span that caused this one; `None` for an op's root span.
    pub parent: Option<u32>,
    /// Spans of one client operation share this identifier.
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span sink of one client. `Off` is the untraced run: calls go straight
/// through with no clock reads.
pub enum Recorder {
    Off,
    On { epoch: Instant, spans: Vec<Span>, op: u32, root: Option<u32> },
}

impl Recorder {
    pub fn on() -> Recorder {
        Recorder::On { epoch: Instant::now(), spans: Vec::new(), op: 0, root: None }
    }

    /// Opens the root span of the next client operation.
    pub fn begin_op(&mut self, name: &'static str) {
        if let Recorder::On { epoch, spans, op, root } = self {
            let id = spans.len() as u32;
            let now = epoch.elapsed().as_nanos() as u64;
            spans.push(Span { id, parent: None, op: *op, name, start_ns: now, end_ns: now });
            *root = Some(id);
        }
    }

    pub fn end_op(&mut self) {
        if let Recorder::On { epoch, spans, op, root } = self {
            if let Some(id) = root.take() {
                spans[id as usize].end_ns = epoch.elapsed().as_nanos() as u64;
                *op += 1;
            }
        }
    }

    /// Runs `f` inside a child span of the current op.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        match self {
            Recorder::Off => f(),
            Recorder::On { epoch, spans, op, root } => {
                let start_ns = epoch.elapsed().as_nanos() as u64;
                let out = f();
                let end_ns = epoch.elapsed().as_nanos() as u64;
                let id = spans.len() as u32;
                spans.push(Span { id, parent: *root, op: *op, name, start_ns, end_ns });
                out
            }
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        match self {
            Recorder::Off => Vec::new(),
            Recorder::On { spans, .. } => spans,
        }
    }
}

/// Self time of every span, indexed by span id: its duration minus the
/// part of its interval that its child spans cover (overlapping children
/// are counted once; a child is clipped to its parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            let (mut covered, mut reach) = (0, s.start_ns);
            kids.sort_unstable();
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Writes one JSON object per span, one per line.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, op: 0, name: "t", start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            // Overlaps span 1 by 10 ns: the union covers 10..50.
            span(2, Some(0), 20, 50),
            span(3, Some(2), 25, 35),
            // Sticks out of its parent: only 90..100 counts.
            span(4, Some(0), 90, 120),
        ];
        let st = self_times(&spans);
        assert_eq!(st, [100 - 40 - 10, 20, 30 - 10, 10, 30]);
    }

    #[test]
    fn recorder_links_children_to_the_open_op() {
        let mut rec = Recorder::on();
        rec.begin_op("update");
        assert_eq!(rec.call("open", || 7), 7);
        rec.call("close", || ());
        rec.end_op();
        rec.begin_op("read");
        rec.call("open", || ());
        rec.end_op();
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 5);
        assert_eq!((spans[0].name, spans[0].parent, spans[0].op), ("update", None, 0));
        assert_eq!((spans[1].name, spans[1].parent), ("open", Some(0)));
        assert_eq!((spans[2].name, spans[2].parent), ("close", Some(0)));
        assert_eq!((spans[3].name, spans[3].parent, spans[3].op), ("read", None, 1));
        assert_eq!((spans[4].parent, spans[4].op), (Some(3), 1));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn off_recorder_records_nothing() {
        let mut rec = Recorder::Off;
        rec.begin_op("update");
        assert_eq!(rec.call("open", || 1), 1);
        rec.end_op();
        assert!(rec.into_spans().is_empty());
    }
}
