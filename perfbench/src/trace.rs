//! In-memory spans recorded around calls into each layer.
//!
//! A span is `(name, start, end, parent)`; spans nest through a stack, so a
//! `place` call made inside `run_until` becomes its child. The recorder is
//! thread-local and off by default: [`span`] then only reads one flag, which
//! is what untraced runs pay. A layer's self time is its span's duration
//! minus the time its direct children cover.

use std::cell::RefCell;
use std::time::Instant;

/// One finished or open span. Times are ns since the recorder started.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Boundary name, e.g. `engine.run_until`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns (`u64::MAX` while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording on this thread, discarding any earlier spans.
pub fn start() {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        })
    });
}

/// Stop recording and return the spans in start order.
pub fn stop() -> Vec<Span> {
    REC.with(|r| r.borrow_mut().take())
        .map(|rec| {
            assert!(rec.stack.is_empty(), "spans still open at stop");
            rec.spans
        })
        .unwrap_or_default()
}

/// Closes its span when dropped.
pub struct Guard(Option<usize>);

/// Open a span named `name`; it closes when the guard drops.
pub fn span(name: &'static str) -> Guard {
    Guard(REC.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let idx = rec.spans.len();
        rec.spans.push(Span {
            name,
            start_ns: rec.origin.elapsed().as_nanos() as u64,
            end_ns: u64::MAX,
            parent: rec.stack.last().copied(),
        });
        rec.stack.push(idx);
        Some(idx)
    }))
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(idx) = self.0 else { return };
        REC.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[idx].end_ns = rec.origin.elapsed().as_nanos() as u64;
                if rec.stack.last() == Some(&idx) {
                    rec.stack.pop();
                }
            }
        });
    }
}

/// Self time per span: its duration minus the union of its direct
/// children's intervals (children of one parent never overlap here, as
/// everything runs on one thread, so the union is their sum).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.end_ns - s.start_ns;
        }
    }
    own
}

/// Render spans as JSON lines: `{"id","parent","name","start_ns","end_ns"}`.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 80);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
            s.name, s.start_ns, s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_times_add_up() {
        start();
        {
            let _root = span("root");
            {
                let _a = span("a");
                let _b = span("b");
            }
            let _c = span("c");
        }
        drop(span("after"));
        let spans = stop();
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["root", "a", "b", "c", "after"]);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        assert_eq!(spans[4].parent, None);
        let own = self_times_ns(&spans[..4]);
        let root = spans[0].end_ns - spans[0].start_ns;
        assert_eq!(own[..4].iter().sum::<u64>(), root);
    }

    #[test]
    fn spans_are_free_when_off() {
        let g = span("x");
        assert!(g.0.is_none());
        assert!(stop().is_empty());
    }
}
