//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the harness's own files, around the calls
//! into each crate's public functions; nothing inside the program is
//! instrumented. Every span carries `name, start_ns, end_ns, parent,
//! request_id`. They are kept in memory and written out once, at exit.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<step>`, the layer being the crate called into.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request (or mutation batch) the span belongs to.
    pub request_id: u64,
}

impl Span {
    /// Wall time between start and end.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans single-threaded; a disabled tracer only runs the
/// closures, which is what the untraced replay uses.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only passes through.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, child of whichever span is
    /// open on this tracer.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request_id: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            request_id,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        let self_ns = self_times_ns(&self.spans);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"request_id\":{},\"self_ns\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request_id, self_ns[i]
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its direct children cover. Children are clipped to the
/// parent and overlapping children are counted once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let Some(kids) = children.get_mut(&i) else {
                return s.duration_ns();
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            request_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root 0..100, child 10..40 with grandchild 20..30, child 50..70
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(20, 30, Some(1)),
            span(50, 70, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        // children 10..60 and 40..80 overlap by 20; a third runs past
        // the parent's end and is clipped at 100.
        let spans = [
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(40, 80, Some(0)),
            span(90, 130, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn tracer_nests_and_a_disabled_one_records_nothing() {
        let mut t = Tracer::new(true);
        let v = t.span("outer", 7, |t| t.span("inner", 7, |_| 42));
        assert_eq!(v, 42);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[0].parent, None);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].request_id, 7);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 2);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", 1, |_| 1), 1);
        assert!(off.spans().is_empty());
    }
}
