//! The traced run's span recorder: one span around every call the
//! benchmark makes into a layer, kept in a preallocated vector and
//! written out when the run ends.
//!
//! Spans are recorded from the benchmark's own files only; tracing
//! inside the program under test is a later change.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// "No parent": the span is an operation's root.
pub const ROOT: u32 = u32::MAX;

/// Name of the span that wraps one whole operation. Its self time is
/// the benchmark's own work between layer calls.
pub const OP_SPAN: &str = "driver";

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// The operation (lifecycle, explore call, cycle) the span belongs to.
    pub op: u32,
}

/// Records spans while switched on; a switched-off tracer costs one
/// branch per call, so untraced and traced operations share one code
/// path.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    on: bool,
    op: u32,
    spans: Vec<Span>,
    limit: usize,
    open: Vec<u32>,
    dropped: u64,
}

impl Tracer {
    /// A tracer that never records and never allocates.
    pub fn off() -> Self {
        Tracer::with_capacity(0)
    }

    /// A tracer with room for `capacity` spans, allocated up front so
    /// recording never reallocates; spans past the capacity are counted
    /// in [`dropped`](Self::dropped), not stored.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            on: false,
            op: 0,
            spans: Vec::with_capacity(capacity),
            limit: capacity,
            open: Vec::with_capacity(8),
            dropped: 0,
        }
    }

    /// Switches recording on or off for the operation `op` that follows.
    pub fn set(&mut self, on: bool, op: u32) {
        self.on = on && self.limit > 0;
        self.op = op;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        let stored = index < self.limit;
        if stored {
            self.spans.push(Span {
                name,
                start_ns: self.origin.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent: self.open.last().copied().unwrap_or(ROOT),
                op: self.op,
            });
            self.open.push(index as u32);
        } else {
            self.dropped += 1;
        }
        let out = f(self);
        if stored {
            self.spans[index].end_ns = self.origin.elapsed().as_nanos() as u64;
            self.open.pop();
        }
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Writes the spans as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut out = String::with_capacity(64 + self.spans.len() * 72);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"dropped\":{},\"spans\":[",
            self.dropped
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = if s.parent == ROOT {
                "null".to_owned()
            } else {
                s.parent.to_string()
            };
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

/// Self time per span name, in ns: each span's duration minus the
/// durations of its direct children.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if s.parent != ROOT {
            let child = s.end_ns - s.start_ns;
            let parent = &mut own[s.parent as usize];
            *parent = parent.saturating_sub(child);
        }
    }
    let mut by_name = BTreeMap::new();
    for (s, ns) in spans.iter().zip(own) {
        *by_name.entry(s.name).or_insert(0) += ns;
    }
    by_name
}

/// Self time per span name as a share of the traced wall time (the
/// summed duration of the root spans). The shares sum to one.
pub fn shares(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let wall: u64 = spans
        .iter()
        .filter(|s| s.parent == ROOT)
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    self_times(spans)
        .into_iter()
        .map(|(name, ns)| (name, ns as f64 / wall.max(1) as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // driver 0..100 { open 10..30, await 40..90 { inner 50..60 } }
        let spans = [
            span(OP_SPAN, 0, 100, ROOT),
            span("open", 10, 30, 0),
            span("await", 40, 90, 0),
            span("inner", 50, 60, 2),
        ];
        let own = self_times(&spans);
        assert_eq!(own[OP_SPAN], 30);
        assert_eq!(own["open"], 20);
        assert_eq!(own["await"], 40);
        assert_eq!(own["inner"], 10);
        let shares = shares(&spans);
        assert!((shares.values().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((shares["await"] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn same_name_spans_accumulate_across_operations() {
        let spans = [
            span(OP_SPAN, 0, 10, ROOT),
            span("read", 2, 5, 0),
            span(OP_SPAN, 10, 30, ROOT),
            span("read", 12, 19, 2),
        ];
        let own = self_times(&spans);
        assert_eq!(own["read"], 10);
        assert_eq!(own[OP_SPAN], 20);
    }

    #[test]
    fn tracer_nests_and_respects_the_switch() {
        let mut t = Tracer::with_capacity(16);
        t.set(false, 0);
        t.span("ignored", |_| ());
        assert!(t.spans().is_empty());
        t.set(true, 7);
        t.span(OP_SPAN, |t| {
            t.span("open", |_| ());
            t.span("close", |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, ROOT);
        assert_eq!((spans[1].name, spans[1].parent), ("open", 0));
        assert_eq!((spans[2].name, spans[2].parent), ("close", 0));
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[2].end_ns);
    }

    #[test]
    fn a_full_tracer_counts_instead_of_growing() {
        let mut t = Tracer::with_capacity(1);
        t.set(true, 0);
        t.span("kept", |t| t.span("lost", |_| ()));
        assert_eq!(t.spans().len(), 1);
        assert_eq!(t.dropped(), 1);
        assert!(!Tracer::off().on);
    }
}
