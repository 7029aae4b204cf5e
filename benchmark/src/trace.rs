//! Spans recorded by the benchmark's own code around its calls into the
//! product crates. Kept in memory; written out once at exit.
//!
//! Three levels: a *root* per life or per tick (its `trace` id is shared
//! by everything beneath it), a *stage* around each call into
//! `udc-spec`/`udc-core`, and *probe* spans under sampled stages. A probe
//! replays one constituent public call on shadow state after the stage
//! has returned, so its interval lies outside its parent's: self time is
//! therefore the parent's duration minus its children's durations, not
//! minus the overlap.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

pub type SpanId = u32;

/// No parent.
pub const ROOT: SpanId = 0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// 1-based position in the recorder.
    pub id: SpanId,
    /// The span that caused this one (`ROOT` for a life or tick).
    pub parent: SpanId,
    /// Life or tick number, shared by every span of one request.
    pub trace: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Product calls the span covers (a probe may loop over modules).
    pub calls: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    capacity: usize,
    dropped: u64,
}

impl Tracer {
    /// A recorder that keeps at most `capacity` spans and counts the rest
    /// as dropped (its own loss is part of its report).
    pub fn new(capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity.min(1 << 20)),
            capacity,
            dropped: 0,
        }
    }

    pub fn record(
        &mut self,
        parent: SpanId,
        trace: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
        calls: u32,
    ) -> SpanId {
        if self.spans.len() >= self.capacity {
            self.dropped += 1;
            return ROOT;
        }
        let id = self.spans.len() as SpanId + 1;
        self.spans.push(Span {
            id,
            parent,
            trace,
            name,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
            calls,
        });
        id
    }

    /// Opens a span whose children are recorded before it ends (a tick).
    pub fn open(&mut self, parent: SpanId, trace: u32, name: &'static str, at: Instant) -> SpanId {
        self.record(parent, trace, name, at, at, 1)
    }

    /// Ends a span started with [`Tracer::open`].
    pub fn close(&mut self, id: SpanId, at: Instant) {
        if let Some(span) = (id as usize)
            .checked_sub(1)
            .and_then(|i| self.spans.get_mut(i))
        {
            span.end_ns = at.duration_since(self.epoch).as_nanos() as u64;
        }
    }

    /// Times `f` as a child of `parent` covering `calls` product calls.
    pub fn probe<T>(
        &mut self,
        parent: SpanId,
        trace: u32,
        name: &'static str,
        calls: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(parent, trace, name, start, end, calls);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Per-call durations (ns) of every span named `name`.
    pub fn per_call_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.calls > 0)
            .map(|s| s.duration_ns() / s.calls as u64)
            .collect()
    }

    /// Self times (ns) of the spans named `name` that have at least one
    /// child — the sampled ones.
    pub fn self_times_ns(&self, name: &str) -> Vec<u64> {
        let children = children_ns(&self.spans);
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| {
                children
                    .get(&s.id)
                    .map(|&c| s.duration_ns().saturating_sub(c))
            })
            .collect()
    }

    /// Writes the first `limit` spans as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str, limit: usize) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        let written = self.spans.len().min(limit);
        writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"clock\":\"wall_ns\",\"recorded\":{},\"written\":{written},\"dropped\":{},\"spans\":[",
            self.spans.len(),
            self.dropped
        )?;
        let mut line = String::new();
        for (i, s) in self.spans[..written].iter().enumerate() {
            line.clear();
            let _ = write!(
                line,
                "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"calls\":{}}}",
                s.id, s.parent, s.trace, s.name, s.start_ns, s.end_ns, s.calls
            );
            if i + 1 < written {
                line.push(',');
            }
            writeln!(out, "{line}")?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Sum of direct children's durations per parent id.
fn children_ns(spans: &[Span]) -> BTreeMap<SpanId, u64> {
    let mut sums = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != ROOT) {
        *sums.entry(s.parent).or_insert(0) += s.duration_ns();
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(t: &Tracer, ns: u64) -> Instant {
        t.epoch + Duration::from_nanos(ns)
    }

    #[test]
    fn self_time_subtracts_nested_and_sampled_children() {
        let mut t = Tracer::new(64);
        let (e0, e100) = (at(&t, 0), at(&t, 100));
        // A life with two stages; the first is sampled.
        let life = t.record(ROOT, 1, "life", e0, at(&t, 400), 1);
        let submit = t.record(life, 1, "core.submit", e0, e100, 1);
        let run = t.record(life, 1, "core.run", e100, at(&t, 400), 1);
        // Probes replay after the life ended: outside the stage's interval.
        t.record(submit, 1, "sched.place_app", at(&t, 500), at(&t, 560), 1);
        t.record(submit, 1, "isolate.start", at(&t, 560), at(&t, 590), 3);
        // An unsampled stage of the next life has no children.
        let life2 = t.record(ROOT, 2, "life", at(&t, 600), at(&t, 700), 1);
        t.record(life2, 2, "core.submit", at(&t, 600), at(&t, 700), 1);

        // Sampled stage: 100 - (60 + 30); the unsampled one is left out.
        assert_eq!(t.self_times_ns("core.submit"), vec![10]);
        // Nested children inside the parent's interval subtract the same way.
        assert_eq!(t.self_times_ns("life"), vec![0, 0]);
        assert!(t.self_times_ns("core.run").is_empty());
        assert_eq!(t.spans()[run as usize - 1].duration_ns(), 300);
        // A probe over three modules reports per call.
        assert_eq!(t.per_call_ns("isolate.start"), vec![10]);
    }

    #[test]
    fn an_open_span_takes_children_before_it_closes() {
        let mut t = Tracer::new(8);
        let tick = t.open(ROOT, 7, "tick", at(&t, 0));
        t.record(tick, 7, "core.advance", at(&t, 0), at(&t, 40), 1);
        t.close(tick, at(&t, 100));
        t.close(ROOT, at(&t, 999));
        assert_eq!(t.spans()[0].duration_ns(), 100);
        assert_eq!(t.self_times_ns("tick"), vec![60]);
    }

    #[test]
    fn children_longer_than_the_parent_clamp_to_zero() {
        let mut t = Tracer::new(8);
        let stage = t.record(ROOT, 1, "core.verify", at(&t, 0), at(&t, 10), 1);
        t.record(stage, 1, "crypto.attest", at(&t, 20), at(&t, 50), 1);
        assert_eq!(t.self_times_ns("core.verify"), vec![0]);
    }

    #[test]
    fn capacity_bounds_memory_and_counts_loss() {
        let mut t = Tracer::new(2);
        let e = at(&t, 0);
        assert_eq!(t.record(ROOT, 1, "a", e, e, 1), 1);
        assert_eq!(t.record(ROOT, 1, "b", e, e, 1), 2);
        assert_eq!(t.record(ROOT, 1, "c", e, e, 1), ROOT);
        assert_eq!((t.spans().len(), t.dropped()), (2, 1));
    }
}
