//! Nested span tracing over simulated time.

use std::collections::VecDeque;

use crate::{Micros, Telemetry, TraceCtx};

/// One completed (or still-open) span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id within this hub (creation order).
    pub id: u32,
    /// Enclosing span open at entry, if any.
    pub parent: Option<u32>,
    /// Causal trace this span belongs to, if minted under a
    /// [`TraceCtx`]. Plain spans inherit the trace of their parent.
    pub trace: Option<u64>,
    /// Operation name, e.g. `"sched.place"`.
    pub name: String,
    /// Entry timestamp.
    pub start_us: Micros,
    /// Exit timestamp; `None` while the span is open.
    pub end_us: Option<Micros>,
}

/// A bounded window of spans plus the stack of currently open ones.
///
/// Like the three record rings, the store evicts oldest-first and
/// counts what it dropped — but never a span on the open stack, nor
/// past one (its guard still has to close it, and ids are positions).
/// Ids are creation order and stay stable across evictions: span `id`
/// lives at index `id - base`.
pub(crate) struct SpanStore {
    records: VecDeque<SpanRecord>,
    open: Vec<u32>,
    capacity: usize,
    /// Id of `records[0]`: the retained floor.
    base: u32,
    dropped: u64,
}

impl SpanStore {
    pub fn new(capacity: usize) -> Self {
        Self {
            records: VecDeque::new(),
            open: Vec::new(),
            capacity,
            base: 0,
            dropped: 0,
        }
    }

    fn get(&self, id: u32) -> Option<&SpanRecord> {
        self.records.get(id.checked_sub(self.base)? as usize)
    }

    fn get_mut(&mut self, id: u32) -> Option<&mut SpanRecord> {
        self.records.get_mut(id.checked_sub(self.base)? as usize)
    }

    fn push(&mut self, rec: SpanRecord) {
        self.records.push_back(rec);
        // The open stack ascends in id, so its first entry is the oldest
        // span a guard still holds.
        while self.records.len() > self.capacity
            && self.open.first().is_none_or(|&oldest| oldest > self.base)
        {
            self.records.pop_front();
            self.base += 1;
            self.dropped += 1;
        }
    }

    fn next_id(&self) -> u32 {
        self.base + self.records.len() as u32
    }

    pub fn begin(&mut self, name: &str, at: Micros) -> u32 {
        let parent = self.open.last().copied();
        let trace = parent.and_then(|p| self.trace_of(p));
        self.begin_at(name, at, parent, trace)
    }

    /// Opens a span with an *explicit* parent and trace — the causal
    /// propagation path. The explicit parent need not be the top of the
    /// open stack (the context may have crossed a component boundary),
    /// but the new span still joins the open stack so plain nested
    /// spans attach beneath it.
    pub fn begin_at(
        &mut self,
        name: &str,
        at: Micros,
        parent: Option<u32>,
        trace: Option<u64>,
    ) -> u32 {
        let id = self.next_id();
        self.push(SpanRecord {
            id,
            parent,
            trace,
            name: name.to_string(),
            start_us: at,
            end_us: None,
        });
        self.open.push(id);
        id
    }

    /// The trace id recorded for span `id`, if any.
    pub fn trace_of(&self, id: u32) -> Option<u64> {
        self.get(id).and_then(|r| r.trace)
    }

    /// Closes `id` (and any children still open above it — guards
    /// dropping out of order close their subtree).
    pub fn end(&mut self, id: u32, at: Micros) {
        match self.open.iter().rposition(|&open| open == id) {
            Some(pos) => {
                while self.open.len() > pos {
                    let closed = self.open.pop().expect("longer than pos");
                    self.close(closed, at);
                }
            }
            None => self.close(id, at),
        }
    }

    fn close(&mut self, id: u32, at: Micros) {
        if let Some(rec) = self.get_mut(id) {
            if rec.end_us.is_none() {
                rec.end_us = Some(at);
            }
        }
    }

    /// Appends another store's records, remapping ids (and parent
    /// links) past this store's so the combined id space stays unique,
    /// and shifting trace ids by `trace_offset` so traces minted by
    /// different worker hubs never collide after a merge.
    /// Absorbed spans keep their timestamps; any still-open ones stay
    /// open but are never pushed onto this store's open stack, so they
    /// cannot become parents of future spans. A parent `other` had
    /// already evicted cannot be named in this id space: its children
    /// arrive as roots, and `other`'s drop count carries over to say so.
    pub fn absorb(&mut self, other: &SpanStore, trace_offset: u64) {
        let offset = self.next_id();
        let remap = |id: u32| id.checked_sub(other.base).map(|i| i + offset);
        self.dropped += other.dropped;
        for r in &other.records {
            self.push(SpanRecord {
                id: r.id - other.base + offset,
                parent: r.parent.and_then(remap),
                trace: r.trace.map(|t| t + trace_offset),
                name: r.name.clone(),
                start_us: r.start_us,
                end_us: r.end_us,
            });
        }
    }

    pub fn records(&self) -> impl Iterator<Item = &SpanRecord> {
        self.records.iter()
    }

    /// Closed spans evicted to stay within capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Guard for an open span; the span closes when this drops. On a
/// disabled hub the guard is inert.
#[must_use = "dropping immediately closes the span at its start time"]
pub struct Span {
    tel: Telemetry,
    id: u32,
    trace: Option<u64>,
    active: bool,
}

impl Span {
    pub(crate) fn active(tel: Telemetry, id: u32, trace: Option<u64>) -> Self {
        Self {
            tel,
            id,
            trace,
            active: true,
        }
    }

    pub(crate) fn inert() -> Self {
        Self {
            tel: Telemetry::disabled(),
            id: 0,
            trace: None,
            active: false,
        }
    }

    /// The context to hand to a callee so its spans become children of
    /// this one. `None` on inert guards or spans outside any trace.
    pub fn ctx(&self) -> Option<TraceCtx> {
        if !self.active {
            return None;
        }
        self.trace.map(|trace_id| TraceCtx {
            trace_id,
            span: self.id,
        })
    }

    /// Closes the span now (equivalent to dropping the guard).
    pub fn exit(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.active {
            self.tel.end_span(self.id);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::Telemetry;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn hub_with_ticking_clock() -> (Telemetry, Arc<AtomicU64>) {
        let tel = Telemetry::enabled();
        let t = Arc::new(AtomicU64::new(0));
        let tc = Arc::clone(&t);
        tel.set_clock(move || tc.load(Ordering::Relaxed));
        (tel, t)
    }

    #[test]
    fn spans_nest_into_a_tree() {
        let (tel, t) = hub_with_ticking_clock();
        t.store(10, Ordering::Relaxed);
        let run = tel.span("cloud.run");
        t.store(20, Ordering::Relaxed);
        let place = tel.span("sched.place");
        t.store(30, Ordering::Relaxed);
        place.exit();
        t.store(35, Ordering::Relaxed);
        let seal = tel.span("crypto.seal");
        t.store(40, Ordering::Relaxed);
        seal.exit();
        t.store(50, Ordering::Relaxed);
        run.exit();

        let spans = tel.snapshot().spans;
        assert_eq!(spans.len(), 3);
        let run = &spans[0];
        let place = &spans[1];
        let seal = &spans[2];
        assert_eq!(run.name, "cloud.run");
        assert_eq!(run.parent, None);
        assert_eq!((run.start_us, run.end_us), (10, Some(50)));
        // Both children hang off the root, and sit inside it in time.
        assert_eq!(place.parent, Some(run.id));
        assert_eq!(seal.parent, Some(run.id));
        assert_eq!((place.start_us, place.end_us), (20, Some(30)));
        assert_eq!((seal.start_us, seal.end_us), (35, Some(40)));
        assert!(place.end_us.unwrap() <= seal.start_us);
    }

    #[test]
    fn parent_drop_closes_open_children() {
        let (tel, t) = hub_with_ticking_clock();
        let outer = tel.span("outer");
        t.store(5, Ordering::Relaxed);
        let _inner = tel.span("inner");
        t.store(9, Ordering::Relaxed);
        drop(outer); // inner guard still alive, but subtree closes

        let spans = tel.snapshot().spans;
        assert_eq!(spans[1].name, "inner");
        assert_eq!(spans[1].end_us, Some(9));
        assert_eq!(spans[0].end_us, Some(9));
    }

    #[test]
    fn early_return_closes_span_via_drop_guard() {
        // Regression: a `?`-style early return must not leak an open
        // span — the guard ends it on drop.
        fn flaky(tel: &Telemetry, fail: bool) -> Result<(), &'static str> {
            let _s = tel.span("work.early_return");
            if fail {
                return Err("bail");
            }
            Ok(())
        }
        let (tel, t) = hub_with_ticking_clock();
        t.store(7, Ordering::Relaxed);
        assert!(flaky(&tel, true).is_err());
        let spans = tel.snapshot().spans;
        assert_eq!(spans.len(), 1);
        assert_eq!(
            spans[0].end_us,
            Some(7),
            "early return still closed the span"
        );

        // `?` propagation through a second frame behaves the same.
        fn outer(tel: &Telemetry) -> Result<(), &'static str> {
            let _o = tel.span("outer.q");
            flaky(tel, true)?;
            Ok(())
        }
        assert!(outer(&tel).is_err());
        let spans = tel.snapshot().spans;
        assert_eq!(spans.len(), 3);
        assert!(
            spans.iter().all(|s| s.end_us.is_some()),
            "no span leaks open across ? propagation"
        );
    }

    #[test]
    fn trace_context_links_spans_across_call_boundaries() {
        let (tel, t) = hub_with_ticking_clock();
        t.store(1, Ordering::Relaxed);
        let root = tel.trace_root("cloud.submit");
        let ctx = root.ctx().expect("root carries a trace context");
        // A child opened from the context, as a callee would.
        let child = tel.span_in(&ctx, "sched.place");
        // A plain span nested under the child inherits its trace.
        let plain = tel.span("hal.pool.allocate");
        plain.exit();
        child.exit();
        root.exit();

        let spans = tel.snapshot().spans;
        assert_eq!(spans.len(), 3);
        let trace = spans[0].trace.expect("root has a trace id");
        assert!(spans.iter().all(|s| s.trace == Some(trace)));
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(spans[2].parent, Some(spans[1].id));
    }

    #[test]
    fn separate_roots_get_distinct_trace_ids() {
        let tel = Telemetry::enabled();
        let a = tel.trace_root("submit.a");
        let ta = a.ctx().unwrap().trace_id;
        a.exit();
        let b = tel.trace_root("submit.b");
        let tb = b.ctx().unwrap().trace_id;
        b.exit();
        assert_ne!(ta, tb);
    }

    #[test]
    fn untraced_spans_have_no_ctx() {
        let tel = Telemetry::enabled();
        let s = tel.span("loose");
        assert!(s.ctx().is_none(), "span outside any trace has no context");
        s.exit();
        assert!(Telemetry::disabled().span("x").ctx().is_none());
    }

    #[test]
    fn store_evicts_oldest_closed_spans_and_keeps_ids_stable() {
        use super::SpanStore;
        let mut store = SpanStore::new(3);
        // A long-lived span opened first pins the floor: nothing under
        // an open span is ever evicted, however full the store gets.
        let outer = store.begin("outer", 0);
        for t in 1..=4 {
            let id = store.begin("inner", t);
            store.end(id, t);
        }
        assert_eq!((store.records().count(), store.dropped()), (5, 0));
        // Once it closes, the backlog goes with the next span.
        store.end(outer, 5);
        let next = store.begin("next", 6);
        assert_eq!(next, 5, "ids keep counting across evictions");
        let ids: Vec<u32> = store.records().map(|r| r.id).collect();
        assert_eq!(ids, vec![3, 4, 5]);
        assert_eq!(store.dropped(), 3);
        // Ids still address the right record after the shift.
        assert_eq!(store.trace_of(next), None);
        store.end(next, 9);
        assert_eq!(store.records().last().unwrap().end_us, Some(9));
        // Closing an evicted span is a no-op, not a panic.
        store.end(0, 10);
    }

    #[test]
    fn absorbing_a_truncated_store_orphans_nothing_silently() {
        use super::SpanStore;
        let mut src = SpanStore::new(2);
        let root = src.begin_at("root", 0, None, Some(0));
        let kids: Vec<u32> = (1..=3)
            .map(|t| {
                let id = src.begin_at("kid", t, Some(root), Some(0));
                src.end(id, t);
                id
            })
            .collect();
        src.end(root, 4);
        let tail = src.begin("tail", 5); // evicts root and two kids
        src.end(tail, 5);
        assert_eq!(src.dropped(), 3);
        assert_eq!(kids, vec![1, 2, 3]);

        let mut dst = SpanStore::new(16);
        let own = dst.begin("own", 0);
        dst.end(own, 0);
        dst.absorb(&src, 10);
        let got: Vec<_> = dst.records().map(|r| (r.id, r.parent, r.trace)).collect();
        // Dense ids after the absorber's own; the evicted parent cannot
        // be named, so its children arrive as roots — and the carried
        // drop count is what tells a reader why.
        assert_eq!(
            got,
            vec![(0, None, None), (1, None, Some(10)), (2, None, None)]
        );
        assert_eq!(dst.dropped(), 3);
    }

    #[test]
    fn snapshot_exports_dropped_spans() {
        let tel = Telemetry::enabled();
        for _ in 0..crate::SPAN_CAPACITY + 7 {
            tel.span("tick").exit();
        }
        let snap = tel.snapshot();
        assert_eq!(snap.spans.len(), crate::SPAN_CAPACITY);
        assert_eq!(snap.dropped_spans, 7);
        assert_eq!(snap.spans[0].id, 7);
        assert!(snap.to_json().contains("\"dropped_spans\": 7"));
    }

    #[test]
    fn fallback_ticks_are_monotone_without_a_clock() {
        let tel = Telemetry::enabled();
        let a = tel.span("a");
        let b = tel.span("b");
        b.exit();
        a.exit();
        let spans = tel.snapshot().spans;
        assert!(spans[0].start_us < spans[1].start_us);
        assert!(spans[1].end_us.unwrap() < spans[0].end_us.unwrap());
    }
}
