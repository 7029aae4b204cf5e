//! # udc-telemetry — zero-dependency observability substrate
//!
//! The paper argues a user-defined cloud must remain *accountable*: §4
//! asks "how can users trust the cloud?" and answers with verification
//! loops that compare what the platform claims (bills, placements,
//! isolation) against what actually happened. This crate is the
//! "actually happened" side: a deterministic observability substrate
//! the whole control plane reports into, with three pillars:
//!
//! - [`metrics`] — a [`MetricsRegistry`](metrics::MetricsRegistry) of
//!   counters, gauges (with high-water marks), and log-bucketed
//!   histograms with bounded-error quantiles, keyed by metric name plus
//!   `(tenant, module)` [`Labels`];
//! - [`span`] — nested span tracing (`telemetry.span("sched.place")`)
//!   timestamped from the *simulated* clock, so traces are reproducible
//!   bit-for-bit across runs;
//! - [`recorder`] — a fixed-capacity flight recorder of structured
//!   [`Event`](recorder::Event)s (placements, conflict resolutions,
//!   cold starts, failures, autoscale actions) that survives to JSON
//!   export for offline analysis.
//!
//! The hub itself ([`Telemetry`]) is cheap to clone and share. A
//! *disabled* hub (the default) is a true no-op: every method returns
//! after one `Option` check, so instrumented hot paths (placement,
//! message delivery) pay near-zero overhead when observability is off —
//! the criterion benches in `udc-bench` pin this below 5%.
//!
//! Time never comes from the host: callers install a clock source
//! (usually `udc-hal`'s `SimClock`) via [`Telemetry::set_clock`]; until
//! then a logical tick counter stands in, keeping traces deterministic
//! even clock-less.

pub mod alert;
pub mod decision;
pub mod export;
mod json;
pub mod metrics;
pub mod recorder;
mod ring;
pub mod span;

use std::sync::{Arc, Mutex, MutexGuard};

pub use alert::{AlertFire, AlertReason, AlertRecord};
pub use decision::{Decision, DecisionRecord, ReasonCode};
pub use export::Snapshot;
pub use metrics::{Histogram, HistogramSummary, SeriesKey};
pub use recorder::{Event, EventKind, FieldValue};
pub use ring::RingTail;
pub use span::{Span, SpanRecord};

/// Simulated-time microseconds (mirrors `udc_hal::clock::Micros`
/// without depending on it; the dependency points the other way).
pub type Micros = u64;

/// A clock the hub reads for span and event timestamps.
pub type ClockSource = Arc<dyn Fn() -> Micros + Send + Sync>;

/// Causal trace context: carried explicitly along the request path
/// (submit → place → allocate → launch → actor/dist ops) so every
/// component's spans link into one DAG. Sim-clock based — there is no
/// wall-clock anywhere in a trace. `Copy` so threading it through call
/// chains costs nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceCtx {
    /// Trace the request belongs to (unique per hub; remapped on
    /// [`Telemetry::absorb`] so worker-hub traces never collide).
    pub trace_id: u64,
    /// Span id of the caller — children opened via
    /// [`Telemetry::span_in`] attach beneath it.
    pub span: u32,
}

/// The `(tenant, module)` dimensions every metric and event can carry.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Labels {
    /// Owning tenant, when attributable.
    pub tenant: Option<String>,
    /// Module within the tenant's app, when attributable.
    pub module: Option<String>,
}

impl Labels {
    /// Platform-wide (unattributed) series.
    pub fn none() -> Self {
        Self::default()
    }

    /// Tenant-scoped series.
    pub fn tenant(tenant: impl Into<String>) -> Self {
        Self {
            tenant: Some(tenant.into()),
            module: None,
        }
    }

    /// Tenant- and module-scoped series.
    pub fn module(tenant: impl Into<String>, module: impl Into<String>) -> Self {
        Self {
            tenant: Some(tenant.into()),
            module: Some(module.into()),
        }
    }
}

struct State {
    clock: Option<ClockSource>,
    /// Logical fallback time: bumped per timestamped operation before a
    /// clock source is installed.
    ticks: Micros,
    metrics: metrics::MetricsRegistry,
    spans: span::SpanStore,
    recorder: recorder::FlightRecorder,
    decisions: decision::DecisionLog,
    alerts: alert::AlertLog,
    /// Next trace id to mint; every id in this hub is below it, which
    /// is what lets `absorb` shift absorbed trace ids collision-free.
    next_trace: u64,
}

impl State {
    fn now(&mut self) -> Micros {
        match &self.clock {
            Some(clock) => clock(),
            None => {
                self.ticks += 1;
                self.ticks
            }
        }
    }
}

/// The observability hub. Clones share state; the default hub is
/// disabled and all operations are no-ops.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Mutex<State>>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Contents are behind a mutex and unbounded; show only the mode.
        f.write_str(if self.is_enabled() {
            "Telemetry(enabled)"
        } else {
            "Telemetry(disabled)"
        })
    }
}

/// Default flight-recorder capacity (events retained).
pub const DEFAULT_RECORDER_CAPACITY: usize = 4096;

/// Default decision-log capacity (records retained).
pub const DEFAULT_DECISION_CAPACITY: usize = 16384;

/// Default alert-ring capacity (records retained).
pub const DEFAULT_ALERT_CAPACITY: usize = 4096;

/// Span-store capacity (spans retained; closed spans beyond it are
/// evicted oldest-first and counted in `dropped_spans`).
pub const SPAN_CAPACITY: usize = 4096;

impl Telemetry {
    /// A disabled hub: every operation is a no-op.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An enabled hub with the default flight-recorder capacity.
    pub fn enabled() -> Self {
        Self::with_recorder_capacity(DEFAULT_RECORDER_CAPACITY)
    }

    /// An enabled hub retaining at most `capacity` flight events.
    pub fn with_recorder_capacity(capacity: usize) -> Self {
        Self::with_capacities(capacity, DEFAULT_DECISION_CAPACITY)
    }

    /// An enabled hub with explicit ring capacities for the flight
    /// recorder and the decision log. Both rings evict oldest-first and
    /// count drops, so hub memory stays bounded no matter how many
    /// events flow through (see the 1M-event absorb test).
    pub fn with_capacities(recorder_capacity: usize, decision_capacity: usize) -> Self {
        Self {
            inner: Some(Arc::new(Mutex::new(State {
                clock: None,
                ticks: 0,
                metrics: metrics::MetricsRegistry::default(),
                spans: span::SpanStore::new(SPAN_CAPACITY),
                recorder: recorder::FlightRecorder::new(recorder_capacity),
                decisions: decision::DecisionLog::new(decision_capacity),
                alerts: alert::AlertLog::new(DEFAULT_ALERT_CAPACITY),
                next_trace: 0,
            }))),
        }
    }

    /// Whether this hub records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn state(&self) -> Option<MutexGuard<'_, State>> {
        self.inner
            .as_ref()
            .map(|m| m.lock().expect("telemetry poisoned"))
    }

    /// Installs the timestamp source (typically the simulated clock).
    pub fn set_clock(&self, clock: impl Fn() -> Micros + Send + Sync + 'static) {
        if let Some(mut s) = self.state() {
            s.clock = Some(Arc::new(clock));
        }
    }

    /// Adds `delta` to a counter.
    pub fn incr(&self, name: &str, labels: Labels, delta: u64) {
        if let Some(mut s) = self.state() {
            s.metrics.incr(name, labels, delta);
        }
    }

    /// Reads a counter back (0 when absent or disabled).
    pub fn counter(&self, name: &str, labels: &Labels) -> u64 {
        self.state()
            .map(|s| s.metrics.counter(name, labels))
            .unwrap_or(0)
    }

    /// Sets a gauge, tracking its high-water mark.
    pub fn gauge_set(&self, name: &str, labels: Labels, value: i64) {
        if let Some(mut s) = self.state() {
            s.metrics.gauge_set(name, labels, value);
        }
    }

    /// Reads a gauge as `(current, high_water)`.
    pub fn gauge(&self, name: &str, labels: &Labels) -> Option<(i64, i64)> {
        self.state().and_then(|s| s.metrics.gauge(name, labels))
    }

    /// Records one observation into a log-bucketed histogram.
    pub fn observe(&self, name: &str, labels: Labels, value: u64) {
        if let Some(mut s) = self.state() {
            s.metrics.observe(name, labels, value);
        }
    }

    /// Summarizes a histogram (count, min/max, p50/p95/p99).
    pub fn histogram(&self, name: &str, labels: &Labels) -> Option<HistogramSummary> {
        self.state()
            .and_then(|s| s.metrics.histogram(name, labels).map(|h| h.summary()))
    }

    /// Opens a span; it closes when the guard drops (or via
    /// [`Span::exit`]). Nesting follows open-span order, forming a
    /// tree; the span inherits the trace of its enclosing open span.
    pub fn span(&self, name: &str) -> Span {
        match self.state() {
            Some(mut s) => {
                let at = s.now();
                let id = s.spans.begin(name, at);
                let trace = s.spans.trace_of(id);
                Span::active(self.clone(), id, trace)
            }
            None => Span::inert(),
        }
    }

    /// Mints a fresh trace and opens its root span. Call once per
    /// request (e.g. `Cloud::submit`); pass [`Span::ctx`] down the call
    /// chain so callee spans join the same trace.
    pub fn trace_root(&self, name: &str) -> Span {
        match self.state() {
            Some(mut s) => {
                let at = s.now();
                let trace = s.next_trace;
                s.next_trace += 1;
                let id = s.spans.begin_at(name, at, None, Some(trace));
                Span::active(self.clone(), id, Some(trace))
            }
            None => Span::inert(),
        }
    }

    /// Opens a span as an explicit child of `ctx` — the causal
    /// propagation primitive. Unlike [`Telemetry::span`], the parent is
    /// taken from the context rather than the open-span stack, so the
    /// link survives component boundaries.
    pub fn span_in(&self, ctx: &TraceCtx, name: &str) -> Span {
        match self.state() {
            Some(mut s) => {
                let at = s.now();
                let id = s
                    .spans
                    .begin_at(name, at, Some(ctx.span), Some(ctx.trace_id));
                Span::active(self.clone(), id, Some(ctx.trace_id))
            }
            None => Span::inert(),
        }
    }

    /// Convenience for call sites holding an `Option<TraceCtx>`:
    /// [`Telemetry::span_in`] when a context is present, plain
    /// [`Telemetry::span`] otherwise.
    pub fn span_opt(&self, ctx: Option<&TraceCtx>, name: &str) -> Span {
        match ctx {
            Some(c) => self.span_in(c, name),
            None => self.span(name),
        }
    }

    /// Appends a structured decision record (candidate considered,
    /// accept/reject, reason code) to the bounded decision log. Build
    /// the [`Decision`] behind an [`Telemetry::is_enabled`] check on
    /// hot paths — its `detail` string allocates.
    pub fn decide(&self, d: Decision<'_>) {
        if let Some(mut s) = self.state() {
            let at = s.now();
            s.decisions.record(d, at);
        }
    }

    /// Decision records so far (snapshot order). Mostly for tests; the
    /// JSON export carries the same data.
    pub fn decisions(&self) -> Vec<Arc<DecisionRecord>> {
        self.state()
            .map(|s| s.decisions.ring.records().cloned().collect())
            .unwrap_or_default()
    }

    pub(crate) fn end_span(&self, id: u32) {
        if let Some(mut s) = self.state() {
            let at = s.now();
            s.spans.end(id, at);
        }
    }

    /// Appends a structured event to the flight recorder.
    pub fn event(&self, kind: EventKind, labels: Labels, fields: &[(&str, FieldValue)]) {
        if let Some(mut s) = self.state() {
            let at = s.now();
            s.recorder.record(kind, labels, fields, at);
        }
    }

    /// Appends a fired alert to the bounded alert ring. The fire time
    /// is explicit in the [`AlertFire`] (a sim-clock window boundary
    /// computed by the rule engine), never read from the hub clock, so
    /// firing replayed alerts into a clock-less driver hub cannot
    /// perturb logical ticks.
    pub fn alert(&self, fire: AlertFire) {
        if let Some(mut s) = self.state() {
            s.alerts.record(fire);
        }
    }

    /// Alert records so far (snapshot order). Mostly for tests; the
    /// JSON export carries the same data.
    pub fn alerts(&self) -> Vec<Arc<AlertRecord>> {
        self.state()
            .map(|s| s.alerts.ring.records().cloned().collect())
            .unwrap_or_default()
    }

    /// Folds everything `other` recorded into this hub: counters add,
    /// gauges take `other`'s value (high-water marks max), histograms
    /// merge exactly, spans append with remapped ids, and events are
    /// re-sequenced in arrival order while keeping their simulated
    /// timestamps. A no-op when either hub is disabled or both share
    /// state.
    ///
    /// This is how the parallel experiment harness stays deterministic:
    /// each worker records into a private hub, and the driver absorbs
    /// them in a fixed order (trial order, not completion order), so
    /// the merged snapshot is identical at any thread count.
    pub fn absorb(&self, other: &Telemetry) {
        let (Some(dst), Some(src)) = (&self.inner, &other.inner) else {
            return;
        };
        if Arc::ptr_eq(dst, src) {
            return;
        }
        let mut d = dst.lock().expect("telemetry poisoned");
        let s = src.lock().expect("telemetry poisoned");
        d.ticks = d.ticks.max(s.ticks);
        d.metrics.merge(&s.metrics);
        // Shift absorbed trace ids past everything this hub has minted
        // so worker-hub traces stay distinct after the merge.
        let trace_offset = d.next_trace;
        d.spans.absorb(&s.spans, trace_offset);
        d.recorder.absorb(&s.recorder);
        d.decisions.absorb(&s.decisions, trace_offset);
        d.alerts.absorb(&s.alerts);
        d.next_trace += s.next_trace;
    }

    /// Locks the hub for one consistent by-reference look (`None` on a
    /// disabled hub). This is the live-feed primitive for `udc-query`:
    /// where [`Telemetry::snapshot`] copies everything, a view lends
    /// only what the reader asks for, and the `_since` accessors let a
    /// reader holding its own cursors skip what it has already seen.
    /// The hub stays locked until the view drops — record nothing into
    /// it meanwhile.
    pub fn view(&self) -> Option<HubView<'_>> {
        self.state().map(|state| HubView { state })
    }

    /// A consistent copy of everything recorded so far.
    pub fn snapshot(&self) -> Snapshot {
        self.state()
            .map(|s| Snapshot::capture(&s))
            .unwrap_or_default()
    }
}

/// A locked, by-reference look at one hub (see [`Telemetry::view`]).
///
/// Cursors belong to the reader, never to the hub: any number of
/// independent readers can follow one hub, each passing back what its
/// own previous view reported ([`HubView::metric_writes`],
/// [`RingTail::next_seq`]).
pub struct HubView<'a> {
    state: MutexGuard<'a, State>,
}

impl HubView<'_> {
    /// Counter and histogram writes the hub has taken so far: the
    /// `since` to pass to the next view's `_since` accessors.
    pub fn metric_writes(&self) -> u64 {
        self.state.metrics.writes()
    }

    /// `(series, cumulative value)` for every counter written after
    /// the hub's `since`-th metric write (0 = all), in series order.
    pub fn counters_since(&self, since: u64) -> impl Iterator<Item = (&SeriesKey, u64)> {
        self.state.metrics.counters_since(since)
    }

    /// `(series, current value)` for every gauge, in series order.
    pub fn gauges(&self) -> impl Iterator<Item = (&SeriesKey, i64)> {
        self.state.metrics.gauges().map(|(k, g)| (k, g.value))
    }

    /// `(series, cumulative histogram)` for every histogram written
    /// after the hub's `since`-th metric write (0 = all), in series
    /// order.
    pub fn histograms_since(&self, since: u64) -> impl Iterator<Item = (&SeriesKey, &Histogram)> {
        self.state.metrics.histograms_since(since)
    }

    /// Flight-recorder events with sequence number `seq` or later.
    pub fn events_since(&self, seq: u64) -> RingTail<'_, Event> {
        self.state.recorder.ring.since(seq)
    }

    /// Decision records with sequence number `seq` or later.
    pub fn decisions_since(&self, seq: u64) -> RingTail<'_, DecisionRecord> {
        self.state.decisions.ring.since(seq)
    }

    /// Records evicted so far by the event, decision and alert rings
    /// and the span store together.
    pub fn dropped(&self) -> u64 {
        let s = &*self.state;
        s.recorder.ring.dropped()
            + s.decisions.ring.dropped()
            + s.alerts.ring.dropped()
            + s.spans.dropped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_hub_is_inert() {
        let tel = Telemetry::disabled();
        tel.incr("x", Labels::none(), 3);
        tel.observe("h", Labels::none(), 10);
        tel.gauge_set("g", Labels::none(), 5);
        let span = tel.span("nothing");
        drop(span);
        tel.event(EventKind::Failure, Labels::none(), &[]);
        assert_eq!(tel.counter("x", &Labels::none()), 0);
        assert!(tel.histogram("h", &Labels::none()).is_none());
        let snap = tel.snapshot();
        assert!(snap.counters.is_empty() && snap.spans.is_empty() && snap.events.is_empty());
    }

    #[test]
    fn counters_are_label_scoped() {
        let tel = Telemetry::enabled();
        tel.incr("runs", Labels::tenant("acme"), 2);
        tel.incr("runs", Labels::tenant("globex"), 5);
        tel.incr("runs", Labels::tenant("acme"), 1);
        assert_eq!(tel.counter("runs", &Labels::tenant("acme")), 3);
        assert_eq!(tel.counter("runs", &Labels::tenant("globex")), 5);
        assert_eq!(tel.counter("runs", &Labels::none()), 0);
    }

    #[test]
    fn gauge_tracks_high_water() {
        let tel = Telemetry::enabled();
        let l = Labels::none();
        tel.gauge_set("depth", l.clone(), 4);
        tel.gauge_set("depth", l.clone(), 9);
        tel.gauge_set("depth", l.clone(), 2);
        assert_eq!(tel.gauge("depth", &l), Some((2, 9)));
    }

    #[test]
    fn absorb_merges_every_pillar() {
        let hub = Telemetry::enabled();
        hub.incr("placements", Labels::none(), 2);
        hub.gauge_set("depth", Labels::none(), 4);
        hub.observe("latency", Labels::none(), 10);
        hub.event(EventKind::Placement, Labels::none(), &[]);

        let worker = Telemetry::enabled();
        worker.set_clock(|| 777);
        worker.incr("placements", Labels::none(), 3);
        worker.incr("migrations", Labels::tenant("acme"), 1);
        worker.gauge_set("depth", Labels::none(), 9);
        worker.gauge_set("depth", Labels::none(), 1);
        worker.observe("latency", Labels::none(), 1000);
        worker.span("trial").exit();
        worker.event(EventKind::Measurement, Labels::none(), &[]);

        hub.absorb(&worker);

        assert_eq!(hub.counter("placements", &Labels::none()), 5);
        assert_eq!(hub.counter("migrations", &Labels::tenant("acme")), 1);
        // Gauge takes the incoming value; high-water folds with max.
        assert_eq!(hub.gauge("depth", &Labels::none()), Some((1, 9)));
        let h = hub.histogram("latency", &Labels::none()).unwrap();
        assert_eq!((h.count, h.min, h.max), (2, 10, 1000));

        let snap = hub.snapshot();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].start_us, 777, "span keeps its own clock");
        assert_eq!(snap.events.len(), 2);
        // Events re-sequence under the absorbing hub's counter while
        // keeping their original timestamps.
        assert_eq!(snap.events[1].seq, 1);
        assert_eq!(snap.events[1].at_us, 777);
        assert_eq!(snap.events[1].kind, EventKind::Measurement);

        // Worker is untouched.
        assert_eq!(worker.counter("placements", &Labels::none()), 3);
    }

    #[test]
    fn absorb_is_exact_for_histogram_quantiles() {
        // Recording split across two hubs then absorbed must summarize
        // identically to recording everything into one hub.
        let whole = Telemetry::enabled();
        let left = Telemetry::enabled();
        let right = Telemetry::enabled();
        for v in 1..=1000u64 {
            whole.observe("lat", Labels::none(), v);
            let part = if v % 2 == 0 { &left } else { &right };
            part.observe("lat", Labels::none(), v);
        }
        let merged = Telemetry::enabled();
        merged.absorb(&left);
        merged.absorb(&right);
        assert_eq!(
            merged.histogram("lat", &Labels::none()),
            whole.histogram("lat", &Labels::none())
        );
    }

    #[test]
    fn absorb_noops_on_disabled_or_shared_hubs() {
        let hub = Telemetry::enabled();
        hub.incr("x", Labels::none(), 1);
        hub.absorb(&Telemetry::disabled());
        let alias = hub.clone();
        hub.absorb(&alias); // shared state: must not double or deadlock
        assert_eq!(hub.counter("x", &Labels::none()), 1);
        let disabled = Telemetry::disabled();
        disabled.absorb(&hub);
        assert!(!disabled.is_enabled());
    }

    #[test]
    fn absorb_keeps_worker_traces_distinct() {
        // Two workers each mint trace 0 on their private hub; after the
        // driver absorbs them in order, the merged store must hold two
        // distinct, internally-connected traces.
        let hub = Telemetry::enabled();
        let own = hub.trace_root("driver.submit");
        own.exit();

        for _ in 0..2 {
            let worker = Telemetry::enabled();
            let root = worker.trace_root("worker.submit");
            let ctx = root.ctx().unwrap();
            worker.span_in(&ctx, "worker.place").exit();
            worker.decide(Decision {
                ctx: Some(ctx),
                stage: "sched.place_task",
                module: "m0",
                candidate: "dev0",
                accepted: true,
                reason: ReasonCode::Accepted,
                score: Some(10),
                detail: String::new(),
            });
            root.exit();
            hub.absorb(&worker);
        }

        let snap = hub.snapshot();
        let mut traces: Vec<u64> = snap.spans.iter().filter_map(|s| s.trace).collect();
        traces.sort_unstable();
        traces.dedup();
        assert_eq!(traces.len(), 3, "driver trace + one per worker");
        // Parent links stay inside each trace.
        for s in &snap.spans {
            if let Some(p) = s.parent {
                let parent = snap.spans.iter().find(|r| r.id == p).unwrap();
                assert_eq!(parent.trace, s.trace, "parent stays in the same trace");
            }
        }
        // Decisions remapped alongside their spans.
        assert_eq!(snap.decisions.len(), 2);
        let d_traces: Vec<_> = snap.decisions.iter().map(|d| d.trace.unwrap()).collect();
        assert_ne!(d_traces[0], d_traces[1]);
        for d in &snap.decisions {
            assert!(
                snap.spans.iter().any(|s| s.trace == d.trace),
                "every decision's trace has spans"
            );
        }
    }

    #[test]
    fn alerts_absorb_like_other_rings() {
        let fire = |at: u64, rule: &str| AlertFire {
            at_us: at,
            rule: rule.to_string(),
            reason: AlertReason::Threshold,
            labels: Labels::module("acme", "stage0"),
            window_start_us: at.saturating_sub(100),
            window_end_us: at,
            value: 7.0,
            detail: "count=7 > 4".to_string(),
        };
        let hub = Telemetry::enabled();
        hub.alert(fire(50, "local.rule"));
        let worker = Telemetry::enabled();
        worker.alert(fire(500, "worker.rule"));
        hub.absorb(&worker);
        let got = hub.alerts();
        assert_eq!(got.len(), 2);
        assert_eq!((got[1].seq, got[1].at_us), (1, 500));
        assert_eq!(worker.alerts().len(), 1, "the source keeps its records");
        // A second worker's alerts re-sequence after the first's.
        let worker = Telemetry::enabled();
        worker.alert(fire(900, "worker.rule"));
        hub.absorb(&worker);
        assert_eq!(hub.alerts().len(), 3);
        assert_eq!(hub.alerts()[2].seq, 2);
        let snap = hub.snapshot();
        assert_eq!(snap.alerts.len(), 3);
        assert_eq!(snap.dropped_alerts, 0);
    }

    #[test]
    fn memory_stays_bounded_under_million_event_absorb_loop() {
        // Flight-recorder unbounded-growth edge: absorb 1M events (and
        // decisions) through bounded rings and assert retention never
        // exceeds the configured capacities, with every eviction
        // counted rather than silently lost.
        const RING: usize = 512;
        const BATCH: usize = 1000;
        const ROUNDS: usize = 1000; // 1_000 * 1_000 = 1M events
        let hub = Telemetry::with_capacities(RING, RING);
        for _ in 0..ROUNDS {
            let worker = Telemetry::with_capacities(RING, RING);
            for i in 0..BATCH {
                worker.event(
                    EventKind::Measurement,
                    Labels::none(),
                    &[("i", FieldValue::from(i as u64))],
                );
                worker.decide(Decision {
                    ctx: None,
                    stage: "s",
                    module: "m",
                    candidate: "c",
                    accepted: false,
                    reason: ReasonCode::Capacity,
                    score: None,
                    detail: String::new(),
                });
            }
            hub.absorb(&worker);
        }
        let snap = hub.snapshot();
        assert!(snap.events.len() <= RING, "event ring stayed bounded");
        assert!(snap.decisions.len() <= RING, "decision ring stayed bounded");
        let total = (BATCH * ROUNDS) as u64;
        assert_eq!(snap.dropped_events + snap.events.len() as u64, total);
        assert_eq!(snap.dropped_decisions + snap.decisions.len() as u64, total);
    }

    #[test]
    fn clock_source_timestamps_spans() {
        let tel = Telemetry::enabled();
        let t = Arc::new(std::sync::atomic::AtomicU64::new(100));
        let tc = Arc::clone(&t);
        tel.set_clock(move || tc.load(std::sync::atomic::Ordering::Relaxed));
        let span = tel.span("work");
        t.store(250, std::sync::atomic::Ordering::Relaxed);
        span.exit();
        let snap = tel.snapshot();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].start_us, 100);
        assert_eq!(snap.spans[0].end_us, Some(250));
    }
}
