//! Criterion micro-benchmarks for the actor runtime's message spine.
//!
//! Every group runs the seed executor (`NaiveSystem`, kept verbatim as
//! the equivalence oracle) next to the optimized `System` (interned
//! slots, O(active) ready bitmap, one hub report per round) over the
//! identical workload, so one bench run quantifies the speedup and
//! `bench_check --suite=actor` enforces the floors:
//!
//! - `actor_ping_storm` — 10k actors × 16 messages each, the dense
//!   saturation case; enabled/disabled telemetry variants pin both the
//!   runtime speedup and what switching the hub on costs;
//! - `actor_sparse_chain` — a 64-hop token walk through 10k mostly-idle
//!   actors: the seed pays O(all actors) per round, the ready bitmap
//!   pays O(active);
//! - `actor_fanout_cascade` — one injection amplified through a fan-out
//!   tree (message-spine throughput: log append, outbox, refcounts);
//! - `actor_failure_churn` — supervised failures with retry, so the
//!   restart/retry path stays on the fast side too.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use udc_actor::{Actor, ActorError, ActorId, Ctx, Message, NaiveSystem, SupervisionPolicy, System};
use udc_telemetry::Telemetry;

const STORM_ACTORS: usize = 10_000;
const STORM_MSGS: u64 = 16;

#[derive(Default)]
struct Sink {
    seen: u64,
}

impl Actor for Sink {
    fn on_message(&mut self, _ctx: &mut Ctx, _msg: &Message) -> Result<(), ActorError> {
        self.seen += 1;
        Ok(())
    }
    fn reset(&mut self) {
        self.seen = 0;
    }
}

struct Forwarder {
    next: ActorId,
}

impl Actor for Forwarder {
    fn on_message(&mut self, ctx: &mut Ctx, msg: &Message) -> Result<(), ActorError> {
        ctx.send(self.next.clone(), msg.payload.clone());
        Ok(())
    }
}

struct FanOut {
    left: ActorId,
    right: ActorId,
}

impl Actor for FanOut {
    fn on_message(&mut self, ctx: &mut Ctx, msg: &Message) -> Result<(), ActorError> {
        ctx.send(self.left.clone(), msg.payload.clone());
        ctx.send(self.right.clone(), msg.payload.clone());
        Ok(())
    }
}

/// Every third attempt fails, so a retry always succeeds.
#[derive(Default)]
struct Flaky {
    attempts: u64,
}

impl Actor for Flaky {
    fn on_message(&mut self, _ctx: &mut Ctx, _msg: &Message) -> Result<(), ActorError> {
        self.attempts += 1;
        if self.attempts.is_multiple_of(3) {
            return Err(ActorError("churn".into()));
        }
        Ok(())
    }
}

/// Spawns the storm population into a fresh executor of either type
/// (they share an API surface but no trait — the seed stays untouched).
macro_rules! storm_spawn {
    ($system:ty, $ids:expr, $obs:expr) => {{
        let mut sys = <$system>::new();
        sys.set_observer($obs.clone());
        for id in $ids {
            sys.spawn(
                id.clone(),
                Box::<Sink>::default(),
                SupervisionPolicy::Restart,
            );
        }
        sys
    }};
}

/// Both storm variants drive a persistent system (spawn is setup, not
/// workload) and truncate the log each iteration at checkpoint cadence,
/// like every other group. The injection idiom differs: the seed only
/// has by-id injection; the optimized system is driven the way a hot
/// caller would drive it — ids resolved *once* into dense
/// [`udc_actor::ActorRef`] handles, then reused across bursts.
fn bench_ping_storm(c: &mut Criterion) {
    let ids: Vec<ActorId> = (0..STORM_ACTORS)
        .map(|i| ActorId::new(format!("a{i:05}")))
        .collect();
    let ids = &ids;
    let mut group = c.interleaved_group("actor_ping_storm");
    group.throughput(Throughput::Elements(STORM_ACTORS as u64 * STORM_MSGS));
    for (variant, obs) in [
        ("enabled", Telemetry::enabled()),
        ("disabled", Telemetry::disabled()),
    ] {
        let mut naive = storm_spawn!(NaiveSystem, ids, obs);
        group.bench_function(format!("naive/{variant}"), move |b| {
            b.iter(|| {
                for _ in 0..STORM_MSGS {
                    for id in ids {
                        naive.inject(id.clone(), Bytes::from_static(b"m"));
                    }
                }
                let (n, _) = naive.run_until_quiescent(usize::MAX);
                naive.truncate_log_through(u64::MAX);
                black_box(n)
            })
        });
        let mut fast = storm_spawn!(System, ids, obs);
        let refs: Vec<_> = ids.iter().map(|id| fast.resolve(id).unwrap()).collect();
        group.bench_function(format!("fast/{variant}"), move |b| {
            b.iter(|| {
                for _ in 0..STORM_MSGS {
                    for &r in &refs {
                        fast.inject_at(r, Bytes::from_static(b"m"));
                    }
                }
                let (n, _) = fast.run_until_quiescent(usize::MAX);
                fast.truncate_log_through(u64::MAX);
                black_box(n)
            })
        });
    }
    group.finish();
}

/// Spawns `idle` sinks plus a descending-id forwarding chain, so every
/// hop lands on an earlier-ordered actor and costs one full round.
macro_rules! sparse_setup {
    ($system:ty, $idle:expr, $hops:expr, $obs:expr) => {{
        let mut sys = <$system>::new();
        sys.set_observer($obs.clone());
        for i in 0..$idle {
            sys.spawn(
                format!("idle{i:05}"),
                Box::<Sink>::default(),
                SupervisionPolicy::Restart,
            );
        }
        // chain63 -> chain62 -> ... -> chain00 (a sink).
        sys.spawn(
            "chain00",
            Box::<Sink>::default(),
            SupervisionPolicy::Restart,
        );
        for hop in 1..$hops {
            sys.spawn(
                format!("chain{hop:02}"),
                Box::new(Forwarder {
                    next: ActorId::new(format!("chain{:02}", hop - 1)),
                }),
                SupervisionPolicy::Restart,
            );
        }
        sys
    }};
}

fn bench_sparse_chain(c: &mut Criterion) {
    const IDLE: usize = 10_000;
    const HOPS: usize = 64;
    let head = ActorId::new(format!("chain{:02}", HOPS - 1));
    let obs = Telemetry::disabled();
    let mut group = c.interleaved_group("actor_sparse_chain");
    group.throughput(Throughput::Elements(HOPS as u64));
    let mut naive = sparse_setup!(NaiveSystem, IDLE, HOPS, obs);
    let h = head.clone();
    group.bench_function("naive", move |b| {
        b.iter(|| {
            naive.inject(h.clone(), Bytes::from_static(b"t"));
            let r = naive.run_until_quiescent(usize::MAX);
            // Checkpoint-cadence truncation keeps the persistent system
            // stationary across iterations (the log would otherwise
            // grow without bound and skew later samples).
            naive.truncate_log_through(u64::MAX);
            black_box(r)
        })
    });
    let mut fast = sparse_setup!(System, IDLE, HOPS, obs);
    group.bench_function("fast", move |b| {
        b.iter(|| {
            fast.inject(head.clone(), Bytes::from_static(b"t"));
            let r = fast.run_until_quiescent(usize::MAX);
            fast.truncate_log_through(u64::MAX);
            black_box(r)
        })
    });
    group.finish();
}

/// A binary fan-out tree of `depth` levels; leaves are sinks. One
/// injection at the root amplifies into `2^depth - 1` deliveries.
macro_rules! fanout_setup {
    ($system:ty, $depth:expr, $obs:expr) => {{
        let mut sys = <$system>::new();
        sys.set_observer($obs.clone());
        let node = |level: usize, idx: usize| format!("t{level:02}_{idx:04}");
        for level in 0..$depth {
            for idx in 0..(1usize << level) {
                if level + 1 == $depth {
                    sys.spawn(
                        node(level, idx),
                        Box::<Sink>::default(),
                        SupervisionPolicy::Restart,
                    );
                } else {
                    sys.spawn(
                        node(level, idx),
                        Box::new(FanOut {
                            left: ActorId::new(node(level + 1, 2 * idx)),
                            right: ActorId::new(node(level + 1, 2 * idx + 1)),
                        }),
                        SupervisionPolicy::Restart,
                    );
                }
            }
        }
        sys
    }};
}

fn bench_fanout_cascade(c: &mut Criterion) {
    const DEPTH: usize = 11; // 2047 actors, 2047 deliveries per injection
    let root = ActorId::new("t00_0000");
    let mut group = c.interleaved_group("actor_fanout_cascade");
    group.throughput(Throughput::Elements((1u64 << DEPTH) - 1));
    for (variant, obs) in [
        ("enabled", Telemetry::enabled()),
        ("disabled", Telemetry::disabled()),
    ] {
        let mut naive = fanout_setup!(NaiveSystem, DEPTH, obs);
        let r = root.clone();
        group.bench_function(format!("naive/{variant}"), move |b| {
            b.iter(|| {
                naive.inject(r.clone(), Bytes::from_static(b"x"));
                let out = naive.run_until_quiescent(usize::MAX);
                naive.truncate_log_through(u64::MAX);
                black_box(out)
            })
        });
        let mut fast = fanout_setup!(System, DEPTH, obs);
        let r = root.clone();
        group.bench_function(format!("fast/{variant}"), move |b| {
            b.iter(|| {
                fast.inject(r.clone(), Bytes::from_static(b"x"));
                let out = fast.run_until_quiescent(usize::MAX);
                fast.truncate_log_through(u64::MAX);
                black_box(out)
            })
        });
    }
    group.finish();
}

macro_rules! churn_setup {
    ($system:ty, $actors:expr, $obs:expr) => {{
        let mut sys = <$system>::new();
        sys.set_observer($obs.clone());
        for i in 0..$actors {
            sys.spawn(
                format!("w{i:03}"),
                Box::<Flaky>::default(),
                SupervisionPolicy::RestartAndRetry,
            );
        }
        sys
    }};
}

fn bench_failure_churn(c: &mut Criterion) {
    const ACTORS: usize = 256;
    const MSGS: u64 = 16;
    let ids: Vec<ActorId> = (0..ACTORS)
        .map(|i| ActorId::new(format!("w{i:03}")))
        .collect();
    let ids = &ids;
    let mut group = c.interleaved_group("actor_failure_churn");
    group.throughput(Throughput::Elements(ACTORS as u64 * MSGS));
    for (variant, obs) in [
        ("enabled", Telemetry::enabled()),
        ("disabled", Telemetry::disabled()),
    ] {
        let mut naive = churn_setup!(NaiveSystem, ACTORS, obs);
        group.bench_function(format!("naive/{variant}"), move |b| {
            b.iter(|| {
                for id in ids {
                    for _ in 0..MSGS {
                        naive.inject(id.clone(), Bytes::from_static(b"c"));
                    }
                }
                let out = naive.run_until_quiescent(usize::MAX);
                naive.truncate_log_through(u64::MAX);
                black_box(out)
            })
        });
        let mut fast = churn_setup!(System, ACTORS, obs);
        group.bench_function(format!("fast/{variant}"), move |b| {
            b.iter(|| {
                for id in ids {
                    for _ in 0..MSGS {
                        fast.inject(id.clone(), Bytes::from_static(b"c"));
                    }
                }
                let out = fast.run_until_quiescent(usize::MAX);
                fast.truncate_log_through(u64::MAX);
                black_box(out)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_ping_storm,
    bench_sparse_chain,
    bench_fanout_cascade,
    bench_failure_churn
);
criterion_main!(benches);
