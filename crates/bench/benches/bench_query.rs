//! Criterion micro-benchmarks for the continuous-query engine.
//!
//! The paired `detached`/`attached` groups price what switching the
//! engine on costs, and `bench_check --suite=query` gates the attached
//! side against the detached one: on a steady-state fleet tick
//! (`fleet_tick`: `advance` over four standing deployments, where the
//! query barrier is most of what an idle control loop does), on a whole
//! short tenant life (`build_submit_advance4`: build a cloud, submit
//! the medical pipeline, four advances) and on an actor storm drained
//! through a feed afterwards (`ping_storm`). The `query/*` functions
//! price the engine's own operations.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use udc_actor::{Actor, ActorError, Ctx, Message, SupervisionPolicy, System};
use udc_core::{CloudConfig, UdcCloud};
use udc_query::{
    default_ruleset, Aggregation, HubFeed, LabelFilter, Obs, QueryEngine, QuerySpec, Source,
    WindowSpec,
};
use udc_telemetry::{Labels, Telemetry};
use udc_workload::medical_pipeline;

fn engine_with_default_rules() -> QueryEngine {
    let mut engine = QueryEngine::new();
    for parsed in default_ruleset() {
        for q in parsed.queries {
            engine.register(q).expect("preset query registers");
        }
        engine.add_rule(parsed.rule).expect("preset rule loads");
    }
    engine
}

fn bench_build_submit_advance4(c: &mut Criterion) {
    let medical = medical_pipeline();
    let mut group = c.benchmark_group("query_overhead/build_submit_advance4");
    for (variant, attached) in [("detached", false), ("attached", true)] {
        group.bench_function(variant, |b| {
            b.iter(|| {
                let mut cloud = UdcCloud::new(CloudConfig::default());
                cloud.enable_telemetry();
                if attached {
                    cloud.attach_queries(engine_with_default_rules(), 1_000_000);
                }
                let mut dep = cloud.submit(black_box(&medical)).unwrap();
                for _ in 0..4 {
                    cloud.advance(&mut dep, 250_000);
                }
                black_box(dep.placement.modules.len())
            })
        });
    }
    group.finish();
}

/// One control-loop barrier over a standing fleet, in steady state: the
/// first `advance` carries the tick's 250 ms, the rest run at the same
/// instant (the end-to-end benchmark's `fleet_attached` tick, minus
/// economics, lease detection and faults).
fn bench_fleet_tick(c: &mut Criterion) {
    let medical = medical_pipeline();
    let mut group = c.benchmark_group("query_overhead/fleet_tick");
    for (variant, attached) in [("detached", false), ("attached", true)] {
        group.bench_function(variant, |b| {
            let mut cloud = UdcCloud::new(CloudConfig::default());
            cloud.enable_telemetry();
            if attached {
                cloud.attach_queries(engine_with_default_rules(), 1_000_000);
            }
            let mut fleet: Vec<_> = (0..4).map(|_| cloud.submit(&medical).unwrap()).collect();
            b.iter(|| {
                for (i, dep) in fleet.iter_mut().enumerate() {
                    let delta = if i == 0 { 250_000 } else { 0 };
                    black_box(cloud.advance(dep, delta).is_quiet());
                }
            })
        });
    }
    group.finish();
}

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

fn bench_ping_storm(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_overhead/ping_storm");
    for (variant, attached) in [("detached", false), ("attached", true)] {
        group.bench_function(variant, |b| {
            b.iter(|| {
                let hub = Telemetry::enabled();
                let mut sys = System::new();
                sys.set_observer(hub.clone());
                sys.spawn("sink", Box::<Sink>::default(), SupervisionPolicy::Restart);
                for i in 0..1_000u64 {
                    sys.inject("sink", Bytes::copy_from_slice(&i.to_le_bytes()));
                }
                let (n, _) = sys.run_until_quiescent(usize::MAX);
                if attached {
                    // The subscriber's barrier: drain the hub through
                    // the engine and close the windows.
                    let mut engine = engine_with_default_rules();
                    let mut feed = HubFeed::new();
                    engine.ingest(feed.poll(&hub, 1_000_000));
                    engine.advance_to(1_000_000);
                    black_box(engine.outputs().len());
                }
                black_box(n)
            })
        });
    }
    group.finish();
}

fn bench_engine_primitives(c: &mut Criterion) {
    // A quiet barrier: nothing buffered, watermark unchanged — the cost
    // every attached advance pays even when the cloud is idle.
    c.bench_function("query/advance_quiet", |b| {
        let mut engine = engine_with_default_rules();
        engine.advance_to(1_000_000);
        b.iter(|| {
            engine.advance_to(black_box(1_000_000));
            black_box(engine.outputs().len())
        })
    });
    // 1k counter observations through a windowed sum, windows closing
    // along the way.
    c.bench_function("query/feed_1k_advance", |b| {
        b.iter(|| {
            let mut engine = QueryEngine::new();
            engine
                .register(QuerySpec {
                    name: "hits".to_string(),
                    source: Source::Counter {
                        name: "hits".to_string(),
                        labels: LabelFilter::any(),
                    },
                    agg: Aggregation::Sum,
                    window: WindowSpec::tumbling(250_000),
                })
                .unwrap();
            for i in 0..1_000u64 {
                engine.push(Obs::Counter {
                    at_us: i * 1_000,
                    name: "hits".to_string(),
                    labels: Labels::none(),
                    delta: 1 + (i % 7),
                });
            }
            engine.advance_to(1_000_000);
            black_box(engine.outputs().len())
        })
    });
}

criterion_group!(
    benches,
    bench_build_submit_advance4,
    bench_fleet_tick,
    bench_ping_storm,
    bench_engine_primitives
);
criterion_main!(benches);
