//! The traced run's instruments: spans around the stages, and *probes*
//! that replay a stage's constituent public calls on shadow state.
//!
//! The product crates carry no wall-clock spans yet, so a layer's cost is
//! measured from outside: after a sampled stage returns, the same public
//! functions it calls are called again, by the benchmark, on a shadow
//! datacenter / scheduler / detector / query engine built from the same
//! config and fed the same sequence. A probe approximates the in-situ
//! cost (same code, same sizes, warm instead of cold caches); it is not
//! equal to it. `hal.*` probes nest under `sched.place_app`, and
//! `telemetry.snapshot` under `query.poll`, the way the layers nest.

use crate::scenario::{self, Scenario};
use crate::trace::{SpanId, Tracer, ROOT};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;
use udc_core::{
    check_quote, policy_for_module, AppIr, Deployment, HealReport, RunReport, UdcCloud,
};
use udc_crypto::aead::{seal, Key, Nonce};
use udc_crypto::attest::Verifier;
use udc_crypto::derive_key;
use udc_dist::RecoveryStrategy;
use udc_economics::{demand_of_app, QuotaGate};
use udc_extvm::{assemble, VmLimits, BEST_FIT};
use udc_failure::{LeaseDetector, NetPlan};
use udc_hal::pool::AllocConstraints;
use udc_hal::{Datacenter, DeviceId, FailureEvent, FailurePlan};
use udc_isolate::{Environment, InstanceId, WarmPool};
use udc_query::{HubFeed, Obs, QueryEngine};
use udc_sched::{
    AppPlacement, ExtVmPolicy, PlacementPolicy, PolicyCtx, SchedOptions, Scheduler, StartMode,
};
use udc_spec::{AppSpec, ConflictPolicy, FailureHandling, ModuleKind};
use udc_telemetry::{Labels, Telemetry};

/// Every this-many-th life gets probes.
pub const SAMPLE_EVERY: u32 = 16;
/// Every this-many-th sampled life also gets the tenant-policy placement.
const EXTVM_EVERY: u32 = 4;
/// Stage spans kept per tick for quiet advances (heal ones are all kept).
const QUIET_SPANS_PER_TICK: usize = 32;
/// Fleets above this size time every advance only in every
/// `BIG_FLEET_TICK_STRIDE`-th tick.
const BIG_FLEET: usize = 256;
const BIG_FLEET_TICK_STRIDE: u32 = 8;
/// A stand-alone hub snapshot is timed every this-many-th tick.
const SNAPSHOT_EVERY: u32 = 4;
const TENANT: &str = "tenant";
const TENANT_SECRET: &[u8] = b"udc-tenant-secret";

/// An `advance` that did repair work, as opposed to one that only saw
/// time (and maybe someone else's device events) pass.
pub fn is_heal(r: &HealReport) -> bool {
    !r.detected.is_empty() || !r.repaired.is_empty() || !r.retried.is_empty()
}

fn device_key(id: DeviceId) -> [u8; 32] {
    derive_key(
        b"udc-hardware-root",
        b"device-key",
        format!("{id}").as_bytes(),
    )
}

fn scheduler(scn: &Scenario, policy: Option<Box<dyn PlacementPolicy>>) -> Scheduler {
    let config = scn.cloud_config();
    let mut options = SchedOptions {
        tenant: TENANT.to_string(),
        warm_pool: config.warm_pool,
        ..SchedOptions::default()
    };
    if let Some(policy) = policy {
        options.policy = policy;
    }
    Scheduler::new(options)
}

fn best_fit_policy() -> ExtVmPolicy {
    let program = assemble(BEST_FIT).expect("the stock best-fit policy assembles");
    ExtVmPolicy::new("benchmark-best-fit", program, VmLimits::default())
}

/// Shadow copies of the state the stages run against.
struct Shadow {
    dc: Datacenter,
    sched: Scheduler,
    extvm_sched: Scheduler,
    /// The standing population, placed the way the real one was.
    placements: Vec<AppPlacement>,
    detector: Option<LeaseDetector>,
    net: NetPlan,
    feed: HubFeed,
    engine: Option<QueryEngine>,
    gate: Option<QuotaGate>,
    believed_dead: BTreeSet<DeviceId>,
    next_instance: u64,
}

pub struct Instrument {
    pub tracer: Tracer,
    attached: bool,
    shadow: Option<Shadow>,
    fleet_size: usize,
    tick_root: SpanId,
    heal_probed_this_tick: bool,
    /// Observations the shadow feed drained, and in how many polls.
    pub polled_obs: u64,
    pub polls: u64,
}

impl Instrument {
    pub fn new(scn: &Scenario, span_capacity: usize) -> Self {
        Self {
            tracer: Tracer::new(span_capacity),
            attached: scn.attached,
            shadow: None,
            fleet_size: 0,
            tick_root: ROOT,
            heal_probed_this_tick: false,
            polled_obs: 0,
            polls: 0,
        }
    }

    /// Rebuilds the shadow state for a round: same datacenter, same
    /// standing population, same fault plan, same attachments.
    pub fn begin_round(
        &mut self,
        scn: &Scenario,
        seed: u64,
        standing: &[AppSpec],
        events: &[FailureEvent],
        t0_us: u64,
        net: NetPlan,
    ) {
        let mut dc = Datacenter::new(scn.datacenter());
        let mut sched = scheduler(scn, None);
        let placements = standing
            .iter()
            .filter_map(|app| sched.place_app(&mut dc, app).ok())
            .collect();
        dc.clock().advance_to(t0_us);
        dc.set_failure_plan(FailurePlan::from_events(events.to_vec()));
        let (detector, engine, gate) = if scn.attached {
            let mut gate = QuotaGate::new();
            gate.open_account(TENANT, scenario::plan_for(standing), 0);
            (
                Some(LeaseDetector::new(
                    scenario::detector_config(seed),
                    dc.device_ids(),
                    t0_us,
                )),
                Some(scenario::query_engine()),
                Some(gate),
            )
        } else {
            (None, None, None)
        };
        self.fleet_size = standing.len();
        self.shadow = Some(Shadow {
            dc,
            sched,
            extvm_sched: scheduler(scn, Some(Box::new(best_fit_policy()))),
            placements,
            detector,
            net,
            feed: HubFeed::new(),
            engine,
            gate,
            believed_dead: BTreeSet::new(),
            next_instance: 0,
        });
    }

    pub fn refusal(&mut self, trace: u32, t0: Instant, t1: Instant) {
        let root = self.tracer.record(ROOT, trace, "life.refused", t0, t1, 1);
        self.tracer.record(root, trace, "core.refuse", t0, t1, 1);
    }

    /// Records one life's root and stage spans and, on sampled lives,
    /// replays its constituent calls on the shadow state.
    pub fn life(&mut self, trace: u32, at: [Instant; 6], app: &AppSpec, report: &RunReport) {
        let t = &mut self.tracer;
        let root = t.record(ROOT, trace, "life", at[0], at[5], 1);
        t.record(root, trace, "spec.parse", at[0], at[1], 1);
        let submit = t.record(root, trace, "core.submit", at[1], at[2], 1);
        let run = t.record(root, trace, "core.run", at[2], at[3], 1);
        let verify = t.record(root, trace, "core.verify", at[3], at[4], 1);
        let teardown = t.record(root, trace, "core.teardown", at[4], at[5], 1);
        if !trace.is_multiple_of(SAMPLE_EVERY) {
            return;
        }
        let Some(shadow) = &mut self.shadow else {
            return;
        };

        // Under submit: compile, place, launch, derive keys.
        let Ok(ir) = t.probe(submit, trace, "spec.compile", 1, || {
            AppIr::compile(app, ConflictPolicy::StrictestWins)
        }) else {
            return;
        };
        let place_start = Instant::now();
        let placed = shadow.sched.place_app(&mut shadow.dc, app);
        let place_end = Instant::now();
        let Ok(placement) = placed else {
            return;
        };
        let place = t.record(submit, trace, "sched.place_app", place_start, place_end, 1);
        // The HAL's share of a placement: the same demand carved straight
        // from the pools, nested under the scheduler's span.
        let demand = placement.allocated_vector();
        let constraints = AllocConstraints::default();
        if let Ok(held) = t.probe(place, trace, "hal.allocate_vector", 1, || {
            shadow.dc.allocate_vector(TENANT, &demand, &constraints)
        }) {
            t.probe(place, trace, "hal.release", held.len() as u32, || {
                for a in &held {
                    shadow.dc.release(a);
                }
            });
        }
        let keys: Vec<[u8; 32]> = placement
            .modules
            .values()
            .map(|p| device_key(p.primary_device))
            .collect();
        let first_instance = shadow.next_instance;
        shadow.next_instance += placement.modules.len() as u64;
        let mut envs: Vec<Environment> =
            t.probe(submit, trace, "isolate.start", keys.len() as u32, || {
                ir.modules
                    .iter()
                    .zip(&keys)
                    .enumerate()
                    .map(|(n, (m, key))| {
                        let p = &placement.modules[&m.spec.id];
                        let mut env =
                            Environment::new(InstanceId(first_instance + n as u64), p.env, *key);
                        let identity = format!("{}@{}", m.spec.id, m.identity_hex());
                        env.start(p.start_mode == StartMode::Warm, &identity);
                        env
                    })
                    .collect()
            });
        let data: Vec<&str> = ir
            .modules
            .iter()
            .filter(|m| m.spec.kind == ModuleKind::Data)
            .map(|m| m.spec.id.as_str())
            .collect();
        let data_keys: Vec<Key> = if data.is_empty() {
            Vec::new()
        } else {
            t.probe(
                submit,
                trace,
                "crypto.key_derive",
                data.len() as u32,
                || {
                    data.iter()
                        .map(|id| Key::derive(TENANT_SECRET, id.as_bytes()))
                        .collect()
                },
            )
        };

        // Under run: one 4 KiB seal per message the run sealed.
        if let (Some(key), true) = (data_keys.first(), report.sealed_messages > 0) {
            let sample = vec![0x5au8; 4096];
            t.probe(
                run,
                trace,
                "crypto.seal",
                report.sealed_messages as u32,
                || {
                    for n in 1..=report.sealed_messages {
                        black_box(seal(key, Nonce::from_sequence(n), b"probe", &sample));
                    }
                },
            );
        }

        // Under verify: quote and check every environment that can attest.
        let attesting = envs.iter().filter(|e| e.root_of_trust().is_some()).count();
        if attesting > 0 {
            let now = shadow.dc.clock().now();
            t.probe(verify, trace, "crypto.attest", attesting as u32, || {
                for ((m, env), key) in ir.modules.iter().zip(&envs).zip(&keys) {
                    let Some(rot) = env.root_of_trust() else {
                        continue;
                    };
                    let p = &placement.modules[&m.spec.id];
                    let mut verifier = Verifier::new();
                    verifier.trust_device(rot.device_id(), *key);
                    let nonce = derive_key(
                        b"udc-nonce",
                        &now.to_be_bytes(),
                        m.spec.id.as_str().as_bytes(),
                    );
                    let isolation = m.spec.exec_env.isolation.unwrap_or_default().name();
                    let resources: Vec<(String, u64)> = p
                        .allocations
                        .iter()
                        .map(|a| (a.kind.to_string(), a.total_units()))
                        .collect();
                    let mut claims = BTreeMap::new();
                    claims.insert("isolation".to_string(), isolation.to_string());
                    claims.insert(
                        "tenancy".to_string(),
                        if p.env.single_tenant {
                            "single_tenant"
                        } else {
                            "shared"
                        }
                        .to_string(),
                    );
                    for (kind, units) in &resources {
                        claims.insert(format!("resources.{kind}"), units.to_string());
                    }
                    let quote = rot.quote(nonce, claims);
                    let expected = [
                        "boot: udc-runtime v1".to_string(),
                        format!("load: {}@{}", m.spec.id, m.identity_hex()),
                    ];
                    let policy =
                        policy_for_module(&expected, isolation, p.env.single_tenant, &resources);
                    black_box(check_quote(&verifier, &quote, &nonce, &policy));
                }
            });
        }

        // Under teardown: stop, release.
        t.probe(teardown, trace, "isolate.stop", envs.len() as u32, || {
            for env in &mut envs {
                env.stop();
            }
        });
        t.probe(teardown, trace, "sched.release_app", 1, || {
            shadow.sched.release_app(&mut shadow.dc, &placement);
        });

        // Not part of any stage (the cloud cannot install a tenant policy
        // yet): the same placement ranked by bytecode. Parented to the
        // life so no stage's self time pays for it, and taken on every
        // fourth sampled life only: on a big datacenter it costs more than
        // the life it follows.
        if !trace.is_multiple_of(SAMPLE_EVERY * EXTVM_EVERY) {
            return;
        }
        if let Ok(p) = t.probe(root, trace, "sched.place_app_extvm", 1, || {
            shadow.extvm_sched.place_app(&mut shadow.dc, app)
        }) {
            shadow.extvm_sched.release_app(&mut shadow.dc, &p);
        }
    }

    /// Opens the tick's root span. Returns whether every advance of this
    /// tick is to be timed (always for a small fleet, every
    /// `BIG_FLEET_TICK_STRIDE`-th tick for a big one).
    pub fn tick_begin(&mut self, tick: u32, at: Instant) -> bool {
        self.tick_root = self.tracer.open(ROOT, tick, "tick", at);
        self.heal_probed_this_tick = false;
        self.fleet_size <= BIG_FLEET || tick.is_multiple_of(BIG_FLEET_TICK_STRIDE)
    }

    /// Follows the control plane's belief about dead devices, from a
    /// report that was not quiet.
    pub fn believe(&mut self, report: &HealReport) {
        let Some(shadow) = &mut self.shadow else {
            return;
        };
        let (down, up) = if shadow.detector.is_some() {
            (&report.confirmed, &report.resurrected)
        } else {
            (&report.crashed_devices, &report.repaired_devices)
        };
        shadow.believed_dead.extend(down.iter().copied());
        for d in up {
            shadow.believed_dead.remove(d);
        }
    }

    pub fn tick_end(&mut self, at: Instant) {
        self.tracer.close(self.tick_root, at);
    }

    /// Records the stage span of one timed `advance` (all that healed, a
    /// bounded sample of the quiet ones) and probes the first of the tick,
    /// which carries its time — plus, where probing is cheap (no
    /// instruments attached), one of the zero-delta rest.
    #[allow(clippy::too_many_arguments)]
    pub fn advance(
        &mut self,
        tick: u32,
        index: usize,
        t0: Instant,
        t1: Instant,
        cloud: &UdcCloud,
        dep: &mut Deployment,
        report: &HealReport,
    ) {
        let heal = is_heal(report);
        let rest = self.fleet_size.saturating_sub(1).max(1);
        let barrier = index == 0 || (!self.attached && index == 1 + tick as usize % rest);
        let stride = self.fleet_size.div_ceil(QUIET_SPANS_PER_TICK).max(1);
        if !(heal || barrier || index.is_multiple_of(stride)) {
            return;
        }
        let name = if heal {
            "core.advance.heal"
        } else {
            "core.advance"
        };
        let stage = self.tracer.record(self.tick_root, tick, name, t0, t1, 1);
        if barrier {
            self.barrier_probes(stage, tick, cloud, dep);
        }
        if heal && !self.heal_probed_this_tick {
            self.heal_probed_this_tick = true;
            self.heal_probes(stage, tick, index, dep, report);
        }
    }

    /// What every `advance` does before it looks at its deployment.
    fn barrier_probes(&mut self, stage: SpanId, tick: u32, cloud: &UdcCloud, dep: &Deployment) {
        let Some(shadow) = &mut self.shadow else {
            return;
        };
        let t = &mut self.tracer;
        let now = cloud.datacenter().clock().now();
        let delta = now.saturating_sub(shadow.dc.clock().now());
        let events = t
            .probe(stage, tick, "hal.tick_events", 1, || {
                shadow.dc.tick_events(delta)
            })
            .events;
        if let Some(detector) = &mut shadow.detector {
            t.probe(stage, tick, "failure.observe", 1, || {
                black_box(detector.observe(now, &events, &shadow.net));
            });
        }
        if let Some(account) = shadow.gate.as_mut().and_then(|g| g.account_mut(TENANT)) {
            t.probe(stage, tick, "economics.settle", 1, || {
                black_box(account.settle(now));
            });
        }
        if let Some(engine) = &mut shadow.engine {
            let hub = cloud.observer();
            let poll_start = Instant::now();
            let batch = shadow.feed.poll(hub, now);
            let poll_end = Instant::now();
            let poll = t.record(stage, tick, "query.poll", poll_start, poll_end, 1);
            self.polled_obs += batch.len() as u64;
            self.polls += 1;
            t.probe(stage, tick, "query.ingest_advance", 1, || {
                engine.ingest(batch);
                for id in dep.placement.modules.keys() {
                    engine.push(Obs::Gauge {
                        at_us: now,
                        name: udc_core::HEAL_DEGRADED_GAUGE.to_string(),
                        labels: Labels::module(TENANT, id.as_str()),
                        value: 0.0,
                    });
                }
                engine.advance_to(now);
                engine.fire_into(&Telemetry::disabled());
            });
            // `poll` starts with a whole-hub snapshot: now and then time one
            // by itself, nested under the poll it is part of.
            if tick.is_multiple_of(SNAPSHOT_EVERY) {
                t.probe(poll, tick, "telemetry.snapshot", 1, || {
                    black_box(hub.snapshot());
                });
            }
        }
    }

    /// Re-place and recover, replayed for the first module a heal repaired.
    fn heal_probes(
        &mut self,
        stage: SpanId,
        tick: u32,
        index: usize,
        dep: &mut Deployment,
        report: &HealReport,
    ) {
        let (Some(shadow), Some(repair)) = (&mut self.shadow, report.repaired.first()) else {
            return;
        };
        let t = &mut self.tracer;
        let id = &repair.module;
        let exclude: Vec<DeviceId> = shadow.believed_dead.iter().copied().collect();
        if let Some(so_far) = shadow.placements.get_mut(index) {
            let replaced = t.probe(stage, tick, "sched.replace_module", 1, || {
                shadow
                    .sched
                    .replace_module(&mut shadow.dc, &dep.ir.app, id, so_far, &exclude, None)
            });
            if let Ok(new) = replaced {
                if let Some(old) = so_far.modules.insert(id.clone(), new) {
                    for a in &old.allocations {
                        shadow.dc.release(a);
                    }
                }
            }
        }
        let strategy = match dep
            .ir
            .app
            .module(id)
            .and_then(|m| m.dist.failure)
            .unwrap_or_default()
        {
            FailureHandling::Reexecute => RecoveryStrategy::Reexecute,
            FailureHandling::Checkpoint { .. } => RecoveryStrategy::FromCheckpoint,
        };
        t.probe(stage, tick, "dist.recover_module", 1, || {
            black_box(dep.recovery.recover_module(id, strategy));
        });
    }
}

/// Times `n` calls of `f` as one batch; nanoseconds per call.
fn per_call_ns(n: u32, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..n {
        f();
    }
    start.elapsed().as_nanos() as f64 / n as f64
}

/// Median over `reps` repetitions of `f`, in nanoseconds.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<u64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as u64
        })
        .collect();
    crate::stats::median_u64(&mut samples) as f64
}

/// Calls that are not replays of a stage: construction costs at this
/// workload's datacenter size, and single public calls on private state.
pub fn micro_probes(scn: &Scenario, values: &mut BTreeMap<&'static str, f64>) {
    let reps = if scn.devices() > 20_000 { 3 } else { 9 };
    values.insert(
        "hal.datacenter_new_us",
        median_ns(reps, || {
            black_box(Datacenter::new(scn.datacenter()));
        }) / 1e3,
    );
    values.insert(
        "core.new_us",
        median_ns(reps, || {
            black_box(UdcCloud::new(scn.cloud_config()));
        }) / 1e3,
    );
    let ids = Datacenter::new(scn.datacenter()).device_ids();
    values.insert(
        "crypto.device_keys_us",
        median_ns(reps, || {
            for id in &ids {
                black_box(device_key(*id));
            }
        }) / 1e3,
    );

    let mut pool = WarmPool::new(scn.cloud_config().warm_pool);
    values.insert(
        "isolate.warm_acquire_us",
        per_call_ns(2_000, || {
            black_box(pool.acquire(udc_isolate::EnvKind::Container));
            pool.refill();
        }) / 1e3,
    );

    let hub = if scn.attached {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    values.insert(
        "telemetry.incr_ns",
        per_call_ns(20_000, || hub.incr("benchmark.probe", Labels::none(), 1)),
    );

    let ctx = PolicyCtx {
        device: DeviceId(0),
        free_units: 48,
        capacity: 64,
        rack: 3,
        preferred_rack: 3,
        demand: 4,
    };
    let mut policy = best_fit_policy();
    values.insert(
        "extvm.policy_score_ns",
        per_call_ns(20_000, || {
            black_box(policy.score(black_box(&ctx)));
        }),
    );

    if scn.attached {
        let app = udc_spec::parse_app(crate::corpus::FEASIBLE[0].text).expect("corpus spec parses");
        let demand = demand_of_app(&app);
        let mut gate = QuotaGate::new();
        gate.open_account(TENANT, scenario::plan_for(std::slice::from_ref(&app)), 0);
        values.insert(
            "economics.admit_commit_release_us",
            per_call_ns(2_000, || {
                if gate.admit(TENANT, &demand).is_admit() {
                    gate.commit(TENANT, &demand);
                    gate.release(TENANT, &demand);
                }
            }) / 1e3,
        );
        let account = gate.account_mut(TENANT).expect("account was opened");
        let mut at_us = 0;
        values.insert(
            "economics.charge_us",
            per_call_ns(2_000, || {
                at_us += 1;
                account.charge(at_us, 7, Some("m"), "usage window");
            }) / 1e3,
        );
    }
}
