//! Proof that task placement may ask the pool index instead of scanning:
//! `LocalityPolicy` declares that its ranking *is* the pool's best-fit
//! order ([`PlacementPolicy::ranks_in_pool_order`]), and the scheduler
//! then takes the winner from `ResourcePool::best_fit` without scoring a
//! single device. Three properties hold that declaration to account:
//!
//! 1. on random pools the index's answer equals the lowest-id argmax of
//!    the policy's scores over the full candidate list;
//! 2. a scheduler under `LocalityPolicy` and one under a wrapper that
//!    forwards `score` but keeps the scan agree on every placement,
//!    every error and every byte of pool state, with the hub on and off
//!    (and the audit records of the two hubs are equal);
//! 3. with the hub off, a policy that declares the order is never asked
//!    for a score.

use proptest::prelude::*;
use std::cell::Cell;
use std::rc::Rc;
use udc_hal::pool::AllocConstraints;
use udc_hal::{Datacenter, DatacenterConfig, DeviceId, FabricConfig, PoolConfig};
use udc_sched::policy::candidates_for;
use udc_sched::{
    AppPlacement, LocalityPolicy, PlacementPolicy, PolicyCtx, SchedError, SchedOptions, Scheduler,
};
use udc_spec::prelude::*;
use udc_telemetry::Telemetry;

const TENANT: &str = "tenant";
const OTHER: &str = "other";

/// What happens to one device after the pool is built.
#[derive(Debug, Clone, Copy)]
enum Prep {
    Untouched,
    Fail,
    /// `units` held by `tenant`, exclusively or not.
    Hold {
        ours: bool,
        exclusive: bool,
        units: u64,
    },
}

fn arb_prep() -> impl Strategy<Value = Prep> {
    prop_oneof![
        Just(Prep::Untouched),
        Just(Prep::Untouched),
        Just(Prep::Fail),
        (any::<bool>(), any::<bool>(), 1u64..12).prop_map(|(ours, exclusive, units)| Prep::Hold {
            ours,
            exclusive,
            units
        }),
    ]
}

/// Small capacities so devices tie on free space and fill up; now and
/// then one just under the bound the policy's rack bonus tolerates.
fn arb_capacity() -> impl Strategy<Value = u64> {
    prop_oneof![1u64..17, 1u64..17, 1u64..17, 900_000u64..1_000_000]
}

/// A CPU pool of `devices` over `racks` racks with the preparations
/// applied (a hold that does not fit is simply skipped).
fn prepared_dc(racks: usize, devices: &[(u64, Prep)]) -> Datacenter {
    let mut dc = Datacenter::new(DatacenterConfig {
        pools: Vec::new(),
        racks,
        fabric: FabricConfig::default(),
    });
    for &(capacity, prep) in devices {
        let id = dc.add_device(ResourceKind::Cpu, capacity);
        let pool = dc.pool_mut(ResourceKind::Cpu).expect("just created");
        match prep {
            Prep::Untouched => {}
            Prep::Fail => {
                let _ = pool.device_mut(id).expect("just added").fail();
            }
            Prep::Hold {
                ours,
                exclusive,
                units,
            } => {
                let pinned = AllocConstraints {
                    exclusive,
                    require_device: Some(id),
                    ..Default::default()
                };
                let _ = pool.allocate(if ours { TENANT } else { OTHER }, units, &pinned);
            }
        }
    }
    dc
}

/// The scan's decision: highest score, lowest device id on ties, over
/// every candidate that is not excluded.
fn scan_winner(
    policy: &mut dyn PlacementPolicy,
    cands: &[PolicyCtx],
    exclude: &[DeviceId],
) -> Option<DeviceId> {
    let mut best: Option<(i64, DeviceId)> = None;
    for c in cands.iter().filter(|c| !exclude.contains(&c.device)) {
        if let Some(score) = policy.score(c) {
            if best.is_none_or(|(s, d)| score > s || (score == s && c.device < d)) {
                best = Some((score, c.device));
            }
        }
    }
    best.map(|(_, d)| d)
}

/// `LocalityPolicy`'s scores, but ranked the way any policy the
/// scheduler knows nothing about is ranked: by scanning.
struct Scanning(LocalityPolicy);

impl PlacementPolicy for Scanning {
    fn score(&mut self, ctx: &PolicyCtx) -> Option<i64> {
        self.0.score(ctx)
    }

    fn name(&self) -> &str {
        "scanning-locality"
    }
}

/// Declares the pool order and counts how often it is asked anyway.
struct Counting {
    inner: LocalityPolicy,
    calls: Rc<Cell<u64>>,
}

impl PlacementPolicy for Counting {
    fn score(&mut self, ctx: &PolicyCtx) -> Option<i64> {
        self.calls.set(self.calls.get() + 1);
        self.inner.score(ctx)
    }

    fn name(&self) -> &str {
        "counting-locality"
    }

    fn ranks_in_pool_order(&self) -> bool {
        true
    }
}

#[derive(Debug, Clone)]
struct GenTask {
    cpu: u64,
    gpu: u64,
    dram: u64,
    replication: u32,
    isolation: Option<IsolationLevel>,
    near_data: bool,
    colocate_with_prev: bool,
}

fn arb_task() -> impl Strategy<Value = GenTask> {
    (
        1u64..13,
        0u64..3,
        0u64..4096,
        1u32..3,
        prop_oneof![
            Just(None),
            Just(Some(IsolationLevel::Medium)),
            Just(Some(IsolationLevel::Strong)),
            Just(Some(IsolationLevel::Strongest)),
        ],
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(cpu, gpu, dram, replication, isolation, near_data, colocate_with_prev)| GenTask {
                cpu,
                gpu,
                dram,
                replication,
                isolation,
                near_data,
                colocate_with_prev,
            },
        )
}

/// Tasks in a dependency chain around one data module, with affinity and
/// colocation hints so placements carry a preferred rack.
fn build_app(name: &str, tasks: &[GenTask]) -> AppSpec {
    let mut app = AppSpec::new(name);
    app.add_data(DataSpec::new("S").with_bytes(4 << 20));
    let mut prev: Option<String> = None;
    for (i, g) in tasks.iter().enumerate() {
        let id = format!("T{i}");
        // GPU-only when asked for one: the compute kind a task is ranked
        // on is its first compute demand.
        let mut r = ResourceAspect::default();
        r = if g.gpu > 0 {
            r.with_demand(ResourceKind::Gpu, g.gpu)
        } else {
            r.with_demand(ResourceKind::Cpu, g.cpu)
        };
        if g.dram > 0 {
            r = r.with_demand(ResourceKind::Dram, g.dram);
        }
        let mut t = TaskSpec::new(&id)
            .with_resource(r)
            .with_work(10)
            .with_dist(DistributedAspect::default().replication(g.replication));
        if let Some(level) = g.isolation {
            t = t.with_exec_env(ExecEnvAspect::isolation(level));
        }
        app.add_task(t);
        if g.near_data {
            app.add_edge(&id, "S", EdgeKind::Access).unwrap();
            app.affinity(&id, "S").unwrap();
        }
        if let Some(prev) = &prev {
            app.add_edge(prev, &id, EdgeKind::Dependency).unwrap();
            if g.colocate_with_prev {
                app.colocate(prev, &id).unwrap();
            }
        }
        prev = Some(id);
    }
    app
}

#[derive(Debug, Clone)]
enum Step {
    Place(Vec<GenTask>),
    /// An ask no device can hold.
    PlaceInfeasible,
    Release(usize),
    /// Crash the device under one task of one live app and re-place it.
    Heal(usize, usize),
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        prop::collection::vec(arb_task(), 1..5).prop_map(Step::Place),
        prop::collection::vec(arb_task(), 1..5).prop_map(Step::Place),
        Just(Step::PlaceInfeasible),
        (0usize..8).prop_map(Step::Release),
        (0usize..8, 0usize..8).prop_map(|(app, module)| Step::Heal(app, module)),
        (0usize..8, 0usize..8).prop_map(|(app, module)| Step::Heal(app, module)),
    ]
}

fn small_dc() -> Datacenter {
    let mut dc = Datacenter::new(DatacenterConfig {
        pools: vec![
            PoolConfig {
                kind: ResourceKind::Cpu,
                devices: 10,
                capacity_per_device: 16,
            },
            PoolConfig {
                kind: ResourceKind::Gpu,
                devices: 3,
                capacity_per_device: 4,
            },
            PoolConfig {
                kind: ResourceKind::Dram,
                devices: 4,
                capacity_per_device: 64 * 1024,
            },
            PoolConfig {
                kind: ResourceKind::Ssd,
                devices: 4,
                capacity_per_device: 1024 * 1024,
            },
        ],
        racks: 4,
        fabric: FabricConfig::default(),
    });
    // A neighbour already in the building: one device it holds alone,
    // two it shares.
    let cpu = dc.pool_mut(ResourceKind::Cpu).expect("configured");
    for (device, units, exclusive) in [(1, 3, true), (4, 5, false), (6, 11, false)] {
        let pinned = AllocConstraints {
            exclusive,
            require_device: Some(DeviceId(device)),
            ..Default::default()
        };
        cpu.allocate(OTHER, units, &pinned).expect("fresh pool");
    }
    dc
}

/// One scheduler, its datacenter and what it has placed so far.
struct Lane {
    dc: Datacenter,
    sched: Scheduler,
    obs: Telemetry,
    live: Vec<(ResolvedApp, AppPlacement)>,
    dead: Vec<DeviceId>,
}

impl Lane {
    fn new(policy: Box<dyn PlacementPolicy>, obs: Telemetry) -> Self {
        let mut dc = small_dc();
        dc.set_observer(obs.clone());
        let mut sched = Scheduler::new(SchedOptions {
            tenant: TENANT.to_string(),
            policy,
            ..Default::default()
        });
        sched.set_observer(obs.clone());
        Self {
            dc,
            sched,
            obs,
            live: Vec::new(),
            dead: Vec::new(),
        }
    }

    /// Runs one step; the returned string is everything an observer of
    /// the scheduler could tell apart afterwards.
    fn run(&mut self, n: usize, step: &Step) -> String {
        let outcome = match step {
            Step::Place(tasks) => self.place(build_app(&format!("app{n}"), tasks)),
            Step::PlaceInfeasible => {
                let mut app = AppSpec::new(&format!("big{n}"));
                app.add_task(TaskSpec::new("T0").with_resource(
                    ResourceAspect::default().with_demand(ResourceKind::Cpu, 1_000),
                ));
                self.place(app)
            }
            Step::Release(i) if !self.live.is_empty() => {
                let (_, placement) = self.live.remove(i % self.live.len());
                self.sched.release_app(&mut self.dc, &placement);
                "released".to_string()
            }
            Step::Heal(i, j) if !self.live.is_empty() => {
                let i = i % self.live.len();
                self.heal(i, *j)
            }
            Step::Release(_) | Step::Heal(..) => "nothing live".to_string(),
        };
        let pools: Vec<_> = ResourceKind::ALL
            .iter()
            .filter_map(|k| self.dc.pool(*k))
            .map(|p| p.devices().collect::<Vec<_>>())
            .collect();
        format!("{outcome}\n{pools:?}")
    }

    fn place(&mut self, app: AppSpec) -> String {
        let app = ResolvedApp::new(&app, ConflictPolicy::StrictestWins).expect("generated valid");
        let result = self.sched.place(&mut self.dc, &app, None);
        let shown = format!("{result:?}");
        if let Ok(placement) = result {
            self.live.push((app, placement));
        }
        shown
    }

    /// The repair loop's evict → re-place, in miniature: the task's
    /// device dies, what the task held is handed back, and the scheduler
    /// re-places it with every dead device excluded.
    fn heal(&mut self, i: usize, j: usize) -> String {
        let (app, placement) = &mut self.live[i];
        let tasks: Vec<ModuleId> = placement
            .modules
            .iter()
            .filter(|(_, m)| m.placed_kind.is_compute())
            .map(|(id, _)| id.clone())
            .collect();
        if tasks.is_empty() {
            return "no task left".to_string();
        }
        let id = &tasks[j % tasks.len()];
        let victim = placement.modules.remove(id).expect("listed above");
        if let Some(mut d) = self
            .dc
            .pool_mut(victim.placed_kind)
            .and_then(|p| p.device_mut(victim.primary_device))
        {
            let _ = d.fail();
        }
        if !self.dead.contains(&victim.primary_device) {
            self.dead.push(victim.primary_device);
        }
        for a in &victim.allocations {
            self.dc.release(a);
        }
        let result: Result<_, SchedError> =
            self.sched
                .replace_module(&mut self.dc, app, id, placement, &self.dead, None);
        let shown = format!("{result:?}");
        if let Ok(placed) = result {
            placement.modules.insert(id.clone(), placed);
        }
        shown
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The index names the scan's winner, and finds none exactly when
    /// the policy vetoes every candidate.
    #[test]
    fn best_fit_is_the_lowest_id_argmax_of_locality_scores(
        racks in 1usize..7,
        devices in prop::collection::vec((arb_capacity(), arb_prep()), 1..24),
        units in prop_oneof![1u64..17, 1u64..17, 1u64..1_000_000],
        preferred in prop_oneof![Just(None), (0u32..7).prop_map(Some)],
        exclude_mask in any::<u32>(),
    ) {
        let dc = prepared_dc(racks, &devices);
        let exclude: Vec<DeviceId> = (0..devices.len() as u32)
            .filter(|i| exclude_mask & (1 << (i % 32)) != 0)
            .map(DeviceId)
            .collect();
        let cands = candidates_for(&dc, ResourceKind::Cpu, TENANT, units, preferred);
        prop_assert_eq!(cands.len(), devices.len());
        let scanned = scan_winner(&mut LocalityPolicy, &cands, &exclude);
        let shared = AllocConstraints {
            prefer_rack: preferred,
            single_device: true,
            avoid: exclude,
            ..Default::default()
        };
        let probed = dc
            .pool(ResourceKind::Cpu)
            .expect("at least one device")
            .best_fit(TENANT, units, &shared);
        prop_assert_eq!(probed, scanned);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Index-ordered and scanned placement are one behaviour: same
    /// placements, same errors (down to `available`), same pool state
    /// after every step, hub on or off — and the enabled hubs hold the
    /// same audit trail.
    #[test]
    fn index_and_scan_schedulers_are_indistinguishable(
        steps in prop::collection::vec(arb_step(), 1..24),
    ) {
        let mut lanes = [
            Lane::new(Box::new(LocalityPolicy), Telemetry::disabled()),
            Lane::new(Box::new(Scanning(LocalityPolicy)), Telemetry::disabled()),
            Lane::new(Box::new(LocalityPolicy), Telemetry::enabled()),
            Lane::new(Box::new(Scanning(LocalityPolicy)), Telemetry::enabled()),
        ];
        for (n, step) in steps.iter().enumerate() {
            let seen: Vec<String> = lanes.iter_mut().map(|lane| lane.run(n, step)).collect();
            for other in &seen[1..] {
                prop_assert_eq!(&seen[0], other, "diverged at step {} ({:?})", n, step);
            }
        }
        let [_, _, index, scan] = &lanes;
        prop_assert_eq!(index.obs.decisions(), scan.obs.decisions());
    }
}

#[test]
fn a_pool_ordered_policy_is_never_scored_with_the_hub_off() {
    let calls = Rc::new(Cell::new(0));
    let counting = || Counting {
        inner: LocalityPolicy,
        calls: calls.clone(),
    };
    let tasks: Vec<GenTask> = (0..4)
        .map(|i| GenTask {
            cpu: 3 + i,
            gpu: 0,
            dram: 64,
            replication: 1 + (i % 2) as u32,
            isolation: (i == 2).then_some(IsolationLevel::Strongest),
            near_data: i % 2 == 0,
            colocate_with_prev: true,
        })
        .collect();

    let mut quiet = Lane::new(Box::new(counting()), Telemetry::disabled());
    for step in [
        Step::Place(tasks.clone()),
        Step::PlaceInfeasible,
        Step::Heal(0, 1),
        Step::Place(tasks.clone()),
    ] {
        quiet.run(0, &step);
    }
    assert_eq!(quiet.live.len(), 2, "both feasible apps were placed");
    assert_eq!(calls.get(), 0, "the index decided every placement");

    // The audit of an enabled hub is the one thing that still asks.
    let mut audited = Lane::new(Box::new(counting()), Telemetry::enabled());
    audited.run(0, &Step::Place(tasks));
    assert!(calls.get() > 0);
}
