//! Every reason code, scheduler error and control-plane error the system
//! defines is reachable from a public call: each `ReasonCode` lands as a
//! decision record, and each `SchedError` and `CloudError` variant is
//! returned. The exhaustive `match`es below stop a new variant from
//! compiling until it is named here, and naming it fails the test until
//! some path reaches it.

use std::collections::BTreeSet;
use udc::core::{CloudConfig, CloudError, Deployment, UdcCloud};
use udc::failure::{DetectorConfig, GrayFault, NetPlan};
use udc::hal::{Datacenter, FailureEvent, FailurePlan};
use udc::sched::{PackAlgo, SchedError, SchedOptions, Scheduler, ServerCluster, ServerShape};
use udc::spec::prelude::*;
use udc::spec::{ConflictPolicy, ConsistencyLevel, ResolvedApp};
use udc::telemetry::{ReasonCode, Telemetry};
use udc_economics::{
    shared, BidderPolicy, Lot, PlanSpec, QuotaGate, SharedQuotaGate, SpotMarket, TRUTHFUL_BIDDER,
};

const SCHED_ERRORS: [&str; 5] = [
    "spec",
    "alloc",
    "failure_independence",
    "quota_denied",
    "slice_lost",
];

fn sched_error(e: &SchedError) -> &'static str {
    match e {
        SchedError::Spec(_) => "spec",
        SchedError::Alloc { .. } => "alloc",
        SchedError::NotEnoughFailureIndependence { .. } => "failure_independence",
        SchedError::QuotaDenied { .. } => "quota_denied",
        SchedError::SliceLost { .. } => "slice_lost",
    }
}

const CLOUD_ERRORS: [&str; 2] = ["cloud.spec", "cloud.sched"];

fn cloud_error(e: &CloudError) -> &'static str {
    match e {
        CloudError::Spec(_) => "cloud.spec",
        CloudError::Sched(_) => "cloud.sched",
    }
}

/// What the public call paths below produced.
#[derive(Default)]
struct Tally {
    reasons: BTreeSet<&'static str>,
    errors: BTreeSet<&'static str>,
}

impl Tally {
    fn hub(&mut self, obs: &Telemetry) {
        self.reasons
            .extend(obs.decisions().iter().map(|d| d.reason.as_str()));
    }

    fn submit(&mut self, cloud: &mut UdcCloud, app: &AppSpec) -> Option<Deployment> {
        let err = match cloud.submit(app) {
            Ok(dep) => return Some(dep),
            Err(e) => e,
        };
        self.errors.insert(cloud_error(&err));
        if let CloudError::Sched(e) = &err {
            self.errors.insert(sched_error(e));
        }
        None
    }

    fn sched<T>(&mut self, result: Result<T, SchedError>) {
        if let Err(e) = result {
            self.errors.insert(sched_error(&e));
        }
    }
}

fn task(id: &str, kind: ResourceKind, units: u64) -> TaskSpec {
    TaskSpec::new(id).with_resource(ResourceAspect::default().with_demand(kind, units))
}

fn one(spec: TaskSpec) -> AppSpec {
    let mut app = AppSpec::new("one");
    app.add_task(spec);
    app
}

/// Placement, healing, fencing, exclusivity and replica refusals on one
/// cloud.
fn placement_and_healing(t: &mut Tally) {
    let mut cloud = UdcCloud::new(CloudConfig::default());
    let obs = cloud.enable_telemetry();
    // Leaves one device 4 cores free: a capacity loser for T below.
    t.submit(&mut cloud, &one(task("hog", ResourceKind::Cpu, 60)));
    // T follows S to its rack: devices elsewhere lose on locality, the
    // rest of the rack on score.
    let mut app = AppSpec::new("pair");
    app.add_task(task("T", ResourceKind::Cpu, 8));
    app.add_data(DataSpec::new("S").with_bytes(1 << 20));
    app.add_edge("T", "S", EdgeKind::Access).unwrap();
    app.affinity("T", "S").unwrap();
    let mut dep = t.submit(&mut cloud, &app).expect("the pair places");
    let old = dep.placement.modules[&ModuleId::from("T")].primary_device;
    cloud
        .datacenter_mut()
        .set_failure_plan(FailurePlan::from_events(vec![FailureEvent {
            at_us: 5,
            device: old,
            crash: true,
        }]));
    cloud.advance(&mut dep, 10);
    assert!(dep.health.is_converged(), "T healed off the crashed device");
    assert!(
        !cloud.authorize_launch("T", old, 1),
        "the old epoch is fenced"
    );
    // No device is vacant and big enough for a single-tenant 100 cores.
    let tee = task("tee", ResourceKind::Cpu, 100)
        .with_exec_env(ExecEnvAspect::isolation(IsolationLevel::Strongest));
    t.submit(&mut cloud, &one(tee));
    // More replicas than the eight HDD shelves.
    let mut wide = AppSpec::new("wide");
    wide.add_data(
        DataSpec::new("W")
            .with_resource(ResourceAspect::default().with_demand(ResourceKind::Hdd, 1))
            .with_dist(DistributedAspect::default().replication(12)),
    );
    t.submit(&mut cloud, &wide);
    t.submit(&mut cloud, &one(task("gpu", ResourceKind::Gpu, 1 << 40)));
    t.hub(&obs);

    // A conflict the front door refuses outright.
    let mut cloud = UdcCloud::new(CloudConfig {
        conflict_policy: ConflictPolicy::Error,
        ..Default::default()
    });
    let mut conflict = AppSpec::new("conflict");
    conflict.add_task(TaskSpec::new("A"));
    conflict.add_task(TaskSpec::new("B"));
    conflict.add_data(DataSpec::new("S"));
    for (from, level) in [
        ("A", ConsistencyLevel::Sequential),
        ("B", ConsistencyLevel::Release),
    ] {
        conflict
            .add_access_with(from, "S", Some(level), None)
            .unwrap();
    }
    t.submit(&mut cloud, &conflict);
}

/// A gray device's heartbeats arrive late enough to be suspected.
fn suspicion(t: &mut Tally) {
    let mut cloud = UdcCloud::new(CloudConfig::default());
    let obs = cloud.enable_telemetry();
    cloud.attach_failure_detection(DetectorConfig {
        lease_us: 1_000,
        confirm_misses: 3,
        seed: 7,
    });
    let mut dep = t.submit(&mut cloud, &one(task("T", ResourceKind::Cpu, 2)));
    let dep = dep.as_mut().expect("T places");
    cloud.set_net_plan(NetPlan {
        grays: vec![GrayFault {
            device: dep.placement.modules[&ModuleId::from("T")].primary_device,
            from_us: 0,
            until_us: 2_500,
            delay_us: 2_000,
            drop_per_mille: 0,
        }],
        ..NetPlan::none()
    });
    for _ in 0..10 {
        cloud.advance(dep, 500);
    }
    t.hub(&obs);
}

fn economics_cloud(plan: PlanSpec) -> (UdcCloud, Telemetry, SharedQuotaGate) {
    let mut cloud = UdcCloud::new(CloudConfig::default());
    let obs = cloud.enable_telemetry();
    let mut gate = QuotaGate::new();
    gate.open_account("tenant", plan, 0);
    let gate = shared(gate);
    cloud.attach_economics(gate.clone());
    (cloud, obs, gate)
}

/// Quota refusal, and an account that degrades, is suspended, is
/// refused and pays.
fn economics(t: &mut Tally) {
    let tiny = PlanSpec {
        quota: ResourceVector::new().with(ResourceKind::Cpu, 1),
        ..PlanSpec::unlimited("tiny")
    };
    let (mut cloud, obs, _gate) = economics_cloud(tiny);
    t.submit(&mut cloud, &one(task("T", ResourceKind::Cpu, 2)));
    t.hub(&obs);

    let overdraft = PlanSpec {
        degrade_after_us: 10,
        suspend_after_us: 20,
        ..PlanSpec::unlimited("overdraft")
    };
    let (mut cloud, obs, gate) = economics_cloud(overdraft);
    let mut dep = t
        .submit(&mut cloud, &one(task("T", ResourceKind::Cpu, 2)))
        .expect("T places");
    gate.lock()
        .unwrap()
        .account_mut("tenant")
        .unwrap()
        .charge(0, 500, None, "overage");
    for step in [5, 10, 15] {
        cloud.advance(&mut dep, step);
    }
    t.submit(&mut cloud, &one(task("late", ResourceKind::Cpu, 2)));
    gate.lock()
        .unwrap()
        .account_mut("tenant")
        .unwrap()
        .pay(35, 1_000);
    cloud.advance(&mut dep, 5);
    assert!(dep.health.is_converged(), "payment re-placed T");
    t.hub(&obs);
}

/// The scheduler's own refusals: an unknown module, and a resize of a
/// slice its device's crash took.
fn scheduler(t: &mut Tally) {
    let mut dc = Datacenter::default();
    let mut sched = Scheduler::new(SchedOptions::default());
    let app = one(task("T", ResourceKind::Cpu, 4));
    let mut placement = sched.place_app(&mut dc, &app).unwrap();
    let resolved = ResolvedApp::new(&app, ConflictPolicy::StrictestWins).unwrap();
    let nope = ModuleId::from("nope");
    t.sched(sched.replace_module(&mut dc, &resolved, &nope, &placement, &[], None));
    let p = placement.modules.get_mut(&ModuleId::from("T")).unwrap();
    dc.set_failure_plan(FailurePlan::from_events(vec![FailureEvent {
        at_us: 1,
        device: p.primary_device,
        crash: true,
    }]));
    dc.tick_events(2);
    t.sched(sched.resize(&mut dc, p, 8));
}

/// Bin-packing's pruning audit and the spot market's losing bid.
fn binpack_and_market(t: &mut Tally) {
    let obs = Telemetry::enabled();
    let mut cluster = ServerCluster::new(ServerShape::standard(0));
    cluster.set_observer(obs.clone());
    let demands = vec![ResourceVector::new().with(ResourceKind::Cpu, 40); 4];
    cluster.pack_all(&demands, PackAlgo::FirstFitDecreasing);

    let mut gate = QuotaGate::new();
    let bidders: Vec<BidderPolicy> = [("alice", 40), ("bob", 25)]
        .into_iter()
        .map(|(tenant, valuation)| {
            gate.open_account(tenant, PlanSpec::unlimited("spot"), 0);
            gate.account_mut(tenant).unwrap().pay(0, 10_000);
            BidderPolicy {
                tenant: tenant.to_string(),
                program: udc::extvm::assemble(TRUTHFUL_BIDDER).unwrap(),
                valuation,
            }
        })
        .collect();
    let lot = Lot {
        kind: ResourceKind::Cpu,
        units: 10,
        reserve_price: 5,
    };
    SpotMarket::default().run_epoch(100, &lot, &bidders, 50, &mut gate, &obs);
    t.hub(&obs);
}

fn tally() -> Tally {
    let mut t = Tally::default();
    placement_and_healing(&mut t);
    suspicion(&mut t);
    economics(&mut t);
    scheduler(&mut t);
    binpack_and_market(&mut t);
    t
}

#[test]
fn every_reason_code_lands_as_a_decision_record() {
    let reasons = tally().reasons;
    let missing: Vec<&str> = ReasonCode::ALL
        .iter()
        .map(|r| r.as_str())
        .filter(|r| !reasons.contains(r))
        .collect();
    assert!(missing.is_empty(), "never recorded: {missing:?}");
}

#[test]
fn every_sched_and_cloud_error_variant_is_returned() {
    let errors = tally().errors;
    let missing: Vec<&str> = SCHED_ERRORS
        .iter()
        .chain(&CLOUD_ERRORS)
        .copied()
        .filter(|e| !errors.contains(e))
        .collect();
    assert!(missing.is_empty(), "never returned: {missing:?}");
}
