//! A quiet `advance` allocates nothing: once a converged deployment has
//! been looked at in full, the control loop's per-deployment visit
//! touches neither the allocator nor its modules — even with a dead
//! device elsewhere in the datacenter, and with lease detection polling
//! heartbeats across a partition. With every instrument attached, a
//! quiet `advance` that carries no time allocates nothing either: the
//! query barrier reads only the names its rules read and rewrites its
//! gauge samples in place. Counted with a thread-local counting
//! allocator (the harness runs tests on parallel threads).

use udc_core::{CloudConfig, UdcCloud, HEAL_DEGRADED_RULE, RING_DROPPED_RULE};
use udc_economics::{PlanSpec, QuotaGate};
use udc_failure::{DetectorConfig, NetPlan, Partition};
use udc_hal::clock::Micros;
use udc_hal::{FailureEvent, FailurePlan};

#[global_allocator]
static A: udc_alloc_count::CountingAlloc = udc_alloc_count::CountingAlloc;

#[test]
fn a_quiet_detached_advance_does_not_allocate() {
    let mut cloud = UdcCloud::new(CloudConfig::default());
    let mut dep = cloud
        .submit(&udc_workload::microservice_chain(3))
        .expect("fits the default datacenter");
    let used: Vec<_> = dep
        .placement
        .modules
        .values()
        .flat_map(|p| p.allocations.iter().flat_map(|a| a.devices()))
        .collect();
    let elsewhere = cloud
        .datacenter()
        .device_ids()
        .into_iter()
        .find(|d| !used.contains(d))
        .expect("an idle device");
    cloud
        .datacenter_mut()
        .set_failure_plan(FailurePlan::from_events(vec![FailureEvent {
            at_us: 5,
            device: elsewhere,
            crash: true,
        }]));

    // The crash is drained and the deployment looked at in full once.
    let report = cloud.advance(&mut dep, 10);
    assert_eq!(report.crashed_devices, vec![elsewhere]);
    assert!(report.detected.is_empty() && dep.health.is_converged());

    let n = udc_alloc_count::allocs_during(|| {
        for i in 0..1_000 {
            let report = cloud.advance(&mut dep, i % 2 * 1_000);
            assert!(report.is_quiet());
        }
    });
    assert_eq!(n, 0, "1 000 quiet advances allocated {n} times");
}

#[test]
fn a_quiet_lease_mode_advance_does_not_allocate() {
    let mut cloud = UdcCloud::new(CloudConfig::default());
    cloud.attach_failure_detection(DetectorConfig::default());
    let mut dep = cloud
        .submit(&udc_workload::microservice_chain(3))
        .expect("fits the default datacenter");
    let used: Vec<_> = dep
        .placement
        .modules
        .values()
        .flat_map(|p| p.allocations.iter().flat_map(|a| a.devices()))
        .collect();
    let idle = cloud
        .datacenter()
        .device_ids()
        .into_iter()
        .find(|d| !used.contains(d))
        .expect("an idle device");
    // Cut off for the whole run, so every poll's window meets the
    // partition and the device's beats are replayed one by one.
    cloud.set_net_plan(NetPlan {
        partitions: vec![Partition {
            island: vec![idle],
            from_us: 0,
            until_us: Micros::MAX,
        }],
        ..NetPlan::none()
    });

    // Confirmed dead before counting starts; the deployment never held
    // anything there.
    let report = cloud.advance(&mut dep, 500_000);
    assert_eq!(report.confirmed, vec![idle]);
    assert!(report.detected.is_empty() && dep.health.is_converged());

    let n = udc_alloc_count::allocs_during(|| {
        for i in 0..1_000 {
            let report = cloud.advance(&mut dep, i % 2 * 1_000);
            assert!(report.is_quiet());
        }
    });
    assert_eq!(n, 0, "1 000 quiet lease-mode advances allocated {n} times");
}

#[test]
fn a_quiet_attached_advance_does_not_allocate() {
    let mut cloud = UdcCloud::new(CloudConfig::default());
    let hub = cloud.enable_telemetry();
    let mut gate = QuotaGate::new();
    gate.open_account("tenant", PlanSpec::unlimited("open"), 0);
    cloud.attach_economics(udc_economics::shared(gate));
    cloud.attach_failure_detection(DetectorConfig::default());
    let mut engine = udc_query::QueryEngine::new();
    for parsed in udc_query::default_ruleset() {
        for q in parsed.queries {
            engine.register(q).expect("preset query registers");
        }
        engine.add_rule(parsed.rule).expect("preset rule loads");
    }
    cloud.attach_queries(engine, 1_000_000);
    let engine = cloud.queries().expect("attached");
    assert!(engine.has_rule(HEAL_DEGRADED_RULE) && engine.has_rule(RING_DROPPED_RULE));
    let mut dep = cloud
        .submit(&udc_workload::microservice_chain(3))
        .expect("fits the default datacenter");

    // Time passes once (leases are polled, windows close, the silence
    // rule fires), then the barrier settles.
    for delta in [600_000, 0] {
        assert!(cloud.advance(&mut dep, delta).is_quiet());
    }
    assert!(!hub.alerts().is_empty(), "the engine is live");

    let n = udc_alloc_count::allocs_during(|| {
        for _ in 0..1_000 {
            let report = cloud.advance(&mut dep, 0);
            assert!(report.is_quiet());
        }
    });
    assert_eq!(
        n, 0,
        "1 000 zero-delta attached advances allocated {n} times"
    );
}
