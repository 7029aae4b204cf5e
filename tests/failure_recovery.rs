//! Cross-crate failure-injection tests: device crashes, replica
//! durability and checkpoint/replay recovery (§3.4).

use udc::dist::{RecoveryModel, RecoveryStrategy, ReplicatedStore, ReplicationParams};
use udc::hal::{Datacenter, FailureEvent, FailurePlan};
use udc::spec::{ConsistencyLevel, ModuleId};

#[test]
fn device_crash_and_repair_cycle() {
    let mut dc = Datacenter::default();
    let victim = dc.device_ids()[0];
    dc.set_failure_plan(FailurePlan::from_events(vec![
        FailureEvent {
            at_us: 1_000,
            device: victim,
            crash: true,
        },
        FailureEvent {
            at_us: 60_000_000,
            device: victim,
            crash: false,
        },
    ]));
    let first = dc.tick_events(10_000);
    assert_eq!(first.crashed, vec![victim]);
    assert!(first.repaired.is_empty());
    assert_eq!(dc.device(victim).unwrap().free_for("t"), 0, "crashed");
    let second = dc.tick_events(120_000_000);
    assert!(second.crashed.is_empty());
    assert_eq!(second.repaired, vec![victim]);
    assert!(dc.device(victim).unwrap().free_for("t") > 0, "repaired");
}

#[test]
fn replicated_data_survives_replica_loss() {
    let mut store = ReplicatedStore::new(
        3,
        ConsistencyLevel::Linearizable,
        ReplicationParams::default(),
    )
    .expect("3 replicas");
    for i in 0..50u64 {
        store.write(&format!("k{i}"), &i.to_le_bytes());
    }
    assert!(store.survives(2), "2 of 3 replicas may fail");
    store.fail_replica(1).unwrap();
    store.fail_replica(2).unwrap();
    // Every key still readable (primary holds the data).
    for i in 0..50u64 {
        let r = store.read(&format!("k{i}"));
        assert_eq!(r.value.as_deref(), Some(i.to_le_bytes().as_ref()));
    }
    // Rebuild restores full redundancy.
    assert_eq!(store.rebuild_replica(1).unwrap(), 50);
    assert_eq!(store.rebuild_replica(2).unwrap(), 50);
}

#[test]
fn crash_recovery_checkpoint_equals_reexecution() {
    // Seeding compacts, so each strategy recovers from its own log: a
    // checkpointed one no longer holds the prefix re-execution replays.
    let id = ModuleId::from("worker");
    let mut reexec = RecoveryModel::new();
    reexec.seed_workload(&id, 500, None);
    let mut ckpt = RecoveryModel::new();
    ckpt.seed_workload(&id, 500, Some(400));

    let r1 = reexec
        .recover_module(&id, RecoveryStrategy::Reexecute)
        .unwrap();
    let r2 = ckpt
        .recover_module(&id, RecoveryStrategy::FromCheckpoint)
        .unwrap();

    assert_eq!(
        reexec.recovered_state(&id),
        ckpt.recovered_state(&id),
        "strategies must converge"
    );
    assert_eq!(reexec.recovered_state(&id), Some(500 * 501 / 2));
    assert_eq!(ckpt.expected_state(&id), ckpt.recovered_state(&id));
    assert_eq!(r1.replayed, 500);
    assert_eq!(r2.replayed, 100, "only the post-checkpoint suffix");
}

#[test]
fn random_failure_plan_applies_fully() {
    let mut dc = Datacenter::default();
    let ids = dc.device_ids();
    let plan = FailurePlan::random(&ids, 0.25, 1_000_000, 500_000, 42);
    let expected_events = plan.len();
    dc.set_failure_plan(plan);
    let mut applied = 0;
    for _ in 0..40 {
        let report = dc.tick_events(50_000);
        applied += report.crashed.len() + report.repaired.len();
    }
    assert_eq!(
        applied, expected_events,
        "every scheduled event fires exactly once"
    );
}
