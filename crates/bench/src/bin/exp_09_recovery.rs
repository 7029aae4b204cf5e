//! E9 — §3.4/Table 1: failure handling — "whether to re-execute a module
//! or recover from a user-defined checkpoint."
//!
//! A module processes a long message stream; we crash it at 93% progress
//! and recover with both strategies across checkpoint cadences, using
//! the product's recovery log (§3.1: "messages could be reliably
//! recorded for faster recovery"), `udc_dist::RecoveryModel`.

use udc_bench::{banner, fmt_us, Table};
use udc_core::heal::{MSG_COST_US, RESTORE_COST_US};
use udc_core::{CloudConfig, UdcCloud};
use udc_dist::{RecoveryModel, RecoveryStrategy};
use udc_hal::FailurePlan;
use udc_spec::{
    AppSpec, DistributedAspect, FailureHandling, ModuleId, ResourceAspect, ResourceKind, TaskSpec,
};
use udc_telemetry::{EventKind, FieldValue, Labels, Telemetry};

fn main() {
    banner(
        "E9",
        "Recovery: re-execute vs user-defined checkpoints",
        "users choose failure handling per failure domain; checkpoints \
         trade steady-state overhead for recovery speed",
    );

    let mut t = Table::new(&[
        "stream length",
        "checkpoint every",
        "msgs replayed (reexec)",
        "msgs replayed (ckpt)",
        "recovery time (reexec)",
        "recovery time (ckpt)",
        "speedup",
    ]);

    let tel = Telemetry::enabled();
    for &n in &[1_000u64, 10_000, 100_000] {
        for &interval in &[100u64, 1_000, 10_000] {
            if interval > n {
                continue;
            }
            // The module crashes at 93% progress: only the messages
            // processed before the crash exist in the reliable log.
            let crash_at = n * 93 / 100;
            // A checkpointed stream no longer holds the prefix
            // re-execution replays, so it always restores: one model
            // per strategy.
            let id = ModuleId::from("worker");
            let mut reexec_model = RecoveryModel::new();
            reexec_model.seed_workload(&id, crash_at, None);
            let mut ckpt_model = RecoveryModel::new();
            ckpt_model.seed_workload(&id, crash_at, Some(interval));
            let reexec = reexec_model
                .recover_module(&id, RecoveryStrategy::Reexecute)
                .expect("seeded");
            let ckpt = ckpt_model
                .recover_module(&id, RecoveryStrategy::FromCheckpoint)
                .expect("seeded");
            assert_eq!(
                reexec_model.recovered_state(&id),
                ckpt_model.recovered_state(&id),
                "both strategies must converge"
            );

            let reexec_us = reexec.replayed as u64 * MSG_COST_US;
            let ckpt_us = ckpt.replayed as u64 * MSG_COST_US + RESTORE_COST_US;
            tel.event(
                EventKind::Measurement,
                Labels::tenant(format!("n{n}-ckpt{interval}")),
                &[
                    ("reexec_replayed", FieldValue::from(reexec.replayed as u64)),
                    ("ckpt_replayed", FieldValue::from(ckpt.replayed as u64)),
                    ("reexec_us", FieldValue::from(reexec_us)),
                    ("ckpt_us", FieldValue::from(ckpt_us)),
                ],
            );
            t.row(&[
                format!("{n} (crash at {crash_at})"),
                interval.to_string(),
                reexec.replayed.to_string(),
                ckpt.replayed.to_string(),
                fmt_us(reexec_us),
                fmt_us(ckpt_us),
                format!("{:.0}x", reexec_us as f64 / ckpt_us.max(1) as f64),
            ]);
        }
    }
    t.print();

    println!();
    println!(
        "Shape: re-execution cost grows linearly with history; checkpoint \
         recovery is bounded by the cadence. Short modules should re-execute \
         (checkpoint overhead dominates); long-running ones checkpoint — \
         exactly Table 1's split (A2/A3/A4 checkpoint; A1/B1 re-execute)."
    );

    // The same trade-off, end to end: instead of calling
    // `recover_module` directly, crash the device under a deployed module and let the
    // control plane's repair loop (detect → evict → re-place →
    // re-launch → recover) pick the user-defined strategy. MTTR now
    // includes the control-plane work, not just state reconstruction.
    println!();
    println!("End-to-end through the repair loop (530-message log, crash mid-stream):");
    let mut t2 = Table::new(&[
        "failure handling",
        "strategy chosen",
        "msgs replayed",
        "MTTR (detect -> recovered)",
    ]);
    for (label, handling) in [
        ("re-execute", FailureHandling::Reexecute),
        (
            "checkpoint every 100",
            FailureHandling::Checkpoint { interval_ms: 100 },
        ),
    ] {
        let mut app = AppSpec::new("e9-heal");
        app.add_task(
            TaskSpec::new("W")
                .with_resource(ResourceAspect::default().with_demand(ResourceKind::Cpu, 2))
                .with_work(100)
                .with_dist(DistributedAspect::default().failure(handling)),
        );
        let mut cloud = UdcCloud::new(CloudConfig::default());
        cloud.set_observer(tel.clone());
        let mut dep = cloud.submit(&app).expect("app places");
        dep.recovery.seed_app(&app, 530);

        let id = ModuleId::from("W");
        let dead = dep.placement.modules[&id].primary_device;
        let t0 = cloud.datacenter().clock().now();
        cloud.datacenter_mut().set_failure_plan(
            FailurePlan::from_events(vec![udc_hal::FailureEvent {
                at_us: 5,
                device: dead,
                crash: true,
            }])
            .shifted(t0),
        );
        let report = cloud.advance(&mut dep, 10);
        let healed = &report.repaired[0];
        let outcome = healed.recovery.as_ref().expect("state was seeded");
        assert_eq!(
            dep.recovery.recovered_state(&id),
            dep.recovery.expected_state(&id),
            "repair must reconstruct the pre-crash state"
        );
        tel.event(
            EventKind::Measurement,
            Labels::module("tenant", format!("e9-heal-{label}")),
            &[
                ("replayed", FieldValue::from(outcome.replayed as u64)),
                ("mttr_us", FieldValue::from(healed.mttr_us)),
            ],
        );
        t2.row(&[
            label.to_string(),
            format!("{:?}", outcome.strategy),
            outcome.replayed.to_string(),
            fmt_us(healed.mttr_us),
        ]);
        cloud.teardown(&mut dep);
    }
    t2.print();
    println!();
    println!(
        "Shape: the checkpointing module replays only the post-checkpoint \
         suffix, so its repair-loop MTTR stays near the restore floor while \
         re-execution pays for the whole log."
    );
    udc_bench::report::export("exp_09_recovery", &tel);
}
