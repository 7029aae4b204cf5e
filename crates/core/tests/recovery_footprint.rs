//! Seeding a deployment's recovery model is cheap per message: each
//! retained message is one 16-byte `(seq, value)` entry pushed onto its
//! module's stream, whose capacity is reserved up front, so the
//! allocations are per module, not per message. A stream retains only
//! what follows its own checkpoint, so memory follows the retained
//! entries, not the messages seeded. Pinned by count, not by time, with
//! the counting global allocator.

use udc_alloc_count::{allocations, live_bytes};
use udc_dist::RecoveryModel;
use udc_spec::{AppSpec, DistributedAspect, FailureHandling, TaskSpec};

#[global_allocator]
static A: udc_alloc_count::CountingAlloc = udc_alloc_count::CountingAlloc;

#[test]
fn seeding_a_deployment_is_cheap_per_message() {
    const PER_MODULE: u64 = 40;
    let app = udc_workload::medical_pipeline();
    let messages = app.iter_modules().count() as u64 * PER_MODULE;

    let (allocs, bytes) = (allocations(), live_bytes());
    let mut model = RecoveryModel::new();
    model.seed_app(&app, PER_MODULE);
    let allocs = (allocations() - allocs) as f64 / messages as f64;
    let bytes = (live_bytes() - bytes) as f64 / messages as f64;
    eprintln!("seed_app: {allocs:.3} allocations and {bytes:.1} live bytes per message");

    assert_eq!(messages, 400, "medical_pipeline has 10 modules");
    assert!(model.log_len() > 0);
    assert!(allocs <= 0.1, "{allocs:.3} allocations per message");
    assert!(bytes <= 32.0, "{bytes:.1} live bytes per message");
}

#[test]
fn a_reexecute_module_pins_only_its_own_stream() {
    const PER_MODULE: u64 = 1_000;
    // One re-execution module, and nine that checkpoint every 300
    // messages and so retain the last 100 of their 1 000.
    let mut app = AppSpec::new("mixed");
    app.add_task(TaskSpec::new("R"));
    for i in 0..9 {
        let every = FailureHandling::Checkpoint { interval_ms: 300 };
        app.add_task(
            TaskSpec::new(&format!("C{i}")).with_dist(DistributedAspect::default().failure(every)),
        );
    }
    let retained = PER_MODULE + 9 * (PER_MODULE % 300);

    let bytes = live_bytes();
    let mut model = RecoveryModel::new();
    model.seed_app(&app, PER_MODULE);
    let bytes = (live_bytes() - bytes) as f64 / retained as f64;
    eprintln!("mixed seed_app: {bytes:.1} live bytes per retained entry");

    assert_eq!(model.log_len() as u64, retained);
    // Pinning every stream to the re-execution module's history would
    // keep all 10 000 entries: over 80 bytes per retained one.
    assert!(bytes <= 24.0, "{bytes:.1} live bytes per retained entry");
}
