//! Seeding a deployment's recovery model is cheap per message: each
//! seeded message is one 16-byte `(seq, value)` entry pushed onto its
//! module's stream, whose capacity is reserved up front, so the
//! allocations are per module, not per message. Pinned by count, not by
//! time, with the counting global allocator.

use udc_alloc_count::{allocations, live_bytes};
use udc_dist::RecoveryModel;

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
