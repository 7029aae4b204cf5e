//! Seeding a deployment's recovery model is cheap per message: each
//! seeded message is one log entry with an 8-byte payload, written
//! straight into the reliable log, so it makes about one allocation and
//! keeps few bytes alive. Pinned by count, not by time, with a counting
//! global allocator. The counts are per thread, because the harness
//! runs tests (and allocates) on threads of its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use udc_core::RecoveryModel;

struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so touching them from
    // inside the allocator never allocates or re-enters.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Counts one allocation (when `new_block`) that changed the bytes held
/// by `delta`. `try_with`: a thread being torn down may still allocate.
fn count(new_block: bool, delta: i64) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + new_block as u64));
    let _ = LIVE_BYTES.try_with(|b| b.set(b.get() + delta));
}

// SAFETY: every method forwards to `System` unchanged; the only extra
// work is bumping thread-local `Cell`s, which cannot allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(true, layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(false, -(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(true, new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

#[test]
fn seeding_a_deployment_is_cheap_per_message() {
    const PER_MODULE: u64 = 40;
    let app = udc_workload::medical_pipeline();
    let messages = app.iter_modules().count() as u64 * PER_MODULE;

    let (allocs, bytes) = (ALLOCS.get(), LIVE_BYTES.get());
    let mut model = RecoveryModel::new();
    model.seed_app(&app, PER_MODULE);
    let allocs = (ALLOCS.get() - allocs) as f64 / messages as f64;
    let bytes = (LIVE_BYTES.get() - bytes) as f64 / messages as f64;
    eprintln!("seed_app: {allocs:.2} allocations and {bytes:.0} live bytes per message");

    assert_eq!(messages, 400, "medical_pipeline has 10 modules");
    assert!(model.log_len() > 0);
    assert!(allocs <= 1.12, "{allocs:.2} allocations per message");
    assert!(bytes <= 120.0, "{bytes:.0} live bytes per message");
}
