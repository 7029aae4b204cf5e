//! A datacenter holds its device inventory cheaply: `Datacenter::new`
//! builds each pool in one pass into a sorted device `Vec` and
//! bulk-loaded index trees, so it makes few heap allocations per device
//! and keeps few bytes per device alive. Pinned by count, not by time,
//! with a counting global allocator. The counts are per thread, because
//! the harness runs tests (and allocates) on threads of its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use udc_hal::{Datacenter, DatacenterConfig};

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
fn datacenter_new_is_cheap_per_device() {
    // The default datacenter's mix, 100 times over: 10 000 devices on
    // 800 racks.
    let mut config = DatacenterConfig::default();
    for pc in &mut config.pools {
        pc.devices *= 100;
    }
    config.racks *= 100;
    let devices: usize = config.pools.iter().map(|pc| pc.devices).sum();

    let (allocs, bytes) = (ALLOCS.get(), LIVE_BYTES.get());
    let dc = Datacenter::new(config);
    let allocs = (ALLOCS.get() - allocs) as f64 / devices as f64;
    let bytes = (LIVE_BYTES.get() - bytes) as f64 / devices as f64;
    eprintln!("Datacenter::new: {allocs:.2} allocations and {bytes:.0} live bytes per device");

    assert_eq!(dc.device_ids().len(), devices);
    assert!(allocs <= 0.5, "{allocs:.2} allocations per device");
    assert!(bytes <= 320.0, "{bytes:.0} live bytes per device");
}
