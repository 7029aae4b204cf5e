//! A quiet `advance` allocates nothing: once a converged deployment has
//! been looked at in full, the control loop's per-deployment visit
//! touches neither the allocator nor its modules — even with a dead
//! device elsewhere in the datacenter. Counted with a thread-local
//! counting allocator (the harness runs tests on parallel threads).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use udc_core::{CloudConfig, UdcCloud};
use udc_hal::{FailureEvent, FailurePlan};

struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator never allocates or re-enters.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the only extra
// work is bumping a thread-local `Cell`, which cannot allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.get();
    f();
    ALLOCS.get() - before
}

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

    let n = allocs_during(|| {
        for i in 0..1_000 {
            let report = cloud.advance(&mut dep, i % 2 * 1_000);
            assert!(report.is_quiet());
        }
    });
    assert_eq!(n, 0, "1 000 quiet advances allocated {n} times");
}
