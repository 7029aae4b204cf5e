//! A datacenter holds its device inventory cheaply: `Datacenter::new`
//! builds each pool in one pass into a sorted device `Vec` and
//! bulk-loaded index trees, so it makes few heap allocations per device
//! and keeps few bytes per device alive. Pinned by count, not by time,
//! with a counting global allocator. The counts are per thread, because
//! the harness runs tests (and allocates) on threads of its own.

use udc_alloc_count::{allocations, live_bytes};
use udc_hal::{Datacenter, DatacenterConfig};

#[global_allocator]
static A: udc_alloc_count::CountingAlloc = udc_alloc_count::CountingAlloc;

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

    let (allocs, bytes) = (allocations(), live_bytes());
    let dc = Datacenter::new(config);
    let allocs = (allocations() - allocs) as f64 / devices as f64;
    let bytes = (live_bytes() - bytes) as f64 / devices as f64;
    eprintln!("Datacenter::new: {allocs:.2} allocations and {bytes:.0} live bytes per device");

    assert_eq!(dc.device_ids().len(), devices);
    assert!(allocs <= 0.5, "{allocs:.2} allocations per device");
    assert!(bytes <= 320.0, "{bytes:.0} live bytes per device");
}
