//! Observable-equivalence proof for the indexed allocator: the seed's
//! linear scan/sort allocator (`LinearPool`, kept verbatim) and the
//! indexed `ResourcePool` run side by side over random
//! allocate/release/fail/repair traces with every constraint knob in
//! play. At every step they must return the *same* results — identical
//! slices, identical errors, identical `available_for` answers, and
//! identical accounting — so the index is a pure speedup, never a
//! behavior change. `best_fit`, the read-only probe placement asks
//! before it allocates, must name the device both then take. Both also
//! match a model of what is held: the units of every slice carved since
//! its device last failed — releasing a slice a failure already took
//! must not free units a later allocation holds on the repaired device.

use proptest::prelude::*;
use udc_hal::linear::LinearPool;
use udc_hal::pool::AllocConstraints;
use udc_hal::{Device, DeviceId, ResourcePool};
use udc_spec::ResourceKind;

const DEVICES: u32 = 12;
const TENANTS: [&str; 3] = ["acme", "globex", "initech"];

/// Builds the identical device set in both implementations: varied
/// capacities so the worst-fit order is nontrivial, spread over racks.
fn twin_pools() -> (LinearPool, ResourcePool) {
    let mut linear = LinearPool::new(ResourceKind::Cpu);
    let mut indexed = ResourcePool::new(ResourceKind::Cpu);
    for i in 0..DEVICES {
        let d = Device::new(
            DeviceId(i),
            ResourceKind::Cpu,
            4 + (i as u64 * 7) % 17,
            i % 3,
        );
        linear.add_device(d.clone());
        indexed.add_device(d);
    }
    (linear, indexed)
}

/// One generated step of the trace, decoded from tuple inputs.
#[derive(Debug)]
enum Op {
    Allocate {
        tenant: &'static str,
        units: u64,
        constraints: AllocConstraints,
    },
    ReleaseOldest,
    ToggleDevice(DeviceId),
}

#[allow(clippy::too_many_arguments)]
fn decode(
    op: u8,
    units: u64,
    dev: u32,
    tenant: u8,
    exclusive: bool,
    single: bool,
    rack: Option<u32>,
    avoid_mask: u16,
) -> Op {
    match op {
        0 | 1 => Op::Allocate {
            tenant: TENANTS[tenant as usize % TENANTS.len()],
            units,
            constraints: AllocConstraints {
                exclusive,
                single_device: single,
                prefer_rack: rack,
                // Derived (not an extra tuple slot): occasionally pin,
                // so the require_device error paths get traffic too.
                require_device: units.is_multiple_of(5).then_some(DeviceId(dev % DEVICES)),
                avoid: (0..DEVICES)
                    .filter(|i| avoid_mask & (1 << (i % 16)) != 0)
                    .map(DeviceId)
                    .collect(),
            },
        },
        2 => Op::ReleaseOldest,
        _ => Op::ToggleDevice(DeviceId(dev % DEVICES)),
    }
}

proptest! {
    /// Every step of every trace is observably identical between the
    /// seed allocator and the indexed one.
    #[test]
    fn indexed_pool_matches_seed_allocator(
        steps in prop::collection::vec(
            (
                0u8..4,
                1u64..24,
                0u32..DEVICES,
                0u8..3,
                any::<bool>(),
                any::<bool>(),
                prop_oneof![Just(None), Just(Some(0u32)), Just(Some(2u32))],
                0u16..64,
            ),
            1..80,
        ),
    ) {
        let (mut linear, mut indexed) = twin_pools();
        // Each held allocation with the failure count of every slice's
        // device when it was carved; `failures` is the model's own count.
        let mut held: Vec<(udc_hal::Allocation, Vec<u64>)> = Vec::new();
        let mut failures = [0u64; DEVICES as usize];
        for (op, units, dev, tenant, exclusive, single, rack, avoid_mask) in steps {
            match decode(op, units, dev, tenant, exclusive, single, rack, avoid_mask) {
                Op::Allocate { tenant, units, constraints } => {
                    // What the index says a one-device ask would take,
                    // read before either pool moves.
                    let one_device = constraints.exclusive
                        || constraints.single_device
                        || constraints.require_device.is_some();
                    let predicted = indexed.best_fit(tenant, units, &constraints);
                    // The headline answer: same slices or same error.
                    let a = linear.allocate(tenant, units, &constraints);
                    let b = indexed.allocate(tenant, units, &constraints);
                    prop_assert_eq!(&a, &b, "allocate diverged");
                    // `best_fit` is the allocator's own decision: it names
                    // the device both allocators then take, and finds
                    // none exactly when both refuse.
                    if one_device {
                        let taken = a.as_ref().ok().map(|alloc| alloc.slices[0].device);
                        prop_assert_eq!(predicted, taken, "best_fit diverged from allocate");
                    }
                    // And the advisory answer agrees for every tenant.
                    for t in TENANTS {
                        prop_assert_eq!(
                            linear.available_for(t, &constraints),
                            indexed.available_for(t, &constraints),
                            "available_for diverged"
                        );
                    }
                    if let Ok(alloc) = a {
                        let lives = alloc.slices.iter().map(|s| failures[s.device.0 as usize]).collect();
                        held.push((alloc, lives));
                    }
                }
                Op::ReleaseOldest => {
                    if !held.is_empty() {
                        let (alloc, _) = held.remove(0);
                        linear.release(&alloc);
                        indexed.release(&alloc);
                    }
                }
                Op::ToggleDevice(id) => {
                    let failed = indexed.device(id).unwrap().state
                        == udc_hal::DeviceState::Failed;
                    {
                        let mut d = indexed.device_mut(id).unwrap();
                        if failed { d.repair() } else { let _ = d.fail(); }
                    }
                    let d = linear.device_mut(id).unwrap();
                    if failed { d.repair() } else { let _ = d.fail(); }
                    if !failed {
                        failures[id.0 as usize] += 1;
                    }
                }
            }
            // What is held is exactly the slices no failure has taken.
            let live: u64 = held
                .iter()
                .flat_map(|(alloc, lives)| alloc.slices.iter().zip(lives))
                .filter(|(s, &life)| failures[s.device.0 as usize] == life)
                .map(|(s, _)| s.units)
                .sum();
            prop_assert_eq!(indexed.total_used(), live, "held units diverged from live slices");
            // Accounting is identical after every step.
            prop_assert_eq!(linear.total_capacity(), indexed.total_capacity());
            prop_assert_eq!(linear.total_used(), indexed.total_used());
            prop_assert_eq!(linear.utilization(), indexed.utilization());
        }
        // Draining everything leaves both pristine.
        for (alloc, _) in &held {
            linear.release(alloc);
            indexed.release(alloc);
        }
        prop_assert_eq!(linear.total_used(), 0);
        prop_assert_eq!(indexed.total_used(), 0);
    }
}
