//! Observable-equivalence proof for the indexed allocator: the seed's
//! linear scan/sort allocator (`LinearPool`, kept verbatim) and the
//! indexed `ResourcePool` run side by side over random
//! allocate/release/fail/repair traces with every constraint knob in
//! play. The indexed pool runs twice, once fed device by device
//! (`add_device`) and once built in bulk from a shuffled device list
//! (`with_devices`). At every step all of them must return the *same*
//! results — identical slices, identical errors, identical
//! `available_for` answers, and identical accounting — so the index and
//! its bulk build are a pure speedup, never a behavior change.
//! `best_fit`, the read-only probe placement asks before it allocates,
//! must name the device all then take. All also match a model of what
//! is held: the units of every slice carved since its device last failed
//! — releasing a slice a failure already took must not free units a
//! later allocation holds on the repaired device.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use udc_hal::linear::LinearPool;
use udc_hal::pool::AllocConstraints;
use udc_hal::{
    Allocation, Datacenter, DatacenterConfig, Device, DeviceId, FabricConfig, PoolConfig,
    ResourcePool,
};
use udc_spec::{ResourceKind, ResourceVector};

const DEVICES: u32 = 12;
const TENANTS: [&str; 3] = ["acme", "globex", "initech"];

/// The device set every pool starts from: varied capacities so the
/// worst-fit order is nontrivial, spread over racks 0–2.
fn devices() -> Vec<Device> {
    (0..DEVICES)
        .map(|i| {
            Device::new(
                DeviceId(i),
                ResourceKind::Cpu,
                4 + (i as u64 * 7) % 17,
                i % 3,
            )
        })
        .collect()
}

/// The seed allocator and the pool fed device by device.
fn twin_pools() -> (LinearPool, ResourcePool) {
    let mut linear = LinearPool::new(ResourceKind::Cpu);
    let mut indexed = ResourcePool::new(ResourceKind::Cpu);
    for d in devices() {
        linear.add_device(d.clone());
        indexed.add_device(d);
    }
    (linear, indexed)
}

/// The same devices built in bulk, handed over out of id order.
fn bulk_pool() -> ResourcePool {
    let mut shuffled = devices();
    shuffled.sort_by_key(|d| (d.id.0 * 5) % DEVICES);
    ResourcePool::with_devices(ResourceKind::Cpu, shuffled)
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

type Step = (u8, u64, u32, u8, bool, bool, Option<u32>, u16);

fn trace() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (
            0u8..4,
            1u64..24,
            0u32..DEVICES,
            0u8..3,
            any::<bool>(),
            any::<bool>(),
            // Rack 7 holds no device: an empty rack partition.
            prop_oneof![
                Just(None),
                Just(Some(0u32)),
                Just(Some(2u32)),
                Just(Some(7u32))
            ],
            0u16..64,
        ),
        1..80,
    )
}

fn decode((op, units, dev, tenant, exclusive, single, rack, avoid_mask): Step) -> Op {
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

/// The seed allocator and indexed pools under one trace, with the model
/// of what is held.
struct Twins {
    linear: LinearPool,
    pools: Vec<ResourcePool>,
    /// Each held allocation with the failure count of every slice's
    /// device when it was carved; `failures` is the model's own count.
    held: Vec<(Allocation, Vec<u64>)>,
    failures: [u64; DEVICES as usize],
}

impl Twins {
    fn new(linear: LinearPool, pools: Vec<ResourcePool>) -> Self {
        Self {
            linear,
            pools,
            held: Vec::new(),
            failures: [0; DEVICES as usize],
        }
    }

    /// Applies one step to every allocator and checks they agree.
    fn step(&mut self, op: Op) -> Result<(), TestCaseError> {
        match op {
            Op::Allocate {
                tenant,
                units,
                constraints,
            } => {
                // What the index says a one-device ask would take, read
                // before any pool moves.
                let one_device = constraints.exclusive
                    || constraints.single_device
                    || constraints.require_device.is_some();
                let predicted: Vec<_> = self
                    .pools
                    .iter()
                    .map(|p| p.best_fit(tenant, units, &constraints))
                    .collect();
                // The headline answer: same slices or same error.
                let a = self.linear.allocate(tenant, units, &constraints);
                for p in &mut self.pools {
                    let b = p.allocate(tenant, units, &constraints);
                    prop_assert_eq!(&a, &b, "allocate diverged");
                }
                // `best_fit` is the allocator's own decision: it names
                // the device every allocator then takes, and finds none
                // exactly when all refuse.
                if one_device {
                    let taken = a.as_ref().ok().map(|alloc| alloc.slices[0].device);
                    for p in predicted {
                        prop_assert_eq!(p, taken, "best_fit diverged from allocate");
                    }
                }
                // And the advisory answer agrees for every tenant.
                for t in TENANTS {
                    let want = self.linear.available_for(t, &constraints);
                    for p in &self.pools {
                        prop_assert_eq!(
                            want,
                            p.available_for(t, &constraints),
                            "available_for diverged"
                        );
                    }
                }
                if let Ok(alloc) = a {
                    let lives = alloc
                        .slices
                        .iter()
                        .map(|s| self.failures[s.device.0 as usize])
                        .collect();
                    self.held.push((alloc, lives));
                }
            }
            Op::ReleaseOldest => {
                if !self.held.is_empty() {
                    let (alloc, _) = self.held.remove(0);
                    self.linear.release(&alloc);
                    for p in &mut self.pools {
                        p.release(&alloc);
                    }
                }
            }
            Op::ToggleDevice(id) => {
                let d = self.linear.device_mut(id).unwrap();
                let failed = d.state == udc_hal::DeviceState::Failed;
                if failed {
                    d.repair()
                } else {
                    let _ = d.fail();
                    self.failures[id.0 as usize] += 1;
                }
                for p in &mut self.pools {
                    let mut d = p.device_mut(id).unwrap();
                    if failed {
                        d.repair()
                    } else {
                        let _ = d.fail();
                    }
                }
            }
        }
        // What is held is exactly the slices no failure has taken.
        let live: u64 = self
            .held
            .iter()
            .flat_map(|(alloc, lives)| alloc.slices.iter().zip(lives))
            .filter(|(s, &life)| self.failures[s.device.0 as usize] == life)
            .map(|(s, _)| s.units)
            .sum();
        // Accounting is identical after every step.
        for p in &self.pools {
            prop_assert_eq!(p.total_used(), live, "held units diverged from live slices");
            prop_assert_eq!(self.linear.total_capacity(), p.total_capacity());
            prop_assert_eq!(self.linear.total_used(), p.total_used());
            prop_assert_eq!(self.linear.utilization(), p.utilization());
        }
        Ok(())
    }

    /// Rebuilds the first pool in bulk from its devices as they are now,
    /// checks the rebuilt pool answers every probe as the live one does,
    /// and has it run the rest of the trace beside the others.
    fn rebuild(&mut self) -> Result<(), TestCaseError> {
        let live = &self.pools[0];
        let rebuilt = ResourcePool::with_devices(live.kind(), live.devices().cloned().collect());
        prop_assert_eq!(live.total_capacity(), rebuilt.total_capacity());
        prop_assert_eq!(live.total_used(), rebuilt.total_used());
        for tenant in TENANTS {
            for (exclusive, single_device) in [(false, false), (false, true), (true, false)] {
                for prefer_rack in [None, Some(1), Some(7)] {
                    let c = AllocConstraints {
                        exclusive,
                        single_device,
                        prefer_rack,
                        ..Default::default()
                    };
                    prop_assert_eq!(
                        live.available_for(tenant, &c),
                        rebuilt.available_for(tenant, &c)
                    );
                    for units in [1, 4, 9, 20] {
                        prop_assert_eq!(
                            live.best_fit(tenant, units, &c),
                            rebuilt.best_fit(tenant, units, &c),
                            "best_fit diverged after the rebuild"
                        );
                    }
                }
            }
        }
        self.pools.push(rebuilt);
        Ok(())
    }

    /// Draining everything leaves every allocator pristine.
    fn drain(mut self) -> Result<(), TestCaseError> {
        for (alloc, _) in &self.held {
            self.linear.release(alloc);
            for p in &mut self.pools {
                p.release(alloc);
            }
        }
        prop_assert_eq!(self.linear.total_used(), 0);
        for p in &self.pools {
            prop_assert_eq!(p.total_used(), 0);
        }
        Ok(())
    }
}

proptest! {
    /// Every step of every trace is observably identical between the
    /// seed allocator, the indexed pool and the bulk-built one.
    #[test]
    fn indexed_pool_matches_seed_allocator(steps in trace()) {
        let (linear, indexed) = twin_pools();
        let mut twins = Twins::new(linear, vec![indexed, bulk_pool()]);
        for step in steps {
            twins.step(decode(step))?;
        }
        twins.drain()?;
    }

    /// A pool rebuilt in bulk mid-trace — over failed, exclusively held
    /// and solely occupied devices — is the live pool: same probes, and
    /// the same answers for the rest of the trace.
    #[test]
    fn pool_rebuilt_mid_trace_matches_the_live_pool(steps in trace(), at in 0usize..80) {
        let (linear, indexed) = twin_pools();
        let mut twins = Twins::new(linear, vec![indexed]);
        let at = at % steps.len();
        for (i, step) in steps.into_iter().enumerate() {
            if i == at {
                twins.rebuild()?;
            }
            twins.step(decode(step))?;
        }
        twins.drain()?;
    }
}

/// `Datacenter::new` builds each pool at once; it must equal a
/// datacenter grown one `add_device` at a time. Some pools have fewer
/// devices than there are racks, one kind is configured twice and one
/// pool is empty.
#[test]
fn built_datacenter_equals_one_grown_device_by_device() {
    let pool = |kind, devices, capacity_per_device| PoolConfig {
        kind,
        devices,
        capacity_per_device,
    };
    let config = DatacenterConfig {
        pools: vec![
            pool(ResourceKind::Cpu, 40, 64),
            pool(ResourceKind::Gpu, 3, 8),
            pool(ResourceKind::Fpga, 0, 4),
            pool(ResourceKind::Cpu, 5, 16),
            pool(ResourceKind::Dram, 1, 1024),
        ],
        racks: 16,
        fabric: FabricConfig::default(),
    };
    let built = Datacenter::new(config.clone());
    let mut grown = Datacenter::new(DatacenterConfig {
        pools: Vec::new(),
        ..config.clone()
    });
    for pc in &config.pools {
        for _ in 0..pc.devices {
            grown.add_device(pc.kind, pc.capacity_per_device);
        }
    }
    let mut dcs = [built, grown];
    for round in 0..2 {
        let [built, grown] = &dcs;
        assert_eq!(built.device_ids(), grown.device_ids());
        for id in (0..50).map(DeviceId) {
            assert_eq!(built.fabric().rack_of(id), grown.fabric().rack_of(id));
        }
        assert_eq!(built.utilization_report(), grown.utilization_report());
        for kind in ResourceKind::ALL {
            let (b, g) = (built.pool(kind), grown.pool(kind));
            assert_eq!(b.is_some(), g.is_some(), "{kind} pool");
            let (Some(b), Some(g)) = (b, g) else { continue };
            for prefer_rack in [None, Some(0), Some(3), Some(15), Some(16)] {
                for exclusive in [false, true] {
                    let c = AllocConstraints {
                        exclusive,
                        prefer_rack,
                        ..Default::default()
                    };
                    for units in [1, 8, 20, 64] {
                        assert_eq!(
                            b.best_fit("t", units, &c),
                            g.best_fit("t", units, &c),
                            "round {round}: {kind} {units} under {c:?}"
                        );
                    }
                }
            }
        }
        // Then load both the same way and compare again.
        let demand = ResourceVector::new()
            .with(ResourceKind::Cpu, 100)
            .with(ResourceKind::Gpu, 5);
        for dc in &mut dcs {
            let shared = AllocConstraints {
                prefer_rack: Some(3),
                ..Default::default()
            };
            dc.allocate_vector("t", &demand, &shared).unwrap();
        }
    }
}
