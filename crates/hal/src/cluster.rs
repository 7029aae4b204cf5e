//! The datacenter: pools of every resource kind, a fabric, a clock,
//! an observability hub, and failure injection — the complete hardware
//! substrate the UDC control plane manages.

use crate::clock::SimClock;
use crate::device::{Device, DeviceId};
use crate::fabric::{Fabric, FabricConfig};
use crate::failure::{FailureEvent, FailurePlan};
use crate::pool::{AllocConstraints, AllocError, Allocation, ResourcePool};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use udc_spec::{ResourceKind, ResourceVector};
use udc_telemetry::{EventKind, FieldValue, Labels};

/// Configuration of one pool: how many devices and how large each is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolConfig {
    /// Resource kind.
    pub kind: ResourceKind,
    /// Number of devices in the pool.
    pub devices: usize,
    /// Capacity units per device.
    pub capacity_per_device: u64,
}

/// Datacenter shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatacenterConfig {
    /// Pools to create.
    pub pools: Vec<PoolConfig>,
    /// Number of racks; devices are assigned round-robin (`id % racks`),
    /// so every rack hosts a mix of device kinds — the disaggregated
    /// rack design of \[36\].
    pub racks: usize,
    /// Fabric parameters.
    pub fabric: FabricConfig,
}

impl Default for DatacenterConfig {
    fn default() -> Self {
        // A small but heterogeneous datacenter mirroring Fig. 1's device
        // mix: CPU cores, GPUs, FPGAs, DRAM/NVM sleds, SSD/HDD shelves,
        // SmartNICs.
        Self {
            pools: vec![
                PoolConfig {
                    kind: ResourceKind::Cpu,
                    devices: 32,
                    capacity_per_device: 64,
                },
                PoolConfig {
                    kind: ResourceKind::Gpu,
                    devices: 8,
                    capacity_per_device: 8,
                },
                PoolConfig {
                    kind: ResourceKind::Fpga,
                    devices: 4,
                    capacity_per_device: 4,
                },
                PoolConfig {
                    kind: ResourceKind::Dram,
                    devices: 16,
                    capacity_per_device: 256 * 1024, // 256 GiB sleds.
                },
                PoolConfig {
                    kind: ResourceKind::Nvm,
                    devices: 8,
                    capacity_per_device: 512 * 1024,
                },
                PoolConfig {
                    kind: ResourceKind::Ssd,
                    devices: 16,
                    capacity_per_device: 2 * 1024 * 1024, // 2 TiB shelves.
                },
                PoolConfig {
                    kind: ResourceKind::Hdd,
                    devices: 8,
                    capacity_per_device: 8 * 1024 * 1024,
                },
                PoolConfig {
                    kind: ResourceKind::Soc,
                    devices: 8,
                    capacity_per_device: 16,
                },
            ],
            racks: 8,
            fabric: FabricConfig::default(),
        }
    }
}

/// Devices whose state changed during one [`Datacenter::tick_events`]
/// interval, in event order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TickReport {
    /// Devices that crashed (allocations and isolates on them are lost).
    pub crashed: Vec<DeviceId>,
    /// Devices that came back healthy (capacity returned to the pool).
    pub repaired: Vec<DeviceId>,
    /// Every event applied this interval, in firing order. `crashed`
    /// and `repaired` lose interleaving (a crash → repair → crash
    /// flap collapses to membership in both), so consumers that need
    /// the true trajectory — the lease detector replaying heartbeat
    /// emissions, or final-state bookkeeping — read this.
    pub events: Vec<FailureEvent>,
}

impl TickReport {
    /// True when no failure event fired in the interval.
    pub fn is_empty(&self) -> bool {
        self.crashed.is_empty() && self.repaired.is_empty()
    }
}

/// A simulated disaggregated datacenter.
#[derive(Debug)]
pub struct Datacenter {
    clock: SimClock,
    pools: BTreeMap<ResourceKind, ResourcePool>,
    fabric: Fabric,
    /// Control-plane observability hub (disabled by default).
    obs: udc_telemetry::Telemetry,
    failure_plan: FailurePlan,
    next_device_id: u32,
    racks: usize,
}

impl Datacenter {
    /// Builds a datacenter from a configuration.
    pub fn new(config: DatacenterConfig) -> Self {
        let mut dc = Self {
            clock: SimClock::new(),
            pools: BTreeMap::new(),
            fabric: Fabric::new(config.fabric),
            obs: udc_telemetry::Telemetry::disabled(),
            failure_plan: FailurePlan::none(),
            next_device_id: 0,
            racks: config.racks.max(1),
        };
        for pc in &config.pools {
            for _ in 0..pc.devices {
                dc.add_device(pc.kind, pc.capacity_per_device);
            }
        }
        dc
    }

    /// Adds one device to the matching pool (created on demand) and
    /// registers it with the fabric. Returns its id.
    pub fn add_device(&mut self, kind: ResourceKind, capacity: u64) -> DeviceId {
        let id = DeviceId(self.next_device_id);
        self.next_device_id += 1;
        let rack = (id.0 as usize % self.racks) as u32;
        let device = Device::new(id, kind, capacity, rack);
        self.fabric.place_device(id, rack);
        self.pools
            .entry(kind)
            .or_insert_with(|| ResourcePool::new(kind))
            .add_device(device);
        id
    }

    /// The shared simulation clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The fabric.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Installs the control-plane observability hub. The hub's clock is
    /// pointed at this datacenter's [`SimClock`] so spans and events are
    /// stamped with simulated time, and the fabric starts reporting
    /// transfer counters into the same hub.
    pub fn set_observer(&mut self, obs: udc_telemetry::Telemetry) {
        let clock = self.clock.clone();
        obs.set_clock(move || clock.now());
        self.fabric.set_observer(obs.clone());
        self.obs = obs;
    }

    /// The control-plane observability hub (disabled unless installed).
    pub fn observer(&self) -> &udc_telemetry::Telemetry {
        &self.obs
    }

    /// Reports each pool's used units as `hal.pool.<kind>.used_units`
    /// gauges; the gauges' high-water marks give allocation watermarks.
    /// Called after every vector allocation/release; callers that carve
    /// pools directly via [`Datacenter::pool_mut`] (the scheduler)
    /// should call it themselves once their allocations settle.
    pub fn observe_pool_levels(&self) {
        if !self.obs.is_enabled() {
            return;
        }
        for pool in self.pools.values() {
            self.obs.gauge_set(
                &format!("hal.pool.{}.used_units", pool.kind().name()),
                Labels::none(),
                pool.total_used() as i64,
            );
        }
    }

    /// The pool for a kind, if it exists.
    pub fn pool(&self, kind: ResourceKind) -> Option<&ResourcePool> {
        self.pools.get(&kind)
    }

    /// Mutable pool access.
    pub fn pool_mut(&mut self, kind: ResourceKind) -> Option<&mut ResourcePool> {
        self.pools.get_mut(&kind)
    }

    /// Installs a failure plan.
    pub fn set_failure_plan(&mut self, plan: FailurePlan) {
        self.failure_plan = plan;
    }

    /// Advances virtual time by `delta_us`, applying any failure events
    /// that become due, and reports the devices that crashed and were
    /// repaired. The repair loop needs both: crashes start recovery
    /// (§3.4), repairs returning capacity re-heal `Degraded` deployments.
    pub fn tick_events(&mut self, delta_us: u64) -> TickReport {
        let now = self.clock.advance(delta_us);
        let mut crashed = Vec::new();
        let mut repaired = Vec::new();
        let mut events = Vec::new();
        for ev in self.failure_plan.due(now) {
            events.push(ev);
            for pool in self.pools.values_mut() {
                if let Some(mut d) = pool.device_mut(ev.device) {
                    if ev.crash {
                        let victims = d.fail();
                        self.obs.event(
                            EventKind::Failure,
                            Labels::none(),
                            &[
                                ("device", FieldValue::from(ev.device.0)),
                                ("action", FieldValue::from("crash")),
                                ("evicted_allocations", FieldValue::from(victims.len())),
                            ],
                        );
                        crashed.push(ev.device);
                    } else {
                        d.repair();
                        self.obs.event(
                            EventKind::Failure,
                            Labels::none(),
                            &[
                                ("device", FieldValue::from(ev.device.0)),
                                ("action", FieldValue::from("repair")),
                            ],
                        );
                        repaired.push(ev.device);
                    }
                }
            }
        }
        TickReport {
            crashed,
            repaired,
            events,
        }
    }

    /// Allocates a multi-kind resource vector for `tenant`: each
    /// dimension is carved from the corresponding pool. All-or-nothing —
    /// on failure every partial slice is released.
    pub fn allocate_vector(
        &mut self,
        tenant: &str,
        demand: &ResourceVector,
        constraints: &AllocConstraints,
    ) -> Result<Vec<Allocation>, AllocError> {
        let mut held: Vec<Allocation> = Vec::new();
        for (kind, units) in demand.iter() {
            let pool = match self.pools.get_mut(&kind) {
                Some(p) => p,
                None => {
                    for a in &held {
                        self.release(a);
                    }
                    return Err(AllocError::Insufficient {
                        kind,
                        requested: units,
                        available: 0,
                    });
                }
            };
            match pool.allocate(tenant, units, constraints) {
                Ok(a) => held.push(a),
                Err(e) => {
                    for a in &held {
                        self.release(a);
                    }
                    return Err(e);
                }
            }
        }
        if self.obs.is_enabled() {
            self.obs.incr("hal.allocations", Labels::tenant(tenant), 1);
            self.observe_pool_levels();
        }
        Ok(held)
    }

    /// Releases one allocation.
    pub fn release(&mut self, alloc: &Allocation) {
        if let Some(pool) = self.pools.get_mut(&alloc.kind) {
            pool.release(alloc);
        }
        self.observe_pool_levels();
    }

    /// Overall utilization per kind: (kind, used, capacity).
    pub fn utilization_report(&self) -> Vec<(ResourceKind, u64, u64)> {
        self.pools
            .values()
            .map(|p| (p.kind(), p.total_used(), p.total_capacity()))
            .collect()
    }

    /// Aggregate utilization across compute kinds in \[0, 1\] — the
    /// headline metric for experiment E4 (2× consolidation claim).
    pub fn compute_utilization(&self) -> f64 {
        let (mut used, mut cap) = (0u64, 0u64);
        for p in self.pools.values() {
            if p.kind().is_compute() {
                used += p.total_used();
                cap += p.total_capacity();
            }
        }
        if cap == 0 {
            0.0
        } else {
            used as f64 / cap as f64
        }
    }

    /// All device ids, in id order.
    pub fn device_ids(&self) -> Vec<DeviceId> {
        let mut ids: Vec<DeviceId> = self
            .pools
            .values()
            .flat_map(|p| p.devices().map(|d| d.id))
            .collect();
        ids.sort();
        ids
    }

    /// Looks up a device across pools.
    pub fn device(&self, id: DeviceId) -> Option<&Device> {
        self.pools.values().find_map(|p| p.device(id))
    }
}

impl Default for Datacenter {
    fn default() -> Self {
        Self::new(DatacenterConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::FailureEvent;

    fn small_dc() -> Datacenter {
        Datacenter::new(DatacenterConfig {
            pools: vec![
                PoolConfig {
                    kind: ResourceKind::Cpu,
                    devices: 2,
                    capacity_per_device: 8,
                },
                PoolConfig {
                    kind: ResourceKind::Gpu,
                    devices: 1,
                    capacity_per_device: 4,
                },
            ],
            racks: 2,
            fabric: FabricConfig::default(),
        })
    }

    #[test]
    fn builds_pools_and_devices() {
        let dc = small_dc();
        assert_eq!(dc.pool(ResourceKind::Cpu).unwrap().len(), 2);
        assert_eq!(dc.pool(ResourceKind::Gpu).unwrap().len(), 1);
        assert!(dc.pool(ResourceKind::Ssd).is_none());
        assert_eq!(dc.device_ids().len(), 3);
    }

    #[test]
    fn racks_assigned_round_robin() {
        let dc = small_dc();
        assert_eq!(dc.fabric().rack_of(DeviceId(0)), Some(0));
        assert_eq!(dc.fabric().rack_of(DeviceId(1)), Some(1));
        assert_eq!(dc.fabric().rack_of(DeviceId(2)), Some(0));
    }

    #[test]
    fn vector_allocation_all_or_nothing() {
        let mut dc = small_dc();
        let demand = ResourceVector::new()
            .with(ResourceKind::Cpu, 4)
            .with(ResourceKind::Gpu, 2);
        let allocs = dc
            .allocate_vector("t", &demand, &AllocConstraints::default())
            .unwrap();
        assert_eq!(allocs.len(), 2);

        // A demand whose GPU part cannot be met must release the CPU part.
        let too_big = ResourceVector::new()
            .with(ResourceKind::Cpu, 4)
            .with(ResourceKind::Gpu, 100);
        assert!(dc
            .allocate_vector("t", &too_big, &AllocConstraints::default())
            .is_err());
        assert_eq!(
            dc.pool(ResourceKind::Cpu).unwrap().total_used(),
            4,
            "rollback"
        );
    }

    #[test]
    fn missing_pool_is_insufficient() {
        let mut dc = small_dc();
        let demand = ResourceVector::new().with(ResourceKind::Fpga, 1);
        let err = dc
            .allocate_vector("t", &demand, &AllocConstraints::default())
            .unwrap_err();
        assert!(matches!(err, AllocError::Insufficient { available: 0, .. }));
    }

    #[test]
    fn tick_applies_failures() {
        let mut dc = small_dc();
        dc.set_failure_plan(FailurePlan::from_events(vec![
            FailureEvent {
                at_us: 100,
                device: DeviceId(0),
                crash: true,
            },
            FailureEvent {
                at_us: 500,
                device: DeviceId(0),
                crash: false,
            },
        ]));
        let report = dc.tick_events(150);
        assert_eq!(report.crashed, vec![DeviceId(0)]);
        assert!(report.repaired.is_empty());
        assert_eq!(report.events.len(), 1);
        assert_eq!(dc.pool(ResourceKind::Cpu).unwrap().total_capacity(), 8);
        let report = dc.tick_events(1_000);
        assert!(report.crashed.is_empty());
        assert_eq!(report.repaired, vec![DeviceId(0)]);
        assert_eq!(report.events.len(), 1);
        assert_eq!(dc.pool(ResourceKind::Cpu).unwrap().total_capacity(), 16);
        assert!(dc.tick_events(1_000).is_empty());
    }

    #[test]
    fn compute_utilization_counts_compute_only() {
        let mut dc = small_dc();
        let demand = ResourceVector::new().with(ResourceKind::Cpu, 8);
        dc.allocate_vector("t", &demand, &AllocConstraints::default())
            .unwrap();
        // 8 of 16 CPU + 0 of 4 GPU = 8/20.
        assert!((dc.compute_utilization() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn observer_sees_allocations_traffic_and_sim_time() {
        let mut dc = small_dc();
        let obs = udc_telemetry::Telemetry::enabled();
        dc.set_observer(obs.clone());
        dc.clock().advance(42);

        let demand = ResourceVector::new().with(ResourceKind::Cpu, 4);
        let allocs = dc
            .allocate_vector("acme", &demand, &AllocConstraints::default())
            .unwrap();
        assert_eq!(obs.counter("hal.allocations", &Labels::tenant("acme")), 1);
        assert_eq!(
            obs.gauge("hal.pool.cpu.used_units", &Labels::none()),
            Some((4, 4))
        );
        dc.release(&allocs[0]);
        // Current level falls, the high-water mark stays.
        assert_eq!(
            obs.gauge("hal.pool.cpu.used_units", &Labels::none()),
            Some((0, 4))
        );

        // Devices 0 and 2 share rack 0 (round-robin over 2 racks).
        dc.fabric().transfer_us(DeviceId(0), DeviceId(2), 100);
        assert_eq!(obs.counter("hal.fabric.transfers", &Labels::none()), 1);
        assert_eq!(
            obs.counter("hal.fabric.intra_rack_bytes", &Labels::none()),
            100
        );

        // Spans opened on the hub are stamped with simulated time.
        obs.span("hal.test").exit();
        assert_eq!(obs.snapshot().spans[0].start_us, 42);
    }

    #[test]
    fn default_datacenter_is_heterogeneous() {
        let dc = Datacenter::default();
        for kind in ResourceKind::ALL {
            assert!(dc.pool(kind).is_some(), "pool for {kind} missing");
        }
    }
}
