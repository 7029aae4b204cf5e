//! Individual disaggregated devices.
//!
//! A device is one network-attached unit of a single resource kind —
//! a CPU blade (N cores), a GPU, a DRAM sled, an SSD shelf, a SmartNIC —
//! as in Fig. 1's hardware layer. Devices track capacity, per-tenant
//! allocations, tenancy occupancy (for single-tenant placement, §3.3)
//! and health.

use crate::clock::Micros;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use udc_spec::ResourceKind;

/// Globally unique device identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(transparent)]
pub struct DeviceId(pub u32);

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev{}", self.0)
    }
}

/// Health state of a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum DeviceState {
    /// Accepting allocations and executing work.
    #[default]
    Healthy,
    /// Crashed: all allocations lost, no new allocations accepted.
    Failed,
}

/// Performance and cost profile of a device class.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PerfProfile {
    /// Abstract work units per second delivered by *one* capacity unit
    /// (e.g. one core, one GPU, one MiB/s of storage bandwidth).
    pub work_units_per_sec: f64,
    /// Price of one capacity unit for one hour, in micro-dollars.
    pub micro_dollars_per_unit_hour: u64,
    /// Time to power on / attach this device class from cold.
    pub attach_latency_us: Micros,
}

impl PerfProfile {
    /// A sensible default profile for a resource kind, loosely calibrated
    /// to 2021 cloud hardware (relative magnitudes matter, not absolutes;
    /// see DESIGN.md §5).
    pub fn default_for(kind: ResourceKind) -> Self {
        match kind {
            // 1 core ≈ 100 work units/s, ~ $0.04/h.
            ResourceKind::Cpu => PerfProfile {
                work_units_per_sec: 100.0,
                micro_dollars_per_unit_hour: 40_000,
                attach_latency_us: 200,
            },
            // 1 GPU ≈ 25× a core on accelerable work, ~ $3/h.
            ResourceKind::Gpu => PerfProfile {
                work_units_per_sec: 2_500.0,
                micro_dollars_per_unit_hour: 3_000_000,
                attach_latency_us: 2_000,
            },
            // 1 FPGA ≈ 10× a core, ~ $1.6/h.
            ResourceKind::Fpga => PerfProfile {
                work_units_per_sec: 1_000.0,
                micro_dollars_per_unit_hour: 1_650_000,
                attach_latency_us: 5_000,
            },
            // Memory/storage: capacity units are MiB; work rate models
            // access bandwidth per MiB (coarse), price per MiB-hour.
            ResourceKind::Dram => PerfProfile {
                work_units_per_sec: 50.0,
                micro_dollars_per_unit_hour: 5,
                attach_latency_us: 50,
            },
            ResourceKind::Nvm => PerfProfile {
                work_units_per_sec: 20.0,
                micro_dollars_per_unit_hour: 2,
                attach_latency_us: 100,
            },
            ResourceKind::Ssd => PerfProfile {
                work_units_per_sec: 5.0,
                micro_dollars_per_unit_hour: 1,
                attach_latency_us: 300,
            },
            ResourceKind::Hdd => PerfProfile {
                work_units_per_sec: 1.0,
                micro_dollars_per_unit_hour: 0,
                attach_latency_us: 4_000,
            },
            // SmartNIC/SoC offload engine ≈ 3× a core for offloadable work.
            ResourceKind::Soc => PerfProfile {
                work_units_per_sec: 300.0,
                micro_dollars_per_unit_hour: 120_000,
                attach_latency_us: 500,
            },
        }
    }
}

/// One disaggregated device.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Device {
    /// Unique id.
    pub id: DeviceId,
    /// Resource kind this device provides.
    pub kind: ResourceKind,
    /// Total capacity in kind-specific units (cores, GPUs, MiB, ...).
    pub capacity: u64,
    /// Rack the device sits in (fabric locality).
    pub rack: u32,
    /// Performance/cost profile.
    pub perf: PerfProfile,
    /// Health.
    pub state: DeviceState,
    /// Live allocations: tenant tag -> units held.
    allocations: BTreeMap<String, u64>,
    /// When `Some(tenant)`, the device is reserved single-tenant.
    exclusive_holder: Option<String>,
    /// Times the device has failed: a slice carved before the latest
    /// failure belongs to a life the device no longer has.
    #[serde(default)]
    failures: u64,
}

impl Device {
    /// Creates a healthy, empty device.
    pub fn new(id: DeviceId, kind: ResourceKind, capacity: u64, rack: u32) -> Self {
        Self {
            id,
            kind,
            capacity,
            rack,
            perf: PerfProfile::default_for(kind),
            state: DeviceState::Healthy,
            allocations: BTreeMap::new(),
            exclusive_holder: None,
            failures: 0,
        }
    }

    /// How many times the device has failed (see [`Device::fail`]).
    pub fn failures(&self) -> u64 {
        self.failures
    }

    /// Units currently allocated.
    pub fn used(&self) -> u64 {
        self.allocations.values().sum()
    }

    /// Units still free (zero when failed or exclusively held by
    /// another tenant).
    pub fn free_for(&self, tenant: &str) -> u64 {
        if self.state == DeviceState::Failed {
            return 0;
        }
        match &self.exclusive_holder {
            Some(holder) if holder != tenant => 0,
            _ => self.capacity - self.used(),
        }
    }

    /// True when no tenant other than `tenant` holds any allocation.
    pub fn vacant_except(&self, tenant: &str) -> bool {
        self.allocations.keys().all(|t| t == tenant)
    }

    /// Allocates `units` to `tenant`. `exclusive` reserves the whole
    /// device single-tenant (§3.3); this requires the device to be empty
    /// of other tenants.
    ///
    /// Returns `false` without side effects when the request cannot be
    /// satisfied.
    pub fn allocate(&mut self, tenant: &str, units: u64, exclusive: bool) -> bool {
        if self.state == DeviceState::Failed || units == 0 {
            return false;
        }
        if let Some(holder) = &self.exclusive_holder {
            if holder != tenant {
                return false;
            }
        }
        if exclusive && !self.vacant_except(tenant) {
            return false;
        }
        if units > self.capacity - self.used() {
            return false;
        }
        *self.allocations.entry(tenant.to_string()).or_insert(0) += units;
        if exclusive {
            self.exclusive_holder = Some(tenant.to_string());
        }
        true
    }

    /// Releases `units` of `tenant`'s allocation (clamped to what is
    /// held). Clears exclusivity when the tenant fully departs.
    pub fn release(&mut self, tenant: &str, units: u64) {
        if let Some(held) = self.allocations.get_mut(tenant) {
            *held = held.saturating_sub(units);
            if *held == 0 {
                self.allocations.remove(tenant);
                if self.exclusive_holder.as_deref() == Some(tenant) {
                    self.exclusive_holder = None;
                }
            }
        }
    }

    /// Marks the device failed, dropping all allocations (they are lost,
    /// as §3.4's failure domains assume).
    pub fn fail(&mut self) -> Vec<String> {
        self.state = DeviceState::Failed;
        self.failures += 1;
        self.exclusive_holder = None;
        let victims: Vec<String> = self.allocations.keys().cloned().collect();
        self.allocations.clear();
        victims
    }

    /// Repairs a failed device (empty, healthy).
    pub fn repair(&mut self) {
        self.state = DeviceState::Healthy;
    }

    /// Is the device exclusively held (single-tenant) right now?
    pub fn is_exclusive(&self) -> bool {
        self.exclusive_holder.is_some()
    }

    /// Tenants currently holding allocations.
    pub fn tenants(&self) -> impl Iterator<Item = (&str, u64)> {
        self.allocations.iter().map(|(t, &u)| (t.as_str(), u))
    }

    /// Cost of holding `units` for `duration_us`, in micro-dollars.
    pub fn cost_of(&self, units: u64, duration_us: Micros) -> u64 {
        // micro$ per unit-hour * units * hours.
        let hours = duration_us as f64 / 3_600_000_000.0;
        (self.perf.micro_dollars_per_unit_hour as f64 * units as f64 * hours).round() as u64
    }

    /// Time for this device to execute `work_units` with `units` of
    /// capacity allocated, in microseconds.
    pub fn exec_time_us(&self, work_units: u64, units: u64) -> Micros {
        if units == 0 {
            return Micros::MAX;
        }
        let rate = self.perf.work_units_per_sec * units as f64;
        if rate <= 0.0 {
            return Micros::MAX;
        }
        ((work_units as f64 / rate) * 1_000_000.0).ceil() as Micros
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> Device {
        Device::new(DeviceId(0), ResourceKind::Cpu, 64, 0)
    }

    #[test]
    fn allocate_and_release() {
        let mut d = dev();
        assert!(d.allocate("t1", 16, false));
        assert!(d.allocate("t2", 32, false));
        assert_eq!(d.used(), 48);
        assert_eq!(d.free_for("t3"), 16);
        d.release("t1", 16);
        assert_eq!(d.used(), 32);
        assert_eq!(d.tenants().count(), 1);
    }

    #[test]
    fn over_allocation_refused() {
        let mut d = dev();
        assert!(d.allocate("t1", 64, false));
        assert!(!d.allocate("t2", 1, false));
        assert_eq!(d.used(), 64);
    }

    #[test]
    fn zero_allocation_refused() {
        let mut d = dev();
        assert!(!d.allocate("t1", 0, false));
    }

    #[test]
    fn exclusive_blocks_other_tenants() {
        let mut d = dev();
        assert!(d.allocate("t1", 8, true));
        assert!(d.is_exclusive());
        assert_eq!(d.free_for("t2"), 0);
        assert!(!d.allocate("t2", 1, false));
        // The exclusive holder itself can grow.
        assert!(d.allocate("t1", 8, false));
        assert_eq!(d.used(), 16);
    }

    #[test]
    fn exclusive_requires_vacancy() {
        let mut d = dev();
        assert!(d.allocate("t1", 8, false));
        assert!(
            !d.allocate("t2", 8, true),
            "occupied device cannot go exclusive"
        );
        assert!(
            d.allocate("t1", 8, true),
            "same tenant can upgrade to exclusive"
        );
    }

    #[test]
    fn exclusivity_cleared_on_full_release() {
        let mut d = dev();
        d.allocate("t1", 8, true);
        d.release("t1", 8);
        assert!(!d.is_exclusive());
        assert!(d.allocate("t2", 4, false));
    }

    #[test]
    fn failure_drops_allocations() {
        let mut d = dev();
        d.allocate("t1", 8, false);
        d.allocate("t2", 8, false);
        let victims = d.fail();
        assert_eq!(victims, vec!["t1".to_string(), "t2".to_string()]);
        assert_eq!(d.used(), 0);
        assert_eq!(d.free_for("t1"), 0, "failed device has no free capacity");
        assert!(!d.allocate("t1", 1, false));
        d.repair();
        assert!(d.allocate("t1", 1, false));
    }

    #[test]
    fn exec_time_scales_with_allocation() {
        let d = dev();
        let t1 = d.exec_time_us(1000, 1);
        let t4 = d.exec_time_us(1000, 4);
        assert_eq!(t1, 10 * crate::clock::SEC); // 1000 wu / 100 wu-s.
        assert_eq!(t4, t1 / 4);
        assert_eq!(d.exec_time_us(1000, 0), Micros::MAX);
    }

    #[test]
    fn gpu_faster_than_cpu() {
        let cpu = Device::new(DeviceId(0), ResourceKind::Cpu, 64, 0);
        let gpu = Device::new(DeviceId(1), ResourceKind::Gpu, 8, 0);
        assert!(gpu.exec_time_us(10_000, 1) < cpu.exec_time_us(10_000, 1));
    }

    #[test]
    fn cost_proportional_to_units_and_time() {
        let d = dev();
        let one_hour = 3_600 * crate::clock::SEC;
        let c1 = d.cost_of(1, one_hour);
        assert_eq!(c1, 40_000); // $0.04 in micro-dollars.
        assert_eq!(d.cost_of(2, one_hour), 2 * c1);
        assert_eq!(d.cost_of(1, 2 * one_hour), 2 * c1);
        assert_eq!(d.cost_of(0, one_hour), 0);
    }

    #[test]
    fn release_clamps() {
        let mut d = dev();
        d.allocate("t1", 8, false);
        d.release("t1", 100);
        assert_eq!(d.used(), 0);
        d.release("ghost", 5); // No-op.
    }
}
