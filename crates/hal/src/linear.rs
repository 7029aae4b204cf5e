//! The seed linear-scan allocator, retained verbatim as a reference
//! implementation.
//!
//! [`LinearPool`] is the pre-index `ResourcePool` algorithm: every
//! `allocate` collects and sorts all devices, every `available_for` and
//! `total_*` walks the whole map. It exists so the indexed fast path in
//! [`crate::pool::ResourcePool`] can be *proven* observably identical —
//! the equivalence property tests in `tests/prop_equiv.rs` drive both
//! over random traces — and so `bench_control_plane` can measure the
//! speedup against the real before-code rather than a strawman.
//!
//! Not part of the supported API surface; use [`crate::pool`].

use crate::device::{Device, DeviceId, DeviceState};
use crate::pool::{AllocConstraints, AllocError, Allocation, Slice};
use std::collections::BTreeMap;
use udc_spec::ResourceKind;

/// The seed `ResourcePool`: same observable behavior, linear scans.
#[derive(Debug, Clone)]
pub struct LinearPool {
    kind: ResourceKind,
    devices: BTreeMap<DeviceId, Device>,
}

impl LinearPool {
    /// Creates an empty pool for `kind`.
    pub fn new(kind: ResourceKind) -> Self {
        Self {
            kind,
            devices: BTreeMap::new(),
        }
    }

    /// Adds a device (panics on kind mismatch or duplicate id, like the
    /// indexed pool).
    pub fn add_device(&mut self, device: Device) {
        assert_eq!(device.kind, self.kind, "device kind must match pool kind");
        let prev = self.devices.insert(device.id, device);
        assert!(prev.is_none(), "duplicate device id in pool");
    }

    /// Total capacity of healthy devices.
    pub fn total_capacity(&self) -> u64 {
        self.devices
            .values()
            .filter(|d| d.state == DeviceState::Healthy)
            .map(|d| d.capacity)
            .sum()
    }

    /// Units currently allocated across healthy devices.
    pub fn total_used(&self) -> u64 {
        self.devices
            .values()
            .filter(|d| d.state == DeviceState::Healthy)
            .map(|d| d.used())
            .sum()
    }

    /// Utilization in \[0, 1\] (0 for an empty pool).
    pub fn utilization(&self) -> f64 {
        let cap = self.total_capacity();
        if cap == 0 {
            0.0
        } else {
            self.total_used() as f64 / cap as f64
        }
    }

    /// Units free for `tenant` under `constraints`.
    pub fn available_for(&self, tenant: &str, constraints: &AllocConstraints) -> u64 {
        if constraints.exclusive || constraints.single_device {
            self.devices
                .values()
                .filter(|d| !constraints.exclusive || d.vacant_except(tenant))
                .map(|d| d.free_for(tenant))
                .max()
                .unwrap_or(0)
        } else {
            self.devices.values().map(|d| d.free_for(tenant)).sum()
        }
    }

    /// Allocates exactly `units` for `tenant` — the seed scan-and-sort.
    pub fn allocate(
        &mut self,
        tenant: &str,
        units: u64,
        constraints: &AllocConstraints,
    ) -> Result<Allocation, AllocError> {
        if units == 0 {
            return Err(AllocError::ZeroRequest);
        }
        if constraints.exclusive
            || constraints.single_device
            || constraints.require_device.is_some()
        {
            return self.allocate_single_device(tenant, units, constraints);
        }

        // Plan first (immutable), commit after: never leave a partial
        // allocation behind.
        let mut remaining = units;
        let mut plan: Vec<(DeviceId, u64)> = Vec::new();
        let mut candidates: Vec<&Device> = self
            .devices
            .values()
            .filter(|d| d.free_for(tenant) > 0 && !constraints.avoid.contains(&d.id))
            .collect();
        // Preferred rack first, then largest free first (fewest slices).
        candidates.sort_by_key(|d| {
            let rack_penalty = match constraints.prefer_rack {
                Some(r) if d.rack == r => 0u8,
                Some(_) => 1,
                None => 0,
            };
            (rack_penalty, std::cmp::Reverse(d.free_for(tenant)), d.id)
        });
        for d in candidates {
            if remaining == 0 {
                break;
            }
            let take = remaining.min(d.free_for(tenant));
            if take > 0 {
                plan.push((d.id, take));
                remaining -= take;
            }
        }
        if remaining > 0 {
            return Err(AllocError::Insufficient {
                kind: self.kind,
                requested: units,
                available: units - remaining,
            });
        }
        let mut slices = Vec::with_capacity(plan.len());
        for (id, take) in plan {
            let d = self.devices.get_mut(&id).expect("planned device exists");
            let ok = d.allocate(tenant, take, false);
            debug_assert!(ok, "planned allocation must succeed");
            slices.push(Slice::carve(d, take, false));
        }
        Ok(Allocation {
            kind: self.kind,
            tenant: tenant.to_string(),
            slices,
        })
    }

    fn allocate_single_device(
        &mut self,
        tenant: &str,
        units: u64,
        constraints: &AllocConstraints,
    ) -> Result<Allocation, AllocError> {
        // Best-fit: the smallest device slot that satisfies the request,
        // preferring the requested rack.
        let mut best: Option<(u8, u64, DeviceId)> = None;
        for d in self.devices.values() {
            if let Some(req) = constraints.require_device {
                if d.id != req {
                    continue;
                }
            }
            if constraints.avoid.contains(&d.id) {
                continue;
            }
            if constraints.exclusive && !d.vacant_except(tenant) {
                continue;
            }
            let free = d.free_for(tenant);
            if free < units {
                continue;
            }
            let rack_penalty = match constraints.prefer_rack {
                Some(r) if d.rack == r => 0u8,
                Some(_) => 1,
                None => 0,
            };
            let key = (rack_penalty, free, d.id);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        let Some((_, _, id)) = best else {
            return Err(if constraints.exclusive {
                AllocError::NoExclusiveDevice {
                    kind: self.kind,
                    requested: units,
                }
            } else {
                AllocError::Insufficient {
                    kind: self.kind,
                    requested: units,
                    available: self.available_for(tenant, constraints),
                }
            });
        };
        let d = self.devices.get_mut(&id).expect("chosen device exists");
        let ok = d.allocate(tenant, units, constraints.exclusive);
        debug_assert!(ok, "chosen device must accept the allocation");
        Ok(Allocation {
            kind: self.kind,
            tenant: tenant.to_string(),
            slices: vec![Slice::carve(d, units, constraints.exclusive)],
        })
    }

    /// Releases an allocation (unknown devices are ignored, and so is a
    /// slice its device lost in a failure).
    pub fn release(&mut self, alloc: &Allocation) {
        for s in &alloc.slices {
            if let Some(d) = self.devices.get_mut(&s.device) {
                s.release_from(d, &alloc.tenant);
            }
        }
    }

    /// Mutable access to a device (failure injection in traces).
    pub fn device_mut(&mut self, id: DeviceId) -> Option<&mut Device> {
        self.devices.get_mut(&id)
    }

    /// Iterates devices in id order.
    pub fn devices(&self) -> impl Iterator<Item = &Device> {
        self.devices.values()
    }
}
