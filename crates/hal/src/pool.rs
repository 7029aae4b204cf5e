//! Resource pools: the unit of disaggregated allocation (§3.2).
//!
//! "Fulfilling users' resource demands would then simply be allocating
//! the exact amount from the corresponding resource pools." A pool holds
//! every device of one [`ResourceKind`]; allocation carves *exact*
//! amounts out of one or more devices — no instance shapes, no rounding
//! up, which is precisely where UDC's waste savings (experiment E3) come
//! from.
//!
//! # Allocation fast path
//!
//! The pool maintains an incremental free-capacity index (see
//! [`PoolIndex`]) so the hot operations are sub-linear in device count:
//!
//! | operation            | naive (seed)     | indexed            |
//! |----------------------|------------------|--------------------|
//! | `allocate` (1 slice) | O(n)             | O(log n + A + X)   |
//! | `allocate` (k spill) | O(n log n)       | O(k log n + A + X) |
//! | `release`            | O(k)             | O(k log n)         |
//! | `best_fit`           | O(n)             | O(log n + A + X)   |
//! | `available_for`      | O(n)             | O(log n + X)       |
//! | `total_capacity`     | O(n)             | O(1)               |
//! | `total_used`         | O(n)             | O(1)               |
//!
//! where `A` = `constraints.avoid.len()` and `X` = devices the tenant
//! already occupies (both small in practice). The observable behavior is
//! bit-identical to the seed's linear scan — property tests in
//! `tests/prop_equiv.rs` drive this implementation and
//! [`crate::linear::LinearPool`] (the retained seed algorithm) side by
//! side over random traces and demand identical results.
//!
//! [`ResourcePool::best_fit`] is the read-only half of a one-device
//! `allocate`: the scheduler asks it where a task goes instead of
//! ranking every device itself, so placement and allocation share one
//! probe.

use crate::device::{Device, DeviceId, DeviceState};
use serde::{de, ser, Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::{Deref, DerefMut};
use udc_spec::ResourceKind;

/// A slice of one device held by an allocation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Slice {
    /// Device the slice lives on.
    pub device: DeviceId,
    /// Units held.
    pub units: u64,
    /// Whether the device is held single-tenant.
    pub exclusive: bool,
    /// The device's [`Device::failures`] when the slice was carved.
    #[serde(default)]
    device_failures: u64,
}

impl Slice {
    /// `units` carved from `d` as it is now.
    pub(crate) fn carve(d: &Device, units: u64, exclusive: bool) -> Self {
        Self {
            device: d.id,
            units,
            exclusive,
            device_failures: d.failures(),
        }
    }

    /// True when the slice was carved before `d`'s latest failure and so
    /// died with it: the failure dropped its units, and what the tenant
    /// holds on `d` now belongs to later allocations.
    pub fn lost_on(&self, d: &Device) -> bool {
        d.failures() != self.device_failures
    }

    /// Gives the slice's units on `d` back to `tenant`'s holding; a no-op
    /// for a slice [lost](Slice::lost_on) to a failure.
    pub(crate) fn release_from(&self, d: &mut Device, tenant: &str) {
        if !self.lost_on(d) {
            d.release(tenant, self.units);
        }
    }
}

/// A successful allocation: one or more slices totalling the requested
/// amount, all of one resource kind.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Allocation {
    /// Resource kind.
    pub kind: ResourceKind,
    /// Owning tenant tag.
    pub tenant: String,
    /// The slices (non-empty).
    pub slices: Vec<Slice>,
}

impl Allocation {
    /// Total units across slices.
    pub fn total_units(&self) -> u64 {
        self.slices.iter().map(|s| s.units).sum()
    }

    /// Devices touched by this allocation.
    pub fn devices(&self) -> impl Iterator<Item = DeviceId> + '_ {
        self.slices.iter().map(|s| s.device)
    }
}

/// Allocation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// The pool cannot currently satisfy the request.
    Insufficient {
        /// Kind requested.
        kind: ResourceKind,
        /// Units requested.
        requested: u64,
        /// Units currently free (under the given constraints).
        available: u64,
    },
    /// A zero-unit request.
    ZeroRequest,
    /// Single-tenant placement requested but no vacant device is large
    /// enough to host the request exclusively.
    NoExclusiveDevice {
        /// Kind requested.
        kind: ResourceKind,
        /// Units requested.
        requested: u64,
    },
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::Insufficient {
                kind,
                requested,
                available,
            } => write!(
                f,
                "insufficient {kind}: requested {requested}, available {available}"
            ),
            AllocError::ZeroRequest => f.write_str("zero-unit allocation request"),
            AllocError::NoExclusiveDevice { kind, requested } => write!(
                f,
                "no vacant {kind} device can host {requested} units single-tenant"
            ),
        }
    }
}

impl std::error::Error for AllocError {}

/// Placement constraints for a pool allocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AllocConstraints {
    /// Reserve the hosting device(s) single-tenant (§3.3). Exclusive
    /// allocations never span devices: the whole request must fit in one
    /// vacant device (physical isolation is per-device).
    pub exclusive: bool,
    /// Prefer devices in this rack (locality hint from the scheduler);
    /// soft constraint.
    pub prefer_rack: Option<u32>,
    /// Require the allocation to stay within a single device (needed by
    /// modules that cannot shard).
    pub single_device: bool,
    /// Hard-pin the allocation to one device (set by placement policies
    /// that already ranked candidates).
    pub require_device: Option<DeviceId>,
    /// Devices that must not be used (replica anti-affinity, §3.4:
    /// replicas are only useful on independent hardware).
    pub avoid: Vec<DeviceId>,
}

/// Snapshot of the index-relevant facts about one device, kept so stale
/// index entries can be removed in O(log n) when the device changes.
#[derive(Debug, Clone, PartialEq, Eq)]
struct DevMeta {
    healthy: bool,
    capacity: u64,
    used: u64,
    rack: u32,
    /// Exclusive holder, if any.
    holder: Option<String>,
    /// The single tenant occupying the device non-exclusively, when the
    /// device has allocations from exactly one tenant and no holder.
    sole: Option<String>,
}

impl DevMeta {
    fn of(d: &Device) -> Self {
        let mut tenants = d.tenants();
        let first = tenants.next().map(|(t, _)| t.to_string());
        let second = tenants.next();
        let holder = if d.is_exclusive() {
            first.clone()
        } else {
            None
        };
        let sole = if holder.is_none() && second.is_none() {
            first
        } else {
            None
        };
        DevMeta {
            healthy: d.state == DeviceState::Healthy,
            capacity: d.capacity,
            used: d.used(),
            rack: d.rack,
            holder,
            sole,
        }
    }

    fn free(&self) -> u64 {
        self.capacity - self.used
    }

    fn vacant(&self) -> bool {
        self.used == 0 && self.holder.is_none() && self.sole.is_none()
    }
}

/// The incremental free-capacity index. Devices appear in partitions by
/// their sharing state:
///
/// - *general*: healthy, no exclusive holder — free for every tenant;
///   keyed ascending by `(free, id)` (globally and per rack). Best-fit
///   probes read it forwards; worst-fit spills walk it one free level
///   at a time from the top (see [`desc_by_free`]).
/// - *vacant*: healthy with no allocations at all — the only devices a
///   tenant with no footprint can take exclusively.
/// - *sole\[t\]* / *excl\[t\]*: devices occupied by exactly tenant `t`
///   (without / with the exclusive flag) — the tenant-private candidate
///   sets for exclusive and spill allocation.
///
/// Failed devices appear in no partition.
#[derive(Debug, Clone, Default)]
struct PoolIndex {
    general_asc: BTreeSet<(u64, DeviceId)>,
    rack_asc: BTreeMap<u32, BTreeSet<(u64, DeviceId)>>,
    vacant_asc: BTreeSet<(u64, DeviceId)>,
    rack_vacant_asc: BTreeMap<u32, BTreeSet<(u64, DeviceId)>>,
    sole: BTreeMap<String, BTreeSet<DeviceId>>,
    excl: BTreeMap<String, BTreeSet<DeviceId>>,
    /// Sum of free units across the general partition.
    general_free: u64,
    /// Capacity / used sums over healthy devices (`total_capacity`,
    /// `total_used` in O(1)).
    healthy_capacity: u64,
    healthy_used: u64,
    meta: BTreeMap<DeviceId, DevMeta>,
}

impl PoolIndex {
    fn insert(&mut self, id: DeviceId, m: &DevMeta) {
        if !m.healthy {
            return;
        }
        self.healthy_capacity += m.capacity;
        self.healthy_used += m.used;
        match &m.holder {
            Some(holder) => {
                self.excl.entry(holder.clone()).or_default().insert(id);
            }
            None => {
                let free = m.free();
                self.general_asc.insert((free, id));
                self.rack_asc.entry(m.rack).or_default().insert((free, id));
                self.general_free += free;
                if m.vacant() {
                    self.vacant_asc.insert((m.capacity, id));
                    self.rack_vacant_asc
                        .entry(m.rack)
                        .or_default()
                        .insert((m.capacity, id));
                } else if let Some(t) = &m.sole {
                    self.sole.entry(t.clone()).or_default().insert(id);
                }
            }
        }
    }

    fn remove(&mut self, id: DeviceId, m: &DevMeta) {
        if !m.healthy {
            return;
        }
        self.healthy_capacity -= m.capacity;
        self.healthy_used -= m.used;
        match &m.holder {
            Some(holder) => {
                if let Some(set) = self.excl.get_mut(holder) {
                    set.remove(&id);
                    if set.is_empty() {
                        self.excl.remove(holder);
                    }
                }
            }
            None => {
                let free = m.free();
                self.general_asc.remove(&(free, id));
                if let Some(set) = self.rack_asc.get_mut(&m.rack) {
                    set.remove(&(free, id));
                }
                self.general_free -= free;
                if m.vacant() {
                    self.vacant_asc.remove(&(m.capacity, id));
                    if let Some(set) = self.rack_vacant_asc.get_mut(&m.rack) {
                        set.remove(&(m.capacity, id));
                    }
                } else if let Some(t) = &m.sole {
                    if let Some(set) = self.sole.get_mut(t) {
                        set.remove(&id);
                        if set.is_empty() {
                            self.sole.remove(t);
                        }
                    }
                }
            }
        }
    }
}

/// An ascending `(free, id)` set in worst-fit order — free descending,
/// id ascending — walked one free level at a time from the top.
fn desc_by_free(set: &BTreeSet<(u64, DeviceId)>) -> impl Iterator<Item = (u64, DeviceId)> + '_ {
    let level_below = |free: u64| set.range(..(free, DeviceId(0))).next_back();
    std::iter::successors(set.last(), move |&&(free, _)| level_below(free))
        .flat_map(|&(free, _)| set.range((free, DeviceId(0))..=(free, DeviceId(u32::MAX))))
        .copied()
}

/// A pool of devices of one resource kind.
#[derive(Debug, Clone)]
pub struct ResourcePool {
    kind: ResourceKind,
    devices: BTreeMap<DeviceId, Device>,
    index: PoolIndex,
}

impl ResourcePool {
    /// Creates an empty pool for `kind`.
    pub fn new(kind: ResourceKind) -> Self {
        Self {
            kind,
            devices: BTreeMap::new(),
            index: PoolIndex::default(),
        }
    }

    fn from_parts(kind: ResourceKind, devices: BTreeMap<DeviceId, Device>) -> Self {
        let mut pool = Self::new(kind);
        for (id, d) in devices {
            assert_eq!(d.kind, kind, "device kind must match pool kind");
            let m = DevMeta::of(&d);
            pool.index.insert(id, &m);
            pool.index.meta.insert(id, m);
            pool.devices.insert(id, d);
        }
        pool
    }

    /// The pool's resource kind.
    pub fn kind(&self) -> ResourceKind {
        self.kind
    }

    /// Re-derives the index entries for one device after it changed.
    fn reindex_device(&mut self, id: DeviceId) {
        let new = self.devices.get(&id).map(DevMeta::of);
        let old = match &new {
            Some(m) => self.index.meta.insert(id, m.clone()),
            None => self.index.meta.remove(&id),
        };
        if old == new {
            return;
        }
        if let Some(m) = &old {
            self.index.remove(id, m);
        }
        if let Some(m) = &new {
            self.index.insert(id, m);
        }
    }

    /// Adds a device.
    ///
    /// # Panics
    ///
    /// Panics when the device's kind differs from the pool's, or when the
    /// id is already present — both are construction bugs, not runtime
    /// conditions.
    pub fn add_device(&mut self, device: Device) {
        assert_eq!(device.kind, self.kind, "device kind must match pool kind");
        let id = device.id;
        let prev = self.devices.insert(id, device);
        assert!(prev.is_none(), "duplicate device id in pool");
        self.reindex_device(id);
    }

    /// Number of devices (any state).
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// True when the pool has no devices.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Total capacity of healthy devices.
    pub fn total_capacity(&self) -> u64 {
        self.index.healthy_capacity
    }

    /// Units currently allocated across healthy devices.
    pub fn total_used(&self) -> u64 {
        self.index.healthy_used
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

    /// Free units on the tenant's private devices (exclusively held, or
    /// solely occupied when `include_sole`), optionally capped to a rack
    /// predicate. These sets are bounded by the tenant's own footprint,
    /// not by pool size.
    fn tenant_devices<'a>(
        &'a self,
        tenant: &str,
        include_sole: bool,
    ) -> impl Iterator<Item = &'a Device> + 'a {
        let excl = self.index.excl.get(tenant).into_iter().flatten();
        let sole = if include_sole {
            Some(self.index.sole.get(tenant).into_iter().flatten())
        } else {
            None
        };
        excl.chain(sole.into_iter().flatten())
            .map(|id| &self.devices[id])
    }

    /// Units free for `tenant` under `constraints`.
    pub fn available_for(&self, tenant: &str, constraints: &AllocConstraints) -> u64 {
        if constraints.exclusive {
            // Largest free slot among devices the tenant could take
            // exclusively: vacant devices plus its own footprint.
            let vacant_max = self
                .index
                .vacant_asc
                .iter()
                .next_back()
                .map(|&(cap, _)| cap)
                .unwrap_or(0);
            let own_max = self
                .tenant_devices(tenant, true)
                .map(|d| d.free_for(tenant))
                .max()
                .unwrap_or(0);
            vacant_max.max(own_max)
        } else if constraints.single_device {
            let general_max = self
                .index
                .general_asc
                .iter()
                .next_back()
                .map(|&(free, _)| free)
                .unwrap_or(0);
            let excl_max = self
                .tenant_devices(tenant, false)
                .map(|d| d.free_for(tenant))
                .max()
                .unwrap_or(0);
            general_max.max(excl_max)
        } else {
            self.index.general_free
                + self
                    .tenant_devices(tenant, false)
                    .map(|d| d.free_for(tenant))
                    .sum::<u64>()
        }
    }

    /// Allocates exactly `units` for `tenant`.
    ///
    /// Strategy: best-fit within the preferred rack first, then best-fit
    /// anywhere; spills across devices unless `single_device` or
    /// `exclusive` is set. Best-fit (smallest sufficient free block)
    /// keeps large holes available for large future requests.
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

        // Worst-fit spill across devices. Feasibility is decided up
        // front from the running free totals, so the greedy plan below
        // only ever runs to completion.
        let avoided_free: u64 = constraints
            .avoid
            .iter()
            .enumerate()
            // Tolerate duplicate avoid entries: count each device once.
            .filter(|(i, id)| !constraints.avoid[..*i].contains(id))
            .filter_map(|(_, id)| self.index.meta.get(id))
            .filter(|m| m.healthy && m.holder.is_none())
            .map(|m| m.free())
            .sum();
        let own_free: u64 = self
            .tenant_devices(tenant, false)
            .filter(|d| !constraints.avoid.contains(&d.id))
            .map(|d| d.free_for(tenant))
            .sum();
        let available = self.index.general_free - avoided_free + own_free;
        if available < units {
            return Err(AllocError::Insufficient {
                kind: self.kind,
                requested: units,
                available,
            });
        }

        let plan = self.plan_spill(tenant, units, constraints);
        debug_assert_eq!(plan.iter().map(|&(_, u)| u).sum::<u64>(), units);
        let mut slices = Vec::with_capacity(plan.len());
        for (id, take) in plan {
            let d = self.devices.get_mut(&id).expect("planned device exists");
            let ok = d.allocate(tenant, take, false);
            debug_assert!(ok, "planned allocation must succeed");
            slices.push(Slice::carve(d, take, false));
            self.reindex_device(id);
        }
        Ok(Allocation {
            kind: self.kind,
            tenant: tenant.to_string(),
            slices,
        })
    }

    /// Plans a guaranteed-feasible multi-device allocation in the seed's
    /// candidate order: `(rack_penalty, free desc, id asc)` over general
    /// devices merged with the tenant's exclusively-held devices.
    fn plan_spill(
        &self,
        tenant: &str,
        units: u64,
        constraints: &AllocConstraints,
    ) -> Vec<(DeviceId, u64)> {
        let avoid = &constraints.avoid;
        // The tenant's own exclusive devices, split by rack preference,
        // descending by (free, id) to merge with the general streams.
        let mut own_near: Vec<(u64, DeviceId)> = Vec::new();
        let mut own_far: Vec<(u64, DeviceId)> = Vec::new();
        for d in self.tenant_devices(tenant, false) {
            if avoid.contains(&d.id) {
                continue;
            }
            let free = d.free_for(tenant);
            if free == 0 {
                continue;
            }
            match constraints.prefer_rack {
                Some(r) if d.rack != r => own_far.push((free, d.id)),
                _ => own_near.push((free, d.id)),
            }
        }
        own_near.sort_by_key(|&(free, id)| (Reverse(free), id));
        own_far.sort_by_key(|&(free, id)| (Reverse(free), id));

        let mut remaining = units;
        let mut plan: Vec<(DeviceId, u64)> = Vec::new();
        let consume = |general: &mut dyn Iterator<Item = (u64, DeviceId)>,
                       own: &[(u64, DeviceId)],
                       remaining: &mut u64,
                       plan: &mut Vec<(DeviceId, u64)>| {
            let mut general = general.peekable();
            let mut own = own.iter().copied().peekable();
            while *remaining > 0 {
                // Pick whichever stream heads the merged worst-fit
                // order: larger free first, then smaller id.
                let from_general = match (general.peek(), own.peek()) {
                    (None, None) => break,
                    (Some(_), None) => true,
                    (None, Some(_)) => false,
                    (Some(&(gf, gid)), Some(&(of, oid))) => (Reverse(gf), gid) < (Reverse(of), oid),
                };
                let (free, id) = if from_general {
                    general.next().unwrap()
                } else {
                    own.next().unwrap()
                };
                if free == 0 {
                    break;
                }
                if from_general && avoid.contains(&id) {
                    continue;
                }
                let take = (*remaining).min(free);
                plan.push((id, take));
                *remaining -= take;
            }
        };

        match constraints.prefer_rack {
            None => {
                let mut general = desc_by_free(&self.index.general_asc);
                consume(&mut general, &own_near, &mut remaining, &mut plan);
            }
            Some(r) => {
                let mut near = self
                    .index
                    .rack_asc
                    .get(&r)
                    .into_iter()
                    .flat_map(desc_by_free);
                consume(&mut near, &own_near, &mut remaining, &mut plan);
                if remaining > 0 {
                    // Everything in rack `r` is exhausted, so the rack-r
                    // entries still present in the global stream carry
                    // zero takeable units; skip them by rack.
                    let mut far = desc_by_free(&self.index.general_asc)
                        .filter(|&(_, id)| self.index.meta[&id].rack != r);
                    consume(&mut far, &own_far, &mut remaining, &mut plan);
                }
            }
        }
        plan
    }

    /// First entry at or above `units` in an ascending `(free, id)` set,
    /// skipping avoided devices: the best-fit (smallest sufficient,
    /// lowest id) candidate of that partition.
    fn probe(
        set: &BTreeSet<(u64, DeviceId)>,
        units: u64,
        avoid: &[DeviceId],
    ) -> Option<(u64, DeviceId)> {
        set.range((units, DeviceId(0))..)
            .find(|(_, id)| !avoid.contains(id))
            .copied()
    }

    /// The device a single-device allocation of `units` for `tenant`
    /// under `constraints` would take right now, or `None` when no
    /// device qualifies: best-fit (smallest sufficient free block),
    /// preferring the requested rack, lowest id on ties — the seed's
    /// `(rack_penalty, free, id)` key. Read-only, O(log n + A + X);
    /// [`ResourcePool::allocate`] takes exactly this device whenever
    /// the constraints confine it to one (`exclusive`, `single_device`
    /// or `require_device`), so a caller that asks first sees the
    /// allocator's own decision, not a re-derivation of it.
    ///
    /// Candidates come from the index partition matching the constraint
    /// (vacant devices for exclusive, the general partition otherwise)
    /// plus the tenant's own footprint.
    pub fn best_fit(
        &self,
        tenant: &str,
        units: u64,
        constraints: &AllocConstraints,
    ) -> Option<DeviceId> {
        let mut best: Option<(u8, u64, DeviceId)> = None;
        let mut consider = |key: (u8, u64, DeviceId)| {
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        };
        let penalty_of = |rack: u32| match constraints.prefer_rack {
            Some(r) if rack == r => 0u8,
            Some(_) => 1,
            None => 0,
        };

        if let Some(req) = constraints.require_device {
            // Hard pin: only the named device can match; check it
            // directly under the same filters as the open scan.
            if let Some(d) = self.devices.get(&req) {
                if !constraints.avoid.contains(&d.id)
                    && (!constraints.exclusive || d.vacant_except(tenant))
                    && d.free_for(tenant) >= units
                {
                    consider((penalty_of(d.rack), d.free_for(tenant), d.id));
                }
            }
        } else {
            let shared = if constraints.exclusive {
                (&self.index.vacant_asc, &self.index.rack_vacant_asc)
            } else {
                (&self.index.general_asc, &self.index.rack_asc)
            };
            if let Some(r) = constraints.prefer_rack {
                if let Some(set) = shared.1.get(&r) {
                    if let Some((free, id)) = Self::probe(set, units, &constraints.avoid) {
                        consider((0, free, id));
                    }
                }
            }
            if let Some((free, id)) = Self::probe(shared.0, units, &constraints.avoid) {
                consider((penalty_of(self.index.meta[&id].rack), free, id));
            }
            for d in self.tenant_devices(tenant, constraints.exclusive) {
                if constraints.avoid.contains(&d.id) {
                    continue;
                }
                let free = d.free_for(tenant);
                if free < units {
                    continue;
                }
                consider((penalty_of(d.rack), free, d.id));
            }
        }
        best.map(|(_, _, id)| id)
    }

    fn allocate_single_device(
        &mut self,
        tenant: &str,
        units: u64,
        constraints: &AllocConstraints,
    ) -> Result<Allocation, AllocError> {
        let Some(id) = self.best_fit(tenant, units, constraints) else {
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
        let slice = Slice::carve(d, units, constraints.exclusive);
        self.reindex_device(id);
        Ok(Allocation {
            kind: self.kind,
            tenant: tenant.to_string(),
            slices: vec![slice],
        })
    }

    /// Releases an allocation. Unknown devices are ignored, and so is a
    /// slice its device lost in a failure, which makes release safe
    /// after failures.
    pub fn release(&mut self, alloc: &Allocation) {
        for s in &alloc.slices {
            if let Some(d) = self.devices.get_mut(&s.device) {
                s.release_from(d, &alloc.tenant);
                self.reindex_device(s.device);
            }
        }
    }

    /// Access a device by id.
    pub fn device(&self, id: DeviceId) -> Option<&Device> {
        self.devices.get(&id)
    }

    /// Mutable access to a device (failure injection, repair). The
    /// returned guard re-syncs the pool's free-capacity index when
    /// dropped, so callers may mutate the device freely.
    pub fn device_mut(&mut self, id: DeviceId) -> Option<DeviceMut<'_>> {
        if self.devices.contains_key(&id) {
            Some(DeviceMut { pool: self, id })
        } else {
            None
        }
    }

    /// Iterates devices in id order.
    pub fn devices(&self) -> impl Iterator<Item = &Device> {
        self.devices.values()
    }

    /// Count of devices held exclusively (single-tenant waste metric,
    /// experiment E7).
    pub fn exclusive_devices(&self) -> usize {
        self.index.excl.values().map(|s| s.len()).sum()
    }
}

/// Mutable device access that keeps the pool index coherent: any change
/// made through the guard (failure, repair, direct field edits) is
/// folded back into the index when the guard drops.
pub struct DeviceMut<'a> {
    pool: &'a mut ResourcePool,
    id: DeviceId,
}

impl Deref for DeviceMut<'_> {
    type Target = Device;

    fn deref(&self) -> &Device {
        &self.pool.devices[&self.id]
    }
}

impl DerefMut for DeviceMut<'_> {
    fn deref_mut(&mut self) -> &mut Device {
        self.pool
            .devices
            .get_mut(&self.id)
            .expect("guarded device exists")
    }
}

impl Drop for DeviceMut<'_> {
    fn drop(&mut self) {
        self.pool.reindex_device(self.id);
    }
}

impl fmt::Debug for DeviceMut<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

// The index is derived state: serialize only the ground truth and
// rebuild on the way in (also keeps the wire format identical to the
// seed's derived form).
impl ser::Serialize for ResourcePool {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("kind".to_string(), self.kind.to_value()),
            ("devices".to_string(), self.devices.to_value()),
        ])
    }
}

impl de::Deserialize for ResourcePool {
    fn from_value(v: &serde::Value) -> Result<Self, de::Error> {
        let entries = de::as_object(v, "ResourcePool")?;
        let kind: ResourceKind = de::field(entries, "kind")?;
        let devices: BTreeMap<DeviceId, Device> = de::field(entries, "devices")?;
        for d in devices.values() {
            if d.kind != kind {
                return Err(de::Error::msg("device kind must match pool kind"));
            }
        }
        Ok(Self::from_parts(kind, devices))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(device_caps: &[u64]) -> ResourcePool {
        let mut p = ResourcePool::new(ResourceKind::Cpu);
        for (i, &cap) in device_caps.iter().enumerate() {
            p.add_device(Device::new(
                DeviceId(i as u32),
                ResourceKind::Cpu,
                cap,
                (i / 4) as u32,
            ));
        }
        p
    }

    #[test]
    fn exact_fit_single_device() {
        let mut p = pool(&[64, 64]);
        let a = p.allocate("t", 10, &AllocConstraints::default()).unwrap();
        assert_eq!(a.total_units(), 10);
        assert_eq!(a.slices.len(), 1);
        assert_eq!(p.total_used(), 10);
    }

    #[test]
    fn spills_across_devices() {
        let mut p = pool(&[8, 8, 8]);
        let a = p.allocate("t", 20, &AllocConstraints::default()).unwrap();
        assert_eq!(a.total_units(), 20);
        assert_eq!(a.slices.len(), 3);
    }

    #[test]
    fn insufficient_reports_available_and_rolls_back() {
        let mut p = pool(&[8, 8]);
        let err = p
            .allocate("t", 20, &AllocConstraints::default())
            .unwrap_err();
        assert!(matches!(
            err,
            AllocError::Insufficient { available: 16, .. }
        ));
        assert_eq!(p.total_used(), 0, "failed allocation must not leak");
    }

    #[test]
    fn zero_request_rejected() {
        let mut p = pool(&[8]);
        assert_eq!(
            p.allocate("t", 0, &AllocConstraints::default()),
            Err(AllocError::ZeroRequest)
        );
    }

    #[test]
    fn release_returns_capacity() {
        let mut p = pool(&[16]);
        let a = p.allocate("t", 16, &AllocConstraints::default()).unwrap();
        assert_eq!(p.available_for("t", &AllocConstraints::default()), 0);
        p.release(&a);
        assert_eq!(p.available_for("t", &AllocConstraints::default()), 16);
    }

    #[test]
    fn exclusive_takes_whole_device() {
        let mut p = pool(&[16, 16]);
        let a = p
            .allocate(
                "t1",
                4,
                &AllocConstraints {
                    exclusive: true,
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(a.slices[0].exclusive);
        let dev = a.slices[0].device;
        // Another tenant cannot use the exclusive device.
        assert_eq!(p.device(dev).unwrap().free_for("t2"), 0);
        // But the other device remains available.
        assert!(p.allocate("t2", 8, &AllocConstraints::default()).is_ok());
    }

    #[test]
    fn exclusive_fails_when_all_devices_occupied() {
        let mut p = pool(&[16]);
        p.allocate("t1", 1, &AllocConstraints::default()).unwrap();
        let err = p
            .allocate(
                "t2",
                1,
                &AllocConstraints {
                    exclusive: true,
                    ..Default::default()
                },
            )
            .unwrap_err();
        assert!(matches!(err, AllocError::NoExclusiveDevice { .. }));
    }

    #[test]
    fn single_device_constraint() {
        let mut p = pool(&[8, 8]);
        let err = p
            .allocate(
                "t",
                12,
                &AllocConstraints {
                    single_device: true,
                    ..Default::default()
                },
            )
            .unwrap_err();
        assert!(matches!(err, AllocError::Insufficient { .. }));
        assert!(p
            .allocate(
                "t",
                8,
                &AllocConstraints {
                    single_device: true,
                    ..Default::default()
                },
            )
            .is_ok());
    }

    #[test]
    fn rack_preference_honored() {
        let mut p = ResourcePool::new(ResourceKind::Cpu);
        p.add_device(Device::new(DeviceId(0), ResourceKind::Cpu, 64, 0));
        p.add_device(Device::new(DeviceId(1), ResourceKind::Cpu, 64, 1));
        let a = p
            .allocate(
                "t",
                4,
                &AllocConstraints {
                    prefer_rack: Some(1),
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(p.device(a.slices[0].device).unwrap().rack, 1);
    }

    #[test]
    fn utilization_tracks_allocations() {
        let mut p = pool(&[50, 50]);
        assert_eq!(p.utilization(), 0.0);
        let a = p.allocate("t", 25, &AllocConstraints::default()).unwrap();
        assert!((p.utilization() - 0.25).abs() < 1e-9);
        p.release(&a);
        assert_eq!(p.utilization(), 0.0);
    }

    #[test]
    fn failed_devices_excluded() {
        let mut p = pool(&[16, 16]);
        p.device_mut(DeviceId(0)).unwrap().fail();
        assert_eq!(p.total_capacity(), 16);
        let a = p.allocate("t", 16, &AllocConstraints::default()).unwrap();
        assert_eq!(a.slices[0].device, DeviceId(1));
        assert!(p.allocate("t", 1, &AllocConstraints::default()).is_err());
    }

    #[test]
    fn require_device_pins_allocation() {
        let mut p = pool(&[16, 16]);
        let a = p
            .allocate(
                "t",
                4,
                &AllocConstraints {
                    require_device: Some(DeviceId(1)),
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(a.slices[0].device, DeviceId(1));
        // Pinning to a full device fails rather than spilling.
        let err = p.allocate(
            "t",
            16,
            &AllocConstraints {
                require_device: Some(DeviceId(1)),
                ..Default::default()
            },
        );
        assert!(err.is_err());
    }

    #[test]
    fn avoid_devices_respected() {
        let mut p = pool(&[8, 8]);
        let a = p
            .allocate(
                "t",
                8,
                &AllocConstraints {
                    avoid: vec![DeviceId(0)],
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(a.slices[0].device, DeviceId(1));
        // Avoiding everything is unsatisfiable.
        assert!(p
            .allocate(
                "t",
                1,
                &AllocConstraints {
                    avoid: vec![DeviceId(0), DeviceId(1)],
                    ..Default::default()
                },
            )
            .is_err());
    }

    #[test]
    #[should_panic(expected = "device kind")]
    fn wrong_kind_device_panics() {
        let mut p = ResourcePool::new(ResourceKind::Cpu);
        p.add_device(Device::new(DeviceId(0), ResourceKind::Gpu, 8, 0));
    }

    #[test]
    #[should_panic(expected = "duplicate device id")]
    fn duplicate_device_panics() {
        let mut p = pool(&[8]);
        p.add_device(Device::new(DeviceId(0), ResourceKind::Cpu, 8, 0));
    }

    #[test]
    fn repair_reinstates_device() {
        let mut p = pool(&[16, 16]);
        p.device_mut(DeviceId(0)).unwrap().fail();
        assert_eq!(p.total_capacity(), 16);
        p.device_mut(DeviceId(0)).unwrap().repair();
        assert_eq!(p.total_capacity(), 32);
        let a = p.allocate("t", 32, &AllocConstraints::default()).unwrap();
        assert_eq!(a.total_units(), 32);
    }

    #[test]
    fn worst_fit_walk_is_free_desc_then_id_asc() {
        let set: BTreeSet<(u64, DeviceId)> =
            [(8, 4), (3, 1), (8, 0), (0, 7), (3, 9), (8, 2), (5, 3)]
                .map(|(free, id)| (free, DeviceId(id)))
                .into();
        let mut expected: Vec<_> = set.iter().copied().collect();
        expected.sort_by_key(|&(free, id)| (Reverse(free), id));
        assert_eq!(desc_by_free(&set).collect::<Vec<_>>(), expected);
        assert_eq!(desc_by_free(&BTreeSet::new()).next(), None);
    }

    #[test]
    fn releasing_a_slice_lost_to_a_failure_frees_nothing() {
        let mut p = pool(&[16]);
        let lost = p.allocate("t", 4, &AllocConstraints::default()).unwrap();
        p.device_mut(DeviceId(0)).unwrap().fail();
        p.device_mut(DeviceId(0)).unwrap().repair();
        let held = p.allocate("t", 4, &AllocConstraints::default()).unwrap();
        // Same tenant, same device: only the failure count tells them apart.
        p.release(&lost);
        assert_eq!(
            p.total_used(),
            4,
            "the repaired device's holder keeps its units"
        );
        p.release(&held);
        assert_eq!(p.total_used(), 0);
    }

    #[test]
    fn serde_round_trip_rebuilds_index() {
        let mut p = pool(&[16, 16, 16]);
        let a = p.allocate("t1", 10, &AllocConstraints::default()).unwrap();
        p.allocate(
            "t2",
            4,
            &AllocConstraints {
                exclusive: true,
                ..Default::default()
            },
        )
        .unwrap();
        let js = serde_json::to_string(&p).unwrap();
        let mut q: ResourcePool = serde_json::from_str(&js).unwrap();
        assert_eq!(q.total_used(), p.total_used());
        assert_eq!(q.total_capacity(), p.total_capacity());
        assert_eq!(q.exclusive_devices(), 1);
        assert_eq!(
            q.available_for("t3", &AllocConstraints::default()),
            p.available_for("t3", &AllocConstraints::default())
        );
        // The rebuilt index still allocates and releases coherently.
        q.release(&a);
        assert_eq!(q.total_used(), 4);
    }
}
