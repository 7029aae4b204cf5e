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
//! `PoolIndex`) so the hot operations are sub-linear in device count:
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
//! | build (n devices)    | O(n log n)       | O(n log n), 1 pass |
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
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::{Bound::Excluded, Deref, DerefMut, RangeBounds, RangeInclusive};
use udc_spec::ResourceKind;

/// A slice of one device held by an allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Slice {
    /// Device the slice lives on.
    pub device: DeviceId,
    /// Units held.
    pub units: u64,
    /// Whether the device is held single-tenant.
    pub exclusive: bool,
    /// The device's [`Device::failures`] when the slice was carved.
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
#[derive(Debug, Clone, PartialEq, Eq)]
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
    // Kept out of line, like `Index::edit`: inlined into `reindex_device`,
    // this and the old `PoolIndex::insert` made `fleet_attached` ~18 %
    // slower. Out of line, `UdcCloud::advance` kept its code size.
    #[inline(never)]
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
///   keyed ascending by `(free, id)` globally and by `(rack, free, id)`
///   in one tree whose rack prefixes are the per-rack partitions.
///   Best-fit probes read it forwards; worst-fit spills walk it one free
///   level at a time from the top (see [`desc_by_free`]).
/// - *vacant*: healthy with no allocations at all — the only devices a
///   tenant with no footprint can take exclusively.
/// - *sole\[t\]* / *excl\[t\]*: devices occupied by exactly tenant `t`
///   (without / with the exclusive flag) — the tenant-private candidate
///   sets for exclusive and spill allocation.
///
/// Failed devices appear in no partition.
#[derive(Debug, Clone, Default)]
struct Index<G, R> {
    general_asc: G,
    rack_asc: R,
    vacant_asc: G,
    rack_vacant_asc: R,
    sole: BTreeMap<String, BTreeSet<DeviceId>>,
    excl: BTreeMap<String, BTreeSet<DeviceId>>,
    /// Sum of free units across the general partition.
    general_free: u64,
    /// Capacity / used sums over healthy devices (`total_capacity`,
    /// `total_used` in O(1)).
    healthy_capacity: u64,
    healthy_used: u64,
}

/// The live index. [`PoolIndex::build`] stages its keys in `Vec`s, which
/// are only ever added to.
type PoolIndex = Index<BTreeSet<(u64, DeviceId)>, BTreeSet<(u32, u64, DeviceId)>>;

/// Where `Index::edit` writes keys: a tree, a staging `Vec`, a tenant's set.
trait Put<K> {
    fn put(&mut self, key: K, add: bool);
}

impl<K: Ord> Put<K> for BTreeSet<K> {
    fn put(&mut self, key: K, add: bool) {
        if add {
            self.insert(key);
        } else {
            self.remove(&key);
        }
    }
}

impl<K> Put<K> for Vec<K> {
    fn put(&mut self, key: K, _: bool) {
        self.push(key);
    }
}

/// Tenant `t`'s set of `id`s; a set that empties is dropped.
impl Put<(&str, DeviceId)> for BTreeMap<String, BTreeSet<DeviceId>> {
    fn put(&mut self, (t, id): (&str, DeviceId), add: bool) {
        if add {
            self.entry(t.to_string()).or_default().insert(id);
        } else if let Some(set) = self.get_mut(t) {
            set.remove(&id);
            if set.is_empty() {
                self.remove(t);
            }
        }
    }
}

impl<G: Put<(u64, DeviceId)>, R: Put<(u32, u64, DeviceId)>> Index<G, R> {
    /// Adds (`add`) or removes a device's entries: the partition rule,
    /// written once for inserts, removals and the bulk build. Out of line
    /// for the reason given at `DevMeta::of`.
    #[inline(never)]
    fn edit(&mut self, id: DeviceId, m: &DevMeta, add: bool) {
        if !m.healthy {
            return;
        }
        let sum = |total: &mut u64, units: u64| {
            if add {
                *total += units;
            } else {
                *total -= units;
            }
        };
        sum(&mut self.healthy_capacity, m.capacity);
        sum(&mut self.healthy_used, m.used);
        if let Some(holder) = &m.holder {
            return self.excl.put((holder, id), add);
        }
        let free = m.free();
        self.general_asc.put((free, id), add);
        self.rack_asc.put((m.rack, free, id), add);
        sum(&mut self.general_free, free);
        if m.vacant() {
            self.vacant_asc.put((m.capacity, id), add);
            self.rack_vacant_asc.put((m.rack, m.capacity, id), add);
        } else if let Some(t) = &m.sole {
            self.sole.put((t, id), add);
        }
    }
}

impl PoolIndex {
    /// The index of `devices` in one pass: `edit` stages each tree's keys
    /// in a `Vec`, and `collect` sorts them and bulk-loads the tree into
    /// full nodes, where one insert per key would leave them half empty.
    fn build(devices: &[(Device, DevMeta)]) -> Self {
        let mut staged = Index::<Vec<_>, Vec<_>>::default();
        for (d, m) in devices {
            staged.edit(d.id, m, true);
        }
        Index {
            general_asc: staged.general_asc.into_iter().collect(),
            rack_asc: staged.rack_asc.into_iter().collect(),
            vacant_asc: staged.vacant_asc.into_iter().collect(),
            rack_vacant_asc: staged.rack_vacant_asc.into_iter().collect(),
            sole: staged.sole,
            excl: staged.excl,
            general_free: staged.general_free,
            healthy_capacity: staged.healthy_capacity,
            healthy_used: staged.healthy_used,
        }
    }
}

/// A key that ends in `(free, id)`: a global `(free, id)` key, or a
/// `(rack, free, id)` key whose rack prefix is one rack's partition.
trait FreeKey: Ord + Copy {
    /// The key with `DeviceId(id)` for its id: its free level's bounds.
    fn with_id(self, id: u32) -> Self;
}

impl FreeKey for (u64, DeviceId) {
    fn with_id(self, id: u32) -> Self {
        (self.0, DeviceId(id))
    }
}

impl FreeKey for (u32, u64, DeviceId) {
    fn with_id(self, id: u32) -> Self {
        (self.0, self.1, DeviceId(id))
    }
}

/// The keys of rack `r`'s partition with at least `free` units.
fn rack_keys(r: u32, free: u64) -> RangeInclusive<(u32, u64, DeviceId)> {
    (r, free, DeviceId(0))..=(r, u64::MAX, DeviceId(u32::MAX))
}

/// The `keys` of an ascending tree (all of a `(free, id)` tree, or one
/// rack's prefix) in worst-fit order — free descending, id ascending —
/// walked one free level at a time from the top.
fn desc_by_free<K: FreeKey>(
    set: &BTreeSet<K>,
    keys: impl RangeBounds<K>,
) -> impl Iterator<Item = K> + '_ {
    let lo = keys.start_bound().cloned();
    let level_below = move |k: K| set.range((lo, Excluded(k.with_id(0)))).next_back();
    std::iter::successors(set.range(keys).next_back(), move |&&k| level_below(k))
        .flat_map(move |&k| set.range(k.with_id(0)..=k.with_id(u32::MAX)))
        .copied()
}

/// A pool of devices of one resource kind.
#[derive(Debug, Clone)]
pub struct ResourcePool {
    kind: ResourceKind,
    /// Every device beside its index snapshot, sorted by id.
    devices: Vec<(Device, DevMeta)>,
    index: PoolIndex,
}

impl ResourcePool {
    /// Creates an empty pool for `kind`.
    pub fn new(kind: ResourceKind) -> Self {
        Self {
            kind,
            devices: Vec::new(),
            index: PoolIndex::default(),
        }
    }

    /// A pool of `devices` built in one pass: sorted by id (O(n) if they
    /// are), each snapshot derived once, each index tree bulk-loaded. It
    /// equals a pool fed them one by one with [`ResourcePool::add_device`]
    /// in any order and state, and panics where that would.
    pub fn with_devices(kind: ResourceKind, mut devices: Vec<Device>) -> Self {
        devices.sort_unstable_by_key(|d| d.id);
        for pair in devices.windows(2) {
            assert_ne!(pair[0].id, pair[1].id, "duplicate device id in pool");
        }
        let devices: Vec<_> = devices
            .into_iter()
            .map(|d| {
                assert_eq!(d.kind, kind, "device kind must match pool kind");
                let m = DevMeta::of(&d);
                (d, m)
            })
            .collect();
        Self {
            kind,
            index: PoolIndex::build(&devices),
            devices,
        }
    }

    /// The pool's resource kind.
    pub fn kind(&self) -> ResourceKind {
        self.kind
    }

    /// Where device `id` sits in `devices`, or where it would go.
    fn find(&self, id: DeviceId) -> Result<usize, usize> {
        self.devices.binary_search_by_key(&id, |(d, _)| d.id)
    }

    /// A device the index names, which is always in the pool.
    fn indexed(&self, id: DeviceId) -> &Device {
        &self.devices[self.find(id).expect("indexed device exists")].0
    }

    /// Re-derives the index entries of `devices[i]` after it changed.
    fn reindex_device(&mut self, i: usize) {
        let (d, meta) = &mut self.devices[i];
        let new = DevMeta::of(d);
        if *meta != new {
            self.index.edit(d.id, meta, false);
            self.index.edit(d.id, &new, true);
            *meta = new;
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
        let Err(i) = self.find(device.id) else {
            panic!("duplicate device id in pool");
        };
        let meta = DevMeta::of(&device);
        self.index.edit(device.id, &meta, true);
        self.devices.insert(i, (device, meta));
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

    /// The tenant's private devices: exclusively held, then solely
    /// occupied when `include_sole`. These sets are bounded by the
    /// tenant's own footprint, not by pool size.
    fn tenant_devices<'a>(
        &'a self,
        tenant: &str,
        include_sole: bool,
    ) -> impl Iterator<Item = &'a Device> + 'a {
        let sole = include_sole.then(|| self.index.sole.get(tenant)).flatten();
        let excl = self.index.excl.get(tenant);
        excl.into_iter()
            .chain(sole)
            .flatten()
            .map(|&id| self.indexed(id))
    }

    /// Units free for `tenant` under `constraints`.
    pub fn available_for(&self, tenant: &str, constraints: &AllocConstraints) -> u64 {
        if constraints.exclusive || constraints.single_device {
            // Largest free slot on one device the tenant could take: a
            // vacant one for exclusive use (else any general one), or one
            // of its own footprint.
            let shared = if constraints.exclusive {
                &self.index.vacant_asc
            } else {
                &self.index.general_asc
            };
            let own_max = self
                .tenant_devices(tenant, constraints.exclusive)
                .map(|d| d.free_for(tenant))
                .max();
            shared
                .last()
                .map_or(0, |&(free, _)| free)
                .max(own_max.unwrap_or(0))
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
            .filter_map(|(_, &id)| Some(&self.devices[self.find(id).ok()?].1))
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
            let i = self.find(id).expect("planned device exists");
            let d = &mut self.devices[i].0;
            let ok = d.allocate(tenant, take, false);
            debug_assert!(ok, "planned allocation must succeed");
            slices.push(Slice::carve(d, take, false));
            self.reindex_device(i);
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
            let free = d.free_for(tenant);
            if free == 0 || avoid.contains(&d.id) {
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
                let mut general = desc_by_free(&self.index.general_asc, ..);
                consume(&mut general, &own_near, &mut remaining, &mut plan);
            }
            Some(r) => {
                let mut near = desc_by_free(&self.index.rack_asc, rack_keys(r, 0))
                    .map(|(_, free, id)| (free, id));
                consume(&mut near, &own_near, &mut remaining, &mut plan);
                if remaining > 0 {
                    // Everything in rack `r` is exhausted, so the rack-r
                    // entries still present in the global stream carry
                    // zero takeable units; skip them by rack.
                    let mut far = desc_by_free(&self.index.general_asc, ..)
                        .filter(|&(_, id)| self.indexed(id).rack != r);
                    consume(&mut far, &own_far, &mut remaining, &mut plan);
                }
            }
        }
        plan
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
            if let Some(d) = self.device(req) {
                if !constraints.avoid.contains(&d.id)
                    && (!constraints.exclusive || d.vacant_except(tenant))
                    && d.free_for(tenant) >= units
                {
                    consider((penalty_of(d.rack), d.free_for(tenant), d.id));
                }
            }
        } else {
            let (all, by_rack) = if constraints.exclusive {
                (&self.index.vacant_asc, &self.index.rack_vacant_asc)
            } else {
                (&self.index.general_asc, &self.index.rack_asc)
            };
            // Each partition's best fit: its first unavoided key ≥ `units`.
            let avoid = &constraints.avoid;
            if let Some(r) = constraints.prefer_rack {
                let mut near = by_rack.range(rack_keys(r, units));
                if let Some(&(_, free, id)) = near.find(|(_, _, id)| !avoid.contains(id)) {
                    consider((0, free, id));
                }
            }
            let mut any = all.range((units, DeviceId(0))..);
            if let Some(&(free, id)) = any.find(|(_, id)| !avoid.contains(id)) {
                consider((penalty_of(self.indexed(id).rack), free, id));
            }
            for d in self.tenant_devices(tenant, constraints.exclusive) {
                let free = d.free_for(tenant);
                if free >= units && !avoid.contains(&d.id) {
                    consider((penalty_of(d.rack), free, d.id));
                }
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
        let i = self.find(id).expect("chosen device exists");
        let d = &mut self.devices[i].0;
        let ok = d.allocate(tenant, units, constraints.exclusive);
        debug_assert!(ok, "chosen device must accept the allocation");
        let slice = Slice::carve(d, units, constraints.exclusive);
        self.reindex_device(i);
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
            if let Ok(i) = self.find(s.device) {
                s.release_from(&mut self.devices[i].0, &alloc.tenant);
                self.reindex_device(i);
            }
        }
    }

    /// Access a device by id.
    pub fn device(&self, id: DeviceId) -> Option<&Device> {
        self.find(id).ok().map(|i| &self.devices[i].0)
    }

    /// Mutable access to a device (failure injection, repair). The
    /// returned guard re-syncs the pool's free-capacity index when
    /// dropped, so callers may mutate the device freely.
    pub fn device_mut(&mut self, id: DeviceId) -> Option<DeviceMut<'_>> {
        let i = self.find(id).ok()?;
        Some(DeviceMut { pool: self, i })
    }

    /// Iterates devices in id order.
    pub fn devices(&self) -> impl Iterator<Item = &Device> {
        self.devices.iter().map(|(d, _)| d)
    }
}

/// Mutable device access that keeps the pool index coherent: any change
/// made through the guard (failure, repair, direct field edits) is
/// folded back into the index when the guard drops.
pub struct DeviceMut<'a> {
    pool: &'a mut ResourcePool,
    /// The device's place in the pool's `devices`.
    i: usize,
}

impl Deref for DeviceMut<'_> {
    type Target = Device;

    fn deref(&self) -> &Device {
        &self.pool.devices[self.i].0
    }
}

impl DerefMut for DeviceMut<'_> {
    fn deref_mut(&mut self) -> &mut Device {
        &mut self.pool.devices[self.i].0
    }
}

impl Drop for DeviceMut<'_> {
    fn drop(&mut self) {
        self.pool.reindex_device(self.i);
    }
}

impl fmt::Debug for DeviceMut<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
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
    fn exclusive_hold_is_withheld_from_other_tenants_availability() {
        let mut p = pool(&[16, 16, 16]);
        let shared = AllocConstraints::default();
        let a = p.allocate("t1", 10, &shared).unwrap();
        p.allocate(
            "t2",
            4,
            &AllocConstraints {
                exclusive: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(p.total_used(), 14);
        assert_eq!(p.total_capacity(), 48);
        // t3 sees t1's leftover and the vacant device, not t2's.
        assert_eq!(p.available_for("t3", &shared), 6 + 16);
        p.release(&a);
        assert_eq!(p.total_used(), 4);
        assert_eq!(p.available_for("t3", &shared), 32);
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
        let keys = [(8, 4), (3, 1), (8, 0), (0, 7), (3, 9), (8, 2), (5, 3)]
            .map(|(free, id)| (free, DeviceId(id)));
        let mut expected = keys.to_vec();
        expected.sort_by_key(|&(free, id)| (Reverse(free), id));
        let set = BTreeSet::from(keys);
        assert_eq!(desc_by_free(&set, ..).collect::<Vec<_>>(), expected);
        assert_eq!(
            desc_by_free(&BTreeSet::<(u64, DeviceId)>::new(), ..).next(),
            None
        );
        // The same keys as rack 1's prefix, between racks with more free
        // units below and fewer above; rack 3 has no keys.
        let racks: BTreeSet<_> = keys
            .iter()
            .flat_map(|&(free, id)| [(0, free + 9, id), (1, free, id), (2, free / 2, id)])
            .collect();
        let walk = |r| {
            let walk = desc_by_free(&racks, rack_keys(r, 0));
            walk.map(|(_, free, id)| (free, id)).collect::<Vec<_>>()
        };
        assert_eq!(walk(1), expected);
        assert_eq!(walk(3), []);
    }

    #[test]
    fn bulk_build_equals_adding_each_device() {
        // Failed, exclusively held, solely occupied, shared and vacant
        // devices, handed over out of id order.
        let mut src = pool(&[16, 8, 16, 32, 8, 16, 4, 12]);
        let excl = AllocConstraints {
            exclusive: true,
            ..Default::default()
        };
        src.allocate("a", 3, &excl).unwrap();
        src.allocate("b", 20, &AllocConstraints::default()).unwrap();
        src.allocate("c", 5, &AllocConstraints::default()).unwrap();
        src.device_mut(DeviceId(5)).unwrap().fail();
        let mut devices: Vec<Device> = src.devices().cloned().collect();
        devices.reverse();
        let mut added = ResourcePool::new(ResourceKind::Cpu);
        for d in devices.clone() {
            added.add_device(d);
        }
        let built = ResourcePool::with_devices(ResourceKind::Cpu, devices);
        for p in [&added, &built] {
            assert_eq!(format!("{:?}", p), format!("{src:?}"));
        }
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
}
