//! Usage-based billing (§2 and §4 "Economics and adoption").
//!
//! "Users obtain and pay only for the resources and features they need,
//! instead of predefined packages that contain unnecessary resources."
//! And on the provider side: "they can increase the unit price of their
//! computing resources to the extent that still offers users a lower
//! total cost than today's cloud." The `price_multiplier` knob is that
//! unit-price increase; experiment E15 sweeps it to find the win-win
//! region.

use std::collections::BTreeMap;
use udc_hal::Datacenter;
use udc_sched::{AppPlacement, ModulePlacement};
use udc_spec::{ModuleId, ResourceKind};

/// The UDC pricing model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BillingModel {
    /// Multiplier over the baseline unit prices (1.0 = same per-unit
    /// price as the incumbent; the paper argues UDC can charge more).
    pub price_multiplier: f64,
    /// Surcharge multiplier for single-tenant (exclusive) devices — the
    /// tenant pays for the whole device's opportunity cost.
    pub exclusive_surcharge: f64,
}

impl Default for BillingModel {
    fn default() -> Self {
        Self {
            price_multiplier: 1.0,
            exclusive_surcharge: 1.0,
        }
    }
}

/// An itemized bill for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CostBreakdown {
    /// Per-kind cost in micro-dollars: (kind, micro-dollars).
    pub by_kind: Vec<(ResourceKind, u64)>,
    /// Surcharges for exclusive devices.
    pub exclusive_surcharge: u64,
    /// Grand total in micro-dollars.
    pub total: u64,
}

impl BillingModel {
    /// Prices a placement whose module `id` is held for `held_us(id)`
    /// of virtual time — "pay only for the resources and features they
    /// need" at *time* granularity: a run bills each task for its own
    /// execution window and each data module for the whole run.
    ///
    /// Exclusive slices are billed for the *entire device* (the tenant
    /// monopolizes it), times the surcharge; shared slices for exactly
    /// the units held — the "pay only for what you use" principle.
    pub fn price(
        &self,
        dc: &Datacenter,
        placement: &AppPlacement,
        held_us: impl Fn(&ModuleId) -> u64,
    ) -> CostBreakdown {
        let mut bill = CostBreakdown::default();
        let mut by_kind = BTreeMap::new();
        for (id, m) in &placement.modules {
            for (kind, cost, surcharge) in self.slice_costs(dc, m, held_us(id)) {
                *by_kind.entry(kind).or_insert(0) += cost;
                bill.exclusive_surcharge += surcharge;
            }
        }
        bill.total = by_kind.values().sum();
        bill.by_kind = by_kind.into_iter().collect();
        bill
    }

    /// Prices one module held for `duration_us`: the tenant-side
    /// building block for billing reconciliation (§4) — given observed
    /// holding time, anyone can recompute what a module should cost.
    /// Returns total micro-dollars (surcharges included).
    pub fn price_module(&self, dc: &Datacenter, m: &ModulePlacement, duration_us: u64) -> u64 {
        self.slice_costs(dc, m, duration_us)
            .map(|(_, cost, _)| cost)
            .sum()
    }

    /// `(kind, cost, exclusive surcharge within the cost)` of each slice
    /// of `m` held for `duration_us`.
    fn slice_costs<'a>(
        &'a self,
        dc: &'a Datacenter,
        m: &'a ModulePlacement,
        duration_us: u64,
    ) -> impl Iterator<Item = (ResourceKind, u64, u64)> + 'a {
        m.allocations.iter().flat_map(move |alloc| {
            alloc.slices.iter().filter_map(move |slice| {
                let device = dc.device(slice.device)?;
                let (base, surcharge) = if slice.exclusive {
                    let whole = device.cost_of(device.capacity, duration_us);
                    let with_surcharge = (whole as f64 * self.exclusive_surcharge).round() as u64;
                    (with_surcharge, with_surcharge.saturating_sub(whole))
                } else {
                    (device.cost_of(slice.units, duration_us), 0)
                };
                let cost = (base as f64 * self.price_multiplier).round() as u64;
                Some((alloc.kind, cost, surcharge))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udc_sched::{SchedOptions, Scheduler};
    use udc_spec::{AppSpec, ResourceAspect, TaskSpec};

    fn placed(exclusive: bool) -> (Datacenter, AppPlacement) {
        let mut app = AppSpec::new("b");
        let mut task = TaskSpec::new("A1")
            .with_resource(ResourceAspect::default().with_demand(ResourceKind::Cpu, 4));
        if exclusive {
            task = task.with_exec_env(udc_spec::ExecEnvAspect::isolation(
                udc_spec::IsolationLevel::Strongest,
            ));
        }
        app.add_task(task);
        let mut dc = Datacenter::default();
        let mut sched = Scheduler::new(SchedOptions::default());
        let placement = sched.place_app(&mut dc, &app).unwrap();
        (dc, placement)
    }

    const HOUR_US: u64 = 3_600_000_000;

    #[test]
    fn shared_pricing_is_per_unit() {
        let (dc, placement) = placed(false);
        let bill = BillingModel::default().price(&dc, &placement, |_| HOUR_US);
        // 4 CPU cores at $0.04/core-hour = 160_000 micro-dollars.
        assert_eq!(bill.total, 160_000);
        assert_eq!(bill.exclusive_surcharge, 0);
    }

    #[test]
    fn exclusive_bills_whole_device() {
        let (dc, placement) = placed(true);
        let bill = BillingModel::default().price(&dc, &placement, |_| HOUR_US);
        // The exclusive CPU device has 64 cores.
        assert_eq!(bill.total, 64 * 40_000);
    }

    #[test]
    fn multiplier_scales_linearly() {
        let (dc, placement) = placed(false);
        let base = BillingModel::default().price(&dc, &placement, |_| HOUR_US);
        let pricey = BillingModel {
            price_multiplier: 1.5,
            ..Default::default()
        }
        .price(&dc, &placement, |_| HOUR_US);
        assert_eq!(pricey.total, (base.total as f64 * 1.5) as u64);
    }

    #[test]
    fn surcharge_applies_to_exclusive_only() {
        let (dc, placement) = placed(true);
        let bill = BillingModel {
            exclusive_surcharge: 1.25,
            ..Default::default()
        }
        .price(&dc, &placement, |_| HOUR_US);
        assert!(bill.exclusive_surcharge > 0);
        assert_eq!(bill.total, (64.0 * 40_000.0 * 1.25) as u64);
    }

    #[test]
    fn zero_duration_zero_cost() {
        let (dc, placement) = placed(false);
        let bill = BillingModel::default().price(&dc, &placement, |_| 0);
        assert_eq!(bill.total, 0);
    }

    #[test]
    fn windows_bill_tasks_for_their_own_duration() {
        let mut app = AppSpec::new("w");
        for id in ["short", "long"] {
            app.add_task(
                TaskSpec::new(id)
                    .with_resource(ResourceAspect::default().with_demand(ResourceKind::Cpu, 4)),
            );
        }
        let mut dc = Datacenter::default();
        let mut sched = Scheduler::new(SchedOptions::default());
        let placement = sched.place_app(&mut dc, &app).unwrap();
        let held = BTreeMap::from([
            (ModuleId::from("short"), HOUR_US / 4),
            (ModuleId::from("long"), HOUR_US),
        ]);
        let bill = BillingModel::default().price(&dc, &placement, |id| held[id]);
        // 4 cores x (0.25h + 1h) at $0.04/core-h = $0.20.
        assert_eq!(bill.total, 200_000);
    }
}
