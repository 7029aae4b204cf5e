//! Quota-gated admission: the `QuotaGate` the scheduler consults before
//! placing an application.
//!
//! The gate tracks, per tenant, the resources currently admitted
//! against the plan's quota. Admission is a pure check; the caller
//! commits usage only after placement succeeds and releases it at
//! teardown, so a failed placement never leaks quota. Tenants without
//! an account on file are admitted unconditionally (the ungated seed
//! path), and so are tenants on an empty-quota plan — the equivalence
//! the property suite pins down.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use udc_spec::{AppSpec, ModuleKind, ResourceKind, ResourceVector};

use crate::plan::{LifecycleEvent, PlanSpec, TenantAccount};

/// Outcome of an admission check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionVerdict {
    /// The request fits (or the tenant is unknown / unlimited).
    Admit,
    /// A quota dimension cannot cover the request.
    QuotaExceeded {
        /// The first (canonical-order) dimension that failed.
        kind: ResourceKind,
        /// Units requested on that dimension.
        requested: u64,
        /// Units already admitted on that dimension.
        in_use: u64,
        /// The plan's limit on that dimension.
        limit: u64,
    },
    /// The account is suspended; nothing is admitted until payment.
    Suspended,
}

impl AdmissionVerdict {
    /// Whether the verdict admits the request.
    pub fn is_admit(&self) -> bool {
        matches!(self, AdmissionVerdict::Admit)
    }
}

/// Estimates the admission footprint of an application: the sum of
/// every module's explicit demand (scaled by replication), plus one CPU
/// core per task that declared no compute demand, plus the byte size of
/// data modules with no storage demand (MiB, rounded up). This is an
/// *admission estimate* — the scheduler still places real demands — but
/// it is deterministic and monotone, which is all a quota needs.
pub fn demand_of_app(app: &AppSpec) -> ResourceVector {
    let mut total = ResourceVector::new();
    for m in app.modules.values() {
        let mut d = m.resource.demand.clone();
        let has_compute = d.iter().any(|(k, v)| k.is_compute() && v > 0);
        let has_storage = d.iter().any(|(k, v)| !k.is_compute() && v > 0);
        if m.kind == ModuleKind::Task && !has_compute {
            d.set(ResourceKind::Cpu, d.get(ResourceKind::Cpu) + 1);
        }
        if m.kind == ModuleKind::Data && !has_storage {
            let mib = m.bytes.unwrap_or(0).div_ceil(1 << 20).max(1);
            d.set(ResourceKind::Ssd, mib);
        }
        total.saturating_add_assign(&d.scaled(m.dist.replication.max(1) as u64));
    }
    total
}

/// Per-tenant accounts plus the admission bookkeeping over them.
#[derive(Debug, Default)]
pub struct QuotaGate {
    accounts: BTreeMap<String, TenantAccount>,
}

impl QuotaGate {
    /// An empty gate: every tenant is unknown, everything admits.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens an account (replacing any existing one for the tenant).
    pub fn open_account(&mut self, tenant: &str, plan: PlanSpec, now_us: u64) {
        self.accounts.insert(
            tenant.to_string(),
            TenantAccount::open(tenant, plan, now_us),
        );
    }

    /// The account on file for `tenant`, if any.
    pub fn account(&self, tenant: &str) -> Option<&TenantAccount> {
        self.accounts.get(tenant)
    }

    /// Mutable account access (payments, charges).
    pub fn account_mut(&mut self, tenant: &str) -> Option<&mut TenantAccount> {
        self.accounts.get_mut(tenant)
    }

    /// All tenants with accounts, in name order (deterministic).
    pub fn tenants(&self) -> impl Iterator<Item = &str> {
        self.accounts.keys().map(String::as_str)
    }

    /// Checks whether `requested` fits the tenant's remaining quota.
    /// Pure: commits nothing.
    pub fn admit(&self, tenant: &str, requested: &ResourceVector) -> AdmissionVerdict {
        let Some(acct) = self.accounts.get(tenant) else {
            return AdmissionVerdict::Admit;
        };
        if acct.is_suspended() {
            return AdmissionVerdict::Suspended;
        }
        // Only dimensions the plan actually caps are enforced; an empty
        // quota vector is the unlimited plan.
        for (kind, limit) in acct.plan.quota.iter() {
            if limit == 0 {
                continue;
            }
            let in_use = acct.in_use.get(kind);
            let req = requested.get(kind);
            if in_use.saturating_add(req) > limit {
                return AdmissionVerdict::QuotaExceeded {
                    kind,
                    requested: req,
                    in_use,
                    limit,
                };
            }
        }
        AdmissionVerdict::Admit
    }

    /// Records `requested` as admitted (call after placement succeeds).
    pub fn commit(&mut self, tenant: &str, requested: &ResourceVector) {
        if let Some(acct) = self.accounts.get_mut(tenant) {
            acct.in_use.saturating_add_assign(requested);
        }
    }

    /// Returns `requested` to the quota (call at teardown).
    pub fn release(&mut self, tenant: &str, requested: &ResourceVector) {
        if let Some(acct) = self.accounts.get_mut(tenant) {
            acct.in_use.saturating_sub_assign(requested);
        }
    }

    /// Settles every account to `now`, returning `(tenant, events)` in
    /// tenant-name order for deterministic downstream handling.
    pub fn settle_all(&mut self, now_us: u64) -> Vec<(String, Vec<LifecycleEvent>)> {
        self.accounts
            .iter_mut()
            .map(|(t, a)| (t.clone(), a.settle(now_us)))
            .filter(|(_, ev)| !ev.is_empty())
            .collect()
    }
}

/// The gate as shared by `UdcCloud` (lifecycle) and the `Scheduler`
/// (admission). Everything runs on one thread, so a `RefCell` would
/// do; it stays `Arc<Mutex<_>>` because the end-to-end benchmark
/// (`benchmark/`) calls `.lock()` on it.
pub type SharedQuotaGate = Arc<Mutex<QuotaGate>>;

/// Convenience constructor for the shared form.
pub fn shared(gate: QuotaGate) -> SharedQuotaGate {
    Arc::new(Mutex::new(gate))
}

#[cfg(test)]
mod tests {
    use super::*;
    use udc_spec::{DataSpec, ResourceAspect, TaskSpec};

    fn app() -> AppSpec {
        let mut app = AppSpec::new("shop");
        app.add_module(
            TaskSpec::new("web")
                .with_resource(ResourceAspect::default().with_demand(ResourceKind::Cpu, 4))
                .build(),
        );
        app.add_module(TaskSpec::new("cron").build()); // implicit 1 cpu
        app.add_module(DataSpec::new("db").with_bytes(3 << 20).build()); // 3 MiB ssd
        app
    }

    fn quota(cpu: u64, ssd: u64) -> PlanSpec {
        PlanSpec {
            quota: ResourceVector::new()
                .with(ResourceKind::Cpu, cpu)
                .with(ResourceKind::Ssd, ssd),
            ..PlanSpec::unlimited("capped")
        }
    }

    #[test]
    fn demand_estimate_covers_implicit_modules() {
        let d = demand_of_app(&app());
        assert_eq!(d.get(ResourceKind::Cpu), 5, "explicit 4 + implicit 1");
        assert_eq!(d.get(ResourceKind::Ssd), 3, "3 MiB data footprint");
    }

    #[test]
    fn unknown_tenant_and_empty_quota_always_admit() {
        let mut g = QuotaGate::new();
        let d = demand_of_app(&app());
        assert!(g.admit("ghost", &d).is_admit());
        g.open_account("acme", PlanSpec::unlimited("free"), 0);
        assert!(g.admit("acme", &d).is_admit());
    }

    #[test]
    fn quota_rejects_with_the_failing_dimension() {
        let mut g = QuotaGate::new();
        g.open_account("acme", quota(8, 100), 0);
        let d = demand_of_app(&app());
        assert!(g.admit("acme", &d).is_admit());
        g.commit("acme", &d);
        // Second copy: 5 + 5 > 8 on cpu.
        assert_eq!(
            g.admit("acme", &d),
            AdmissionVerdict::QuotaExceeded {
                kind: ResourceKind::Cpu,
                requested: 5,
                in_use: 5,
                limit: 8,
            }
        );
        // Release frees the head-room again.
        g.release("acme", &d);
        assert!(g.admit("acme", &d).is_admit());
    }

    #[test]
    fn suspended_accounts_are_refused_outright() {
        let mut g = QuotaGate::new();
        let plan = PlanSpec {
            degrade_after_us: 0,
            suspend_after_us: 0,
            ..quota(100, 100)
        };
        g.open_account("acme", plan, 0);
        g.account_mut("acme").unwrap().charge(1, 10, None, "usage");
        let events = g.settle_all(5);
        assert_eq!(events.len(), 1, "acme transitioned");
        assert!(g.account("acme").unwrap().is_suspended());
        let d = demand_of_app(&app());
        assert_eq!(g.admit("acme", &d), AdmissionVerdict::Suspended);
        // Payment → reinstate → admission works again.
        g.account_mut("acme").unwrap().pay(6, 100);
        g.settle_all(7);
        assert!(g.admit("acme", &d).is_admit());
    }
}
