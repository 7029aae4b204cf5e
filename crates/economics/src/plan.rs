//! Plans, tenant accounts, and the overdue → degrade → suspend →
//! reinstate lifecycle.
//!
//! A **plan** is the commercial contract behind §4's win-win argument:
//! it grants an entitlement credit every accounting window and caps how
//! much capacity the tenant may hold at once (the quota). A **tenant
//! account** binds a plan to a [`UsageLedger`] and a lifecycle status.
//! Everything is driven from the simulated clock via [`TenantAccount::settle`]
//! so the control plane (and the experiments) replay identically run to
//! run.

use udc_spec::ResourceVector;

use crate::ledger::UsageLedger;

/// The commercial terms a tenant signed up for.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSpec {
    /// Human-readable plan name, e.g. `"starter"`.
    pub name: String,
    /// Accounting window length; the entitlement credit renews once per
    /// window (micro-seconds of simulated time).
    pub window_us: u64,
    /// Micro-dollars credited at each window renewal.
    pub credit_per_window: u64,
    /// Admission cap on resources held concurrently. An **empty vector
    /// means unlimited** — only kinds with a non-zero limit are
    /// enforced, so the seed admission path is the unlimited plan.
    pub quota: ResourceVector,
    /// How long an account may stay overdue (balance < 0) before its
    /// modules are marked degraded.
    pub degrade_after_us: u64,
    /// How long after going overdue the account is suspended and its
    /// modules evicted. Must be ≥ `degrade_after_us` to be meaningful.
    pub suspend_after_us: u64,
}

impl PlanSpec {
    /// A plan with no quota and no renewals: admission behaves exactly
    /// like the ungated seed path (basis of the equivalence proptest).
    pub fn unlimited(name: &str) -> Self {
        Self {
            name: name.to_string(),
            window_us: u64::MAX,
            credit_per_window: 0,
            quota: ResourceVector::new(),
            degrade_after_us: u64::MAX,
            suspend_after_us: u64::MAX,
        }
    }
}

/// Where an account sits in the payment lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccountStatus {
    /// Balance ≥ 0: full service.
    Active,
    /// Balance went negative at `since_us`; grace period running.
    Overdue {
        /// When the balance first went negative.
        since_us: u64,
    },
    /// Overdue past the plan's degrade threshold: modules keep running
    /// but are marked degraded (reusing the repair-loop state).
    Degraded {
        /// When the balance first went negative.
        since_us: u64,
    },
    /// Overdue past the suspend threshold: modules are evicted and new
    /// admissions denied until payment clears the balance.
    Suspended {
        /// When the balance first went negative.
        since_us: u64,
    },
}

impl AccountStatus {
    /// Stable lower-snake name for exports and decision details.
    pub fn as_str(&self) -> &'static str {
        match self {
            AccountStatus::Active => "active",
            AccountStatus::Overdue { .. } => "overdue",
            AccountStatus::Degraded { .. } => "degraded",
            AccountStatus::Suspended { .. } => "suspended",
        }
    }
}

/// What changed during a [`TenantAccount::settle`] call, in order.
/// The control plane acts on these (evicting or re-placing modules);
/// the account itself only tracks money and status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecycleEvent {
    /// An entitlement window elapsed and its credit was posted.
    Renewed {
        /// Window boundary the credit was posted at.
        at_us: u64,
        /// Micro-dollars credited.
        credited: u64,
    },
    /// Balance went negative.
    BecameOverdue {
        /// Settle time the overdue state was detected.
        at_us: u64,
    },
    /// Overdue past the degrade threshold.
    Degraded {
        /// Settle time of the transition.
        at_us: u64,
    },
    /// Overdue past the suspend threshold.
    Suspended {
        /// Settle time of the transition.
        at_us: u64,
    },
    /// Payment (or renewal) restored a non-negative balance.
    Reinstated {
        /// Settle time of the transition.
        at_us: u64,
    },
}

/// One tenant's economic state: plan, ledger, status, and the resources
/// currently held against the quota.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantAccount {
    /// Tenant name (matches the scheduler's tenant label).
    pub tenant: String,
    /// The signed plan.
    pub plan: PlanSpec,
    /// The append-only system of record.
    pub ledger: UsageLedger,
    /// Lifecycle status, updated by [`TenantAccount::settle`].
    pub status: AccountStatus,
    /// Start of the current entitlement window.
    pub window_start_us: u64,
    /// Resources currently admitted (committed at placement, released
    /// at teardown). Suspension does **not** release usage — the tenant
    /// still owns the reservation until it pays or tears down.
    pub in_use: ResourceVector,
}

impl TenantAccount {
    /// Opens an account at `now` with the opening credit already posted
    /// (the first window's entitlement).
    pub fn open(tenant: &str, plan: PlanSpec, now_us: u64) -> Self {
        let mut ledger = UsageLedger::new();
        if plan.credit_per_window > 0 {
            ledger.credit(now_us, plan.credit_per_window, "entitlement");
        }
        Self {
            tenant: tenant.to_string(),
            plan,
            ledger,
            status: AccountStatus::Active,
            window_start_us: now_us,
            in_use: ResourceVector::new(),
        }
    }

    /// Posts a usage debit (e.g. a module holding window priced by the
    /// control plane's billing model).
    pub fn charge(&mut self, at_us: u64, amount: u64, module: Option<&str>, memo: &str) {
        self.ledger.debit(at_us, amount, module, memo);
    }

    /// Posts an out-of-band payment.
    pub fn pay(&mut self, at_us: u64, amount: u64) {
        self.ledger.credit(at_us, amount, "payment");
    }

    /// Advances the account to `now`: renews any elapsed entitlement
    /// windows, then walks the status machine on the resulting balance.
    /// Returns the transitions in the order they happened so the caller
    /// can mirror them onto placements (degrade / evict / re-place).
    pub fn settle(&mut self, now_us: u64) -> Vec<LifecycleEvent> {
        let mut events = Vec::new();

        // 1. Window renewals, posted at their window boundaries so the
        // ledger timeline is exact regardless of settle cadence.
        if self.plan.credit_per_window > 0 && self.plan.window_us > 0 {
            while now_us.saturating_sub(self.window_start_us) >= self.plan.window_us {
                self.window_start_us += self.plan.window_us;
                self.ledger.credit(
                    self.window_start_us,
                    self.plan.credit_per_window,
                    "entitlement",
                );
                events.push(LifecycleEvent::Renewed {
                    at_us: self.window_start_us,
                    credited: self.plan.credit_per_window,
                });
            }
        }

        // 2. Status machine on the settled balance.
        if self.ledger.balance_microdollars() >= 0 {
            if self.status != AccountStatus::Active {
                self.status = AccountStatus::Active;
                events.push(LifecycleEvent::Reinstated { at_us: now_us });
            }
            return events;
        }
        match self.status {
            AccountStatus::Active => {
                self.status = AccountStatus::Overdue { since_us: now_us };
                events.push(LifecycleEvent::BecameOverdue { at_us: now_us });
                // A long gap can cross both thresholds in one settle.
                events.extend(self.escalate(now_us));
            }
            AccountStatus::Overdue { .. } | AccountStatus::Degraded { .. } => {
                events.extend(self.escalate(now_us));
            }
            AccountStatus::Suspended { .. } => {}
        }
        events
    }

    /// Escalates an overdue account through degrade and suspend as the
    /// grace periods expire. Separate from `settle` so a single call
    /// can emit both transitions when the clock jumped far.
    fn escalate(&mut self, now_us: u64) -> Vec<LifecycleEvent> {
        let mut events = Vec::new();
        let since_us = match self.status {
            AccountStatus::Overdue { since_us } | AccountStatus::Degraded { since_us } => since_us,
            _ => return events,
        };
        let overdue_for = now_us.saturating_sub(since_us);
        if matches!(self.status, AccountStatus::Overdue { .. })
            && overdue_for >= self.plan.degrade_after_us
        {
            self.status = AccountStatus::Degraded { since_us };
            events.push(LifecycleEvent::Degraded { at_us: now_us });
        }
        if matches!(self.status, AccountStatus::Degraded { .. })
            && overdue_for >= self.plan.suspend_after_us
        {
            self.status = AccountStatus::Suspended { since_us };
            events.push(LifecycleEvent::Suspended { at_us: now_us });
        }
        events
    }

    /// Whether the account is currently suspended.
    pub fn is_suspended(&self) -> bool {
        matches!(self.status, AccountStatus::Suspended { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> PlanSpec {
        PlanSpec {
            name: "starter".into(),
            window_us: 1_000,
            credit_per_window: 100,
            quota: ResourceVector::new(),
            degrade_after_us: 500,
            suspend_after_us: 2_000,
        }
    }

    #[test]
    fn windows_renew_at_boundaries() {
        let mut a = TenantAccount::open("acme", plan(), 0);
        assert_eq!(a.ledger.balance_microdollars(), 100, "opening credit");
        let ev = a.settle(3_250);
        assert_eq!(
            ev,
            vec![
                LifecycleEvent::Renewed {
                    at_us: 1_000,
                    credited: 100
                },
                LifecycleEvent::Renewed {
                    at_us: 2_000,
                    credited: 100
                },
                LifecycleEvent::Renewed {
                    at_us: 3_000,
                    credited: 100
                },
            ]
        );
        assert_eq!(a.ledger.balance_microdollars(), 400);
        assert_eq!(a.window_start_us, 3_000);
        assert!(a.ledger.conservation_holds());
    }

    #[test]
    fn overdue_escalates_to_degraded_then_suspended() {
        let mut a = TenantAccount::open("acme", plan(), 0);
        a.charge(10, 350, Some("m"), "usage window");
        // Balance 100 - 350 = -250 → overdue at first settle.
        assert_eq!(
            a.settle(20),
            vec![LifecycleEvent::BecameOverdue { at_us: 20 }]
        );
        assert_eq!(a.status, AccountStatus::Overdue { since_us: 20 });
        // Not yet past the degrade grace (and the 1000-us renewal has
        // not happened), so nothing changes.
        assert!(a.settle(400).is_empty());
        // Past degrade_after. (Renewal at 1000 credits 100 but the
        // balance stays negative: -250 + 100 = -150.)
        let ev = a.settle(1_100);
        assert_eq!(
            ev,
            vec![
                LifecycleEvent::Renewed {
                    at_us: 1_000,
                    credited: 100
                },
                LifecycleEvent::Degraded { at_us: 1_100 },
            ]
        );
        // Keep it overdue past suspend_after (renewals would clear the
        // 150 debt at t=3000, so charge more first).
        a.charge(1_200, 1_000, Some("m"), "usage window");
        let ev = a.settle(2_500);
        assert!(ev.contains(&LifecycleEvent::Suspended { at_us: 2_500 }));
        assert!(a.is_suspended());
        // Payment reinstates at the next settle.
        a.pay(2_600, 5_000);
        assert_eq!(
            a.settle(2_700),
            vec![LifecycleEvent::Reinstated { at_us: 2_700 }]
        );
        assert_eq!(a.status, AccountStatus::Active);
        assert!(a.ledger.conservation_holds());
    }

    #[test]
    fn one_long_gap_can_cross_both_thresholds() {
        let mut a = TenantAccount::open("acme", plan(), 0);
        // No renewals can save it: debt exceeds all future credits in range.
        a.charge(10, 100_000, Some("m"), "usage window");
        let ev = a.settle(10_000);
        assert!(ev.contains(&LifecycleEvent::BecameOverdue { at_us: 10_000 }));
        // Degrade/suspend grace is measured from overdue detection, so
        // they need further settles.
        let ev = a.settle(12_500);
        assert_eq!(
            ev,
            vec![
                LifecycleEvent::Renewed {
                    at_us: 11_000,
                    credited: 100
                },
                LifecycleEvent::Renewed {
                    at_us: 12_000,
                    credited: 100
                },
                LifecycleEvent::Degraded { at_us: 12_500 },
                LifecycleEvent::Suspended { at_us: 12_500 },
            ]
        );
        assert!(a.is_suspended());
    }

    #[test]
    fn unlimited_plan_never_leaves_active() {
        let mut a = TenantAccount::open("acme", PlanSpec::unlimited("free"), 0);
        a.charge(5, 10, Some("m"), "usage window");
        // Balance is negative but the thresholds are u64::MAX.
        let ev = a.settle(1 << 40);
        assert_eq!(ev, vec![LifecycleEvent::BecameOverdue { at_us: 1 << 40 }]);
        assert_eq!(a.settle(u64::MAX - 1), vec![]);
        assert!(!a.is_suspended());
    }

    #[test]
    fn a_plan_without_credit_opens_an_empty_ledger() {
        let a = TenantAccount::open("acme", PlanSpec::unlimited("free"), 42);
        assert!(a.ledger.entries().is_empty());
        assert_eq!((a.status, a.window_start_us), (AccountStatus::Active, 42));
    }

    #[test]
    fn a_zero_length_window_never_renews() {
        let plan = PlanSpec {
            window_us: 0,
            ..plan()
        };
        let mut a = TenantAccount::open("acme", plan, 0);
        assert!(a.settle(10_000).is_empty());
        assert_eq!(
            a.ledger.balance_microdollars(),
            100,
            "the opening credit only"
        );
    }

    #[test]
    fn payment_in_the_grace_period_reinstates_before_degrading() {
        let mut a = TenantAccount::open("acme", plan(), 0);
        a.charge(1, 150, Some("m"), "usage window");
        assert_eq!(
            a.settle(2),
            vec![LifecycleEvent::BecameOverdue { at_us: 2 }]
        );
        a.pay(3, 50);
        assert_eq!(
            a.settle(600),
            vec![LifecycleEvent::Reinstated { at_us: 600 }]
        );
        assert_eq!(a.status.as_str(), "active");
    }

    #[test]
    fn a_suspended_account_stays_suspended_while_it_owes() {
        let plan = PlanSpec {
            degrade_after_us: 0,
            suspend_after_us: 0,
            ..PlanSpec::unlimited("strict")
        };
        let mut a = TenantAccount::open("acme", plan, 0);
        a.charge(1, 10, None, "usage");
        a.settle(2);
        assert_eq!(a.status, AccountStatus::Suspended { since_us: 2 });
        a.pay(3, 5);
        assert!(a.settle(1_000).is_empty(), "still owing 5");
        assert_eq!(a.status, AccountStatus::Suspended { since_us: 2 });
    }

    #[test]
    fn status_names_are_stable() {
        let names = [
            AccountStatus::Active,
            AccountStatus::Overdue { since_us: 1 },
            AccountStatus::Degraded { since_us: 1 },
            AccountStatus::Suspended { since_us: 1 },
        ]
        .map(|s| s.as_str());
        assert_eq!(names, ["active", "overdue", "degraded", "suspended"]);
    }
}
