//! # udc-economics — the tenant economics subsystem
//!
//! §4 of the paper argues UDC adoption on economics: tenants pay only
//! for the capacity their aspects actually need, and the provider can
//! raise unit prices inside a win-win region while selling surplus
//! disaggregated capacity. The seed repo reproduced the *one-shot* half
//! of that argument (`BillingModel::price` plus the win-win sweep);
//! this crate adds the **ongoing** economic state that governs a
//! running control plane:
//!
//! - [`UsageLedger`] — an append-only per-tenant debit/credit ledger
//!   with a conservation invariant (`credits == debits + balance`),
//!   the auditable system of record billing reconciliation checks
//!   against;
//! - [`PlanSpec`] / [`TenantAccount`] — entitlement windows that renew
//!   on the simulated clock, quotas, and the overdue → degrade →
//!   suspend → reinstate lifecycle ([`TenantAccount::settle`]);
//! - [`QuotaGate`] — admission control the scheduler consults before
//!   placing an application, with denial reasons recorded in the
//!   decision log exactly like capacity rejections;
//! - [`SpotMarket`] — a seeded sealed-bid second-price auction where
//!   tenant *extension-VM bidding policies* (gas-metered `udc-extvm`
//!   programs) bid for surplus capacity each accounting epoch.
//!
//! The crate depends only on `udc-spec`, `udc-extvm`, and
//! `udc-telemetry`; pricing stays in `udc-core`'s `BillingModel` and
//! flows in as micro-dollar amounts, which keeps the dependency graph
//! acyclic and the ledger currency-agnostic. Everything is driven by
//! the simulated clock and seeded inputs — no wall-clock, no ambient
//! randomness — so economic trajectories replay byte-identically run
//! to run.

pub mod gate;
pub mod ledger;
pub mod market;
pub mod plan;

pub use gate::{demand_of_app, shared, AdmissionVerdict, QuotaGate, SharedQuotaGate};
pub use ledger::{EntryKind, LedgerEntry, UsageLedger};
pub use market::{
    hostfn, AuctionOutcome, BidRecord, BidderPolicy, Lot, SpotMarket, AGGRESSIVE_BIDDER,
    BUDGET_BIDDER, SHADED_BIDDER, TRUTHFUL_BIDDER,
};
pub use plan::{AccountStatus, LifecycleEvent, PlanSpec, TenantAccount};
