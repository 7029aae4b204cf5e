//! # udc-core — the User-Defined Cloud control plane
//!
//! The crate that ties the substrates into the system the paper
//! proposes: a cloud where *users* define hardware resources, execution
//! environments/security, and distributed semantics per module, and the
//! *provider* (this crate) realizes those definitions on a fine-grained,
//! disaggregated infrastructure.
//!
//! The tenant-facing flow:
//!
//! ```text
//! AppSpec (udc-spec)                        // what the user writes
//!   └── UdcCloud::submit(app)               // the front door, once
//!         ├── AppIr (ir.rs)                 // ResolvedApp + module IR
//!         ├── Scheduler::place              // exact-fit placement
//!         └── Deployment                    // live environments + keys
//!               ├── UdcCloud::run           // execute the DAG
//!               │     └── RunReport         // latency, cost, security
//!               └── UdcCloud::verify_deployment  // §4 attestation
//! ```
//!
//! See [`cloud::UdcCloud`] for the entry point.

pub mod billing;
pub mod bundle;
pub mod cloud;
pub mod heal;
pub mod ir;
pub mod verify;

pub use billing::{BillingModel, CostBreakdown};
pub use bundle::{HighLevelObject, ResourceUnit};
pub use cloud::{
    CloudConfig, CloudError, Deployment, RunReport, UdcCloud, FEED_MISSED_COUNTER,
    HEAL_DEGRADED_GAUGE, HEAL_DEGRADED_RULE, RING_DROPPED_GAUGE, RING_DROPPED_RULE,
};
pub use heal::{HealReport, HealthState, ModuleHealth, ModuleRepair};
pub use ir::{AppIr, ModuleIr};
pub use verify::{
    check_quote, policy_for_module, BillingCheck, BillingReconciliation, ModuleVerification,
    VerificationReport,
};
