//! # udc-sched — the UDC runtime scheduler (§3.2)
//!
//! "Our runtime scheduler would use the user-supplied resource aspect,
//! execution environment aspect, and locality information from the
//! application semantic aspect to decide the location(s) to execute a
//! module and initialize it with the resource amount as user specified."
//!
//! Components:
//!
//! - [`scheduler::Scheduler`] — places a whole application DAG onto a
//!   [`udc_hal::Datacenter`]: exact-fit pool allocation, colocation
//!   groups, task↔data affinity, replica anti-affinity, execution-
//!   environment selection, and warm-pool-aware startup accounting;
//! - [`policy::PlacementPolicy`] — the ranking hook, with a native
//!   locality policy and [`policy::ExtVmPolicy`] that runs *tenant
//!   bytecode* in the sandboxed extension VM (the "user-defined" in
//!   User-Defined Cloud);
//! - [`binpack::ServerCluster`] — the traditional-server baseline:
//!   bin-packing whole-server shapes (first-fit-decreasing / best-fit),
//!   used by experiments E3/E4 to quantify the waste UDC removes;
//! - [`finetune::FineTuner`] — §3.2's telemetry-driven fine-tuning:
//!   grow/shrink/migrate recommendations from usage estimates.

pub mod binpack;
pub mod finetune;
pub mod policy;
pub mod scheduler;

pub use binpack::{NaiveServerCluster, PackAlgo, PackOutcome, ServerCluster, ServerShape};
pub use finetune::{FineTuner, TuneAction};
pub use policy::{ExtVmPolicy, LocalityPolicy, PlacementPolicy, PolicyCtx};
pub use scheduler::{
    data_movement, AppPlacement, ModulePlacement, SchedError, SchedOptions, Scheduler, StartMode,
};
