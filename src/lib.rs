//! # UDC — User-Defined Cloud
//!
//! Facade crate re-exporting the whole UDC stack. See the workspace
//! README for an architecture overview and the `udc-core` crate for the
//! control-plane entry points.

pub use udc_baseline as baseline;
pub use udc_core as core;
pub use udc_crypto as crypto;
pub use udc_dist as dist;
pub use udc_extvm as extvm;
pub use udc_failure as failure;
pub use udc_hal as hal;
pub use udc_isolate as isolate;
pub use udc_legacy as legacy;
pub use udc_sched as sched;
pub use udc_spec as spec;
pub use udc_telemetry as telemetry;
pub use udc_workload as workload;
