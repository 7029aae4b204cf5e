//! # udc-actor — the actor runtime for UDC modules (§3.1)
//!
//! The paper proposes the Actor framework as the natural programming
//! model for fine-grained modules: "Each actor represents a module that
//! could run on a hardware resource unit. These (distributed) actors
//! communicate via input and output messages and there is no shared
//! state between actors. Evidence shows that explicit messages are more
//! efficient for a disaggregated setting than shared-memory
//! implementations. Furthermore, messages could be reliably recorded for
//! faster recovery."
//!
//! This crate provides:
//!
//! - [`actor::Actor`] — the module-behaviour trait (message in,
//!   messages out, no shared state);
//! - [`system::System`] — the executor (there is exactly one, see
//!   DESIGN.md §14): deterministic, single-threaded, interned actor
//!   slots, an O(active) ready bitmap, and no telemetry call on the
//!   per-message path;
//! - [`naive::NaiveSystem`] — the seed executor, kept verbatim as the
//!   observable-equivalence oracle (see `tests/prop_equiv.rs`);
//! - [`log::MessageLog`] — reliable message recording enabling
//!   replay-based recovery (consumed by `udc-dist`), with an indexed
//!   replay suffix and checkpoint-driven truncation;
//! - [`supervise::SupervisionPolicy`] — restart/drop/escalate handling
//!   of actor failures;
//! - [`parallel::fan_out`] — scoped threads for independent trials
//!   whose results land in input order.

#![forbid(unsafe_code)]

pub mod actor;
pub mod log;
pub mod naive;
pub mod parallel;
mod readiness;
mod slab;
pub mod supervise;
pub mod system;

pub use actor::{Actor, ActorError, ActorId, Ctx, Message};
pub use log::MessageLog;
pub use naive::NaiveSystem;
pub use supervise::SupervisionPolicy;
pub use system::{ActorRef, System, SystemStats};
