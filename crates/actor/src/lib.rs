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
//! No product crate depends on it: the provider's recovery log is
//! `udc_dist::RecoveryModel`, and `tests/recovery_model.rs` checks that
//! log against what this executor delivers (DESIGN.md §12).
//!
//! This crate provides:
//!
//! - [`actor::Actor`] — the module-behaviour trait (message in,
//!   messages out, no shared state);
//! - [`system::System`] — the one executor: deterministic,
//!   single-threaded, round-robin in id order (DESIGN.md §12);
//! - [`log::MessageLog`] — reliable message recording enabling
//!   replay-based recovery, with an indexed replay suffix and
//!   checkpoint-driven truncation;
//! - [`supervise::SupervisionPolicy`] — restart/drop/escalate handling
//!   of actor failures.

#![forbid(unsafe_code)]

pub mod actor;
pub mod log;
pub mod supervise;
pub mod system;

pub use actor::{Actor, ActorError, ActorId, Ctx, Message};
pub use log::MessageLog;
pub use supervise::SupervisionPolicy;
pub use system::{System, SystemStats};
