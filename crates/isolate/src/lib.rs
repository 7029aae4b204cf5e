//! # udc-isolate — execution environments and security features (§3.3)
//!
//! "Many existing execution environments like virtual machines,
//! lightweight VMs, unikernels, containers, and TEEs could be used to
//! fulfill different user requirements." This crate models all of them:
//!
//! - [`env::EnvKind`] — the six environment classes with calibrated
//!   startup-cost, runtime-overhead, and threat models;
//! - [`select::select_env`] — maps a user's declarative
//!   [`udc_spec::ExecEnvAspect`] plus the target hardware kind to a
//!   concrete [`select::EnvironmentPlan`] (the provider's realization
//!   choice, Design Principle 2), including the paper's rule that TEEs
//!   only exist on CPUs so secure accelerators need physically-isolated
//!   single-tenant devices;
//! - [`instance::Environment`] — a launched environment with lifecycle,
//!   virtual-time startup accounting, and TEE measurement via
//!   `udc-crypto`'s root of trust;
//! - [`warmpool::WarmPool`] — the cold-start mitigation §3.3 calls for
//!   ("(cold) starting many environments for many modules can
//!   significantly slow down the entire application").

pub mod env;
pub mod instance;
pub mod select;
pub mod warmpool;

pub use env::{defends, AttackVector, CostModel, EnvKind};
pub use instance::{EnvState, Environment, InstanceId};
pub use select::{select_env, EnvironmentPlan, SelectError};
pub use warmpool::{WarmAcquire, WarmPool, WarmPoolConfig, WarmPoolStats};
