//! # udc-dist — user-defined distributed semantics (§3.4)
//!
//! "Users should be able to define how their applications run
//! distributedly, but without the need to build complex distributed
//! systems." The user declares a replication factor, a consistency
//! level, an operation preference, a failure domain, and a failure-
//! handling strategy (Table 1); this crate is the provider-side
//! realization of all but the failure domain:
//!
//! - [`store::ReplicatedStore`] — a replicated KV data module
//!   implementing all five [`udc_spec::ConsistencyLevel`]s with a
//!   deterministic latency/staleness model;
//! - [`prefqueue::PreferenceQueue`] — reader/writer operation
//!   preference (Table 1's "Reader preference");
//! - [`recovery::RecoveryModel`] — the provider's reliable recovery
//!   log: each module's `(seq, value)` stream and its newest checkpoint,
//!   recovered by checkpoint-and-suffix replay or by re-execution
//!   (Table 1's failure handling).
//!
//! Failure domains ("code and data within a domain will fail as a
//! whole" while "different domains could fail independently") are
//! enforced where modules land: `udc-core`'s heal loop never re-places a
//! module on a device that hosts a module of another domain.

pub mod prefqueue;
pub mod recovery;
pub mod store;

pub use prefqueue::{Op, OpKind, PreferenceQueue};
pub use recovery::{RecoveryModel, RecoveryOutcome, RecoveryStrategy};
pub use store::{ReadResult, ReplicatedStore, ReplicationParams, StoreError, StoreStats};
