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
//! - [`checkpoint::CheckpointStore`] and [`checkpoint::recover`] —
//!   checkpoint/replay recovery versus re-execution, built on
//!   `udc-actor`'s reliable message log.
//!
//! Failure domains ("code and data within a domain will fail as a
//! whole" while "different domains could fail independently") are
//! enforced where modules land: `udc-core`'s heal loop never re-places a
//! module on a device that hosts a module of another domain.

pub mod checkpoint;
pub mod prefqueue;
pub mod store;

pub use checkpoint::{
    recover, safe_truncation_seq, Checkpoint, CheckpointStore, RecoveryOutcome, RecoveryStrategy,
};
pub use prefqueue::{Op, OpKind, PreferenceQueue};
pub use store::{ReadResult, ReplicatedStore, ReplicationParams, StoreError, StoreStats};
