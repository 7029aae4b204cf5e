//! # udc-failure — imperfect, deterministic failure detection
//!
//! The paper's user-defined cloud promises per-app failure handling
//! (§3.4), which is only honest if the control plane's *knowledge* of
//! failures is itself a modelled, imperfect subsystem. This crate
//! supplies the three pieces:
//!
//! - [`NetPlan`] extends the crash/repair fault model with deterministic
//!   *network* faults: islands of devices cut off from the control plane
//!   until a heal time, and *gray* devices that stay up but whose
//!   heartbeats arrive late or not at all.
//! - [`LeaseDetector`] replaces omniscient crash knowledge with a
//!   sim-clock heartbeat/lease failure detector: missed-beat suspicion
//!   levels `Alive → Suspected → Confirmed`, a configurable lease and
//!   confirmation threshold, and a provable detection bound of
//!   `lease × (confirm_misses + poll granularity)` for true crashes.
//! - [`FenceRegistry`] mints a monotone fencing epoch per module
//!   placement so zombie isolates on the far side of a
//!   healed partition cannot double-write: stale epochs are rejected at
//!   both store writes and isolate launches.
//!
//! Everything here is pure state-machine code over the sim clock — no
//! wall clock, no unseeded randomness — so detector verdicts, fault
//! schedules, and fencing decisions are byte-identical across runs.

pub mod detector;
pub mod fence;
pub mod netplan;

pub use detector::{DetectorConfig, DetectorReport, LeaseDetector, Suspicion};
pub use fence::{FenceError, FenceRegistry};
pub use netplan::{GrayFault, NetPlan, Partition};

/// Deterministic 64-bit mix (the splitmix64 finalizer): the workspace's
/// one seeded hash, behind the heartbeat drop coin flips and phases,
/// the heal loop's retry jitter, and the experiments' seeded draws.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}
