//! # udc-hal — simulated disaggregated datacenter hardware
//!
//! The paper's §3.2 identifies *hardware resource disaggregation* as the
//! substrate UDC runs on: "Resource disaggregation splits traditional
//! servers into different types of network-attached devices, often
//! organized as resource pools. Fulfilling users' resource demands would
//! then simply be allocating the exact amount from the corresponding
//! resource pools (instead of a bin-packing problem with traditional
//! servers)."
//!
//! This crate provides that substrate as a deterministic simulator:
//!
//! - [`clock::SimClock`] — discrete-event virtual time (microseconds);
//! - [`device::Device`] — one network-attached device of a single
//!   [`udc_spec::ResourceKind`], with capacity, performance and cost;
//! - [`pool::ResourcePool`] — a pool of devices of one kind with
//!   exact-fit allocation and utilization accounting;
//! - [`fabric::Fabric`] — rack-aware network latency/bandwidth model;
//! - [`cluster::Datacenter`] — pools + fabric + clock, the object the
//!   scheduler (`udc-sched`) places modules onto;
//! - [`failure::FailurePlan`] — deterministic device-crash injection for
//!   §3.4's failure-handling experiments.
//!
//! The simulator is *deterministic*: all randomness flows through seeded
//! RNGs so every experiment is reproducible.

pub mod clock;
pub mod cluster;
pub mod device;
pub mod fabric;
pub mod failure;
pub mod linear;
pub mod pool;

pub use clock::SimClock;
pub use cluster::{Datacenter, DatacenterConfig, PoolConfig, TickReport};
pub use device::{Device, DeviceId, DeviceState, PerfProfile};
pub use fabric::{Fabric, FabricConfig, Location};
pub use failure::{FailureEvent, FailurePlan};
pub use pool::{AllocConstraints, AllocError, Allocation, ResourcePool, Slice};
