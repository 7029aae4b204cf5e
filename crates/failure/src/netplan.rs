//! Deterministic network-fault schedules.
//!
//! [`FailurePlan`](udc_hal::FailurePlan) models fail-stop crashes; real
//! ad hoc clouds also see *partial* failures — islands of devices cut
//! off from the control plane, links that drop or duplicate messages,
//! and gray members that are up but slow. A [`NetPlan`] is the seeded,
//! time-indexed schedule of those faults. It is pure: every query is a
//! function of `(plan, time, nonce)`, so delivery outcomes are
//! reproducible across runs and thread counts.

use serde::{Deserialize, Serialize};
use udc_hal::clock::Micros;
use udc_hal::DeviceId;

use crate::mix64;

/// One end of a message: the control plane or a device.
///
/// Heartbeats flow `Device → Control`; replication traffic flows
/// `Device → Device`. Modelling the control plane as an explicit
/// endpoint lets a partition's island lose its lease while the rest of
/// the datacenter keeps heartbeating.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Endpoint {
    /// The (non-partitionable) control plane.
    Control,
    /// A device in the datacenter.
    Device(DeviceId),
}

/// A bipartition of the datacenter: `island` loses contact with the
/// control plane and with every non-island device for
/// `[from_us, until_us)`, then heals.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    /// Devices on the far side (the control plane is never in the
    /// island).
    pub island: Vec<DeviceId>,
    /// Partition start (inclusive).
    pub from_us: Micros,
    /// Heal time (exclusive) — traffic flows again at `until_us`.
    pub until_us: Micros,
}

impl Partition {
    fn active(&self, now: Micros) -> bool {
        self.from_us <= now && now < self.until_us
    }

    fn separates(&self, a: Endpoint, b: Endpoint, now: Micros) -> bool {
        if !self.active(now) {
            return false;
        }
        let side = |e: Endpoint| match e {
            Endpoint::Control => false,
            Endpoint::Device(d) => self.island.contains(&d),
        };
        side(a) != side(b)
    }
}

/// A *gray* device: up (it still executes and holds its allocations)
/// but slow or flaky towards the network, so its heartbeats arrive late
/// or not at all. Gray faults are what make false suspicion — and, when
/// severe enough, false *confirmation* — possible.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GrayFault {
    /// The affected device.
    pub device: DeviceId,
    /// Fault window start (inclusive).
    pub from_us: Micros,
    /// Fault window end (exclusive).
    pub until_us: Micros,
    /// Extra one-way delay added to every message the device sends or
    /// receives while gray.
    pub delay_us: Micros,
    /// Per-message drop probability in thousandths (0..=1000).
    pub drop_per_mille: u16,
}

impl GrayFault {
    fn active(&self, now: Micros) -> bool {
        self.from_us <= now && now < self.until_us
    }
}

/// A fault on one (unordered) link: drop, delay, and/or duplication for
/// `[from_us, until_us)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkFault {
    /// One end of the link.
    pub a: Endpoint,
    /// The other end.
    pub b: Endpoint,
    /// Fault window start (inclusive).
    pub from_us: Micros,
    /// Fault window end (exclusive).
    pub until_us: Micros,
    /// Per-message drop probability in thousandths (0..=1000).
    pub drop_per_mille: u16,
    /// Extra one-way delay per message.
    pub delay_us: Micros,
    /// Deliver every message twice (dup storms; receivers must be
    /// idempotent).
    pub duplicate: bool,
}

impl LinkFault {
    fn matches(&self, x: Endpoint, y: Endpoint, now: Micros) -> bool {
        self.from_us <= now
            && now < self.until_us
            && ((self.a == x && self.b == y) || (self.a == y && self.b == x))
    }
}

/// The outcome of one message send under the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// How many copies arrive (0 = dropped, 2 = duplicated).
    pub copies: u8,
    /// Extra one-way delay accumulated from gray and link faults.
    pub delay_us: Micros,
}

impl Delivery {
    /// True when at least one copy arrives.
    pub fn delivered(&self) -> bool {
        self.copies > 0
    }
}

/// A deterministic schedule of network faults.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetPlan {
    /// Device-set bipartitions with heal times.
    pub partitions: Vec<Partition>,
    /// Gray (slow/flaky but up) devices.
    pub grays: Vec<GrayFault>,
    /// Per-link drop/delay/duplication faults.
    pub links: Vec<LinkFault>,
    /// Seed for the drop/duplication coin flips.
    pub seed: u64,
}

impl NetPlan {
    /// A plan with no faults at all.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when the plan schedules no faults.
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty() && self.grays.is_empty() && self.links.is_empty()
    }

    /// True when the plan schedules at least one gray fault (the only
    /// fault class that can make a *reachable, live* device look dead).
    pub fn has_gray(&self) -> bool {
        !self.grays.is_empty()
    }

    /// The time after which every scheduled fault has healed.
    pub fn horizon_us(&self) -> Micros {
        let p = self.partitions.iter().map(|p| p.until_us).max();
        let g = self.grays.iter().map(|g| g.until_us).max();
        let l = self.links.iter().map(|l| l.until_us).max();
        p.into_iter().chain(g).chain(l).max().unwrap_or(0)
    }

    /// Rebases every fault window by `base_us` — the same anchoring
    /// [`FailurePlan::shifted`](udc_hal::FailurePlan::shifted) does, so
    /// a harness can build windows relative to 0 and shift them past
    /// the deployment's startup transient.
    pub fn shifted(mut self, base_us: Micros) -> Self {
        for p in &mut self.partitions {
            p.from_us = p.from_us.saturating_add(base_us);
            p.until_us = p.until_us.saturating_add(base_us);
        }
        for g in &mut self.grays {
            g.from_us = g.from_us.saturating_add(base_us);
            g.until_us = g.until_us.saturating_add(base_us);
        }
        for l in &mut self.links {
            l.from_us = l.from_us.saturating_add(base_us);
            l.until_us = l.until_us.saturating_add(base_us);
        }
        self
    }

    /// True when `a` and `b` can exchange messages at `now` (no active
    /// partition separates them). Gray and link faults never cut
    /// reachability outright — they degrade it per message.
    pub fn reachable(&self, a: Endpoint, b: Endpoint, now: Micros) -> bool {
        !self.partitions.iter().any(|p| p.separates(a, b, now))
    }

    /// The gray fault affecting `d` at `now`, if any.
    pub fn gray_at(&self, d: DeviceId, now: Micros) -> Option<&GrayFault> {
        self.grays.iter().find(|g| g.device == d && g.active(now))
    }

    /// Resolves one message sent `from → to` at `at_us`. `nonce`
    /// distinguishes messages sent at the same instant (e.g. a
    /// heartbeat sequence number) so their coin flips are independent
    /// yet reproducible.
    pub fn deliver(&self, from: Endpoint, to: Endpoint, at_us: Micros, nonce: u64) -> Delivery {
        if !self.reachable(from, to, at_us) {
            return Delivery {
                copies: 0,
                delay_us: 0,
            };
        }
        let mut delay = 0;
        let mut copies: u8 = 1;
        let mut coin = 0u64;
        let mut flip = |salt: u64, per_mille: u16| -> bool {
            coin = coin.wrapping_add(1);
            let h = mix64(self.seed ^ mix64(at_us ^ nonce.rotate_left(17) ^ salt ^ coin));
            (h % 1000) < per_mille as u64
        };
        for e in [from, to] {
            if let Endpoint::Device(d) = e {
                if let Some(g) = self.gray_at(d, at_us) {
                    delay += g.delay_us;
                    if g.drop_per_mille > 0 && flip(0x6772_6179 ^ d.0 as u64, g.drop_per_mille) {
                        copies = 0;
                    }
                }
            }
        }
        for l in self.links.iter().filter(|l| l.matches(from, to, at_us)) {
            delay += l.delay_us;
            if l.drop_per_mille > 0 && flip(0x6c69_6e6b, l.drop_per_mille) {
                copies = 0;
            }
            if l.duplicate && copies > 0 {
                copies = 2;
            }
        }
        Delivery {
            copies,
            delay_us: delay,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    fn dev(n: u32) -> Endpoint {
        Endpoint::Device(DeviceId(n))
    }

    /// Random plans over devices `0..devices` with every fault window
    /// inside `0..horizon_us`: partitions of random islands, gray
    /// devices that delay and (mostly) drop, and link faults between
    /// the control plane and a device or between two devices. Windows
    /// start and end on a grid of `horizon_us / GRID`, so they often
    /// share edges with each other and with the times a test asks about.
    pub(crate) fn arb_plan(devices: u32, horizon_us: Micros) -> impl Strategy<Value = NetPlan> {
        let unit = horizon_us / GRID;
        let span = horizon_us / 3;
        let window =
            move || (0..GRID, 1..GRID / 3).prop_map(move |(from, len)| (from * unit, len * unit));
        let partitions = prop::collection::vec((1u32..1 << devices, window()), 0..4);
        let grays = prop::collection::vec(
            (
                0..devices,
                window(),
                0..span,
                prop_oneof![Just(0u16), 1u16..1000],
            ),
            0..4,
        );
        let links = prop::collection::vec(
            (
                0..devices + 1,
                0..devices,
                window(),
                (0u16..1000, 0..span, any::<bool>()),
            ),
            0..4,
        );
        (partitions, grays, links, any::<u64>()).prop_map(
            move |(partitions, grays, links, seed)| NetPlan {
                partitions: partitions
                    .into_iter()
                    .map(|(mask, (from_us, len))| Partition {
                        island: (0..devices)
                            .filter(|d| mask & (1 << d) != 0)
                            .map(DeviceId)
                            .collect(),
                        from_us,
                        until_us: from_us + len,
                    })
                    .collect(),
                grays: grays
                    .into_iter()
                    .map(|(d, (from_us, len), delay_us, drop_per_mille)| GrayFault {
                        device: DeviceId(d),
                        from_us,
                        until_us: from_us + len,
                        delay_us,
                        drop_per_mille,
                    })
                    .collect(),
                links: links
                    .into_iter()
                    .map(
                        |(a, b, (from_us, len), (drop_per_mille, delay_us, duplicate))| {
                            LinkFault {
                                // `devices` stands for the control plane.
                                a: if a == devices {
                                    Endpoint::Control
                                } else {
                                    dev(a)
                                },
                                b: dev(b),
                                from_us,
                                until_us: from_us + len,
                                drop_per_mille,
                                delay_us,
                                duplicate,
                            }
                        },
                    )
                    .collect(),
                seed,
            },
        )
    }

    /// Grid steps per horizon of [`arb_plan`]'s fault windows.
    const GRID: u64 = 40;

    #[test]
    fn partition_cuts_island_from_control_and_mainland_until_heal() {
        let plan = NetPlan {
            partitions: vec![Partition {
                island: vec![DeviceId(1), DeviceId(2)],
                from_us: 100,
                until_us: 200,
            }],
            ..Default::default()
        };
        // Before / after the window everything is reachable.
        for t in [0, 99, 200, 500] {
            assert!(plan.reachable(dev(1), Endpoint::Control, t));
            assert!(plan.reachable(dev(1), dev(3), t));
        }
        // During: island ↔ {control, mainland} is cut, island-internal
        // and mainland-internal traffic still flows.
        assert!(!plan.reachable(dev(1), Endpoint::Control, 150));
        assert!(!plan.reachable(dev(3), dev(2), 150));
        assert!(plan.reachable(dev(1), dev(2), 150));
        assert!(plan.reachable(dev(3), Endpoint::Control, 150));
        assert!(!plan.deliver(dev(1), Endpoint::Control, 150, 0).delivered());
    }

    #[test]
    fn gray_device_delays_and_drops_deterministically() {
        let plan = NetPlan {
            grays: vec![GrayFault {
                device: DeviceId(7),
                from_us: 0,
                until_us: 1_000,
                delay_us: 250,
                drop_per_mille: 500,
            }],
            seed: 42,
            ..Default::default()
        };
        let mut dropped = 0;
        for n in 0..200 {
            let d = plan.deliver(dev(7), Endpoint::Control, 10, n);
            let again = plan.deliver(dev(7), Endpoint::Control, 10, n);
            assert_eq!(d, again, "same (time, nonce) must resolve identically");
            if d.delivered() {
                assert_eq!(d.delay_us, 250);
            } else {
                dropped += 1;
            }
        }
        // ~50% drop rate; the exact count is seed-determined, but it
        // must be neither 0 nor total.
        assert!((40..160).contains(&dropped), "dropped = {dropped}");
        // Outside the window the device behaves normally.
        let after = plan.deliver(dev(7), Endpoint::Control, 2_000, 0);
        assert_eq!(
            after,
            Delivery {
                copies: 1,
                delay_us: 0
            }
        );
    }

    #[test]
    fn link_fault_applies_drop_delay_and_duplication_both_ways() {
        let plan = NetPlan {
            links: vec![LinkFault {
                a: dev(1),
                b: dev(2),
                from_us: 0,
                until_us: 100,
                drop_per_mille: 0,
                delay_us: 30,
                duplicate: true,
            }],
            ..Default::default()
        };
        for (f, t) in [(dev(1), dev(2)), (dev(2), dev(1))] {
            let d = plan.deliver(f, t, 50, 0);
            assert_eq!(
                d,
                Delivery {
                    copies: 2,
                    delay_us: 30
                }
            );
        }
        // Unrelated links are clean.
        let d = plan.deliver(dev(1), dev(3), 50, 0);
        assert_eq!(
            d,
            Delivery {
                copies: 1,
                delay_us: 0
            }
        );
    }

    #[test]
    fn shifted_rebases_every_window() {
        let plan = NetPlan {
            partitions: vec![Partition {
                island: vec![DeviceId(1)],
                from_us: 10,
                until_us: 20,
            }],
            grays: vec![GrayFault {
                device: DeviceId(2),
                from_us: 5,
                until_us: 15,
                delay_us: 1,
                drop_per_mille: 0,
            }],
            links: vec![LinkFault {
                a: dev(1),
                b: dev(2),
                from_us: 0,
                until_us: 8,
                drop_per_mille: 1000,
                delay_us: 0,
                duplicate: false,
            }],
            seed: 0,
        }
        .shifted(1_000);
        assert_eq!(plan.partitions[0].from_us, 1_010);
        assert_eq!(plan.partitions[0].until_us, 1_020);
        assert_eq!(plan.grays[0].from_us, 1_005);
        assert_eq!(plan.links[0].until_us, 1_008);
        assert_eq!(plan.horizon_us(), 1_020);
    }
}
