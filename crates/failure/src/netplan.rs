//! Deterministic network-fault schedules.
//!
//! [`FailurePlan`](udc_hal::FailurePlan) models fail-stop crashes; real
//! ad hoc clouds also see *partial* failures — islands of devices cut
//! off from the control plane, and gray members that are up but slow or
//! flaky. A [`NetPlan`] is the seeded, time-indexed schedule of those
//! faults, as the heartbeats a device sends the control plane see them.
//! It is pure: every query is a function of `(plan, device, time,
//! nonce)`, so delivery outcomes are reproducible across runs and
//! thread counts.

use udc_hal::clock::Micros;
use udc_hal::DeviceId;

use crate::mix64;

/// An island of devices cut off from the control plane for
/// `[from_us, until_us)`, then healed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
    fn cuts(&self, d: DeviceId, now: Micros) -> bool {
        self.from_us <= now && now < self.until_us && self.island.contains(&d)
    }
}

/// A *gray* device: up (it still executes and holds its allocations)
/// but slow or flaky towards the network, so its heartbeats arrive late
/// or not at all. Gray faults are what make false suspicion — and, when
/// severe enough, false *confirmation* — possible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrayFault {
    /// The affected device.
    pub device: DeviceId,
    /// Fault window start (inclusive).
    pub from_us: Micros,
    /// Fault window end (exclusive).
    pub until_us: Micros,
    /// Extra one-way delay added to every heartbeat the device sends
    /// while gray.
    pub delay_us: Micros,
    /// Per-heartbeat drop probability in thousandths (0..=1000).
    pub drop_per_mille: u16,
}

impl GrayFault {
    fn active(&self, now: Micros) -> bool {
        self.from_us <= now && now < self.until_us
    }
}

/// A deterministic schedule of network faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetPlan {
    /// Islands cut off from the control plane, with heal times.
    pub partitions: Vec<Partition>,
    /// Gray (slow/flaky but up) devices.
    pub grays: Vec<GrayFault>,
    /// Seed for the drop coin flips.
    pub seed: u64,
}

impl NetPlan {
    /// A plan with no faults at all.
    pub fn none() -> Self {
        Self::default()
    }

    /// The gray fault affecting `d` at `now`, if any: the first listed.
    fn gray_at(&self, d: DeviceId, now: Micros) -> Option<&GrayFault> {
        self.grays.iter().find(|g| g.device == d && g.active(now))
    }

    /// Resolves the heartbeat `d` sends the control plane at `at_us`:
    /// `None` when it is lost (a partition cuts `d` off, or its gray
    /// fault drops it), else the extra delay it arrives with. `nonce`
    /// distinguishes beats sent at the same instant (a beat sequence
    /// number) so their coin flips are independent yet reproducible.
    ///
    /// Kept out of line: inlined into [`LeaseDetector::observe`]'s
    /// per-beat loop, it grew that function by a third, and the
    /// end-to-end benchmark's `fleet_attached` tick (lease detection on)
    /// ran ~10 % slower at the median on a 2-core Xeon. The partition
    /// scan is a plain loop for the same caller: written with
    /// `Iterator::any`, it left `observe` 15 % larger.
    ///
    /// [`LeaseDetector::observe`]: crate::LeaseDetector::observe
    #[inline(never)]
    pub fn deliver(&self, d: DeviceId, at_us: Micros, nonce: u64) -> Option<Micros> {
        for p in &self.partitions {
            if p.cuts(d, at_us) {
                return None;
            }
        }
        let Some(g) = self.gray_at(d, at_us) else {
            return Some(0);
        };
        if g.drop_per_mille > 0 {
            // The coin's inputs are part of every committed chaos
            // artifact: salt `"gray" ^ device`, flip number 1.
            let salt = 0x6772_6179 ^ d.0 as u64;
            let h = mix64(self.seed ^ mix64(at_us ^ nonce.rotate_left(17) ^ salt ^ 1));
            if h % 1000 < g.drop_per_mille as u64 {
                return None;
            }
        }
        Some(g.delay_us)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Random plans over devices `0..devices` with every fault window
    /// inside `0..horizon_us`: partitions of random islands, and gray
    /// devices that delay and drop some, none or all of their beats.
    /// Windows start and end on a grid of `horizon_us / GRID`, so they
    /// often share edges with each other and with the times a test asks
    /// about.
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
                prop_oneof![Just(0u16), 1u16..1000, Just(1000u16)],
            ),
            0..8,
        );
        (partitions, grays, any::<u64>()).prop_map(move |(partitions, grays, seed)| NetPlan {
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
            seed,
        })
    }

    /// Grid steps per horizon of [`arb_plan`]'s fault windows.
    const GRID: u64 = 40;

    fn island(devices: &[u32], from_us: Micros, until_us: Micros) -> Partition {
        Partition {
            island: devices.iter().copied().map(DeviceId).collect(),
            from_us,
            until_us,
        }
    }

    fn gray(d: u32, from_us: Micros, until_us: Micros, delay_us: Micros, drop: u16) -> GrayFault {
        GrayFault {
            device: DeviceId(d),
            from_us,
            until_us,
            delay_us,
            drop_per_mille: drop,
        }
    }

    #[test]
    fn partition_cuts_island_from_control_until_heal() {
        let plan = NetPlan {
            partitions: vec![island(&[1, 2], 100, 200)],
            ..NetPlan::none()
        };
        // Before / after the window every beat arrives on time.
        for t in [0, 99, 200, 500] {
            for d in 1..=3 {
                assert_eq!(plan.deliver(DeviceId(d), t, 0), Some(0), "t = {t}");
            }
        }
        // During: the island's beats are cut, the mainland's flow.
        assert_eq!(plan.deliver(DeviceId(1), 150, 0), None);
        assert_eq!(plan.deliver(DeviceId(2), 150, 0), None);
        assert_eq!(plan.deliver(DeviceId(3), 150, 0), Some(0));
    }

    #[test]
    fn a_partition_window_is_half_open() {
        let plan = NetPlan {
            partitions: vec![island(&[4], 1_000, 2_000)],
            ..NetPlan::none()
        };
        for nonce in 0..8 {
            let at = |t| plan.deliver(DeviceId(4), t, nonce);
            assert_eq!(
                [at(999), at(1_000), at(1_999), at(2_000)],
                [Some(0), None, None, Some(0)]
            );
        }
    }

    #[test]
    fn a_partition_wins_over_a_gray_fault() {
        // A device both cut off and gray gets nothing while the
        // partition lasts, whatever the gray fault would have let
        // through, and the gray delay once it heals.
        let plan = NetPlan {
            partitions: vec![island(&[3], 100, 200)],
            grays: vec![gray(3, 0, 300, 40, 0)],
            seed: 11,
        };
        for nonce in 0..16 {
            assert_eq!(plan.deliver(DeviceId(3), 50, nonce), Some(40));
            assert_eq!(plan.deliver(DeviceId(3), 150, nonce), None);
            assert_eq!(plan.deliver(DeviceId(3), 250, nonce), Some(40));
        }
    }

    #[test]
    fn gray_device_delays_and_drops_deterministically() {
        let plan = NetPlan {
            grays: vec![gray(7, 0, 1_000, 250, 500)],
            seed: 42,
            ..NetPlan::none()
        };
        let mut dropped = 0;
        for n in 0..200 {
            let d = plan.deliver(DeviceId(7), 10, n);
            let again = plan.deliver(DeviceId(7), 10, n);
            assert_eq!(d, again, "same (time, nonce) must resolve identically");
            match d {
                Some(delay_us) => assert_eq!(delay_us, 250),
                None => dropped += 1,
            }
        }
        // ~50% drop rate; the exact count is seed-determined, but it
        // must be neither 0 nor total.
        assert!((40..160).contains(&dropped), "dropped = {dropped}");
        // Outside the window the device behaves normally.
        assert_eq!(plan.deliver(DeviceId(7), 2_000, 0), Some(0));
    }

    #[test]
    fn a_total_loss_gray_drops_every_beat_and_a_clean_one_none() {
        let plan = NetPlan {
            grays: vec![gray(1, 0, 1_000, 5, 1000), gray(2, 0, 1_000, 5, 0)],
            seed: 3,
            ..NetPlan::none()
        };
        for t in (0..1_000).step_by(37) {
            for nonce in 0..8 {
                assert_eq!(plan.deliver(DeviceId(1), t, nonce), None);
                assert_eq!(plan.deliver(DeviceId(2), t, nonce), Some(5));
            }
        }
    }

    #[test]
    fn a_gray_window_is_half_open() {
        let plan = NetPlan {
            grays: vec![gray(6, 1_000, 2_000, 70, 0)],
            ..NetPlan::none()
        };
        let at = |t| plan.deliver(DeviceId(6), t, 0);
        assert_eq!(
            [at(999), at(1_000), at(1_999), at(2_000)],
            [Some(0), Some(70), Some(70), Some(0)]
        );
    }

    #[test]
    fn the_seed_drives_the_drop_coin() {
        let lossy = |seed| NetPlan {
            grays: vec![gray(2, 0, 1_000, 0, 500)],
            seed,
            ..NetPlan::none()
        };
        let pattern = |plan: &NetPlan| -> Vec<bool> {
            (0..64)
                .map(|n| plan.deliver(DeviceId(2), 10, n).is_some())
                .collect()
        };
        assert_eq!(pattern(&lossy(1)), pattern(&lossy(1)));
        assert_ne!(pattern(&lossy(1)), pattern(&lossy(2)));
    }

    proptest! {
        /// Whatever the plan, a beat is lost inside any partition of its
        /// device, else carries the first active gray fault's delay, and
        /// only a lossy gray fault can drop it.
        #[test]
        fn deliver_is_what_the_plan_says(
            plan in arb_plan(6, 40_000),
            d in 0u32..6,
            at_us in 0u64..40_000,
            nonce in any::<u64>(),
        ) {
            let d = DeviceId(d);
            let live = |from_us: Micros, until_us: Micros| from_us <= at_us && at_us < until_us;
            let cut = plan.partitions.iter().any(|p| live(p.from_us, p.until_us) && p.island.contains(&d));
            let gray = plan.grays.iter().find(|g| g.device == d && live(g.from_us, g.until_us));
            let got = plan.deliver(d, at_us, nonce);
            match (cut, gray) {
                (true, _) => prop_assert_eq!(got, None),
                (false, None) => prop_assert_eq!(got, Some(0)),
                (false, Some(g)) => match g.drop_per_mille {
                    0 => prop_assert_eq!(got, Some(g.delay_us)),
                    1000 => prop_assert_eq!(got, None),
                    _ => prop_assert!(got.is_none() || got == Some(g.delay_us)),
                },
            }
        }
    }

    /// One heartbeat's fate as a character: `-` when it is cut or
    /// dropped, else its extra delay (`0`, or the letter of one of the
    /// golden plan's gray delays).
    fn beat(plan: &NetPlan, d: u32, at_us: Micros, nonce: u64) -> char {
        match plan.deliver(DeviceId(d), at_us, nonce) {
            None => '-',
            Some(delay_us) => match [0, 50, 80, 120, 300].iter().position(|&x| x == delay_us) {
                Some(i) => char::from(b"0abcd"[i]),
                None => panic!("unexpected delay {delay_us}"),
            },
        }
    }

    #[test]
    fn heartbeat_delivery_is_pinned() {
        // Overlapping partitions (device 2 sits in both islands), a
        // gray delay under a partition (device 2), two overlapping gray
        // windows on one device (device 4: the first listed wins) and
        // one lossy gray (device 5).
        let plan = NetPlan {
            partitions: vec![island(&[1, 2], 200, 600), island(&[2, 3], 400, 900)],
            grays: vec![
                gray(2, 100, 700, 300, 0),
                gray(4, 0, 500, 50, 0),
                gray(4, 300, 1_000, 80, 0),
                gray(5, 200, 1_000, 120, 400),
            ],
            seed: 0x5eed,
        };
        // One row per device; one group of four nonces per time
        // 0, 100, …, 1 100.
        let group = |d, t: Micros| {
            (0..4)
                .map(|n| beat(&plan, d, t * 100, n))
                .collect::<String>()
        };
        let rows: Vec<String> = (0..6)
            .map(|d| (0..12).map(|t| group(d, t)).collect::<Vec<_>>().join(" "))
            .collect();
        let golden = [
            "0000 0000 0000 0000 0000 0000 0000 0000 0000 0000 0000 0000",
            "0000 0000 ---- ---- ---- ---- 0000 0000 0000 0000 0000 0000",
            "0000 dddd ---- ---- ---- ---- ---- ---- ---- 0000 0000 0000",
            "0000 0000 0000 0000 ---- ---- ---- ---- ---- 0000 0000 0000",
            "aaaa aaaa aaaa aaaa aaaa bbbb bbbb bbbb bbbb bbbb 0000 0000",
            "0000 0000 --cc --c- cc-c cccc cc-- ccc- c-c- c-c- 0000 0000",
        ];
        assert_eq!(rows, golden);
    }
}
