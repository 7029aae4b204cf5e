//! The heartbeat/lease failure detector.
//!
//! Every registered device emits a heartbeat to the control plane once
//! per lease, phase-staggered by a seeded hash so the fleet does not
//! beat in lockstep. Whether each beat *arrives* — and when — is decided
//! by the ground-truth crash state at emission time plus the
//! [`NetPlan`]: partitions cut beats outright, gray faults delay or
//! drop them. The detector itself sees only arrivals; its verdicts are
//! therefore honest (it cannot peek at the crash schedule), imperfect
//! (a partitioned or sufficiently gray device is indistinguishable from
//! a dead one), and deterministic.
//!
//! State machine per device, evaluated at every [`LeaseDetector::observe`]
//! poll against `silent = now − last_arrival`:
//!
//! ```text
//!            silent > lease              silent > lease × confirm_misses
//!   Alive ───────────────▶ Suspected ───────────────────▶ Confirmed
//!     ▲                        │                               │
//!     └────── beat arrives ────┘ (false suspect)               │
//!     └────────────────── beat arrives ────────────────────────┘ (resurrection)
//! ```
//!
//! A `Suspected` device that beats again recovers without any eviction
//! (a *false suspect*, counted by the caller); a `Confirmed` device that
//! beats again (healed partition, repaired hardware) is *resurrected*.
//! The detection bound for a true crash at `t` is
//! `t + lease × confirm_misses + poll interval`: the last accepted beat
//! is at most one lease old when the device dies, so the confirm
//! threshold is crossed no later than `t + lease × confirm_misses`, and
//! the next poll observes it.
//!
//! A device that crashes and is back before that bound is never
//! confirmed, yet the crash wiped what it held. Every beat therefore
//! carries its device's boot epoch (the crash events so far), and a
//! beat from a newer boot than the last one heard reports the device as
//! *restarted* — unless a confirmation already covered the outage.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use udc_hal::clock::Micros;
use udc_hal::{DeviceId, FailureEvent};

use crate::mix64;
use crate::netplan::{Endpoint, NetPlan};

/// Detector tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// Heartbeat period — one beat per device per lease.
    pub lease_us: Micros,
    /// Leases of silence before a `Suspected` device is `Confirmed`
    /// dead (must be ≥ 1; values below are clamped).
    pub confirm_misses: u32,
    /// Seed for heartbeat phase staggering.
    pub seed: u64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self {
            lease_us: 100_000,
            confirm_misses: 3,
            seed: 0x75dc_1ea5,
        }
    }
}

impl DetectorConfig {
    /// The provable detection bound for a true crash: confirmation
    /// happens within this many microseconds of the crash, plus the
    /// caller's poll interval.
    pub fn detection_bound_us(&self) -> Micros {
        self.lease_us * self.confirm_misses.max(1) as Micros
    }
}

/// The detector's belief about one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Suspicion {
    /// Beating within its lease.
    Alive,
    /// Missed at least one lease; held out of service but not evicted.
    Suspected {
        /// When the suspicion started.
        since_us: Micros,
    },
    /// Missed `confirm_misses` leases; treated as dead (evict + re-place).
    Confirmed {
        /// When the confirmation happened.
        since_us: Micros,
    },
}

/// Per-device detector state.
#[derive(Debug, Clone)]
struct Track {
    /// Ground-truth emission state (a crashed device sends no beats).
    up: bool,
    /// Crash events so far: the boot epoch every beat carries.
    boot: u64,
    /// The newest boot epoch a received beat carried.
    heard_boot: u64,
    /// Arrival time of the freshest heartbeat received.
    last_beat_us: Micros,
    /// Next scheduled emission.
    next_emit_us: Micros,
    /// Beats in flight, as (arrival, boot epoch): delayed by gray faults
    /// past the current poll.
    pending: Vec<(Micros, u64)>,
    /// Emission sequence number (the delivery nonce).
    seq: u64,
    /// Current verdict.
    state: Suspicion,
}

/// What one [`LeaseDetector::observe`] poll changed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DetectorReport {
    /// `Alive → Suspected` this poll.
    pub newly_suspected: Vec<DeviceId>,
    /// `* → Confirmed` this poll — the caller evicts and re-places.
    pub newly_confirmed: Vec<DeviceId>,
    /// `Suspected → Alive` this poll: the device beat again before
    /// confirmation and returns to service with no eviction.
    pub false_suspects: Vec<DeviceId>,
    /// `Confirmed → Alive` this poll: beats resumed after a repair or a
    /// healed partition.
    pub resurrected: Vec<DeviceId>,
    /// Beats from a new boot this poll, from a device no confirmation
    /// covered: it crashed and came back inside the detection bound, so
    /// what it held is gone — the caller evicts and re-places, though
    /// the device itself is alive.
    pub restarted: Vec<DeviceId>,
}

impl DetectorReport {
    /// True when no verdict changed.
    pub fn is_quiet(&self) -> bool {
        self.newly_suspected.is_empty()
            && self.newly_confirmed.is_empty()
            && self.false_suspects.is_empty()
            && self.resurrected.is_empty()
            && self.restarted.is_empty()
    }
}

/// The deterministic heartbeat/lease failure detector.
#[derive(Debug, Clone)]
pub struct LeaseDetector {
    config: DetectorConfig,
    tracks: BTreeMap<DeviceId, Track>,
    /// Every emission and arrival up to here has been taken: each
    /// track's next emission lies after it.
    last_poll_us: Micros,
}

impl LeaseDetector {
    /// A detector over `devices`, all assumed up and freshly leased at
    /// `now`.
    pub fn new(
        config: DetectorConfig,
        devices: impl IntoIterator<Item = DeviceId>,
        now: Micros,
    ) -> Self {
        let mut det = Self {
            config: DetectorConfig {
                confirm_misses: config.confirm_misses.max(1),
                ..config
            },
            tracks: BTreeMap::new(),
            last_poll_us: now,
        };
        for d in devices {
            det.register(d, true, now);
        }
        det
    }

    /// Registers one device. `up` is its ground-truth state at `now`; a
    /// device registered down starts with a fresh lease and is
    /// suspected/confirmed by silence like any other.
    pub fn register(&mut self, d: DeviceId, up: bool, now: Micros) {
        let lease = self.config.lease_us.max(1);
        let phase = mix64(self.config.seed ^ ((d.0 as u64) << 1 | 1)) % lease;
        // First emission strictly after `now`, on the device's
        // phase-staggered grid — at most one lease away, so a healthy
        // device can never look silent for more than a lease.
        let next_emit_us = if now < phase {
            phase
        } else {
            phase + ((now - phase) / lease + 1) * lease
        };
        self.tracks.insert(
            d,
            Track {
                up,
                boot: 0,
                heard_boot: 0,
                last_beat_us: now,
                next_emit_us,
                pending: Vec::new(),
                seq: 0,
                state: Suspicion::Alive,
            },
        );
        self.last_poll_us = self.last_poll_us.min(now);
    }

    /// The tuning in effect.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// The current verdict for `d` (`Alive` if unregistered).
    pub fn suspicion(&self, d: DeviceId) -> Suspicion {
        self.tracks
            .get(&d)
            .map(|t| t.state)
            .unwrap_or(Suspicion::Alive)
    }

    /// Devices currently `Confirmed` dead, in id order.
    pub fn confirmed(&self) -> Vec<DeviceId> {
        self.tracks
            .iter()
            .filter(|(_, t)| matches!(t.state, Suspicion::Confirmed { .. }))
            .map(|(d, _)| *d)
            .collect()
    }

    /// Devices currently `Suspected`, in id order.
    pub fn suspected(&self) -> Vec<DeviceId> {
        self.tracks
            .iter()
            .filter(|(_, t)| matches!(t.state, Suspicion::Suspected { .. }))
            .map(|(d, _)| *d)
            .collect()
    }

    /// Advances the detector to `now`: replays heartbeat emissions in
    /// `(last_poll, now]` against the ground-truth `events` of the same
    /// window (sorted by time, as
    /// [`TickReport::events`](udc_hal::TickReport) delivers them) and
    /// the net plan, then re-evaluates every device's verdict at `now`.
    ///
    /// A second poll at the same `now` with no new events returns the
    /// empty report without looking at any device. That is exact: no
    /// beat can be emitted or land in an empty window, and a verdict
    /// depends only on `now − last_arrival`, which has not moved.
    pub fn observe(
        &mut self,
        now: Micros,
        events: &[FailureEvent],
        net: &NetPlan,
    ) -> DetectorReport {
        let mut report = DetectorReport::default();
        if now == self.last_poll_us && events.is_empty() {
            return report;
        }
        let lease = self.config.lease_us.max(1);
        let confirm_after = lease * self.config.confirm_misses as Micros;
        for (&d, t) in self.tracks.iter_mut() {
            // The newest boot epoch heard once this poll's beats land.
            let mut heard = t.heard_boot;
            // Gray-delayed beats emitted before this window may land now.
            t.pending.retain(|&(arr, boot)| {
                if arr <= now {
                    t.last_beat_us = t.last_beat_us.max(arr);
                    heard = heard.max(boot);
                    false
                } else {
                    true
                }
            });
            // Replay emissions interleaved with this device's
            // ground-truth transitions, in time order.
            let mut dev_events = events.iter().filter(|e| e.device == d).peekable();
            while t.next_emit_us <= now {
                let te = t.next_emit_us;
                while let Some(e) = dev_events.peek() {
                    if e.at_us <= te {
                        t.apply(e);
                        dev_events.next();
                    } else {
                        break;
                    }
                }
                if t.up {
                    let del = net.deliver(Endpoint::Device(d), Endpoint::Control, te, t.seq);
                    if del.delivered() {
                        let arrival = te + del.delay_us;
                        if arrival <= now {
                            t.last_beat_us = t.last_beat_us.max(arrival);
                            heard = heard.max(t.boot);
                        } else {
                            t.pending.push((arrival, t.boot));
                        }
                    }
                }
                t.seq += 1;
                t.next_emit_us += lease;
            }
            for e in dev_events {
                t.apply(e);
            }
            // Verdict at `now`. A beat from a new boot means a crash the
            // verdicts never saw, unless the device was confirmed dead
            // across it.
            let silent = now.saturating_sub(t.last_beat_us);
            let old = t.state;
            let restarted = heard > t.heard_boot && !matches!(old, Suspicion::Confirmed { .. });
            t.heard_boot = heard;
            if silent <= lease {
                t.state = Suspicion::Alive;
                match old {
                    Suspicion::Suspected { .. } if !restarted => report.false_suspects.push(d),
                    Suspicion::Confirmed { .. } => report.resurrected.push(d),
                    _ => {}
                }
            } else if silent > confirm_after {
                if !matches!(old, Suspicion::Confirmed { .. }) {
                    t.state = Suspicion::Confirmed { since_us: now };
                    report.newly_confirmed.push(d);
                }
            } else if matches!(old, Suspicion::Alive) {
                // Between the lease and the confirm threshold: suspect,
                // but keep an existing Confirmed verdict sticky until a
                // fresh beat proves life.
                t.state = Suspicion::Suspected { since_us: now };
                report.newly_suspected.push(d);
            }
            // Confirmed this poll: the eviction covers the crash.
            if restarted && !matches!(t.state, Suspicion::Confirmed { .. }) {
                report.restarted.push(d);
            }
        }
        self.last_poll_us = now;
        report
    }
}

impl Track {
    /// Applies one ground-truth transition; a crash of a running device
    /// starts a new boot epoch.
    fn apply(&mut self, e: &FailureEvent) {
        if e.crash && self.up {
            self.boot += 1;
        }
        self.up = !e.crash;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netplan::{GrayFault, Partition};
    use proptest::prelude::*;

    const LEASE: Micros = 100_000;

    fn config() -> DetectorConfig {
        DetectorConfig {
            lease_us: LEASE,
            confirm_misses: 3,
            seed: 7,
        }
    }

    fn devices(n: u32) -> Vec<DeviceId> {
        (0..n).map(DeviceId).collect()
    }

    fn crash(at_us: Micros, d: u32) -> FailureEvent {
        FailureEvent {
            at_us,
            device: DeviceId(d),
            crash: true,
        }
    }

    fn repair(at_us: Micros, d: u32) -> FailureEvent {
        FailureEvent {
            at_us,
            device: DeviceId(d),
            crash: false,
        }
    }

    #[test]
    fn healthy_reachable_devices_are_never_suspected() {
        let mut det = LeaseDetector::new(config(), devices(8), 0);
        let net = NetPlan::none();
        for step in 1..=40u64 {
            let r = det.observe(step * 250_000, &[], &net);
            assert!(r.is_quiet(), "step {step}: {r:?}");
        }
        assert!(det.confirmed().is_empty());
        assert!(det.suspected().is_empty());
    }

    #[test]
    fn true_crash_confirms_within_lease_times_threshold_plus_poll() {
        let cfg = config();
        let mut det = LeaseDetector::new(cfg, devices(4), 0);
        let net = NetPlan::none();
        let crash_at = 400_000;
        let step = 50_000;
        let mut confirmed_at = None;
        for s in 1..=100u64 {
            let now = s * step;
            let evs = if (now - step) < crash_at && crash_at <= now {
                vec![crash(crash_at, 2)]
            } else {
                vec![]
            };
            let r = det.observe(now, &evs, &net);
            if r.newly_confirmed.contains(&DeviceId(2)) {
                confirmed_at = Some(now);
                break;
            }
            assert!(!r.newly_confirmed.iter().any(|d| d.0 != 2));
        }
        let at = confirmed_at.expect("crash must be confirmed");
        assert!(
            at <= crash_at + cfg.detection_bound_us() + step,
            "confirmed at {at}, bound {}",
            crash_at + cfg.detection_bound_us() + step
        );
        // And suspicion strictly precedes confirmation in time.
        assert!(at > crash_at);
    }

    #[test]
    fn repaired_device_resurrects() {
        let mut det = LeaseDetector::new(config(), devices(2), 0);
        let net = NetPlan::none();
        // 400µs of silence by the first poll already crosses the
        // 3-lease confirm threshold.
        let r = det.observe(500_000, &[crash(100_000, 1)], &net);
        assert_eq!(r.newly_confirmed, vec![DeviceId(1)]);
        let r = det.observe(1_000_000, &[], &net);
        assert!(r.is_quiet(), "verdict is sticky: {r:?}");
        // The first beat after the repair lands within a lease of the
        // next poll, resurrecting the device.
        let r = det.observe(1_250_000, &[repair(1_100_000, 1)], &net);
        assert_eq!(r.resurrected, vec![DeviceId(1)]);
        assert!(r.restarted.is_empty(), "the confirmation covered the crash");
        assert_eq!(det.suspicion(DeviceId(1)), Suspicion::Alive);
    }

    #[test]
    fn restart_inside_the_bound_is_reported_once() {
        let mut det = LeaseDetector::new(config(), devices(2), 0);
        let net = NetPlan::none();
        // Down for half a lease: silence never reaches the three-lease
        // confirm threshold, but the device rebooted all the same.
        let schedule = [crash(10_000, 1), repair(60_000, 1)];
        let mut restarted = Vec::new();
        for s in 1..=20u64 {
            let now = s * 50_000;
            let window: Vec<FailureEvent> = schedule
                .iter()
                .copied()
                .filter(|e| now - 50_000 < e.at_us && e.at_us <= now)
                .collect();
            let r = det.observe(now, &window, &net);
            assert!(r.newly_confirmed.is_empty() && r.false_suspects.is_empty());
            restarted.extend(r.restarted);
        }
        assert_eq!(restarted, vec![DeviceId(1)]);
        assert_eq!(det.suspicion(DeviceId(1)), Suspicion::Alive);
    }

    #[test]
    fn silence_without_a_crash_is_never_a_restart() {
        // A gray delay and a partition shorter than the confirm bound
        // silence devices without rebooting them: they come back as
        // false suspects, exactly as before boot epochs, never restarts.
        let mut det = LeaseDetector::new(config(), devices(3), 0);
        let net = NetPlan {
            grays: vec![GrayFault {
                device: DeviceId(0),
                from_us: 150_000,
                until_us: 1_150_000,
                delay_us: 2 * LEASE,
                drop_per_mille: 0,
            }],
            partitions: vec![Partition {
                island: vec![DeviceId(1)],
                from_us: 200_000,
                until_us: 400_000,
            }],
            ..Default::default()
        };
        let mut false_suspects = Vec::new();
        for s in 1..=24u64 {
            let r = det.observe(s * 125_000, &[], &net);
            assert!(
                r.restarted.is_empty() && r.newly_confirmed.is_empty(),
                "poll {s}: {r:?}"
            );
            false_suspects.extend(r.false_suspects);
        }
        false_suspects.sort();
        false_suspects.dedup();
        assert_eq!(false_suspects, vec![DeviceId(0), DeviceId(1)]);
    }

    #[test]
    fn partitioned_island_is_confirmed_then_resurrects_on_heal() {
        let cfg = config();
        let mut det = LeaseDetector::new(cfg, devices(4), 0);
        let net = NetPlan {
            partitions: vec![Partition {
                island: vec![DeviceId(0), DeviceId(1)],
                from_us: 200_000,
                until_us: 1_400_000,
            }],
            ..Default::default()
        };
        let mut confirmed = Vec::new();
        let mut resurrected = Vec::new();
        for s in 1..=16u64 {
            let r = det.observe(s * 125_000, &[], &net);
            confirmed.extend(r.newly_confirmed);
            resurrected.extend(r.resurrected);
        }
        confirmed.sort();
        resurrected.sort();
        assert_eq!(confirmed, vec![DeviceId(0), DeviceId(1)]);
        assert_eq!(resurrected, vec![DeviceId(0), DeviceId(1)]);
        // Mainland devices were never even suspected.
        assert_eq!(det.suspicion(DeviceId(2)), Suspicion::Alive);
        assert_eq!(det.suspicion(DeviceId(3)), Suspicion::Alive);
    }

    #[test]
    fn gray_delay_causes_false_suspects_but_no_confirm_below_threshold() {
        let cfg = config();
        let mut det = LeaseDetector::new(cfg, devices(2), 0);
        // Beats delayed by 2 leases: silence oscillates in
        // (lease, 3×lease), so the device is suspected but never
        // confirmed (threshold is strict), and recovers at fault end.
        let net = NetPlan {
            grays: vec![GrayFault {
                device: DeviceId(0),
                from_us: 150_000,
                until_us: 1_150_000,
                delay_us: 2 * LEASE,
                drop_per_mille: 0,
            }],
            ..Default::default()
        };
        let mut suspected = 0;
        let mut false_suspects = 0;
        for s in 1..=24u64 {
            let r = det.observe(s * 125_000, &[], &net);
            suspected += r.newly_suspected.len();
            false_suspects += r.false_suspects.len();
            assert!(
                r.newly_confirmed.is_empty(),
                "gray delay of 2 leases must not confirm"
            );
        }
        assert!(
            suspected >= 1,
            "gray device must be suspected at least once"
        );
        assert!(
            false_suspects >= 1,
            "recovery must be counted as a false suspect"
        );
        assert_eq!(det.suspicion(DeviceId(0)), Suspicion::Alive);
    }

    #[test]
    fn observe_is_deterministic_across_clones() {
        let cfg = config();
        let net = NetPlan {
            grays: vec![GrayFault {
                device: DeviceId(1),
                from_us: 0,
                until_us: 900_000,
                delay_us: 70_000,
                drop_per_mille: 400,
            }],
            seed: 99,
            ..Default::default()
        };
        let mut a = LeaseDetector::new(cfg, devices(6), 0);
        let mut b = a.clone();
        for s in 1..=20u64 {
            let evs = if s == 4 {
                vec![crash(s * 100_000 - 1, 3)]
            } else {
                vec![]
            };
            assert_eq!(
                a.observe(s * 100_000, &evs, &net),
                b.observe(s * 100_000, &evs, &net)
            );
        }
    }

    proptest! {
        /// Polling k times at one `now` is polling once: the first poll
        /// of a tick reports what a single full poll does, the repeats
        /// (answered by the shortcut) report nothing, and every device
        /// ends with the same verdict — under any crash/repair schedule
        /// and any network plan.
        #[test]
        fn repeat_polls_at_one_instant_change_nothing(
            seed in any::<u64>(),
            net in crate::netplan::tests::arb_plan(6, 40_000),
            step in prop::sample::select(vec![300u64, 700, 1_500]),
            schedule in prop::collection::vec((0u64..40_000, 0u32..6, any::<bool>()), 0..12),
            repeats in prop::collection::vec(1usize..=16, 24),
        ) {
            let cfg = DetectorConfig { lease_us: 1_000, confirm_misses: 3, seed };
            let mut once = LeaseDetector::new(cfg, devices(6), 0);
            let mut many = once.clone();
            let mut evs: Vec<FailureEvent> = schedule
                .into_iter()
                .map(|(at_us, d, down)| FailureEvent { at_us, device: DeviceId(d), crash: down })
                .collect();
            evs.sort_by_key(|e| e.at_us);
            for (tick, k) in repeats.into_iter().enumerate() {
                let now = (tick as u64 + 1) * step;
                let window: Vec<FailureEvent> = evs
                    .iter()
                    .copied()
                    .filter(|e| now - step < e.at_us && e.at_us <= now)
                    .collect();
                // An event for a device the detector does not track moves
                // nothing, but keeps `once` off the shortcut: its poll is
                // always the full evaluation.
                let mut full = window.clone();
                full.push(repair(now, 99));
                let single = once.observe(now, &full, &net);
                let mut joined = many.observe(now, &window, &net);
                for _ in 1..k {
                    let r = many.observe(now, &[], &net);
                    joined.newly_suspected.extend(r.newly_suspected);
                    joined.newly_confirmed.extend(r.newly_confirmed);
                    joined.false_suspects.extend(r.false_suspects);
                    joined.resurrected.extend(r.resurrected);
                    joined.restarted.extend(r.restarted);
                }
                prop_assert_eq!(&single, &joined, "tick {} polled {} times", tick, k);
                for d in devices(6) {
                    prop_assert_eq!(once.suspicion(d), many.suspicion(d));
                }
            }
        }

        /// No false confirms absent gray faults: whatever the crash
        /// schedule, a device that is up and reachable for the whole run
        /// is never suspected, let alone confirmed — and every device
        /// that stays down long enough is confirmed within the bound.
        #[test]
        fn detector_is_sound_and_live_without_gray_faults(
            seed in 0u64..1_000,
            step in prop::sample::select(vec![50_000u64, 125_000, 250_000]),
            victims in prop::collection::vec(0u32..6, 0..4),
        ) {
            let cfg = DetectorConfig { lease_us: LEASE, confirm_misses: 3, seed };
            let mut det = LeaseDetector::new(cfg, devices(6), 0);
            let net = NetPlan::none();
            // Victims crash at staggered times and stay down.
            let mut evs: Vec<FailureEvent> = victims
                .iter()
                .enumerate()
                .map(|(i, &v)| crash(100_000 + 50_000 * i as u64, v))
                .collect();
            evs.sort_by_key(|e| e.at_us);
            let down: std::collections::BTreeSet<u32> = victims.iter().copied().collect();
            let horizon = 3_000_000u64;
            let mut confirm_times: std::collections::BTreeMap<u32, u64> = Default::default();
            let mut now = 0;
            while now < horizon {
                now += step;
                let window: Vec<FailureEvent> = evs
                    .iter()
                    .copied()
                    .filter(|e| now - step < e.at_us && e.at_us <= now)
                    .collect();
                let r = det.observe(now, &window, &net);
                for d in &r.newly_suspected {
                    prop_assert!(down.contains(&d.0), "suspected live device {d}");
                }
                for d in &r.newly_confirmed {
                    prop_assert!(down.contains(&d.0), "confirmed live device {d}");
                    confirm_times.insert(d.0, now);
                }
                prop_assert!(r.false_suspects.is_empty());
            }
            for e in &evs {
                let at = confirm_times.get(&e.device.0).copied();
                prop_assert!(at.is_some(), "crashed device {} never confirmed", e.device);
                prop_assert!(
                    at.unwrap() <= e.at_us + cfg.detection_bound_us() + step,
                    "device {} confirmed at {:?}, crash {} bound {}",
                    e.device, at, e.at_us, cfg.detection_bound_us()
                );
            }
        }
    }
}
