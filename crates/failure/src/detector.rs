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

use udc_hal::clock::Micros;
use udc_hal::{DeviceId, FailureEvent};

use crate::mix64;
use crate::netplan::{Live, NetPlan};

/// Detector tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectorConfig {
    /// Heartbeat period — one beat per device per lease (at least 1 µs;
    /// 0 is clamped).
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
    /// caller's poll interval. Saturates rather than overflow.
    pub fn detection_bound_us(&self) -> Micros {
        self.lease_us
            .max(1)
            .saturating_mul(self.confirm_misses.max(1) as Micros)
    }
}

/// The detector's belief about one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    /// One track per registered device, in id order.
    tracks: Vec<(DeviceId, Track)>,
    /// Every emission and arrival up to here has been taken: each
    /// track's next emission lies after it.
    last_poll_us: Micros,
    /// Scratch for one poll, kept so a poll allocates nothing once it
    /// has grown: the net plan's faults live in the poll's window ...
    live: Live,
    /// ... and the poll's events as (device, index), in device order and
    /// within a device in the order the caller listed them.
    by_device: Vec<(DeviceId, usize)>,
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
                lease_us: config.lease_us.max(1),
                confirm_misses: config.confirm_misses.max(1),
                ..config
            },
            tracks: Vec::new(),
            last_poll_us: now,
            live: Live::default(),
            by_device: Vec::new(),
        };
        for d in devices {
            det.register(d, true, now);
        }
        det
    }

    /// Registers one device. `up` is its ground-truth state at `now`; a
    /// device registered down starts with a fresh lease and is
    /// suspected/confirmed by silence like any other. Registering a
    /// tracked device starts its track afresh.
    pub fn register(&mut self, d: DeviceId, up: bool, now: Micros) {
        let lease = self.config.lease_us;
        let phase = mix64(self.config.seed ^ ((d.0 as u64) << 1 | 1)) % lease;
        // First emission strictly after `now`, on the device's
        // phase-staggered grid — at most one lease away, so a healthy
        // device can never look silent for more than a lease.
        let next_emit_us = if now < phase {
            phase
        } else {
            phase + ((now - phase) / lease + 1) * lease
        };
        let track = Track {
            up,
            boot: 0,
            heard_boot: 0,
            last_beat_us: now,
            next_emit_us,
            pending: Vec::new(),
            seq: 0,
            state: Suspicion::Alive,
        };
        match self.tracks.binary_search_by_key(&d, |&(id, _)| id) {
            Ok(i) => self.tracks[i].1 = track,
            Err(i) => self.tracks.insert(i, (d, track)),
        }
        self.last_poll_us = self.last_poll_us.min(now);
    }

    /// The tuning in effect.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// The current verdict for `d` (`Alive` if unregistered).
    pub fn suspicion(&self, d: DeviceId) -> Suspicion {
        match self.tracks.binary_search_by_key(&d, |&(id, _)| id) {
            Ok(i) => self.tracks[i].1.state,
            Err(_) => Suspicion::Alive,
        }
    }

    /// Devices currently `Confirmed` dead, in id order.
    pub fn confirmed(&self) -> Vec<DeviceId> {
        self.tracks
            .iter()
            .filter(|(_, t)| matches!(t.state, Suspicion::Confirmed { .. }))
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
    ///
    /// A poll that moves time costs O(devices + faults + events · log
    /// events), not O(beats × faults). The plan is narrowed once to the
    /// faults whose window meets `(last_poll, now]`, and every beat is
    /// resolved against those alone: a fault live at an emission is
    /// among them, in plan order, so each beat meets the fate the whole
    /// plan gives it. A device that is up, has no event in this poll and is named
    /// by no narrowed fault gets every beat through on time, so its
    /// beats are taken in one step; every other device replays its
    /// beats one by one.
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
        let lease = self.config.lease_us;
        let confirm_after = self.config.detection_bound_us();
        self.live.narrow(net, self.last_poll_us, now);
        self.by_device.clear();
        self.by_device
            .extend(events.iter().enumerate().map(|(i, e)| (e.device, i)));
        self.by_device.sort_unstable();
        // Both walk forward with the tracks; what they hold for an
        // untracked device is skipped.
        let mut grouped = self.by_device.as_slice();
        let mut named = self.live.devices();
        for (d, t) in self.tracks.iter_mut() {
            let d = *d;
            let from = grouped.partition_point(|&(e, _)| e < d);
            let to = grouped.partition_point(|&(e, _)| e <= d);
            let own = &grouped[from..to];
            grouped = &grouped[to..];
            named = &named[named.partition_point(|&n| n < d)..];
            let mut heard = t.land_pending(now);
            if t.up && own.is_empty() && named.first() != Some(&d) {
                t.beat_on_time(now, lease, &mut heard);
            } else {
                let mut own = own.iter().map(|&(_, i)| &events[i]).peekable();
                // Emissions interleaved with this device's ground-truth
                // transitions, in time order.
                while t.next_emit_us <= now {
                    let te = t.next_emit_us;
                    while let Some(e) = own.next_if(|e| e.at_us <= te) {
                        t.apply(e);
                    }
                    if t.up {
                        if let Some(delay_us) = self.live.deliver(net, d, te, t.seq) {
                            let arrival = te.saturating_add(delay_us);
                            if arrival <= now {
                                t.last_beat_us = t.last_beat_us.max(arrival);
                                heard = heard.max(t.boot);
                            } else {
                                t.pending.push((arrival, t.boot));
                            }
                        }
                    }
                    t.seq += 1;
                    t.next_emit_us = te.saturating_add(lease);
                }
                for e in own {
                    t.apply(e);
                }
            }
            t.judge(d, now, heard, lease, confirm_after, &mut report);
        }
        self.last_poll_us = now;
        report
    }
}

impl Track {
    /// Takes the gray-delayed beats, emitted in earlier polls, that have
    /// landed by `now`; returns the newest boot epoch heard once they
    /// have.
    fn land_pending(&mut self, now: Micros) -> u64 {
        let mut heard = self.heard_boot;
        self.pending.retain(|&(arr, boot)| {
            if arr <= now {
                self.last_beat_us = self.last_beat_us.max(arr);
                heard = heard.max(boot);
                false
            } else {
                true
            }
        });
        heard
    }

    /// Takes every emission due by `now` at once, for a device whose
    /// beats all arrive undelayed: what the per-beat replay does when
    /// every beat is delivered at once, in one step.
    fn beat_on_time(&mut self, now: Micros, lease: Micros, heard: &mut u64) {
        if self.next_emit_us > now {
            return;
        }
        let k = (now - self.next_emit_us) / lease + 1;
        let last = self.next_emit_us + (k - 1) * lease;
        self.last_beat_us = self.last_beat_us.max(last);
        *heard = (*heard).max(self.boot);
        self.seq += k;
        self.next_emit_us = last.saturating_add(lease);
    }

    /// The verdict at `now`, once this poll's beats have landed with
    /// `heard` the newest boot epoch among them. A beat from a new boot
    /// means a crash the verdicts never saw, unless the device was
    /// confirmed dead across it.
    fn judge(
        &mut self,
        d: DeviceId,
        now: Micros,
        heard: u64,
        lease: Micros,
        confirm_after: Micros,
        report: &mut DetectorReport,
    ) {
        let silent = now.saturating_sub(self.last_beat_us);
        let old = self.state;
        let restarted = heard > self.heard_boot && !matches!(old, Suspicion::Confirmed { .. });
        self.heard_boot = heard;
        if silent <= lease {
            self.state = Suspicion::Alive;
            match old {
                Suspicion::Suspected { .. } if !restarted => report.false_suspects.push(d),
                Suspicion::Confirmed { .. } => report.resurrected.push(d),
                _ => {}
            }
        } else if silent > confirm_after {
            if !matches!(old, Suspicion::Confirmed { .. }) {
                self.state = Suspicion::Confirmed { since_us: now };
                report.newly_confirmed.push(d);
            }
        } else if matches!(old, Suspicion::Alive) {
            // Between the lease and the confirm threshold: suspect, but
            // keep an existing Confirmed verdict sticky until a fresh
            // beat proves life.
            self.state = Suspicion::Suspected { since_us: now };
            report.newly_suspected.push(d);
        }
        // Confirmed this poll: the eviction covers the crash.
        if restarted && !matches!(self.state, Suspicion::Confirmed { .. }) {
            report.restarted.push(d);
        }
    }

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

    impl LeaseDetector {
        /// What `observe` was before it narrowed the plan: every beat of
        /// every device resolved against the whole plan, one by one. The
        /// reference the windowed `observe` is held equal to.
        fn observe_per_beat(
            &mut self,
            now: Micros,
            events: &[FailureEvent],
            net: &NetPlan,
        ) -> DetectorReport {
            let mut report = DetectorReport::default();
            if now == self.last_poll_us && events.is_empty() {
                return report;
            }
            let lease = self.config.lease_us;
            let confirm_after = self.config.detection_bound_us();
            for (d, t) in self.tracks.iter_mut().map(|(d, t)| (*d, t)) {
                let mut heard = t.heard_boot;
                t.pending.retain(|&(arr, boot)| {
                    if arr <= now {
                        t.last_beat_us = t.last_beat_us.max(arr);
                        heard = heard.max(boot);
                        false
                    } else {
                        true
                    }
                });
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
                        if let Some(delay_us) = net.deliver(d, te, t.seq) {
                            let arrival = te + delay_us;
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
                    t.state = Suspicion::Suspected { since_us: now };
                    report.newly_suspected.push(d);
                }
                if restarted && !matches!(t.state, Suspicion::Confirmed { .. }) {
                    report.restarted.push(d);
                }
            }
            self.last_poll_us = now;
            report
        }
    }

    /// Polls `windowed` with `observe` and `per_beat` with the reference
    /// replay at `now`, and holds the two to the same report and the same
    /// verdict for each of `devices`.
    fn poll_both(
        windowed: &mut LeaseDetector,
        per_beat: &mut LeaseDetector,
        now: Micros,
        events: &[FailureEvent],
        net: &NetPlan,
        devices: &[DeviceId],
    ) -> Result<DetectorReport, String> {
        let got = windowed.observe(now, events, net);
        let want = per_beat.observe_per_beat(now, events, net);
        if got != want {
            return Err(format!("poll at {now}: {got:?} != {want:?}"));
        }
        for &d in devices {
            let (a, b) = (windowed.suspicion(d), per_beat.suspicion(d));
            if a != b {
                return Err(format!("poll at {now}, {d}: {a:?} != {b:?}"));
            }
        }
        Ok(got)
    }

    #[test]
    fn a_zero_lease_runs_and_is_bounded_as_one_microsecond() {
        let cfg = DetectorConfig {
            lease_us: 0,
            ..config()
        };
        assert_eq!(cfg.detection_bound_us(), 3);
        let mut det = LeaseDetector::new(cfg, devices(2), 0);
        assert_eq!(det.config().lease_us, 1);
        let crash_at = 100;
        let mut confirmed_at = None;
        for now in 1..=200 {
            let evs = if now == crash_at {
                vec![crash(crash_at, 1)]
            } else {
                vec![]
            };
            let r = det.observe(now, &evs, &NetPlan::none());
            assert!(!r.newly_confirmed.contains(&DeviceId(0)), "poll {now}");
            if r.newly_confirmed.contains(&DeviceId(1)) {
                confirmed_at = Some(now);
            }
        }
        let at = confirmed_at.expect("the crash is confirmed");
        assert!(
            at <= crash_at + det.config().detection_bound_us() + 1,
            "confirmed at {at}"
        );
    }

    #[test]
    fn a_lease_too_long_to_multiply_saturates_the_bound() {
        let cfg = DetectorConfig {
            lease_us: Micros::MAX / 2,
            ..config()
        };
        assert_eq!(cfg.detection_bound_us(), Micros::MAX);
        let mut det = LeaseDetector::new(cfg, devices(2), 0);
        let net = NetPlan::none();
        assert!(det.observe(1_000, &[crash(500, 1)], &net).is_quiet());
        // Past two leases: device 0 beat on schedule, device 1 has been
        // silent for more than a lease, and nothing overflowed.
        let r = det.observe(Micros::MAX - 1, &[], &net);
        assert_eq!(r.newly_suspected, vec![DeviceId(1)]);
        assert_eq!(det.suspicion(DeviceId(0)), Suspicion::Alive);
    }

    #[test]
    fn registering_a_tracked_device_starts_its_track_afresh() {
        let mut det = LeaseDetector::new(config(), devices(3), 0);
        let r = det.observe(500_000, &[crash(100_000, 1)], &NetPlan::none());
        assert_eq!(r.newly_confirmed, vec![DeviceId(1)]);
        det.register(DeviceId(1), true, 500_000);
        assert_eq!(det.suspicion(DeviceId(1)), Suspicion::Alive);
        assert!(det.confirmed().is_empty());
        let r = det.observe(600_000, &[], &NetPlan::none());
        assert!(r.is_quiet(), "{r:?}");
    }

    #[test]
    fn the_windowed_poll_is_the_per_beat_replay_at_fleet_scale() {
        // The end-to-end benchmark's shape on 1 000 devices: every
        // period one device is cut off for five leases and another turns
        // gray with beats 1.5 leases late for nine, 100 periods of each;
        // a crash every 3 s, repaired 1 s later; polls every 250 ms.
        const PERIOD: Micros = 1_000_000;
        let n = 1_000u32;
        let pick = |k: u64, salt: u64| DeviceId((mix64(k ^ salt) % n as u64) as u32);
        let mut net = NetPlan {
            seed: 11,
            ..NetPlan::none()
        };
        for k in 0..100 {
            let base = k * PERIOD;
            let island = pick(k, 1);
            let mut gray = pick(k, 2);
            if gray == island {
                gray = DeviceId((gray.0 + 1) % n);
            }
            net.partitions.push(Partition {
                island: vec![island],
                from_us: base + 200_000,
                until_us: base + 700_000,
            });
            net.grays.push(GrayFault {
                device: gray,
                from_us: base + 100_000,
                until_us: base + 1_000_000,
                delay_us: LEASE * 3 / 2,
                drop_per_mille: 0,
            });
        }
        let mut schedule = Vec::new();
        for k in 0..33u64 {
            let victim = pick(k, 3).0;
            let at = k * 3 * PERIOD + 1 + mix64(k) % PERIOD;
            schedule.push(crash(at, victim));
            schedule.push(repair(at + PERIOD, victim));
        }
        schedule.sort_by_key(|e| e.at_us);
        let ids = devices(n);
        let mut windowed = LeaseDetector::new(config(), ids.clone(), 0);
        let mut per_beat = windowed.clone();
        let (mut confirmed, mut false_suspects) = (0, 0);
        for s in 1..=400u64 {
            let now = s * 250_000;
            let window: Vec<FailureEvent> = schedule
                .iter()
                .copied()
                .filter(|e| now - 250_000 < e.at_us && e.at_us <= now)
                .collect();
            let r = poll_both(&mut windowed, &mut per_beat, now, &window, &net, &ids)
                .unwrap_or_else(|e| panic!("{e}"));
            confirmed += r.newly_confirmed.len();
            false_suspects += r.false_suspects.len();
        }
        assert!(
            confirmed >= 100 && false_suspects >= 50,
            "{confirmed} {false_suspects}"
        );
    }

    #[test]
    fn faults_that_start_or_end_on_a_poll_or_a_beat_are_met() {
        // Each fault edge falls on a beat of its device, and the polls
        // land on every beat and on every edge and its neighbours: the
        // narrowing must keep a fault that starts exactly at `now` or
        // is last live one µs after the previous poll.
        let cfg = DetectorConfig {
            lease_us: 1_000,
            confirm_misses: 3,
            seed: 3,
        };
        let ids = devices(4);
        let mut windowed = LeaseDetector::new(cfg, ids.clone(), 0);
        let mut per_beat = windowed.clone();
        let beat = |d: usize, k: u64| windowed.tracks[d].1.next_emit_us + k * 1_000;
        let net = NetPlan {
            partitions: vec![
                Partition {
                    island: vec![DeviceId(0)],
                    from_us: beat(0, 2),
                    until_us: beat(0, 6),
                },
                Partition {
                    island: vec![DeviceId(1)],
                    from_us: beat(1, 1) - 500,
                    until_us: beat(1, 5) + 1,
                },
            ],
            grays: vec![
                GrayFault {
                    device: DeviceId(2),
                    from_us: beat(2, 3),
                    until_us: beat(2, 6) + 1,
                    delay_us: 4_500,
                    drop_per_mille: 0,
                },
                GrayFault {
                    device: DeviceId(3),
                    from_us: beat(3, 1),
                    until_us: beat(3, 8),
                    delay_us: 0,
                    drop_per_mille: 1000,
                },
            ],
            seed: 1,
        };
        let mut polls: Vec<Micros> = (0..4)
            .flat_map(|d| (0..12).map(move |k| beat(d, k)))
            .collect();
        let windows = net
            .partitions
            .iter()
            .map(|p| (p.from_us, p.until_us))
            .chain(net.grays.iter().map(|g| (g.from_us, g.until_us)));
        for (from, until) in windows {
            polls.extend([from - 1, from, until - 2, until - 1, until]);
        }
        polls.sort_unstable();
        polls.dedup();
        let mut confirmed = Vec::new();
        for now in polls {
            let r = poll_both(&mut windowed, &mut per_beat, now, &[], &net, &ids)
                .unwrap_or_else(|e| panic!("{e}"));
            confirmed.extend(r.newly_confirmed);
        }
        confirmed.sort();
        assert_eq!(confirmed, devices(4), "every fault silenced its device");
    }

    #[test]
    fn healthy_reachable_devices_are_never_suspected() {
        let mut det = LeaseDetector::new(config(), devices(8), 0);
        let net = NetPlan::none();
        for step in 1..=40u64 {
            let r = det.observe(step * 250_000, &[], &net);
            assert!(r.is_quiet(), "step {step}: {r:?}");
        }
        assert!(devices(8)
            .iter()
            .all(|&d| det.suspicion(d) == Suspicion::Alive));
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
    fn a_device_registered_down_is_confirmed_by_silence() {
        let mut det = LeaseDetector::new(config(), devices(1), 0);
        det.register(DeviceId(1), false, 0);
        let r = det.observe(150_000, &[], &NetPlan::none());
        assert_eq!(r.newly_suspected, vec![DeviceId(1)]);
        let r = det.observe(350_000, &[], &NetPlan::none());
        assert_eq!(r.newly_confirmed, vec![DeviceId(1)]);
        assert_eq!(det.confirmed(), vec![DeviceId(1)]);
    }

    #[test]
    fn a_late_registration_beats_within_one_lease() {
        let mut det = LeaseDetector::new(config(), devices(0), 0);
        det.register(DeviceId(3), true, 1_234_567);
        for s in 1..=60u64 {
            let r = det.observe(1_234_567 + s * 25_000, &[], &NetPlan::none());
            assert!(r.is_quiet(), "poll {s}: {r:?}");
        }
    }

    #[test]
    fn a_confirm_threshold_below_one_is_one() {
        let cfg = DetectorConfig {
            confirm_misses: 0,
            ..config()
        };
        assert_eq!(cfg.detection_bound_us(), LEASE);
        let mut det = LeaseDetector::new(cfg, devices(1), 0);
        assert_eq!(det.config().confirm_misses, 1);
        // Silent past one lease: confirmed at once, never just suspected.
        let r = det.observe(250_000, &[crash(10_000, 0)], &NetPlan::none());
        assert_eq!(r.newly_confirmed, vec![DeviceId(0)]);
        assert!(r.newly_suspected.is_empty());
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
    fn a_gray_that_drops_every_beat_is_confirmed_like_a_partition() {
        // Device 0 is gray with total loss over the window of a one-device
        // partition: the detector cannot tell the two apart.
        let (from_us, until_us) = (200_000, 1_400_000);
        let lossy = NetPlan {
            grays: vec![GrayFault {
                device: DeviceId(0),
                from_us,
                until_us,
                delay_us: 0,
                drop_per_mille: 1000,
            }],
            seed: 5,
            ..NetPlan::none()
        };
        let island = vec![DeviceId(0)];
        let cut = NetPlan {
            partitions: vec![Partition {
                island,
                from_us,
                until_us,
            }],
            ..NetPlan::none()
        };
        let mut by_gray = LeaseDetector::new(config(), devices(3), 0);
        let mut by_cut = by_gray.clone();
        let mut verdicts = Vec::new();
        for s in 1..=16u64 {
            let now = s * 125_000;
            let r = by_gray.observe(now, &[], &lossy);
            assert_eq!(r, by_cut.observe(now, &[], &cut), "poll {s}");
            let during = now < until_us;
            verdicts.extend(r.newly_confirmed.iter().map(|&d| (d, "confirmed", during)));
            verdicts.extend(r.resurrected.iter().map(|&d| (d, "resurrected", during)));
        }
        // Confirmed inside the window, resurrected once it ended.
        let d = DeviceId(0);
        assert_eq!(
            verdicts,
            [(d, "confirmed", true), (d, "resurrected", false)]
        );
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

        /// The windowed `observe` is the per-beat replay: the same report
        /// and the same verdict for every device after every poll, under
        /// any network plan, any crash/repair schedule (flaps inside one
        /// poll included), steps of 1 µs, of less than a lease, of more
        /// than the confirm bound and of nothing at all, and devices
        /// registered late, up or down, or afresh, at or before the
        /// detector's last poll.
        #[test]
        fn the_windowed_poll_is_the_per_beat_replay(
            seed in any::<u64>(),
            net in crate::netplan::tests::arb_plan(8, 60_000),
            schedule in prop::collection::vec((0u64..60_000, 0u32..10, any::<bool>(), 0u64..6), 0..16),
            steps in prop::collection::vec(
                prop_oneof![Just(0u64), Just(1u64), 2u64..1_000, 3_001u64..6_000],
                1..48,
            ),
            late in prop::collection::vec((0usize..48, 0u32..10, any::<bool>(), 0u64..2_000), 0..6),
        ) {
            let cfg = DetectorConfig { lease_us: 1_000, confirm_misses: 3, seed };
            let ids = devices(10);
            let mut windowed = LeaseDetector::new(cfg, devices(6), 0);
            let mut per_beat = windowed.clone();
            // A flap below 3 puts the opposite transition that many µs
            // after the first one.
            let mut evs = Vec::new();
            for (at_us, d, down, flap) in schedule {
                evs.push(FailureEvent { at_us, device: DeviceId(d), crash: down });
                if flap < 3 {
                    evs.push(FailureEvent { at_us: at_us + flap, device: DeviceId(d), crash: !down });
                }
            }
            evs.sort_by_key(|e| e.at_us);
            let mut now = 0;
            for (poll, step) in steps.into_iter().enumerate() {
                for &(_, d, up, back) in late.iter().filter(|l| l.0 == poll) {
                    let at = now - back.min(now);
                    windowed.register(DeviceId(d), up, at);
                    per_beat.register(DeviceId(d), up, at);
                }
                let prev = now;
                now += step;
                let window: Vec<FailureEvent> = evs
                    .iter()
                    .copied()
                    .filter(|e| prev < e.at_us && e.at_us <= now)
                    .collect();
                let polled = poll_both(&mut windowed, &mut per_beat, now, &window, &net, &ids);
                prop_assert!(polled.is_ok(), "{}", polled.unwrap_err());
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
