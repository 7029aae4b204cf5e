//! Deterministic failure injection (§3.4).
//!
//! Experiments E8/E9 need device crashes at controlled times. A
//! [`FailurePlan`] is generated from a seed and a crash rate, producing a
//! schedule of crash/repair events that the datacenter applies as
//! virtual time advances.

use crate::clock::Micros;
use crate::device::DeviceId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One scheduled failure event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureEvent {
    /// When the event fires.
    pub at_us: Micros,
    /// The affected device.
    pub device: DeviceId,
    /// `true` = crash, `false` = repair.
    pub crash: bool,
}

/// A deterministic schedule of crash and repair events.
#[derive(Debug, Clone, Default)]
pub struct FailurePlan {
    events: Vec<FailureEvent>,
    cursor: usize,
}

impl FailurePlan {
    /// An empty plan (no failures).
    pub fn none() -> Self {
        Self::default()
    }

    /// Builds a plan from explicit events (sorted by time internally).
    /// At equal timestamps a crash orders before a repair of the same
    /// device, so a zero-delay crash/repair pair nets out to a healthy
    /// device instead of silently dropping the repair.
    pub fn from_events(mut events: Vec<FailureEvent>) -> Self {
        events.sort_by_key(|e| (e.at_us, e.device, std::cmp::Reverse(e.crash)));
        Self { events, cursor: 0 }
    }

    /// Generates a random plan: each of `devices` crashes independently
    /// with probability `crash_prob` within `horizon_us`, and is repaired
    /// `repair_after_us` later. Deterministic per `seed`.
    ///
    /// The repair always fires *strictly* after its crash: a
    /// `repair_after_us` of zero is promoted to one microsecond, so a
    /// crash at `horizon_us - 1` still gets a reachable repair at
    /// `horizon_us` rather than tying with (and sorting around) the
    /// crash that the drain cursor has already passed.
    pub fn random(
        devices: &[DeviceId],
        crash_prob: f64,
        horizon_us: Micros,
        repair_after_us: Micros,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = Vec::new();
        for &d in devices {
            if rng.gen_bool(crash_prob.clamp(0.0, 1.0)) {
                let at = rng.gen_range(0..horizon_us.max(1));
                events.push(FailureEvent {
                    at_us: at,
                    device: d,
                    crash: true,
                });
                events.push(FailureEvent {
                    at_us: at.saturating_add(repair_after_us.max(1)),
                    device: d,
                    crash: false,
                });
            }
        }
        Self::from_events(events)
    }

    /// Returns the same plan with every *pending* event delayed by
    /// `base_us`. Plans are generated on a `[0, horizon)` window;
    /// shifting anchors that window to a clock that has already
    /// advanced (e.g. after executing a workload), so the events still
    /// lie in the future. Events the drain cursor has already fired are
    /// history and keep their timestamps — rebasing them would rewrite
    /// what the datacenter already applied.
    pub fn shifted(mut self, base_us: Micros) -> Self {
        for e in &mut self.events[self.cursor..] {
            e.at_us = e.at_us.saturating_add(base_us);
        }
        self
    }

    /// Pops every event due at or before `now_us`, in order.
    pub fn due(&mut self, now_us: Micros) -> Vec<FailureEvent> {
        let mut out = Vec::new();
        while self.cursor < self.events.len() && self.events[self.cursor].at_us <= now_us {
            out.push(self.events[self.cursor]);
            self.cursor += 1;
        }
        out
    }

    /// Time of the next pending event, if any.
    pub fn next_at(&self) -> Option<Micros> {
        self.events.get(self.cursor).map(|e| e.at_us)
    }

    /// Total number of events (fired and pending).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the plan has no events at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fires() {
        let mut p = FailurePlan::none();
        assert!(p.due(u64::MAX).is_empty());
        assert_eq!(p.next_at(), None);
    }

    #[test]
    fn events_fire_in_order_once() {
        let mut p = FailurePlan::from_events(vec![
            FailureEvent {
                at_us: 200,
                device: DeviceId(1),
                crash: true,
            },
            FailureEvent {
                at_us: 100,
                device: DeviceId(0),
                crash: true,
            },
        ]);
        assert_eq!(p.next_at(), Some(100));
        let first = p.due(150);
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].device, DeviceId(0));
        let second = p.due(1_000);
        assert_eq!(second.len(), 1);
        assert!(p.due(u64::MAX).is_empty(), "events fire exactly once");
    }

    #[test]
    fn random_plan_deterministic_per_seed() {
        let devices: Vec<DeviceId> = (0..100).map(DeviceId).collect();
        let a = FailurePlan::random(&devices, 0.3, 1_000_000, 10_000, 7);
        let b = FailurePlan::random(&devices, 0.3, 1_000_000, 10_000, 7);
        assert_eq!(a.events, b.events);
        let c = FailurePlan::random(&devices, 0.3, 1_000_000, 10_000, 8);
        assert_ne!(a.events, c.events);
    }

    #[test]
    fn shifted_rebases_every_event_and_keeps_order() {
        let devices: Vec<DeviceId> = (0..10).map(DeviceId).collect();
        let base = FailurePlan::random(&devices, 1.0, 1_000, 500, 3);
        let mut moved = base.clone().shifted(5_000);
        assert_eq!(moved.events.len(), base.events.len());
        for (m, b) in moved.events.iter().zip(&base.events) {
            assert_eq!(m.at_us, b.at_us + 5_000);
            assert_eq!((m.device, m.crash), (b.device, b.crash));
        }
        // Nothing fires before the new window opens.
        assert!(moved.due(4_999).is_empty());
        assert_eq!(moved.next_at(), Some(base.events[0].at_us + 5_000));
    }

    #[test]
    fn shifted_with_nonzero_cursor_rebases_only_pending_events() {
        let mut p = FailurePlan::from_events(vec![
            FailureEvent {
                at_us: 100,
                device: DeviceId(0),
                crash: true,
            },
            FailureEvent {
                at_us: 200,
                device: DeviceId(0),
                crash: false,
            },
            FailureEvent {
                at_us: 300,
                device: DeviceId(1),
                crash: true,
            },
        ]);
        // Drain past the first two events, then re-anchor the rest.
        let fired = p.due(250);
        assert_eq!(fired.len(), 2);
        let mut p = p.shifted(1_000);
        // Consumed history is untouched...
        assert_eq!(p.events[0].at_us, 100);
        assert_eq!(p.events[1].at_us, 200);
        // ...and only the pending tail is rebased.
        assert_eq!(p.next_at(), Some(1_300));
        // Re-draining never re-fires history, and the shifted event
        // fires exactly once at its new time.
        assert!(p.due(1_299).is_empty());
        let last = p.due(1_300);
        assert_eq!(last.len(), 1);
        assert_eq!(last[0].device, DeviceId(1));
    }

    #[test]
    fn crash_paired_with_repair() {
        let devices: Vec<DeviceId> = (0..50).map(DeviceId).collect();
        let p = FailurePlan::random(&devices, 1.0, 1_000, 500, 1);
        assert_eq!(p.events.len(), 100, "every device crashes and repairs");
        let crashes = p.events.iter().filter(|e| e.crash).count();
        assert_eq!(crashes, 50);
    }

    #[test]
    fn zero_repair_delay_still_repairs_strictly_after_crash() {
        let devices: Vec<DeviceId> = (0..64).map(DeviceId).collect();
        let mut p = FailurePlan::random(&devices, 1.0, 1_000, 0, 42);
        // Every repair is strictly later than its device's crash.
        let mut crash_at = std::collections::BTreeMap::new();
        for e in &p.events {
            if e.crash {
                crash_at.insert(e.device, e.at_us);
            }
        }
        for e in &p.events {
            if !e.crash {
                let c = crash_at[&e.device];
                assert!(
                    e.at_us > c,
                    "repair for {:?} at {} not strictly after crash at {}",
                    e.device,
                    e.at_us,
                    c
                );
            }
        }
        // Draining everything nets every device back to healthy:
        // the crash always arrives before its repair.
        let mut down = std::collections::BTreeSet::new();
        for e in p.due(u64::MAX) {
            if e.crash {
                down.insert(e.device);
            } else {
                assert!(down.remove(&e.device), "repair without prior crash");
            }
        }
        assert!(down.is_empty(), "every crash got a repair");
    }

    #[test]
    fn crash_at_horizon_edge_keeps_repair_reachable() {
        // A crash landing on the last tick of the horizon must not tie
        // with its zero-delay repair: the pair would sort around an
        // already-drained cursor and the repair would be lost.
        let horizon = 1_000u64;
        // Seed-scan for a plan whose crash lands exactly at horizon - 1.
        let device = [DeviceId(0)];
        let plan = (0..10_000)
            .map(|seed| FailurePlan::random(&device, 1.0, horizon, 0, seed))
            .find(|p| p.events.iter().any(|e| e.crash && e.at_us == horizon - 1))
            .expect("some seed crashes at horizon - 1");
        let mut p = plan;
        // Drain to the crash tick: only the crash fires.
        let first = p.due(horizon - 1);
        assert_eq!(first.len(), 1);
        assert!(first[0].crash);
        // The repair is still pending (not skipped behind the cursor)
        // and fires on the next drain.
        assert_eq!(p.next_at(), Some(horizon));
        let second = p.due(horizon);
        assert_eq!(second.len(), 1);
        assert!(!second[0].crash, "repair fires after the crash");
    }

    #[test]
    fn same_timestamp_explicit_pair_orders_crash_first() {
        let mut p = FailurePlan::from_events(vec![
            FailureEvent {
                at_us: 5,
                device: DeviceId(3),
                crash: false,
            },
            FailureEvent {
                at_us: 5,
                device: DeviceId(3),
                crash: true,
            },
        ]);
        let fired = p.due(5);
        assert_eq!(fired.len(), 2);
        assert!(fired[0].crash, "crash applies before same-tick repair");
        assert!(!fired[1].crash, "device nets out healthy");
    }

    #[test]
    fn zero_probability_no_events() {
        let devices: Vec<DeviceId> = (0..50).map(DeviceId).collect();
        let p = FailurePlan::random(&devices, 0.0, 1_000, 500, 1);
        assert!(p.is_empty());
    }
}
