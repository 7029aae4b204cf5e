//! Warm pools: the provider-side mitigation for §3.3's cold-start
//! challenge ("As secure environments are usually slower to start up,
//! (cold) starting many environments for many modules can significantly
//! slow down the entire application").
//!
//! The provider pre-starts a bounded number of instances per environment
//! class; module launches draw from the pool when possible and fall back
//! to cold starts. Experiment E6 sweeps pool sizes against fan-out.

use crate::env::EnvKind;
use std::collections::{BTreeMap, BTreeSet};
use udc_hal::DeviceId;
use udc_telemetry::{EventKind, FieldValue, Labels, Telemetry};

/// Warm-pool sizing per environment class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarmPoolConfig {
    /// Instances kept warm per class.
    pub target_per_kind: BTreeMap<EnvKind, usize>,
}

impl WarmPoolConfig {
    /// No warm instances at all (every start is cold).
    pub fn disabled() -> Self {
        Self {
            target_per_kind: BTreeMap::new(),
        }
    }

    /// A uniform target for every class.
    pub fn uniform(n: usize) -> Self {
        Self {
            target_per_kind: EnvKind::ALL.iter().map(|&k| (k, n)).collect(),
        }
    }

    /// Builder-style: sets the target for one class.
    pub fn with(mut self, kind: EnvKind, n: usize) -> Self {
        self.target_per_kind.insert(kind, n);
        self
    }
}

/// Hit/miss statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmPoolStats {
    /// Launches served from the pool.
    pub hits: u64,
    /// Launches that had to cold-start.
    pub misses: u64,
    /// Instances pre-started in total (provider cost).
    pub prewarmed: u64,
}

impl WarmPoolStats {
    /// Hit rate in \[0, 1\] (0 when no launches).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One pre-started instance waiting in the pool. An instance may be
/// pinned to the device it was booted on; unpinned instances are
/// provider-global (migratable) and survive any device crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmInstance {
    /// Device hosting the pre-started instance, when pinned.
    pub device: Option<DeviceId>,
}

/// Outcome of a warm-pool acquisition, including where the instance
/// came from (callers that care about placement, e.g. the repair loop's
/// crash-safety property, inspect `device`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmAcquire {
    /// Startup latency paid: warm on hit, cold on miss.
    pub latency_us: u64,
    /// Whether a pooled instance was used.
    pub warm: bool,
    /// Device the pooled instance was pinned to (`None` for unpinned
    /// instances and for cold starts).
    pub device: Option<DeviceId>,
}

/// A warm pool across all environment classes.
#[derive(Debug, Clone)]
pub struct WarmPool {
    config: WarmPoolConfig,
    ready: BTreeMap<EnvKind, Vec<WarmInstance>>,
    stats: WarmPoolStats,
    /// Devices under failure suspicion: instances pinned to them are
    /// held back from acquisition (not destroyed) until the suspicion
    /// either clears ([`WarmPool::clear_suspicion`]) or is confirmed
    /// ([`WarmPool::confirm_device`]).
    suspected: BTreeSet<DeviceId>,
    /// Observability hub (disabled no-op by default).
    obs: Telemetry,
}

impl WarmPool {
    /// Creates a pool filled to its targets (the provider pre-warms at
    /// deployment time). Pre-warmed instances start unpinned.
    pub fn new(config: WarmPoolConfig) -> Self {
        let ready: BTreeMap<EnvKind, Vec<WarmInstance>> = config
            .target_per_kind
            .iter()
            .map(|(&k, &n)| (k, vec![WarmInstance { device: None }; n]))
            .collect();
        let prewarmed: u64 = ready.values().map(|v| v.len() as u64).sum();
        Self {
            config,
            ready,
            stats: WarmPoolStats {
                prewarmed,
                ..Default::default()
            },
            suspected: BTreeSet::new(),
            obs: Telemetry::disabled(),
        }
    }

    /// Installs the observability hub: hits/misses become
    /// `isolate.warmpool.*` counters, start latencies feed histograms,
    /// and every miss logs a cold-start flight event.
    pub fn set_observer(&mut self, obs: Telemetry) {
        self.obs = obs;
    }

    /// Attempts to draw a warm instance of `kind`. Returns the startup
    /// latency: warm on hit, cold on miss.
    pub fn acquire(&mut self, kind: EnvKind) -> u64 {
        self.acquire_detailed(kind).latency_us
    }

    /// Like [`WarmPool::acquire`], but reports which device (if any)
    /// the pooled instance was pinned to. Oldest instances are drawn
    /// first (FIFO), so draw order is deterministic.
    pub fn acquire_detailed(&mut self, kind: EnvKind) -> WarmAcquire {
        let m = kind.cost_model();
        // Oldest acquirable instance: instances pinned to suspected
        // devices are skipped in place — a flapping device must never
        // hand out an isolate that may already be invalid.
        let idx = self.ready.get(&kind).and_then(|v| {
            v.iter().position(|i| match i.device {
                Some(d) => !self.suspected.contains(&d),
                None => true,
            })
        });
        match (self.ready.get_mut(&kind), idx) {
            (Some(v), Some(idx)) => {
                let inst = v.remove(idx);
                self.stats.hits += 1;
                self.obs.incr("isolate.warmpool.hits", Labels::none(), 1);
                self.obs
                    .observe("isolate.warm_start_us", Labels::none(), m.warm_start_us);
                WarmAcquire {
                    latency_us: m.warm_start_us,
                    warm: true,
                    device: inst.device,
                }
            }
            _ => {
                self.stats.misses += 1;
                self.obs.incr("isolate.warmpool.misses", Labels::none(), 1);
                self.obs
                    .observe("isolate.cold_start_us", Labels::none(), m.cold_start_us);
                self.obs.event(
                    EventKind::ColdStart,
                    Labels::none(),
                    &[
                        ("env", FieldValue::from(kind.name())),
                        ("latency_us", FieldValue::from(m.cold_start_us)),
                    ],
                );
                WarmAcquire {
                    latency_us: m.cold_start_us,
                    warm: false,
                    device: None,
                }
            }
        }
    }

    /// Hands back an instance an acquisition drew for a launch that never
    /// happened (its placement was refused). It goes in front of the
    /// first instance that could be drawn now, which is where it was
    /// drawn from, so the next draw takes it again.
    pub fn restore(&mut self, kind: EnvKind, instance: WarmInstance) {
        let suspected = &self.suspected;
        let ready = self.ready.entry(kind).or_default();
        let drawable = |i: &WarmInstance| i.device.is_none_or(|d| !suspected.contains(&d));
        let at = ready.iter().position(drawable).unwrap_or(ready.len());
        ready.insert(at, instance);
    }

    /// Adds one pre-started instance of `kind` pinned to `device` (the
    /// provider pre-warmed on specific hardware). Pinned instances are
    /// dropped by [`WarmPool::invalidate_device`] when that device
    /// crashes.
    pub fn prewarm_on(&mut self, kind: EnvKind, device: DeviceId) {
        self.ready.entry(kind).or_default().push(WarmInstance {
            device: Some(device),
        });
        self.stats.prewarmed += 1;
    }

    /// Drops every cached instance pinned to `device` (it crashed: the
    /// pre-started isolates on it are gone). Returns how many instances
    /// were invalidated. Unpinned instances are unaffected.
    pub fn invalidate_device(&mut self, device: DeviceId) -> usize {
        let mut dropped = 0;
        for v in self.ready.values_mut() {
            let before = v.len();
            v.retain(|i| i.device != Some(device));
            dropped += before - v.len();
        }
        if dropped > 0 {
            self.obs.incr(
                "isolate.warmpool.invalidated",
                Labels::none(),
                dropped as u64,
            );
        }
        dropped
    }

    /// Marks `device` as suspected: its pinned instances are held out
    /// of acquisition but kept, so a false suspicion costs nothing
    /// once cleared. Even if the device flaps back healthy and crashes
    /// again within one detection interval, the held-back instances
    /// can never be handed out mid-flap.
    pub fn suspect_device(&mut self, device: DeviceId) {
        self.suspected.insert(device);
    }

    /// Clears a suspicion (the device beat its lease again): pinned
    /// instances return to service untouched.
    pub fn clear_suspicion(&mut self, device: DeviceId) {
        self.suspected.remove(&device);
    }

    /// Confirms a suspicion: the device is considered dead, so its
    /// pinned instances are dropped (and the suspicion mark retired).
    /// Returns how many instances were invalidated.
    pub fn confirm_device(&mut self, device: DeviceId) -> usize {
        self.suspected.remove(&device);
        self.invalidate_device(device)
    }

    /// Devices currently held under suspicion.
    pub fn suspected_devices(&self) -> Vec<DeviceId> {
        self.suspected.iter().copied().collect()
    }

    /// Refills the pool toward its targets with unpinned instances,
    /// returning the number pre-started (background provider work,
    /// charged to the provider not the tenant).
    pub fn refill(&mut self) -> usize {
        let mut started = 0;
        for (&kind, &target) in &self.config.target_per_kind {
            let cur = self.ready.entry(kind).or_default();
            if cur.len() < target {
                let add = target - cur.len();
                started += add;
                self.stats.prewarmed += add as u64;
                cur.extend(std::iter::repeat_n(WarmInstance { device: None }, add));
            }
        }
        started
    }

    /// Instances ready for `kind` right now.
    pub fn ready(&self, kind: EnvKind) -> usize {
        self.ready.get(&kind).map(|v| v.len()).unwrap_or(0)
    }

    /// Statistics so far.
    pub fn stats(&self) -> WarmPoolStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_until_drained_then_miss() {
        let mut p = WarmPool::new(WarmPoolConfig::disabled().with(EnvKind::TeeEnclave, 2));
        let m = EnvKind::TeeEnclave.cost_model();
        assert_eq!(p.acquire(EnvKind::TeeEnclave), m.warm_start_us);
        assert_eq!(p.acquire(EnvKind::TeeEnclave), m.warm_start_us);
        assert_eq!(p.acquire(EnvKind::TeeEnclave), m.cold_start_us);
        assert_eq!(p.stats().hits, 2);
        assert_eq!(p.stats().misses, 1);
    }

    #[test]
    fn disabled_pool_always_cold() {
        let mut p = WarmPool::new(WarmPoolConfig::disabled());
        for k in EnvKind::ALL {
            assert_eq!(p.acquire(k), k.cost_model().cold_start_us);
        }
        assert_eq!(p.stats().hit_rate(), 0.0);
    }

    #[test]
    fn refill_restores_targets() {
        let mut p = WarmPool::new(WarmPoolConfig::uniform(1));
        p.acquire(EnvKind::Container);
        p.acquire(EnvKind::Unikernel);
        assert_eq!(p.ready(EnvKind::Container), 0);
        let started = p.refill();
        assert_eq!(started, 2);
        assert_eq!(p.ready(EnvKind::Container), 1);
        assert_eq!(p.ready(EnvKind::Unikernel), 1);
    }

    #[test]
    fn unconfigured_kind_misses() {
        let mut p = WarmPool::new(WarmPoolConfig::disabled().with(EnvKind::Container, 5));
        assert_eq!(
            p.acquire(EnvKind::FullVm),
            EnvKind::FullVm.cost_model().cold_start_us
        );
    }

    #[test]
    fn stats_track_prewarm_cost() {
        let p = WarmPool::new(WarmPoolConfig::uniform(3));
        assert_eq!(p.stats().prewarmed, 3 * EnvKind::ALL.len() as u64);
    }

    #[test]
    fn observer_records_hits_misses_and_cold_start_events() {
        let mut p = WarmPool::new(WarmPoolConfig::disabled().with(EnvKind::Container, 1));
        let obs = Telemetry::enabled();
        p.set_observer(obs.clone());
        p.acquire(EnvKind::Container); // hit
        p.acquire(EnvKind::Container); // miss -> cold start
        assert_eq!(obs.counter("isolate.warmpool.hits", &Labels::none()), 1);
        assert_eq!(obs.counter("isolate.warmpool.misses", &Labels::none()), 1);
        let cold = obs
            .histogram("isolate.cold_start_us", &Labels::none())
            .expect("cold-start histogram exists");
        assert_eq!(cold.count, 1);
        let events = obs.snapshot().events;
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::ColdStart);
    }

    #[test]
    fn invalidate_device_drops_pinned_instances() {
        let mut p = WarmPool::new(WarmPoolConfig::disabled());
        p.prewarm_on(EnvKind::Container, DeviceId(7));
        p.prewarm_on(EnvKind::Container, DeviceId(7));
        p.prewarm_on(EnvKind::Container, DeviceId(9));
        p.prewarm_on(EnvKind::Unikernel, DeviceId(7));
        assert_eq!(p.ready(EnvKind::Container), 3);

        // Device 7 crashes: its pinned instances vanish, device 9's stays.
        assert_eq!(p.invalidate_device(DeviceId(7)), 3);
        assert_eq!(p.ready(EnvKind::Container), 1);
        assert_eq!(p.ready(EnvKind::Unikernel), 0);

        // A post-crash acquire never hands back an instance from the
        // crashed device.
        let got = p.acquire_detailed(EnvKind::Container);
        assert!(got.warm);
        assert_eq!(got.device, Some(DeviceId(9)));
        let next = p.acquire_detailed(EnvKind::Container);
        assert!(!next.warm, "pool drained: cold start, not a dead instance");
        assert_eq!(next.device, None);
        assert_ne!(got.device, Some(DeviceId(7)));
    }

    #[test]
    fn invalidate_device_spares_unpinned() {
        let mut p = WarmPool::new(WarmPoolConfig::disabled().with(EnvKind::Container, 2));
        assert_eq!(p.invalidate_device(DeviceId(0)), 0);
        assert_eq!(p.ready(EnvKind::Container), 2);
        let got = p.acquire_detailed(EnvKind::Container);
        assert!(got.warm);
        assert_eq!(got.device, None);
    }

    #[test]
    fn suspected_device_is_held_back_not_destroyed() {
        let mut p = WarmPool::new(WarmPoolConfig::disabled());
        p.prewarm_on(EnvKind::Container, DeviceId(4));
        p.suspect_device(DeviceId(4));
        // Held back: the acquire must not see the suspected instance.
        let got = p.acquire_detailed(EnvKind::Container);
        assert!(!got.warm, "suspected instance must not be handed out");
        assert_eq!(
            p.ready(EnvKind::Container),
            1,
            "but it is kept, not dropped"
        );
        // False suspicion clears: the instance returns to service.
        p.clear_suspicion(DeviceId(4));
        let got = p.acquire_detailed(EnvKind::Container);
        assert!(got.warm);
        assert_eq!(got.device, Some(DeviceId(4)));
    }

    #[test]
    fn flapping_device_never_hands_out_invalidated_instance() {
        // Regression: a device that crashes, repairs, and crashes again
        // within one detection interval used to slip a stale pinned
        // instance through a crash-event-keyed invalidation. With
        // suspicion-confirm semantics the instance is held from the
        // first suspicion until the verdict, so no interleaving of the
        // flap can hand it out.
        let mut p = WarmPool::new(WarmPoolConfig::disabled());
        p.prewarm_on(EnvKind::Container, DeviceId(2));
        p.prewarm_on(EnvKind::Container, DeviceId(5));

        // Interval k: the device goes silent -> suspected.
        p.suspect_device(DeviceId(2));
        // Mid-interval flap (crash -> repair -> crash) changes nothing
        // observable: every acquire during suspicion skips the pinned
        // instance and takes the next acquirable one.
        let got = p.acquire_detailed(EnvKind::Container);
        assert_eq!(
            got.device,
            Some(DeviceId(5)),
            "suspected instance skipped in place"
        );
        let cold = p.acquire_detailed(EnvKind::Container);
        assert!(
            !cold.warm,
            "drained past suspicion: cold start, not the stale instance"
        );

        // Interval k+1: the detector confirms -> the stale instance is
        // dropped for good and can never be re-acquired.
        assert_eq!(p.confirm_device(DeviceId(2)), 1);
        assert_eq!(p.ready(EnvKind::Container), 0);
        assert!(p.suspected_devices().is_empty());
        let after = p.acquire_detailed(EnvKind::Container);
        assert!(!after.warm);
    }

    #[test]
    fn hit_rate_mixed() {
        let mut p = WarmPool::new(WarmPoolConfig::disabled().with(EnvKind::Container, 1));
        p.acquire(EnvKind::Container);
        p.acquire(EnvKind::Container);
        assert!((p.stats().hit_rate() - 0.5).abs() < 1e-9);
    }
}
