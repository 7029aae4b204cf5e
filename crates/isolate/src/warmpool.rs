//! Warm pools: the provider-side mitigation for §3.3's cold-start
//! challenge ("As secure environments are usually slower to start up,
//! (cold) starting many environments for many modules can significantly
//! slow down the entire application").
//!
//! The provider pre-starts a bounded number of instances per environment
//! class; module launches draw from the pool when possible and fall back
//! to cold starts. Experiment E6 sweeps pool sizes against fan-out.

use crate::env::EnvKind;
use std::collections::BTreeMap;
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

/// Outcome of a warm-pool acquisition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmAcquire {
    /// Startup latency paid: warm on hit, cold on miss.
    pub latency_us: u64,
    /// Whether a pooled instance was used.
    pub warm: bool,
}

/// A warm pool across all environment classes. Pooled instances are
/// provider-global (migratable), so the pool keeps only how many of
/// each class are ready: no device crash touches them.
#[derive(Debug, Clone)]
pub struct WarmPool {
    config: WarmPoolConfig,
    ready: BTreeMap<EnvKind, usize>,
    stats: WarmPoolStats,
    /// Observability hub (disabled no-op by default).
    obs: Telemetry,
}

impl WarmPool {
    /// Creates a pool filled to its targets (the provider pre-warms at
    /// deployment time).
    pub fn new(config: WarmPoolConfig) -> Self {
        let ready = config.target_per_kind.clone();
        let prewarmed = ready
            .values()
            .fold(0u64, |sum, &n| sum.saturating_add(n as u64));
        Self {
            config,
            ready,
            stats: WarmPoolStats {
                prewarmed,
                ..Default::default()
            },
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

    /// Like [`WarmPool::acquire`], but also reports whether the launch
    /// drew a pooled instance.
    pub fn acquire_detailed(&mut self, kind: EnvKind) -> WarmAcquire {
        let m = kind.cost_model();
        match self.ready.get_mut(&kind).filter(|n| **n > 0) {
            Some(n) => {
                *n -= 1;
                self.stats.hits += 1;
                self.obs.incr("isolate.warmpool.hits", Labels::none(), 1);
                self.obs
                    .observe("isolate.warm_start_us", Labels::none(), m.warm_start_us);
                WarmAcquire {
                    latency_us: m.warm_start_us,
                    warm: true,
                }
            }
            None => {
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
                }
            }
        }
    }

    /// Hands back an instance of `kind` an acquisition drew for a launch
    /// that never happened (its placement was refused), so the next
    /// draw takes it again.
    pub fn restore(&mut self, kind: EnvKind) {
        let n = self.ready.entry(kind).or_default();
        *n = n.saturating_add(1);
    }

    /// Refills the pool toward its targets, returning the number
    /// pre-started (background provider work, charged to the provider
    /// not the tenant).
    pub fn refill(&mut self) -> usize {
        let mut started = 0usize;
        for (&kind, &target) in &self.config.target_per_kind {
            let cur = self.ready.entry(kind).or_default();
            if *cur < target {
                let add = target - *cur;
                started = started.saturating_add(add);
                self.stats.prewarmed = self.stats.prewarmed.saturating_add(add as u64);
                *cur = target;
            }
        }
        started
    }

    /// Instances ready for `kind` right now.
    pub fn ready(&self, kind: EnvKind) -> usize {
        self.ready.get(&kind).copied().unwrap_or(0)
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
    fn a_restored_instance_is_drawn_warm_next() {
        let mut p = WarmPool::new(WarmPoolConfig::disabled().with(EnvKind::Container, 1));
        assert!(p.acquire_detailed(EnvKind::Container).warm);
        let before = p.stats();
        p.restore(EnvKind::Container);
        assert_eq!(p.stats(), before, "a hand-back is neither a hit nor a miss");
        assert_eq!(p.ready(EnvKind::Container), 1);
        assert!(p.acquire_detailed(EnvKind::Container).warm);
        assert!(!p.acquire_detailed(EnvKind::Container).warm);
        assert_eq!((p.stats().hits, p.stats().misses), (2, 1));
    }

    #[test]
    fn an_absurd_target_allocates_nothing_and_never_overflows() {
        let mut p = WarmPool::new(WarmPoolConfig::uniform(usize::MAX));
        assert_eq!(p.stats().prewarmed, u64::MAX, "the sum saturates");
        assert_eq!(p.ready(EnvKind::Container), usize::MAX);
        assert!(p.acquire_detailed(EnvKind::Container).warm);
        assert!(p.acquire_detailed(EnvKind::FullVm).warm);
        p.restore(EnvKind::Container);
        assert_eq!(p.ready(EnvKind::Container), usize::MAX);
        p.restore(EnvKind::Container);
        assert_eq!(p.ready(EnvKind::Container), usize::MAX, "restore saturates");
        assert_eq!(p.refill(), 1, "only the FullVm draw is made up");
        assert_eq!(p.ready(EnvKind::FullVm), usize::MAX);
        assert_eq!(p.stats().prewarmed, u64::MAX);
    }

    #[test]
    fn hit_rate_mixed() {
        let mut p = WarmPool::new(WarmPoolConfig::disabled().with(EnvKind::Container, 1));
        p.acquire(EnvKind::Container);
        p.acquire(EnvKind::Container);
        assert!((p.stats().hit_rate() - 0.5).abs() < 1e-9);
    }
}
