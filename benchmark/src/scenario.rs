//! The four workloads as data, and the clouds, plans and rule sets they
//! are built from. Everything here is input generation: the product
//! receives the resulting configs, texts and plans, never the seed.

use crate::corpus::{self, Spec};
use crate::rng::Rng;
use std::collections::BTreeMap;
use udc_core::{CloudConfig, UdcCloud};
use udc_economics::{demand_of_app, shared, PlanSpec, QuotaGate, SharedQuotaGate};
use udc_failure::{DetectorConfig, GrayFault, NetPlan, Partition};
use udc_hal::{DatacenterConfig, DeviceId, FailureEvent};
use udc_isolate::WarmPoolConfig;
use udc_query::{default_ruleset, QueryEngine};
use udc_spec::{AppSpec, ResourceVector};

/// One control-loop tick of simulated time.
pub const TICK_US: u64 = 250_000;
/// A crashed device comes back this much later.
pub const REPAIR_AFTER_US: u64 = 1_000_000;
/// Messages seeded per module as recoverable state.
pub const SEED_MESSAGES: u64 = 16;
/// Heartbeat lease and confirmation threshold of the attached detector.
pub const LEASE_US: u64 = 100_000;
pub const CONFIRM_MISSES: u32 = 3;
/// The failure and network plans cover this many ticks; a round never
/// runs longer, so the fault load per tick is the same however fast the
/// host gets through them.
pub const MAX_TICKS_PER_ROUND: u64 = 4_000;
/// One partition window and one gray window per this many ticks.
const NET_PERIOD_TICKS: u64 = 40;
/// Chance per tick that a device running one of the fleet's tasks crashes.
/// A device stays down for a second (four to five ticks), and a tick costs
/// more while any device is down, more again when one crashes: at 0.25
/// about a quarter of the ticks see no dead device, half see one without a
/// new crash, a quarter carry a crash — so the median sits well inside the
/// middle group and p95 well inside the last, whatever the seed.
pub const CRASH_PER_TICK: f64 = 0.25;
/// Alert after this long degraded (the rule `attach_queries` loads).
pub const DEGRADED_ALERT_AFTER_US: u64 = 1_000_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Closed loop of tenant lives: parse → submit → run → verify → teardown.
    Churn,
    /// Closed loop of control-loop ticks: `advance` over every deployment.
    Fleet,
}

#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// Datacenter size in multiples of the default 100-device mix.
    pub dc_scale: usize,
    /// Telemetry, economics, lease detection and queries switched on.
    pub attached: bool,
    /// Deployments placed during set-up: the standing population a churn
    /// workload deploys beside, or the fleet a fleet workload supervises.
    pub standing: usize,
    /// The one corpus spec every standing deployment runs; `None` cycles
    /// through the whole corpus.
    pub standing_spec: Option<&'static str>,
    /// Untimed ticks at the start of a round. The first ticks over a
    /// freshly built fleet run up to three times slower than the rest
    /// (cold caches and page tables over some hundred MiB of deployments).
    pub warmup_ticks: u64,
    /// The tail percentile reported as `op_tail_us`, in per-mille. Fixed
    /// per workload so it cannot flip between runs.
    pub tail_per_mille: u32,
    /// `None`: the percentile is taken over all of a run's samples.
    /// `Some(n)`: over each window of `n` consecutive operations, and the
    /// median of the windows is reported (`stats::windowed_percentile`).
    /// Only `fleet_attached` needs that. Its ticks have no tail of their
    /// own: sixteen polls of one hub make a tick, a tick that repairs costs
    /// what a quiet one does, and p95 is 1.2 times the median. What varies
    /// is the host, by more than that between one spell of seconds and the
    /// next, so a percentile over a whole run reads the slow spell's
    /// ordinary tick. Elsewhere the tail is at least twice the median (the
    /// biggest specs; the ticks that re-place) and pooling all samples is
    /// the steadier estimate.
    pub tail_window: Option<usize>,
    /// Operations per round when a run is sized by count (`--check`).
    pub check_ops: u64,
}

pub const WORKLOADS: [Scenario; 4] = [
    Scenario {
        name: "churn_small",
        why: "100 devices, nothing attached: per-request fixed cost (spec, crypto, isolate) dominates; sched/hal scan almost nothing",
        kind: Kind::Churn,
        dc_scale: 1,
        attached: false,
        standing: 0,
        standing_spec: None,
        warmup_ticks: 0,
        tail_per_mille: 950,
        tail_window: None,
        check_ops: 404,
    },
    Scenario {
        name: "churn_big",
        why: "100 000 devices, 256 standing deployments: sched + hal do ~90 % of a life (submit is linear in devices); spec/crypto are noise",
        kind: Kind::Churn,
        dc_scale: 1000,
        attached: false,
        standing: 256,
        standing_spec: None,
        warmup_ticks: 0,
        tail_per_mille: 950,
        tail_window: None,
        check_ops: 101,
    },
    Scenario {
        name: "fleet_attached",
        why: "16 deployments on 1 000 devices with telemetry, economics, lease detection and queries on: the instruments' switched-on cost per tick",
        kind: Kind::Fleet,
        dc_scale: 10,
        attached: true,
        standing: 16,
        standing_spec: None,
        warmup_ticks: 8,
        tail_per_mille: 800,
        tail_window: Some(10),
        check_ops: 24,
    },
    Scenario {
        name: "fleet_detached",
        why: "2 500 deployments on 10 000 devices, every instrument bypassed: the bare advance / heal / re-place path at fleet size",
        kind: Kind::Fleet,
        dc_scale: 100,
        attached: false,
        standing: 2_500,
        standing_spec: Some("microservices_3"),
        warmup_ticks: 32,
        tail_per_mille: 950,
        tail_window: None,
        check_ops: 24,
    },
];

impl Scenario {
    pub fn named(name: &str) -> Option<Scenario> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The same shape at roughly a fiftieth of the size, for `--check`.
    pub fn check_sized(mut self) -> Scenario {
        self.dc_scale = (self.dc_scale / 50).max(1);
        if self.standing > 0 {
            self.standing = (self.standing / 50).max(4);
        }
        self
    }

    /// `fleet_attached` with every instrument off: the denominator of
    /// `instrument.attached_over_detached`.
    pub fn detached_twin(mut self) -> Scenario {
        self.attached = false;
        self
    }

    pub fn devices(&self) -> usize {
        self.datacenter().pools.iter().map(|p| p.devices).sum()
    }

    pub fn datacenter(&self) -> DatacenterConfig {
        let mut config = DatacenterConfig::default();
        for pool in &mut config.pools {
            pool.devices *= self.dc_scale;
        }
        config.racks *= self.dc_scale;
        config
    }

    pub fn cloud_config(&self) -> CloudConfig {
        CloudConfig {
            datacenter: self.datacenter(),
            warm_pool: if self.attached {
                WarmPoolConfig::uniform(2)
            } else {
                WarmPoolConfig::disabled()
            },
            ..CloudConfig::default()
        }
    }

    /// The corpus specs of the standing population, in slot order. The
    /// multiset is the same for every seed (so totals compare across
    /// seeds); the seed only fixes which slot gets which spec.
    pub fn standing_specs(&self, seed: u64) -> Vec<&'static Spec> {
        let mut specs: Vec<&'static Spec> = match self.standing_spec {
            Some(name) => vec![corpus::feasible(name); self.standing],
            None => (0..self.standing)
                .map(|i| &corpus::FEASIBLE[i % corpus::FEASIBLE.len()])
                .collect(),
        };
        Rng::derive(seed, 0x57a4).shuffle(&mut specs);
        specs
    }
}

/// The default alert rules as an engine, the way `udc-query` loads them.
pub fn query_engine() -> QueryEngine {
    let mut engine = QueryEngine::new();
    for parsed in default_ruleset() {
        for q in parsed.queries {
            engine.register(q).expect("preset query registers");
        }
        engine.add_rule(parsed.rule).expect("preset rule loads");
    }
    engine
}

/// A finite plan: a quota of twice the standing population's footprint
/// and a per-second entitlement far above what it can spend, so the
/// admission, settle and metering paths all run and nothing is ever
/// suspended.
pub fn plan_for(apps: &[AppSpec]) -> PlanSpec {
    let mut quota = ResourceVector::new();
    for app in apps {
        quota.saturating_add_assign(&demand_of_app(app).scaled(2));
    }
    PlanSpec {
        name: "benchmark".to_string(),
        window_us: 1_000_000,
        credit_per_window: 1_000_000_000_000,
        quota,
        degrade_after_us: 10_000_000,
        suspend_after_us: 60_000_000,
    }
}

pub fn detector_config(seed: u64) -> DetectorConfig {
    DetectorConfig {
        lease_us: LEASE_US,
        confirm_misses: CONFIRM_MISSES,
        seed,
    }
}

/// A cloud with this scenario's attachments, plus the economics handle
/// when there is one.
pub fn build_cloud(
    scn: &Scenario,
    seed: u64,
    apps: &[AppSpec],
) -> (UdcCloud, Option<SharedQuotaGate>) {
    let mut cloud = UdcCloud::new(scn.cloud_config());
    if !scn.attached {
        return (cloud, None);
    }
    cloud.enable_telemetry();
    let mut gate = QuotaGate::new();
    gate.open_account("tenant", plan_for(apps), 0);
    let gate = shared(gate);
    cloud.attach_economics(gate.clone());
    cloud.attach_failure_detection(detector_config(seed));
    cloud.attach_queries(query_engine(), DEGRADED_ALERT_AFTER_US);
    (cloud, Some(gate))
}

/// A stationary crash process over `domain`: every tick a device crashes
/// with probability [`CRASH_PER_TICK`], is repaired one second later, and
/// is not crashed again while it is down. Each crash is directly followed
/// by its repair in the returned list.
pub fn failure_events(domain: &[DeviceId], t0_us: u64, seed: u64) -> Vec<FailureEvent> {
    let mut events = Vec::new();
    if domain.is_empty() {
        return events;
    }
    let mut rng = Rng::derive(seed, 0xfa11);
    let mut down_until: BTreeMap<DeviceId, u64> = BTreeMap::new();
    for tick in 0..MAX_TICKS_PER_ROUND {
        if rng.unit() >= CRASH_PER_TICK {
            continue;
        }
        let device = domain[rng.below(domain.len() as u64) as usize];
        let at_us = t0_us + tick * TICK_US + rng.below(TICK_US);
        if down_until.get(&device).is_some_and(|&until| at_us <= until) {
            continue;
        }
        down_until.insert(device, at_us + REPAIR_AFTER_US);
        for (at_us, crash) in [(at_us, true), (at_us + REPAIR_AFTER_US, false)] {
            events.push(FailureEvent {
                at_us,
                device,
                crash,
            });
        }
    }
    events
}

/// Every ten simulated seconds: one device of `domain` partitioned from the
/// control plane for two seconds (long enough to be confirmed and healed
/// around), and another gray for five (beats 1.5 leases late: suspected,
/// never confirmed).
pub fn net_plan(domain: &[DeviceId], t0_us: u64, seed: u64) -> NetPlan {
    let mut net = NetPlan {
        seed,
        ..NetPlan::none()
    };
    if domain.len() < 2 {
        return net;
    }
    let mut rng = Rng::derive(seed, 0x9e7);
    let period_us = NET_PERIOD_TICKS * TICK_US;
    for k in 0..MAX_TICKS_PER_ROUND / NET_PERIOD_TICKS {
        let base = t0_us + k * period_us;
        let island = rng.below(domain.len() as u64) as usize;
        let gray = (island + 1 + rng.below(domain.len() as u64 - 1) as usize) % domain.len();
        net.partitions.push(Partition {
            island: vec![domain[island]],
            from_us: base + 2_000_000,
            until_us: base + 4_000_000,
        });
        net.grays.push(GrayFault {
            device: domain[gray],
            from_us: base + 1_000_000,
            until_us: base + 6_000_000,
            delay_us: LEASE_US * 3 / 2,
            drop_per_mille: 0,
        });
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_resolvable() {
        for w in &WORKLOADS {
            assert_eq!(Scenario::named(w.name).unwrap().name, w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        assert!(Scenario::named("nope").is_none());
    }

    #[test]
    fn datacenters_have_the_advertised_sizes() {
        let sizes: Vec<usize> = WORKLOADS.iter().map(Scenario::devices).collect();
        assert_eq!(sizes, vec![100, 100_000, 1_000, 10_000]);
    }

    #[test]
    fn standing_population_is_the_same_multiset_for_every_seed() {
        let scn = Scenario::named("churn_big").unwrap();
        let names = |seed| {
            let mut n: Vec<&str> = scn.standing_specs(seed).iter().map(|s| s.name).collect();
            let order = n.clone();
            n.sort_unstable();
            (order, n)
        };
        let ((order1, sorted1), (order2, sorted2)) = (names(1), names(2));
        assert_eq!(sorted1, sorted2);
        assert_ne!(order1, order2);
        assert_eq!(order1.len(), 256);
    }

    #[test]
    fn crash_process_is_stationary_paired_and_never_recrashes_a_down_device() {
        let occupied: Vec<DeviceId> = (0..40).map(DeviceId).collect();
        let events = failure_events(&occupied, 0, 9);
        let crashes: Vec<&FailureEvent> = events.iter().filter(|e| e.crash).collect();
        assert_eq!(crashes.len() * 2, events.len());
        let per_tick = crashes.len() as f64 / MAX_TICKS_PER_ROUND as f64;
        assert!((per_tick - CRASH_PER_TICK).abs() < 0.05, "{per_tick}");
        let half = crashes
            .iter()
            .filter(|e| e.at_us < MAX_TICKS_PER_ROUND / 2 * TICK_US)
            .count();
        assert!((half as f64 / crashes.len() as f64 - 0.5).abs() < 0.05);
        let mut by_device: BTreeMap<DeviceId, Vec<u64>> = BTreeMap::new();
        for c in &crashes {
            by_device.entry(c.device).or_default().push(c.at_us);
        }
        for times in by_device.values() {
            assert!(times.windows(2).all(|w| w[1] > w[0] + REPAIR_AFTER_US));
        }
        assert!(events.chunks(2).all(|pair| pair[0].crash && !pair[1].crash));
        assert_eq!(events, failure_events(&occupied, 0, 9));
        assert_ne!(events, failure_events(&occupied, 0, 10));
    }

    #[test]
    fn net_plan_never_grays_the_partitioned_device() {
        let occupied: Vec<DeviceId> = (0..7).map(DeviceId).collect();
        let net = net_plan(&occupied, 0, 3);
        assert_eq!(
            net.partitions.len() as u64,
            MAX_TICKS_PER_ROUND / NET_PERIOD_TICKS
        );
        for (p, g) in net.partitions.iter().zip(&net.grays) {
            assert_ne!(p.island[0], g.device);
        }
    }
}
