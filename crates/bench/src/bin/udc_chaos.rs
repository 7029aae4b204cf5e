//! `udc-chaos` — deterministic chaos harness for the self-healing
//! control plane (§3.4).
//!
//! Sweeps crash rate × repair delay × checkpoint cadence over the
//! medical pipeline. Each trial injects a seeded [`FailurePlan`] into a
//! fresh cloud, drives [`UdcCloud::advance`] until the failure schedule
//! drains, and asserts the convergence invariants after every interval:
//!
//! - no live allocation references a dead device;
//! - no orphaned isolates (healthy ⇔ running environment with
//!   allocations; repairing/degraded ⇔ stopped, fully evicted);
//! - once converged, `verify_deployment` passes and the bill
//!   reconciles post-heal;
//! - every deployment ends converged or explicitly Degraded.
//!
//! Trials are independent: each derives its RNG seed from its index and
//! records into a private telemetry hub, absorbed in trial order — so
//! the exported artifact is byte-identical at any `--threads N`.
//!
//! ```text
//! udc-chaos                      # full 54-trial sweep
//! udc-chaos --threads 8          # same artifact, faster
//! udc-chaos --smoke              # small fixed sweep for CI
//! udc-chaos --explain A2         # repair decision audit for a module
//! udc-chaos --full-artifact      # dump the whole telemetry snapshot
//! udc-chaos --net                # partition/gray sweep (lease detector)
//! ```
//!
//! `--net` switches the harness from crash chaos to *network* chaos:
//! every trial attaches the lease-based failure detector and injects a
//! partition (width × lease length × gray-slowdown sweep) instead of
//! crashes. The devices are **up the whole time** — only their
//! heartbeats are cut or delayed — so the sweep exercises exactly the
//! gap between belief and ground truth: confirmation within the
//! detection bound, suspicion without eviction for gray devices, fresh
//! fencing epochs on re-placement, and zombie replicas whose launches
//! and writes bounce (`fenced`) after the partition heals.
//!
//! The default artifact is a *compact* per-trial summary distilled from
//! the trial Measurement events (a few hundred lines); `--full-artifact`
//! restores the complete hub snapshot — every span, decision, and metric
//! series — for trace tooling like `udc-trace`. Both are byte-identical
//! at any thread count.

use std::collections::BTreeSet;

use udc_bench::harness::{fan_out, parse_threads};
use udc_bench::{banner_stderr, fmt_us, pct, Table};
use udc_core::{CloudConfig, Deployment, ModuleHealth, UdcCloud};
use udc_dist::{ReplicatedStore, ReplicationParams, StoreError};
use udc_failure::{DetectorConfig, GrayFault, NetPlan, Partition};
use udc_hal::{DeviceId, FailurePlan};
use udc_isolate::WarmPoolConfig;
use udc_spec::{ConsistencyLevel, FailureHandling, ModuleId};
use udc_telemetry::{EventKind, FieldValue, Labels, ReasonCode, Telemetry};
use udc_workload::medical_pipeline;

use serde_json::{Number, Value};

/// Crash window: every crash lands inside the first simulated second.
const HORIZON_US: u64 = 1_000_000;
/// Interval between repair-loop invocations.
const STEP_US: u64 = 250_000;
/// Messages seeded per module (the recoverable state).
const MESSAGES_PER_MODULE: u64 = 40;

/// One cell of the sweep.
#[derive(Clone, Copy)]
struct Combo {
    crash_prob: f64,
    repair_delay_us: u64,
    /// 0 = re-execute everywhere; otherwise checkpoint every N messages
    /// (1 message models 1 ms of work, so this is also `interval_ms`).
    checkpoint_every: u64,
    rep: usize,
}

impl Combo {
    fn label(&self) -> Labels {
        Labels::tenant(format!(
            "c{:02}-r{}-k{:02}-{}",
            (self.crash_prob * 100.0) as u32,
            self.repair_delay_us / 1_000,
            self.checkpoint_every,
            self.rep
        ))
    }
}

fn sweep(smoke: bool) -> Vec<Combo> {
    let (crash_probs, repair_delays, cadences, reps): (&[f64], &[u64], &[u64], usize) = if smoke {
        (&[0.20], &[250_000], &[0, 8], 1)
    } else {
        (&[0.08, 0.20, 0.40], &[250_000, 2_000_000], &[0, 8, 32], 3)
    };
    let mut combos = Vec::new();
    for &crash_prob in crash_probs {
        for &repair_delay_us in repair_delays {
            for &checkpoint_every in cadences {
                for rep in 0..reps {
                    combos.push(Combo {
                        crash_prob,
                        repair_delay_us,
                        checkpoint_every,
                        rep,
                    });
                }
            }
        }
    }
    combos
}

/// Asserts the structural invariants that must hold after *every*
/// repair interval, not just at the end.
fn assert_interval_invariants(dep: &Deployment, dead: &BTreeSet<DeviceId>, trial: usize) {
    for (id, p) in &dep.placement.modules {
        let health = dep.health.module(id);
        let env = &dep.environments[id];
        match health {
            ModuleHealth::Healthy => {
                assert!(
                    !p.allocations.is_empty(),
                    "trial {trial}: healthy module {id} holds no allocation"
                );
                assert!(
                    env.is_running(),
                    "trial {trial}: healthy module {id} has no running isolate"
                );
                for a in &p.allocations {
                    for s in &a.slices {
                        assert!(
                            !dead.contains(&s.device),
                            "trial {trial}: {id} allocation references dead device {}",
                            s.device
                        );
                    }
                }
            }
            ModuleHealth::Repairing { .. } | ModuleHealth::Degraded { .. } => {
                // Fully evicted: no allocation survives, no isolate runs
                // detached from resources (an orphan).
                assert!(
                    p.allocations.is_empty(),
                    "trial {trial}: lost module {id} still holds allocations"
                );
                assert!(
                    !env.is_running(),
                    "trial {trial}: orphaned isolate for lost module {id}"
                );
            }
        }
    }
}

/// Runs one trial; returns its private hub for in-order absorption.
fn run_trial(trial: usize, combo: Combo) -> Telemetry {
    let seed = 0xC4A0_5000u64 + trial as u64;
    let labels = combo.label();

    // The user's failure-handling choice is the sweep's third axis:
    // override every module to the cadence under test (0 = re-execute).
    let mut app = medical_pipeline();
    for m in app.modules.values_mut() {
        m.dist.failure = Some(if combo.checkpoint_every == 0 {
            FailureHandling::Reexecute
        } else {
            FailureHandling::Checkpoint {
                interval_ms: combo.checkpoint_every,
            }
        });
    }

    let mut cloud = UdcCloud::new(CloudConfig {
        warm_pool: WarmPoolConfig::uniform(2),
        ..Default::default()
    });
    let tel = Telemetry::enabled();
    cloud.set_observer(tel.clone());
    let mut dep = cloud.submit(&app).expect("pipeline places");
    cloud.run(&dep); // record the billing counters the post-heal reconciliation audits
    dep.recovery.seed_app(&app, MESSAGES_PER_MODULE);

    // Anchor the failure window to the post-run clock: `run` advanced
    // simulated time by the workload's execution, and a plan left on
    // `[0, HORIZON_US)` would fire entirely inside the first tick —
    // crash and repair collapsing into one interval, so no repair ever
    // races a still-dead device.
    let t0 = cloud.datacenter().clock().now();
    let devices = cloud.datacenter().device_ids();
    cloud.datacenter_mut().set_failure_plan(
        FailurePlan::random(
            &devices,
            combo.crash_prob,
            HORIZON_US,
            combo.repair_delay_us,
            seed,
        )
        .shifted(t0),
    );

    // Drive the repair loop past the last possible event (crash window +
    // repair delay) plus the worst-case retry backoff tail.
    let deadline = HORIZON_US + combo.repair_delay_us + 12_000_000;
    let mut dead: BTreeSet<DeviceId> = BTreeSet::new();
    let mut elapsed = 0u64;
    let (mut crashes, mut repairs, mut retries) = (0u64, 0u64, 0u64);
    while elapsed < deadline {
        let report = cloud.advance(&mut dep, STEP_US);
        elapsed += STEP_US;
        for d in &report.crashed_devices {
            dead.insert(*d);
        }
        for d in &report.repaired_devices {
            dead.remove(d);
        }
        crashes += report.crashed_devices.len() as u64;
        repairs += report.repaired.len() as u64;
        retries += report.retried.len() as u64;
        assert_interval_invariants(&dep, &dead, trial);
        if elapsed > HORIZON_US + combo.repair_delay_us
            && report.is_quiet()
            && dep.health.repairing_modules().is_empty()
        {
            break;
        }
    }
    assert!(
        dead.is_empty(),
        "trial {trial}: failure plan left dead devices"
    );

    // Terminal invariant: converged, or *explicitly* degraded — never a
    // silent in-between.
    let degraded = dep.health.degraded_modules();
    let converged = dep.health.is_converged();
    assert!(
        converged || !degraded.is_empty(),
        "trial {trial}: neither converged nor degraded"
    );
    assert!(
        dep.health.repairing_modules().is_empty(),
        "trial {trial}: repair still in flight at the deadline"
    );
    if converged {
        let verification = cloud.verify_deployment(&dep);
        assert!(
            verification.all_fulfilled(),
            "trial {trial}: post-heal verification failed"
        );
        let billing = verification.billing.expect("telemetry enabled");
        assert!(
            billing.consistent(),
            "trial {trial}: bill does not reconcile post-heal: {billing:?}"
        );
    }

    tel.incr("chaos.trials", labels.clone(), 1);
    tel.incr("chaos.converged", labels.clone(), converged as u64);
    tel.incr(
        "chaos.degraded_modules",
        labels.clone(),
        degraded.len() as u64,
    );
    tel.incr("chaos.device_crashes", labels.clone(), crashes);
    tel.incr("chaos.module_repairs", labels.clone(), repairs);
    tel.incr("chaos.replace_retries", labels.clone(), retries);
    let mttr = tel.histogram("heal.mttr_us", &Labels::none());
    tel.event(
        EventKind::Measurement,
        labels,
        &[
            ("trial", FieldValue::from(trial)),
            ("crash_prob", FieldValue::from(combo.crash_prob)),
            ("repair_delay_us", FieldValue::from(combo.repair_delay_us)),
            ("checkpoint_every", FieldValue::from(combo.checkpoint_every)),
            ("device_crashes", FieldValue::from(crashes)),
            ("module_repairs", FieldValue::from(repairs)),
            ("converged", FieldValue::from(converged)),
            ("degraded_modules", FieldValue::from(degraded.len())),
            (
                "mttr_mean_us",
                FieldValue::from(mttr.as_ref().map(|h| h.mean).unwrap_or(0.0)),
            ),
        ],
    );

    cloud.teardown(&mut dep);
    tel
}

/// Partition window: long enough that every lease in the sweep crosses
/// its detection bound with room to re-place before the heal.
const NET_PARTITION_US: u64 = 4_000_000;
/// Gray-fault window (heartbeats delayed, never cut).
const NET_GRAY_US: u64 = 2_000_000;

/// One cell of the `--net` sweep.
#[derive(Clone, Copy)]
struct NetCombo {
    /// Devices isolated from the control plane (island size).
    partition_width: usize,
    /// Heartbeat lease under test.
    lease_us: u64,
    /// Gray slowdown in leases (0 = no gray device; 2 = beats arrive
    /// two leases late — suspicion territory, below the confirm bound).
    gray_x: u64,
    rep: usize,
}

impl NetCombo {
    fn label(&self) -> Labels {
        Labels::tenant(format!(
            "p{}-l{}-g{}-{}",
            self.partition_width,
            self.lease_us / 1_000,
            self.gray_x,
            self.rep
        ))
    }
}

fn net_sweep(smoke: bool) -> Vec<NetCombo> {
    let (widths, leases, grays): (&[usize], &[u64], &[u64]) = if smoke {
        (&[1, 2], &[100_000], &[0, 2])
    } else {
        (&[1, 2, 3], &[100_000, 250_000, 500_000], &[0, 2])
    };
    let mut combos = Vec::new();
    for &partition_width in widths {
        for &lease_us in leases {
            for &gray_x in grays {
                combos.push(NetCombo {
                    partition_width,
                    lease_us,
                    gray_x,
                    rep: 0,
                });
            }
        }
    }
    combos
}

/// Runs one `--net` trial; returns its private hub for in-order
/// absorption. The devices never crash — a partition cuts the island's
/// heartbeats and an optional gray fault delays one mainland device's —
/// so every invariant here is about *belief*: the detector must confirm
/// the island within its bound and nothing else, re-placement must mint
/// fresh fencing epochs, and the pre-partition replicas must be fenced
/// out of launches and writes once the partition heals.
fn run_net_trial(trial: usize, combo: NetCombo) -> Telemetry {
    let seed = 0xD15C_0000u64 + trial as u64;
    let labels = combo.label();

    let app = medical_pipeline();
    let mut cloud = UdcCloud::new(CloudConfig {
        warm_pool: WarmPoolConfig::uniform(2),
        ..Default::default()
    });
    let tel = Telemetry::enabled();
    cloud.set_observer(tel.clone());
    cloud.attach_failure_detection(DetectorConfig {
        lease_us: combo.lease_us,
        confirm_misses: 3,
        seed,
    });
    let mut dep = cloud.submit(&app).expect("pipeline places");
    cloud.run(&dep); // billing counters for the post-heal reconciliation
    let t0 = cloud.datacenter().clock().now();

    // The island: the first `partition_width` distinct devices the
    // placement actually uses (module-id order, so deterministic). One
    // further in-use device goes gray when the cell asks for it.
    let mut used: Vec<DeviceId> = Vec::new();
    for p in dep.placement.modules.values() {
        if !used.contains(&p.primary_device) {
            used.push(p.primary_device);
        }
    }
    let width = combo.partition_width.min(used.len() - 1).max(1);
    let island: Vec<DeviceId> = used[..width].to_vec();
    let gray_dev = if combo.gray_x > 0 {
        used.get(width).copied()
    } else {
        None
    };
    let mut net = NetPlan {
        partitions: vec![Partition {
            island: island.clone(),
            from_us: t0,
            until_us: t0 + NET_PARTITION_US,
        }],
        ..NetPlan::none()
    };
    if let Some(g) = gray_dev {
        net.grays.push(GrayFault {
            device: g,
            from_us: t0,
            until_us: t0 + NET_GRAY_US,
            delay_us: combo.gray_x * combo.lease_us,
            drop_per_mille: 0,
        });
    }
    cloud.set_net_plan(net);

    // Pre-partition placements: these epochs become stale the moment the
    // heal loop re-places their modules.
    let pre: Vec<(ModuleId, DeviceId, u64)> = dep
        .placement
        .modules
        .iter()
        .filter(|(_, p)| island.contains(&p.primary_device))
        .map(|(id, p)| (id.clone(), p.primary_device, p.epoch))
        .collect();
    assert!(
        !pre.is_empty(),
        "trial {trial}: island carries no module — sweep is vacuous"
    );

    let bound = cloud
        .detector()
        .expect("detector attached")
        .config()
        .detection_bound_us();
    // Poll at half the lease: the detector only sees silence at poll
    // time, so a poll grid coarser than the gray delay would let the
    // delayed beats land before anyone looks — the fault would be
    // *correctly* invisible, but the sweep is here to observe it.
    let step = (combo.lease_us / 2).clamp(50_000, STEP_US);
    let deadline = NET_PARTITION_US + bound + 8_000_000;
    let mut elapsed = 0u64;
    let (mut suspects, mut confirms, mut false_suspects, mut repairs) = (0u64, 0u64, 0u64, 0u64);
    while elapsed < deadline {
        let r = cloud.advance(&mut dep, step);
        elapsed += step;
        // Soundness: suspicion only ever lands on the island or the gray
        // device; confirmation only on the island — never the mainland.
        for d in &r.suspected {
            assert!(
                island.contains(d) || Some(*d) == gray_dev,
                "trial {trial}: suspected mainland device {d}"
            );
        }
        for d in &r.confirmed {
            assert!(
                island.contains(d),
                "trial {trial}: confirmed device {d} outside the island"
            );
            // Liveness: confirmation within the provable bound of the
            // partition start, plus the poll grid.
            assert!(
                elapsed <= bound + 2 * step,
                "trial {trial}: {d} confirmed at +{elapsed}us, bound {bound}us"
            );
        }
        suspects += r.suspected.len() as u64;
        confirms += r.confirmed.len() as u64;
        false_suspects += r.false_suspects;
        repairs += r.repaired.len() as u64;
        // Structural invariants hold against the *believed* dead set.
        let believed: BTreeSet<DeviceId> =
            cloud.detector().unwrap().confirmed().into_iter().collect();
        assert_interval_invariants(&dep, &believed, trial);
        if elapsed > NET_PARTITION_US + bound
            && r.is_quiet()
            && dep.health.repairing_modules().is_empty()
        {
            break;
        }
    }

    // The partition healed: belief drains back to ground truth.
    assert!(
        cloud.detector().unwrap().confirmed().is_empty(),
        "trial {trial}: confirmed set not drained after the heal"
    );
    assert!(
        dep.health.is_converged(),
        "trial {trial}: not converged after partition heal"
    );
    assert!(confirms >= 1, "trial {trial}: island was never confirmed");
    if gray_dev.is_some() {
        assert!(
            false_suspects >= 1,
            "trial {trial}: gray device never exonerated as a false suspect"
        );
    }

    // Zombie check: every pre-partition replica presents its stale epoch
    // and must bounce — no launch authorization, no store write.
    let mut fenced_launches = 0u64;
    for (id, old_dev, old_epoch) in &pre {
        let cur = cloud.module_epoch(id.as_str());
        assert!(
            cur > *old_epoch,
            "trial {trial}: {id} kept its pre-partition epoch {old_epoch}"
        );
        assert!(
            !cloud.authorize_launch(id.as_str(), *old_dev, *old_epoch),
            "trial {trial}: zombie launch for {id} authorized"
        );
        fenced_launches += 1;
        let mut store = ReplicatedStore::new(
            3,
            ConsistencyLevel::Sequential,
            ReplicationParams::default(),
        )
        .expect("store builds");
        store.set_fence(cur);
        assert!(
            matches!(
                store.write_fenced("zombie", b"stale", *old_epoch),
                Err(StoreError::Fenced { .. })
            ),
            "trial {trial}: post-fence write accepted for {id}"
        );
        assert_eq!(store.stats().fenced_writes, 1);
        assert!(
            store.read("zombie").value.is_none(),
            "trial {trial}: zombie write left a trace"
        );
    }

    let verification = cloud.verify_deployment(&dep);
    assert!(
        verification.all_fulfilled(),
        "trial {trial}: post-heal verification failed"
    );
    let billing = verification.billing.expect("telemetry enabled");
    assert!(
        billing.consistent(),
        "trial {trial}: bill does not reconcile post-heal: {billing:?}"
    );

    tel.incr("chaos.net.trials", labels.clone(), 1);
    tel.incr("chaos.net.confirms", labels.clone(), confirms);
    tel.incr("chaos.net.false_suspects", labels.clone(), false_suspects);
    tel.incr("chaos.net.fenced_launches", labels.clone(), fenced_launches);
    tel.incr("chaos.net.module_repairs", labels.clone(), repairs);
    tel.event(
        EventKind::Measurement,
        labels,
        &[
            ("trial", FieldValue::from(trial)),
            ("partition_width", FieldValue::from(width as u64)),
            ("lease_us", FieldValue::from(combo.lease_us)),
            ("gray_x", FieldValue::from(combo.gray_x)),
            ("suspects", FieldValue::from(suspects)),
            ("confirms", FieldValue::from(confirms)),
            ("false_suspects", FieldValue::from(false_suspects)),
            ("fenced_launches", FieldValue::from(fenced_launches)),
            ("module_repairs", FieldValue::from(repairs)),
            ("converged", FieldValue::from(true)),
        ],
    );

    cloud.teardown(&mut dep);
    tel
}

/// Runs the default alert ruleset over the merged hub's recorded
/// events/decisions and flushes the fires into its alert ring (so both
/// artifact shapes carry them). Returns per-rule (count, first, last)
/// fire times, keyed by rule name.
fn evaluate_alerts(tel: &Telemetry) -> std::collections::BTreeMap<String, (u64, u64, u64)> {
    let mut engine = udc_query::QueryEngine::new();
    for parsed in udc_query::default_ruleset() {
        for q in parsed.queries {
            engine.register(q).expect("preset query registers");
        }
        engine.add_rule(parsed.rule).expect("preset rule loads");
    }
    // Trial clocks all start near zero, so the merged stream is only
    // time-ordered after the feed's sort; the barrier time just has to
    // sit past the last record (next full second, like replay).
    let snap = tel.snapshot();
    let max_at = snap
        .events
        .iter()
        .map(|e| e.at_us)
        .chain(snap.decisions.iter().map(|d| d.at_us))
        .max()
        .unwrap_or(0);
    let horizon = (max_at / 1_000_000 + 1) * 1_000_000;
    let mut feed = udc_query::HubFeed::new();
    engine.ingest(feed.poll(tel, horizon));
    engine.advance_to(horizon);
    let mut out = std::collections::BTreeMap::new();
    for a in engine.alerts() {
        let e = out.entry(a.rule.clone()).or_insert((0u64, u64::MAX, 0u64));
        e.0 += 1;
        e.1 = e.1.min(a.at_us);
        e.2 = e.2.max(a.at_us);
    }
    engine.fire_into(tel);
    out
}

/// Distills the sweep into the compact per-trial artifact: one object
/// per trial Measurement event (in deterministic trial order) plus
/// sweep totals and the absorbed MTTR summary. A 54-trial sweep exports
/// a few hundred lines instead of the ~200k-line full snapshot. Trials
/// are read from their private hubs, not the absorbed one, so the
/// absorbed flight recorder's ring eviction can never drop a row.
fn export_compact(
    schema: &str,
    file: &str,
    totals_keys: &[&'static str],
    smoke: bool,
    tel: &Telemetry,
    trial_hubs: &[Telemetry],
    alerts: &std::collections::BTreeMap<String, (u64, u64, u64)>,
) -> std::path::PathBuf {
    fn field(v: &FieldValue) -> Value {
        match v {
            FieldValue::U64(u) => Value::Number(Number::U(*u)),
            FieldValue::I64(i) => Value::Number(Number::I(*i)),
            FieldValue::F64(f) => Value::Number(Number::F(*f)),
            FieldValue::Str(s) => Value::String(s.clone()),
            FieldValue::Bool(b) => Value::Bool(*b),
        }
    }
    let mut trials = Vec::new();
    let mut totals: Vec<(&str, u64)> = totals_keys.iter().map(|&k| (k, 0)).collect();
    for hub in trial_hubs {
        let snap = hub.snapshot();
        let e = snap
            .events
            .iter()
            .rfind(|e| e.kind == EventKind::Measurement)
            .expect("every trial records a Measurement event");
        let mut obj = vec![(
            "cell".to_string(),
            Value::String(e.labels.tenant.clone().unwrap_or_default()),
        )];
        for (k, v) in &e.fields {
            obj.push((k.clone(), field(v)));
        }
        for (name, total) in totals.iter_mut() {
            match e.fields.iter().find(|(k, _)| k == name) {
                Some((_, FieldValue::U64(u))) => *total += u,
                Some((_, FieldValue::Bool(b))) => *total += *b as u64,
                _ => *total += (*name == "trials") as u64,
            }
        }
        trials.push(Value::Object(obj));
    }
    let mttr = tel
        .histogram("heal.mttr_us", &Labels::none())
        .map(|h| {
            Value::Object(vec![
                ("count".to_string(), Value::Number(Number::U(h.count))),
                ("mean".to_string(), Value::Number(Number::F(h.mean))),
                ("p50".to_string(), Value::Number(Number::U(h.p50))),
                ("p95".to_string(), Value::Number(Number::U(h.p95))),
                ("max".to_string(), Value::Number(Number::U(h.max))),
            ])
        })
        .unwrap_or(Value::Null);
    let doc = Value::Object(vec![
        ("schema".to_string(), Value::String(schema.to_string())),
        (
            "mode".to_string(),
            Value::String(if smoke { "smoke" } else { "full" }.to_string()),
        ),
        (
            "totals".to_string(),
            Value::Object(
                totals
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), Value::Number(Number::U(v))))
                    .collect(),
            ),
        ),
        ("mttr_us".to_string(), mttr),
        (
            "alerts".to_string(),
            Value::Array(
                alerts
                    .iter()
                    .map(|(rule, (count, first, last))| {
                        Value::Object(vec![
                            ("rule".to_string(), Value::String(rule.clone())),
                            ("count".to_string(), Value::Number(Number::U(*count))),
                            ("first_us".to_string(), Value::Number(Number::U(*first))),
                            ("last_us".to_string(), Value::Number(Number::U(*last))),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("trials".to_string(), Value::Array(trials)),
    ]);
    let path = udc_bench::results_path(file);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).expect("results dir");
    }
    let json = serde_json::to_string_pretty(&doc).expect("compact artifact renders");
    std::fs::write(&path, json + "\n").expect("compact artifact writes");
    eprintln!();
    eprintln!("Compact chaos artifact: {}", path.display());
    println!("{}", path.display());
    path
}

/// The `--net` entry point: partition/gray sweep under the lease
/// detector. Same execution model as the crash sweep — independent
/// seeded trials, private hubs absorbed in trial order, alert pass at
/// the single-threaded barrier — so the artifact is byte-identical at
/// any `--threads N`.
fn net_main(smoke: bool, full_artifact: bool, threads: usize, explain: Option<String>) {
    banner_stderr(
        "udc-chaos --net",
        "Lease detection under partitions and gray failures",
        "the detector sees only heartbeat arrivals: partitions are \
         indistinguishable from crashes, so eviction must come with a \
         fencing epoch that locks the old replica out after the heal",
    );

    let combos = net_sweep(smoke);
    eprintln!(
        "{} trials ({} mode), {} thread(s)",
        combos.len(),
        if smoke { "smoke" } else { "full" },
        threads
    );

    let tel = Telemetry::enabled();
    let trial_hubs = fan_out(threads, combos.len(), |i| run_net_trial(i, combos[i]));
    for trial in &trial_hubs {
        tel.absorb(trial);
    }
    let alerts = evaluate_alerts(&tel);

    let mut t = Table::new(&[
        "island",
        "lease",
        "gray",
        "trials",
        "confirms",
        "false suspects",
        "fenced launches",
        "repairs",
    ]);
    for combo in &combos {
        let l = combo.label();
        t.row(&[
            combo.partition_width.to_string(),
            fmt_us(combo.lease_us),
            if combo.gray_x == 0 {
                "—".to_string()
            } else {
                format!("{}× lease", combo.gray_x)
            },
            tel.counter("chaos.net.trials", &l).to_string(),
            tel.counter("chaos.net.confirms", &l).to_string(),
            tel.counter("chaos.net.false_suspects", &l).to_string(),
            tel.counter("chaos.net.fenced_launches", &l).to_string(),
            tel.counter("chaos.net.module_repairs", &l).to_string(),
        ]);
    }
    t.eprint();
    eprintln!();
    eprintln!(
        "every trial healed, reconciled its bill, and fenced all zombie \
         launches and writes (0 accepted)"
    );
    if !alerts.is_empty() {
        let parts: Vec<String> = alerts
            .iter()
            .map(|(rule, (count, _, _))| format!("{count} {rule}"))
            .collect();
        eprintln!("alerts (default ruleset): {}", parts.join(", "));
    }

    if let Some(module) = explain {
        explain_module(&tel, &module);
    }

    if full_artifact {
        udc_bench::report::export("udc_chaos_net", &tel);
    } else {
        export_compact(
            "udc.chaos.net.compact.v1",
            "udc_chaos_net.json",
            &[
                "trials",
                "converged",
                "confirms",
                "false_suspects",
                "fenced_launches",
                "module_repairs",
            ],
            smoke,
            &tel,
            &trial_hubs,
            &alerts,
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let full_artifact = args.iter().any(|a| a == "--full-artifact");
    let net = args.iter().any(|a| a == "--net");
    let explain = args
        .iter()
        .position(|a| a == "--explain")
        .and_then(|i| args.get(i + 1).cloned());
    let threads = match parse_threads(&args) {
        Ok(n) => n,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };

    if net {
        return net_main(smoke, full_artifact, threads, explain);
    }

    banner_stderr(
        "udc-chaos",
        "Self-healing under deterministic chaos",
        "user-defined failure handling only matters if the provider closes \
         the loop: crash → detect → evict → re-place → re-launch → recover",
    );

    let combos = sweep(smoke);
    eprintln!(
        "{} trials ({} mode), {} thread(s)",
        combos.len(),
        if smoke { "smoke" } else { "full" },
        threads
    );

    let tel = Telemetry::enabled();
    let trial_hubs = fan_out(threads, combos.len(), |i| run_trial(i, combos[i]));
    for trial in &trial_hubs {
        tel.absorb(trial);
    }

    // Continuous-query pass at the single-threaded barrier: the default
    // ruleset runs over the merged hub's event/decision stream — after
    // absorption in trial order, so the fires (and the artifact they
    // land in) are byte-identical at any `--threads N`.
    let alerts = evaluate_alerts(&tel);

    // Human summary per sweep cell (rep 0 shown; all reps absorbed).
    let mut t = Table::new(&[
        "crash prob",
        "repair delay",
        "ckpt every",
        "trials",
        "converged",
        "degraded mods",
        "crashes",
        "repairs",
        "retries",
    ]);
    let mut seen = BTreeSet::new();
    let (mut trials_all, mut converged_all) = (0u64, 0u64);
    for combo in &combos {
        let key = (
            (combo.crash_prob * 100.0) as u32,
            combo.repair_delay_us,
            combo.checkpoint_every,
        );
        if !seen.insert(key) {
            continue;
        }
        let (mut n, mut conv, mut degr, mut crash, mut rep, mut retr) = (0, 0, 0, 0, 0, 0);
        for other in &combos {
            if (
                (other.crash_prob * 100.0) as u32,
                other.repair_delay_us,
                other.checkpoint_every,
            ) != key
            {
                continue;
            }
            let l = other.label();
            n += tel.counter("chaos.trials", &l);
            conv += tel.counter("chaos.converged", &l);
            degr += tel.counter("chaos.degraded_modules", &l);
            crash += tel.counter("chaos.device_crashes", &l);
            rep += tel.counter("chaos.module_repairs", &l);
            retr += tel.counter("chaos.replace_retries", &l);
        }
        trials_all += n;
        converged_all += conv;
        t.row(&[
            pct(combo.crash_prob),
            fmt_us(combo.repair_delay_us),
            if combo.checkpoint_every == 0 {
                "reexec".to_string()
            } else {
                combo.checkpoint_every.to_string()
            },
            n.to_string(),
            conv.to_string(),
            degr.to_string(),
            crash.to_string(),
            rep.to_string(),
            retr.to_string(),
        ]);
    }
    t.eprint();
    eprintln!();
    if let Some(h) = tel.histogram("heal.mttr_us", &Labels::none()) {
        eprintln!(
            "MTTR over {} repairs: mean {}, p95 {}",
            h.count,
            fmt_us(h.mean as u64),
            fmt_us(h.p95),
        );
    }
    eprintln!(
        "convergence: {converged_all}/{trials_all} trials healed fully \
         (the rest ended explicitly Degraded)"
    );
    if !alerts.is_empty() {
        let parts: Vec<String> = alerts
            .iter()
            .map(|(rule, (count, _, _))| format!("{count} {rule}"))
            .collect();
        eprintln!("alerts (default ruleset): {}", parts.join(", "));
    }

    if let Some(module) = explain {
        explain_module(&tel, &module);
    }

    if full_artifact {
        udc_bench::report::export("udc_chaos", &tel);
    } else {
        export_compact(
            "udc.chaos.compact.v1",
            "udc_chaos.json",
            &[
                "trials",
                "converged",
                "device_crashes",
                "module_repairs",
                "degraded_modules",
            ],
            smoke,
            &tel,
            &trial_hubs,
            &alerts,
        );
    }
}

/// Prints the repair/fencing decision audit for one module.
fn explain_module(tel: &Telemetry, module: &str) {
    let snapshot = tel.snapshot();
    let picked: Vec<_> = snapshot
        .decisions
        .iter()
        .filter(|d| {
            // The repair story for a module spans three stages: the
            // heal loop's own records (detect/degraded), the
            // re-placement audit, where rejected candidates carry
            // the crash_excluded code, and the fence check, where a
            // zombie replica's stale epoch is turned away. Plain
            // submit-time placement records never use these reason
            // codes, so this picks out exactly the healing trail.
            d.module == module
                && (d.stage.starts_with("heal.")
                    || d.stage.starts_with("fence.")
                    || matches!(
                        d.reason,
                        ReasonCode::CrashExcluded
                            | ReasonCode::Evicted
                            | ReasonCode::Degraded
                            | ReasonCode::Fenced
                    ))
        })
        .collect();
    eprintln!();
    if picked.is_empty() {
        eprintln!("no repair decisions recorded for module `{module}`");
    } else {
        eprintln!("repair audit for `{module}` ({} records):", picked.len());
        let mut t = Table::new(&["at", "stage", "candidate", "verdict", "reason", "detail"]);
        for d in picked {
            t.row(&[
                fmt_us(d.at_us),
                d.stage.clone(),
                d.candidate.clone(),
                if d.accepted { "accepted" } else { "rejected" }.to_string(),
                d.reason.as_str().to_string(),
                d.detail.clone(),
            ]);
        }
        t.eprint();
    }
}
