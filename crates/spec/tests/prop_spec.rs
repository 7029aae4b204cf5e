//! Property-based tests for the spec crate: text-format round-trips,
//! conflict-resolution invariants, validation robustness, and the front
//! door ([`ResolvedApp`]) under well-formed and hostile input.

use proptest::prelude::*;
use udc_core::{CloudConfig, CloudError, UdcCloud};
use udc_spec::aspect::*;
use udc_spec::conflict::{detect_conflicts, resolve, ConflictPolicy};
use udc_spec::dag::{AppSpec, DataSpec, EdgeKind, TaskSpec};
use udc_spec::parser::parse_app;
use udc_spec::printer::print_app;
use udc_spec::ResolvedApp;

fn arb_kind() -> impl Strategy<Value = ResourceKind> {
    prop::sample::select(ResourceKind::ALL.to_vec())
}

fn arb_goal() -> impl Strategy<Value = Option<Goal>> {
    prop_oneof![
        Just(None),
        Just(Some(Goal::Fastest)),
        Just(Some(Goal::Cheapest))
    ]
}

fn arb_isolation() -> impl Strategy<Value = Option<IsolationLevel>> {
    prop_oneof![
        Just(None),
        Just(Some(IsolationLevel::Weak)),
        Just(Some(IsolationLevel::Medium)),
        Just(Some(IsolationLevel::Strong)),
        Just(Some(IsolationLevel::Strongest)),
    ]
}

fn arb_consistency() -> impl Strategy<Value = ConsistencyLevel> {
    prop::sample::select(vec![
        ConsistencyLevel::Eventual,
        ConsistencyLevel::Release,
        ConsistencyLevel::Causal,
        ConsistencyLevel::Sequential,
        ConsistencyLevel::Linearizable,
    ])
}

fn arb_protection() -> impl Strategy<Value = DataProtection> {
    (any::<bool>(), any::<bool>(), any::<bool>()).prop_map(|(c, i, r)| DataProtection {
        confidentiality: c,
        integrity: i,
        replay: r,
    })
}

fn arb_resource_aspect() -> impl Strategy<Value = ResourceAspect> {
    (
        arb_goal(),
        prop::collection::vec((arb_kind(), 1u64..10_000), 0..4),
        prop::collection::vec(arb_kind(), 0..3),
    )
        .prop_map(|(goal, demands, cands)| {
            let mut a = ResourceAspect {
                goal,
                ..Default::default()
            };
            for (k, v) in demands {
                let cur = a.demand.get(k);
                a.demand.set(k, cur.saturating_add(v));
            }
            for c in cands {
                if !a.candidates.contains(&c) {
                    a.candidates.push(c);
                }
            }
            a
        })
}

fn arb_exec_aspect() -> impl Strategy<Value = ExecEnvAspect> {
    (
        arb_isolation(),
        prop_oneof![
            Just(None),
            Just(Some(Tenancy::Shared)),
            Just(Some(Tenancy::SingleTenant))
        ],
        any::<bool>(),
        prop_oneof![Just(None), arb_protection().prop_map(Some)],
    )
        .prop_map(|(isolation, tenancy, tee, protection)| ExecEnvAspect {
            isolation,
            tenancy,
            tee_if_cpu: tee,
            protection,
        })
}

fn arb_dist_aspect() -> impl Strategy<Value = DistributedAspect> {
    (
        1u32..=8,
        prop_oneof![Just(None), arb_consistency().prop_map(Some)],
        prop::sample::select(vec![
            OpPreference::None,
            OpPreference::Reader,
            OpPreference::Writer,
        ]),
        prop_oneof![
            Just(None),
            Just(Some(FailureHandling::Reexecute)),
            (1u64..100_000)
                .prop_map(|interval_ms| Some(FailureHandling::Checkpoint { interval_ms })),
        ],
        // Two domains are shared on purpose: modules that meet in one
        // with different replication factors conflict.
        prop_oneof![
            Just(None),
            "[a-z][a-z0-9]{0,6}".prop_map(Some),
            "d[01]".prop_map(Some)
        ],
    )
        .prop_map(
            |(replication, consistency, preference, failure, failure_domain)| DistributedAspect {
                replication,
                consistency,
                preference,
                failure,
                failure_domain,
            },
        )
}

/// Generates a valid application: `n_tasks` tasks in a chain plus
/// `n_data` data modules, each accessed by one task under a consistency
/// requirement and by the next under a protection requirement.
fn arb_app() -> impl Strategy<Value = AppSpec> {
    (
        1usize..6,
        0usize..4,
        prop::collection::vec(arb_resource_aspect(), 10),
        prop::collection::vec(arb_exec_aspect(), 10),
        prop::collection::vec(arb_dist_aspect(), 10),
        prop::collection::vec(prop_oneof![Just(None), arb_consistency().prop_map(Some)], 4),
        prop::collection::vec(prop_oneof![Just(None), arb_protection().prop_map(Some)], 4),
    )
        .prop_map(|(n_tasks, n_data, res, exec, dist, reqs, prots)| {
            let mut app = AppSpec::new("gen");
            for i in 0..n_tasks {
                let mut exec_a = exec[i].clone();
                // Keep the generated app valid: strongest isolation
                // implies single-tenant.
                if exec_a.isolation == Some(IsolationLevel::Strongest) {
                    exec_a.tenancy = Some(Tenancy::SingleTenant);
                }
                let mut dist_a = dist[i].clone();
                dist_a.consistency = None; // Tasks cannot carry consistency.
                app.add_task(
                    TaskSpec::new(&format!("T{i}"))
                        .with_resource(res[i].clone())
                        .with_exec_env(exec_a)
                        .with_dist(dist_a),
                );
            }
            for i in 1..n_tasks {
                app.add_edge(
                    &format!("T{}", i - 1),
                    &format!("T{i}"),
                    EdgeKind::Dependency,
                )
                .unwrap();
            }
            for j in 0..n_data {
                let mut exec_a = exec[5 + j].clone();
                if exec_a.isolation == Some(IsolationLevel::Strongest) {
                    exec_a.tenancy = Some(Tenancy::SingleTenant);
                }
                app.add_data(
                    DataSpec::new(&format!("S{j}"))
                        .with_resource(res[5 + j].clone())
                        .with_exec_env(exec_a)
                        .with_dist(dist[5 + j].clone()),
                );
                let accessor = format!("T{}", j % n_tasks);
                app.add_access_with(&accessor, &format!("S{j}"), reqs[j], None)
                    .unwrap();
                let second = format!("T{}", (j + 1) % n_tasks);
                app.add_access_with(&format!("S{j}"), &second, None, prots[j])
                    .unwrap();
            }
            app
        })
}

/// What the hostile-input property mangles: every shipped `.udc` spec
/// and the printed form of each `udc_workload` generator (built once).
fn corpus() -> &'static [String] {
    static CORPUS: std::sync::OnceLock<Vec<String>> = std::sync::OnceLock::new();
    CORPUS.get_or_init(build_corpus)
}

fn build_corpus() -> Vec<String> {
    let specs = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/specs");
    let mut paths: Vec<_> = std::fs::read_dir(specs)
        .expect("examples/specs exists")
        .map(|entry| entry.expect("readable entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "udc"))
        .collect();
    paths.sort();
    let mut corpus: Vec<String> = paths
        .iter()
        .map(|path| std::fs::read_to_string(path).expect("readable spec"))
        .collect();
    assert!(!corpus.is_empty(), "no .udc spec under {specs}");
    let conflicting = udc_workload::RandomDagConfig {
        tasks: 6,
        data: 3,
        conflict_prob: 0.5,
        ..Default::default()
    };
    for app in [
        udc_workload::medical_pipeline(),
        udc_workload::microservice_chain(3),
        udc_workload::ml_serving_chain(2),
        udc_workload::analytics_fanout(4),
        udc_workload::random_app(conflicting).0,
    ] {
        corpus.push(print_app(&app));
    }
    corpus
}

/// One edit of `text`, seen as lines or as space-separated tokens:
/// delete unit `i` (op 0), duplicate it (1), or swap it with unit `j`.
fn mangle(text: &str, by_line: bool, op: u8, i: usize, j: usize) -> String {
    let sep = if by_line { "\n" } else { " " };
    let mut units: Vec<&str> = text.split(sep).collect();
    let (i, j) = (i % units.len(), j % units.len());
    match op {
        0 => drop(units.remove(i)),
        1 => units.insert(i, units[i]),
        _ => units.swap(i, j),
    }
    units.join(sep)
}

proptest! {
    /// The canonical printer and parser are inverse: parse(print(app)) == app.
    #[test]
    fn print_parse_round_trip(app in arb_app()) {
        let text = print_app(&app);
        let back = parse_app(&text)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{text}"));
        prop_assert_eq!(back, app);
    }

    /// Generated apps validate (the generator only emits coherent specs).
    #[test]
    fn generated_apps_validate(app in arb_app()) {
        prop_assert!(app.validate().is_ok(), "{:?}", app.validate());
    }

    /// JSON serde round-trips.
    #[test]
    fn json_round_trip(app in arb_app()) {
        let js = serde_json::to_string(&app).unwrap();
        let back: AppSpec = serde_json::from_str(&js).unwrap();
        prop_assert_eq!(back, app);
    }

    /// Strictest-wins resolution never weakens any aspect: every module's
    /// consistency, isolation, protection, and replication in the resolved
    /// app are >= the original.
    #[test]
    fn resolution_is_monotone(app in arb_app()) {
        let resolved = resolve(&app, ConflictPolicy::StrictestWins).unwrap();
        for (id, orig) in &app.modules {
            let new = resolved.module(id).unwrap();
            prop_assert!(new.dist.replication >= orig.dist.replication);
            if let Some(oc) = orig.dist.consistency {
                prop_assert!(new.dist.consistency.unwrap() >= oc);
            }
            if let Some(oi) = orig.exec_env.isolation {
                prop_assert!(new.exec_env.isolation.unwrap() >= oi);
            }
            if let Some(op) = orig.exec_env.protection {
                prop_assert!(op.subsumed_by(new.exec_env.protection.unwrap_or(op)));
            }
        }
    }

    /// After strictest-wins resolution, every data module's consistency is
    /// an upper bound of all its accessors' requirements.
    #[test]
    fn resolution_is_upper_bound(app in arb_app()) {
        let resolved = resolve(&app, ConflictPolicy::StrictestWins).unwrap();
        for e in &resolved.edges {
            let Some(req) = e.require_consistency else { continue };
            // Identify the data endpoint.
            let data_id = [&e.from, &e.to]
                .into_iter()
                .find(|id| {
                    resolved.module(id).map(|m| m.kind == udc_spec::dag::ModuleKind::Data)
                        == Some(true)
                });
            let Some(data_id) = data_id else { continue };
            let data = resolved.module(data_id).unwrap();
            let effective = data.dist.consistency.unwrap_or(ConsistencyLevel::Eventual);
            // Only guaranteed when a conflict was detected (>=2 distinct
            // levels); a single uncontested accessor requirement stays on
            // the edge. Strictest-wins handles the *conflicting* case.
            let report = detect_conflicts(&app);
            let conflicted = report.conflicts.iter().any(|c| matches!(
                c,
                udc_spec::conflict::ConflictKind::Consistency { data: d, .. } if d == data_id
            ));
            if conflicted {
                prop_assert!(effective >= req,
                    "data {data_id}: effective {effective:?} < required {req:?}");
            }
        }
    }

    /// Error policy fails exactly when conflicts exist.
    #[test]
    fn error_policy_iff_conflicts(app in arb_app()) {
        let report = detect_conflicts(&app);
        let res = resolve(&app, ConflictPolicy::Error);
        prop_assert_eq!(report.is_clean(), res.is_ok());
    }

    /// Resolution is a value fixed point — resolving a resolved app
    /// changes nothing, which is why everything behind the front door
    /// may act on a `ResolvedApp` without resolving again — and what the
    /// front door lets through validates.
    #[test]
    fn resolution_is_a_fixed_point_and_resolved_apps_validate(app in arb_app()) {
        let once = resolve(&app, ConflictPolicy::StrictestWins).unwrap();
        let twice = resolve(&once, ConflictPolicy::StrictestWins).unwrap();
        prop_assert_eq!(&twice, &once);
        let resolved = ResolvedApp::new(&app, ConflictPolicy::StrictestWins).unwrap();
        prop_assert_eq!(&*resolved, &once);
        prop_assert!(resolved.validate().is_ok(), "{:?}", resolved.validate());
        prop_assert_eq!(resolved.conflicts(), &detect_conflicts(&app));
    }

    /// The order a `ResolvedApp` stores is `topo_order()` of its app: a
    /// permutation of the modules in which every dependency edge points
    /// forward.
    #[test]
    fn stored_order_is_a_topological_order(app in arb_app()) {
        let resolved = ResolvedApp::new(&app, ConflictPolicy::StrictestWins).unwrap();
        prop_assert_eq!(resolved.order(), resolved.topo_order().unwrap());
        let pos: std::collections::BTreeMap<_, _> =
            resolved.order().iter().enumerate().map(|(i, id)| (id, i)).collect();
        prop_assert_eq!(pos.len(), resolved.len());
        prop_assert!(resolved.modules.keys().all(|id| pos.contains_key(id)));
        for e in resolved.edges.iter().filter(|e| e.kind == EdgeKind::Dependency) {
            prop_assert!(pos[&e.from] < pos[&e.to], "{} must precede {}", e.from, e.to);
        }
    }

    /// Hostile input: shipped specs with lines and tokens deleted,
    /// duplicated and swapped go through the whole front door — parser,
    /// `ResolvedApp::new`, `UdcCloud::submit` — and come out as a
    /// deployment or a typed error, never a panic; and `submit` refuses
    /// exactly what the front door refuses, for the same reason.
    #[test]
    fn mangled_specs_yield_typed_errors_never_panics(
        source in 0usize..64,
        edits in prop::collection::vec((any::<bool>(), 0u8..3, any::<usize>(), any::<usize>()), 1..4),
        policy in prop_oneof![Just(ConflictPolicy::StrictestWins), Just(ConflictPolicy::Error)],
    ) {
        let corpus = corpus();
        let mut text = corpus[source % corpus.len()].clone();
        for (by_line, op, i, j) in edits {
            text = mangle(&text, by_line, op, i, j);
        }
        let Ok(app) = parse_app(&text) else { return Ok(()) };
        let front_door = ResolvedApp::new(&app, policy).map(drop);
        let mut cloud = UdcCloud::new(CloudConfig { conflict_policy: policy, ..Default::default() });
        match cloud.submit(&app) {
            Ok(mut dep) => {
                prop_assert_eq!(front_door, Ok(()));
                cloud.teardown(&mut dep);
            }
            Err(CloudError::Spec(e)) => prop_assert_eq!(front_door, Err(e)),
            Err(CloudError::Sched(_)) => prop_assert_eq!(front_door, Ok(())),
        }
    }

    /// The parser never panics on arbitrary input.
    #[test]
    fn parser_total_on_garbage(input in "\\PC{0,200}") {
        let _ = parse_app(&input);
    }

    /// Resource-vector arithmetic: add then subtract restores the original
    /// when there is no clamping (b fits in a+b trivially).
    #[test]
    fn vector_add_sub_inverse(pairs in prop::collection::vec((arb_kind(), 0u64..1_000_000), 0..6)) {
        let mut a = ResourceVector::new();
        let mut b = ResourceVector::new();
        for (i, (k, v)) in pairs.iter().enumerate() {
            if i % 2 == 0 { let cur = a.get(*k); a.set(*k, cur + v); }
            else { let cur = b.get(*k); b.set(*k, cur + v); }
        }
        let sum = a.saturating_add(&b);
        let back = sum.saturating_sub(&b);
        prop_assert_eq!(back, a);
        prop_assert!(b.fits_in(&sum));
    }
}
