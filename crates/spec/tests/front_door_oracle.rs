//! The linear front door against its quadratic oracle.
//!
//! `topo_order` and `detect_conflicts` index the edges once instead of
//! scanning every edge per module. This file keeps the scanning versions
//! (as the crate shipped them before) as oracles and checks, over random
//! graphs of tasks and data modules — cycles, self-loops and ill-kinded
//! edges included — that the product returns exactly what the oracle
//! does: the same order, the same module named on a cycle, the same
//! conflicts in the same order.

use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};
use udc_spec::aspect::{ConsistencyLevel, DataProtection, DistributedAspect, ExecEnvAspect};
use udc_spec::conflict::{detect_conflicts, ConflictKind, ConflictReport};
use udc_spec::dag::{AppSpec, DataSpec, Edge, EdgeKind, LocalityHint, ModuleKind, TaskSpec};
use udc_spec::{IsolationLevel, ModuleId, SpecError, SpecResult, Tenancy};

/// Kahn's algorithm, scanning every edge for each dequeued module.
fn oracle_topo_order(app: &AppSpec) -> SpecResult<Vec<ModuleId>> {
    let mut indeg: BTreeMap<&ModuleId, usize> = app.modules.keys().map(|k| (k, 0)).collect();
    for e in &app.edges {
        if e.kind == EdgeKind::Dependency {
            if let Some(d) = indeg.get_mut(&e.to) {
                *d += 1;
            }
        }
    }
    let mut queue: VecDeque<&ModuleId> = indeg
        .iter()
        .filter(|(_, &d)| d == 0)
        .map(|(&k, _)| k)
        .collect();
    let mut order = Vec::with_capacity(app.len());
    while let Some(id) = queue.pop_front() {
        order.push(id.clone());
        for e in app.edges_from(id) {
            if e.kind != EdgeKind::Dependency {
                continue;
            }
            if let Some(d) = indeg.get_mut(&e.to) {
                *d -= 1;
                if *d == 0 {
                    queue.push_back(&e.to);
                }
            }
        }
    }
    if order.len() != app.len() {
        let stuck = indeg
            .iter()
            .find(|(_, &d)| d > 0)
            .map(|(k, _)| k.to_string())
            .unwrap_or_default();
        return Err(SpecError::Cycle(stuck));
    }
    Ok(order)
}

/// Conflict detection with one pass over the edges per data module.
fn oracle_detect_conflicts(app: &AppSpec) -> ConflictReport {
    let mut conflicts = Vec::new();

    for data in app.iter_modules().filter(|m| m.kind == ModuleKind::Data) {
        let mut levels: Vec<ConsistencyLevel> = Vec::new();
        if let Some(own) = data.dist.consistency {
            levels.push(own);
        }
        let declared_prot = data.exec_env.protection.unwrap_or(DataProtection::NONE);
        let mut union_prot = declared_prot;
        for e in &app.edges {
            if e.kind != EdgeKind::Access {
                continue;
            }
            let accessor = if e.to == data.id {
                &e.from
            } else if e.from == data.id {
                &e.to
            } else {
                continue;
            };
            if let Some(req) = e.require_consistency {
                if !levels.contains(&req) {
                    levels.push(req);
                }
            }
            if let Some(req) = e.require_protection {
                if !req.subsumed_by(declared_prot) {
                    union_prot = union_prot.union(req);
                    conflicts.push(ConflictKind::Protection {
                        data: data.id.clone(),
                        accessor: accessor.clone(),
                        resolved: union_prot,
                    });
                }
            }
        }
        if levels.len() > 1 {
            let resolved = *levels.iter().max().expect("levels non-empty");
            levels.sort();
            conflicts.push(ConflictKind::Consistency {
                data: data.id.clone(),
                levels,
                resolved,
            });
        }
    }

    for h in &app.hints {
        let LocalityHint::Colocate(a, b) = h else {
            continue;
        };
        let (Some(ma), Some(mb)) = (app.module(a), app.module(b)) else {
            continue;
        };
        let iso_conflict = match (ma.exec_env.isolation, mb.exec_env.isolation) {
            (Some(x), Some(y)) => x != y,
            _ => false,
        };
        let ten_conflict = match (ma.exec_env.tenancy, mb.exec_env.tenancy) {
            (Some(x), Some(y)) => x != y,
            _ => false,
        };
        if iso_conflict || ten_conflict {
            conflicts.push(ConflictKind::Isolation {
                a: a.clone(),
                b: b.clone(),
                resolved_isolation: ma.exec_env.isolation.max(mb.exec_env.isolation),
                resolved_tenancy: ma.exec_env.tenancy.max(mb.exec_env.tenancy),
            });
        }
    }

    let mut domains: BTreeMap<&str, Vec<u32>> = BTreeMap::new();
    for m in app.iter_modules() {
        if let Some(d) = &m.dist.failure_domain {
            domains
                .entry(d.as_str())
                .or_default()
                .push(m.dist.replication);
        }
    }
    for (domain, mut factors) in domains {
        factors.sort_unstable();
        factors.dedup();
        if factors.len() > 1 {
            let resolved = *factors.last().expect("non-empty");
            conflicts.push(ConflictKind::Replication {
                domain: domain.to_string(),
                factors,
                resolved,
            });
        }
    }

    ConflictReport { conflicts }
}

const LEVELS: [ConsistencyLevel; 5] = [
    ConsistencyLevel::Eventual,
    ConsistencyLevel::Release,
    ConsistencyLevel::Causal,
    ConsistencyLevel::Sequential,
    ConsistencyLevel::Linearizable,
];

/// One module: is it data, and codes for its consistency, protection,
/// isolation and replication.
type ModuleGene = (bool, u8, u8, u8, u8);
/// One edge: endpoints (indices, taken modulo the module count), is it
/// an access edge, and codes for its consistency and protection.
type EdgeGene = (usize, usize, bool, u8, u8);

fn level(code: u8) -> Option<ConsistencyLevel> {
    LEVELS.get(usize::from(code)).copied()
}

fn protection(code: u8) -> Option<DataProtection> {
    (code < 8).then_some(DataProtection {
        confidentiality: code & 1 != 0,
        integrity: code & 2 != 0,
        replay: code & 4 != 0,
    })
}

/// Builds an app whose edges go straight into the public `edges` field,
/// so self-loops, cycles and ill-kinded edges all occur. Module ids are
/// numbered out of id order, so index and id order differ.
fn build(modules: &[ModuleGene], edges: &[EdgeGene], hints: &[(usize, usize)]) -> AppSpec {
    let n = modules.len();
    let name = |i: usize| format!("{}{}", ["b", "a", "c"][i % 3], n - i);
    let mut app = AppSpec::new("gen");
    for (i, &(is_data, consistency, prot, isolation, replication)) in modules.iter().enumerate() {
        let mut dist = DistributedAspect::default().replication(u32::from(replication % 3) + 1);
        if replication % 2 == 0 {
            dist = dist.failure_domain(if replication % 4 == 0 { "d0" } else { "d1" });
        }
        let exec = ExecEnvAspect {
            protection: protection(prot),
            isolation: [IsolationLevel::Weak, IsolationLevel::Strong]
                .get(usize::from(isolation % 3))
                .copied(),
            tenancy: [Tenancy::Shared, Tenancy::SingleTenant]
                .get(usize::from(isolation / 3 % 3))
                .copied(),
            ..ExecEnvAspect::default()
        };
        if is_data {
            dist.consistency = level(consistency);
            app.add_data(DataSpec::new(&name(i)).with_dist(dist).with_exec_env(exec));
        } else {
            app.add_task(TaskSpec::new(&name(i)).with_dist(dist).with_exec_env(exec));
        }
    }
    for &(from, to, access, consistency, prot) in edges {
        app.edges.push(Edge {
            from: ModuleId::from(name(from % n).as_str()),
            to: ModuleId::from(name(to % n).as_str()),
            kind: if access {
                EdgeKind::Access
            } else {
                EdgeKind::Dependency
            },
            require_consistency: level(consistency),
            require_protection: protection(prot),
        });
    }
    for &(a, b) in hints {
        app.colocate(&name(a % n), &name(b % n)).unwrap();
    }
    app
}

fn arb_modules() -> impl Strategy<Value = Vec<ModuleGene>> {
    prop::collection::vec((any::<bool>(), 0u8..7, 0u8..10, 0u8..9, 0u8..8), 1..14)
}

fn arb_edges(max: usize) -> impl Strategy<Value = Vec<EdgeGene>> {
    prop::collection::vec(
        (0usize..14, 0usize..14, any::<bool>(), 0u8..7, 0u8..10),
        0..max,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Same order on acyclic inputs, same module named on cyclic ones.
    #[test]
    fn topo_order_matches_the_oracle(modules in arb_modules(), edges in arb_edges(30)) {
        let app = build(&modules, &edges, &[]);
        prop_assert_eq!(app.topo_order(), oracle_topo_order(&app));
    }

    /// Forward-only dependency edges (from a lower index to a higher
    /// one) never cycle, so the order itself is compared, not only the
    /// error.
    #[test]
    fn topo_order_matches_the_oracle_on_dags(modules in arb_modules(), edges in arb_edges(40)) {
        let forward: Vec<EdgeGene> = edges
            .into_iter()
            .map(|(a, b, _, c, p)| (a.min(b), a.max(b) + 1, false, c, p))
            .filter(|&(a, b, ..)| b < modules.len() && a < b)
            .collect();
        let app = build(&modules, &forward, &[]);
        let order = app.topo_order();
        prop_assert!(order.is_ok());
        prop_assert_eq!(order, oracle_topo_order(&app));
    }

    /// The same conflicts, in the same order, with the same resolutions.
    #[test]
    fn detect_conflicts_matches_the_oracle(
        modules in arb_modules(),
        edges in arb_edges(30),
        hints in prop::collection::vec((0usize..14, 0usize..14), 0..4),
    ) {
        let app = build(&modules, &edges, &hints);
        prop_assert_eq!(detect_conflicts(&app), oracle_detect_conflicts(&app));
    }
}
