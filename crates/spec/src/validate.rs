//! Structural validation of application specifications.
//!
//! Checks the properties the control plane relies on before compiling an
//! app to IR: the dependency subgraph is acyclic, edges have sensible
//! endpoint kinds, hints reference appropriate module kinds, and each
//! module's aspects are internally coherent.

use crate::aspect::{IsolationLevel, Tenancy};
use crate::dag::{AppSpec, EdgeKind, LocalityHint, ModuleKind};
use crate::error::{SpecError, SpecResult};
use crate::ids::ModuleId;
use std::collections::{BTreeMap, VecDeque};

/// Maximum replication factor we accept. Table 1 uses at most 3; we allow
/// headroom but reject absurd values that would exhaust the simulator.
pub const MAX_REPLICATION: u32 = 16;

/// Validates an application; `Ok` carries check 3's [`topo_order`].
///
/// Checks, in order:
/// 1. every edge endpoint exists (guaranteed by [`AppSpec::add_edge`] but
///    re-checked for deserialized specs);
/// 2. `Dependency` edges connect two tasks; `Access` edges connect a task
///    and a data module;
/// 3. the `Dependency` subgraph is acyclic;
/// 4. `Colocate` hints connect two tasks, `Affinity` hints a task and a
///    data module;
/// 5. per-module coherence: replication within bounds, consistency levels
///    only on data modules, checkpoint intervals non-zero, and isolation /
///    tenancy combinations consistent (e.g. `Strongest` implies
///    single-tenant, so an explicit `Shared` tenancy contradicts it).
pub fn validate(app: &AppSpec) -> SpecResult<Vec<ModuleId>> {
    if app.is_empty() {
        return Err(SpecError::InvalidApp("application has no modules".into()));
    }

    for e in &app.edges {
        let from = app
            .module(&e.from)
            .ok_or_else(|| SpecError::UnknownModule(e.from.to_string()))?;
        let to = app
            .module(&e.to)
            .ok_or_else(|| SpecError::UnknownModule(e.to.to_string()))?;
        if e.from == e.to {
            return Err(SpecError::InvalidEdge {
                from: e.from.to_string(),
                to: e.to.to_string(),
                reason: "self-loop".into(),
            });
        }
        match e.kind {
            EdgeKind::Dependency => {
                if e.require_consistency.is_some() || e.require_protection.is_some() {
                    return Err(SpecError::InvalidEdge {
                        from: e.from.to_string(),
                        to: e.to.to_string(),
                        reason: "access requirements are only valid on access edges".into(),
                    });
                }
                if from.kind != ModuleKind::Task || to.kind != ModuleKind::Task {
                    return Err(SpecError::InvalidEdge {
                        from: e.from.to_string(),
                        to: e.to.to_string(),
                        reason: "dependency edges must connect two tasks".into(),
                    });
                }
            }
            EdgeKind::Access => {
                let task_data = from.kind == ModuleKind::Task && to.kind == ModuleKind::Data;
                let data_task = from.kind == ModuleKind::Data && to.kind == ModuleKind::Task;
                if !task_data && !data_task {
                    return Err(SpecError::InvalidEdge {
                        from: e.from.to_string(),
                        to: e.to.to_string(),
                        reason: "access edges must connect a task and a data module".into(),
                    });
                }
            }
        }
    }

    let order = topo_order(app)?;

    for h in &app.hints {
        match h {
            LocalityHint::Colocate(a, b) => {
                for id in [a, b] {
                    let m = app
                        .module(id)
                        .ok_or_else(|| SpecError::UnknownModule(id.to_string()))?;
                    if m.kind != ModuleKind::Task {
                        return Err(SpecError::InvalidApp(format!(
                            "colocate hint references non-task module `{id}`"
                        )));
                    }
                }
            }
            LocalityHint::Affinity { task, data } => {
                let t = app
                    .module(task)
                    .ok_or_else(|| SpecError::UnknownModule(task.to_string()))?;
                let d = app
                    .module(data)
                    .ok_or_else(|| SpecError::UnknownModule(data.to_string()))?;
                if t.kind != ModuleKind::Task || d.kind != ModuleKind::Data {
                    return Err(SpecError::InvalidApp(format!(
                        "affinity hint must pair a task with a data module ({task}, {data})"
                    )));
                }
            }
        }
    }

    for m in app.iter_modules() {
        let id = m.id.to_string();
        if m.dist.replication == 0 {
            return Err(SpecError::InvalidModule {
                module: id,
                reason: "replication factor must be at least 1".into(),
            });
        }
        if m.dist.replication > MAX_REPLICATION {
            return Err(SpecError::InvalidModule {
                module: id,
                reason: format!(
                    "replication factor {} exceeds maximum {MAX_REPLICATION}",
                    m.dist.replication
                ),
            });
        }
        if m.kind == ModuleKind::Task && m.dist.consistency.is_some() {
            return Err(SpecError::InvalidModule {
                module: id,
                reason: "consistency levels apply to data modules only".into(),
            });
        }
        if let Some(crate::aspect::FailureHandling::Checkpoint { interval_ms }) = m.dist.failure {
            if interval_ms == 0 {
                return Err(SpecError::InvalidModule {
                    module: id,
                    reason: "checkpoint interval must be non-zero".into(),
                });
            }
        }
        if m.exec_env.isolation == Some(IsolationLevel::Strongest)
            && m.exec_env.tenancy == Some(Tenancy::Shared)
        {
            return Err(SpecError::InvalidModule {
                module: id,
                reason: "strongest isolation requires single-tenant hardware, \
                         but tenancy = shared was specified"
                    .into(),
            });
        }
        if let Some(0) = m.work_units {
            return Err(SpecError::InvalidModule {
                module: id,
                reason: "work_units, when given, must be non-zero".into(),
            });
        }
    }

    Ok(order)
}

/// Kahn topological sort over the `Dependency` edges.
///
/// Data modules and tasks without dependencies appear first (in id
/// order); returns [`SpecError::Cycle`] naming one module on a cycle.
pub fn topo_order(app: &AppSpec) -> SpecResult<Vec<ModuleId>> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aspect::{
        ConsistencyLevel, DistributedAspect, ExecEnvAspect, FailureHandling, IsolationLevel,
        Tenancy,
    };
    use crate::dag::{DataSpec, TaskSpec};

    fn chain(n: usize) -> AppSpec {
        let mut app = AppSpec::new("chain");
        for i in 0..n {
            app.add_task(TaskSpec::new(&format!("T{i}")));
        }
        for i in 1..n {
            app.add_edge(
                &format!("T{}", i - 1),
                &format!("T{i}"),
                EdgeKind::Dependency,
            )
            .unwrap();
        }
        app
    }

    #[test]
    fn empty_app_invalid() {
        let app = AppSpec::new("empty");
        assert!(matches!(app.validate(), Err(SpecError::InvalidApp(_))));
    }

    #[test]
    fn chain_is_valid_and_topo_ordered() {
        let app = chain(5);
        app.validate().unwrap();
        let order = app.topo_order().unwrap();
        let pos: std::collections::HashMap<_, _> = order
            .iter()
            .enumerate()
            .map(|(i, m)| (m.clone(), i))
            .collect();
        for e in &app.edges {
            assert!(pos[&e.from] < pos[&e.to], "{} before {}", e.from, e.to);
        }
    }

    #[test]
    fn cycle_detected() {
        let mut app = chain(3);
        app.add_edge("T2", "T0", EdgeKind::Dependency).unwrap();
        assert!(matches!(app.validate(), Err(SpecError::Cycle(_))));
    }

    #[test]
    fn dependency_edge_to_data_rejected() {
        let mut app = AppSpec::new("x");
        app.add_task(TaskSpec::new("A"));
        app.add_data(DataSpec::new("S"));
        // Bypass add_edge's checks by pushing directly, as a deserialized
        // spec could contain this.
        app.edges.push(crate::dag::Edge {
            from: "A".into(),
            to: "S".into(),
            kind: EdgeKind::Dependency,
            require_consistency: None,
            require_protection: None,
        });
        assert!(matches!(app.validate(), Err(SpecError::InvalidEdge { .. })));
    }

    #[test]
    fn access_edge_between_tasks_rejected() {
        let mut app = AppSpec::new("x");
        app.add_task(TaskSpec::new("A"));
        app.add_task(TaskSpec::new("B"));
        app.add_edge("A", "B", EdgeKind::Access).unwrap();
        assert!(matches!(app.validate(), Err(SpecError::InvalidEdge { .. })));
    }

    #[test]
    fn replication_bounds_enforced() {
        let mut app = AppSpec::new("x");
        app.add_data(DataSpec::new("S").with_dist(DistributedAspect::default().replication(0)));
        assert!(matches!(
            app.validate(),
            Err(SpecError::InvalidModule { .. })
        ));

        let mut app = AppSpec::new("x");
        app.add_data(
            DataSpec::new("S")
                .with_dist(DistributedAspect::default().replication(MAX_REPLICATION + 1)),
        );
        assert!(matches!(
            app.validate(),
            Err(SpecError::InvalidModule { .. })
        ));
    }

    #[test]
    fn consistency_on_task_rejected() {
        let mut app = AppSpec::new("x");
        app.add_task(
            TaskSpec::new("A")
                .with_dist(DistributedAspect::default().consistency(ConsistencyLevel::Sequential)),
        );
        assert!(matches!(
            app.validate(),
            Err(SpecError::InvalidModule { .. })
        ));
    }

    #[test]
    fn zero_checkpoint_interval_rejected() {
        let mut app = AppSpec::new("x");
        app.add_task(TaskSpec::new("A").with_dist(
            DistributedAspect::default().failure(FailureHandling::Checkpoint { interval_ms: 0 }),
        ));
        assert!(matches!(
            app.validate(),
            Err(SpecError::InvalidModule { .. })
        ));
    }

    #[test]
    fn strongest_isolation_with_shared_tenancy_rejected() {
        let mut app = AppSpec::new("x");
        app.add_task(TaskSpec::new("A").with_exec_env(
            ExecEnvAspect::isolation(IsolationLevel::Strongest).with_tenancy(Tenancy::Shared),
        ));
        assert!(matches!(
            app.validate(),
            Err(SpecError::InvalidModule { .. })
        ));
    }

    #[test]
    fn colocate_hint_on_data_rejected() {
        let mut app = AppSpec::new("x");
        app.add_task(TaskSpec::new("A"));
        app.add_data(DataSpec::new("S"));
        app.colocate("A", "S").unwrap();
        assert!(matches!(app.validate(), Err(SpecError::InvalidApp(_))));
    }

    #[test]
    fn affinity_hint_wrong_direction_rejected() {
        let mut app = AppSpec::new("x");
        app.add_task(TaskSpec::new("A"));
        app.add_data(DataSpec::new("S"));
        app.affinity("S", "A").unwrap();
        assert!(matches!(app.validate(), Err(SpecError::InvalidApp(_))));
    }

    #[test]
    fn zero_work_units_rejected() {
        let mut app = AppSpec::new("x");
        app.add_task(TaskSpec::new("A").with_work(0));
        assert!(matches!(
            app.validate(),
            Err(SpecError::InvalidModule { .. })
        ));
    }

    #[test]
    fn diamond_topo_order() {
        let mut app = AppSpec::new("d");
        for t in ["A", "B", "C", "D"] {
            app.add_task(TaskSpec::new(t));
        }
        app.add_edge("A", "B", EdgeKind::Dependency).unwrap();
        app.add_edge("A", "C", EdgeKind::Dependency).unwrap();
        app.add_edge("B", "D", EdgeKind::Dependency).unwrap();
        app.add_edge("C", "D", EdgeKind::Dependency).unwrap();
        let order = app.topo_order().unwrap();
        assert_eq!(order.first().unwrap().as_str(), "A");
        assert_eq!(order.last().unwrap().as_str(), "D");
    }
}
