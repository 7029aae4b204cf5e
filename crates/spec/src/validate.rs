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

/// Maximum replication factor we accept. Table 1 uses at most 3; we allow
/// headroom but reject absurd values that would exhaust the simulator.
pub const MAX_REPLICATION: u32 = 16;

/// Largest `work` a module may declare: 2^30 work units, about 124 days
/// on one core. With [`MAX_BYTES`] it keeps every run an app can
/// produce inside `u64` microseconds, so `UdcCloud::run` never
/// overflows.
///
/// A task runs for at most `work` at 100 units/s (one unit of CPU, the
/// slowest compute profile) times the largest runtime overhead, 1.25:
///
/// ```text
/// 2^30 units × 10^4 µs/unit × 1.25 ≈ 1.3·10^13 µs < 2^44 µs
/// ```
///
/// plus a start-up of under a second (< 2^20 µs), so < 2^45 µs. Each
/// access edge adds at most a transfer of [`MAX_BYTES`] at 1 byte/µs
/// or faster (the default fabric moves 3 200) and sealing at 1 µs per
/// 4 KiB: 2^40 + 2^28 + latency < 2^41 µs. A run is the longest chain
/// of dependent tasks, so any app with fewer than 2^18 tasks and 2^21
/// access edges ends before 2^18·2^45 + 2^21·2^41 = 2^63 + 2^62 µs.
pub const MAX_WORK_UNITS: u64 = 1 << 30;

/// Largest `bytes` a module may declare: 1 TiB. It bounds transfer and
/// sealing time per access edge (see [`MAX_WORK_UNITS`]) and keeps the
/// sealed-byte and fabric traffic sums of 2^23 edges inside `u64`.
pub const MAX_BYTES: u64 = 1 << 40;

/// Validates an application; `Ok` carries check 3's [`topo_order`].
///
/// Checks, in order:
/// 1. every edge endpoint exists (guaranteed by [`AppSpec::add_edge`] but
///    re-checked for specs whose public `edges` were built directly);
/// 2. `Dependency` edges connect two tasks; `Access` edges connect a task
///    and a data module;
/// 3. the `Dependency` subgraph is acyclic;
/// 4. `Colocate` hints connect two tasks, `Affinity` hints a task and a
///    data module;
/// 5. per-module coherence: replication, work and bytes within bounds,
///    consistency levels only on data modules, checkpoint intervals
///    non-zero, and isolation / tenancy combinations consistent (e.g.
///    `Strongest` implies single-tenant, so an explicit `Shared` tenancy
///    contradicts it).
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
        let invalid = |reason: String| {
            Err(SpecError::InvalidModule {
                module: m.id.to_string(),
                reason,
            })
        };
        if m.dist.replication == 0 {
            return invalid("replication factor must be at least 1".into());
        }
        if m.dist.replication > MAX_REPLICATION {
            return invalid(format!(
                "replication factor {} exceeds maximum {MAX_REPLICATION}",
                m.dist.replication
            ));
        }
        if m.kind == ModuleKind::Task && m.dist.consistency.is_some() {
            return invalid("consistency levels apply to data modules only".into());
        }
        if let Some(crate::aspect::FailureHandling::Checkpoint { interval_ms }) = m.dist.failure {
            if interval_ms == 0 {
                return invalid("checkpoint interval must be non-zero".into());
            }
        }
        if m.exec_env.isolation == Some(IsolationLevel::Strongest)
            && m.exec_env.tenancy == Some(Tenancy::Shared)
        {
            return invalid(
                "strongest isolation requires single-tenant hardware, \
                         but tenancy = shared was specified"
                    .into(),
            );
        }
        if let Some(0) = m.work_units {
            return invalid("work_units, when given, must be non-zero".into());
        }
        if let Some(work) = m.work_units.filter(|&w| w > MAX_WORK_UNITS) {
            return invalid(format!("work {work} exceeds maximum {MAX_WORK_UNITS}"));
        }
        if let Some(bytes) = m.bytes.filter(|&b| b > MAX_BYTES) {
            return invalid(format!("bytes {bytes} exceeds maximum {MAX_BYTES}"));
        }
    }

    Ok(order)
}

/// Kahn topological sort over the `Dependency` edges.
///
/// Data modules and tasks without dependencies appear first (in id
/// order); returns [`SpecError::Cycle`] naming one module on a cycle.
/// Modules are numbered in id order and each edge's endpoints looked up
/// once, so the sort is O((V + E) · log V); a module's successors are
/// visited in edge order.
pub fn topo_order(app: &AppSpec) -> SpecResult<Vec<ModuleId>> {
    let ids: Vec<&ModuleId> = app.modules.keys().collect();
    let index = |id: &ModuleId| ids.binary_search(&id).ok();
    let mut indeg = vec![0usize; ids.len()];
    // `(from, to)` of each dependency edge between two known modules.
    let mut arcs = Vec::new();
    for e in app.edges.iter().filter(|e| e.kind == EdgeKind::Dependency) {
        if let Some(to) = index(&e.to) {
            indeg[to] += 1;
            if let Some(from) = index(&e.from) {
                arcs.push((from, to));
            }
        }
    }
    let (first, by_from) = group_by_key(ids.len(), arcs.iter().map(|&(from, _)| from));
    // Kahn's queue is the order itself: `order[head..]` is still queued.
    let mut order: Vec<usize> = (0..ids.len()).filter(|&i| indeg[i] == 0).collect();
    let mut head = 0;
    while let Some(&i) = order.get(head) {
        head += 1;
        for &arc in &by_from[first[i]..first[i + 1]] {
            let to = arcs[arc].1;
            indeg[to] -= 1;
            if indeg[to] == 0 {
                order.push(to);
            }
        }
    }
    if order.len() != ids.len() {
        let stuck = indeg
            .iter()
            .position(|&d| d > 0)
            .map(|i| ids[i].to_string())
            .unwrap_or_default();
        return Err(SpecError::Cycle(stuck));
    }
    Ok(order.into_iter().map(|i| ids[i].clone()).collect())
}

/// Groups positions by key with a counting sort: given each position's
/// key in `0..n`, returns `(first, positions)` where the positions
/// whose key is `k` are `positions[first[k]..first[k + 1]]`, in their
/// original order. O(n + positions).
pub(crate) fn group_by_key(
    n: usize,
    keys: impl DoubleEndedIterator<Item = usize> + ExactSizeIterator + Clone,
) -> (Vec<usize>, Vec<usize>) {
    // `first[k]` counts up to the end of group `k`, then back down to
    // its start as the positions are placed from the last one.
    let mut first = vec![0usize; n + 1];
    for k in keys.clone() {
        first[k] += 1;
    }
    let mut end = 0;
    for f in &mut first {
        end += *f;
        *f = end;
    }
    let mut positions = vec![0usize; keys.len()];
    for (pos, k) in keys.enumerate().rev() {
        first[k] -= 1;
        positions[first[k]] = pos;
    }
    (first, positions)
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
        // Bypass add_edge's checks by pushing directly, as any caller of
        // the public `edges` field can.
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
    fn work_beyond_the_bound_rejected() {
        let mut app = AppSpec::new("x");
        app.add_task(TaskSpec::new("A").with_work(MAX_WORK_UNITS));
        assert!(app.validate().is_ok());
        let mut app = AppSpec::new("x");
        app.add_task(TaskSpec::new("A").with_work(MAX_WORK_UNITS + 1));
        assert!(matches!(
            app.validate(),
            Err(SpecError::InvalidModule { reason, .. }) if reason.contains(&MAX_WORK_UNITS.to_string())
        ));
    }

    #[test]
    fn bytes_beyond_the_bound_rejected() {
        let mut app = AppSpec::new("x");
        app.add_data(DataSpec::new("S").with_bytes(MAX_BYTES));
        assert!(app.validate().is_ok());
        let mut app = AppSpec::new("x");
        app.add_task(TaskSpec::new("A").with_bytes(u64::MAX));
        assert!(matches!(
            app.validate(),
            Err(SpecError::InvalidModule { reason, .. }) if reason.contains(&MAX_BYTES.to_string())
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
