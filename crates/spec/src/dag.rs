//! Application DAGs of modules (§3.1).
//!
//! A user program is "a DAG of modules. A module could be a code block
//! representing a task (e.g., A1 to A4, B1 and B2) or one or more data
//! structures representing a set of data (S1 to S4), and edges across
//! modules represent their dependencies." The DAG is enhanced with
//! *locality hints* ("executed together on the same hardware unit", "a
//! data object is frequently used by a computation task").

use crate::aspect::{DistributedAspect, ExecEnvAspect, ResourceAspect};
use crate::error::{SpecError, SpecResult};
use crate::ids::{AppName, ModuleId};
use std::collections::BTreeMap;

/// Whether a module is executable code or passive data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModuleKind {
    /// A code block representing a task (A1–A4, B1–B2 in Fig. 2).
    Task,
    /// One or more data structures (S1–S4 in Fig. 2).
    Data,
}

impl ModuleKind {
    /// Canonical text-format keyword.
    pub fn name(self) -> &'static str {
        match self {
            ModuleKind::Task => "task",
            ModuleKind::Data => "data",
        }
    }
}

/// Kinds of edges between modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// One task follows another task (control/data-flow dependency).
    Dependency,
    /// A task module accessing a data module.
    Access,
}

/// A directed edge in the application DAG.
///
/// `Access` edges may carry per-access requirements: the consistency
/// level and data protection *this* accessor needs when touching the data
/// module. These are the source of the spec conflicts §3.4 discusses
/// ("two modules sharing data and one specified as sequential consistency
/// and the other as release consistency") — see [`crate::conflict`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    /// Source module.
    pub from: ModuleId,
    /// Destination module.
    pub to: ModuleId,
    /// Edge kind.
    pub kind: EdgeKind,
    /// Consistency this accessor requires of the data module
    /// (access edges only).
    pub require_consistency: Option<crate::aspect::ConsistencyLevel>,
    /// Protection this accessor requires for the data module
    /// (access edges only).
    pub require_protection: Option<crate::aspect::DataProtection>,
}

/// A locality hint guiding the runtime scheduler (§3.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LocalityHint {
    /// Execute two task modules on the same hardware unit (e.g. A1, A2).
    Colocate(ModuleId, ModuleId),
    /// A data module is frequently used by a task (e.g. S1 by A3):
    /// place them near each other.
    Affinity {
        /// The task module.
        task: ModuleId,
        /// The data module it frequently accesses.
        data: ModuleId,
    },
}

impl LocalityHint {
    /// The two module ids the hint relates.
    pub fn endpoints(&self) -> (&ModuleId, &ModuleId) {
        match self {
            LocalityHint::Colocate(a, b) => (a, b),
            LocalityHint::Affinity { task, data } => (task, data),
        }
    }
}

/// One module of an application: kind, human description, and the three
/// aspects (each optional, Design Principle 2).
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleSpec {
    /// Unique id within the app.
    pub id: ModuleId,
    /// Task or data.
    pub kind: ModuleKind,
    /// Optional human-readable description.
    pub description: Option<String>,
    /// Resource aspect (§3.2).
    pub resource: ResourceAspect,
    /// Execution-environment aspect (§3.3).
    pub exec_env: ExecEnvAspect,
    /// Distributed aspect (§3.4).
    pub dist: DistributedAspect,
    /// Estimated work in abstract compute units (used by the simulator to
    /// derive runtimes; a dry-run profile would populate this in §3.2).
    pub work_units: Option<u64>,
    /// Estimated size of the module's output / data set in bytes.
    pub bytes: Option<u64>,
}

impl ModuleSpec {
    /// A module with every aspect left to the provider.
    pub(crate) fn blank(id: ModuleId, kind: ModuleKind) -> Self {
        Self {
            id,
            kind,
            description: None,
            resource: ResourceAspect::default(),
            exec_env: ExecEnvAspect::default(),
            dist: DistributedAspect::default(),
            work_units: None,
            bytes: None,
        }
    }
}

/// Builder for a task module.
#[derive(Debug, Clone)]
pub struct TaskSpec(ModuleSpec);

impl TaskSpec {
    /// Creates a task module with the given id.
    ///
    /// # Panics
    ///
    /// Panics when `id` is not a valid identifier (see [`ModuleId::new`]).
    pub fn new(id: &str) -> Self {
        Self(ModuleSpec::blank(ModuleId::from(id), ModuleKind::Task))
    }

    /// Sets the human-readable description.
    pub fn describe(mut self, d: impl Into<String>) -> Self {
        self.0.description = Some(d.into());
        self
    }

    /// Sets the resource aspect.
    pub fn with_resource(mut self, r: ResourceAspect) -> Self {
        self.0.resource = r;
        self
    }

    /// Sets the execution-environment aspect.
    pub fn with_exec_env(mut self, e: ExecEnvAspect) -> Self {
        self.0.exec_env = e;
        self
    }

    /// Sets the distributed aspect.
    pub fn with_dist(mut self, d: DistributedAspect) -> Self {
        self.0.dist = d;
        self
    }

    /// Sets the estimated work units.
    pub fn with_work(mut self, units: u64) -> Self {
        self.0.work_units = Some(units);
        self
    }

    /// Sets the estimated output size in bytes.
    pub fn with_bytes(mut self, bytes: u64) -> Self {
        self.0.bytes = Some(bytes);
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> ModuleSpec {
        self.0
    }
}

/// Builder for a data module.
#[derive(Debug, Clone)]
pub struct DataSpec(ModuleSpec);

impl DataSpec {
    /// Creates a data module with the given id.
    ///
    /// # Panics
    ///
    /// Panics when `id` is not a valid identifier (see [`ModuleId::new`]).
    pub fn new(id: &str) -> Self {
        Self(ModuleSpec::blank(ModuleId::from(id), ModuleKind::Data))
    }

    /// Sets the human-readable description.
    pub fn describe(mut self, d: impl Into<String>) -> Self {
        self.0.description = Some(d.into());
        self
    }

    /// Sets the resource aspect.
    pub fn with_resource(mut self, r: ResourceAspect) -> Self {
        self.0.resource = r;
        self
    }

    /// Sets the execution-environment aspect.
    pub fn with_exec_env(mut self, e: ExecEnvAspect) -> Self {
        self.0.exec_env = e;
        self
    }

    /// Sets the distributed aspect.
    pub fn with_dist(mut self, d: DistributedAspect) -> Self {
        self.0.dist = d;
        self
    }

    /// Sets the data-set size in bytes.
    pub fn with_bytes(mut self, bytes: u64) -> Self {
        self.0.bytes = Some(bytes);
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> ModuleSpec {
        self.0
    }
}

/// A complete application specification: modules, edges and locality
/// hints. This is the unit a tenant submits to the UDC control plane.
#[derive(Debug, Clone, PartialEq)]
pub struct AppSpec {
    /// Application name.
    pub name: AppName,
    /// Modules keyed by id (BTreeMap for deterministic iteration).
    pub modules: BTreeMap<ModuleId, ModuleSpec>,
    /// DAG edges.
    pub edges: Vec<Edge>,
    /// Locality hints.
    pub hints: Vec<LocalityHint>,
}

impl AppSpec {
    /// Creates an empty application.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not a valid identifier.
    pub fn new(name: &str) -> Self {
        Self {
            name: AppName::new(name).unwrap_or_else(|| panic!("invalid app name: {name:?}")),
            modules: BTreeMap::new(),
            edges: Vec::new(),
            hints: Vec::new(),
        }
    }

    /// Adds a task module. Replaces any existing module with the same id.
    pub fn add_task(&mut self, t: TaskSpec) -> &mut Self {
        let m = t.build();
        self.modules.insert(m.id.clone(), m);
        self
    }

    /// Adds a data module. Replaces any existing module with the same id.
    pub fn add_data(&mut self, d: DataSpec) -> &mut Self {
        let m = d.build();
        self.modules.insert(m.id.clone(), m);
        self
    }

    /// Adds a pre-built module.
    pub fn add_module(&mut self, m: ModuleSpec) -> &mut Self {
        self.modules.insert(m.id.clone(), m);
        self
    }

    /// Adds an edge between two existing modules.
    ///
    /// Returns [`SpecError::UnknownModule`] if either endpoint does not
    /// exist, and [`SpecError::InvalidEdge`] for self-loops.
    pub fn add_edge(&mut self, from: &str, to: &str, kind: EdgeKind) -> SpecResult<()> {
        let from = self.lookup(from)?;
        let to = self.lookup(to)?;
        if from == to {
            return Err(SpecError::InvalidEdge {
                from: from.to_string(),
                to: to.to_string(),
                reason: "self-loop".into(),
            });
        }
        self.edges.push(Edge {
            from,
            to,
            kind,
            require_consistency: None,
            require_protection: None,
        });
        Ok(())
    }

    /// Adds an `Access` edge carrying per-access requirements (the inputs
    /// to conflict detection, §3.4).
    pub fn add_access_with(
        &mut self,
        from: &str,
        to: &str,
        require_consistency: Option<crate::aspect::ConsistencyLevel>,
        require_protection: Option<crate::aspect::DataProtection>,
    ) -> SpecResult<()> {
        let from = self.lookup(from)?;
        let to = self.lookup(to)?;
        if from == to {
            return Err(SpecError::InvalidEdge {
                from: from.to_string(),
                to: to.to_string(),
                reason: "self-loop".into(),
            });
        }
        self.edges.push(Edge {
            from,
            to,
            kind: EdgeKind::Access,
            require_consistency,
            require_protection,
        });
        Ok(())
    }

    /// Adds a colocate hint between two task modules.
    pub fn colocate(&mut self, a: &str, b: &str) -> SpecResult<()> {
        let a = self.lookup(a)?;
        let b = self.lookup(b)?;
        self.hints.push(LocalityHint::Colocate(a, b));
        Ok(())
    }

    /// Adds a task→data affinity hint.
    pub fn affinity(&mut self, task: &str, data: &str) -> SpecResult<()> {
        let task = self.lookup(task)?;
        let data = self.lookup(data)?;
        self.hints.push(LocalityHint::Affinity { task, data });
        Ok(())
    }

    /// Looks up a module id by name; the id returned shares the stored
    /// one's name.
    pub fn lookup(&self, name: &str) -> SpecResult<ModuleId> {
        self.modules
            .get_key_value(name)
            .map(|(id, _)| id.clone())
            .ok_or_else(|| SpecError::UnknownModule(name.to_string()))
    }

    /// Returns the module with the given id, if present.
    pub fn module(&self, id: &ModuleId) -> Option<&ModuleSpec> {
        self.modules.get(id)
    }

    /// Iterates over modules in deterministic (id) order.
    pub fn iter_modules(&self) -> impl Iterator<Item = &ModuleSpec> {
        self.modules.values()
    }

    /// Task modules only.
    pub fn tasks(&self) -> impl Iterator<Item = &ModuleSpec> {
        self.iter_modules().filter(|m| m.kind == ModuleKind::Task)
    }

    /// Data modules only.
    pub fn data(&self) -> impl Iterator<Item = &ModuleSpec> {
        self.iter_modules().filter(|m| m.kind == ModuleKind::Data)
    }

    /// Outgoing edges of `id`.
    pub fn edges_from<'a>(&'a self, id: &'a ModuleId) -> impl Iterator<Item = &'a Edge> {
        self.edges.iter().filter(move |e| &e.from == id)
    }

    /// Incoming edges of `id`.
    pub fn edges_to<'a>(&'a self, id: &'a ModuleId) -> impl Iterator<Item = &'a Edge> {
        self.edges.iter().filter(move |e| &e.to == id)
    }

    /// Number of modules.
    pub fn len(&self) -> usize {
        self.modules.len()
    }

    /// True when the app has no modules.
    pub fn is_empty(&self) -> bool {
        self.modules.is_empty()
    }

    /// The task modules that access a data module, per the `Access` edges
    /// (in either direction — tasks may read from or write to data).
    pub fn accessors_of<'a>(&'a self, data: &'a ModuleId) -> Vec<&'a ModuleId> {
        let mut out = Vec::new();
        for e in &self.edges {
            if e.kind != EdgeKind::Access {
                continue;
            }
            if &e.to == data {
                out.push(&e.from);
            } else if &e.from == data {
                out.push(&e.to);
            }
        }
        out
    }

    /// Validates the application (see [`crate::validate`]).
    pub fn validate(&self) -> SpecResult<()> {
        crate::validate::validate(self).map(drop)
    }

    /// Returns the modules in a topological order of the `Dependency`
    /// edges, or an error if those edges contain a cycle.
    pub fn topo_order(&self) -> SpecResult<Vec<ModuleId>> {
        crate::validate::topo_order(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aspect::Goal;

    fn two_module_app() -> AppSpec {
        let mut app = AppSpec::new("t");
        app.add_task(TaskSpec::new("A1").with_resource(ResourceAspect::goal(Goal::Fastest)));
        app.add_data(DataSpec::new("S1").with_bytes(1024));
        app
    }

    #[test]
    fn add_and_lookup_modules() {
        let app = two_module_app();
        assert_eq!(app.len(), 2);
        assert_eq!(app.tasks().count(), 1);
        assert_eq!(app.data().count(), 1);
        assert!(app.lookup("A1").is_ok());
        assert!(matches!(
            app.lookup("missing"),
            Err(SpecError::UnknownModule(_))
        ));
    }

    #[test]
    fn edges_require_existing_endpoints() {
        let mut app = two_module_app();
        assert!(app.add_edge("A1", "S1", EdgeKind::Access).is_ok());
        assert!(app.add_edge("A1", "nope", EdgeKind::Dependency).is_err());
        assert!(app.add_edge("nope", "A1", EdgeKind::Dependency).is_err());
    }

    #[test]
    fn self_loops_rejected() {
        let mut app = two_module_app();
        let err = app.add_edge("A1", "A1", EdgeKind::Dependency).unwrap_err();
        assert!(matches!(err, SpecError::InvalidEdge { .. }));
    }

    #[test]
    fn hints_require_existing_modules() {
        let mut app = two_module_app();
        assert!(app.affinity("A1", "S1").is_ok());
        assert!(app.colocate("A1", "ghost").is_err());
        assert_eq!(app.hints.len(), 1);
        let (a, b) = app.hints[0].endpoints();
        assert_eq!(a.as_str(), "A1");
        assert_eq!(b.as_str(), "S1");
    }

    #[test]
    fn accessors_found_in_both_directions() {
        let mut app = two_module_app();
        app.add_task(TaskSpec::new("A2"));
        app.add_edge("A1", "S1", EdgeKind::Access).unwrap();
        app.add_edge("S1", "A2", EdgeKind::Access).unwrap();
        let s1 = ModuleId::from("S1");
        let acc = app.accessors_of(&s1);
        let names: Vec<&str> = acc.iter().map(|m| m.as_str()).collect();
        assert_eq!(names, vec!["A1", "A2"]);
    }

    #[test]
    fn replacing_module_keeps_single_entry() {
        let mut app = two_module_app();
        app.add_task(TaskSpec::new("A1").with_work(99));
        assert_eq!(app.len(), 2);
        assert_eq!(
            app.module(&ModuleId::from("A1")).unwrap().work_units,
            Some(99)
        );
    }
}
