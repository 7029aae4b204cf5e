//! The uniform intermediate representation (§3.1).
//!
//! "We will then extend their compilers to compile them into a uniform
//! intermediate representation (in units of IR modules) for resource
//! allocation and execution. Our IR is defined as high-level modules and
//! their relationships, not low-level code instructions."

use serde::{Deserialize, Serialize};
use udc_crypto::sha256;
use udc_spec::{AppSpec, ConflictPolicy, ModuleId, ModuleSpec, ResolvedApp, SpecResult};

/// One IR module: the spec module plus a content identity used for
/// attestation measurements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModuleIr {
    /// The module's declarative specification (aspects included).
    pub spec: ModuleSpec,
    /// Code/content identity: a digest over the module's canonical
    /// serialization. Real deployments hash the module binary; the
    /// simulation hashes the spec, which has the property the
    /// attestation flow needs — it changes whenever the module or its
    /// aspects change.
    pub identity: [u8; 32],
}

impl ModuleIr {
    /// Compiles one spec module to IR.
    pub fn compile(spec: &ModuleSpec) -> Self {
        let canonical = serde_json::to_vec(spec).expect("module specs serialize infallibly");
        Self {
            spec: spec.clone(),
            identity: sha256(&canonical),
        }
    }

    /// Short hex identity (first 8 bytes) for measurement-log events.
    pub fn identity_hex(&self) -> String {
        self.identity[..8]
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect()
    }
}

/// The IR of a whole application.
#[derive(Debug, Clone, PartialEq)]
pub struct AppIr {
    /// The source app, behind the front door.
    pub app: ResolvedApp,
    /// IR modules in id order.
    pub modules: Vec<ModuleIr>,
}

impl AppIr {
    /// Compiles an application: takes it through the front door under
    /// `policy` and derives module identities.
    pub fn compile(app: &AppSpec, policy: ConflictPolicy) -> SpecResult<Self> {
        let app = ResolvedApp::new(app, policy)?;
        let modules = app.iter_modules().map(ModuleIr::compile).collect();
        Ok(Self { app, modules })
    }

    /// Looks up an IR module by id.
    pub fn module(&self, id: &ModuleId) -> Option<&ModuleIr> {
        self.modules.iter().find(|m| &m.spec.id == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udc_spec::{ConsistencyLevel, DataSpec, TaskSpec};

    fn app() -> AppSpec {
        let mut a = AppSpec::new("t");
        a.add_task(TaskSpec::new("A1").with_work(10));
        a.add_data(DataSpec::new("S1").with_bytes(1024));
        a
    }

    #[test]
    fn compiles_and_indexes() {
        let ir = AppIr::compile(&app(), ConflictPolicy::StrictestWins).unwrap();
        assert_eq!(ir.modules.len(), 2);
        assert!(ir.module(&"A1".into()).is_some());
        assert!(ir.module(&"ghost".into()).is_none());
    }

    #[test]
    fn identity_changes_with_aspects() {
        let base = app();
        let ir1 = AppIr::compile(&base, ConflictPolicy::StrictestWins).unwrap();
        let mut changed = base.clone();
        changed.add_task(TaskSpec::new("A1").with_work(20));
        let ir2 = AppIr::compile(&changed, ConflictPolicy::StrictestWins).unwrap();
        let id1 = ir1.module(&"A1".into()).unwrap().identity;
        let id2 = ir2.module(&"A1".into()).unwrap().identity;
        assert_ne!(id1, id2, "changing the module must change its identity");
    }

    #[test]
    fn identity_deterministic() {
        let ir1 = AppIr::compile(&app(), ConflictPolicy::StrictestWins).unwrap();
        let ir2 = AppIr::compile(&app(), ConflictPolicy::StrictestWins).unwrap();
        assert_eq!(ir1, ir2);
    }

    #[test]
    fn conflicts_resolved_before_compile() {
        let mut a = AppSpec::new("c");
        a.add_task(TaskSpec::new("A"));
        a.add_task(TaskSpec::new("B"));
        a.add_data(DataSpec::new("S"));
        a.add_access_with("A", "S", Some(ConsistencyLevel::Sequential), None)
            .unwrap();
        a.add_access_with("B", "S", Some(ConsistencyLevel::Release), None)
            .unwrap();
        let ir = AppIr::compile(&a, ConflictPolicy::StrictestWins).unwrap();
        assert_eq!(
            ir.module(&"S".into()).unwrap().spec.dist.consistency,
            Some(ConsistencyLevel::Sequential)
        );
        assert!(AppIr::compile(&a, ConflictPolicy::Error).is_err());
    }

    #[test]
    fn invalid_app_rejected() {
        let a = AppSpec::new("empty");
        assert!(AppIr::compile(&a, ConflictPolicy::StrictestWins).is_err());
    }

    #[test]
    fn identity_hex_is_short_and_stable() {
        let ir = AppIr::compile(&app(), ConflictPolicy::StrictestWins).unwrap();
        let hex = ir.module(&"A1".into()).unwrap().identity_hex();
        assert_eq!(hex.len(), 16);
    }
}
