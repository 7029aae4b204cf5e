//! # udc-spec — the UDC aspect-specification language
//!
//! Implements §3 of the paper: applications are DAGs of fine-grained
//! *modules* (tasks and data), and each module carries up to three
//! orthogonal, declaratively specified *aspects*:
//!
//! 1. **Resource aspect** (§3.2) — what hardware a module needs, as exact
//!    demands, a candidate set, or a goal (`fastest` / `cheapest`).
//! 2. **Execution-environment aspect** (§3.3) — isolation level, tenancy,
//!    and data-protection requirements (confidentiality, integrity, replay
//!    protection).
//! 3. **Distributed aspect** (§3.4) — replication factor, consistency
//!    level, operation preference, failure domain, and failure handling.
//!
//! Aspects are *decoupled* from each other and from their realization
//! (Design Principle 2): any aspect may be omitted, in which case the
//! provider default applies ("falling back to today's cloud").
//!
//! The crate also provides:
//! - locality hints (`colocate`, `affinity`) used by the runtime scheduler
//!   (§3.1),
//! - DAG validation,
//! - conflict detection for incompatible aspects on shared data (§3.4),
//!   with both strictest-wins resolution and error reporting,
//! - [`ResolvedApp`], the proof a spec was resolved, validated, ordered,
//! - a declarative text format (`.udc`) with a parser and canonical
//!   printer, plus JSON via serde.
//!
//! # Examples
//!
//! ```
//! use udc_spec::prelude::*;
//!
//! let mut app = AppSpec::new("demo");
//! app.add_task(TaskSpec::new("A1").with_resource(ResourceAspect::goal(Goal::Fastest)));
//! app.add_data(DataSpec::new("S1").with_dist(
//!     DistributedAspect::default().replication(3).consistency(ConsistencyLevel::Sequential),
//! ));
//! app.add_edge("A1", "S1", EdgeKind::Access).unwrap();
//! app.validate().unwrap();
//! ```

pub mod aspect;
pub mod conflict;
pub mod dag;
pub mod error;
pub mod ids;
pub mod parser;
pub mod printer;
pub mod resolved;
pub mod validate;

pub use aspect::{
    ConsistencyLevel, DataProtection, DistributedAspect, ExecEnvAspect, FailureHandling, Goal,
    IsolationLevel, OpPreference, ResourceAspect, ResourceKind, ResourceVector, Tenancy,
};
pub use conflict::{detect_conflicts, resolve, ConflictKind, ConflictPolicy, ConflictReport};
pub use dag::{AppSpec, DataSpec, EdgeKind, LocalityHint, ModuleKind, ModuleSpec, TaskSpec};
pub use error::{SpecError, SpecResult};
pub use ids::{AppName, ModuleId};
pub use parser::parse_app;
pub use printer::print_app;
pub use resolved::ResolvedApp;

/// Convenient glob-import surface for downstream crates and examples.
pub mod prelude {
    pub use crate::aspect::{
        ConsistencyLevel, DataProtection, DistributedAspect, ExecEnvAspect, FailureHandling, Goal,
        IsolationLevel, OpPreference, ResourceAspect, ResourceKind, ResourceVector, Tenancy,
    };
    pub use crate::conflict::{detect_conflicts, resolve, ConflictPolicy};
    pub use crate::dag::{AppSpec, DataSpec, EdgeKind, LocalityHint, ModuleKind, TaskSpec};
    pub use crate::error::{SpecError, SpecResult};
    pub use crate::ids::ModuleId;
    pub use crate::parser::parse_app;
    pub use crate::printer::print_app;
    pub use crate::resolved::ResolvedApp;
}
