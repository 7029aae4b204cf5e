//! The uniform intermediate representation (§3.1).
//!
//! "We will then extend their compilers to compile them into a uniform
//! intermediate representation (in units of IR modules) for resource
//! allocation and execution. Our IR is defined as high-level modules and
//! their relationships, not low-level code instructions."

use udc_crypto::sha256::Sha256;
use udc_spec::{
    AppSpec, ConflictPolicy, DataProtection, DistributedAspect, ExecEnvAspect, FailureHandling,
    ModuleId, ModuleSpec, ResolvedApp, ResourceAspect, SpecResult,
};

/// One IR module: the spec module plus a content identity used for
/// attestation measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleIr {
    /// The module's declarative specification (aspects included).
    pub spec: ModuleSpec,
    /// Code/content identity: SHA-256 over the module's canonical
    /// encoding (see `module_identity`). Real deployments hash the
    /// module binary; the simulation hashes the spec, which has the
    /// property the attestation flow needs — it changes whenever the
    /// module or its aspects change.
    pub identity: [u8; 32],
}

impl ModuleIr {
    /// Compiles one spec module to IR.
    pub fn compile(spec: &ModuleSpec) -> Self {
        Self {
            spec: spec.clone(),
            identity: module_identity(spec),
        }
    }

    /// Short hex identity (first 8 bytes) for measurement-log events.
    pub fn identity_hex(&self) -> String {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        let mut hex = String::with_capacity(16);
        for &b in &self.identity[..8] {
            hex.push(DIGITS[usize::from(b >> 4)] as char);
            hex.push(DIGITS[usize::from(b & 0x0f)] as char);
        }
        hex
    }
}

/// Version tag that opens every module encoding. Changing the encoding
/// means changing the tag, so identities from two encodings never meet.
const IDENTITY_VERSION: &[u8] = b"udc-module-v1";

/// SHA-256 over the canonical encoding of `spec`, streamed into the
/// hasher field by field.
///
/// The encoding is [`IDENTITY_VERSION`], then every field in declaration
/// order: integers as unsigned LEB128, strings length-prefixed, booleans
/// and `Option` tags as one 0/1 byte, lists count-prefixed, the demand
/// vector in its sorted-map order, and enums by their canonical text
/// name, so reordering an enum's variants cannot change an identity.
/// Every struct is destructured exhaustively: a field added later does
/// not compile until the encoding covers it. LEB128 keeps a typical
/// module within one or two SHA-256 blocks, and the block count is
/// what the identity costs.
fn module_identity(spec: &ModuleSpec) -> [u8; 32] {
    let ModuleSpec {
        id,
        kind,
        description,
        resource,
        exec_env,
        dist,
        work_units,
        bytes,
    } = spec;
    let mut enc = Encoder::new();
    enc.bytes(IDENTITY_VERSION);
    enc.str(id.as_str());
    enc.str(kind.name());
    enc.opt(description.as_deref(), Encoder::str);

    let ResourceAspect {
        demand,
        candidates,
        goal,
    } = resource;
    enc.u64(demand.iter().count() as u64);
    for (kind, amount) in demand.iter() {
        enc.str(kind.name());
        enc.u64(amount);
    }
    enc.u64(candidates.len() as u64);
    for kind in candidates {
        enc.str(kind.name());
    }
    enc.opt(goal.map(|g| g.name()), Encoder::str);

    let ExecEnvAspect {
        isolation,
        tenancy,
        tee_if_cpu,
        protection,
    } = exec_env;
    enc.opt(isolation.map(|i| i.name()), Encoder::str);
    enc.opt(tenancy.map(|t| t.name()), Encoder::str);
    enc.bool(*tee_if_cpu);
    enc.opt(*protection, |enc, p| {
        let DataProtection {
            confidentiality,
            integrity,
            replay,
        } = p;
        enc.bool(confidentiality);
        enc.bool(integrity);
        enc.bool(replay);
    });

    let DistributedAspect {
        replication,
        consistency,
        preference,
        failure,
        failure_domain,
    } = dist;
    enc.u64(u64::from(*replication));
    enc.opt(consistency.map(|c| c.name()), Encoder::str);
    enc.str(preference.name());
    enc.opt(*failure, |enc, f| {
        enc.str(f.name());
        match f {
            FailureHandling::Reexecute => {}
            FailureHandling::Checkpoint { interval_ms } => enc.u64(interval_ms),
        }
    });
    enc.opt(failure_domain.as_deref(), Encoder::str);

    enc.opt(*work_units, Encoder::u64);
    enc.opt(*bytes, Encoder::u64);
    enc.finish()
}

/// Feeds the canonical encoding to SHA-256 through a fixed stack
/// buffer, so the hasher sees one write per two blocks instead of one
/// per field.
struct Encoder {
    hash: Sha256,
    buf: [u8; 128],
    len: usize,
}

impl Encoder {
    fn new() -> Self {
        Self {
            hash: Sha256::new(),
            buf: [0; 128],
            len: 0,
        }
    }

    fn bytes(&mut self, b: &[u8]) {
        if self.len + b.len() > self.buf.len() {
            self.hash.update(&self.buf[..self.len]);
            self.len = 0;
            if b.len() > self.buf.len() {
                self.hash.update(b);
                return;
            }
        }
        self.buf[self.len..self.len + b.len()].copy_from_slice(b);
        self.len += b.len();
    }

    /// Unsigned LEB128: seven bits per byte, low group first, the high
    /// bit set on every byte but the last.
    fn u64(&mut self, mut v: u64) {
        let mut out = [0u8; 10];
        let mut n = 0;
        while v >= 0x80 {
            out[n] = (v as u8) | 0x80;
            v >>= 7;
            n += 1;
        }
        out[n] = v as u8;
        self.bytes(&out[..=n]);
    }

    fn bool(&mut self, v: bool) {
        self.bytes(&[u8::from(v)]);
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// A 0/1 presence tag, then the value when present.
    fn opt<T>(&mut self, v: Option<T>, write: impl FnOnce(&mut Self, T)) {
        self.bool(v.is_some());
        if let Some(v) = v {
            write(self, v);
        }
    }

    fn finish(mut self) -> [u8; 32] {
        self.hash.update(&self.buf[..self.len]);
        self.hash.finalize()
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
    use proptest::prelude::*;
    use udc_spec::{
        ConsistencyLevel, DataSpec, Goal, IsolationLevel, ModuleKind, OpPreference, ResourceKind,
        ResourceVector, TaskSpec, Tenancy,
    };

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

    /// A module with every field set, none of them to its default.
    fn full_module() -> ModuleSpec {
        ModuleSpec {
            id: "S2".into(),
            kind: ModuleKind::Data,
            description: Some("patient records".into()),
            resource: ResourceAspect {
                demand: ResourceVector::new()
                    .with(ResourceKind::Cpu, 4)
                    .with(ResourceKind::Dram, 8192)
                    .with(ResourceKind::Ssd, 1 << 20),
                candidates: vec![ResourceKind::Gpu, ResourceKind::Cpu],
                goal: Some(Goal::Cheapest),
            },
            exec_env: ExecEnvAspect {
                isolation: Some(IsolationLevel::Strongest),
                tenancy: Some(Tenancy::SingleTenant),
                tee_if_cpu: true,
                protection: Some(DataProtection::ENCRYPT_AND_INTEGRITY),
            },
            dist: DistributedAspect {
                replication: 3,
                consistency: Some(ConsistencyLevel::Linearizable),
                preference: OpPreference::Reader,
                failure: Some(FailureHandling::Checkpoint { interval_ms: 250 }),
                failure_domain: Some("rack-a".into()),
            },
            work_units: Some(1_000_000),
            bytes: Some(1 << 30),
        }
    }

    /// Pins the encoding: any change to field order, tags, integer width
    /// or enum names moves this digest, and must bump
    /// `IDENTITY_VERSION` along with it. The expected value was checked
    /// once against the 162-byte encoding written out by hand from the
    /// rules on [`module_identity`] and hashed with coreutils `sha256sum`.
    #[test]
    fn identity_is_pinned() {
        let ir = ModuleIr::compile(&full_module());
        let hex: String = ir.identity.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "5b68a22b2c38ad3d738bd9ddb2b9271478ca924b7e7c9e4724bc91837ab0c38a"
        );
        assert_eq!(ir.identity_hex(), hex[..16]);
    }

    #[test]
    fn identity_separates_absent_from_empty_and_default() {
        let base = full_module();
        let mut none = base.clone();
        none.description = None;
        let mut empty = base.clone();
        empty.description = Some(String::new());
        assert_ne!(module_identity(&none), module_identity(&empty));

        let mut one = base.clone();
        one.dist.replication = 1;
        let mut two = base;
        two.dist.replication = 2;
        assert_ne!(module_identity(&one), module_identity(&two));
    }

    fn arb_module() -> impl Strategy<Value = ModuleSpec> {
        let opt_name = || prop_oneof![Just(None), "[a-z]{0,3}".prop_map(Some)];
        let opt_u64 = || prop_oneof![Just(None), (0u64..4).prop_map(Some)];
        let kind = || prop::sample::select(ResourceKind::ALL.to_vec());
        let resource = (
            prop::collection::vec((kind(), 1u64..4), 0..3),
            prop::collection::vec(kind(), 0..3),
            prop::sample::select(vec![None, Some(Goal::Fastest), Some(Goal::Cheapest)]),
        )
            .prop_map(|(demand, candidates, goal)| ResourceAspect {
                demand: demand
                    .into_iter()
                    .fold(ResourceVector::new(), |v, (k, n)| v.with(k, n)),
                candidates,
                goal,
            });
        let exec_env = (
            prop::sample::select(vec![
                None,
                Some(IsolationLevel::Weak),
                Some(IsolationLevel::Strong),
            ]),
            prop::sample::select(vec![
                None,
                Some(Tenancy::Shared),
                Some(Tenancy::SingleTenant),
            ]),
            any::<bool>(),
            prop_oneof![
                Just(None),
                (any::<bool>(), any::<bool>(), any::<bool>()).prop_map(|(c, i, r)| Some(
                    DataProtection {
                        confidentiality: c,
                        integrity: i,
                        replay: r,
                    }
                )),
            ],
        )
            .prop_map(
                |(isolation, tenancy, tee_if_cpu, protection)| ExecEnvAspect {
                    isolation,
                    tenancy,
                    tee_if_cpu,
                    protection,
                },
            );
        let dist = (
            1u32..3,
            prop::sample::select(vec![None, Some(ConsistencyLevel::Causal)]),
            prop::sample::select(vec![OpPreference::None, OpPreference::Writer]),
            prop_oneof![
                Just(None),
                Just(Some(FailureHandling::Reexecute)),
                (0u64..3).prop_map(|interval_ms| Some(FailureHandling::Checkpoint { interval_ms })),
            ],
            opt_name(),
        )
            .prop_map(
                |(replication, consistency, preference, failure, failure_domain)| {
                    DistributedAspect {
                        replication,
                        consistency,
                        preference,
                        failure,
                        failure_domain,
                    }
                },
            );
        (
            "[A-Z][0-9]{0,2}",
            any::<bool>(),
            opt_name(),
            resource,
            exec_env,
            dist,
            opt_u64(),
            opt_u64(),
        )
            .prop_map(
                |(id, task, description, resource, exec_env, dist, work_units, bytes)| ModuleSpec {
                    id: id.as_str().into(),
                    kind: if task {
                        ModuleKind::Task
                    } else {
                        ModuleKind::Data
                    },
                    description,
                    resource,
                    exec_env,
                    dist,
                    work_units,
                    bytes,
                },
            )
    }

    /// Cycles an `Option` through `None` and each of `values`.
    fn next_of<T: Copy + PartialEq>(cur: Option<T>, values: &[T]) -> Option<T> {
        match cur {
            None => Some(values[0]),
            Some(v) => values
                .iter()
                .position(|&x| x == v)
                .and_then(|i| values.get(i + 1))
                .copied(),
        }
    }

    /// Bumps an optional number: absent becomes 0, present grows by one.
    fn bump(v: Option<u64>) -> Option<u64> {
        Some(v.map_or(0, |n| n + 1))
    }

    /// Toggles an optional string: absent becomes empty, present becomes
    /// absent.
    fn toggle(s: &Option<String>) -> Option<String> {
        match s {
            None => Some(String::new()),
            Some(_) => None,
        }
    }

    /// Changes exactly one field of `m`, chosen by `field`.
    fn mutate(m: &mut ModuleSpec, field: usize) {
        let (r, e, d) = (&mut m.resource, &mut m.exec_env, &mut m.dist);
        match field {
            0 => m.id = format!("{}x", m.id).as_str().into(),
            1 => {
                m.kind = match m.kind {
                    ModuleKind::Task => ModuleKind::Data,
                    ModuleKind::Data => ModuleKind::Task,
                }
            }
            2 => m.description = toggle(&m.description),
            3 => m.description = m.description.as_ref().map(|s| format!("{s}a")),
            4 => {
                let cpu = r.demand.get(ResourceKind::Cpu);
                r.demand.set(ResourceKind::Cpu, cpu + 1);
            }
            5 => r.candidates.push(ResourceKind::Fpga),
            6 => r.goal = next_of(r.goal, &[Goal::Fastest, Goal::Cheapest]),
            7 => {
                e.isolation = next_of(e.isolation, &[IsolationLevel::Weak, IsolationLevel::Strong])
            }
            8 => e.tenancy = next_of(e.tenancy, &[Tenancy::Shared, Tenancy::SingleTenant]),
            9 => e.tee_if_cpu = !e.tee_if_cpu,
            10 => {
                e.protection = match e.protection {
                    None => Some(DataProtection::NONE),
                    Some(_) => None,
                }
            }
            11 => {
                if let Some(p) = &mut e.protection {
                    p.confidentiality = !p.confidentiality;
                }
            }
            12 => {
                if let Some(p) = &mut e.protection {
                    p.integrity = !p.integrity;
                }
            }
            13 => {
                if let Some(p) = &mut e.protection {
                    p.replay = !p.replay;
                }
            }
            14 => d.replication += 1,
            15 => d.consistency = next_of(d.consistency, &[ConsistencyLevel::Causal]),
            16 => {
                d.preference = match d.preference {
                    OpPreference::None => OpPreference::Reader,
                    _ => OpPreference::None,
                }
            }
            17 => {
                d.failure = match d.failure {
                    None => Some(FailureHandling::Reexecute),
                    Some(FailureHandling::Reexecute) => {
                        Some(FailureHandling::Checkpoint { interval_ms: 0 })
                    }
                    Some(FailureHandling::Checkpoint { interval_ms }) => {
                        Some(FailureHandling::Checkpoint {
                            interval_ms: interval_ms + 1,
                        })
                    }
                }
            }
            18 => d.failure_domain = toggle(&d.failure_domain),
            19 => m.work_units = bump(m.work_units),
            20 => m.work_units = None,
            21 => m.bytes = bump(m.bytes),
            _ => m.bytes = None,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn identity_tracks_every_field(m in arb_module(), field in 0usize..23) {
            let id = module_identity(&m);
            prop_assert_eq!(module_identity(&m.clone()), id);
            let mut changed = m.clone();
            mutate(&mut changed, field);
            // Some mutations only apply to a present value (appending to
            // a description, flipping a protection flag, clearing a
            // number); when they do nothing the identity must not move.
            if changed == m {
                prop_assert_eq!(module_identity(&changed), id);
            } else {
                prop_assert_ne!(module_identity(&changed), id);
            }
        }
    }
}
