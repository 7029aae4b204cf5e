//! The frozen input corpus and the seeded draws over it.
//!
//! `corpus/*.udc` were written once by [`generate`] from the
//! `udc-workload` generators and are compiled into the binary: the
//! product code only ever receives these texts (or a module-id-prefixed
//! rewrite of one), never a generator's in-memory output.

use crate::rng::Rng;
use udc_spec::{AppSpec, LocalityHint, ModuleId};
use udc_workload::{
    analytics_fanout, medical_pipeline, microservice_chain, ml_serving_chain, random_app,
    RandomDagConfig,
};

pub struct Spec {
    pub name: &'static str,
    pub text: &'static str,
}

macro_rules! spec {
    ($name:literal) => {
        Spec {
            name: $name,
            text: include_str!(concat!("../corpus/", $name, ".udc")),
        }
    };
}

/// The feasible specs. An odd count, and every draw cycle uses each
/// exactly once, so the median deploy latency falls inside one spec's
/// cluster of samples instead of on the gap between two.
pub const FEASIBLE: [Spec; 25] = [
    spec!("medical"),
    spec!("ml_serving_1"),
    spec!("ml_serving_2"),
    spec!("ml_serving_3"),
    spec!("ml_serving_4"),
    spec!("analytics_2"),
    spec!("analytics_4"),
    spec!("analytics_8"),
    spec!("analytics_16"),
    spec!("microservices_2"),
    spec!("microservices_3"),
    spec!("microservices_5"),
    spec!("microservices_8"),
    spec!("random_10_a"),
    spec!("random_10_b"),
    spec!("random_10_c"),
    spec!("random_10_d"),
    spec!("random_20_a"),
    spec!("random_20_b"),
    spec!("random_20_c"),
    spec!("random_20_d"),
    spec!("random_50_a"),
    spec!("random_50_b"),
    spec!("random_50_c"),
    spec!("random_50_d"),
];

/// Infeasible by construction: one task asking for more GPU units than
/// the largest benchmark datacenter owns. A single module, because a
/// multi-module app refused part-way keeps what it had already been
/// allocated (`Scheduler::place_app` does not roll back), and workloads
/// must not contain operations that fail.
pub const REFUSED: Spec = spec!("refuse_gpu");

pub fn feasible(name: &str) -> &'static Spec {
    FEASIBLE
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("no corpus spec named {name}"))
}

/// One cycle of asks in every `REFUSAL_EVERY` cycles carries a refusal.
const REFUSAL_EVERY: u64 = 4;

/// What a tenant asks for next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ask {
    /// Index into [`FEASIBLE`].
    Deploy(usize),
    /// [`REFUSED`]: must come back as a typed error.
    Refuse,
}

/// Endless seeded sequence of asks: shuffled cycles over the whole
/// corpus, with one infeasible ask in every fourth cycle (1 in 101).
pub struct Draw {
    rng: Rng,
    cycle: u64,
    queue: Vec<Ask>,
}

impl Draw {
    pub fn new(seed: u64) -> Self {
        Self {
            rng: Rng::derive(seed, 0xd5a1),
            cycle: 0,
            queue: Vec::new(),
        }
    }
}

impl Iterator for Draw {
    type Item = Ask;

    fn next(&mut self) -> Option<Ask> {
        if self.queue.is_empty() {
            self.queue = (0..FEASIBLE.len()).map(Ask::Deploy).collect();
            if self.cycle % REFUSAL_EVERY == REFUSAL_EVERY - 1 {
                self.queue.push(Ask::Refuse);
            }
            self.rng.shuffle(&mut self.queue);
            self.cycle += 1;
        }
        self.queue.pop()
    }
}

/// `app` with every module id prefixed, edges and hints rewritten to
/// match. Deployments that live side by side in one cloud need distinct
/// module ids: fencing epochs and telemetry labels are keyed by them.
pub fn with_prefix(app: &AppSpec, prefix: &str) -> AppSpec {
    let rename = |id: &ModuleId| {
        ModuleId::new(format!("{prefix}{id}")).expect("prefix keeps the id a valid identifier")
    };
    let mut out = AppSpec::new(app.name.as_str());
    for m in app.modules.values() {
        let mut m = m.clone();
        m.id = rename(&m.id);
        out.add_module(m);
    }
    out.edges = app
        .edges
        .iter()
        .map(|e| {
            let mut e = e.clone();
            e.from = rename(&e.from);
            e.to = rename(&e.to);
            e
        })
        .collect();
    out.hints = app
        .hints
        .iter()
        .map(|h| match h {
            LocalityHint::Colocate(a, b) => LocalityHint::Colocate(rename(a), rename(b)),
            LocalityHint::Affinity { task, data } => LocalityHint::Affinity {
                task: rename(task),
                data: rename(data),
            },
        })
        .collect();
    out
}

/// The text of corpus spec `index` as deployment `slot` of a standing
/// population submits it: parsed, prefixed `<tag><slot>-`, printed.
pub fn prefixed_text(spec: &Spec, tag: &str, slot: usize) -> String {
    let app = udc_spec::parse_app(spec.text).expect("corpus spec parses");
    udc_spec::print_app(&with_prefix(&app, &format!("{tag}{slot}-")))
}

/// Regenerates every corpus file as `(file name, content)`. Each starts
/// with a comment naming the generator call that produced it.
pub fn generate() -> Vec<(String, String)> {
    let mut files = Vec::new();
    let mut put = |name: &str, call: String, app: &AppSpec| {
        files.push((
            format!("{name}.udc"),
            format!(
                "# udc-benchmark corpus: {name}\n# generator: {call}\n# frozen: do not regenerate, later commits are compared on these bytes\n{}",
                udc_spec::print_app(app)
            ),
        ));
    };
    put(
        "medical",
        "udc_workload::medical_pipeline()".into(),
        &medical_pipeline(),
    );
    for n in [1, 2, 3, 4] {
        put(
            &format!("ml_serving_{n}"),
            format!("udc_workload::ml_serving_chain({n})"),
            &ml_serving_chain(n),
        );
    }
    for n in [2, 4, 8, 16] {
        put(
            &format!("analytics_{n}"),
            format!("udc_workload::analytics_fanout({n})"),
            &analytics_fanout(n),
        );
    }
    for n in [2, 3, 5, 8] {
        put(
            &format!("microservices_{n}"),
            format!("udc_workload::microservice_chain({n})"),
            &microservice_chain(n),
        );
    }
    for (tasks, data) in [(10usize, 3usize), (20, 6), (50, 12)] {
        for (i, letter) in ["a", "b", "c", "d"].iter().enumerate() {
            let seed = (tasks * 10 + i + 1) as u64;
            let config = RandomDagConfig {
                tasks,
                data,
                seed,
                ..RandomDagConfig::default()
            };
            put(
                &format!("random_{tasks}_{letter}"),
                format!(
                    "udc_workload::random_app(RandomDagConfig {{ tasks: {tasks}, data: {data}, edge_prob: {}, conflict_prob: {}, seed: {seed} }}).0",
                    config.edge_prob, config.conflict_prob
                ),
                &random_app(config).0,
            );
        }
    }
    let mut hog = AppSpec::new("refuse-gpu");
    hog.add_task(
        udc_spec::TaskSpec::new("hog")
            .with_resource(
                udc_spec::ResourceAspect::default()
                    .with_demand(udc_spec::ResourceKind::Gpu, 1_000_000),
            )
            .with_work(10),
    );
    put(
        "refuse_gpu",
        "hand-built: one task, demand = 1000000gpu (the 100 000-device datacenter owns 64 000)"
            .into(),
        &hog,
    );
    files
}

#[cfg(test)]
mod tests {
    use super::*;
    use udc_core::{CloudConfig, CloudError, UdcCloud};
    use udc_spec::{parse_app, print_app};

    #[test]
    fn every_corpus_text_parses_and_places_alone_on_the_default_datacenter() {
        for spec in &FEASIBLE {
            let app = parse_app(spec.text).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            let mut cloud = UdcCloud::new(CloudConfig::default());
            let before = cloud.datacenter().utilization_report();
            let mut dep = cloud
                .submit(&app)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert!(
                cloud.verify_deployment(&dep).all_fulfilled(),
                "{}",
                spec.name
            );
            cloud.teardown(&mut dep);
            assert_eq!(
                cloud.datacenter().utilization_report(),
                before,
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn the_infeasible_spec_is_refused_with_a_typed_error_and_holds_nothing() {
        let app = parse_app(REFUSED.text).unwrap();
        let mut cloud = UdcCloud::new(CloudConfig::default());
        let before = cloud.datacenter().utilization_report();
        assert!(matches!(
            cloud.submit(&app),
            Err(CloudError::Sched(udc_sched::SchedError::Alloc { .. }))
        ));
        assert_eq!(cloud.datacenter().utilization_report(), before);
    }

    #[test]
    fn every_corpus_file_names_its_generator() {
        for spec in FEASIBLE.iter().chain([&REFUSED]) {
            let mut lines = spec.text.lines();
            assert_eq!(
                lines.next(),
                Some(format!("# udc-benchmark corpus: {}", spec.name).as_str())
            );
            assert!(lines.next().unwrap().starts_with("# generator: "));
        }
    }

    #[test]
    fn prefixing_keeps_edges_and_hints_consistent_and_survives_a_round_trip() {
        for spec in &FEASIBLE {
            let app = parse_app(spec.text).unwrap();
            let renamed = with_prefix(&app, "s12-");
            renamed
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert_eq!(renamed.modules.len(), app.modules.len());
            assert_eq!(renamed.edges.len(), app.edges.len());
            assert_eq!(renamed.hints.len(), app.hints.len());
            for (old, new) in app.edges.iter().zip(&renamed.edges) {
                assert_eq!(new.from.as_str(), format!("s12-{}", old.from));
                assert_eq!(new.to.as_str(), format!("s12-{}", old.to));
                assert_eq!(new.kind, old.kind);
                assert!(renamed.modules.contains_key(&new.from));
                assert!(renamed.modules.contains_key(&new.to));
            }
            for (old, new) in app.hints.iter().zip(&renamed.hints) {
                let ((oa, ob), (na, nb)) = (old.endpoints(), new.endpoints());
                assert_eq!(na.as_str(), format!("s12-{oa}"));
                assert_eq!(nb.as_str(), format!("s12-{ob}"));
                assert_eq!(
                    std::mem::discriminant(old),
                    std::mem::discriminant(new),
                    "{}",
                    spec.name
                );
            }
            let reparsed = parse_app(&print_app(&renamed)).unwrap();
            assert_eq!(reparsed, renamed, "{}", spec.name);
            assert_eq!(prefixed_text(spec, "s", 12), print_app(&renamed));
        }
    }

    #[test]
    fn draws_are_balanced_seeded_and_refuse_one_in_101() {
        let asks: Vec<Ask> = Draw::new(5).take(101).collect();
        for i in 0..FEASIBLE.len() {
            assert_eq!(asks.iter().filter(|a| **a == Ask::Deploy(i)).count(), 4);
        }
        assert_eq!(asks.iter().filter(|a| **a == Ask::Refuse).count(), 1);
        assert_eq!(asks, Draw::new(5).take(101).collect::<Vec<_>>());
        assert_ne!(asks, Draw::new(6).take(101).collect::<Vec<_>>());
    }

    #[test]
    fn the_corpus_is_an_odd_number_of_specs() {
        assert_eq!(FEASIBLE.len() % 2, 1);
    }
}
