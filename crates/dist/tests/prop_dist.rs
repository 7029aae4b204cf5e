//! Property tests for distributed semantics: consistency guarantees hold
//! under arbitrary operation interleavings, and checkpoint recovery is
//! equivalent to full re-execution.

use proptest::prelude::*;
use std::collections::BTreeMap;
use udc_dist::{
    RecoveryModel, RecoveryOutcome, RecoveryStrategy, ReplicatedStore, ReplicationParams,
};
use udc_spec::{ConsistencyLevel, ModuleId};

#[derive(Debug, Clone)]
enum StoreOp {
    Write(u8, u8),
    Read(u8),
    Propagate,
    Release,
}

fn arb_op() -> impl Strategy<Value = StoreOp> {
    prop_oneof![
        (any::<u8>(), any::<u8>()).prop_map(|(k, v)| StoreOp::Write(k % 8, v)),
        any::<u8>().prop_map(|k| StoreOp::Read(k % 8)),
        Just(StoreOp::Propagate),
        Just(StoreOp::Release),
    ]
}

fn level_strategy() -> impl Strategy<Value = ConsistencyLevel> {
    prop::sample::select(vec![
        ConsistencyLevel::Eventual,
        ConsistencyLevel::Release,
        ConsistencyLevel::Causal,
        ConsistencyLevel::Sequential,
        ConsistencyLevel::Linearizable,
    ])
}

proptest! {
    /// Strong levels (sequential, linearizable) never serve a stale
    /// read, for any interleaving and any replication factor.
    #[test]
    fn strong_levels_never_stale(
        ops in prop::collection::vec(arb_op(), 1..200),
        replication in 1u32..6,
        strong in prop::sample::select(vec![
            ConsistencyLevel::Sequential,
            ConsistencyLevel::Linearizable,
        ]),
    ) {
        let mut s = ReplicatedStore::new(replication, strong, ReplicationParams::default()).unwrap();
        for op in ops {
            match op {
                StoreOp::Write(k, v) => { s.write(&format!("k{k}"), &[v]); }
                StoreOp::Read(k) => {
                    let r = s.read(&format!("k{k}"));
                    prop_assert_eq!(r.staleness, 0);
                }
                StoreOp::Propagate => s.propagate(),
                StoreOp::Release => { s.release(); }
            }
        }
        prop_assert_eq!(s.stats().stale_reads, 0);
    }

    /// Under every level, a read after `propagate` (and `release`)
    /// returns the last written value — convergence.
    #[test]
    fn all_levels_converge(
        writes in prop::collection::vec((any::<u8>(), any::<u8>()), 1..50),
        replication in 1u32..5,
        level in level_strategy(),
    ) {
        let mut s = ReplicatedStore::new(replication, level, ReplicationParams::default()).unwrap();
        let mut model: BTreeMap<String, u8> = BTreeMap::new();
        for (k, v) in writes {
            let key = format!("k{}", k % 8);
            s.write(&key, &[v]);
            model.insert(key, v);
        }
        s.release();
        s.propagate();
        for (key, v) in model {
            // Every replica is converged; any read observes the model.
            for _ in 0..replication {
                let r = s.read(&key);
                prop_assert_eq!(r.value.clone(), Some(vec![v]), "key {} level {:?}", key, level);
                prop_assert_eq!(r.staleness, 0);
            }
        }
    }

    /// Versions are monotone at every replica: propagation never moves a
    /// replica backwards.
    #[test]
    fn replica_versions_monotone(
        ops in prop::collection::vec(arb_op(), 1..150),
        replication in 2u32..5,
    ) {
        let mut s = ReplicatedStore::new(
            replication,
            ConsistencyLevel::Eventual,
            ReplicationParams::default(),
        ).unwrap();
        let mut seen: BTreeMap<(usize, String), u64> = BTreeMap::new();
        for op in ops {
            match op {
                StoreOp::Write(k, v) => { s.write(&format!("k{k}"), &[v]); }
                StoreOp::Read(k) => { s.read(&format!("k{k}")); }
                StoreOp::Propagate => s.propagate(),
                StoreOp::Release => { s.release(); }
            }
            for r in 0..replication as usize {
                for k in 0..8u8 {
                    let key = format!("k{k}");
                    if let Some(ver) = s.version_at(r, &key) {
                        let prev = seen.entry((r, key)).or_insert(0);
                        prop_assert!(ver >= *prev, "replica {r} went backwards");
                        *prev = ver;
                    }
                }
            }
        }
    }

    /// Rebuilding a failed replica restores it to exactly the primary's
    /// contents.
    #[test]
    fn rebuild_restores_primary_view(
        writes in prop::collection::vec((any::<u8>(), any::<u8>()), 1..40),
    ) {
        let mut s = ReplicatedStore::new(
            3,
            ConsistencyLevel::Linearizable,
            ReplicationParams::default(),
        ).unwrap();
        for (k, v) in &writes {
            s.write(&format!("k{}", k % 8), &[*v]);
        }
        s.fail_replica(2).unwrap();
        s.rebuild_replica(2).unwrap();
        for k in 0..8u8 {
            let key = format!("k{k}");
            prop_assert_eq!(s.version_at(2, &key), s.version_at(0, &key));
        }
    }
}

/// A module's checkpoint cadence: `None`, `Some(0)` (never checkpoints)
/// or every 1..=20 messages.
fn cadence() -> impl Strategy<Value = Option<u64>> {
    (0u8..22).prop_map(|c| c.checked_sub(1).map(u64::from))
}

/// What one module's seedings add up to, in closed form.
#[derive(Default)]
struct Reference {
    /// Messages in its whole stream.
    messages: u64,
    /// The sum of its values: `n(n+1)/2` per seeding.
    state: u64,
    /// Its newest checkpoint as `(seq, message count)`.
    checkpoint: Option<(u64, u64)>,
    /// Each seeding as `(seq before its first message, messages)`.
    seedings: Vec<(u64, u64)>,
}

impl Reference {
    /// What recovery must report: the checkpoint when there is one,
    /// initial state otherwise, and every message past it replayed.
    fn outcome(&self) -> RecoveryOutcome {
        let (strategy, (from_seq, count)) = match self.checkpoint {
            Some(cp) => (RecoveryStrategy::FromCheckpoint, cp),
            None => (RecoveryStrategy::Reexecute, (0, 0)),
        };
        RecoveryOutcome {
            strategy,
            replayed: (self.messages - count) as usize,
            from_seq,
        }
    }

    /// The `(seq, value)` entries past the checkpoint: value `v` of a
    /// seeding sits at seq `base + v`.
    fn retained(&self) -> Vec<(u64, u64)> {
        let from = self.checkpoint.map_or(0, |cp| cp.0);
        self.seedings
            .iter()
            .flat_map(|&(base, n)| (1..=n).map(move |v| (base + v, v)))
            .filter(|&(seq, _)| seq > from)
            .collect()
    }
}

proptest! {
    /// The log holds exactly what the seedings wrote, in closed form.
    /// Modules repeat and each seeding draws its own cadence. After
    /// every seeding: seqs run on across modules, each module's
    /// retained entries are the messages past its own newest checkpoint
    /// in seq order, and the entries dropped are the messages its
    /// checkpoints cover. At the end, each module recovers under both
    /// strategies to the sum of its seedings.
    #[test]
    fn the_log_holds_what_each_seeding_wrote(
        seeds in prop::collection::vec((0u8..6, 0u64..=64, cadence()), 1..=8),
    ) {
        let mut model = RecoveryModel::new();
        let mut refs: BTreeMap<ModuleId, Reference> = BTreeMap::new();
        let mut last_seq = 0;
        for (name, n, every) in seeds {
            let module = ModuleId::from(format!("M{name}").as_str());
            model.seed_workload(&module, n, every);
            let r = refs.entry(module).or_default();
            let end = r.messages + n;
            // The newest message count of this seeding the cadence divides.
            let newest = every
                .filter(|&e| e > 0)
                .and_then(|e| (r.messages + 1..=end).rev().find(|k| k % e == 0));
            if let Some(k) = newest {
                r.checkpoint = Some((last_seq + k - r.messages, k));
            }
            r.seedings.push((last_seq, n));
            r.messages = end;
            r.state += n * (n + 1) / 2;
            last_seq += n;

            let logged: Vec<_> = model.entries().map(|(m, seq, v)| (m.clone(), seq, v)).collect();
            let expected: Vec<_> = refs
                .iter()
                .flat_map(|(m, r)| r.retained().into_iter().map(move |(seq, v)| (m.clone(), seq, v)))
                .collect();
            prop_assert_eq!(logged, expected);
            let covered: u64 = refs.values().map(|r| r.checkpoint.map_or(0, |cp| cp.1)).sum();
            prop_assert_eq!(model.log_len() as u64, last_seq - covered);
            for (m, r) in &refs {
                prop_assert_eq!(model.expected_state(m), Some(r.state));
            }
        }
        for (m, r) in &refs {
            for strategy in [RecoveryStrategy::Reexecute, RecoveryStrategy::FromCheckpoint] {
                prop_assert_eq!(model.recover_module(m, strategy), Some(r.outcome()));
                prop_assert_eq!(model.recovered_state(m), Some(r.state));
            }
        }
    }

    /// Checkpoint recovery is equivalent to full re-execution. Several
    /// modules, each with its own cadence, are seeded in random order
    /// (some more than once); then each recovers under both strategies
    /// and must reach the state a full re-execution of its whole stream
    /// folds to. A checkpointed stream restores whichever strategy is
    /// asked for, replaying exactly the messages past its last
    /// checkpoint; one that never checkpointed re-executes its whole
    /// stream. Either way, the replay is every retained entry past the
    /// reported restore point.
    #[test]
    fn recovery_matches_full_reexecution(
        cadences in prop::collection::vec(cadence(), 1..=5),
        seeds in prop::collection::vec((0usize..5, 0u64..=64), 1..=10),
    ) {
        let mut model = RecoveryModel::new();
        // Per module: (messages in its whole stream, its fold).
        let mut streams: BTreeMap<usize, (u64, u64)> = BTreeMap::new();
        for (m, messages) in seeds {
            let m = m % cadences.len();
            model.seed_workload(&ModuleId::from(format!("M{m}").as_str()), messages, cadences[m]);
            let (total, state) = streams.entry(m).or_default();
            *total += messages;
            *state += messages * (messages + 1) / 2;
        }
        for (&m, &(total, state)) in &streams {
            let module = ModuleId::from(format!("M{m}").as_str());
            let past_checkpoint = match cadences[m] {
                Some(every) if every > 0 => total % every,
                _ => total,
            };
            let applied = if past_checkpoint < total {
                RecoveryStrategy::FromCheckpoint
            } else {
                RecoveryStrategy::Reexecute
            };
            for strategy in [RecoveryStrategy::Reexecute, RecoveryStrategy::FromCheckpoint] {
                let out = model.recover_module(&module, strategy).expect("seeded");
                prop_assert_eq!(out.strategy, applied);
                prop_assert_eq!(model.expected_state(&module), Some(state));
                prop_assert_eq!(model.recovered_state(&module), Some(state));
                prop_assert_eq!(out.replayed as u64, past_checkpoint);
                let retained = model
                    .entries()
                    .filter(|&(id, seq, _)| *id == module && seq > out.from_seq)
                    .count();
                prop_assert_eq!(out.replayed, retained);
            }
        }
    }
}
