//! Property tests for distributed semantics: consistency guarantees hold
//! under arbitrary operation interleavings, and checkpoint recovery is
//! equivalent to full re-execution.

use proptest::prelude::*;
use std::collections::BTreeMap;
use udc_dist::{RecoveryModel, RecoveryStrategy, ReplicatedStore, ReplicationParams};
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

proptest! {
    /// Checkpoint recovery is equivalent to full re-execution. Several
    /// modules, each with its own cadence, are seeded in random order
    /// (some more than once); then each recovers with its own strategy
    /// and must reach the state a full re-execution of its whole stream
    /// folds to, replaying exactly the messages past its last checkpoint
    /// (its whole stream when it never checkpointed). Compaction must
    /// have kept every entry past each module's restore point.
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
            let strategy = match cadences[m] {
                None => RecoveryStrategy::Reexecute,
                Some(_) => RecoveryStrategy::FromCheckpoint,
            };
            let out = model.recover_module(&module, strategy).expect("seeded");
            prop_assert_eq!(model.expected_state(&module), Some(state));
            prop_assert_eq!(model.recovered_state(&module), Some(state));
            let past_checkpoint = match cadences[m] {
                Some(every) if every > 0 => total % every,
                _ => total,
            };
            prop_assert_eq!(out.replayed as u64, past_checkpoint);
            let retained = model
                .entries()
                .filter(|&(id, seq, _)| *id == module && seq > out.from_seq)
                .count();
            prop_assert_eq!(retained as u64, past_checkpoint);
        }
    }
}
