//! Checkpoint/replay recovery versus re-execution (§3.4, Table 1's
//! "Checkpoint" column).
//!
//! "They can also define how failures are handled for each domain
//! (e.g., whether to re-execute a module or recover from a user-defined
//! checkpoint)." Recovery from a checkpoint restores the last snapshot
//! and replays the logged message suffix; re-execution replays the full
//! log from scratch. Experiment E9 sweeps checkpoint intervals against
//! module runtimes.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use udc_actor::{Actor, ActorId, Ctx, Message, MessageLog};

/// One stored checkpoint.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// The actor this snapshot belongs to.
    pub actor: ActorId,
    /// Sequence number of the last message folded into the snapshot.
    pub seq: u64,
    /// Opaque snapshot bytes (from [`Actor::snapshot`]).
    pub state: Vec<u8>,
}

/// Durable checkpoint storage, keyed by actor. Keeps only the newest
/// checkpoint per actor (the paper's model needs no history).
#[derive(Debug, Clone, Default)]
pub struct CheckpointStore {
    latest: BTreeMap<ActorId, Checkpoint>,
}

impl CheckpointStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Saves a checkpoint taken from `actor` at message `seq`.
    pub fn save(&mut self, actor: &ActorId, seq: u64, state: Vec<u8>) {
        self.latest.insert(
            actor.clone(),
            Checkpoint {
                actor: actor.clone(),
                seq,
                state,
            },
        );
    }

    /// The newest checkpoint for `actor`.
    pub fn latest(&self, actor: &ActorId) -> Option<&Checkpoint> {
        self.latest.get(actor)
    }

    /// Number of actors with checkpoints.
    pub fn len(&self) -> usize {
        self.latest.len()
    }

    /// True when no checkpoints exist.
    pub fn is_empty(&self) -> bool {
        self.latest.is_empty()
    }
}

/// The highest log sequence that is safe to truncate once every actor
/// in `required` can recover without it: the minimum checkpoint seq
/// across the required set (each actor only replays messages *after*
/// its checkpoint, so nothing at or before the minimum is ever needed
/// again). `None` when the set is empty or any required actor lacks a
/// checkpoint — re-execution domains need the full history retained.
pub fn safe_truncation_seq<'a>(
    store: &CheckpointStore,
    required: impl IntoIterator<Item = &'a ActorId>,
) -> Option<u64> {
    let mut min: Option<u64> = None;
    for id in required {
        match store.latest(id) {
            Some(cp) => min = Some(min.map_or(cp.seq, |m| m.min(cp.seq))),
            None => return None,
        }
    }
    min
}

/// The user-selected recovery strategy for a failure domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecoveryStrategy {
    /// Replay the entire message history from initial state.
    Reexecute,
    /// Restore the latest checkpoint and replay only the suffix.
    FromCheckpoint,
}

/// What recovery did and what it cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// Strategy applied (FromCheckpoint silently degrades to Reexecute
    /// when no checkpoint exists).
    pub strategy: RecoveryStrategy,
    /// Messages replayed.
    pub replayed: usize,
    /// Sequence the state was restored from (0 = initial state).
    pub from_seq: u64,
}

/// Recovers `actor` (assumed freshly failed) using `strategy`.
///
/// The actor is reset (and optionally restored from its checkpoint),
/// then the relevant suffix of the reliable message log is replayed.
/// Messages the actor emits during replay are discarded — their effects
/// were already delivered before the crash (output-dedup as in
/// log-based recovery systems).
pub fn recover(
    id: &ActorId,
    actor: &mut dyn Actor,
    log: &MessageLog,
    checkpoints: &CheckpointStore,
    strategy: RecoveryStrategy,
) -> RecoveryOutcome {
    let (from_seq, effective) = match strategy {
        RecoveryStrategy::Reexecute => (0, RecoveryStrategy::Reexecute),
        RecoveryStrategy::FromCheckpoint => match checkpoints.latest(id) {
            Some(cp) => (cp.seq, RecoveryStrategy::FromCheckpoint),
            None => (0, RecoveryStrategy::Reexecute),
        },
    };
    actor.reset();
    if effective == RecoveryStrategy::FromCheckpoint {
        let cp = checkpoints.latest(id).expect("checked above");
        actor.restore(&cp.state);
    }
    let suffix: Vec<Message> = log.replay_for(id, from_seq);
    let replayed = suffix.len();
    for msg in &suffix {
        let mut ctx = Ctx::default();
        // Replay failures are ignored: the message already succeeded
        // once pre-crash, so a deterministic actor cannot fail here.
        let _ = actor.on_message(&mut ctx, msg);
    }
    RecoveryOutcome {
        strategy: effective,
        replayed,
        from_seq,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use udc_actor::{ActorError, SupervisionPolicy, System};

    /// An accumulator actor: state = sum of payload bytes interpreted as
    /// u64 (little helper with deterministic, checkpointable state).
    #[derive(Default)]
    struct Acc {
        sum: u64,
    }

    impl Actor for Acc {
        fn on_message(&mut self, _ctx: &mut Ctx, msg: &Message) -> Result<(), ActorError> {
            let mut b = [0u8; 8];
            b[..msg.payload.len().min(8)].copy_from_slice(&msg.payload[..msg.payload.len().min(8)]);
            self.sum = self.sum.wrapping_add(u64::from_le_bytes(b));
            Ok(())
        }

        fn reset(&mut self) {
            self.sum = 0;
        }

        fn snapshot(&self) -> Vec<u8> {
            self.sum.to_le_bytes().to_vec()
        }

        fn restore(&mut self, snapshot: &[u8]) {
            let mut b = [0u8; 8];
            b.copy_from_slice(snapshot);
            self.sum = u64::from_le_bytes(b);
        }
    }

    fn run_workload(n: u64) -> (System, ActorId) {
        let mut sys = System::new();
        let id = ActorId::new("acc");
        sys.spawn(
            id.clone(),
            Box::<Acc>::default(),
            SupervisionPolicy::Restart,
        );
        for i in 1..=n {
            sys.inject(id.clone(), Bytes::copy_from_slice(&i.to_le_bytes()));
        }
        sys.run_until_quiescent(10_000);
        (sys, id)
    }

    #[test]
    fn reexecute_replays_everything() {
        let (sys, id) = run_workload(10);
        let mut fresh = Acc::default();
        let out = recover(
            &id,
            &mut fresh,
            sys.log(),
            &CheckpointStore::new(),
            RecoveryStrategy::Reexecute,
        );
        assert_eq!(out.replayed, 10);
        assert_eq!(out.from_seq, 0);
        assert_eq!(fresh.sum, 55);
    }

    #[test]
    fn checkpoint_recovery_replays_suffix_only() {
        let (sys, id) = run_workload(10);
        // Take a checkpoint as of message 7: state = 1+..+7 = 28.
        let mut cps = CheckpointStore::new();
        let seq7 = sys.log().entries()[6].seq;
        cps.save(&id, seq7, 28u64.to_le_bytes().to_vec());

        let mut fresh = Acc::default();
        let out = recover(
            &id,
            &mut fresh,
            sys.log(),
            &cps,
            RecoveryStrategy::FromCheckpoint,
        );
        assert_eq!(out.strategy, RecoveryStrategy::FromCheckpoint);
        assert_eq!(out.replayed, 3, "only messages 8..=10");
        assert_eq!(fresh.sum, 55, "recovered state matches full history");
    }

    #[test]
    fn checkpoint_recovery_degrades_without_checkpoint() {
        let (sys, id) = run_workload(5);
        let mut fresh = Acc::default();
        let out = recover(
            &id,
            &mut fresh,
            sys.log(),
            &CheckpointStore::new(),
            RecoveryStrategy::FromCheckpoint,
        );
        assert_eq!(out.strategy, RecoveryStrategy::Reexecute);
        assert_eq!(fresh.sum, 15);
    }

    #[test]
    fn newer_checkpoint_replaces_older() {
        let mut cps = CheckpointStore::new();
        let id = ActorId::new("a");
        cps.save(&id, 5, vec![1]);
        cps.save(&id, 9, vec![2]);
        assert_eq!(cps.len(), 1);
        assert_eq!(cps.latest(&id).unwrap().seq, 9);
    }

    #[test]
    fn recovery_isolated_per_actor() {
        // Two actors; recovering one must not replay the other's messages.
        let mut sys = System::new();
        let a = ActorId::new("a");
        let b = ActorId::new("b");
        sys.spawn(a.clone(), Box::<Acc>::default(), SupervisionPolicy::Restart);
        sys.spawn(b.clone(), Box::<Acc>::default(), SupervisionPolicy::Restart);
        sys.inject(a.clone(), Bytes::copy_from_slice(&1u64.to_le_bytes()));
        sys.inject(b.clone(), Bytes::copy_from_slice(&100u64.to_le_bytes()));
        sys.run_until_quiescent(100);
        let mut fresh = Acc::default();
        let out = recover(
            &a,
            &mut fresh,
            sys.log(),
            &CheckpointStore::new(),
            RecoveryStrategy::Reexecute,
        );
        assert_eq!(out.replayed, 1);
        assert_eq!(fresh.sum, 1);
    }

    #[test]
    fn safe_truncation_is_min_checkpoint_seq() {
        let mut cps = CheckpointStore::new();
        let a = ActorId::new("a");
        let b = ActorId::new("b");
        cps.save(&a, 7, vec![]);
        cps.save(&b, 4, vec![]);
        assert_eq!(safe_truncation_seq(&cps, [&a, &b]), Some(4));
        assert_eq!(safe_truncation_seq(&cps, [&a]), Some(7));
    }

    #[test]
    fn safe_truncation_blocked_by_uncheckpointed_actor() {
        let mut cps = CheckpointStore::new();
        let a = ActorId::new("a");
        let b = ActorId::new("b");
        cps.save(&a, 7, vec![]);
        // `b` has no checkpoint (e.g. a Reexecute domain): the full log
        // must be retained, so no truncation point exists.
        assert_eq!(safe_truncation_seq(&cps, [&a, &b]), None);
        // An empty required set also yields no truncation point.
        assert_eq!(safe_truncation_seq(&cps, []), None);
    }

    #[test]
    fn truncated_log_still_recovers_from_checkpoint() {
        let (mut sys, id) = run_workload(10);
        let mut cps = CheckpointStore::new();
        let seq7 = sys.log().entries()[6].seq;
        cps.save(&id, seq7, 28u64.to_le_bytes().to_vec());

        let cut = safe_truncation_seq(&cps, [&id]).unwrap();
        sys.truncate_log_through(cut);
        assert_eq!(sys.log().len(), 3, "only the suffix is retained");

        let mut fresh = Acc::default();
        let out = recover(
            &id,
            &mut fresh,
            sys.log(),
            &cps,
            RecoveryStrategy::FromCheckpoint,
        );
        assert_eq!(out.replayed, 3);
        assert_eq!(fresh.sum, 55, "recovery unaffected by truncation");
    }

    #[test]
    fn checkpoint_saves_replay_cost() {
        let (sys, id) = run_workload(1000);
        let mut cps = CheckpointStore::new();
        let seq990 = sys.log().entries()[989].seq;
        let sum990: u64 = (1..=990).sum();
        cps.save(&id, seq990, sum990.to_le_bytes().to_vec());

        let mut a = Acc::default();
        let full = recover(&id, &mut a, sys.log(), &cps, RecoveryStrategy::Reexecute);
        let mut b = Acc::default();
        let fast = recover(
            &id,
            &mut b,
            sys.log(),
            &cps,
            RecoveryStrategy::FromCheckpoint,
        );
        assert_eq!(a.sum, b.sum);
        assert!(fast.replayed * 50 < full.replayed, "{fast:?} vs {full:?}");
    }
}
