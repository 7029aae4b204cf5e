//! The reliable recovery log: re-execution versus user-defined
//! checkpoints (§3.1, §3.4, Table 1's "Checkpoint" column).
//!
//! "Messages could be reliably recorded for faster recovery", and users
//! "define how failures are handled for each domain (e.g., whether to
//! re-execute a module or recover from a user-defined checkpoint)".
//! Each module's messages live in its own stream of `(seq, value)`
//! entries, with seqs numbered across modules. Recovery from a
//! checkpoint restores the newest snapshot and folds the logged suffix
//! past it; re-execution folds the retained stream from initial state.
//! `udc-core`'s repair loop recovers with the module's spec'd strategy;
//! experiment E9 sweeps checkpoint cadences against stream lengths.

use std::collections::BTreeMap;
use udc_spec::{AppSpec, FailureHandling, ModuleId};

/// The user-selected recovery strategy for a failure domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// The module fold: each message's value is added, wrapping, to the
/// state.
fn absorb(state: u64, value: u64) -> u64 {
    state.wrapping_add(value)
}

/// One module's part of the log.
#[derive(Debug, Default)]
struct Stream {
    /// Retained `(seq, value)` entries, seqs ascending.
    log: Vec<(u64, u64)>,
    /// The newest checkpoint: the seq of the last message folded into
    /// it, and the state it holds.
    checkpoint: Option<(u64, u64)>,
    /// The module's state after its whole stream.
    state: u64,
    /// Messages in its whole stream (the checkpoint cadence counts
    /// them).
    messages: u64,
    /// The state the last recovery reconstructed.
    recovered: Option<u64>,
}

impl Stream {
    /// Folds the retained entries past the restore point: the newest
    /// checkpoint under `FromCheckpoint`, initial state otherwise or
    /// when no checkpoint exists.
    fn recover(&self, strategy: RecoveryStrategy) -> (RecoveryOutcome, u64) {
        let (strategy, (from_seq, state)) = match (strategy, self.checkpoint) {
            (RecoveryStrategy::FromCheckpoint, Some(cp)) => (RecoveryStrategy::FromCheckpoint, cp),
            _ => (RecoveryStrategy::Reexecute, (0, 0)),
        };
        let suffix = &self.log[self.log.partition_point(|&(seq, _)| seq <= from_seq)..];
        let state = suffix.iter().fold(state, |s, &(_, value)| absorb(s, value));
        let out = RecoveryOutcome {
            strategy,
            replayed: suffix.len(),
            from_seq,
        };
        (out, state)
    }
}

/// Per-deployment recoverable state: each module's logged stream and
/// its newest checkpoint. The harness seeds each module's workload;
/// `udc-core`'s repair loop recovers it after a crash with the module's
/// spec'd strategy.
#[derive(Debug, Default)]
pub struct RecoveryModel {
    streams: BTreeMap<ModuleId, Stream>,
    /// The last sequence number written: seqs run on across modules, as
    /// one executor delivering every stream would number them.
    last_seq: u64,
}

impl RecoveryModel {
    /// An empty model (modules recover with zero replay).
    pub fn new() -> Self {
        Self::default()
    }

    /// Seeds `module` with a processed stream of `messages` messages
    /// (values `1..=messages`), checkpointing every `checkpoint_every`
    /// messages when given. The stream lives in the log, so recovery
    /// can replay it.
    pub fn seed_workload(
        &mut self,
        module: &ModuleId,
        messages: u64,
        checkpoint_every: Option<u64>,
    ) {
        // A module seeded before continues its fold and its checkpoint
        // count from where they stood: the log may no longer hold the
        // prefix they cover.
        let stream = self.streams.entry(module.clone()).or_default();
        stream.log.reserve(messages as usize);
        for value in 1..=messages {
            self.last_seq += 1;
            stream.state = absorb(stream.state, value);
            stream.messages += 1;
            if checkpoint_every
                .is_some_and(|every| every > 0 && stream.messages.is_multiple_of(every))
            {
                stream.checkpoint = Some((self.last_seq, stream.state));
            }
            stream.log.push((self.last_seq, value));
        }
        // Checkpoints just advanced for this module: drop whatever log
        // prefix recovery can no longer need. Long-running deployments
        // would otherwise grow the log without bound.
        self.compact();
    }

    /// The highest seq no recovery needs again: the oldest checkpoint,
    /// since each module replays only past its own. `None` when no
    /// module is seeded or one lacks a checkpoint — re-execution needs
    /// its full history.
    fn safe_truncation_seq(&self) -> Option<u64> {
        self.streams
            .values()
            .map(|s| s.checkpoint.map(|(seq, _)| seq))
            .min()
            .flatten()
    }

    /// Truncates the log through the oldest checkpoint, provided
    /// *every* seeded module is checkpointed — one re-execution module
    /// pins the full history, because its recovery replays from
    /// sequence zero. Returns the entries dropped.
    pub fn compact(&mut self) -> usize {
        let Some(cut) = self.safe_truncation_seq() else {
            return 0;
        };
        self.streams
            .values_mut()
            .map(|s| {
                let k = s.log.partition_point(|&(seq, _)| seq <= cut);
                s.log.drain(..k);
                k
            })
            .sum()
    }

    /// Entries currently retained in the log.
    pub fn log_len(&self) -> usize {
        self.streams.values().map(|s| s.log.len()).sum()
    }

    /// The retained log as `(module, seq, value)` entries, module by
    /// module, seqs ascending within each.
    pub fn entries(&self) -> impl Iterator<Item = (&ModuleId, u64, u64)> {
        self.streams
            .iter()
            .flat_map(|(m, s)| s.log.iter().map(move |&(seq, value)| (m, seq, value)))
    }

    /// Seeds every module of `app` with `messages_per_module` messages,
    /// deriving the checkpoint cadence from each module's failure
    /// aspect (one message models one millisecond of work, so
    /// `Checkpoint { interval_ms }` checkpoints every `interval_ms`
    /// messages).
    pub fn seed_app(&mut self, app: &AppSpec, messages_per_module: u64) {
        for m in app.iter_modules() {
            let every = match m.dist.failure.unwrap_or_default() {
                FailureHandling::Reexecute => None,
                FailureHandling::Checkpoint { interval_ms } => Some(interval_ms),
            };
            self.seed_workload(&m.id, messages_per_module, every);
        }
    }

    /// Recovers `module`'s state into a fresh instance using
    /// `strategy`. Returns `None` when the module was never seeded.
    pub fn recover_module(
        &mut self,
        module: &ModuleId,
        strategy: RecoveryStrategy,
    ) -> Option<RecoveryOutcome> {
        let stream = self.streams.get_mut(module)?;
        let (out, state) = stream.recover(strategy);
        stream.recovered = Some(state);
        Some(out)
    }

    /// The state the module held before the crash (seeded workloads).
    pub fn expected_state(&self, module: &ModuleId) -> Option<u64> {
        self.streams.get(module).map(|s| s.state)
    }

    /// The state the last recovery reconstructed.
    pub fn recovered_state(&self, module: &ModuleId) -> Option<u64> {
        self.streams.get(module).and_then(|s| s.recovered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexecute_replays_everything() {
        let id = ModuleId::from("acc");
        let mut model = RecoveryModel::new();
        model.seed_workload(&id, 10, None);
        let out = model
            .recover_module(&id, RecoveryStrategy::Reexecute)
            .unwrap();
        assert_eq!(out.replayed, 10);
        assert_eq!(out.from_seq, 0);
        assert_eq!(model.recovered_state(&id), Some(55));
    }

    #[test]
    fn checkpoint_recovery_replays_suffix_only() {
        let id = ModuleId::from("acc");
        let mut model = RecoveryModel::new();
        // A checkpoint as of message 7: state = 1+..+7 = 28.
        model.seed_workload(&id, 10, Some(7));
        let out = model
            .recover_module(&id, RecoveryStrategy::FromCheckpoint)
            .unwrap();
        assert_eq!(out.strategy, RecoveryStrategy::FromCheckpoint);
        assert_eq!(out.from_seq, 7);
        assert_eq!(out.replayed, 3, "only messages 8..=10");
        assert_eq!(model.recovered_state(&id), Some(55));
    }

    #[test]
    fn checkpoint_recovery_degrades_without_checkpoint() {
        let id = ModuleId::from("acc");
        let mut model = RecoveryModel::new();
        model.seed_workload(&id, 5, Some(10));
        let out = model
            .recover_module(&id, RecoveryStrategy::FromCheckpoint)
            .unwrap();
        assert_eq!(out.strategy, RecoveryStrategy::Reexecute);
        assert_eq!(out.replayed, 5);
        assert_eq!(model.recovered_state(&id), Some(15));
        assert_eq!(
            model.recover_module(&ModuleId::from("never"), out.strategy),
            None
        );
    }

    #[test]
    fn recovery_isolated_per_module() {
        // Recovering one module must not replay the other's messages.
        let a = ModuleId::from("a");
        let b = ModuleId::from("b");
        let mut model = RecoveryModel::new();
        model.seed_workload(&a, 1, None);
        model.seed_workload(&b, 100, None);
        let out = model
            .recover_module(&a, RecoveryStrategy::Reexecute)
            .unwrap();
        assert_eq!(out.replayed, 1);
        assert_eq!(model.recovered_state(&a), Some(1));
        assert_eq!(model.recovered_state(&b), None, "b was not recovered");
    }

    #[test]
    fn newer_checkpoint_replaces_older() {
        let id = ModuleId::from("a");
        let mut model = RecoveryModel::new();
        model.seed_workload(&id, 5, Some(5));
        assert_eq!(model.streams[&id].checkpoint, Some((5, 15)));
        // Messages 6..=9 continue the count: message 9 checkpoints.
        model.seed_workload(&id, 4, Some(9));
        assert_eq!(model.streams[&id].checkpoint, Some((9, 25)));
        assert_eq!(model.safe_truncation_seq(), Some(9));
    }

    #[test]
    fn safe_truncation_is_min_checkpoint_seq() {
        let a = ModuleId::from("a");
        let b = ModuleId::from("b");
        let mut model = RecoveryModel::new();
        model.seed_workload(&b, 4, Some(4)); // checkpoint at seq 4
        assert_eq!(model.safe_truncation_seq(), Some(4));
        model.seed_workload(&a, 7, Some(7)); // checkpoint at seq 11
        assert_eq!(model.safe_truncation_seq(), Some(4));
        let mut alone = RecoveryModel::new();
        alone.seed_workload(&a, 7, Some(7));
        assert_eq!(alone.safe_truncation_seq(), Some(7));
    }

    #[test]
    fn safe_truncation_blocked_by_uncheckpointed_actor() {
        let a = ModuleId::from("a");
        let b = ModuleId::from("b");
        let mut model = RecoveryModel::new();
        // An empty model yields no truncation point.
        assert_eq!(model.safe_truncation_seq(), None);
        model.seed_workload(&a, 7, Some(7));
        // `b` has no checkpoint (a Reexecute domain): its history must
        // be retained, so no truncation point exists.
        model.seed_workload(&b, 3, None);
        assert_eq!(model.safe_truncation_seq(), None);
        assert_eq!(model.compact(), 0);
        assert_eq!(model.log_len(), 3, "a's prefix went before b came");
    }

    #[test]
    fn truncated_log_still_recovers_from_checkpoint() {
        let id = ModuleId::from("acc");
        let mut model = RecoveryModel::new();
        model.seed_workload(&id, 10, Some(7));
        assert_eq!(model.streams[&id].checkpoint, Some((7, 28)));
        assert_eq!(model.log_len(), 3, "only the suffix is retained");
        let out = model
            .recover_module(&id, RecoveryStrategy::FromCheckpoint)
            .unwrap();
        assert_eq!(out.replayed, 3);
        assert_eq!(
            model.recovered_state(&id),
            Some(55),
            "recovery unaffected by truncation"
        );
    }

    #[test]
    fn checkpoint_saves_replay_cost() {
        // Seeding compacts, so each strategy gets its own model: a
        // checkpointed log no longer holds the prefix re-execution needs.
        let id = ModuleId::from("acc");
        let mut full = RecoveryModel::new();
        full.seed_workload(&id, 1000, None);
        let mut fast = RecoveryModel::new();
        fast.seed_workload(&id, 1000, Some(990));
        let slow = full
            .recover_module(&id, RecoveryStrategy::Reexecute)
            .unwrap();
        let quick = fast
            .recover_module(&id, RecoveryStrategy::FromCheckpoint)
            .unwrap();
        assert_eq!(full.recovered_state(&id), fast.recovered_state(&id));
        assert!(quick.replayed * 50 < slow.replayed, "{quick:?} vs {slow:?}");
    }

    #[test]
    fn log_compaction_bounds_memory_when_all_modules_checkpoint() {
        let a = ModuleId::from("A");
        let b = ModuleId::from("B");
        let mut model = RecoveryModel::new();
        assert_eq!(model.compact(), 0, "nothing seeded: no truncation point");
        model.seed_workload(&a, 100, Some(10));
        // A's last checkpoint covers its whole stream: nothing retained.
        assert_eq!(model.log_len(), 0);
        model.seed_workload(&b, 60, Some(20));
        // The truncation point is the *oldest* checkpoint (A's), so B's
        // later stream is retained; memory stays bounded by the suffix
        // past the oldest checkpoint rather than growing with history.
        assert_eq!(model.log_len(), 60);
        // Recovery is unaffected by the dropped prefix.
        for id in [&a, &b] {
            let out = model
                .recover_module(id, RecoveryStrategy::FromCheckpoint)
                .unwrap();
            assert_eq!(out.strategy, RecoveryStrategy::FromCheckpoint);
            assert_eq!(out.replayed, 0, "fully checkpointed: no suffix");
            assert_eq!(model.recovered_state(id), model.expected_state(id));
        }
    }

    #[test]
    fn uncheckpointed_module_pins_the_full_log() {
        let a = ModuleId::from("A");
        let b = ModuleId::from("B");
        let mut model = RecoveryModel::new();
        model.seed_workload(&a, 50, None); // re-execution: replays seq 0
        model.seed_workload(&b, 50, Some(10));
        assert_eq!(model.compact(), 0, "A's history must be kept");
        assert_eq!(model.log_len(), 100);
        let out = model
            .recover_module(&a, RecoveryStrategy::Reexecute)
            .unwrap();
        assert_eq!(out.replayed, 50);
        assert_eq!(model.recovered_state(&a), model.expected_state(&a));
    }

    #[test]
    fn compaction_keeps_replay_suffix_past_last_checkpoint() {
        let a = ModuleId::from("A");
        let mut model = RecoveryModel::new();
        model.seed_workload(&a, 25, Some(10));
        // Checkpoints at messages 10 and 20: the newer replaces the
        // older, and only the 5-message suffix past it survives
        // compaction.
        assert_eq!(model.log_len(), 5);
        let out = model
            .recover_module(&a, RecoveryStrategy::FromCheckpoint)
            .unwrap();
        assert_eq!(out.from_seq, 20);
        assert_eq!(out.replayed, 5);
        assert_eq!(model.recovered_state(&a), model.expected_state(&a));
    }

    #[test]
    fn a_module_seeded_twice_keeps_its_compacted_prefix() {
        let a = ModuleId::from("A");
        let mut model = RecoveryModel::new();
        model.seed_workload(&a, 25, Some(10));
        model.seed_workload(&a, 5, Some(10));
        // 1 + … + 25, then 1 + … + 5: the first stream's compacted
        // prefix still counts, and message 30 is a checkpoint.
        assert_eq!(model.expected_state(&a), Some(325 + 15));
        assert_eq!(model.log_len(), 0, "checkpointed through message 30");
        let out = model
            .recover_module(&a, RecoveryStrategy::FromCheckpoint)
            .unwrap();
        assert_eq!(out.replayed, 0);
        assert_eq!(model.recovered_state(&a), Some(340));
    }
}
