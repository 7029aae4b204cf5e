//! The reliable recovery log: re-execution versus user-defined
//! checkpoints (§3.1, §3.4, Table 1's "Checkpoint" column).
//!
//! "Messages could be reliably recorded for faster recovery", and users
//! "define how failures are handled for each domain (e.g., whether to
//! re-execute a module or recover from a user-defined checkpoint)".
//! Each module's messages live in its own stream of `(seq, value)`
//! entries, with seqs numbered across modules. A stream keeps only the
//! entries past its own newest checkpoint. Recovery restores that
//! checkpoint and folds the suffix; a stream that never checkpointed
//! re-executes its whole history from initial state. `udc-core`'s
//! repair loop recovers each module after a crash; experiment E9 sweeps
//! checkpoint cadences against stream lengths.

use std::collections::BTreeMap;
use udc_spec::{AppSpec, FailureHandling, ModuleId};

/// The user-selected recovery strategy for a failure domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryStrategy {
    /// Replay the module's whole stream from initial state.
    Reexecute,
    /// Restore the newest checkpoint and replay only the suffix.
    FromCheckpoint,
}

/// What recovery did and what it cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// Strategy applied. The stream decides it, not the request: a
    /// checkpointed stream has dropped its prefix, so it restores from
    /// the checkpoint even when re-execution was asked for, and a
    /// stream that never checkpointed re-executes.
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
    /// Retained `(seq, value)` entries: those past the checkpoint, seqs
    /// ascending.
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

/// Per-deployment recoverable state: each module's logged stream and
/// its newest checkpoint. The harness seeds each module's workload;
/// `udc-core`'s repair loop recovers it after a crash.
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
    /// messages when given. The stream truncates through its own newest
    /// checkpoint, so it logs only the messages past it.
    pub fn seed_workload(
        &mut self,
        module: &ModuleId,
        messages: u64,
        checkpoint_every: Option<u64>,
    ) {
        // A module seeded before continues its fold and its checkpoint
        // count from where they stood.
        let stream = self.streams.entry(module.clone()).or_default();
        let (start, end) = (stream.messages, stream.messages + messages);
        // The newest checkpoint this seeding takes, by message count:
        // nothing up to it is logged, and the older suffix goes.
        let cut = checkpoint_every
            .filter(|&every| every > 0)
            .map(|every| end / every * every)
            .filter(|&cut| cut > start);
        if cut.is_some() {
            stream.log.clear();
        }
        let keep_after = cut.unwrap_or(start);
        stream.log.reserve((end - keep_after) as usize);
        for value in 1..=messages {
            self.last_seq += 1;
            stream.state = absorb(stream.state, value);
            stream.messages += 1;
            if Some(stream.messages) == cut {
                stream.checkpoint = Some((self.last_seq, stream.state));
            } else if stream.messages > keep_after {
                stream.log.push((self.last_seq, value));
            }
        }
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

    /// Recovers `module`'s state into a fresh instance: restores its
    /// newest checkpoint and folds the entries past it, or folds its
    /// whole stream from initial state when it never checkpointed.
    /// `_strategy` is the module's spec'd handling; the outcome says
    /// which strategy the stream allowed. Returns `None` when the
    /// module was never seeded.
    pub fn recover_module(
        &mut self,
        module: &ModuleId,
        _strategy: RecoveryStrategy,
    ) -> Option<RecoveryOutcome> {
        let stream = self.streams.get_mut(module)?;
        let (strategy, (from_seq, state)) = match stream.checkpoint {
            Some(cp) => (RecoveryStrategy::FromCheckpoint, cp),
            None => (RecoveryStrategy::Reexecute, (0, 0)),
        };
        let state = stream.log.iter().fold(state, |s, &(_, v)| absorb(s, v));
        stream.recovered = Some(state);
        Some(RecoveryOutcome {
            strategy,
            replayed: stream.log.len(),
            from_seq,
        })
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
        assert_eq!(model.log_len(), 0);
    }

    #[test]
    fn each_stream_truncates_through_its_own_checkpoint() {
        let a = ModuleId::from("a");
        let b = ModuleId::from("b");
        let mut model = RecoveryModel::new();
        model.seed_workload(&b, 4, Some(4)); // checkpoint at seq 4
        assert_eq!(model.log_len(), 0);
        // Messages 1..=7 of a are seqs 5..=11; its checkpoint at
        // message 5 (seq 9) drops its prefix whatever b's stands at.
        model.seed_workload(&a, 7, Some(5));
        let entries: Vec<_> = model
            .entries()
            .map(|(m, seq, v)| (m.clone(), seq, v))
            .collect();
        assert_eq!(entries, vec![(a.clone(), 10, 6), (a, 11, 7)]);
    }

    #[test]
    fn an_uncheckpointed_stream_keeps_its_whole_history() {
        let a = ModuleId::from("a");
        let b = ModuleId::from("b");
        let mut model = RecoveryModel::new();
        assert_eq!(model.log_len(), 0);
        model.seed_workload(&a, 7, Some(7));
        // `b` has no checkpoint (a Reexecute domain): re-execution
        // replays its whole stream, so all of it is retained.
        model.seed_workload(&b, 3, None);
        assert_eq!(model.log_len(), 3);
        assert!(model.entries().all(|(m, _, _)| *m == b));
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
        // Each strategy gets its own model: a checkpointed stream no
        // longer holds the prefix re-execution needs.
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
    fn log_compaction_bounds_memory_per_stream() {
        let a = ModuleId::from("A");
        let b = ModuleId::from("B");
        let mut model = RecoveryModel::new();
        model.seed_workload(&a, 100, Some(10));
        // A's last checkpoint covers its whole stream: nothing retained.
        assert_eq!(model.log_len(), 0);
        model.seed_workload(&b, 60, Some(20));
        // So does B's, although its checkpoint is newer than A's: each
        // stream keeps only the suffix past its own checkpoint.
        assert_eq!(model.log_len(), 0);
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
    fn an_uncheckpointed_module_pins_only_its_own_stream() {
        let a = ModuleId::from("A");
        let b = ModuleId::from("B");
        let mut model = RecoveryModel::new();
        model.seed_workload(&a, 1, None); // re-execution: replays seq 0
        model.seed_workload(&b, 1000, Some(10));
        assert_eq!(model.log_len(), 1, "B needs none of its 1 000 entries");
        let out = model
            .recover_module(&a, RecoveryStrategy::Reexecute)
            .unwrap();
        assert_eq!(out.replayed, 1);
        assert_eq!(model.recovered_state(&a), Some(1));
        let out = model
            .recover_module(&b, RecoveryStrategy::FromCheckpoint)
            .unwrap();
        assert_eq!((out.from_seq, out.replayed), (1001, 0));
        assert_eq!(model.recovered_state(&b), Some(500_500));
    }

    #[test]
    fn reexecution_after_compaction_restores_from_the_checkpoint() {
        let a = ModuleId::from("A");
        let mut model = RecoveryModel::new();
        model.seed_workload(&a, 25, Some(10));
        // Messages 1..=20 are gone: re-execution from seq 0 would fold
        // only 21..=25.
        let out = model
            .recover_module(&a, RecoveryStrategy::Reexecute)
            .unwrap();
        assert_eq!(out.strategy, RecoveryStrategy::FromCheckpoint);
        assert_eq!((out.from_seq, out.replayed), (20, 5));
        assert_eq!(model.recovered_state(&a), Some(325));
    }

    #[test]
    fn a_module_switched_to_reexecute_restores_its_old_checkpoint() {
        let a = ModuleId::from("A");
        let mut model = RecoveryModel::new();
        model.seed_workload(&a, 25, Some(10));
        model.seed_workload(&a, 5, None);
        let out = model
            .recover_module(&a, RecoveryStrategy::Reexecute)
            .unwrap();
        assert_eq!(out.strategy, RecoveryStrategy::FromCheckpoint);
        assert_eq!((out.from_seq, out.replayed), (20, 10));
        assert_eq!(model.recovered_state(&a), Some(325 + 15));
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

    /// Recovers `id` by re-execution and reports the outcome with the
    /// state it reached.
    fn recover(model: &mut RecoveryModel, id: &ModuleId) -> (RecoveryOutcome, Option<u64>) {
        let out = model.recover_module(id, RecoveryStrategy::Reexecute);
        (out.expect("seeded"), model.recovered_state(id))
    }

    fn outcome(strategy: RecoveryStrategy, from_seq: u64, replayed: usize) -> RecoveryOutcome {
        RecoveryOutcome {
            strategy,
            replayed,
            from_seq,
        }
    }

    #[test]
    fn an_unseeded_module_has_no_state() {
        let mut model = RecoveryModel::new();
        let id = ModuleId::from("ghost");
        assert_eq!(model.recover_module(&id, RecoveryStrategy::Reexecute), None);
        assert_eq!(
            (model.expected_state(&id), model.recovered_state(&id)),
            (None, None)
        );
        assert_eq!((model.log_len(), model.entries().count()), (0, 0));
    }

    #[test]
    fn an_empty_seeding_recovers_to_initial_state() {
        let (mut model, id) = (RecoveryModel::new(), ModuleId::from("a"));
        model.seed_workload(&id, 0, Some(1));
        assert_eq!(model.expected_state(&id), Some(0));
        assert_eq!(
            recover(&mut model, &id),
            (outcome(RecoveryStrategy::Reexecute, 0, 0), Some(0))
        );
    }

    #[test]
    fn a_zero_cadence_never_checkpoints() {
        let (mut model, id) = (RecoveryModel::new(), ModuleId::from("a"));
        model.seed_workload(&id, 10, Some(0));
        assert_eq!(model.log_len(), 10);
        assert_eq!(
            recover(&mut model, &id),
            (outcome(RecoveryStrategy::Reexecute, 0, 10), Some(55))
        );
    }

    #[test]
    fn a_cadence_past_the_stream_takes_no_checkpoint() {
        let (mut model, id) = (RecoveryModel::new(), ModuleId::from("a"));
        model.seed_workload(&id, 10, Some(11));
        assert_eq!(model.streams[&id].checkpoint, None);
        assert_eq!(
            recover(&mut model, &id),
            (outcome(RecoveryStrategy::Reexecute, 0, 10), Some(55))
        );
    }

    #[test]
    fn a_checkpoint_on_the_last_message_leaves_nothing_to_replay() {
        let (mut model, id) = (RecoveryModel::new(), ModuleId::from("a"));
        model.seed_workload(&id, 10, Some(10));
        assert_eq!(model.log_len(), 0);
        let cp = RecoveryStrategy::FromCheckpoint;
        assert_eq!(recover(&mut model, &id), (outcome(cp, 10, 0), Some(55)));
    }

    #[test]
    fn seqs_run_on_across_modules_in_seeding_order() {
        let (a, b) = (ModuleId::from("a"), ModuleId::from("b"));
        let mut model = RecoveryModel::new();
        model.seed_workload(&a, 3, None);
        model.seed_workload(&b, 2, None);
        model.seed_workload(&a, 2, None);
        let seqs: Vec<_> = model
            .entries()
            .map(|(m, seq, v)| (m.as_str(), seq, v))
            .collect();
        let a_then_b = [
            ("a", 1, 1),
            ("a", 2, 2),
            ("a", 3, 3),
            ("a", 6, 1),
            ("a", 7, 2),
        ];
        assert_eq!(seqs[..5], a_then_b, "a's stream in seq order, then b's");
        assert_eq!(seqs[5..], [("b", 4, 1), ("b", 5, 2)]);
    }

    #[test]
    fn entries_come_module_by_module_in_name_order() {
        let mut model = RecoveryModel::new();
        for name in ["zeta", "alpha", "mid"] {
            model.seed_workload(&ModuleId::from(name), 2, None);
        }
        let order: Vec<_> = model.entries().map(|(m, _, _)| m.as_str()).collect();
        assert_eq!(order, ["alpha", "alpha", "mid", "mid", "zeta", "zeta"]);
        assert_eq!(model.log_len(), order.len());
    }

    #[test]
    fn recovery_leaves_the_log_as_it_was() {
        let (mut model, id) = (RecoveryModel::new(), ModuleId::from("a"));
        model.seed_workload(&id, 25, Some(10));
        let before: Vec<_> = model.entries().map(|(_, seq, v)| (seq, v)).collect();
        let first = recover(&mut model, &id);
        assert_eq!(
            recover(&mut model, &id),
            first,
            "recovering again changes nothing"
        );
        let after: Vec<_> = model.entries().map(|(_, seq, v)| (seq, v)).collect();
        assert_eq!(after, before);
    }

    #[test]
    fn each_recovery_starts_from_the_restore_point_not_the_last_recovered_state() {
        let (mut model, id) = (RecoveryModel::new(), ModuleId::from("a"));
        model.seed_workload(&id, 4, None);
        assert_eq!(recover(&mut model, &id).1, Some(10));
        model.seed_workload(&id, 2, None);
        assert_eq!(
            model.recovered_state(&id),
            Some(10),
            "stale until recovered again"
        );
        assert_eq!(
            recover(&mut model, &id),
            (outcome(RecoveryStrategy::Reexecute, 0, 6), Some(13))
        );
    }

    #[test]
    fn the_cadence_counts_messages_across_seedings() {
        let (mut model, id) = (RecoveryModel::new(), ModuleId::from("a"));
        model.seed_workload(&id, 7, Some(10));
        assert_eq!(model.streams[&id].checkpoint, None);
        // Message 10 is the second seeding's third: 28 + 1 + 2 + 3.
        model.seed_workload(&id, 5, Some(10));
        assert_eq!(model.streams[&id].checkpoint, Some((10, 34)));
        let cp = RecoveryStrategy::FromCheckpoint;
        assert_eq!(recover(&mut model, &id), (outcome(cp, 10, 2), Some(43)));
    }

    #[test]
    fn a_seeding_short_of_the_next_checkpoint_keeps_the_older_suffix() {
        let (mut model, id) = (RecoveryModel::new(), ModuleId::from("a"));
        model.seed_workload(&id, 25, Some(10));
        model.seed_workload(&id, 3, Some(10));
        assert_eq!(model.log_len(), 8, "messages 21..=28");
        let cp = RecoveryStrategy::FromCheckpoint;
        assert_eq!(
            recover(&mut model, &id),
            (outcome(cp, 20, 8), Some(325 + 6))
        );
    }

    #[test]
    fn seed_app_takes_each_cadence_from_the_failure_aspect() {
        use udc_spec::{DistributedAspect, TaskSpec};
        let mut app = AppSpec::new("app");
        let cp = FailureHandling::Checkpoint { interval_ms: 4 };
        for (name, f) in [
            ("cp", Some(cp)),
            ("re", Some(FailureHandling::Reexecute)),
            ("dflt", None),
        ] {
            let dist = DistributedAspect {
                failure: f,
                ..Default::default()
            };
            app.add_module(TaskSpec::new(name).with_dist(dist).build());
        }
        let mut model = RecoveryModel::new();
        model.seed_app(&app, 10);
        let kept = |m: &str| {
            model
                .entries()
                .filter(|(id, _, _)| id.as_str() == m)
                .count()
        };
        // No failure aspect means the default, re-execution.
        assert_eq!((kept("cp"), kept("re"), kept("dflt")), (2, 10, 10));
        for m in ["cp", "re", "dflt"] {
            assert_eq!(model.expected_state(&ModuleId::from(m)), Some(55));
        }
    }
}
