//! The product's recovery log, `udc_dist::RecoveryModel`, records what
//! this executor delivers. Every seeded stream is injected into one
//! `System` running a summing actor per module, and checkpoints are
//! taken from what the system delivered. After every seeding, the
//! system's log read as `(module, seq, value)` triples equals the
//! model's retained entries; at the end the two agree on state,
//! compaction and recovery under both strategies.

use bytes::Bytes;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use udc_actor::{Actor, ActorError, ActorId, Ctx, Message, SupervisionPolicy, System};
use udc_dist::{RecoveryModel, RecoveryOutcome, RecoveryStrategy};
use udc_spec::ModuleId;

/// A payload's value: its first 8 bytes as an LE u64, shorter payloads
/// zero-extended.
fn value(payload: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    let n = payload.len().min(8);
    b[..n].copy_from_slice(&payload[..n]);
    u64::from_le_bytes(b)
}

/// Folds every delivered value into a wrapping sum.
#[derive(Default)]
struct Summer {
    sum: u64,
}

impl Actor for Summer {
    fn on_message(&mut self, _ctx: &mut Ctx, msg: &Message) -> Result<(), ActorError> {
        self.sum = self.sum.wrapping_add(value(&msg.payload));
        Ok(())
    }

    fn reset(&mut self) {
        self.sum = 0;
    }

    fn snapshot(&self) -> Vec<u8> {
        self.sum.to_le_bytes().to_vec()
    }

    fn restore(&mut self, snapshot: &[u8]) {
        self.sum = value(snapshot);
    }
}

/// The recovery model as one executor builds it.
#[derive(Default)]
struct ExecutorModel {
    system: System,
    /// Per module: the newest checkpoint, as (seq, snapshot).
    checkpoints: BTreeMap<ActorId, (u64, Vec<u8>)>,
    /// Per module: its state and the messages in its stream.
    expected: BTreeMap<ActorId, (u64, u64)>,
}

impl ExecutorModel {
    fn seed_workload(&mut self, module: &ModuleId, messages: u64, every: Option<u64>) {
        let id = ActorId::new(module.as_str());
        // A module seeded before keeps its actor, and with it the state
        // its earlier stream built.
        if self.system.actor(&id).is_none() {
            self.system.spawn(
                id.clone(),
                Box::<Summer>::default(),
                SupervisionPolicy::Restart,
            );
        }
        let delivered = self.system.log().len();
        for i in 1..=messages {
            self.system
                .inject(id.clone(), Bytes::copy_from_slice(&i.to_le_bytes()));
        }
        self.system.run_until_quiescent(usize::MAX);
        let (mut sum, mut count) = self.expected.get(&id).copied().unwrap_or_default();
        for m in &self.system.log().entries()[delivered..] {
            sum = sum.wrapping_add(value(&m.payload));
            count += 1;
            if every.is_some_and(|every| every > 0 && count.is_multiple_of(every)) {
                self.checkpoints
                    .insert(id.clone(), (m.seq, sum.to_le_bytes().to_vec()));
            }
        }
        let actor = self.system.actor(&id).expect("spawned").snapshot();
        assert_eq!(
            actor,
            sum.to_le_bytes(),
            "the actor folded what was delivered"
        );
        self.expected.insert(id, (sum, count));
        self.compact();
    }

    /// Truncates through the oldest checkpoint once every module has one.
    fn compact(&mut self) -> usize {
        let cut = self
            .expected
            .keys()
            .map(|id| self.checkpoints.get(id).map(|cp| cp.0))
            .min()
            .flatten();
        cut.map_or(0, |seq| self.system.truncate_log_through(seq))
    }

    /// The retained log as `(module, seq, value)` triples, in delivery
    /// order.
    fn entries(&self) -> Vec<(ModuleId, u64, u64)> {
        self.system
            .log()
            .entries()
            .iter()
            .map(|m| (ModuleId::from(m.to.as_str()), m.seq, value(&m.payload)))
            .collect()
    }

    /// Resets a fresh actor, restores the checkpoint under
    /// `FromCheckpoint` when there is one, and replays the log suffix.
    fn recover_module(
        &self,
        module: &ModuleId,
        strategy: RecoveryStrategy,
    ) -> (RecoveryOutcome, u64) {
        let id = ActorId::new(module.as_str());
        let checkpoint = match strategy {
            RecoveryStrategy::FromCheckpoint => self.checkpoints.get(&id),
            RecoveryStrategy::Reexecute => None,
        };
        let mut fresh = Summer::default();
        fresh.reset();
        let from_seq = checkpoint.map_or(0, |(seq, snapshot)| {
            fresh.restore(snapshot);
            *seq
        });
        let suffix = self.system.log().replay_for(&id, from_seq);
        for msg in &suffix {
            fresh
                .on_message(&mut Ctx::default(), msg)
                .expect("a sum cannot fail");
        }
        let out = RecoveryOutcome {
            strategy: if checkpoint.is_some() {
                RecoveryStrategy::FromCheckpoint
            } else {
                RecoveryStrategy::Reexecute
            },
            replayed: suffix.len(),
            from_seq,
        };
        (out, fresh.sum)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Module names repeat, so re-seeding a module is covered too.
    #[test]
    fn the_model_logs_what_an_executor_delivers(
        seeds in prop::collection::vec((0u8..6, 0u64..=64, 0u8..22), 1..=8),
    ) {
        let mut model = RecoveryModel::new();
        let mut exec = ExecutorModel::default();
        let mut modules = BTreeSet::new();
        for (name, messages, cadence) in seeds {
            let module = ModuleId::from(format!("M{name}").as_str());
            // None, Some(0), or a cadence of 1..=20 messages.
            let every = cadence.checked_sub(1).map(u64::from);
            model.seed_workload(&module, messages, every);
            exec.seed_workload(&module, messages, every);
            modules.insert(module);
            let mut logged: Vec<_> = model.entries().map(|(m, seq, v)| (m.clone(), seq, v)).collect();
            logged.sort_by_key(|e| e.1);
            prop_assert_eq!(logged, exec.entries());
            for m in &modules {
                prop_assert_eq!(
                    model.expected_state(m),
                    exec.expected.get(&ActorId::new(m.as_str())).map(|e| e.0)
                );
            }
        }
        prop_assert_eq!(model.compact(), exec.compact());
        prop_assert_eq!(model.log_len(), exec.system.log().len());
        for m in &modules {
            for strategy in [RecoveryStrategy::Reexecute, RecoveryStrategy::FromCheckpoint] {
                let (out, state) = exec.recover_module(m, strategy);
                prop_assert_eq!(model.recover_module(m, strategy), Some(out));
                prop_assert_eq!(model.recovered_state(m), Some(state));
            }
        }
    }
}
