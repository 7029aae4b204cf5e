//! The seed actor system, kept verbatim as the equivalence oracle.
//!
//! [`NaiveSystem`] is the original `System` implementation: a
//! `BTreeMap<ActorId, Registered>` of actors, a scheduler round that
//! clones *every* id, and string-keyed telemetry calls on each
//! delivery. It is deliberately simple and obviously correct; the
//! optimized [`crate::system::System`] must stay observably equivalent
//! to it (delivery order, stats, log contents, dead letters,
//! supervision, telemetry), which `tests/prop_equiv.rs` checks on
//! random actor graphs — the same oracle pattern PR 2 used for the
//! indexed allocation pool.
//!
//! The only intentional change from the seed: the mailbox-depth gauge
//! is only touched when the depth is a new high-water candidate (the
//! high-water mark itself is unchanged — pinned by a test), matching
//! the optimized system so both export identical metrics.

use crate::actor::{Actor, ActorId, Ctx, Message};
use crate::log::MessageLog;
use crate::supervise::SupervisionPolicy;
use crate::system::SystemStats;
use bytes::Bytes;
use std::collections::{BTreeMap, VecDeque};
use udc_telemetry::{Labels, Telemetry};

struct Registered {
    actor: Box<dyn Actor>,
    mailbox: VecDeque<Message>,
    policy: SupervisionPolicy,
    stopped: bool,
}

/// The seed deterministic single-threaded actor system (reference
/// implementation; see the module docs).
#[derive(Default)]
pub struct NaiveSystem {
    actors: BTreeMap<ActorId, Registered>,
    log: MessageLog,
    next_seq: u64,
    stats: SystemStats,
    obs: Telemetry,
    mailbox_hw: i64,
}

impl NaiveSystem {
    /// Creates an empty system.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs the observability hub (string-keyed path).
    pub fn set_observer(&mut self, obs: Telemetry) {
        self.obs = obs;
    }

    /// Registers an actor under `id` with a supervision policy.
    /// Replaces any existing registration with the same id.
    pub fn spawn(
        &mut self,
        id: impl Into<ActorId>,
        actor: Box<dyn Actor>,
        policy: SupervisionPolicy,
    ) {
        self.actors.insert(
            id.into(),
            Registered {
                actor,
                mailbox: VecDeque::new(),
                policy,
                stopped: false,
            },
        );
    }

    /// Enqueues an external message.
    pub fn inject(&mut self, to: impl Into<ActorId>, payload: impl Into<Bytes>) {
        self.enqueue(Message::external(to, payload));
    }

    fn enqueue(&mut self, msg: Message) {
        match self.actors.get_mut(&msg.to) {
            Some(r) if !r.stopped => {
                r.mailbox.push_back(msg);
                let depth = r.mailbox.len() as i64;
                if depth > self.mailbox_hw {
                    self.mailbox_hw = depth;
                    if self.obs.is_enabled() {
                        self.obs
                            .gauge_set("actor.mailbox_depth", Labels::none(), depth);
                    }
                }
            }
            _ => {
                self.stats.dead_letters += 1;
                self.obs.incr("actor.dead_letters", Labels::none(), 1);
            }
        }
    }

    /// Delivers at most one message to each actor (in id order).
    /// Returns the number of messages handled. O(all actors) per
    /// round: the id snapshot clones every key.
    pub fn step(&mut self) -> usize {
        let ids: Vec<ActorId> = self.actors.keys().cloned().collect();
        let mut handled = 0;
        for id in ids {
            let Some(mut msg) = self.actors.get_mut(&id).and_then(|r| {
                if r.stopped {
                    None
                } else {
                    r.mailbox.pop_front()
                }
            }) else {
                continue;
            };
            self.next_seq += 1;
            msg.seq = self.next_seq;
            handled += 1;
            self.deliver(&id, msg, true);
        }
        handled
    }

    fn deliver(&mut self, id: &ActorId, msg: Message, allow_retry: bool) {
        let Some(r) = self.actors.get_mut(id) else {
            self.stats.dead_letters += 1;
            self.obs.incr("actor.dead_letters", Labels::none(), 1);
            return;
        };
        let mut ctx = Ctx::default();
        let result = r.actor.on_message(&mut ctx, &msg);
        match result {
            Ok(()) => {
                self.stats.delivered += 1;
                self.obs.incr("actor.delivered", Labels::none(), 1);
                self.log.record(msg.clone());
                let from = id.clone();
                for (to, payload) in ctx.outbox {
                    self.enqueue(Message {
                        from: Some(from.clone()),
                        to,
                        payload,
                        seq: 0,
                    });
                }
            }
            Err(_) => {
                self.stats.failures += 1;
                self.obs.incr("actor.failures", Labels::none(), 1);
                match r.policy {
                    SupervisionPolicy::Restart => {
                        r.actor.reset();
                        self.stats.restarts += 1;
                        self.obs.incr("actor.restarts", Labels::none(), 1);
                    }
                    SupervisionPolicy::RestartAndRetry => {
                        r.actor.reset();
                        self.stats.restarts += 1;
                        self.obs.incr("actor.restarts", Labels::none(), 1);
                        if allow_retry {
                            self.deliver(id, msg, false);
                        }
                    }
                    SupervisionPolicy::Stop => {
                        r.stopped = true;
                        r.mailbox.clear();
                    }
                }
            }
        }
    }

    /// Runs until no mailbox has messages, or `max_steps` rounds elapse.
    pub fn run_until_quiescent(&mut self, max_steps: usize) -> (u64, bool) {
        let mut total = 0u64;
        for _ in 0..max_steps {
            let handled = self.step();
            if handled == 0 {
                return (total, true);
            }
            total += handled as u64;
        }
        (total, !self.has_pending())
    }

    /// True when any mailbox still has messages.
    pub fn has_pending(&self) -> bool {
        self.actors
            .values()
            .any(|r| !r.stopped && !r.mailbox.is_empty())
    }

    /// The reliable message log.
    pub fn log(&self) -> &MessageLog {
        &self.log
    }

    /// Drops log entries made obsolete by a checkpoint at `seq`.
    pub fn truncate_log_through(&mut self, seq: u64) -> usize {
        self.log.truncate_through(seq)
    }

    /// Execution statistics.
    pub fn stats(&self) -> SystemStats {
        self.stats
    }

    /// Immutable access to an actor.
    pub fn actor(&self, id: &ActorId) -> Option<&dyn Actor> {
        self.actors.get(id).map(|r| r.actor.as_ref())
    }

    /// Mutable access to an actor (checkpoint/restore flows).
    pub fn actor_mut(&mut self, id: &ActorId) -> Option<&mut (dyn Actor + 'static)> {
        self.actors.get_mut(id).map(|r| r.actor.as_mut())
    }

    /// Ids of all registered (non-stopped) actors.
    pub fn actor_ids(&self) -> Vec<ActorId> {
        self.actors
            .iter()
            .filter(|(_, r)| !r.stopped)
            .map(|(id, _)| id.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::ActorError;

    struct Forwarder {
        next: ActorId,
    }

    impl Actor for Forwarder {
        fn on_message(&mut self, ctx: &mut Ctx, msg: &Message) -> Result<(), ActorError> {
            ctx.send(self.next.clone(), msg.payload.clone());
            Ok(())
        }
    }

    #[test]
    fn seed_round_semantics_ping_pong() {
        // Pins the seed scheduling contract the optimized system must
        // reproduce: a forward to an actor later in id order fires in
        // the same round, so a two-actor ping-pong handles 2 messages
        // per round.
        let mut sys = NaiveSystem::new();
        sys.spawn(
            "a",
            Box::new(Forwarder {
                next: ActorId::new("b"),
            }),
            SupervisionPolicy::Restart,
        );
        sys.spawn(
            "b",
            Box::new(Forwarder {
                next: ActorId::new("a"),
            }),
            SupervisionPolicy::Restart,
        );
        sys.inject("a", Bytes::from_static(b"ball"));
        let (n, quiescent) = sys.run_until_quiescent(10);
        assert!(!quiescent);
        assert_eq!(n, 20);
    }

    #[test]
    fn gauge_guard_leaves_high_water_unchanged() {
        // Satellite: the mailbox-depth gauge is only touched on a new
        // high-water candidate. The high-water mark must equal the seed
        // behaviour (gauge_set on every enqueue): deepest mailbox seen.
        let mut sys = NaiveSystem::new();
        let obs = Telemetry::enabled();
        sys.set_observer(obs.clone());
        struct Sink;
        impl Actor for Sink {
            fn on_message(&mut self, _ctx: &mut Ctx, _msg: &Message) -> Result<(), ActorError> {
                Ok(())
            }
        }
        sys.spawn("s", Box::new(Sink), SupervisionPolicy::Restart);
        for _ in 0..3 {
            sys.inject("s", Bytes::from_static(b"m"));
        }
        sys.run_until_quiescent(100);
        // A shallower second wave must not move the gauge at all.
        sys.inject("s", Bytes::from_static(b"m"));
        sys.inject("s", Bytes::from_static(b"m"));
        sys.run_until_quiescent(100);
        assert_eq!(
            obs.gauge("actor.mailbox_depth", &Labels::none()),
            Some((3, 3))
        );
    }
}
