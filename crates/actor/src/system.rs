//! The deterministic actor system: FIFO mailboxes, round-robin
//! scheduling in id order, reliable message logging, supervision.
//!
//! This is the seed executor and the only one. Nothing on a tenant
//! request or a provider tick runs it: the product's recovery log lives
//! in `udc-dist` (DESIGN.md §12). It is a `BTreeMap<ActorId, Registered>`
//! of actors; a round snapshots every id and delivers at most one
//! message to each, in id order, so a message sent mid-round to an
//! actor later in id order fires in the same round.

use crate::actor::{Actor, ActorId, Ctx, Message};
use crate::log::MessageLog;
use crate::supervise::SupervisionPolicy;
use bytes::Bytes;
use std::collections::{BTreeMap, VecDeque};
use udc_telemetry::{Labels, Telemetry};

/// Execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SystemStats {
    /// Messages successfully handled.
    pub delivered: u64,
    /// Handler failures observed.
    pub failures: u64,
    /// Actor restarts performed by supervision.
    pub restarts: u64,
    /// Messages addressed to unknown/stopped actors.
    pub dead_letters: u64,
}

struct Registered {
    actor: Box<dyn Actor>,
    mailbox: VecDeque<Message>,
    policy: SupervisionPolicy,
    stopped: bool,
}

/// The deterministic single-threaded actor system.
///
/// Delivery order is deterministic: actors are polled in id order, one
/// message per turn, so every run with the same inputs produces the same
/// message log (pinned by `tests/golden_executor.rs`).
#[derive(Default)]
pub struct System {
    actors: BTreeMap<ActorId, Registered>,
    log: MessageLog,
    next_seq: u64,
    stats: SystemStats,
    obs: Telemetry,
    /// Deepest mailbox seen; only a new high-water mark touches the
    /// gauge.
    mailbox_hw: i64,
}

impl System {
    /// Creates an empty system.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs the observability hub: deliveries, failures, restarts
    /// and dead letters become `actor.*` counters as they happen, and
    /// the deepest mailbox seen is tracked as a gauge high-water mark.
    pub fn set_observer(&mut self, obs: Telemetry) {
        self.obs = obs;
    }

    /// Registers an actor under `id` with a supervision policy.
    /// Replaces any existing registration with the same id, mailbox
    /// and stop included.
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
                    self.obs
                        .gauge_set("actor.mailbox_depth", Labels::none(), depth);
                }
            }
            _ => self.count(|s| &mut s.dead_letters, "actor.dead_letters"),
        }
    }

    /// Bumps one stat and its hub counter together, so the hub never
    /// drifts from [`System::stats`].
    fn count(&mut self, stat: fn(&mut SystemStats) -> &mut u64, name: &str) {
        *stat(&mut self.stats) += 1;
        self.obs.incr(name, Labels::none(), 1);
    }

    /// Delivers at most one message to each actor (in id order).
    /// Returns the number of messages handled. O(all actors) per round:
    /// the id snapshot clones every key.
    pub fn step(&mut self) -> usize {
        let ids: Vec<ActorId> = self.actors.keys().cloned().collect();
        let mut handled = 0;
        for id in ids {
            let Some(mut msg) = self
                .actors
                .get_mut(&id)
                .filter(|r| !r.stopped)
                .and_then(|r| r.mailbox.pop_front())
            else {
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
        let r = self
            .actors
            .get_mut(id)
            .expect("delivering to a spawned actor");
        let mut ctx = Ctx::default();
        match r.actor.on_message(&mut ctx, &msg) {
            Ok(()) => {
                self.count(|s| &mut s.delivered, "actor.delivered");
                self.log.record(msg);
                for (to, payload) in ctx.outbox {
                    self.enqueue(Message {
                        from: Some(id.clone()),
                        to,
                        payload,
                        seq: 0,
                    });
                }
            }
            Err(_) => {
                self.count(|s| &mut s.failures, "actor.failures");
                let r = self.actors.get_mut(id).expect("still spawned");
                if r.policy == SupervisionPolicy::Stop {
                    r.stopped = true;
                    r.mailbox.clear();
                    return;
                }
                r.actor.reset();
                let retry = allow_retry && r.policy == SupervisionPolicy::RestartAndRetry;
                self.count(|s| &mut s.restarts, "actor.restarts");
                if retry {
                    // The retry keeps the message's seq: it is the same
                    // delivery attempt, not a new one.
                    self.deliver(id, msg, false);
                }
            }
        }
    }

    /// Runs until no mailbox has messages, or `max_steps` rounds elapse.
    /// Returns the total number of messages handled and whether the
    /// system reached quiescence.
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

    /// Drops log entries made obsolete by a checkpoint at `seq` (see
    /// [`MessageLog::truncate_through`]). Returns how many entries were
    /// dropped.
    pub fn truncate_log_through(&mut self, seq: u64) -> usize {
        self.log.truncate_through(seq)
    }

    /// Execution statistics.
    pub fn stats(&self) -> SystemStats {
        self.stats
    }

    /// Immutable access to an actor (for inspecting state in tests and
    /// experiments). Returns `None` for unknown ids.
    pub fn actor(&self, id: &ActorId) -> Option<&dyn Actor> {
        self.actors.get(id).map(|r| r.actor.as_ref())
    }

    /// Ids of all registered (non-stopped) actors, in id order.
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

    /// Counts messages.
    #[derive(Default)]
    struct Counter {
        seen: u64,
    }

    impl Actor for Counter {
        fn on_message(&mut self, _ctx: &mut Ctx, _msg: &Message) -> Result<(), ActorError> {
            self.seen += 1;
            Ok(())
        }

        fn reset(&mut self) {
            self.seen = 0;
        }

        fn snapshot(&self) -> Vec<u8> {
            self.seen.to_be_bytes().to_vec()
        }

        fn restore(&mut self, snapshot: &[u8]) {
            let mut b = [0u8; 8];
            b.copy_from_slice(snapshot);
            self.seen = u64::from_be_bytes(b);
        }
    }

    /// Forwards every message to a fixed next hop.
    struct Forwarder {
        next: ActorId,
    }

    impl Actor for Forwarder {
        fn on_message(&mut self, ctx: &mut Ctx, msg: &Message) -> Result<(), ActorError> {
            ctx.send(self.next.clone(), msg.payload.clone());
            Ok(())
        }
    }

    /// Fails on payloads equal to "poison".
    #[derive(Default)]
    struct Fragile {
        handled: u64,
    }

    impl Actor for Fragile {
        fn on_message(&mut self, _ctx: &mut Ctx, msg: &Message) -> Result<(), ActorError> {
            if msg.payload.as_ref() == b"poison" {
                return Err(ActorError("poisoned".into()));
            }
            self.handled += 1;
            Ok(())
        }

        fn reset(&mut self) {
            self.handled = 0;
        }
    }

    #[test]
    fn delivery_and_stats() {
        let mut sys = System::new();
        sys.spawn(
            "c",
            Box::new(Counter::default()),
            SupervisionPolicy::Restart,
        );
        sys.inject("c", Bytes::from_static(b"1"));
        sys.inject("c", Bytes::from_static(b"2"));
        let (n, quiescent) = sys.run_until_quiescent(100);
        assert_eq!(n, 2);
        assert!(quiescent);
        assert_eq!(sys.stats().delivered, 2);
        assert_eq!(sys.log().len(), 2);
    }

    #[test]
    fn observer_counts_deliveries_and_mailbox_high_water() {
        let mut sys = System::new();
        let obs = Telemetry::enabled();
        sys.set_observer(obs.clone());
        sys.spawn(
            "c",
            Box::new(Counter::default()),
            SupervisionPolicy::Restart,
        );
        sys.inject("c", Bytes::from_static(b"1"));
        sys.inject("c", Bytes::from_static(b"2"));
        sys.inject("c", Bytes::from_static(b"3"));
        sys.inject("nobody", Bytes::from_static(b"x"));
        sys.run_until_quiescent(100);
        assert_eq!(obs.counter("actor.delivered", &Labels::none()), 3);
        assert_eq!(obs.counter("actor.dead_letters", &Labels::none()), 1);
        // Three messages were queued before any was drained.
        assert_eq!(
            obs.gauge("actor.mailbox_depth", &Labels::none())
                .map(|g| g.1),
            Some(3)
        );
    }

    #[test]
    fn gauge_guard_skips_non_high_water_enqueues() {
        // The gauge is only touched when depth sets a new high-water
        // mark; the mark itself is the deepest mailbox ever seen.
        let mut sys = System::new();
        let obs = Telemetry::enabled();
        sys.set_observer(obs.clone());
        sys.spawn(
            "c",
            Box::new(Counter::default()),
            SupervisionPolicy::Restart,
        );
        for _ in 0..4 {
            sys.inject("c", Bytes::from_static(b"m"));
        }
        sys.run_until_quiescent(100);
        // Shallower waves afterwards never touch the gauge.
        for _ in 0..3 {
            sys.inject("c", Bytes::from_static(b"m"));
            sys.run_until_quiescent(100);
        }
        assert_eq!(
            obs.gauge("actor.mailbox_depth", &Labels::none()),
            Some((4, 4))
        );
    }

    #[test]
    fn dead_letters_outside_a_step_reach_the_hub_at_once() {
        // No round follows an injection: a dead letter to an unknown or
        // a stopped actor reaches the hub as it happens.
        let mut sys = System::new();
        let obs = Telemetry::enabled();
        sys.set_observer(obs.clone());
        sys.spawn("f", Box::new(Fragile::default()), SupervisionPolicy::Stop);
        sys.inject("f", Bytes::from_static(b"poison"));
        sys.run_until_quiescent(100);
        sys.inject("ghost", Bytes::from_static(b"x"));
        assert_eq!(obs.counter("actor.dead_letters", &Labels::none()), 1);
        sys.inject("f", Bytes::from_static(b"ok"));
        sys.inject(ActorId::new("f"), Bytes::from_static(b"ok"));
        assert_eq!(sys.stats().dead_letters, 3);
        assert_eq!(obs.counter("actor.dead_letters", &Labels::none()), 3);
    }

    #[test]
    fn each_step_reports_what_its_stats_gained() {
        // Failures, restarts, retries and dead letters sent from inside
        // a handler reach the hub with their round, each counted once.
        let mut sys = System::new();
        let obs = Telemetry::enabled();
        sys.set_observer(obs.clone());
        sys.spawn(
            "a",
            Box::new(Forwarder {
                next: ActorId::new("ghost"),
            }),
            SupervisionPolicy::Restart,
        );
        sys.spawn(
            "f",
            Box::new(Fragile::default()),
            SupervisionPolicy::RestartAndRetry,
        );
        sys.inject("a", Bytes::from_static(b"x"));
        sys.inject("f", Bytes::from_static(b"poison"));
        sys.inject("f", Bytes::from_static(b"ok"));
        let counters = |obs: &Telemetry| {
            [
                "actor.delivered",
                "actor.failures",
                "actor.restarts",
                "actor.dead_letters",
            ]
            .map(|name| obs.counter(name, &Labels::none()))
        };
        while sys.step() > 0 {
            let s = sys.stats();
            assert_eq!(
                counters(&obs),
                [s.delivered, s.failures, s.restarts, s.dead_letters]
            );
        }
        // The poison message fails twice (delivery and its one retry).
        assert_eq!(counters(&obs), [2, 2, 2, 1]);
    }

    #[test]
    fn untraced_injection_emits_no_spans() {
        let mut sys = System::new();
        let obs = Telemetry::enabled();
        sys.set_observer(obs.clone());
        sys.spawn(
            "c",
            Box::new(Counter::default()),
            SupervisionPolicy::Restart,
        );
        sys.inject("c", Bytes::from_static(b"x"));
        sys.run_until_quiescent(100);
        assert!(obs.snapshot().spans.is_empty());
    }

    #[test]
    fn pipeline_forwards() {
        let mut sys = System::new();
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
                next: ActorId::new("c"),
            }),
            SupervisionPolicy::Restart,
        );
        sys.spawn(
            "c",
            Box::new(Counter::default()),
            SupervisionPolicy::Restart,
        );
        sys.inject("a", Bytes::from_static(b"x"));
        let (n, quiescent) = sys.run_until_quiescent(100);
        assert!(quiescent);
        assert_eq!(n, 3, "one hop per actor");
        // The log shows delivery order a -> b -> c.
        let tos: Vec<&str> = sys.log().entries().iter().map(|m| m.to.as_str()).collect();
        assert_eq!(tos, vec!["a", "b", "c"]);
    }

    #[test]
    fn sequences_monotonic() {
        let mut sys = System::new();
        sys.spawn(
            "c",
            Box::new(Counter::default()),
            SupervisionPolicy::Restart,
        );
        for _ in 0..5 {
            sys.inject("c", Bytes::from_static(b"m"));
        }
        sys.run_until_quiescent(100);
        let seqs: Vec<u64> = sys.log().entries().iter().map(|m| m.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn dead_letters_counted() {
        let mut sys = System::new();
        sys.inject("ghost", Bytes::from_static(b"x"));
        assert_eq!(sys.stats().dead_letters, 1);
    }

    #[test]
    fn restart_supervision_resets_state() {
        let mut sys = System::new();
        sys.spawn(
            "f",
            Box::new(Fragile::default()),
            SupervisionPolicy::Restart,
        );
        sys.inject("f", Bytes::from_static(b"ok"));
        sys.inject("f", Bytes::from_static(b"poison"));
        sys.inject("f", Bytes::from_static(b"ok"));
        sys.run_until_quiescent(100);
        assert_eq!(sys.stats().failures, 1);
        assert_eq!(sys.stats().restarts, 1);
        // The poison message is not logged (delivery failed).
        assert_eq!(sys.log().len(), 2);
    }

    #[test]
    fn stop_supervision_removes_actor() {
        let mut sys = System::new();
        sys.spawn("f", Box::new(Fragile::default()), SupervisionPolicy::Stop);
        sys.inject("f", Bytes::from_static(b"poison"));
        sys.run_until_quiescent(100);
        assert_eq!(sys.stats().failures, 1);
        sys.inject("f", Bytes::from_static(b"ok"));
        assert_eq!(sys.stats().dead_letters, 1);
        assert!(sys.actor_ids().is_empty());
    }

    #[test]
    fn respawn_after_stop_revives_actor() {
        // Re-spawning a stopped id replaces the registration: the stop
        // flag is gone and the actor delivers again.
        let mut sys = System::new();
        sys.spawn("f", Box::new(Fragile::default()), SupervisionPolicy::Stop);
        sys.inject("f", Bytes::from_static(b"poison"));
        sys.run_until_quiescent(100);
        assert!(sys.actor_ids().is_empty());
        sys.spawn(
            "f",
            Box::new(Fragile::default()),
            SupervisionPolicy::Restart,
        );
        sys.inject("f", Bytes::from_static(b"ok"));
        let (n, _) = sys.run_until_quiescent(100);
        assert_eq!(n, 1);
        assert_eq!(sys.stats().delivered, 1);
        assert_eq!(sys.actor_ids(), vec![ActorId::new("f")]);
    }

    #[test]
    fn retry_policy_retries_once() {
        /// Fails on the first delivery of each payload, succeeds on retry.
        #[derive(Default)]
        struct FlakyOnce {
            attempts: u64,
        }
        impl Actor for FlakyOnce {
            fn on_message(&mut self, _ctx: &mut Ctx, _msg: &Message) -> Result<(), ActorError> {
                self.attempts += 1;
                if self.attempts % 2 == 1 {
                    Err(ActorError("flaky".into()))
                } else {
                    Ok(())
                }
            }
        }
        let mut sys = System::new();
        sys.spawn(
            "f",
            Box::new(FlakyOnce::default()),
            SupervisionPolicy::RestartAndRetry,
        );
        sys.inject("f", Bytes::from_static(b"x"));
        sys.run_until_quiescent(100);
        assert_eq!(sys.stats().failures, 1);
        assert_eq!(sys.stats().delivered, 1, "retry succeeded");
    }

    #[test]
    fn retry_is_attempted_at_most_once() {
        /// Always fails.
        struct AlwaysFails;
        impl Actor for AlwaysFails {
            fn on_message(&mut self, _ctx: &mut Ctx, _msg: &Message) -> Result<(), ActorError> {
                Err(ActorError("nope".into()))
            }
        }
        let mut sys = System::new();
        sys.spawn(
            "f",
            Box::new(AlwaysFails),
            SupervisionPolicy::RestartAndRetry,
        );
        sys.inject("f", Bytes::from_static(b"x"));
        sys.run_until_quiescent(100);
        // First attempt + exactly one retry, then the message is dropped.
        assert_eq!(sys.stats().failures, 2);
        assert_eq!(sys.stats().restarts, 2);
        assert_eq!(sys.stats().delivered, 0);
        assert!(sys.log().is_empty(), "failed deliveries are never logged");
    }

    #[test]
    fn retried_message_keeps_its_seq() {
        /// Fails on the first delivery of each payload, succeeds on retry.
        #[derive(Default)]
        struct FlakyOnce {
            attempts: u64,
        }
        impl Actor for FlakyOnce {
            fn on_message(&mut self, _ctx: &mut Ctx, _msg: &Message) -> Result<(), ActorError> {
                self.attempts += 1;
                if self.attempts % 2 == 1 {
                    Err(ActorError("flaky".into()))
                } else {
                    Ok(())
                }
            }
        }
        let mut sys = System::new();
        sys.spawn(
            "f",
            Box::new(FlakyOnce::default()),
            SupervisionPolicy::RestartAndRetry,
        );
        sys.inject("f", Bytes::from_static(b"first"));
        sys.inject("f", Bytes::from_static(b"second"));
        sys.run_until_quiescent(100);
        // The retried delivery is the same attempt: it keeps seq 1, and
        // the next message still gets seq 2.
        let seqs: Vec<u64> = sys.log().entries().iter().map(|m| m.seq).collect();
        assert_eq!(seqs, vec![1, 2]);
        assert_eq!(sys.stats().failures, 2);
        assert_eq!(sys.stats().delivered, 2);
    }

    #[test]
    fn replay_suffix_filters_by_actor_and_seq() {
        let mut sys = System::new();
        sys.spawn(
            "a",
            Box::new(Counter::default()),
            SupervisionPolicy::Restart,
        );
        sys.spawn(
            "b",
            Box::new(Counter::default()),
            SupervisionPolicy::Restart,
        );
        sys.inject("a", Bytes::from_static(b"1"));
        sys.inject("b", Bytes::from_static(b"2"));
        sys.inject("a", Bytes::from_static(b"3"));
        sys.run_until_quiescent(100);
        let all_a = sys.log().replay_for(&ActorId::new("a"), 0);
        assert_eq!(all_a.len(), 2);
        let after_first = sys.log().replay_for(&ActorId::new("a"), all_a[0].seq);
        assert_eq!(after_first.len(), 1);
    }

    #[test]
    fn truncate_log_through_bounds_memory() {
        let mut sys = System::new();
        sys.spawn(
            "c",
            Box::new(Counter::default()),
            SupervisionPolicy::Restart,
        );
        for _ in 0..10 {
            sys.inject("c", Bytes::from_static(b"m"));
        }
        sys.run_until_quiescent(100);
        assert_eq!(sys.log().len(), 10);
        assert_eq!(sys.truncate_log_through(7), 7);
        assert_eq!(sys.log().len(), 3);
        assert_eq!(sys.log().truncated(), 7);
        // Replay still sees the retained suffix.
        let tail = sys.log().replay_for(&ActorId::new("c"), 0);
        assert_eq!(
            tail.iter().map(|m| m.seq).collect::<Vec<_>>(),
            vec![8, 9, 10]
        );
        // Sequence numbering continues from where it was.
        sys.inject("c", Bytes::from_static(b"m"));
        sys.run_until_quiescent(100);
        assert_eq!(sys.log().entries().last().unwrap().seq, 11);
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut sys = System::new();
        sys.spawn(
            "c",
            Box::new(Counter::default()),
            SupervisionPolicy::Restart,
        );
        for _ in 0..3 {
            sys.inject("c", Bytes::from_static(b"m"));
        }
        sys.run_until_quiescent(100);
        let snap = sys.actor(&ActorId::new("c")).unwrap().snapshot();
        let fresh = &mut Counter::default();
        fresh.restore(&snap);
        assert_eq!(fresh.seen, 3);
    }

    #[test]
    fn non_quiescent_reported() {
        // A two-actor ping-pong never quiesces.
        let mut sys = System::new();
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
        // Each round lets both actors handle one message: a receives the
        // ball and forwards it within the same round, so b also fires.
        assert_eq!(n, 20);
    }

    #[test]
    fn spawns_between_rounds_keep_id_order() {
        // Spawning out of lexicographic order must still schedule in id
        // order, including actors added after a run.
        let mut sys = System::new();
        sys.spawn(
            "m",
            Box::new(Counter::default()),
            SupervisionPolicy::Restart,
        );
        sys.inject("m", Bytes::from_static(b"1"));
        sys.run_until_quiescent(100);
        sys.spawn(
            "a",
            Box::new(Counter::default()),
            SupervisionPolicy::Restart,
        );
        sys.spawn(
            "z",
            Box::new(Counter::default()),
            SupervisionPolicy::Restart,
        );
        sys.inject("z", Bytes::from_static(b"2"));
        sys.inject("a", Bytes::from_static(b"3"));
        sys.inject("m", Bytes::from_static(b"4"));
        sys.run_until_quiescent(100);
        let tos: Vec<&str> = sys.log().entries().iter().map(|m| m.to.as_str()).collect();
        assert_eq!(tos, vec!["m", "a", "m", "z"], "id order within each round");
    }

    #[test]
    fn idle_actors_leave_a_chain_among_them_in_order() {
        // 1000 idle actors around one busy chain: each round delivers
        // the chain's one message, in order, and nothing else.
        let mut sys = System::new();
        for i in 0..1000 {
            sys.spawn(
                format!("idle{i:04}"),
                Box::new(Counter::default()),
                SupervisionPolicy::Restart,
            );
        }
        sys.spawn(
            "zz-head",
            Box::new(Forwarder {
                next: ActorId::new("zz-tail"),
            }),
            SupervisionPolicy::Restart,
        );
        sys.spawn(
            "zz-tail",
            Box::new(Counter::default()),
            SupervisionPolicy::Restart,
        );
        sys.inject("zz-head", Bytes::from_static(b"x"));
        let (n, quiescent) = sys.run_until_quiescent(100);
        assert!(quiescent);
        assert_eq!(n, 2);
        let tos: Vec<&str> = sys.log().entries().iter().map(|m| m.to.as_str()).collect();
        assert_eq!(tos, vec!["zz-head", "zz-tail"]);
    }
}
