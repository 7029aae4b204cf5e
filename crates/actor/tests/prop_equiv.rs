//! Observable-equivalence proof for the optimized actor runtime: the
//! seed round-robin system (`NaiveSystem`, kept verbatim) and the
//! interned-slab + ready-bitmap `System` run side by side over random
//! actor graphs and operation traces — spawns (including replacement
//! respawns), injections, single rounds, and run-to-quiescence, with
//! every supervision policy and failure pattern in play. At every step
//! they must handle the *same* number of messages, and at every
//! checkpoint the stats, message log, dead letters, live actor set,
//! actor state snapshots, telemetry gauges, and per-actor replay
//! suffixes must be identical, and each hub's counters must equal its
//! own executor's stats — so the fast path is a pure speedup, never a
//! behavior change.
//!
//! A second generator feeds the same oracle TTL-bounded cascades
//! (forwarders and ×2 fan-outs whose payload byte 0 counts down) under
//! `Restart`/`RestartAndRetry` only, so every trace reaches true
//! quiescence and the comparison covers deep multi-round cascades the
//! 15-round cap of the first generator cuts short.

use bytes::Bytes;
use proptest::prelude::*;
use udc_actor::{Actor, ActorError, ActorId, Ctx, Message, NaiveSystem, SupervisionPolicy, System};
use udc_telemetry::{Labels, Telemetry};

const SLOTS: u8 = 8;

fn id_for(slot: u8) -> ActorId {
    ActorId::new(format!("m{}", slot % SLOTS))
}

/// Counts deliveries; snapshot exposes the count so actor state can be
/// compared across the twin systems.
#[derive(Default)]
struct Sink {
    seen: u64,
}

impl Actor for Sink {
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
}

/// Forwards every payload to a fixed next hop.
struct Forwarder {
    next: ActorId,
}

impl Actor for Forwarder {
    fn on_message(&mut self, ctx: &mut Ctx, msg: &Message) -> Result<(), ActorError> {
        ctx.send(self.next.clone(), msg.payload.clone());
        Ok(())
    }
}

/// Sends to two targets per delivery (message amplification).
struct FanOut {
    left: ActorId,
    right: ActorId,
}

impl Actor for FanOut {
    fn on_message(&mut self, ctx: &mut Ctx, msg: &Message) -> Result<(), ActorError> {
        ctx.send(self.left.clone(), msg.payload.clone());
        ctx.send(self.right.clone(), msg.payload.clone());
        Ok(())
    }
}

/// Fails deterministically by attempt count (attempt 1, 4, 7, … fail),
/// so a failed first attempt succeeds on retry under RestartAndRetry.
/// The attempt counter deliberately survives `reset()` — it scripts the
/// failure pattern; `seen` is the state supervision wipes.
#[derive(Default)]
struct Flaky {
    attempts: u64,
    seen: u64,
}

impl Actor for Flaky {
    fn on_message(&mut self, _ctx: &mut Ctx, _msg: &Message) -> Result<(), ActorError> {
        self.attempts += 1;
        if self.attempts % 3 == 1 {
            return Err(ActorError("scripted failure".into()));
        }
        self.seen += 1;
        Ok(())
    }

    fn reset(&mut self) {
        self.seen = 0;
    }

    fn snapshot(&self) -> Vec<u8> {
        self.seen.to_be_bytes().to_vec()
    }
}

/// Builds one behavior instance; called twice per spawn so both systems
/// get identical fresh actors.
fn behavior(kind: u8, slot: u8) -> Box<dyn Actor> {
    match kind % 4 {
        0 => Box::new(Sink::default()),
        1 => Box::new(Forwarder {
            next: id_for(slot.wrapping_add(1 + kind / 4)),
        }),
        2 => Box::new(FanOut {
            left: id_for(slot.wrapping_add(1)),
            right: id_for(slot.wrapping_add(3)),
        }),
        _ => Box::new(Flaky::default()),
    }
}

fn policy(p: u8) -> SupervisionPolicy {
    match p % 3 {
        0 => SupervisionPolicy::Restart,
        1 => SupervisionPolicy::RestartAndRetry,
        _ => SupervisionPolicy::Stop,
    }
}

/// Compares everything observable between the twin systems.
fn assert_equivalent(
    fast: &System,
    seed: &NaiveSystem,
    fast_obs: &Telemetry,
    seed_obs: &Telemetry,
) -> Result<(), proptest::test_runner::TestCaseError> {
    prop_assert_eq!(fast.stats(), seed.stats(), "stats diverged");
    prop_assert_eq!(fast.has_pending(), seed.has_pending(), "pending diverged");
    prop_assert_eq!(
        fast.actor_ids(),
        seed.actor_ids(),
        "live actor set diverged"
    );
    prop_assert_eq!(
        fast.log().entries(),
        seed.log().entries(),
        "message log diverged"
    );
    for slot in 0..SLOTS {
        let id = id_for(slot);
        let a = fast.actor(&id).map(|a| a.snapshot());
        let b = seed.actor(&id).map(|a| a.snapshot());
        prop_assert_eq!(a, b, "actor state diverged for {}", id);
        // Replay suffixes agree at several cut points (also checks the
        // indexed replay path against the oracle's identical log).
        for after in [0, 1, fast.log().len() as u64 / 2, u64::MAX] {
            prop_assert_eq!(
                fast.log().replay_for(&id, after),
                seed.log().replay_for(&id, after),
                "replay suffix diverged for {} after {}",
                id,
                after
            );
        }
    }
    // Each hub holds exactly its executor's stats: `SystemStats` is the
    // one place either counts, and the hub can never drift from it.
    for (obs, stats) in [(fast_obs, fast.stats()), (seed_obs, seed.stats())] {
        let hub = |name| obs.counter(name, &Labels::none());
        prop_assert_eq!(
            [
                hub("actor.delivered"),
                hub("actor.failures"),
                hub("actor.restarts"),
                hub("actor.dead_letters"),
            ],
            [
                stats.delivered,
                stats.failures,
                stats.restarts,
                stats.dead_letters,
            ],
            "hub counters drifted from stats()"
        );
    }
    prop_assert_eq!(
        fast_obs.gauge("actor.mailbox_depth", &Labels::none()),
        seed_obs.gauge("actor.mailbox_depth", &Labels::none()),
        "mailbox gauge diverged"
    );
    Ok(())
}

/// The optimized system and the seed oracle, each on its own hub.
fn twins() -> (System, NaiveSystem, Telemetry, Telemetry) {
    let mut fast = System::new();
    let mut seed = NaiveSystem::new();
    let fast_obs = Telemetry::enabled();
    let seed_obs = Telemetry::enabled();
    fast.set_observer(fast_obs.clone());
    seed.set_observer(seed_obs.clone());
    (fast, seed, fast_obs, seed_obs)
}

proptest! {
    /// Every step of every trace is observably identical between the
    /// seed system and the optimized one.
    #[test]
    fn fast_system_matches_seed_system(
        steps in prop::collection::vec(
            (0u8..4, 0u8..SLOTS, any::<u8>(), any::<u8>()),
            1..60,
        ),
    ) {
        let (mut fast, mut seed, fast_obs, seed_obs) = twins();

        for (op, slot, aux, payload) in steps {
            match op {
                0 => {
                    let pol = policy(aux / 16);
                    fast.spawn(id_for(slot), behavior(aux, slot), pol);
                    seed.spawn(id_for(slot), behavior(aux, slot), pol);
                }
                1 => {
                    // Some injections target never-spawned ids, so the
                    // dead-letter path gets traffic too.
                    let to = if aux % 5 == 0 {
                        ActorId::new("ghost")
                    } else {
                        id_for(slot)
                    };
                    let body = Bytes::from(vec![payload]);
                    fast.inject(to.clone(), body.clone());
                    seed.inject(to, body);
                }
                2 => {
                    prop_assert_eq!(fast.step(), seed.step(), "round size diverged");
                }
                _ => {
                    let a = fast.run_until_quiescent(15);
                    let b = seed.run_until_quiescent(15);
                    prop_assert_eq!(a, b, "quiescence diverged");
                }
            }
            assert_equivalent(&fast, &seed, &fast_obs, &seed_obs)?;
        }
    }

    /// RestartAndRetry parity under a hostile failure pattern: random
    /// injection mixes into a Flaky actor retried by both systems give
    /// identical stats, logs, and sequence numbers.
    #[test]
    fn restart_and_retry_parity(
        payloads in prop::collection::vec(any::<u8>(), 1..40),
        rounds in prop::collection::vec(any::<bool>(), 1..40),
    ) {
        let (mut fast, mut seed, fast_obs, seed_obs) = twins();
        fast.spawn("flaky", Box::new(Flaky::default()), SupervisionPolicy::RestartAndRetry);
        seed.spawn("flaky", Box::new(Flaky::default()), SupervisionPolicy::RestartAndRetry);

        for (i, p) in payloads.iter().enumerate() {
            let body = Bytes::from(vec![*p]);
            fast.inject("flaky", body.clone());
            seed.inject("flaky", body);
            if rounds[i % rounds.len()] {
                prop_assert_eq!(fast.step(), seed.step());
            }
        }
        let a = fast.run_until_quiescent(200);
        let b = seed.run_until_quiescent(200);
        prop_assert_eq!(a, b);
        assert_equivalent(&fast, &seed, &fast_obs, &seed_obs)?;
        // Retried messages keep their seq: the log's sequence numbers
        // are exactly the successful-delivery subsequence.
        let seqs: Vec<u64> = fast.log().entries().iter().map(|m| m.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(seqs, sorted, "log seqs strictly increasing");
    }
}

// ---------------------------------------------------------------------
// TTL-cascade inputs to the same oracle. Message payloads carry a TTL
// in byte 0 so every cascade is finite, and supervision is Restart or
// RestartAndRetry (no actor ever stops), so both systems can be driven
// to true quiescence and compared there as well as after every op.
// ---------------------------------------------------------------------

/// The payload for the next hop: TTL (byte 0) decremented, or `None`
/// when the cascade has run out.
fn next_hop(msg: &Message) -> Option<Vec<u8>> {
    let ttl = *msg.payload.first()?;
    let mut body = msg.payload.to_vec();
    body[0] = ttl.checked_sub(1)?;
    Some(body)
}

/// Forwards with a decremented TTL; the cascade dies at TTL 0.
struct TtlForwarder {
    next: ActorId,
}

impl Actor for TtlForwarder {
    fn on_message(&mut self, ctx: &mut Ctx, msg: &Message) -> Result<(), ActorError> {
        if let Some(body) = next_hop(msg) {
            ctx.send(self.next.clone(), body);
        }
        Ok(())
    }
}

/// Amplifies ×2 per hop with a decremented TTL, so amplification is
/// bounded by 2^TTL.
struct TtlFanOut {
    left: ActorId,
    right: ActorId,
}

impl Actor for TtlFanOut {
    fn on_message(&mut self, ctx: &mut Ctx, msg: &Message) -> Result<(), ActorError> {
        if let Some(body) = next_hop(msg) {
            ctx.send(self.left.clone(), body.clone());
            ctx.send(self.right.clone(), body);
        }
        Ok(())
    }
}

/// [`behavior`] with the unbounded forwarders swapped for TTL ones, so
/// every cascade is finite.
fn ttl_behavior(kind: u8, slot: u8) -> Box<dyn Actor> {
    match kind % 4 {
        1 => Box::new(TtlForwarder {
            next: id_for(slot.wrapping_add(1 + kind / 4)),
        }),
        2 => Box::new(TtlFanOut {
            left: id_for(slot.wrapping_add(1)),
            right: id_for(slot.wrapping_add(3)),
        }),
        _ => behavior(kind, slot),
    }
}

fn restarting_policy(p: u8) -> SupervisionPolicy {
    if p.is_multiple_of(2) {
        SupervisionPolicy::Restart
    } else {
        SupervisionPolicy::RestartAndRetry
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Finite cascades under restarting supervision: identical after
    /// every op, and both systems quiesce with identical totals.
    #[test]
    fn ttl_cascades_match_seed_system_at_quiescence(
        steps in prop::collection::vec(
            (0u8..4, 0u8..SLOTS, any::<u8>(), any::<u8>()),
            1..36,
        ),
    ) {
        let (mut fast, mut seed, fast_obs, seed_obs) = twins();
        // A final run-to-quiescence closes every trace.
        for (op, slot, aux, payload) in steps.into_iter().chain([(3, 0, 0, 0)]) {
            match op {
                0 => {
                    let pol = restarting_policy(aux / 16);
                    fast.spawn(id_for(slot), ttl_behavior(aux, slot), pol);
                    seed.spawn(id_for(slot), ttl_behavior(aux, slot), pol);
                }
                1 => {
                    let to = if aux % 7 == 0 {
                        ActorId::new("ghost")
                    } else {
                        id_for(slot)
                    };
                    // Byte 0 is the TTL (amplification ≤ 2^3).
                    let body = Bytes::from(vec![payload % 4, payload, aux]);
                    fast.inject(to.clone(), body.clone());
                    seed.inject(to, body);
                }
                2 => {
                    prop_assert_eq!(fast.step(), seed.step(), "round size diverged");
                }
                _ => {
                    let a = fast.run_until_quiescent(400);
                    prop_assert_eq!(a, seed.run_until_quiescent(400), "quiescence diverged");
                    prop_assert!(a.1, "TTL workload must quiesce");
                    prop_assert!(!fast.has_pending());
                }
            }
            assert_equivalent(&fast, &seed, &fast_obs, &seed_obs)?;
        }
    }
}
