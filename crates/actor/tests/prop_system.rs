//! Invariants of the executor over random actor graphs and operation
//! traces — spawns (including replacement respawns), injections (some
//! to ids nobody spawned), single rounds, capped runs and log
//! truncations, with every supervision policy and failure pattern in
//! play. After every operation:
//!
//! - the hub's `actor.*` counters equal `stats()`;
//! - the log's seqs strictly ascend;
//! - `replay_for(id, s)` is exactly the entries with `to == id` and
//!   `seq > s`;
//! - `truncate_log_through(cut)` drops exactly the prefix with
//!   `seq <= cut`.
//!
//! A second generator feeds TTL-bounded cascades (forwarders and ×2
//! fan-outs whose payload byte 0 counts down) under `Restart` /
//! `RestartAndRetry` only, so every trace reaches true quiescence.
//! What the executor delivers, message for message, is pinned by
//! `golden_executor.rs`.

mod common;

use bytes::Bytes;
use common::{behavior, id_for, policy, restarting_policy, ttl_behavior, Flaky, SLOTS};
use proptest::prelude::*;
use udc_actor::{ActorId, Message, SupervisionPolicy, System};
use udc_telemetry::{Labels, Telemetry};

type Checked = Result<(), proptest::test_runner::TestCaseError>;

/// The invariants every operation must leave holding.
fn assert_invariants(sys: &System, obs: &Telemetry) -> Checked {
    let s = sys.stats();
    let hub = |name| obs.counter(name, &Labels::none());
    prop_assert_eq!(
        [
            hub("actor.delivered"),
            hub("actor.failures"),
            hub("actor.restarts"),
            hub("actor.dead_letters"),
        ],
        [s.delivered, s.failures, s.restarts, s.dead_letters],
        "hub counters drifted from stats()"
    );
    let entries = sys.log().entries();
    prop_assert!(
        entries.windows(2).all(|w| w[0].seq < w[1].seq),
        "log seqs must strictly ascend"
    );
    let last = entries.last().map_or(0, |m| m.seq);
    for slot in 0..SLOTS {
        let id = id_for(slot);
        for after in [0, 1, last / 2, last, u64::MAX] {
            let scan: Vec<Message> = entries
                .iter()
                .filter(|m| m.to == id && m.seq > after)
                .cloned()
                .collect();
            prop_assert_eq!(
                sys.log().replay_for(&id, after),
                scan,
                "replay suffix wrong for {} after {}",
                id,
                after
            );
        }
    }
    Ok(())
}

/// Truncates through `cut` and checks exactly the `seq <= cut` prefix
/// went.
fn truncate_and_check(sys: &mut System, cut: u64) -> Checked {
    let before = sys.log().entries().to_vec();
    let truncated = sys.log().truncated();
    let dropped = sys.truncate_log_through(cut);
    let kept: Vec<Message> = before.iter().filter(|m| m.seq > cut).cloned().collect();
    prop_assert_eq!(dropped, before.len() - kept.len());
    prop_assert!(before[..dropped].iter().all(|m| m.seq <= cut));
    prop_assert_eq!(sys.log().entries(), kept.as_slice());
    prop_assert_eq!(sys.log().truncated(), truncated + dropped as u64);
    Ok(())
}

/// A system on an enabled hub.
fn observed() -> (System, Telemetry) {
    let mut sys = System::new();
    let obs = Telemetry::enabled();
    sys.set_observer(obs.clone());
    (sys, obs)
}

proptest! {
    /// Every operation of every trace leaves the invariants holding.
    #[test]
    fn every_operation_keeps_the_invariants(
        steps in prop::collection::vec(
            (0u8..5, 0u8..SLOTS, any::<u8>(), any::<u8>()),
            1..60,
        ),
    ) {
        let (mut sys, obs) = observed();

        for (op, slot, aux, payload) in steps {
            match op {
                0 => sys.spawn(id_for(slot), behavior(aux, slot), policy(aux / 16)),
                1 => {
                    // Some injections target never-spawned ids, so the
                    // dead-letter path gets traffic too.
                    let to = if aux % 5 == 0 {
                        ActorId::new("ghost")
                    } else {
                        id_for(slot)
                    };
                    sys.inject(to, Bytes::from(vec![payload]));
                }
                2 => {
                    let handled = sys.step();
                    prop_assert!(handled <= sys.actor_ids().len() + SLOTS as usize);
                }
                3 => {
                    let (_, quiescent) = sys.run_until_quiescent(15);
                    prop_assert_eq!(quiescent, !sys.has_pending());
                }
                _ => {
                    let last = sys.log().entries().last().map_or(0, |m| m.seq);
                    truncate_and_check(&mut sys, u64::from(payload) % (last + 2))?;
                }
            }
            assert_invariants(&sys, &obs)?;
        }
    }

    /// RestartAndRetry under a hostile failure pattern: a retried
    /// message keeps its seq, so the log's seqs are exactly the
    /// successful deliveries', ascending.
    #[test]
    fn retried_messages_keep_their_seq(
        payloads in prop::collection::vec(any::<u8>(), 1..40),
        rounds in prop::collection::vec(any::<bool>(), 1..40),
    ) {
        let (mut sys, obs) = observed();
        sys.spawn("flaky", Box::new(Flaky::default()), SupervisionPolicy::RestartAndRetry);

        let mut steps = 0u64;
        for (i, p) in payloads.iter().enumerate() {
            sys.inject("flaky", Bytes::from(vec![*p]));
            if rounds[i % rounds.len()] {
                steps += sys.step() as u64;
                assert_invariants(&sys, &obs)?;
            }
        }
        let (n, quiescent) = sys.run_until_quiescent(200);
        prop_assert!(quiescent);
        assert_invariants(&sys, &obs)?;
        // Flaky never fails twice running, so every message lands on
        // its retry at the latest, under the seq its round gave it.
        let total = payloads.len() as u64;
        prop_assert_eq!(steps + n, total);
        let s = sys.stats();
        prop_assert_eq!(s.delivered, total);
        prop_assert_eq!(s.failures, s.restarts);
        let seqs: Vec<u64> = sys.log().entries().iter().map(|m| m.seq).collect();
        prop_assert_eq!(seqs, (1..=total).collect::<Vec<_>>());
    }
}

// ---------------------------------------------------------------------
// TTL-cascade inputs. Message payloads carry a TTL in byte 0 so every
// cascade is finite, and supervision is Restart or RestartAndRetry (no
// actor ever stops), so every trace can be driven to true quiescence.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Finite cascades under restarting supervision keep the
    /// invariants after every op and always quiesce.
    #[test]
    fn ttl_cascades_quiesce_with_the_invariants_holding(
        steps in prop::collection::vec(
            (0u8..4, 0u8..SLOTS, any::<u8>(), any::<u8>()),
            1..36,
        ),
    ) {
        let (mut sys, obs) = observed();
        // A final run-to-quiescence closes every trace.
        for (op, slot, aux, payload) in steps.into_iter().chain([(3, 0, 0, 0)]) {
            match op {
                0 => sys.spawn(id_for(slot), ttl_behavior(aux, slot), restarting_policy(aux / 16)),
                1 => {
                    let to = if aux % 7 == 0 {
                        ActorId::new("ghost")
                    } else {
                        id_for(slot)
                    };
                    // Byte 0 is the TTL (amplification ≤ 2^3).
                    sys.inject(to, Bytes::from(vec![payload % 4, payload, aux]));
                }
                2 => {
                    sys.step();
                }
                _ => {
                    let (_, quiescent) = sys.run_until_quiescent(400);
                    prop_assert!(quiescent, "TTL workload must quiesce");
                    prop_assert!(!sys.has_pending());
                }
            }
            assert_invariants(&sys, &obs)?;
        }
    }
}
