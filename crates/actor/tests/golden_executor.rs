//! Golden digests of the executor's observable behaviour.
//!
//! Fixed-seed random programs — spawns (including replacement
//! respawns), injections (some to ids nobody spawned), single rounds,
//! capped runs, log truncations, and failures under every
//! [`SupervisionPolicy`] — each driven to quiescence on an enabled hub.
//! Every program folds into one FNV-64 digest over what an observer can
//! see: the delivery trace `(to, seq, payload)` of every handler call
//! (failed attempts included), what each call into the system returned,
//! the retained log, `truncated()`, `stats()`, the hub's `actor.*`
//! counters, the `actor.mailbox_depth` gauge, the live actor set and
//! every actor's snapshot.
//!
//! The rows were recorded from the slab/ready-bitmap executor this crate
//! shipped before it kept only the seed one, so they pin that the seed
//! executor delivers exactly what it did, message for message.

mod common;

use bytes::Bytes;
use common::{id_for, policy, restarting_policy, ttl_behavior, SLOTS};
use std::cell::RefCell;
use std::rc::Rc;
use udc_actor::{Actor, ActorError, ActorId, Ctx, Message, SupervisionPolicy, System, SystemStats};
use udc_telemetry::{Labels, Telemetry};

/// splitmix64: the programs' only source of randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn byte(&mut self) -> u8 {
        self.next() as u8
    }
}

/// FNV-1a over everything fed to it.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Length-prefixed, so adjacent fields cannot run together.
    fn field(&mut self, bytes: &[u8]) {
        self.u64(bytes.len() as u64);
        self.bytes(bytes);
    }
}

/// Every handler call, in call order: `(to, seq, payload)`.
type Trace = Rc<RefCell<Vec<(ActorId, u64, Bytes)>>>;

/// Wraps a behaviour and records each call before running it.
struct Traced {
    inner: Box<dyn Actor>,
    trace: Trace,
}

impl Actor for Traced {
    fn on_message(&mut self, ctx: &mut Ctx, msg: &Message) -> Result<(), ActorError> {
        self.trace
            .borrow_mut()
            .push((msg.to.clone(), msg.seq, msg.payload.clone()));
        self.inner.on_message(ctx, msg)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn snapshot(&self) -> Vec<u8> {
        self.inner.snapshot()
    }
}

/// A behaviour of the TTL generator, traced into `trace`.
fn behavior(kind: u8, slot: u8, trace: &Trace) -> Box<dyn Actor> {
    Box::new(Traced {
        inner: ttl_behavior(kind, slot),
        trace: trace.clone(),
    })
}

/// One program's shape: which policies it spawns under, how often an
/// injection goes to a ghost, and whether it truncates the log.
struct Shape {
    policy: fn(u8) -> SupervisionPolicy,
    ghost_every: u8,
    truncates: bool,
    max_ops: u64,
}

/// Runs program `seed` of `shape`: its digest, final stats and the
/// number of log entries it truncated.
fn run_program(seed: u64, shape: &Shape) -> (u64, SystemStats, u64) {
    let mut rng = Rng(seed);
    let trace: Trace = Rc::default();
    let obs = Telemetry::enabled();
    let mut sys = System::new();
    sys.set_observer(obs.clone());
    let mut h = Fnv::new();

    let ops = 1 + rng.below(shape.max_ops);
    let kinds = if shape.truncates { 5 } else { 4 };
    for _ in 0..ops {
        let (slot, aux, payload) = (rng.byte() % SLOTS, rng.byte(), rng.byte());
        match rng.below(kinds) {
            0 => sys.spawn(
                id_for(slot),
                behavior(aux, slot, &trace),
                (shape.policy)(aux / 16),
            ),
            1 => {
                let to = if aux.is_multiple_of(shape.ghost_every) {
                    ActorId::new("ghost")
                } else {
                    id_for(slot)
                };
                // Byte 0 is the TTL: a cascade amplifies at most 2^3.
                sys.inject(to, Bytes::from(vec![payload % 4, payload, aux]));
            }
            2 => h.u64(sys.step() as u64),
            3 => {
                let (n, quiescent) = sys.run_until_quiescent(15);
                h.u64(n);
                h.u64(quiescent as u64);
            }
            _ => {
                let last = sys.log().entries().last().map_or(0, |m| m.seq);
                let cut = rng.below(last + 2);
                h.u64(sys.truncate_log_through(cut) as u64);
            }
        }
        h.u64(sys.has_pending() as u64);
    }
    let (n, quiescent) = sys.run_until_quiescent(10_000);
    assert!(quiescent, "program {seed} must quiesce");
    h.u64(n);

    for (to, seq, payload) in trace.borrow().iter() {
        h.field(to.as_str().as_bytes());
        h.u64(*seq);
        h.field(payload);
    }
    let log = sys.log();
    h.u64(log.len() as u64);
    for m in log.entries() {
        h.field(
            m.from
                .as_ref()
                .map_or(b"-".as_slice(), |f| f.as_str().as_bytes()),
        );
        h.field(m.to.as_str().as_bytes());
        h.field(&m.payload);
        h.u64(m.seq);
    }
    h.u64(log.truncated());
    let s = sys.stats();
    for v in [s.delivered, s.failures, s.restarts, s.dead_letters] {
        h.u64(v);
    }
    for name in [
        "actor.delivered",
        "actor.failures",
        "actor.restarts",
        "actor.dead_letters",
    ] {
        h.u64(obs.counter(name, &Labels::none()));
    }
    match obs.gauge("actor.mailbox_depth", &Labels::none()) {
        Some((value, high)) => {
            h.u64(1);
            h.u64(value as u64);
            h.u64(high as u64);
        }
        None => h.u64(0),
    }
    for id in sys.actor_ids() {
        h.field(id.as_str().as_bytes());
    }
    for slot in 0..SLOTS {
        match sys.actor(&id_for(slot)) {
            Some(a) => h.field(&a.snapshot()),
            None => h.u64(u64::MAX),
        }
    }
    (h.0, s, log.truncated())
}

fn digests(shape: &Shape, programs: u64) -> Vec<u64> {
    (0..programs)
        .map(|seed| run_program(seed, shape).0)
        .collect()
}

fn show(rows: &[u64]) -> String {
    rows.iter()
        .map(|d| format!("0x{d:016x},"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Every policy, ghosts, stops, respawns and truncations.
const MIXED: Shape = Shape {
    policy,
    ghost_every: 5,
    truncates: true,
    max_ops: 160,
};

#[rustfmt::skip]
const MIXED_GOLDEN: [u64; 64] = [
    0x1bd56f629b7b6ca7, 0xdd3328d60b380a74, 0xba4849a9db0f5398, 0x1293dfc5be42db26,
    0x0122b4a0cb19b6b4, 0x9d075d901681ea95, 0x2cf4b84b5add6cba, 0x4783770d7c545e48,
    0xac0ec9b01f2a33ac, 0x2f5b1fde6dda65c2, 0x3a2e82ed784dd63b, 0x4dac34e79e43f32a,
    0x38c85f54ce9a8024, 0x909257b363836c73, 0xd2f6f3fe5903ffd8, 0xcffa4206471fc81a,
    0xc32746a39fffa7bc, 0xce3391869f6f2877, 0x4bcea578dd4044a4, 0x5a4940b55c048c97,
    0x67cb8fe4f38b536a, 0xc8d30c2f58b1f8ec, 0xd1ccfb7d06b917f7, 0x0f32a0c050d6135b,
    0xb8290811328408ed, 0x5668331807b1e9fb, 0x4c2c169b5dc2f9a8, 0xffba2ec701c0bc96,
    0xaa2c45ff12ff8888, 0x48a08b14eb4ec1d8, 0x7e7e8f283a4f7dd8, 0x157fd3d0e05603cc,
    0xcf36873912569ba4, 0xee84557d3db2354e, 0x340b0ee9aea4a08f, 0x8210b0a5614781f2,
    0x5de080f4c3a1f333, 0x2b25bbb306a9466e, 0xf597a12a4ef981a4, 0xcef00e92c20d5450,
    0x1cda66ba48d030e3, 0x51ac276f415a51e1, 0xef1b84d74b423091, 0x2f4cb98fff9ae3b7,
    0x99f132d052fcfe53, 0xefdabdb184aa8624, 0x8e966376d2e4d022, 0xa11f8a3f5846cae6,
    0xf868585a99a68abd, 0x732565cd13ffe96a, 0x536db89aa8a7f091, 0xccb67c60964e567b,
    0x831484b90c659abe, 0x3c6a3e0afafd3dfd, 0xeaa711426e216e52, 0x1aace877ed325c42,
    0x2af2d04e34cff8c0, 0xa50399827dc6e05e, 0x019cb30b360625e8, 0x08fd8aae80970fde,
    0x816b21e5630824e6, 0x040a4b5c25c42b14, 0x38bbbdf0c79accd5, 0xfc21013bb3392805,
];

/// `ttl_cascades` of the former equivalence suite: restarting
/// supervision only, so deep cascades run to true quiescence.
const TTL_CASCADES: Shape = Shape {
    policy: restarting_policy,
    ghost_every: 7,
    truncates: false,
    max_ops: 120,
};

#[rustfmt::skip]
const TTL_CASCADES_GOLDEN: [u64; 48] = [
    0x2578f1ff43642628, 0x03a293244e4575a5, 0xdb3d50361ef16447, 0x66f8695e7317675c,
    0xe38a34543ddd4e01, 0x7bd3e55fa7c03a52, 0x5251e0cc42ed4abd, 0x214020951d0d4ba2,
    0xde3b68562418165b, 0xf7384cab73c80a43, 0xb49270e4e1b2761d, 0xe435fe8ddd2d6d7f,
    0xd67e21de41587345, 0x36904d454b2d23a1, 0xaeb7448c34e60660, 0xa08bd38f61c1a8ac,
    0x3b6041e79fdaf30f, 0x8f69d34d6ded3462, 0xb2330bcbb7ba7248, 0xa89ec994f0c1fdd1,
    0x17ccdd62e146eea5, 0xcd890140a600dd4c, 0x0aa6644b44fba127, 0xd2de79cbec8c85dd,
    0x698c8b8d27471295, 0x6e8503c8c946bb68, 0x42d474b57bfe882a, 0x5dc5f85133eb10b3,
    0xdde8ce4a3b94fffa, 0xa6020f9e5cf0022f, 0xdefa58518280b410, 0x69841e3a79428abd,
    0x2c5bea791febcd84, 0xf7325e4d587af37f, 0x514671622acea014, 0x67193e7e159ec3f4,
    0x0239efb34f849d2b, 0x49f20d38935ca9ce, 0x0c110ef5aa40f248, 0x00d426441236b380,
    0x2a1779c2282dd74d, 0x998c352714f5de96, 0xd04cb5e8666cd61f, 0xa4bc3c65869dcd61,
    0x602e06493d441818, 0xd562290f5c0fafe1, 0x07d9d1bc0bf9f441, 0xa5a5fd630eafedf9,
];

#[test]
fn mixed_programs_match_their_golden_digests() {
    let got = digests(&MIXED, MIXED_GOLDEN.len() as u64);
    assert!(got == MIXED_GOLDEN, "digests moved:\n{}", show(&got));
}

#[test]
fn ttl_cascades_match_their_golden_digests() {
    let got = digests(&TTL_CASCADES, TTL_CASCADES_GOLDEN.len() as u64);
    assert!(got == TTL_CASCADES_GOLDEN, "digests moved:\n{}", show(&got));
}

#[test]
fn programs_exercise_every_path() {
    // The digests pin only what the programs reach: every supervision
    // outcome, dead letters and truncation.
    let mut totals = [0u64; 5];
    for seed in 0..MIXED_GOLDEN.len() as u64 {
        let (_, s, truncated) = run_program(seed, &MIXED);
        for (t, v) in totals.iter_mut().zip([
            s.delivered,
            s.failures,
            s.restarts,
            s.dead_letters,
            truncated,
        ]) {
            *t += v;
        }
    }
    assert!(totals.iter().all(|&t| t > 0), "{totals:?}");
    assert!(totals[1] > totals[2], "some failure stopped its actor");
}
