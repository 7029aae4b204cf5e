//! E8 — §3.4/Table 1: replication × consistency trade-offs. Users pick
//! "the consistency level of concurrent accesses to their data modules
//! (e.g., sequential consistency)" and a replication factor,
//! "with the understanding that more replicas is more expensive."
//!
//! Sweep replication 1–3 × all five levels on a mixed read/write
//! workload; report write/read latency, staleness exposure, and the
//! reader-preference effect of Table 1's S2.

use crate::{banner, pct, Table};
use udc_dist::{Op, OpKind, PreferenceQueue, ReplicatedStore, ReplicationParams};
use udc_spec::{ConsistencyLevel, OpPreference};
use udc_telemetry::{EventKind, FieldValue, Labels, Telemetry};

const LEVELS: [ConsistencyLevel; 5] = [
    ConsistencyLevel::Eventual,
    ConsistencyLevel::Release,
    ConsistencyLevel::Causal,
    ConsistencyLevel::Sequential,
    ConsistencyLevel::Linearizable,
];

pub fn run() -> String {
    banner(
        "E8",
        "Replication factor x consistency level",
        "stricter consistency and more replicas cost latency; weaker \
         levels trade staleness for speed (Table 1's S1-S4 spectrum)",
    );

    let mut t = Table::new(&[
        "consistency",
        "replicas",
        "mean write lat (us)",
        "mean read lat (us)",
        "stale reads",
        "survives failures",
    ]);
    let tel = Telemetry::enabled();
    for level in LEVELS {
        for replicas in [1u32, 2, 3] {
            let mut store =
                ReplicatedStore::new(replicas, level, ReplicationParams::default()).expect("r>=1");
            // 2 000 ops on one hot key, 30% writes; asynchronous
            // propagation completes every 10 ops.
            for i in 0..2_000u64 {
                if i % 10 == 3 || i % 10 == 6 || i % 10 == 9 {
                    store.write("hot", &i.to_le_bytes());
                } else {
                    store.read("hot");
                }
                if i % 10 == 0 {
                    store.release();
                    store.propagate();
                }
            }
            let s = store.stats();
            tel.event(
                EventKind::Measurement,
                Labels::tenant(format!("{}-r{replicas}", level.name())),
                &[
                    (
                        "mean_write_latency_us",
                        FieldValue::from(s.mean_write_latency_us()),
                    ),
                    (
                        "mean_read_latency_us",
                        FieldValue::from(s.mean_read_latency_us()),
                    ),
                    (
                        "stale_read_fraction",
                        FieldValue::from(s.stale_reads as f64 / s.reads.max(1) as f64),
                    ),
                ],
            );
            t.row(&[
                level.name().to_string(),
                replicas.to_string(),
                format!("{:.0}", s.mean_write_latency_us()),
                format!("{:.0}", s.mean_read_latency_us()),
                pct(s.stale_reads as f64 / s.reads.max(1) as f64),
                (replicas - 1).to_string(),
            ]);
        }
    }
    t.print();

    println!();
    println!(
        "In-network replication ablation (§3.4's programmable-network \
         direction, cites NOPaxos/Pegasus): switch-side fan-out makes \
         synchronous writes replica-count-flat"
    );
    let mut a = Table::new(&[
        "consistency",
        "replicas",
        "host fan-out write (us)",
        "in-network write (us)",
        "saving",
    ]);
    for level in [ConsistencyLevel::Sequential, ConsistencyLevel::Linearizable] {
        for replicas in [3u32, 5, 7] {
            let mut host =
                ReplicatedStore::new(replicas, level, ReplicationParams::default()).expect("r>=1");
            let mut net = ReplicatedStore::new(replicas, level, ReplicationParams::in_network())
                .expect("r>=1");
            let h = host.write("k", b"v");
            let n = net.write("k", b"v");
            a.row(&[
                level.name().to_string(),
                replicas.to_string(),
                h.to_string(),
                n.to_string(),
                format!("{:.0}%", (1.0 - n as f64 / h as f64) * 100.0),
            ]);
        }
    }
    a.print();

    println!();
    println!("Reader preference (Table 1, S2): mean queueing position by class");
    let mut t = Table::new(&["preference", "mean read position", "mean write position"]);
    for pref in [
        OpPreference::None,
        OpPreference::Reader,
        OpPreference::Writer,
    ] {
        let mut q = PreferenceQueue::new(pref, 64);
        for i in 0..200u64 {
            q.push(Op {
                kind: if i % 3 == 0 {
                    OpKind::Write
                } else {
                    OpKind::Read
                },
                arrived_us: i,
                tag: i,
            });
        }
        let mut pos = 0u64;
        let (mut rsum, mut rn, mut wsum, mut wn) = (0u64, 0u64, 0u64, 0u64);
        while let Some(op) = q.pop() {
            match op.kind {
                OpKind::Read => {
                    rsum += pos;
                    rn += 1;
                }
                OpKind::Write => {
                    wsum += pos;
                    wn += 1;
                }
            }
            pos += 1;
        }
        t.row(&[
            pref.name().to_string(),
            format!("{:.0}", rsum as f64 / rn.max(1) as f64),
            format!("{:.0}", wsum as f64 / wn.max(1) as f64),
        ]);
    }
    t.print();

    println!();
    println!(
        "Shape: write latency rises monotonically with strictness and (for the \
         synchronous levels) with replication; stale reads exist only below \
         causal; reader preference moves reads ahead of writes without \
         starving them (bounded)."
    );
    tel.snapshot().to_json()
}
