//! A replicated key-value data module with user-selected consistency.
//!
//! The store is a deterministic *model*: latencies are computed from a
//! parameter set rather than measured, and replica lag is explicit, so
//! experiments can sweep replication factors and consistency levels and
//! observe the throughput/staleness trade-offs §3.4 implies.
//!
//! ## Consistency realization
//!
//! | Level | Write path | Read path | Staleness |
//! |---|---|---|---|
//! | Eventual | primary, async propagate | any replica | unbounded |
//! | Release | buffered until `release()`, then as Eventual | any replica | until release |
//! | Causal | primary, async; reads wait for causal prefix | session replica | bounded by deps |
//! | Sequential | primary sequences, sync majority | majority-fresh replica | none observable |
//! | Linearizable | sync all replicas | primary-confirmed | none |

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use udc_spec::ConsistencyLevel;

/// Latency parameters for the replication model (microseconds).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReplicationParams {
    /// One replica acknowledging a synchronous write.
    pub ack_latency_us: u64,
    /// Applying an asynchronous propagation to one replica.
    pub propagation_delay_us: u64,
    /// Serving a local read.
    pub read_latency_us: u64,
    /// §3.4's programmable-network option ("a promising direction is to
    /// explore the programmability in the network to enforce the
    /// distributed specifications", citing NOPaxos \[26\] and Pegasus
    /// \[27\]): when true, the ToR switch / SmartNIC performs the
    /// replication fan-out and ordering, so a synchronous write costs
    /// one ack round regardless of the replica count, instead of a
    /// host-serialized fan-out.
    pub in_network: bool,
}

impl Default for ReplicationParams {
    fn default() -> Self {
        Self {
            ack_latency_us: 150,
            propagation_delay_us: 400,
            read_latency_us: 20,
            in_network: false,
        }
    }
}

impl ReplicationParams {
    /// Default parameters with in-network replication enabled.
    pub fn in_network() -> Self {
        Self {
            in_network: true,
            ..Self::default()
        }
    }
}

/// Errors from store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Replica index out of range.
    BadReplica(usize),
    /// Zero replicas requested.
    NoReplicas,
    /// A synchronous write could not assemble its required quorum of
    /// live replicas. Nothing was applied: the write fails atomically
    /// rather than committing on a minority.
    MajorityUnavailable {
        /// Live members (primary included) at write time.
        live: usize,
        /// Members the consistency level requires.
        required: usize,
    },
    /// The write presented a fencing epoch older than the store's
    /// current fence: the writer is a zombie replica that has since
    /// been re-placed. Nothing was applied.
    Fenced {
        /// The epoch the writer presented.
        presented: u64,
        /// The store's current fence.
        fence: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::BadReplica(i) => write!(f, "replica {i} out of range"),
            StoreError::NoReplicas => f.write_str("replication factor must be >= 1"),
            StoreError::MajorityUnavailable { live, required } => write!(
                f,
                "sync write needs {required} live members but only {live} are up"
            ),
            StoreError::Fenced { presented, fence } => write!(
                f,
                "write fenced: presented epoch {presented}, store fence {fence}"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

/// A versioned value inside one replica.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Versioned {
    version: u64,
    value: Vec<u8>,
}

/// The result of a read: value (if present), the version observed, and
/// the modelled latency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadResult {
    /// The value, if the key exists at the serving replica.
    pub value: Option<Vec<u8>>,
    /// Version observed (0 = key absent).
    pub version: u64,
    /// Modelled latency of the read.
    pub latency_us: u64,
    /// Versions behind the primary at serve time (staleness metric).
    pub staleness: u64,
}

/// Cumulative statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreStats {
    /// Writes accepted.
    pub writes: u64,
    /// Reads served.
    pub reads: u64,
    /// Total modelled write latency.
    pub write_latency_us: u64,
    /// Total modelled read latency.
    pub read_latency_us: u64,
    /// Reads that observed a stale version.
    pub stale_reads: u64,
    /// Writes rejected for presenting a stale fencing epoch.
    pub fenced_writes: u64,
    /// Synchronous writes rejected for lack of a live quorum.
    pub quorum_failures: u64,
}

impl StoreStats {
    /// Mean write latency (0 when no writes).
    pub fn mean_write_latency_us(&self) -> f64 {
        if self.writes == 0 {
            0.0
        } else {
            self.write_latency_us as f64 / self.writes as f64
        }
    }

    /// Mean read latency (0 when no reads).
    pub fn mean_read_latency_us(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.read_latency_us as f64 / self.reads as f64
        }
    }
}

/// A replicated KV data module.
#[derive(Debug, Clone)]
pub struct ReplicatedStore {
    level: ConsistencyLevel,
    params: ReplicationParams,
    /// replicas\[0\] is the primary.
    replicas: Vec<BTreeMap<String, Versioned>>,
    /// Liveness per replica; a failed replica stops acknowledging
    /// synchronous writes and receives no propagation until rebuilt.
    /// The primary (index 0) is always live in this model.
    live: Vec<bool>,
    /// Highest fencing epoch accepted so far (0 = unfenced).
    fence: u64,
    /// Monotonic version counter (assigned by the primary sequencer).
    next_version: u64,
    /// Ops applied at the primary but not yet at every replica:
    /// (key, versioned, replicas still missing it).
    in_flight: Vec<(String, Versioned, Vec<usize>)>,
    /// Release-consistency write buffer (not yet visible anywhere but
    /// the writer).
    release_buffer: Vec<(String, Vec<u8>)>,
    stats: StoreStats,
    /// Round-robin read cursor for replica load-balancing.
    read_cursor: usize,
}

impl ReplicatedStore {
    /// Creates a store with `replication` replicas at `level`.
    pub fn new(
        replication: u32,
        level: ConsistencyLevel,
        params: ReplicationParams,
    ) -> Result<Self, StoreError> {
        if replication == 0 {
            return Err(StoreError::NoReplicas);
        }
        Ok(Self {
            level,
            params,
            replicas: vec![BTreeMap::new(); replication as usize],
            live: vec![true; replication as usize],
            fence: 0,
            next_version: 0,
            in_flight: Vec::new(),
            release_buffer: Vec::new(),
            stats: StoreStats::default(),
            read_cursor: 0,
        })
    }

    /// The consistency level in force.
    pub fn level(&self) -> ConsistencyLevel {
        self.level
    }

    /// Replication factor.
    pub fn replication(&self) -> u32 {
        self.replicas.len() as u32
    }

    /// Writes `key = value`, returning the modelled latency.
    ///
    /// Under `Release`, the write is buffered and costs only the local
    /// write until [`ReplicatedStore::release`] is called.
    ///
    /// Panics when a synchronous level cannot assemble its live quorum;
    /// callers that race replica failures should use
    /// [`ReplicatedStore::write_checked`] and handle the typed error.
    pub fn write(&mut self, key: &str, value: &[u8]) -> u64 {
        self.write_checked(key, value)
            .expect("synchronous write without a live quorum; use write_checked")
    }

    /// Writes `key = value`, returning the modelled latency or a typed
    /// error. Synchronous levels (`Sequential`, `Linearizable`) validate
    /// their quorum of live replicas **before** applying anything: the
    /// write either commits on a live majority (resp. all live members)
    /// or returns [`StoreError::MajorityUnavailable`] with no state
    /// change — never a silent partial commit.
    pub fn write_checked(&mut self, key: &str, value: &[u8]) -> Result<u64, StoreError> {
        let required = match self.level {
            ConsistencyLevel::Sequential => Some(self.replicas.len() / 2 + 1),
            ConsistencyLevel::Linearizable => Some(self.replicas.len()),
            _ => None,
        };
        if let Some(required) = required {
            let live = self.live_members();
            if live < required {
                self.stats.quorum_failures += 1;
                return Err(StoreError::MajorityUnavailable { live, required });
            }
        }
        self.stats.writes += 1;
        let latency = match self.level {
            ConsistencyLevel::Release => {
                self.release_buffer.push((key.to_string(), value.to_vec()));
                self.params.read_latency_us // Local buffer append: cheap.
            }
            ConsistencyLevel::Eventual | ConsistencyLevel::Causal => {
                self.apply_primary(key, value);
                // Primary ack only; propagation is asynchronous.
                self.params.ack_latency_us
            }
            ConsistencyLevel::Sequential => {
                self.apply_primary(key, value);
                // Majority of replicas acknowledge synchronously; the
                // tail is applied asynchronously. Host-driven fan-out
                // serializes part of the work (25% of an ack round per
                // extra member); in-network fan-out (switch/SmartNIC,
                // §3.4) replicates in the fabric at line rate, so the
                // cost stays one ack round.
                let majority = self.replicas.len() / 2 + 1;
                self.sync_live_members(majority);
                self.params.ack_latency_us + self.fan_out_cost(majority as u64)
            }
            ConsistencyLevel::Linearizable => {
                self.apply_primary(key, value);
                let all = self.replicas.len();
                self.sync_live_members(all);
                self.params.ack_latency_us + self.fan_out_cost(all as u64)
            }
        };
        self.stats.write_latency_us += latency;
        Ok(latency)
    }

    /// Writes under a fencing epoch. An epoch older than the highest
    /// seen so far identifies a zombie writer (its module was re-placed
    /// under a newer epoch, e.g. on the far side of a healed partition):
    /// the write is rejected with [`StoreError::Fenced`] and nothing is
    /// applied. A current-or-newer epoch raises the fence monotonically
    /// and delegates to [`ReplicatedStore::write_checked`].
    pub fn write_fenced(&mut self, key: &str, value: &[u8], epoch: u64) -> Result<u64, StoreError> {
        if epoch < self.fence {
            self.stats.fenced_writes += 1;
            return Err(StoreError::Fenced {
                presented: epoch,
                fence: self.fence,
            });
        }
        self.fence = epoch;
        self.write_checked(key, value)
    }

    /// Raises the fence to `epoch` (monotone: a lower value is ignored).
    /// The control plane calls this when it re-places the module that
    /// owns this store, so writes from the superseded placement bounce.
    pub fn set_fence(&mut self, epoch: u64) {
        self.fence = self.fence.max(epoch);
    }

    /// The highest fencing epoch accepted so far (0 = unfenced).
    pub fn fence(&self) -> u64 {
        self.fence
    }

    /// Live members, primary included.
    pub fn live_members(&self) -> usize {
        self.live.iter().filter(|&&l| l).count()
    }

    /// Whether replica `r` is live (out-of-range reads as dead).
    pub fn is_live(&self, r: usize) -> bool {
        self.live.get(r).copied().unwrap_or(false)
    }

    /// Fan-out serialization cost for a synchronous write to `members`
    /// replicas: zero with in-network replication, a quarter of an ack
    /// round per extra member host-driven.
    fn fan_out_cost(&self, members: u64) -> u64 {
        if self.params.in_network {
            0
        } else {
            (self.params.ack_latency_us / 4) * members.saturating_sub(1)
        }
    }

    fn apply_primary(&mut self, key: &str, value: &[u8]) {
        self.next_version += 1;
        let v = Versioned {
            version: self.next_version,
            value: value.to_vec(),
        };
        self.replicas[0].insert(key.to_string(), v.clone());
        let lagging: Vec<usize> = (1..self.replicas.len()).collect();
        if !lagging.is_empty() {
            self.in_flight.push((key.to_string(), v, lagging));
        }
    }

    /// Synchronously applies all in-flight ops to the first `members`
    /// **live** replicas in index order (primary included in the count).
    /// Dead replicas are skipped — they keep their lagging entries until
    /// rebuilt, so a failed node never silently absorbs a quorum write.
    fn sync_live_members(&mut self, members: usize) {
        let targets: Vec<usize> = (0..self.replicas.len())
            .filter(|&r| self.live[r])
            .take(members)
            .collect();
        for (key, v, lagging) in &mut self.in_flight {
            lagging.retain(|&r| {
                if targets.contains(&r) {
                    let slot = self.replicas[r]
                        .entry(key.clone())
                        .or_insert_with(|| Versioned {
                            version: 0,
                            value: Vec::new(),
                        });
                    if v.version > slot.version {
                        *slot = v.clone();
                    }
                    false
                } else {
                    true
                }
            });
        }
        self.in_flight.retain(|(_, _, lagging)| !lagging.is_empty());
    }

    /// Release point (release consistency): makes all buffered writes
    /// visible, returning the modelled latency of the batch.
    pub fn release(&mut self) -> u64 {
        if self.release_buffer.is_empty() {
            return 0;
        }
        let writes = std::mem::take(&mut self.release_buffer);
        let n = writes.len() as u64;
        for (k, v) in writes {
            self.apply_primary(&k, &v);
        }
        // One propagation round amortizes the whole batch.
        let latency = self.params.ack_latency_us + self.params.propagation_delay_us / n.max(1);
        self.stats.write_latency_us += latency;
        latency
    }

    /// Applies one round of asynchronous propagation: every in-flight op
    /// reaches every lagging replica. Experiments call this to model the
    /// passage of `propagation_delay_us`.
    pub fn propagate(&mut self) {
        let n = self.replicas.len();
        self.sync_live_members(n);
    }

    /// Reads `key`, load-balanced across replicas according to the
    /// consistency level.
    pub fn read(&mut self, key: &str) -> ReadResult {
        self.stats.reads += 1;
        let primary_version = self.replicas[0].get(key).map(|v| v.version).unwrap_or(0);
        let (replica, extra_latency) = match self.level {
            // Strong levels serve fresh data: sequential reads go to a
            // majority-fresh replica (the primary in this model);
            // linearizable reads additionally confirm with the primary.
            ConsistencyLevel::Sequential => (0usize, 0),
            ConsistencyLevel::Linearizable => (0usize, self.params.ack_latency_us),
            // Causal: session replica must contain the causal prefix; we
            // model a per-read dependency wait of one propagation hop
            // when the chosen replica lags.
            ConsistencyLevel::Causal => {
                let r = self.pick_replica();
                let lag =
                    primary_version - self.replicas[r].get(key).map(|v| v.version).unwrap_or(0);
                if lag > 0 {
                    // Wait for the dependency to arrive.
                    (0, self.params.propagation_delay_us)
                } else {
                    (r, 0)
                }
            }
            ConsistencyLevel::Eventual | ConsistencyLevel::Release => (self.pick_replica(), 0),
        };
        let slot = self.replicas[replica].get(key);
        let version = slot.map(|v| v.version).unwrap_or(0);
        let staleness = primary_version.saturating_sub(version);
        if staleness > 0 {
            self.stats.stale_reads += 1;
        }
        let latency = self.params.read_latency_us + extra_latency;
        self.stats.read_latency_us += latency;
        ReadResult {
            value: slot.map(|v| v.value.clone()),
            version,
            latency_us: latency,
            staleness,
        }
    }

    fn pick_replica(&mut self) -> usize {
        // Round-robin over live replicas only; a dead node serves no
        // reads. The primary is always live, so this terminates.
        let n = self.replicas.len();
        for _ in 0..n {
            let r = self.read_cursor % n;
            self.read_cursor = self.read_cursor.wrapping_add(1);
            if self.live[r] {
                return r;
            }
        }
        0
    }

    /// Simulates losing `replica` (its contents vanish); a later
    /// [`ReplicatedStore::propagate`] plus reads repopulate it from the
    /// primary's in-flight log only for keys still in flight, so the
    /// harness should re-replicate via [`ReplicatedStore::rebuild_replica`].
    pub fn fail_replica(&mut self, replica: usize) -> Result<(), StoreError> {
        if replica == 0 || replica >= self.replicas.len() {
            return Err(StoreError::BadReplica(replica));
        }
        self.replicas[replica].clear();
        self.live[replica] = false;
        Ok(())
    }

    /// Rebuilds a failed replica by full copy from the primary,
    /// returning the number of keys copied.
    pub fn rebuild_replica(&mut self, replica: usize) -> Result<usize, StoreError> {
        if replica == 0 || replica >= self.replicas.len() {
            return Err(StoreError::BadReplica(replica));
        }
        let snapshot = self.replicas[0].clone();
        let n = snapshot.len();
        self.replicas[replica] = snapshot;
        self.live[replica] = true;
        // The full copy subsumes anything still in flight for this
        // replica; purge it so stale entries cannot linger unbounded.
        for (_, _, lagging) in &mut self.in_flight {
            lagging.retain(|&r| r != replica);
        }
        self.in_flight.retain(|(_, _, lagging)| !lagging.is_empty());
        Ok(n)
    }

    /// Whether any data survives the loss of `failed` replicas
    /// (durability check: data survives while at least one replica
    /// remains).
    pub fn survives(&self, failed: u32) -> bool {
        failed < self.replication()
    }

    /// Statistics so far.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Direct version inspection for tests: the version of `key` at
    /// `replica`.
    pub fn version_at(&self, replica: usize, key: &str) -> Option<u64> {
        self.replicas
            .get(replica)
            .and_then(|r| r.get(key))
            .map(|v| v.version)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(n: u32, level: ConsistencyLevel) -> ReplicatedStore {
        ReplicatedStore::new(n, level, ReplicationParams::default()).unwrap()
    }

    #[test]
    fn zero_replication_rejected() {
        assert_eq!(
            ReplicatedStore::new(0, ConsistencyLevel::Eventual, ReplicationParams::default()).err(),
            Some(StoreError::NoReplicas)
        );
    }

    #[test]
    fn linearizable_reads_always_fresh() {
        let mut s = store(3, ConsistencyLevel::Linearizable);
        for i in 0..10 {
            s.write("k", format!("v{i}").as_bytes());
            let r = s.read("k");
            assert_eq!(r.staleness, 0);
            assert_eq!(r.value.as_deref(), Some(format!("v{i}").as_bytes()));
        }
        assert_eq!(s.stats().stale_reads, 0);
    }

    #[test]
    fn sequential_reads_fresh() {
        let mut s = store(3, ConsistencyLevel::Sequential);
        s.write("k", b"v1");
        let r = s.read("k");
        assert_eq!(r.staleness, 0);
    }

    #[test]
    fn eventual_reads_can_be_stale_until_propagation() {
        let mut s = store(3, ConsistencyLevel::Eventual);
        s.write("k", b"v1");
        // Round-robin over three replicas: at least one read in the next
        // three hits a lagging replica.
        let mut max_staleness = 0;
        for _ in 0..3 {
            max_staleness = max_staleness.max(s.read("k").staleness);
        }
        assert!(
            max_staleness > 0,
            "async replication must lag before propagate"
        );
        s.propagate();
        for _ in 0..3 {
            assert_eq!(s.read("k").staleness, 0);
        }
    }

    #[test]
    fn single_replica_never_stale() {
        let mut s = store(1, ConsistencyLevel::Eventual);
        s.write("k", b"v");
        for _ in 0..5 {
            assert_eq!(s.read("k").staleness, 0);
        }
    }

    #[test]
    fn write_latency_grows_with_strictness() {
        let mut eventual = store(3, ConsistencyLevel::Eventual);
        let mut sequential = store(3, ConsistencyLevel::Sequential);
        let mut linearizable = store(3, ConsistencyLevel::Linearizable);
        let le = eventual.write("k", b"v");
        let ls = sequential.write("k", b"v");
        let ll = linearizable.write("k", b"v");
        assert!(le <= ls, "eventual {le} vs sequential {ls}");
        assert!(ls <= ll, "sequential {ls} vs linearizable {ll}");
    }

    #[test]
    fn write_latency_grows_with_replication_under_linearizable() {
        let mut r1 = store(1, ConsistencyLevel::Linearizable);
        let mut r3 = store(3, ConsistencyLevel::Linearizable);
        assert!(r1.write("k", b"v") < r3.write("k", b"v"));
    }

    #[test]
    fn release_buffers_until_release() {
        let mut s = store(2, ConsistencyLevel::Release);
        s.write("k", b"v1");
        // Not visible anywhere yet (not even the primary).
        assert_eq!(s.read("k").value, None);
        let batch_latency = s.release();
        assert!(batch_latency > 0);
        s.propagate();
        assert_eq!(s.read("k").value.as_deref(), Some(b"v1".as_ref()));
    }

    #[test]
    fn release_amortizes_batches() {
        let mut s = store(2, ConsistencyLevel::Release);
        for i in 0..100 {
            s.write(&format!("k{i}"), b"v");
        }
        let batch = s.release();
        let mut seq = store(2, ConsistencyLevel::Sequential);
        let mut individual = 0;
        for i in 0..100 {
            individual += seq.write(&format!("k{i}"), b"v");
        }
        assert!(
            batch * 10 < individual,
            "batched release ({batch}) should be far cheaper than {individual}"
        );
    }

    #[test]
    fn causal_reads_wait_for_dependencies() {
        let mut s = store(3, ConsistencyLevel::Causal);
        s.write("k", b"v1");
        // Any read either hits a fresh replica cheaply or pays the
        // dependency wait and observes fresh data.
        for _ in 0..6 {
            let r = s.read("k");
            assert_eq!(r.staleness, 0, "causal read must not expose missing prefix");
        }
    }

    #[test]
    fn overwrites_advance_versions() {
        let mut s = store(2, ConsistencyLevel::Sequential);
        s.write("k", b"a");
        s.write("k", b"b");
        let r = s.read("k");
        assert_eq!(r.version, 2);
        assert_eq!(r.value.as_deref(), Some(b"b".as_ref()));
    }

    #[test]
    fn missing_key_reads_none() {
        let mut s = store(2, ConsistencyLevel::Sequential);
        let r = s.read("ghost");
        assert_eq!(r.value, None);
        assert_eq!(r.version, 0);
        assert_eq!(r.staleness, 0);
    }

    #[test]
    fn replica_failure_and_rebuild() {
        let mut s = store(3, ConsistencyLevel::Linearizable);
        for i in 0..10 {
            s.write(&format!("k{i}"), b"v");
        }
        s.fail_replica(2).unwrap();
        assert_eq!(s.version_at(2, "k0"), None);
        let copied = s.rebuild_replica(2).unwrap();
        assert_eq!(copied, 10);
        assert_eq!(s.version_at(2, "k0"), Some(1));
        assert!(s.fail_replica(0).is_err(), "primary cannot be failed here");
        assert!(s.fail_replica(9).is_err());
    }

    #[test]
    fn sequential_write_commits_on_live_majority_or_fails_atomically() {
        let mut s = store(3, ConsistencyLevel::Sequential);
        // 2 of 3 live is still a majority: writes commit.
        s.fail_replica(1).unwrap();
        assert_eq!(s.live_members(), 2);
        assert!(s.write_checked("k", b"v1").is_ok());
        // The synchronous copy lands on the live member, not the dead one.
        assert_eq!(s.version_at(0, "k"), Some(1));
        assert_eq!(s.version_at(2, "k"), Some(1));
        assert_eq!(s.version_at(1, "k"), None);
        // 1 of 3 live: below majority. The write must fail with no
        // state change anywhere — no version burned, nothing applied.
        s.fail_replica(2).unwrap();
        let err = s.write_checked("k", b"v2").unwrap_err();
        assert_eq!(
            err,
            StoreError::MajorityUnavailable {
                live: 1,
                required: 2
            }
        );
        assert_eq!(s.version_at(0, "k"), Some(1), "primary untouched");
        assert_eq!(s.stats().quorum_failures, 1);
        // Rebuilding one replica restores the quorum.
        s.rebuild_replica(1).unwrap();
        assert!(s.write_checked("k", b"v2").is_ok());
        assert_eq!(s.version_at(0, "k"), Some(2));
    }

    #[test]
    fn linearizable_write_requires_all_members_live() {
        let mut s = store(3, ConsistencyLevel::Linearizable);
        s.fail_replica(2).unwrap();
        assert_eq!(
            s.write_checked("k", b"v").unwrap_err(),
            StoreError::MajorityUnavailable {
                live: 2,
                required: 3
            }
        );
        s.rebuild_replica(2).unwrap();
        assert!(s.write_checked("k", b"v").is_ok());
    }

    #[test]
    fn fenced_write_from_stale_epoch_is_rejected() {
        let mut s = store(3, ConsistencyLevel::Sequential);
        assert_eq!(s.fence(), 0);
        assert!(s.write_fenced("k", b"old", 1).is_ok());
        // The module is re-placed under epoch 2; the control plane
        // fences the store.
        s.set_fence(2);
        let err = s.write_fenced("k", b"zombie", 1).unwrap_err();
        assert_eq!(
            err,
            StoreError::Fenced {
                presented: 1,
                fence: 2
            }
        );
        assert_eq!(s.stats().fenced_writes, 1);
        assert_eq!(
            s.read("k").value.as_deref(),
            Some(b"old".as_ref()),
            "zombie write left no trace"
        );
        // The current holder writes fine, and a newer epoch raises the
        // fence monotonically.
        assert!(s.write_fenced("k", b"new", 2).is_ok());
        assert!(s.write_fenced("k", b"newer", 5).is_ok());
        assert_eq!(s.fence(), 5);
        assert!(s.write_fenced("k", b"late", 4).is_err());
        // set_fence never lowers the fence.
        s.set_fence(3);
        assert_eq!(s.fence(), 5);
    }

    #[test]
    fn dead_replica_receives_no_propagation_until_rebuild() {
        let mut s = store(3, ConsistencyLevel::Eventual);
        s.fail_replica(2).unwrap();
        s.write("k", b"v");
        s.propagate();
        assert_eq!(s.version_at(1, "k"), Some(1), "live replica catches up");
        assert_eq!(s.version_at(2, "k"), None, "dead replica stays empty");
        // Reads never land on the dead replica.
        for _ in 0..6 {
            assert_eq!(s.read("k").value.as_deref(), Some(b"v".as_ref()));
        }
        s.rebuild_replica(2).unwrap();
        assert_eq!(s.version_at(2, "k"), Some(1));
    }

    #[test]
    fn survivability_matches_replication() {
        let s = store(3, ConsistencyLevel::Eventual);
        assert!(s.survives(2));
        assert!(!s.survives(3));
        let s1 = store(1, ConsistencyLevel::Eventual);
        assert!(!s1.survives(1));
    }

    #[test]
    fn in_network_writes_flat_in_replica_count() {
        let mut host3 = ReplicatedStore::new(
            3,
            ConsistencyLevel::Linearizable,
            ReplicationParams::default(),
        )
        .unwrap();
        let mut net3 = ReplicatedStore::new(
            3,
            ConsistencyLevel::Linearizable,
            ReplicationParams::in_network(),
        )
        .unwrap();
        let mut net1 = ReplicatedStore::new(
            1,
            ConsistencyLevel::Linearizable,
            ReplicationParams::in_network(),
        )
        .unwrap();
        let host_lat = host3.write("k", b"v");
        let net_lat3 = net3.write("k", b"v");
        let net_lat1 = net1.write("k", b"v");
        assert!(net_lat3 < host_lat, "switch fan-out beats host fan-out");
        assert_eq!(net_lat3, net_lat1, "in-network cost is replica-count-flat");
    }

    #[test]
    fn in_network_preserves_consistency() {
        let mut s = ReplicatedStore::new(
            3,
            ConsistencyLevel::Sequential,
            ReplicationParams::in_network(),
        )
        .unwrap();
        for i in 0..20u64 {
            s.write("k", &i.to_le_bytes());
            assert_eq!(s.read("k").staleness, 0);
        }
        assert_eq!(s.stats().stale_reads, 0);
    }

    #[test]
    fn stats_accumulate() {
        let mut s = store(2, ConsistencyLevel::Sequential);
        s.write("k", b"v");
        s.read("k");
        s.read("k");
        let st = s.stats();
        assert_eq!(st.writes, 1);
        assert_eq!(st.reads, 2);
        assert!(st.mean_write_latency_us() > 0.0);
        assert!(st.mean_read_latency_us() > 0.0);
    }
}
