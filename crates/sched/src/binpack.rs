//! The traditional-server baseline: bin-packing module demands onto
//! fixed server shapes.
//!
//! §3.2 contrasts disaggregated pool allocation with "a bin-packing
//! problem with traditional servers"; experiments E3/E4 use this module
//! as the today's-cloud side of that comparison. LegoOS \[36\] reported
//! ~2× utilization improvement from abandoning server boundaries — the
//! shape this baseline lets us reproduce.
//!
//! # Open-server index
//!
//! The seed implementation re-scanned every open server per placed
//! demand (O(servers) per demand, quadratic per workload). For
//! first-fit the cluster now maintains a segment tree of per-dimension
//! free maxima ([`MaxSegTree`]) whose leftmost-fit descent answers in
//! O(log servers) with the exact `iter().position()` semantics.
//! Best-fit is the seed's scan ([`best_fit`]), shared by both clusters:
//! no end-to-end metric exercises it, so an index for it would have to
//! move a gated number first.
//!
//! [`NaiveServerCluster`] retains the seed first-fit scan verbatim so
//! property tests (`tests/prop_binpack_equiv.rs`) and
//! `bench_control_plane` can hold the tree to the original behavior and
//! price the difference.

use udc_spec::{ResourceKind, ResourceVector};

/// A server shape: the multi-dimensional capacity of one machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerShape {
    /// Capacity per resource kind.
    pub capacity: ResourceVector,
}

impl ServerShape {
    /// A typical 2021 two-socket server: 64 cores, 256 GiB DRAM,
    /// 2 TiB SSD, optionally `gpus` GPUs.
    pub fn standard(gpus: u64) -> Self {
        let mut v = ResourceVector::new()
            .with(ResourceKind::Cpu, 64)
            .with(ResourceKind::Dram, 256 * 1024)
            .with(ResourceKind::Ssd, 2 * 1024 * 1024);
        if gpus > 0 {
            v.set(ResourceKind::Gpu, gpus);
        }
        Self { capacity: v }
    }
}

/// Packing algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackAlgo {
    /// First-fit over items sorted by decreasing scalar size.
    FirstFitDecreasing,
    /// Best-fit (least total leftover across dimensions).
    BestFit,
}

/// The outcome of packing a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct PackOutcome {
    /// Servers opened.
    pub servers_used: usize,
    /// Demands that did not fit any server shape at all.
    pub unplaceable: usize,
    /// Aggregate utilization per kind: (kind, used, provisioned).
    pub utilization: Vec<(ResourceKind, u64, u64)>,
}

impl PackOutcome {
    /// Mean utilization across kinds that were provisioned, in \[0, 1\].
    pub fn mean_utilization(&self) -> f64 {
        let (sum, n) = self
            .utilization
            .iter()
            .filter(|(_, _, cap)| *cap > 0)
            .fold((0.0f64, 0usize), |(sum, n), (_, used, cap)| {
                (sum + *used as f64 / *cap as f64, n + 1)
            });
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

/// The seed's best-fit probe: the open server that `demand` fits with
/// the least scalar leftover, lowest index on ties.
fn best_fit(open: &[ResourceVector], demand: &ResourceVector) -> Option<usize> {
    open.iter()
        .enumerate()
        .filter(|(_, free)| demand.fits_in(free))
        .min_by_key(|(_, free)| free.saturating_sub(demand).scalar_size())
        .map(|(i, _)| i)
}

/// A segment tree over open servers holding the per-dimension maximum
/// free capacity of each subtree. Leftmost-fit searches left-to-right,
/// pruning any subtree with some dimension's maximum below the demand —
/// a sound prune (no server inside can host) — and accepts the first
/// leaf whose entries host, which is exact because leaf entries are the
/// server's actual free vector. Maxima passing at an inner node is
/// *not* sufficient (each dimension's max may come from a different
/// child), hence the search rather than a single descent.
#[derive(Debug, Clone, Default)]
struct MaxSegTree {
    dims: Vec<ResourceKind>,
    /// Leaf capacity (power of two; 0 until the first push).
    cap: usize,
    /// Active leaves.
    len: usize,
    /// Flat per-node maxima: node `n` occupies
    /// `[n * dims.len(), (n + 1) * dims.len())`. Nodes `1..2*cap`;
    /// leaves start at `cap`. Unused leaves stay all-zero, so they can
    /// never host a non-zero demand.
    node: Vec<u64>,
}

impl MaxSegTree {
    fn new(dims: Vec<ResourceKind>) -> Self {
        Self {
            dims,
            cap: 0,
            len: 0,
            node: Vec::new(),
        }
    }

    fn d(&self) -> usize {
        self.dims.len()
    }

    fn write_leaf(&mut self, idx: usize, free: &ResourceVector) {
        let base = (self.cap + idx) * self.d();
        for (j, &k) in self.dims.iter().enumerate() {
            self.node[base + j] = free.get(k);
        }
    }

    fn recompute(&mut self, n: usize) {
        let d = self.d();
        let (base, left, right) = (n * d, 2 * n * d, (2 * n + 1) * d);
        for j in 0..d {
            self.node[base + j] = self.node[left + j].max(self.node[right + j]);
        }
    }

    fn bubble_up(&mut self, idx: usize) {
        let mut n = (self.cap + idx) / 2;
        while n >= 1 {
            self.recompute(n);
            n /= 2;
        }
    }

    /// Appends a leaf, doubling the tree when full.
    fn push(&mut self, free: &ResourceVector) {
        if self.len == self.cap {
            let new_cap = (self.cap * 2).max(1);
            let d = self.d();
            let mut grown = Self {
                dims: std::mem::take(&mut self.dims),
                cap: new_cap,
                len: self.len,
                node: vec![0u64; 2 * new_cap * d],
            };
            for i in 0..self.len {
                let (src, dst) = ((self.cap + i) * d, (new_cap + i) * d);
                grown.node[dst..dst + d].copy_from_slice(&self.node[src..src + d]);
            }
            for n in (1..new_cap).rev() {
                grown.recompute(n);
            }
            *self = grown;
        }
        let idx = self.len;
        self.len += 1;
        self.write_leaf(idx, free);
        self.bubble_up(idx);
    }

    /// Overwrites leaf `idx` with the server's new free vector.
    fn update(&mut self, idx: usize, free: &ResourceVector) {
        self.write_leaf(idx, free);
        self.bubble_up(idx);
    }

    /// Lowest leaf whose free vector hosts `demand` in every dimension —
    /// the `iter().position(|free| demand.fits_in(free))` answer — plus
    /// the number of subtrees pruned: nodes whose per-dimension maximum
    /// could not host the demand, so their whole leaf range was skipped
    /// without evaluation. The count feeds the
    /// `sched.binpack.seg_prunes` audit counter.
    fn leftmost_fit_counted(&self, demand: &ResourceVector) -> (Option<usize>, u64) {
        if self.len == 0 {
            return (None, 0);
        }
        let d = self.d();
        let need: Vec<u64> = self.dims.iter().map(|&k| demand.get(k)).collect();
        let hosts = |n: usize| (0..d).all(|j| self.node[n * d + j] >= need[j]);
        let mut prunes = 0u64;
        // DFS preferring the left child: pushed right-then-left so leaves
        // are visited in index order; the first hosting leaf wins.
        let mut stack = vec![1usize];
        while let Some(n) = stack.pop() {
            if !hosts(n) {
                prunes += 1;
                continue;
            }
            if n >= self.cap {
                let idx = n - self.cap;
                if idx < self.len {
                    return (Some(idx), prunes);
                }
                // An unused all-zero leaf can only host an all-zero
                // demand; keep looking (there is nothing to its right).
                continue;
            }
            stack.push(2 * n + 1);
            stack.push(2 * n);
        }
        (None, prunes)
    }
}

/// A cluster of identical servers, opened on demand (the provider
/// provisions a server whenever the workload does not fit the open
/// ones).
#[derive(Debug, Clone)]
pub struct ServerCluster {
    shape: ServerShape,
    /// Free capacity of each opened server.
    open: Vec<ResourceVector>,
    /// Per-dimension free maxima — the first-fit index.
    max_tree: MaxSegTree,
    used_total: ResourceVector,
    unplaceable: usize,
    /// Cumulative subtrees pruned by the segment-tree probe.
    probe_prunes: u64,
    /// Observability hub (disabled no-op by default).
    obs: udc_telemetry::Telemetry,
}

impl ServerCluster {
    /// Creates an empty cluster of the given shape.
    pub fn new(shape: ServerShape) -> Self {
        let dims: Vec<ResourceKind> = shape.capacity.iter().map(|(k, _)| k).collect();
        Self {
            shape,
            open: Vec::new(),
            max_tree: MaxSegTree::new(dims),
            used_total: ResourceVector::new(),
            unplaceable: 0,
            probe_prunes: 0,
            obs: udc_telemetry::Telemetry::disabled(),
        }
    }

    /// Installs the observability hub: each [`ServerCluster::pack_all`]
    /// reports its segment-tree prune count to the
    /// `sched.binpack.seg_prunes` counter and logs one audit decision
    /// record summarizing the pass.
    pub fn set_observer(&mut self, obs: udc_telemetry::Telemetry) {
        self.obs = obs;
    }

    /// Subtrees the segment-tree probe has pruned so far (candidates
    /// skipped without per-server evaluation).
    pub fn probe_prunes(&self) -> u64 {
        self.probe_prunes
    }

    /// Packs one demand, opening a new server if necessary. Returns the
    /// server index, or `None` when the demand exceeds the shape itself.
    pub fn place(&mut self, demand: &ResourceVector, algo: PackAlgo) -> Option<usize> {
        if !demand.fits_in(&self.shape.capacity) {
            self.unplaceable += 1;
            return None;
        }
        let chosen = match algo {
            PackAlgo::FirstFitDecreasing => {
                let (hit, prunes) = self.max_tree.leftmost_fit_counted(demand);
                self.probe_prunes += prunes;
                hit
            }
            PackAlgo::BestFit => best_fit(&self.open, demand),
        };
        let idx = match chosen {
            Some(i) => i,
            None => {
                self.open.push(self.shape.capacity.clone());
                let i = self.open.len() - 1;
                self.max_tree.push(&self.open[i]);
                i
            }
        };
        self.open[idx].saturating_sub_assign(demand);
        self.max_tree.update(idx, &self.open[idx]);
        self.used_total.saturating_add_assign(demand);
        Some(idx)
    }

    /// Packs one demand like [`ServerCluster::place`], but refuses to
    /// grow the fleet beyond `max_servers` — the fixed-fleet admission
    /// model of experiment E4. Returns `None` (without side effects)
    /// when the demand fits no open server and the fleet is at its cap.
    pub fn place_bounded(
        &mut self,
        demand: &ResourceVector,
        algo: PackAlgo,
        max_servers: usize,
    ) -> Option<usize> {
        if !demand.fits_in(&self.shape.capacity) {
            self.unplaceable += 1;
            return None;
        }
        let (fit, prunes) = self.max_tree.leftmost_fit_counted(demand);
        self.probe_prunes += prunes;
        if fit.is_none() && self.open.len() >= max_servers {
            return None;
        }
        self.place(demand, algo)
    }

    /// Packs a whole workload (sorted decreasing for FFD; as-given for
    /// best-fit) and reports the outcome.
    pub fn pack_all(&mut self, demands: &[ResourceVector], algo: PackAlgo) -> PackOutcome {
        let prunes_before = self.probe_prunes;
        let mut items: Vec<(u64, &ResourceVector)> =
            demands.iter().map(|d| (d.scalar_size(), d)).collect();
        if algo == PackAlgo::FirstFitDecreasing {
            // Precomputed keys; the stable sort keeps ties in input
            // order, as the seed's sort_by_key did.
            items.sort_by_key(|&(size, _)| std::cmp::Reverse(size));
        }
        for (_, d) in items {
            self.place(d, algo);
        }
        if self.obs.is_enabled() {
            let prunes = self.probe_prunes - prunes_before;
            self.obs.incr(
                "sched.binpack.seg_prunes",
                udc_telemetry::Labels::none(),
                prunes,
            );
            self.obs.decide(udc_telemetry::Decision {
                ctx: None,
                stage: "sched.binpack",
                module: "-",
                candidate: "-",
                accepted: true,
                reason: udc_telemetry::ReasonCode::Prune,
                score: None,
                detail: format!(
                    "pruned={prunes} demands={} servers={}",
                    demands.len(),
                    self.open.len()
                ),
            });
        }
        self.outcome()
    }

    /// The current outcome.
    pub fn outcome(&self) -> PackOutcome {
        let provisioned = self.shape.capacity.scaled(self.open.len() as u64);
        let utilization = ResourceKind::ALL
            .into_iter()
            .filter(|k| provisioned.get(*k) > 0)
            .map(|k| (k, self.used_total.get(k), provisioned.get(k)))
            .collect();
        PackOutcome {
            servers_used: self.open.len(),
            unplaceable: self.unplaceable,
            utilization,
        }
    }

    /// Servers opened so far.
    pub fn servers_used(&self) -> usize {
        self.open.len()
    }
}

/// The seed bin-packer, retained verbatim as the reference the indexed
/// [`ServerCluster`] is proven against (property tests) and benchmarked
/// against (`bench_control_plane`). Re-scans every open server per
/// demand.
///
/// Not part of the supported API surface; use [`ServerCluster`].
#[derive(Debug, Clone)]
pub struct NaiveServerCluster {
    shape: ServerShape,
    open: Vec<ResourceVector>,
    used_total: ResourceVector,
    unplaceable: usize,
}

impl NaiveServerCluster {
    /// Creates an empty cluster of the given shape.
    pub fn new(shape: ServerShape) -> Self {
        Self {
            shape,
            open: Vec::new(),
            used_total: ResourceVector::new(),
            unplaceable: 0,
        }
    }

    /// Packs one demand — the seed linear scan.
    pub fn place(&mut self, demand: &ResourceVector, algo: PackAlgo) -> Option<usize> {
        if !demand.fits_in(&self.shape.capacity) {
            self.unplaceable += 1;
            return None;
        }
        let chosen = match algo {
            PackAlgo::FirstFitDecreasing => self.open.iter().position(|free| demand.fits_in(free)),
            PackAlgo::BestFit => best_fit(&self.open, demand),
        };
        let idx = match chosen {
            Some(i) => i,
            None => {
                self.open.push(self.shape.capacity.clone());
                self.open.len() - 1
            }
        };
        self.open[idx] = self.open[idx].saturating_sub(demand);
        self.used_total = self.used_total.saturating_add(demand);
        Some(idx)
    }

    /// Bounded placement — the seed full scan.
    pub fn place_bounded(
        &mut self,
        demand: &ResourceVector,
        algo: PackAlgo,
        max_servers: usize,
    ) -> Option<usize> {
        if !demand.fits_in(&self.shape.capacity) {
            self.unplaceable += 1;
            return None;
        }
        let fits_open = self.open.iter().any(|free| demand.fits_in(free));
        if !fits_open && self.open.len() >= max_servers {
            return None;
        }
        self.place(demand, algo)
    }

    /// Packs a whole workload and reports the outcome.
    pub fn pack_all(&mut self, demands: &[ResourceVector], algo: PackAlgo) -> PackOutcome {
        let mut items: Vec<&ResourceVector> = demands.iter().collect();
        if algo == PackAlgo::FirstFitDecreasing {
            items.sort_by_key(|d| std::cmp::Reverse(d.scalar_size()));
        }
        for d in items {
            self.place(d, algo);
        }
        self.outcome()
    }

    /// The current outcome.
    pub fn outcome(&self) -> PackOutcome {
        let provisioned = self.shape.capacity.scaled(self.open.len() as u64);
        let utilization = ResourceKind::ALL
            .into_iter()
            .filter(|k| provisioned.get(*k) > 0)
            .map(|k| (k, self.used_total.get(k), provisioned.get(k)))
            .collect();
        PackOutcome {
            servers_used: self.open.len(),
            unplaceable: self.unplaceable,
            utilization,
        }
    }

    /// Servers opened so far.
    pub fn servers_used(&self) -> usize {
        self.open.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(cpu: u64, dram: u64) -> ResourceVector {
        ResourceVector::new()
            .with(ResourceKind::Cpu, cpu)
            .with(ResourceKind::Dram, dram)
    }

    #[test]
    fn opens_servers_on_demand() {
        let mut c = ServerCluster::new(ServerShape::standard(0));
        // 64-core servers; three 40-core jobs need three servers (40+40
        // does not fit one).
        for _ in 0..3 {
            assert!(c
                .place(&demand(40, 1024), PackAlgo::FirstFitDecreasing)
                .is_some());
        }
        assert_eq!(c.servers_used(), 3);
    }

    #[test]
    fn small_jobs_share_servers() {
        let mut c = ServerCluster::new(ServerShape::standard(0));
        for _ in 0..8 {
            c.place(&demand(8, 1024), PackAlgo::FirstFitDecreasing);
        }
        assert_eq!(c.servers_used(), 1, "8×8 cores fit one 64-core server");
    }

    #[test]
    fn oversized_demand_unplaceable() {
        let mut c = ServerCluster::new(ServerShape::standard(0));
        assert!(c.place(&demand(100, 0), PackAlgo::BestFit).is_none());
        assert_eq!(c.outcome().unplaceable, 1);
        assert_eq!(c.servers_used(), 0);
    }

    #[test]
    fn gpu_demand_needs_gpu_shape() {
        let mut plain = ServerCluster::new(ServerShape::standard(0));
        let gpu_demand = ResourceVector::new().with(ResourceKind::Gpu, 1);
        assert!(plain.place(&gpu_demand, PackAlgo::BestFit).is_none());
        let mut gpu = ServerCluster::new(ServerShape::standard(8));
        assert!(gpu.place(&gpu_demand, PackAlgo::BestFit).is_some());
    }

    #[test]
    fn best_fit_packs_tighter_or_equal() {
        // A workload where FFD and best-fit may differ; both must place
        // everything and best-fit never uses more servers in this
        // construction.
        let demands: Vec<ResourceVector> = (0..40).map(|i| demand(8 + (i % 5) * 8, 4096)).collect();
        let ffd = ServerCluster::new(ServerShape::standard(0))
            .pack_all(&demands, PackAlgo::FirstFitDecreasing);
        let bf = ServerCluster::new(ServerShape::standard(0)).pack_all(&demands, PackAlgo::BestFit);
        assert_eq!(ffd.unplaceable, 0);
        assert_eq!(bf.unplaceable, 0);
        assert!(ffd.servers_used > 0 && bf.servers_used > 0);
    }

    #[test]
    fn utilization_reflects_stranding() {
        // One 1-core job opens a whole 64-core server: utilization is
        // terrible — the effect UDC's exact-fit allocation removes.
        let mut c = ServerCluster::new(ServerShape::standard(0));
        c.place(&demand(1, 1024), PackAlgo::BestFit);
        let out = c.outcome();
        assert!(out.mean_utilization() < 0.02, "{}", out.mean_utilization());
    }

    #[test]
    fn mean_utilization_empty_cluster_zero() {
        let c = ServerCluster::new(ServerShape::standard(0));
        assert_eq!(c.outcome().mean_utilization(), 0.0);
    }

    #[test]
    fn indexed_matches_naive_on_mixed_workload() {
        // A deterministic mixed workload exercising both algorithms;
        // random traces live in tests/prop_binpack_equiv.rs.
        let demands: Vec<ResourceVector> = (0..200)
            .map(|i| demand(1 + (i * 7) % 63, 512 + (i * 131) % 8192))
            .collect();
        for algo in [PackAlgo::FirstFitDecreasing, PackAlgo::BestFit] {
            let mut fast = ServerCluster::new(ServerShape::standard(0));
            let mut naive = NaiveServerCluster::new(ServerShape::standard(0));
            for d in &demands {
                assert_eq!(fast.place(d, algo), naive.place(d, algo));
            }
            assert_eq!(fast.outcome(), naive.outcome());
        }
    }

    #[test]
    fn zero_demand_is_placed_like_seed() {
        let zero = ResourceVector::new();
        let mut fast = ServerCluster::new(ServerShape::standard(0));
        let mut naive = NaiveServerCluster::new(ServerShape::standard(0));
        // First zero demand opens a server in both, the next reuses it.
        assert_eq!(
            fast.place(&zero, PackAlgo::BestFit),
            naive.place(&zero, PackAlgo::BestFit)
        );
        assert_eq!(
            fast.place(&zero, PackAlgo::FirstFitDecreasing),
            naive.place(&zero, PackAlgo::FirstFitDecreasing)
        );
        assert_eq!(fast.outcome(), naive.outcome());
    }
}

#[cfg(test)]
mod bounded_tests {
    use super::*;

    #[test]
    fn bounded_placement_respects_fleet_cap() {
        let mut c = ServerCluster::new(ServerShape::standard(0));
        let big = ResourceVector::new().with(ResourceKind::Cpu, 40);
        assert!(c.place_bounded(&big, PackAlgo::BestFit, 2).is_some());
        assert!(c.place_bounded(&big, PackAlgo::BestFit, 2).is_some());
        // Fleet full; a third 40-core job fits no open server.
        assert!(c.place_bounded(&big, PackAlgo::BestFit, 2).is_none());
        assert_eq!(c.servers_used(), 2);
        // A small job still fits the open servers' leftovers.
        let small = ResourceVector::new().with(ResourceKind::Cpu, 8);
        assert!(c.place_bounded(&small, PackAlgo::BestFit, 2).is_some());
    }
}
