//! Observable-equivalence proof for the indexed bin-packer: the seed's
//! linear-scan cluster (`NaiveServerCluster`, kept verbatim) and the
//! indexed `ServerCluster` place random demand streams side by side.
//! Every `place`/`place_bounded` decision and the final outcome must
//! match for both algorithms, so the segment tree is a pure speedup,
//! never a behavior change.

use proptest::prelude::*;
use udc_sched::{NaiveServerCluster, PackAlgo, ServerCluster, ServerShape};
use udc_spec::{ResourceKind, ResourceVector};

/// Demands spanning the interesting regimes: tiny, near-server-sized,
/// over-sized (unplaceable), zero-dimension heavy, and all-zero.
fn demand(cpu: u64, dram: u64, gpu: u64, ssd: u64) -> ResourceVector {
    ResourceVector::new()
        .with(ResourceKind::Cpu, cpu)
        .with(ResourceKind::Dram, dram)
        .with(ResourceKind::Gpu, gpu)
        .with(ResourceKind::Ssd, ssd)
}

proptest! {
    /// Step-by-step placement parity for both algorithms.
    #[test]
    fn indexed_cluster_matches_naive(
        stream in prop::collection::vec(
            (0u64..80, 0u64..300_000, 0u64..4, 0u64..2_500_000),
            1..120,
        ),
        bestfit in any::<bool>(),
    ) {
        let algo = if bestfit { PackAlgo::BestFit } else { PackAlgo::FirstFitDecreasing };
        let shape = ServerShape::standard(2);
        let mut naive = NaiveServerCluster::new(shape.clone());
        let mut indexed = ServerCluster::new(shape);
        for (cpu, dram, gpu, ssd) in stream {
            let d = demand(cpu, dram, gpu, ssd);
            prop_assert_eq!(
                naive.place(&d, algo),
                indexed.place(&d, algo),
                "place diverged"
            );
        }
        prop_assert_eq!(naive.outcome(), indexed.outcome(), "outcome diverged");
        prop_assert_eq!(naive.servers_used(), indexed.servers_used());
    }

    /// Fixed-fleet admission (`place_bounded`) agrees too — including
    /// the no-side-effect rejection when the fleet is capped.
    #[test]
    fn bounded_placement_matches_naive(
        stream in prop::collection::vec(
            (0u64..80, 0u64..300_000, 0u64..4, 0u64..2_500_000),
            1..120,
        ),
        cap in 1usize..6,
        bestfit in any::<bool>(),
    ) {
        let algo = if bestfit { PackAlgo::BestFit } else { PackAlgo::FirstFitDecreasing };
        let shape = ServerShape::standard(2);
        let mut naive = NaiveServerCluster::new(shape.clone());
        let mut indexed = ServerCluster::new(shape);
        for (cpu, dram, gpu, ssd) in stream {
            let d = demand(cpu, dram, gpu, ssd);
            prop_assert_eq!(
                naive.place_bounded(&d, algo, cap),
                indexed.place_bounded(&d, algo, cap),
                "place_bounded diverged"
            );
        }
        prop_assert_eq!(naive.outcome(), indexed.outcome());
    }

    /// Whole-workload packing (the FFD pre-sort path) agrees.
    #[test]
    fn pack_all_matches_naive(
        stream in prop::collection::vec(
            (0u64..80, 0u64..300_000, 0u64..4, 0u64..2_500_000),
            0..120,
        ),
        bestfit in any::<bool>(),
    ) {
        let algo = if bestfit { PackAlgo::BestFit } else { PackAlgo::FirstFitDecreasing };
        let demands: Vec<ResourceVector> =
            stream.into_iter().map(|(c, d, g, s)| demand(c, d, g, s)).collect();
        let shape = ServerShape::standard(2);
        prop_assert_eq!(
            NaiveServerCluster::new(shape.clone()).pack_all(&demands, algo),
            ServerCluster::new(shape).pack_all(&demands, algo)
        );
    }
}
