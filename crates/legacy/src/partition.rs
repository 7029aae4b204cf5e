//! The semi-automated partitioner (§4): profiler phase changes seed the
//! boundaries, developer hints adjust them, and a boundary-sliding
//! refinement minimizes cross-segment bytes.
//!
//! Segments are *contiguous* runs of blocks (the program is a trace;
//! cutting it means choosing boundaries), which keeps the transformation
//! semantics-preserving by construction: module order equals program
//! order.

use crate::program::{BlockId, LegacyProgram};
use std::collections::BTreeSet;

/// Developer hints ("developers can provide hints on where application
/// semantics transition in their code").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hint {
    /// Force a module boundary immediately before this block.
    SplitBefore(BlockId),
    /// Forbid a boundary immediately before this block (the two blocks
    /// belong to one semantic unit).
    KeepWithPrevious(BlockId),
}

/// Partitioner parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionConfig {
    /// Upper bound on modules produced (cloud-management overhead cap).
    pub max_modules: usize,
    /// Minimum work units per module (avoid trivially small modules
    /// whose startup overhead dominates — the E6 lesson).
    pub min_module_work: u64,
    /// Boundary-sliding refinement passes.
    pub refine_passes: usize,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        Self {
            max_modules: 8,
            min_module_work: 200,
            refine_passes: 4,
        }
    }
}

/// The result: contiguous segments, each a future UDC module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Segment index per block (non-decreasing, starting at 0).
    pub segment_of: Vec<usize>,
    /// Number of segments.
    pub segments: usize,
    /// Bytes crossing segment boundaries under this partition.
    pub cut_bytes: u64,
}

impl Partition {
    /// The block ranges of each segment.
    pub fn ranges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut start = 0;
        for i in 1..=self.segment_of.len() {
            if i == self.segment_of.len() || self.segment_of[i] != self.segment_of[start] {
                out.push((start, i - 1));
                start = i;
            }
        }
        out
    }
}

/// Partitions a program.
///
/// Steps:
/// 1. Seed boundaries wherever the profiled [`crate::ResourcePhase`]
///    changes between consecutive blocks.
/// 2. Apply hints: forced splits are added, forbidden ones removed
///    (hints outrank the profiler — the developer is in the loop).
/// 3. Merge segments below `min_module_work` into their
///    cheaper-boundary neighbour, and merge the pair with the smallest
///    crossing weight while more than `max_modules` segments remain.
/// 4. Refinement: repeatedly slide each boundary one block left/right
///    when that reduces `cut_bytes` (respecting hints and bounds) —
///    "cuts a program into segments to minimize the number of
///    cross-segment dependencies".
pub fn partition(program: &LegacyProgram, hints: &[Hint], config: PartitionConfig) -> Partition {
    let n = program.len();
    let max_modules = config.max_modules.max(1);

    // Boundary set: `b` in the set means a cut between block b-1 and b.
    let mut boundaries: BTreeSet<usize> = BTreeSet::new();
    for i in 1..n {
        if program.blocks[i].phase != program.blocks[i - 1].phase {
            boundaries.insert(i);
        }
    }
    let mut forced: BTreeSet<usize> = BTreeSet::new();
    let mut forbidden: BTreeSet<usize> = BTreeSet::new();
    for h in hints {
        match h {
            Hint::SplitBefore(b) if b.0 > 0 && b.0 < n => {
                forced.insert(b.0);
            }
            Hint::KeepWithPrevious(b) if b.0 > 0 && b.0 < n => {
                forbidden.insert(b.0);
            }
            _ => {}
        }
    }
    for &b in &forbidden {
        boundaries.remove(&b);
    }
    for &b in &forced {
        if !forbidden.contains(&b) {
            boundaries.insert(b);
        }
    }

    let crossing = |b: usize| -> u64 {
        // Bytes that would stop being cut if boundary `b` were removed
        // and its two segments merged: flows crossing position b whose
        // endpoints land in the adjacent segments. Approximated by all
        // flows crossing position b (exact for pipeline-shaped flows,
        // conservative otherwise).
        program
            .flows
            .iter()
            .filter(|f| f.from.0 < b && f.to.0 >= b)
            .map(|f| f.bytes)
            .sum()
    };

    // Merge under-sized segments into the neighbour with the cheaper
    // boundary.
    loop {
        let segs = segments_from(&boundaries, n);
        let mut merged = false;
        for (s, e) in ranges_of(&segs) {
            let work: u64 = program.blocks[s..=e].iter().map(|b| b.work).sum();
            if work >= config.min_module_work || boundaries.is_empty() {
                continue;
            }
            let left = if s > 0 && !forced.contains(&s) {
                Some(s)
            } else {
                None
            };
            let right = if e + 1 < n && !forced.contains(&(e + 1)) {
                Some(e + 1)
            } else {
                None
            };
            let choice = match (left, right) {
                (Some(l), Some(r)) => Some(if crossing(l) >= crossing(r) { l } else { r }),
                (Some(l), None) => Some(l),
                (None, Some(r)) => Some(r),
                (None, None) => None,
            };
            if let Some(b) = choice {
                boundaries.remove(&b);
                merged = true;
                break;
            }
        }
        if !merged {
            break;
        }
    }

    // Respect the module cap: drop the cheapest removable boundary.
    while boundaries.len() + 1 > max_modules {
        let removable: Vec<usize> = boundaries
            .iter()
            .copied()
            .filter(|b| !forced.contains(b))
            .collect();
        let Some(&cheapest) = removable.iter().min_by_key(|&&b| crossing(b)) else {
            break; // All remaining boundaries are forced.
        };
        boundaries.remove(&cheapest);
    }

    // Boundary-sliding refinement.
    for _ in 0..config.refine_passes {
        let mut improved = false;
        let current: Vec<usize> = boundaries.iter().copied().collect();
        for b in current {
            if forced.contains(&b) {
                continue;
            }
            let base = program.cut_bytes(&segments_from(&boundaries, n));
            for candidate in [b.wrapping_sub(1), b + 1] {
                if candidate == 0
                    || candidate >= n
                    || boundaries.contains(&candidate)
                    || forbidden.contains(&candidate)
                {
                    continue;
                }
                boundaries.remove(&b);
                boundaries.insert(candidate);
                let cost = program.cut_bytes(&segments_from(&boundaries, n));
                if cost < base {
                    improved = true;
                    break;
                }
                boundaries.remove(&candidate);
                boundaries.insert(b);
            }
        }
        if !improved {
            break;
        }
    }

    let segment_of = segments_from(&boundaries, n);
    let segments = boundaries.len() + 1;
    let cut_bytes = program.cut_bytes(&segment_of);
    Partition {
        segment_of,
        segments,
        cut_bytes,
    }
}

fn segments_from(boundaries: &BTreeSet<usize>, n: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(n);
    let mut seg = 0;
    for i in 0..n {
        if boundaries.contains(&i) {
            seg += 1;
        }
        out.push(seg);
    }
    out
}

fn ranges_of(segment_of: &[usize]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut start = 0;
    for i in 1..=segment_of.len() {
        if i == segment_of.len() || segment_of[i] != segment_of[start] {
            out.push((start, i - 1));
            start = i;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::etl_ml_monolith;

    #[test]
    fn phase_changes_seed_boundaries() {
        let p = etl_ml_monolith();
        let part = partition(
            &p,
            &[],
            PartitionConfig {
                min_module_work: 0,
                max_modules: 100,
                refine_passes: 0,
            },
        );
        // Phases: io | cpu cpu | mem mem | cpu | gpu gpu gpu | cpu cpu | io
        // = 7 phase runs.
        assert_eq!(part.segments, 7);
    }

    #[test]
    fn segments_are_contiguous_and_ordered() {
        let p = etl_ml_monolith();
        let part = partition(&p, &[], PartitionConfig::default());
        for w in part.segment_of.windows(2) {
            assert!(
                w[1] == w[0] || w[1] == w[0] + 1,
                "contiguous non-decreasing"
            );
        }
        assert_eq!(*part.segment_of.first().unwrap(), 0);
        assert_eq!(*part.segment_of.last().unwrap() + 1, part.segments);
    }

    #[test]
    fn min_work_merges_small_segments() {
        let p = etl_ml_monolith();
        let part = partition(
            &p,
            &[],
            PartitionConfig {
                min_module_work: 500,
                max_modules: 100,
                refine_passes: 0,
            },
        );
        for (s, e) in part.ranges() {
            let work: u64 = p.blocks[s..=e].iter().map(|b| b.work).sum();
            assert!(
                work >= 500 || part.segments == 1,
                "segment {s}..={e} has work {work}"
            );
        }
    }

    #[test]
    fn max_modules_respected() {
        let p = etl_ml_monolith();
        let part = partition(
            &p,
            &[],
            PartitionConfig {
                max_modules: 3,
                min_module_work: 0,
                refine_passes: 2,
            },
        );
        assert!(part.segments <= 3);
    }

    #[test]
    fn forced_split_honoured() {
        let p = etl_ml_monolith();
        // Force a split inside the GPU run (between embed and train).
        let part = partition(
            &p,
            &[Hint::SplitBefore(BlockId(7))],
            PartitionConfig {
                max_modules: 100,
                min_module_work: 0,
                refine_passes: 0,
            },
        );
        assert_ne!(part.segment_of[6], part.segment_of[7], "hint split applied");
    }

    #[test]
    fn forbidden_split_honoured() {
        let p = etl_ml_monolith();
        // The profiler would cut before block 6 (cpu -> gpu); the
        // developer says featurize+embed are one semantic unit.
        let part = partition(
            &p,
            &[Hint::KeepWithPrevious(BlockId(6))],
            PartitionConfig {
                max_modules: 100,
                min_module_work: 0,
                refine_passes: 0,
            },
        );
        assert_eq!(part.segment_of[5], part.segment_of[6], "hint merge applied");
    }

    #[test]
    fn refinement_never_increases_cut() {
        let p = etl_ml_monolith();
        let unrefined = partition(
            &p,
            &[],
            PartitionConfig {
                refine_passes: 0,
                ..Default::default()
            },
        );
        let refined = partition(
            &p,
            &[],
            PartitionConfig {
                refine_passes: 8,
                ..Default::default()
            },
        );
        assert!(refined.cut_bytes <= unrefined.cut_bytes);
    }

    #[test]
    fn partition_beats_naive_uniform_cut() {
        // The objective is real: the phase+refine partition cuts fewer
        // bytes than chopping into equal thirds.
        let p = etl_ml_monolith();
        let smart = partition(
            &p,
            &[],
            PartitionConfig {
                max_modules: 3,
                min_module_work: 0,
                refine_passes: 8,
            },
        );
        let uniform: Vec<usize> = (0..p.len()).map(|i| i * 3 / p.len()).collect();
        assert!(
            smart.cut_bytes <= p.cut_bytes(&uniform),
            "{} vs {}",
            smart.cut_bytes,
            p.cut_bytes(&uniform)
        );
    }
}
