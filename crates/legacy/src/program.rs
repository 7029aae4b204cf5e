//! The analyzed form of a legacy program: what static analysis plus a
//! profiling run produce (§4).

use std::collections::BTreeSet;

/// Index of a basic block / statement region in program order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub usize);

/// The resource-usage phase a profiler observed for a block
/// ("a profiling run could capture where resource usage patterns change
/// in the code").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ResourcePhase {
    /// CPU-bound computation.
    CpuBound,
    /// Accelerable kernels (dense linear algebra, inference).
    GpuAble,
    /// Memory-intensive (large working set).
    MemoryBound,
    /// Storage/network I/O dominated.
    IoBound,
}

/// One profiled block of the legacy program.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Block id (program order).
    pub id: BlockId,
    /// Human-readable label (function/region name).
    pub label: String,
    /// Profiled resource phase.
    pub phase: ResourcePhase,
    /// Profiled work in abstract units.
    pub work: u64,
    /// Peak working set in MiB.
    pub working_set_mib: u64,
}

/// A weighted dataflow dependency between blocks ("our static analysis
/// can infer dependencies").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flow {
    /// Producing block.
    pub from: BlockId,
    /// Consuming block (always later in program order: the analysis is
    /// over a run trace, so flows respect execution order).
    pub to: BlockId,
    /// Bytes crossing the dependency.
    pub bytes: u64,
}

/// The whole analyzed program.
#[derive(Debug, Clone, PartialEq)]
pub struct LegacyProgram {
    /// Blocks in program order.
    pub blocks: Vec<Block>,
    /// Dataflow edges (forward-only).
    pub flows: Vec<Flow>,
}

impl LegacyProgram {
    /// Creates a program, validating block ordering and flow direction.
    ///
    /// Returns `None` when blocks are not densely numbered in order or
    /// any flow goes backwards / out of range / self-loops.
    pub fn new(blocks: Vec<Block>, flows: Vec<Flow>) -> Option<Self> {
        if blocks.is_empty() {
            return None;
        }
        for (i, b) in blocks.iter().enumerate() {
            if b.id.0 != i {
                return None;
            }
        }
        let n = blocks.len();
        for f in &flows {
            if f.from.0 >= n || f.to.0 >= n || f.from.0 >= f.to.0 {
                return None;
            }
        }
        Some(Self { blocks, flows })
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True when the program has no blocks (never, post-construction).
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Total bytes crossing a given assignment of blocks to segments:
    /// the objective the partitioner minimizes.
    pub fn cut_bytes(&self, segment_of: &[usize]) -> u64 {
        self.flows
            .iter()
            .filter(|f| segment_of[f.from.0] != segment_of[f.to.0])
            .map(|f| f.bytes)
            .sum()
    }

    /// Distinct phases present.
    pub fn phases(&self) -> BTreeSet<ResourcePhase> {
        self.blocks.iter().map(|b| b.phase).collect()
    }
}

/// A synthetic-but-realistic ETL + ML monolith used by tests and the E16
/// experiment: ingest (I/O) → parse (CPU) → feature build (memory) →
/// train/infer (GPU-able) → postprocess (CPU) → write-out (I/O).
pub fn etl_ml_monolith() -> LegacyProgram {
    let spec: [(&str, ResourcePhase, u64, u64); 12] = [
        ("read_input", ResourcePhase::IoBound, 50, 256),
        ("decompress", ResourcePhase::CpuBound, 200, 512),
        ("parse_records", ResourcePhase::CpuBound, 400, 1024),
        ("dedupe", ResourcePhase::MemoryBound, 300, 8192),
        ("join_dims", ResourcePhase::MemoryBound, 500, 16384),
        ("featurize", ResourcePhase::CpuBound, 600, 2048),
        ("embed", ResourcePhase::GpuAble, 4000, 4096),
        ("train_epoch", ResourcePhase::GpuAble, 9000, 8192),
        ("evaluate", ResourcePhase::GpuAble, 1500, 4096),
        ("calibrate", ResourcePhase::CpuBound, 300, 1024),
        ("report", ResourcePhase::CpuBound, 100, 256),
        ("write_output", ResourcePhase::IoBound, 80, 512),
    ];
    let blocks: Vec<Block> = spec
        .iter()
        .enumerate()
        .map(|(i, (label, phase, work, ws))| Block {
            id: BlockId(i),
            label: (*label).to_string(),
            phase: *phase,
            work: *work,
            working_set_mib: *ws,
        })
        .collect();
    // Mostly pipeline flows (heavy between adjacent stages), plus a few
    // long-range ones (config read by many, model reused at evaluate).
    let mut flows = vec![
        Flow {
            from: BlockId(0),
            to: BlockId(1),
            bytes: 2 << 30,
        },
        Flow {
            from: BlockId(1),
            to: BlockId(2),
            bytes: 4 << 30,
        },
        Flow {
            from: BlockId(2),
            to: BlockId(3),
            bytes: 3 << 30,
        },
        Flow {
            from: BlockId(3),
            to: BlockId(4),
            bytes: 3 << 30,
        },
        Flow {
            from: BlockId(4),
            to: BlockId(5),
            bytes: 2 << 30,
        },
        Flow {
            from: BlockId(5),
            to: BlockId(6),
            bytes: 1 << 30,
        },
        Flow {
            from: BlockId(6),
            to: BlockId(7),
            bytes: 2 << 30,
        },
        Flow {
            from: BlockId(7),
            to: BlockId(8),
            bytes: 1 << 30,
        },
        Flow {
            from: BlockId(8),
            to: BlockId(9),
            bytes: 64 << 20,
        },
        Flow {
            from: BlockId(9),
            to: BlockId(10),
            bytes: 16 << 20,
        },
        Flow {
            from: BlockId(10),
            to: BlockId(11),
            bytes: 64 << 20,
        },
    ];
    flows.push(Flow {
        from: BlockId(0),
        to: BlockId(10),
        bytes: 1 << 20,
    }); // Config.
    flows.push(Flow {
        from: BlockId(7),
        to: BlockId(9),
        bytes: 256 << 20,
    }); // Model.
    LegacyProgram::new(blocks, flows).expect("well-formed by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monolith_well_formed() {
        let p = etl_ml_monolith();
        assert_eq!(p.len(), 12);
        assert_eq!(p.phases().len(), 4);
    }

    #[test]
    fn rejects_misordered_blocks() {
        let blocks = vec![Block {
            id: BlockId(5),
            label: "x".into(),
            phase: ResourcePhase::CpuBound,
            work: 1,
            working_set_mib: 1,
        }];
        assert!(LegacyProgram::new(blocks, vec![]).is_none());
    }

    #[test]
    fn rejects_backward_flows() {
        let blocks: Vec<Block> = (0..2)
            .map(|i| Block {
                id: BlockId(i),
                label: format!("b{i}"),
                phase: ResourcePhase::CpuBound,
                work: 1,
                working_set_mib: 1,
            })
            .collect();
        let backward = vec![Flow {
            from: BlockId(1),
            to: BlockId(0),
            bytes: 1,
        }];
        assert!(LegacyProgram::new(blocks.clone(), backward).is_none());
        let self_loop = vec![Flow {
            from: BlockId(0),
            to: BlockId(0),
            bytes: 1,
        }];
        assert!(LegacyProgram::new(blocks, self_loop).is_none());
    }

    #[test]
    fn cut_bytes_counts_cross_segment_only() {
        let p = etl_ml_monolith();
        // All in one segment: zero cut.
        assert_eq!(p.cut_bytes(&vec![0; p.len()]), 0);
        // Every block its own segment: every flow is cut.
        let all_cut: Vec<usize> = (0..p.len()).collect();
        let total: u64 = p.flows.iter().map(|f| f.bytes).sum();
        assert_eq!(p.cut_bytes(&all_cut), total);
    }

    fn blocks(phases: &[ResourcePhase]) -> Vec<Block> {
        let block = |(i, &phase)| Block {
            id: BlockId(i),
            label: format!("b{i}"),
            phase,
            work: 1,
            working_set_mib: 1,
        };
        phases.iter().enumerate().map(block).collect()
    }

    fn flow(from: usize, to: usize, bytes: u64) -> Flow {
        Flow {
            from: BlockId(from),
            to: BlockId(to),
            bytes,
        }
    }

    #[test]
    fn rejects_an_empty_program() {
        assert!(LegacyProgram::new(vec![], vec![]).is_none());
    }

    #[test]
    fn rejects_flows_past_the_last_block() {
        let two = blocks(&[ResourcePhase::CpuBound; 2]);
        assert!(LegacyProgram::new(two.clone(), vec![flow(0, 2, 1)]).is_none());
        assert!(LegacyProgram::new(two, vec![flow(0, 1, 1)]).is_some());
    }

    #[test]
    fn forward_flows_build_a_program_with_each_phase_once() {
        use ResourcePhase::{CpuBound, IoBound};
        let flows = vec![flow(0, 2, 7), flow(0, 1, 3)];
        let p = LegacyProgram::new(blocks(&[CpuBound, CpuBound, IoBound]), flows).unwrap();
        assert_eq!((p.len(), p.is_empty()), (3, false));
        assert_eq!(
            p.phases().into_iter().collect::<Vec<_>>(),
            [CpuBound, IoBound]
        );
        assert_eq!(
            p.cut_bytes(&[0, 0, 1]),
            7,
            "only the flow into block 2 is cut"
        );
    }
}
