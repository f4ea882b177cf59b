//! The simulator's golden corpus, shared by the golden digest here and
//! by the timeline validator's test in `bsched-verify`.

use bsched_core::{BalancedWeights, ListScheduler};
use bsched_cpusim::ProcessorModel;
use bsched_dag::{build_dag, AliasModel};
use bsched_ir::BasicBlock;
use bsched_memsim::{
    CacheModel, FixedLatency, LatencyModel, LineCache, MarkovNetworkModel, MemorySystem,
    MixedModel, NetworkModel,
};
use bsched_regalloc::{allocate, AllocatorConfig};
use bsched_workload::{lower_kernel, parse_program, perfect_club};

/// Each stand-in block and each `kernels/*.bsk` kernel, twice: in source
/// order on virtual registers, and balanced-scheduled then allocated
/// onto physical registers (with spill code), as the pipeline runs it.
pub fn corpus() -> Vec<BasicBlock> {
    let mut source: Vec<BasicBlock> = perfect_club()
        .iter()
        .flat_map(|b| b.function().blocks().to_vec())
        .collect();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../kernels");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("kernels directory")
        .map(|e| e.expect("kernels entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "bsk"))
        .collect();
    paths.sort();
    for path in paths {
        let src = std::fs::read_to_string(&path).expect("kernel source");
        for pk in parse_program(&src).expect("shipped kernels parse") {
            source.push(lower_kernel(&pk.kernel, pk.frequency));
        }
    }
    let mut out = Vec::with_capacity(2 * source.len());
    for block in source {
        let dag = build_dag(&block, AliasModel::Fortran);
        let scheduled = ListScheduler::new()
            .run(&dag, &BalancedWeights::new())
            .apply(&block);
        let allocated = allocate(&scheduled, &AllocatorConfig::mips_default())
            .expect("corpus blocks allocate")
            .block;
        out.push(block);
        out.push(allocated);
    }
    out
}

/// One of each [`MemorySystem`] kind plus the two stateful models.
pub fn memories() -> Vec<Box<dyn LatencyModel>> {
    vec![
        Box::new(MemorySystem::Fixed(FixedLatency::new(5))),
        Box::new(MemorySystem::Cache(CacheModel::l80_10())),
        Box::new(MemorySystem::Network(NetworkModel::new(5.0, 2.0))),
        Box::new(MemorySystem::Mixed(MixedModel::l80_n30_5())),
        Box::new(LineCache::small_l1()),
        Box::new(MarkovNetworkModel::bursty()),
    ]
}

pub const MODELS: [ProcessorModel; 4] = [
    ProcessorModel::Unlimited,
    ProcessorModel::MaxOutstanding(8),
    ProcessorModel::MaxOutstanding(1),
    ProcessorModel::MaxLength(8),
];
