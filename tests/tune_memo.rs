//! Differential test for incremental candidate evaluation.
//!
//! The tuner compiles and measures every candidate through one
//! [`StageMemo`], which reuses pass-1 DAGs, weights, allocations and
//! block simulations across candidates. For every policy in the tuner's
//! candidate space — not only the ones a beam search visits — the
//! memoized compile must equal a fresh [`Pipeline::compile`] block for
//! block, and the memoized evaluation must equal
//! [`try_evaluate_serial`] bit for bit.

use balanced_scheduling::ir::Function;
use balanced_scheduling::memsim::MemorySystem;
use balanced_scheduling::pipeline::{
    try_evaluate_serial, EvalConfig, Pipeline, ProgramEval, SchedulerChoice, StageMemo,
};
use balanced_scheduling::tune::CandidateSpace;
use balanced_scheduling::verify::ValidationLevel;
use balanced_scheduling::workload::{lower_kernel, parse_program, perfect};

fn daxpy() -> Function {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/kernels/daxpy.bsk");
    let src = std::fs::read_to_string(path).expect("kernels/daxpy.bsk");
    let blocks = parse_program(&src)
        .expect("daxpy parses")
        .iter()
        .map(|k| lower_kernel(&k.kernel, k.frequency))
        .collect();
    Function::new("daxpy", blocks)
}

/// Everything an evaluation reports, as exact bit patterns.
fn bits(eval: &ProgramEval) -> (Vec<u64>, u64, u64, u64) {
    (
        eval.bootstrap_runtimes
            .iter()
            .map(|x| x.to_bits())
            .collect(),
        eval.mean_runtime.to_bits(),
        eval.dynamic_instructions.to_bits(),
        eval.mean_interlocks.to_bits(),
    )
}

/// Runs the whole candidate space through one memo and checks each
/// candidate against a fresh compile and serial evaluation.
fn check_space(function: &Function, validation: ValidationLevel) {
    let system: MemorySystem = "N(30,5)".parse().expect("system");
    let pipeline = Pipeline {
        validation,
        ..Pipeline::default()
    };
    let eval = EvalConfig {
        runs: 10,
        seed: 42,
        validation,
        ..EvalConfig::default()
    };
    let memo = StageMemo::new(pipeline, function.clone());
    let space = CandidateSpace::for_system(&system);
    for spec in space.enumerate() {
        let choice = SchedulerChoice::Tuned(spec);
        let name = spec.canonical();
        let fresh = pipeline.compile(function, &choice);
        let memoized = memo.compile(&choice);
        let (fresh, memoized) = match (fresh, memoized) {
            (Ok(f), Ok(m)) => (f, m),
            (Err(f), Err(m)) => {
                assert_eq!(f, m, "{name}: compile errors differ");
                continue;
            }
            (f, m) => panic!("{name}: fresh {:?} but memoized {:?}", f.err(), m.err()),
        };
        assert_eq!(fresh.blocks.len(), memoized.program().blocks.len());
        for (f, m) in fresh.blocks.iter().zip(&memoized.program().blocks) {
            assert_eq!(f.block, m.block, "{name}: compiled block differs");
            assert_eq!(f.spill_count, m.spill_count, "{name}: spill count differs");
        }
        let fresh = try_evaluate_serial(&fresh, &system, &eval);
        let memoized = memo.evaluate(&memoized, &system, &eval);
        match (fresh, memoized) {
            (Ok(f), Ok(m)) => assert_eq!(bits(&f), bits(&m), "{name}: score differs"),
            (Err(f), Err(m)) => assert_eq!(f, m, "{name}: evaluation errors differ"),
            (f, m) => panic!("{name}: fresh {:?} but memoized {:?}", f.err(), m.err()),
        }
    }
    // The comparison above is only worth something if the memo actually
    // served hits: every block's pass-1 DAG was built once, and far fewer
    // blocks were simulated than candidates times blocks.
    let counts = memo.counts();
    let blocks = function.blocks().len();
    assert_eq!(counts.dags.entries, blocks);
    assert!(
        counts.stats.entries < space.len() * blocks,
        "no simulation was reused: {counts:?}"
    );
}

#[test]
fn memoized_scores_match_fresh_compiles_on_daxpy() {
    check_space(&daxpy(), ValidationLevel::Off);
}

#[test]
fn memoized_scores_match_fresh_compiles_on_daxpy_at_full_validation() {
    check_space(&daxpy(), ValidationLevel::Full);
}

#[test]
fn memoized_scores_match_fresh_compiles_on_adm() {
    check_space(perfect::adm().function(), ValidationLevel::Off);
}

#[test]
fn memoized_scores_match_fresh_compiles_on_mdg() {
    check_space(perfect::mdg().function(), ValidationLevel::Off);
}
