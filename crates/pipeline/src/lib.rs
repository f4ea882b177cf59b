//! The end-to-end experiment pipeline (paper §4).
//!
//! Reproduces the paper's compilation and measurement flow for one
//! program and one scheduler:
//!
//! ```text
//! block ──DAG──► schedule pass 1 (virtual regs)
//!       ──linear-scan regalloc (FIFO spill pool)──► spill-augmented block
//!       ──DAG──► schedule pass 2 (physical regs)
//!       ──cpusim × memsim, 30 seeded runs──► cycle samples
//!       ──bootstrap (100 resampled means, frequency-weighted)──► program runtime
//! ```
//!
//! [`Pipeline::compile`] performs the two scheduling passes around
//! register allocation (§4.1); [`evaluate`] runs the §4.3 measurement
//! protocol; [`compare`] pairs two evaluations into the percentage
//! improvement the paper's tables report. A [`StageMemo`] runs the same
//! compile and measurement incrementally across many scheduling choices,
//! memory systems and processors for one function (the autotuner's inner
//! loop, and each benchmark's cells in the table harness).
//!
//! # Example
//!
//! ```
//! use bsched_core::Ratio;
//! use bsched_cpusim::ProcessorModel;
//! use bsched_memsim::CacheModel;
//! use bsched_pipeline::{compare, evaluate, EvalConfig, Pipeline, SchedulerChoice};
//! use bsched_ir::{BlockBuilder, Function};
//!
//! let mut b = BlockBuilder::new("kernel");
//! let region = b.fresh_region();
//! let base = b.def_int("base");
//! let x = b.load_region("x", region, base, Some(0));
//! let y = b.load_region("y", region, base, Some(8));
//! let s = b.fadd("s", x, y);
//! b.store_region(region, s, base, Some(16));
//! let program = Function::new("demo", vec![b.finish()]);
//!
//! let pipeline = Pipeline::default();
//! let balanced = pipeline.compile(&program, &SchedulerChoice::balanced()).unwrap();
//! let traditional =
//!     pipeline.compile(&program, &SchedulerChoice::traditional(Ratio::from_int(2))).unwrap();
//! let eval = EvalConfig { processor: ProcessorModel::Unlimited, ..EvalConfig::default() };
//! let mem = CacheModel::l80_5();
//! let b_eval = evaluate(&balanced, &mem, &eval);
//! let t_eval = evaluate(&traditional, &mem, &eval);
//! let improvement = compare(&t_eval, &b_eval);
//! assert!(improvement.mean_percent.is_finite());
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod error;
pub mod eval;
pub mod memo;
pub mod pipeline;
pub mod policy;

pub use config::check_environment;
pub use error::{AnalyzeError, PipelineError};
pub use eval::{
    compare, evaluate, evaluate_serial, try_evaluate, try_evaluate_serial, EvalConfig, ProgramEval,
    DEFAULT_CYCLE_BUDGET,
};
pub use memo::{MemoProgram, StageMemo};
pub use pipeline::{
    AllocationStrategy, AnalysisGate, CompiledBlock, CompiledProgram, Pipeline, SchedulerChoice,
};
pub use policy::{PolicyParseError, PolicySpec, WeightFamily, POLICY_ARTIFACT_VERSION};
