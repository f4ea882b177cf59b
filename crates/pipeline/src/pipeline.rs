//! Compilation: two list-scheduling passes around register allocation.

use std::sync::Arc;

use bsched_analyze::{Analyzer, Severity};
use bsched_core::{Direction, ListScheduler, Ratio, Rounding, Schedule, Weights};
use bsched_dag::{build_dag, AliasModel, ChancesMethod, CodeDag};
use bsched_ir::{BasicBlock, Function, InstId};
use bsched_regalloc::{allocate, allocate_usage_count, rename_registers, AllocatorConfig};
use bsched_verify::{verify_allocation, verify_schedule, ValidationLevel};

use crate::error::{AnalyzeError, PipelineError};
use crate::memo::{through, StageMemo};
use crate::policy::{PolicySpec, WeightFamily};

/// Whether the static analyzer gates compilation (`bsched-analyze`).
///
/// The gate runs the correctness lints on each *input* block before the
/// first scheduling pass — catching malformed programs before they turn
/// into meaningless table cells. It must stay `Copy` (the [`Pipeline`]
/// is `Copy`), so it carries a policy, not a lint configuration; callers
/// needing per-lint control run an [`Analyzer`] themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AnalysisGate {
    /// No pre-scheduling analysis (default: compiled output is
    /// byte-identical to a build without the analyzer).
    #[default]
    Off,
    /// Fail compilation when any error-level lint fires.
    Check,
    /// Fail compilation when any lint fires at warn level or above.
    Strict,
}

impl AnalysisGate {
    /// Reads the `BSCHED_ANALYZE` environment variable
    /// (`off`/`check`/`strict`; unset or unrecognised means [`Off`](AnalysisGate::Off)).
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var("BSCHED_ANALYZE") {
            Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
                "check" | "1" => AnalysisGate::Check,
                "strict" => AnalysisGate::Strict,
                _ => AnalysisGate::Off,
            },
            Err(_) => AnalysisGate::Off,
        }
    }

    /// The lowest severity that blocks compilation, or `None` when off.
    #[must_use]
    pub fn blocking_severity(self) -> Option<Severity> {
        match self {
            AnalysisGate::Off => None,
            AnalysisGate::Check => Some(Severity::Error),
            AnalysisGate::Strict => Some(Severity::Warn),
        }
    }
}

/// Which register allocator the pipeline runs (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AllocationStrategy {
    /// The modern Belady-evicting linear scan (default).
    #[default]
    BeladyScan,
    /// The 1992-vintage usage-count, spill-everywhere allocator that
    /// recreates GCC 2.2.2's spill behaviour (Table 4's generator).
    UsageCount,
}

/// Which weight-assignment strategy drives both scheduling passes.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedulerChoice {
    /// The paper's balanced scheduler.
    Balanced {
        /// How `Chances` is computed (exact DP or the §3 approximation).
        method: ChancesMethod,
    },
    /// A traditional list scheduler with one optimistic load latency.
    Traditional {
        /// The assumed load latency (cache-hit time, effective access
        /// time, or network mean — Table 2's "Optimistic Latency").
        latency: Ratio,
    },
    /// The §3 block-average alternative (ablation).
    Average,
    /// A tuned policy discovered by `bsched-tune`: the policy's own
    /// rounding mode and tie-break chain override the pipeline defaults.
    Tuned(PolicySpec),
}

impl SchedulerChoice {
    /// Balanced scheduling with the exact `Chances` computation.
    #[must_use]
    pub fn balanced() -> Self {
        SchedulerChoice::Balanced {
            method: ChancesMethod::Exact,
        }
    }

    /// Traditional scheduling at `latency`.
    #[must_use]
    pub fn traditional(latency: Ratio) -> Self {
        SchedulerChoice::Traditional { latency }
    }

    /// Display name for experiment output.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            SchedulerChoice::Balanced {
                method: ChancesMethod::Exact,
            } => "balanced".to_owned(),
            SchedulerChoice::Balanced {
                method: ChancesMethod::LevelApprox,
            } => "balanced-approx".to_owned(),
            SchedulerChoice::Traditional { latency } => format!("traditional({latency})"),
            SchedulerChoice::Average => "average".to_owned(),
            SchedulerChoice::Tuned(spec) => format!("tuned({})", spec.canonical()),
        }
    }

    /// The canonical serialization that feeds content-addressed cache
    /// keys: every parameter of every variant is spelled out, so two
    /// choices compare equal if and only if they render the same string.
    /// (Contrast [`SchedulerChoice::name`], which is display-oriented:
    /// `traditional(2 3/5)` prints a mixed fraction, and a raw wire spec
    /// such as `traditional=13/5` would alias it differently.)
    #[must_use]
    pub fn canonical(&self) -> String {
        match self {
            SchedulerChoice::Balanced {
                method: ChancesMethod::Exact,
            } => "balanced".to_owned(),
            SchedulerChoice::Balanced {
                method: ChancesMethod::LevelApprox,
            } => "balanced-approx".to_owned(),
            SchedulerChoice::Traditional { latency } => {
                format!("traditional:{}/{}", latency.numer(), latency.denom())
            }
            SchedulerChoice::Average => "average".to_owned(),
            SchedulerChoice::Tuned(spec) => format!("policy:{}", spec.canonical()),
        }
    }

    /// The weight family a choice schedules with: the memo key that lets
    /// a tuned policy share weights with the plain choice it matches.
    fn family(&self) -> WeightFamily {
        match self {
            SchedulerChoice::Balanced { method } => WeightFamily::Balanced { method: *method },
            SchedulerChoice::Traditional { latency } => {
                WeightFamily::Traditional { latency: *latency }
            }
            SchedulerChoice::Average => WeightFamily::Average,
            SchedulerChoice::Tuned(spec) => spec.family,
        }
    }

    /// The scheduler a choice runs under a pipeline's defaults: a tuned
    /// policy carries its own rounding and tie-break chain; every other
    /// variant takes the pipeline's.
    fn scheduler(&self, direction: Direction, rounding: Rounding) -> ListScheduler {
        match self {
            SchedulerChoice::Tuned(spec) => ListScheduler::new()
                .with_direction(direction)
                .with_rounding(spec.rounding)
                .with_tie_breaks(spec.ties),
            _ => ListScheduler::new()
                .with_direction(direction)
                .with_rounding(rounding),
        }
    }
}

impl std::str::FromStr for SchedulerChoice {
    type Err = String;

    /// Parses the spelling shared by the CLI's `--scheduler` and the wire
    /// protocol's `scheduler` field: `balanced`, `balanced-approx`,
    /// `average`, `traditional=<latency>` or `policy:<canonical>`, a
    /// tuned policy inline as its canonical string (the `bsched tune`
    /// artifact's "canonical" field).
    fn from_str(s: &str) -> Result<SchedulerChoice, String> {
        match s {
            "balanced" => Ok(SchedulerChoice::balanced()),
            "balanced-approx" => Ok(SchedulerChoice::Balanced {
                method: ChancesMethod::LevelApprox,
            }),
            "average" => Ok(SchedulerChoice::Average),
            other => {
                if let Some(lat) = other.strip_prefix("traditional=") {
                    let latency: Ratio = lat
                        .parse()
                        .map_err(|e| format!("bad latency {lat:?}: {e}"))?;
                    Ok(SchedulerChoice::traditional(latency))
                } else if let Some(canonical) = other.strip_prefix("policy:") {
                    let spec =
                        PolicySpec::parse_canonical(canonical).map_err(|e| format!("{e}"))?;
                    Ok(SchedulerChoice::Tuned(spec))
                } else {
                    Err(format!("unknown scheduler {other:?}"))
                }
            }
        }
    }
}

/// One block after the full compilation flow.
#[derive(Debug, Clone)]
pub struct CompiledBlock {
    /// The final, scheduled, physically-allocated block.
    pub block: BasicBlock,
    /// Spill instructions the allocator inserted.
    pub spill_count: usize,
}

/// A whole program after compilation.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// Program name.
    pub name: String,
    /// Scheduler used, for reporting.
    pub scheduler: String,
    /// Compiled blocks, in original order.
    pub blocks: Vec<CompiledBlock>,
}

impl CompiledProgram {
    /// Frequency-weighted dynamic instruction count (`TIns`/`BIns` in
    /// Table 3).
    #[must_use]
    pub fn dynamic_instructions(&self) -> f64 {
        self.blocks
            .iter()
            .map(|b| b.block.len() as f64 * b.block.frequency())
            .sum()
    }

    /// Frequency-weighted dynamic spill-instruction count.
    #[must_use]
    pub fn dynamic_spills(&self) -> f64 {
        self.blocks
            .iter()
            .map(|b| b.spill_count as f64 * b.block.frequency())
            .sum()
    }

    /// Percentage of executed instructions that are spill code — the
    /// Table 4 statistic.
    #[must_use]
    pub fn spill_percent(&self) -> f64 {
        let total = self.dynamic_instructions();
        if total == 0.0 {
            0.0
        } else {
            self.dynamic_spills() / total * 100.0
        }
    }
}

/// The compilation pipeline configuration.
#[derive(Debug, Clone, Copy)]
pub struct Pipeline {
    /// Memory disambiguation discipline (Fortran for headline runs).
    pub alias: AliasModel,
    /// Scheduling direction (bottom-up, as in §4.1).
    pub direction: Direction,
    /// Fractional-weight rounding.
    pub rounding: Rounding,
    /// Register file and spill pool shape.
    pub allocator: AllocatorConfig,
    /// Which allocator runs between the scheduling passes.
    pub allocation: AllocationStrategy,
    /// Whether the post-allocation scheduling pass runs (§4.1; disabling
    /// it is an ablation that shows why GCC schedules twice).
    pub second_pass: bool,
    /// §4.1's alternative to the FIFO spill pool: software register
    /// renaming after allocation, breaking anti/output dependences before
    /// the second scheduling pass. Off by default (the paper shipped the
    /// FIFO pool).
    pub rename_after_alloc: bool,
    /// How much independent validation runs per block (see
    /// `bsched-verify`). Defaults to the `BSCHED_VALIDATE` environment
    /// variable; at [`ValidationLevel::Off`] the compiled output is
    /// byte-identical to a build without the validators.
    pub validation: ValidationLevel,
    /// Whether `bsched-analyze`'s correctness lints gate compilation.
    /// Defaults to the `BSCHED_ANALYZE` environment variable (off when
    /// unset).
    pub analysis: AnalysisGate,
}

impl Default for Pipeline {
    fn default() -> Self {
        Self {
            alias: AliasModel::Fortran,
            direction: Direction::BottomUp,
            rounding: Rounding::Nearest,
            allocator: AllocatorConfig::mips_default(),
            allocation: AllocationStrategy::default(),
            second_pass: true,
            rename_after_alloc: false,
            validation: ValidationLevel::from_env(),
            analysis: AnalysisGate::from_env(),
        }
    }
}

/// The allocator's output on one pass-1 order, renamed when the pipeline
/// renames after allocation, with the block's pass-2 DAG when the
/// pipeline schedules twice. Both depend only on the allocation's key.
#[derive(Debug, Clone)]
pub(crate) struct Allocated {
    block: BasicBlock,
    spill_count: usize,
    dag: Option<CodeDag>,
}

/// The two list-scheduling orders that fix a compiled block exactly,
/// given the pipeline and the input block: pass 1's order over the input
/// and pass 2's over the allocated block (empty without a second pass).
pub(crate) type OrderPair = (Vec<InstId>, Vec<InstId>);

impl Pipeline {
    /// Compiles one block: schedule → allocate → reschedule.
    ///
    /// # Errors
    ///
    /// Propagates allocation failures (register file too small for an
    /// instruction's operands) and, at [`ValidationLevel::Schedule`] or
    /// above, any finding from the independent validators: both
    /// scheduling passes are checked against a freshly built DAG, and at
    /// [`ValidationLevel::Full`] the allocated block is value-flow
    /// checked against its pre-allocation input.
    pub fn compile_block(
        &self,
        block: &BasicBlock,
        choice: &SchedulerChoice,
    ) -> Result<CompiledBlock, PipelineError> {
        self.compile_stages(block, choice, None)
            .map(|(compiled, _)| compiled)
    }

    /// The one compile body, run stage by stage. With `memo` — a
    /// [`StageMemo`] and the block's index in its function — each stage
    /// that does not depend on the whole candidate is looked up before it
    /// is computed, and the block's [`OrderPair`] comes back as the key of
    /// its simulation results; without, every stage is computed.
    pub(crate) fn compile_stages(
        &self,
        block: &BasicBlock,
        choice: &SchedulerChoice,
        memo: Option<(&StageMemo, usize)>,
    ) -> Result<(CompiledBlock, Option<OrderPair>), PipelineError> {
        self.analysis_gate(block)?;
        let family = choice.family();
        let assigner = family.assigner();
        let scheduler = choice.scheduler(self.direction, self.rounding);

        // Pass 1: virtual registers, maximal freedom.
        let dag1 = through(memo.map(|(m, b)| (&m.dags, b)), || {
            Arc::new(build_dag(block, self.alias))
        });
        let weights1 = through(memo.map(|(m, b)| (&m.weights1, (b, family))), || {
            Arc::new(assigner.assign(&dag1))
        });
        let sched1 = self.schedule_pass(block, &dag1, &weights1, &scheduler)?;

        // Register allocation on the pass-1 order.
        let alloc = through(
            memo.map(|(m, b)| (&m.allocs, (b, sched1.order().to_vec()))),
            || self.allocate_stage(&sched1.apply(block)).map(Arc::new),
        )?;

        // Pass 2: integrate spill code under physical-register deps, on
        // the DAG the allocation stage built with the allocated block.
        let spill_count = alloc.spill_count;
        let (final_block, order2) = match &alloc.dag {
            Some(dag2) => {
                let weights2 = through(
                    memo.map(|(m, b)| (&m.weights2, (b, sched1.order().to_vec(), family))),
                    || Arc::new(assigner.assign(dag2)),
                );
                let sched2 = self.schedule_pass(&alloc.block, dag2, &weights2, &scheduler)?;
                (sched2.apply(&alloc.block), sched2.order().to_vec())
            }
            None => (Arc::unwrap_or_clone(alloc).block, Vec::new()),
        };

        let compiled = CompiledBlock {
            block: final_block,
            spill_count,
        };
        Ok((compiled, memo.map(|_| (sched1.order().to_vec(), order2))))
    }

    /// Optional pre-scheduling gate: reject blocks the static analyzer
    /// can prove degenerate before spending any scheduling or simulation
    /// work on them.
    fn analysis_gate(&self, block: &BasicBlock) -> Result<(), PipelineError> {
        let Some(threshold) = self.analysis.blocking_severity() else {
            return Ok(());
        };
        let diags = Analyzer::new(self.alias).analyze_block(block, None);
        let blocking: Vec<_> = diags
            .into_iter()
            .filter(|d| d.severity >= threshold)
            .collect();
        if blocking.is_empty() {
            Ok(())
        } else {
            Err(AnalyzeError {
                block: block.name().to_owned(),
                diagnostics: blocking,
            }
            .into())
        }
    }

    /// One list-scheduling pass over `block` under precomputed weights,
    /// checked against a freshly built DAG at [`ValidationLevel::Schedule`]
    /// and above.
    fn schedule_pass(
        &self,
        block: &BasicBlock,
        dag: &CodeDag,
        weights: &Weights,
        scheduler: &ListScheduler,
    ) -> Result<Schedule, PipelineError> {
        let sched = scheduler.run_with_weights(dag, weights);
        debug_assert!(sched.verify(dag).is_ok());
        if self.validation >= ValidationLevel::Schedule {
            verify_schedule(block, sched.order(), self.alias)?;
        }
        Ok(sched)
    }

    /// Register allocation on a pass-1-ordered block, then optional
    /// renaming, value-flow checked at [`ValidationLevel::Full`], and the
    /// pass-2 DAG of the result.
    fn allocate_stage(&self, ordered: &BasicBlock) -> Result<Allocated, PipelineError> {
        let alloc = match self.allocation {
            AllocationStrategy::BeladyScan => allocate(ordered, &self.allocator)?,
            AllocationStrategy::UsageCount => allocate_usage_count(ordered, &self.allocator)?,
        };
        let spill_count = alloc.spill_count();
        let block = if self.rename_after_alloc {
            rename_registers(&alloc.block, &self.allocator)
        } else {
            alloc.block
        };
        if self.validation >= ValidationLevel::Full {
            verify_allocation(ordered, &block, &self.allocator)?;
        }
        let dag = self.second_pass.then(|| build_dag(&block, self.alias));
        Ok(Allocated {
            block,
            spill_count,
            dag,
        })
    }

    /// Compiles every block of `func`.
    ///
    /// # Errors
    ///
    /// Propagates the first block's allocation or validation failure.
    pub fn compile(
        &self,
        func: &Function,
        choice: &SchedulerChoice,
    ) -> Result<CompiledProgram, PipelineError> {
        self.compile_function(func, choice, None)
            .map(|(program, _)| program)
    }

    /// Compiles every block of `func` through [`compile_stages`](Self::compile_stages),
    /// returning each block's [`OrderPair`] when compiling through `memo`
    /// (and none without).
    pub(crate) fn compile_function(
        &self,
        func: &Function,
        choice: &SchedulerChoice,
        memo: Option<&StageMemo>,
    ) -> Result<(CompiledProgram, Vec<OrderPair>), PipelineError> {
        let mut blocks = Vec::with_capacity(func.blocks().len());
        let mut orders = Vec::new();
        for (index, block) in func.blocks().iter().enumerate() {
            let (compiled, pair) = self.compile_stages(block, choice, memo.map(|m| (m, index)))?;
            blocks.push(compiled);
            orders.extend(pair);
        }
        let program = CompiledProgram {
            name: func.name().to_owned(),
            scheduler: choice.name(),
            blocks,
        };
        Ok((program, orders))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsched_ir::BlockBuilder;

    fn pressure_block(n: usize) -> BasicBlock {
        let mut b = BlockBuilder::new("p");
        b.set_frequency(10.0);
        let region = b.fresh_region();
        let base = b.def_int("base");
        let vals: Vec<_> = (0..n)
            .map(|k| b.load_region("l", region, base, Some(8 * k as i64)))
            .collect();
        let mut acc = vals[0];
        for &v in vals.iter().rev() {
            acc = b.fadd("a", acc, v);
        }
        b.store_region(region, acc, base, Some(10_000));
        b.finish()
    }

    #[test]
    fn compile_block_produces_physical_schedule() {
        let block = pressure_block(6);
        let out = Pipeline::default()
            .compile_block(&block, &SchedulerChoice::balanced())
            .unwrap();
        assert_eq!(out.block.len(), block.len() + out.spill_count);
        assert!(out.block.insts().iter().all(|i| i
            .defs()
            .iter()
            .chain(i.uses())
            .all(|r| !r.is_virt())));
        assert_eq!(out.block.frequency(), 10.0);
    }

    #[test]
    fn pressure_forces_spills_through_pipeline() {
        let block = pressure_block(30);
        let out = Pipeline::default()
            .compile_block(&block, &SchedulerChoice::balanced())
            .unwrap();
        assert!(out.spill_count > 0);
        assert_eq!(out.block.spill_count(), out.spill_count);
    }

    #[test]
    fn compile_program_statistics() {
        let func = Function::new("f", vec![pressure_block(4), pressure_block(25)]);
        let prog = Pipeline::default()
            .compile(&func, &SchedulerChoice::traditional(Ratio::from_int(2)))
            .unwrap();
        assert_eq!(prog.blocks.len(), 2);
        assert!(prog.dynamic_instructions() > 0.0);
        assert!(prog.spill_percent() >= 0.0);
        assert_eq!(prog.scheduler, "traditional(2)");
        // Spill percent consistency.
        let manual = prog.dynamic_spills() / prog.dynamic_instructions() * 100.0;
        assert!((prog.spill_percent() - manual).abs() < 1e-12);
    }

    #[test]
    fn second_pass_can_be_disabled() {
        let block = pressure_block(25);
        let with_pass = Pipeline::default();
        let without_pass = Pipeline {
            second_pass: false,
            ..Pipeline::default()
        };
        let a = with_pass
            .compile_block(&block, &SchedulerChoice::balanced())
            .unwrap();
        let b = without_pass
            .compile_block(&block, &SchedulerChoice::balanced())
            .unwrap();
        // Same instructions, possibly different order.
        assert_eq!(a.block.len(), b.block.len());
        assert_eq!(a.spill_count, b.spill_count);
    }

    #[test]
    fn compilation_is_deterministic() {
        // End-to-end: two compilations of the same function are
        // bit-identical (guards against map-iteration-order leaks
        // anywhere in the pipeline).
        let func = Function::new("f", vec![pressure_block(25), pressure_block(6)]);
        let pipeline = Pipeline {
            rename_after_alloc: true,
            ..Pipeline::default()
        };
        let a = pipeline
            .compile(&func, &SchedulerChoice::balanced())
            .unwrap();
        let b = pipeline
            .compile(&func, &SchedulerChoice::balanced())
            .unwrap();
        for (x, y) in a.blocks.iter().zip(&b.blocks) {
            assert_eq!(x.block, y.block);
            assert_eq!(x.spill_count, y.spill_count);
        }
    }

    #[test]
    fn full_validation_passes_over_every_pipeline_variant() {
        // The independent validators must find nothing to complain
        // about in the real pipeline, whichever allocator, renaming
        // mode and scheduler drive it.
        let block = pressure_block(30);
        let schedulers = [
            SchedulerChoice::balanced(),
            SchedulerChoice::traditional(Ratio::from_int(2)),
            SchedulerChoice::Average,
        ];
        for allocation in [
            AllocationStrategy::BeladyScan,
            AllocationStrategy::UsageCount,
        ] {
            for rename_after_alloc in [false, true] {
                let pipeline = Pipeline {
                    allocation,
                    rename_after_alloc,
                    validation: ValidationLevel::Full,
                    ..Pipeline::default()
                };
                for scheduler in &schedulers {
                    pipeline
                        .compile_block(&block, scheduler)
                        .unwrap_or_else(|e| {
                            panic!("{allocation:?}/rename={rename_after_alloc}: {e}")
                        });
                }
            }
        }
    }

    #[test]
    fn analysis_gate_blocks_bad_blocks_and_passes_clean_ones() {
        let pipeline = Pipeline {
            analysis: AnalysisGate::Check,
            ..Pipeline::default()
        };
        // A clean block sails through.
        pipeline
            .compile_block(&pressure_block(6), &SchedulerChoice::balanced())
            .unwrap();

        // A dead store (error-level lint) is rejected before scheduling.
        let mut b = BlockBuilder::new("bad");
        let region = b.fresh_region();
        let base = b.def_int("base");
        let x = b.load_region("x", region, base, Some(8));
        b.store_region(region, x, base, Some(0));
        b.store_region(region, x, base, Some(0));
        let err = pipeline
            .compile_block(&b.finish(), &SchedulerChoice::balanced())
            .unwrap_err();
        match err {
            PipelineError::Analyze(e) => {
                assert_eq!(e.block, "bad");
                assert_eq!(e.diagnostics.len(), 1);
                assert_eq!(e.diagnostics[0].lint.id(), "dead-store");
            }
            other => panic!("expected analysis rejection, got {other}"),
        }
    }

    #[test]
    fn analysis_gate_off_ignores_bad_blocks() {
        let mut b = BlockBuilder::new("bad");
        let region = b.fresh_region();
        let base = b.def_int("base");
        let x = b.load_region("x", region, base, Some(8));
        b.store_region(region, x, base, Some(0));
        b.store_region(region, x, base, Some(0));
        let pipeline = Pipeline {
            analysis: AnalysisGate::Off,
            ..Pipeline::default()
        };
        pipeline
            .compile_block(&b.finish(), &SchedulerChoice::balanced())
            .unwrap();
    }

    #[test]
    fn analysis_gate_severities() {
        assert_eq!(AnalysisGate::Off.blocking_severity(), None);
        assert_eq!(
            AnalysisGate::Check.blocking_severity(),
            Some(Severity::Error)
        );
        assert_eq!(
            AnalysisGate::Strict.blocking_severity(),
            Some(Severity::Warn)
        );
    }

    #[test]
    fn scheduler_choice_names() {
        assert_eq!(SchedulerChoice::balanced().name(), "balanced");
        assert_eq!(
            SchedulerChoice::traditional(Ratio::new(13, 5)).name(),
            "traditional(2 3/5)"
        );
        assert_eq!(SchedulerChoice::Average.name(), "average");
        assert_eq!(
            SchedulerChoice::Balanced {
                method: ChancesMethod::LevelApprox
            }
            .name(),
            "balanced-approx"
        );
    }
}
