//! Measurement: the §4.3 simulation and bootstrap protocol.

use std::borrow::Borrow;

use bsched_cpusim::{simulate_block_wide_traced, try_simulate_runs_stats, ProcessorModel};
use bsched_memsim::LatencyModel;
use bsched_stats::{bootstrap_means, paired_improvement, Improvement, Pcg32};
use bsched_verify::{verify_timeline, ValidationLevel};

use crate::config::defaults;
use crate::error::PipelineError;
use crate::pipeline::{CompiledBlock, CompiledProgram};

/// Measurement protocol parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalConfig {
    /// Full simulations per block ("30 times with new random numbers").
    pub runs: u32,
    /// Bootstrap resampled means per block ("until we have 100 sample
    /// means").
    pub resamples: usize,
    /// Processor model (UNLIMITED / MAX-8 / LEN-8).
    pub processor: ProcessorModel,
    /// Instructions issued per cycle (§6 superscalar extension; the
    /// paper's machines are single-issue).
    pub issue_width: u32,
    /// Master seed; every block/run derives its stream from it.
    pub seed: u64,
    /// At [`ValidationLevel::Full`], each block's run-0 simulation is
    /// replayed with tracing and the timeline checked against the memory
    /// model's declared latency support. Defaults to `BSCHED_VALIDATE`,
    /// read once per process; below `Full` this field changes nothing.
    pub validation: ValidationLevel,
    /// Watchdog: a single simulation run whose issue clock passes this
    /// many cycles is killed with
    /// [`SimError::BudgetExceeded`](bsched_cpusim::SimError). `None`
    /// disables the check. Defaults to `BSCHED_CYCLE_BUDGET`, read once
    /// per process (cycles; `0` or `off` disables), falling back to
    /// [`DEFAULT_CYCLE_BUDGET`] — far above any real block, so clean
    /// runs never notice it.
    pub cycle_budget: Option<u64>,
}

/// The default per-run cycle budget: one billion cycles. The largest
/// benchmark blocks finish in thousands of cycles, so only a runaway
/// simulation (e.g. an injected stall fault) can reach it.
pub const DEFAULT_CYCLE_BUDGET: u64 = 1_000_000_000;

impl Default for EvalConfig {
    fn default() -> Self {
        Self {
            runs: 30,
            resamples: 100,
            processor: ProcessorModel::Unlimited,
            issue_width: 1,
            seed: 0x5EED,
            validation: defaults().validation,
            cycle_budget: defaults().cycle_budget,
        }
    }
}

/// A program's measured behaviour under one memory system and processor.
#[derive(Debug, Clone)]
pub struct ProgramEval {
    /// 100 (or `resamples`) bootstrap program runtimes: each is the
    /// frequency-weighted sum of per-block resampled mean runtimes.
    pub bootstrap_runtimes: Vec<f64>,
    /// Mean of the bootstrap runtimes (the runtime the tables report).
    pub mean_runtime: f64,
    /// Frequency-weighted dynamic instruction count.
    pub dynamic_instructions: f64,
    /// Frequency-weighted mean interlock cycles.
    pub mean_interlocks: f64,
}

impl ProgramEval {
    /// Percentage of execution cycles that are interlocks (TI%/BI% in
    /// Tables 3 and 5).
    #[must_use]
    pub fn interlock_percent(&self) -> f64 {
        let cycles = self.dynamic_instructions + self.mean_interlocks;
        if cycles == 0.0 {
            0.0
        } else {
            self.mean_interlocks / cycles * 100.0
        }
    }
}

/// One block's contribution to the program-level statistics: the
/// bootstrap means of its run times plus its mean interlock count.
pub(crate) type BlockStats = (Vec<f64>, f64);

/// Computes a block's [`BlockStats`]. A pure function of `(block, index,
/// config)` for a stateless memory model — every random stream is
/// counter-split from the master seed — so blocks can be computed in any
/// order, on any thread, with identical results.
pub(crate) fn block_stats(
    cb: &CompiledBlock,
    index: usize,
    mem: &dyn LatencyModel,
    config: &EvalConfig,
) -> Result<BlockStats, PipelineError> {
    let sim_root = Pcg32::seed_from_u64(config.seed);
    let boot_root = Pcg32::seed_from_u64(config.seed ^ 0xB007_5742_u64);
    let block_rng = sim_root.split(index as u64);
    // One simulation pass per (block, run): runtimes and interlock
    // accounting come from the same runs. The guarded entry point is
    // bit-identical to the unguarded one on the happy path; it only
    // adds the cycle-budget and cancellation watchdogs.
    let stats = try_simulate_runs_stats(
        &cb.block,
        mem,
        config.processor,
        config.issue_width,
        config.runs,
        config.cycle_budget,
        &block_rng,
    )?;
    if config.validation >= ValidationLevel::Full && config.runs > 0 {
        // Replay run 0 with tracing (`split` is pure, so the extra
        // simulation reuses run 0's exact latency stream and perturbs
        // nothing) and check the timeline against the model's declared
        // latency support and the min-latency critical path.
        let mut run_rng = block_rng.split(0);
        let (_, elapsed, events) = simulate_block_wide_traced(
            &cb.block,
            mem,
            config.processor,
            config.issue_width,
            &mut run_rng,
        );
        verify_timeline(
            &cb.block,
            &events,
            elapsed,
            config.issue_width,
            mem.min_latency(),
            mem.max_latency(),
        )?;
    }
    let mut boot_rng = boot_root.split(index as u64);
    let means = bootstrap_means(&stats.elapsed, config.resamples, &mut boot_rng);
    Ok((means, stats.mean_interlocks()))
}

/// Folds per-block statistics into a [`ProgramEval`], always in block
/// order so floating-point accumulation is identical however the
/// per-block work was scheduled.
fn combine<'a>(
    program: &CompiledProgram,
    per_block: impl IntoIterator<Item = &'a BlockStats>,
    config: &EvalConfig,
) -> ProgramEval {
    let mut bootstrap_runtimes = vec![0.0; config.resamples];
    let mut mean_interlocks = 0.0;
    for (cb, (means, interlocks)) in program.blocks.iter().zip(per_block) {
        let freq = cb.block.frequency();
        for (total, m) in bootstrap_runtimes.iter_mut().zip(means) {
            *total += m * freq;
        }
        mean_interlocks += interlocks * freq;
    }
    let mean_runtime =
        bootstrap_runtimes.iter().sum::<f64>() / bootstrap_runtimes.len().max(1) as f64;
    ProgramEval {
        bootstrap_runtimes,
        mean_runtime,
        dynamic_instructions: program.dynamic_instructions(),
        mean_interlocks,
    }
}

/// Runs the full measurement protocol on a compiled program.
///
/// Per block: `runs` independent simulations (independent latency draws,
/// deterministically derived from `config.seed`), bootstrap-resampled
/// into `resamples` means; block means are scaled by profiled frequency
/// and summed into program-level bootstrap runtimes, exactly as §4.3
/// describes.
///
/// Blocks are evaluated in parallel (`BSCHED_THREADS` workers) when the
/// memory model reports itself thread-safe via
/// [`LatencyModel::as_sync`]; stateful models (`LineCache`,
/// `MarkovNetworkModel`) evaluate serially. Either way the result is
/// bit-identical to [`evaluate_serial`]: per-block work depends only on
/// the block index and master seed, and contributions are folded in
/// block order.
#[must_use]
pub fn evaluate(
    program: &CompiledProgram,
    mem: &dyn LatencyModel,
    config: &EvalConfig,
) -> ProgramEval {
    try_evaluate(program, mem, config).expect("evaluation failed validation")
}

/// [`evaluate`] restricted to the calling thread, accepting stateful
/// (non-`Sync`) models. `evaluate` delegates here when parallelism is
/// unavailable; tests use it to check serial/parallel parity.
#[must_use]
pub fn evaluate_serial(
    program: &CompiledProgram,
    mem: &dyn LatencyModel,
    config: &EvalConfig,
) -> ProgramEval {
    try_evaluate_serial(program, mem, config).expect("evaluation failed validation")
}

/// [`evaluate`] with validation findings surfaced as errors instead of
/// panics.
///
/// # Errors
///
/// At [`ValidationLevel::Full`], returns the first (in block order)
/// timeline finding; below `Full`, never fails.
pub fn try_evaluate(
    program: &CompiledProgram,
    mem: &dyn LatencyModel,
    config: &EvalConfig,
) -> Result<ProgramEval, PipelineError> {
    evaluate_blocks(program, mem, config, |i, cb, mem| {
        block_stats(cb, i, mem, config)
    })
}

/// Runs `stats` on every block of `program` — fanned out over the thread
/// pool when `mem` can be shared between threads and more than one
/// thread is available, otherwise on the calling thread — and folds the
/// results in block order.
pub(crate) fn evaluate_blocks<S: Borrow<BlockStats> + Send>(
    program: &CompiledProgram,
    mem: &dyn LatencyModel,
    config: &EvalConfig,
    stats: impl Fn(usize, &CompiledBlock, &dyn LatencyModel) -> Result<S, PipelineError> + Sync,
) -> Result<ProgramEval, PipelineError> {
    let per_block: Vec<S> = match mem.as_sync() {
        Some(sync_mem) if bsched_par::max_threads() > 1 => {
            bsched_par::parallel_map(&program.blocks, |i, cb| stats(i, cb, sync_mem))
                .into_iter()
                .collect::<Result<_, _>>()?
        }
        _ => program
            .blocks
            .iter()
            .enumerate()
            .map(|(i, cb)| stats(i, cb, mem))
            .collect::<Result<_, _>>()?,
    };
    Ok(combine(
        program,
        per_block.iter().map(Borrow::borrow),
        config,
    ))
}

/// [`try_evaluate`] restricted to the calling thread.
///
/// # Errors
///
/// Same contract as [`try_evaluate`].
pub fn try_evaluate_serial(
    program: &CompiledProgram,
    mem: &dyn LatencyModel,
    config: &EvalConfig,
) -> Result<ProgramEval, PipelineError> {
    let per_block = program
        .blocks
        .iter()
        .enumerate()
        .map(|(i, cb)| block_stats(cb, i, mem, config))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(combine(program, &per_block, config))
}

/// Pairs a traditional-scheduler evaluation with a balanced one and
/// returns the percentage improvement with its 95% confidence interval
/// (§4.3: "the 100 sample means from the balanced scheduler are paired
/// with an equal number from the traditional scheduler").
#[must_use]
pub fn compare(traditional: &ProgramEval, balanced: &ProgramEval) -> Improvement {
    paired_improvement(
        &traditional.bootstrap_runtimes,
        &balanced.bootstrap_runtimes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Pipeline, SchedulerChoice};
    use bsched_core::Ratio;
    use bsched_ir::{BlockBuilder, Function};
    use bsched_memsim::{CacheModel, FixedLatency, NetworkModel};

    fn demo_program() -> Function {
        let mut blocks = Vec::new();
        for (n, freq) in [(8usize, 100.0), (16, 40.0)] {
            let mut b = BlockBuilder::new(format!("b{n}"));
            b.set_frequency(freq);
            let region = b.fresh_region();
            let base = b.def_int("base");
            let vals: Vec<_> = (0..n)
                .map(|k| b.load_region("l", region, base, Some(8 * k as i64)))
                .collect();
            let mut acc = vals[0];
            for &v in &vals[1..] {
                acc = b.fadd("a", acc, v);
            }
            b.store_region(region, acc, base, Some(9_000));
            blocks.push(b.finish());
        }
        Function::new("demo", blocks)
    }

    #[test]
    fn evaluation_is_deterministic() {
        let prog = Pipeline::default()
            .compile(&demo_program(), &SchedulerChoice::balanced())
            .unwrap();
        let cfg = EvalConfig::default();
        let mem = CacheModel::l80_5();
        let a = evaluate(&prog, &mem, &cfg);
        let b = evaluate(&prog, &mem, &cfg);
        assert_eq!(a.bootstrap_runtimes, b.bootstrap_runtimes);
        assert_eq!(a.mean_interlocks, b.mean_interlocks);
    }

    #[test]
    fn fixed_latency_one_gives_zero_interlocks_everywhere() {
        // With actual latency 1 every schedule is perfect.
        let prog = Pipeline::default()
            .compile(&demo_program(), &SchedulerChoice::balanced())
            .unwrap();
        let eval = evaluate(&prog, &FixedLatency::new(1), &EvalConfig::default());
        assert_eq!(eval.mean_interlocks, 0.0);
        assert_eq!(eval.interlock_percent(), 0.0);
        // Runtime equals dynamic instructions exactly.
        assert!((eval.mean_runtime - eval.dynamic_instructions).abs() < 1e-9);
    }

    #[test]
    fn balanced_beats_traditional_under_uncertainty() {
        // The paper's headline claim on a high-variance network.
        let pipeline = Pipeline::default();
        let func = demo_program();
        let balanced = pipeline
            .compile(&func, &SchedulerChoice::balanced())
            .unwrap();
        let traditional = pipeline
            .compile(&func, &SchedulerChoice::traditional(Ratio::from_int(2)))
            .unwrap();
        let mem = NetworkModel::new(2.0, 5.0);
        let cfg = EvalConfig::default();
        let b = evaluate(&balanced, &mem, &cfg);
        let t = evaluate(&traditional, &mem, &cfg);
        let imp = compare(&t, &b);
        assert!(
            imp.mean_percent > 0.0,
            "balanced should win under N(2,5): {imp}"
        );
    }

    #[test]
    fn identical_programs_improve_zero() {
        let prog = Pipeline::default()
            .compile(&demo_program(), &SchedulerChoice::balanced())
            .unwrap();
        let eval = evaluate(&prog, &CacheModel::l80_5(), &EvalConfig::default());
        let imp = compare(&eval, &eval);
        assert_eq!(imp.mean_percent, 0.0);
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let prog = Pipeline::default()
            .compile(&demo_program(), &SchedulerChoice::balanced())
            .unwrap();
        let cfg = EvalConfig::default();
        for mem in [
            bsched_memsim::MemorySystem::from(CacheModel::l80_5()),
            NetworkModel::new(3.0, 5.0).into(),
        ] {
            assert!(mem.as_sync().is_some());
            let par = evaluate(&prog, &mem, &cfg);
            let ser = evaluate_serial(&prog, &mem, &cfg);
            assert_eq!(par.bootstrap_runtimes, ser.bootstrap_runtimes);
            assert_eq!(par.mean_runtime, ser.mean_runtime);
            assert_eq!(par.mean_interlocks, ser.mean_interlocks);
        }
    }

    #[test]
    fn stateful_models_still_evaluate() {
        // LineCache has a RefCell tag store, reports as_sync() = None and
        // must take the serial path inside evaluate() unchanged.
        let prog = Pipeline::default()
            .compile(&demo_program(), &SchedulerChoice::balanced())
            .unwrap();
        let mem = bsched_memsim::LineCache::small_l1();
        assert!(mem.as_sync().is_none());
        let cfg = EvalConfig::default();
        let a = evaluate(&prog, &mem, &cfg);
        let b = evaluate_serial(&prog, &mem, &cfg);
        assert_eq!(a.bootstrap_runtimes, b.bootstrap_runtimes);
    }

    #[test]
    fn tiny_cycle_budget_surfaces_as_a_typed_sim_error() {
        let prog = Pipeline::default()
            .compile(&demo_program(), &SchedulerChoice::balanced())
            .unwrap();
        let cfg = EvalConfig {
            cycle_budget: Some(2),
            ..EvalConfig::default()
        };
        let err = try_evaluate(&prog, &CacheModel::l80_5(), &cfg).unwrap_err();
        assert!(
            matches!(
                err,
                PipelineError::Sim(bsched_cpusim::SimError::BudgetExceeded { .. })
            ),
            "{err}"
        );
        assert_eq!(err.failure_kind().id(), "budget-exceeded");
    }

    #[test]
    fn default_budget_is_invisible_to_clean_runs() {
        let prog = Pipeline::default()
            .compile(&demo_program(), &SchedulerChoice::balanced())
            .unwrap();
        let with_budget = EvalConfig::default();
        let without = EvalConfig {
            cycle_budget: None,
            ..EvalConfig::default()
        };
        let mem = CacheModel::l80_5();
        let a = evaluate(&prog, &mem, &with_budget);
        let b = evaluate(&prog, &mem, &without);
        assert_eq!(a.bootstrap_runtimes, b.bootstrap_runtimes);
    }

    #[test]
    fn interlock_percent_bounds() {
        let prog = Pipeline::default()
            .compile(&demo_program(), &SchedulerChoice::balanced())
            .unwrap();
        let eval = evaluate(&prog, &NetworkModel::new(30.0, 5.0), &EvalConfig::default());
        let pct = eval.interlock_percent();
        assert!(pct > 0.0 && pct < 100.0, "{pct}");
        // At mean latency 30 on these small blocks, interlocks dominate.
        assert!(pct > 30.0, "{pct}");
    }
}
