//! Outside-in layer decomposition and the traced run.
//!
//! The program has no spans of its own, so the traced run rebuilds each
//! layered call from the layers' public functions and times the pieces:
//! `Pipeline::compile_block` becomes `build_dag` → `assign` →
//! `run_with_weights` + `apply` → `allocate` → `build_dag` → `assign` →
//! `run_with_weights` + `apply`, and `evaluate` becomes
//! `try_simulate_runs_stats` + `bootstrap_means` per block. Every
//! reconstruction is checked equal to the real call's output, and the
//! real entry points get direct spans too. A later change *inside*
//! `compile` therefore shows as `pipeline.compile_ms` moving while the
//! reference children stay put: that is the limit of tracing from
//! outside.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use bsched_core::{
    AverageParallelismWeights, BalancedWeights, BlendedWeights, ListScheduler, TraditionalWeights,
    WeightAssigner, Weights,
};
use bsched_cpusim::try_simulate_runs_stats;
use bsched_dag::{build_dag, CodeDag};
use bsched_ir::{BasicBlock, Function};
use bsched_memsim::LatencyModel;
use bsched_pipeline::{
    AllocationStrategy, AnalysisGate, CompiledBlock, CompiledProgram, EvalConfig, Pipeline,
    ProgramEval, SchedulerChoice, WeightFamily,
};
use bsched_regalloc::allocate;
use bsched_stats::{bootstrap_means, Pcg32};

use crate::record::{Metric, Outcome, PER_LAYER};
use crate::trace::{coverage, totals, Tracer};

/// Work counted at the layer boundaries during one pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// DAGs built by the reference decomposition.
    pub dag_builds: u64,
    /// Edges in those DAGs.
    pub dag_edges: u64,
    /// Spill instructions the allocator inserted.
    pub spills: u64,
    /// Simulated (block, run) pairs.
    pub block_runs: u64,
    /// Cycles simulated.
    pub cycles: f64,
    /// Operations the pass replayed.
    pub ops: u64,
}

/// The weight assigner a choice schedules with (mirrors the pipeline).
fn assigner_for(choice: &SchedulerChoice) -> Box<dyn WeightAssigner> {
    let family = match choice {
        SchedulerChoice::Balanced { method } => WeightFamily::Balanced { method: *method },
        SchedulerChoice::Traditional { latency } => WeightFamily::Traditional { latency: *latency },
        SchedulerChoice::Average => WeightFamily::Average,
        SchedulerChoice::Tuned(spec) => spec.family,
    };
    match family {
        WeightFamily::Balanced { method } => Box::new(BalancedWeights::new().with_method(method)),
        WeightFamily::Traditional { latency } => Box::new(TraditionalWeights::new(latency)),
        WeightFamily::Average => Box::new(AverageParallelismWeights::new()),
        WeightFamily::Blend { latency, share } => Box::new(BlendedWeights::new(latency, share)),
    }
}

/// The list scheduler a choice runs under `pipeline` (mirrors the
/// pipeline: a tuned policy brings its own rounding and tie chain).
fn scheduler_for(choice: &SchedulerChoice, pipeline: &Pipeline) -> ListScheduler {
    let base = ListScheduler::new().with_direction(pipeline.direction);
    match choice {
        SchedulerChoice::Tuned(spec) => {
            base.with_rounding(spec.rounding).with_tie_breaks(spec.ties)
        }
        _ => base.with_rounding(pipeline.rounding),
    }
}

/// One block compiled by the reference decomposition, with its pass-1
/// DAG and weights kept for repeat analysis.
pub struct RefBlock {
    /// The compiled block.
    pub compiled: CompiledBlock,
    /// Hash of the pass-1 DAG's edges.
    pub dag_hash: u64,
    /// Hash of the pass-1 weight vector.
    pub weights_hash: u64,
}

fn hash_dag(dag: &CodeDag) -> u64 {
    let mut h = std::hash::DefaultHasher::new();
    dag.len().hash(&mut h);
    for e in dag.edges() {
        e.hash(&mut h);
    }
    h.finish()
}

fn hash_weights(w: &Weights) -> u64 {
    let mut h = std::hash::DefaultHasher::new();
    w.as_slice().hash(&mut h);
    h.finish()
}

fn one_pass(
    t: &mut Tracer,
    c: &mut Counts,
    pipeline: &Pipeline,
    block: &BasicBlock,
    assigner: &dyn WeightAssigner,
    scheduler: &ListScheduler,
) -> (BasicBlock, CodeDag, Weights) {
    let dag = t.span("dag.build", |_| build_dag(block, pipeline.alias));
    c.dag_builds += 1;
    c.dag_edges += dag.edge_count() as u64;
    let weights = t.span("core.weights", |_| assigner.assign(&dag));
    let ordered = t.span("core.list", |_| {
        scheduler.run_with_weights(&dag, &weights).apply(block)
    });
    (ordered, dag, weights)
}

/// `Pipeline::compile_block` rebuilt from public calls, for the default
/// pipeline shape (Belady allocator, no renaming, second pass on, no
/// analysis gate).
///
/// # Errors
///
/// The allocator's error, rendered.
pub fn reference_compile_block(
    t: &mut Tracer,
    c: &mut Counts,
    pipeline: &Pipeline,
    block: &BasicBlock,
    choice: &SchedulerChoice,
) -> Result<RefBlock, String> {
    assert!(
        pipeline.allocation == AllocationStrategy::BeladyScan
            && !pipeline.rename_after_alloc
            && pipeline.second_pass
            && pipeline.analysis == AnalysisGate::Off,
        "the reference decomposition covers the default pipeline shape only"
    );
    let assigner = assigner_for(choice);
    let scheduler = scheduler_for(choice, pipeline);
    let (ordered, dag1, weights1) = one_pass(t, c, pipeline, block, assigner.as_ref(), &scheduler);
    let alloc = t
        .span("regalloc.allocate", |_| {
            allocate(&ordered, &pipeline.allocator)
        })
        .map_err(|e| e.to_string())?;
    c.spills += alloc.spill_count() as u64;
    let (final_block, _, _) = one_pass(t, c, pipeline, &alloc.block, assigner.as_ref(), &scheduler);
    Ok(RefBlock {
        compiled: CompiledBlock {
            block: final_block,
            spill_count: alloc.spill_count(),
        },
        dag_hash: hash_dag(&dag1),
        weights_hash: hash_weights(&weights1),
    })
}

/// The real `Pipeline::compile` under a direct span, then its reference
/// decomposition under `pipeline.reference`; a difference between the
/// two is reported as a mismatch.
///
/// # Errors
///
/// A compile failure or a reference/real difference.
pub fn compile_both(
    t: &mut Tracer,
    c: &mut Counts,
    pipeline: &Pipeline,
    func: &Function,
    choice: &SchedulerChoice,
) -> Result<(CompiledProgram, Vec<RefBlock>), String> {
    let real = t
        .span("pipeline.compile", |_| pipeline.compile(func, choice))
        .map_err(|e| format!("{} under {}: {e}", func.name(), choice.name()))?;
    let reference = t.span("pipeline.reference", |t| {
        func.blocks()
            .iter()
            .map(|b| reference_compile_block(t, c, pipeline, b, choice))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let same =
        real.blocks.len() == reference.len()
            && real.blocks.iter().zip(&reference).all(|(a, b)| {
                a.block == b.compiled.block && a.spill_count == b.compiled.spill_count
            });
    if !same {
        return Err(format!(
            "reference compile differs from Pipeline::compile for {} under {}",
            func.name(),
            choice.name()
        ));
    }
    Ok((real, reference))
}

/// `evaluate` rebuilt from public calls (simulate, then bootstrap, per
/// block; folded in block order), under a `pipeline.evaluate` span.
///
/// # Errors
///
/// The simulator's typed error, rendered.
pub fn reference_evaluate(
    t: &mut Tracer,
    c: &mut Counts,
    program: &CompiledProgram,
    mem: &dyn LatencyModel,
    cfg: &EvalConfig,
) -> Result<ProgramEval, String> {
    t.span("pipeline.evaluate", |t| {
        let sim_root = Pcg32::seed_from_u64(cfg.seed);
        let boot_root = Pcg32::seed_from_u64(cfg.seed ^ 0xB007_5742_u64);
        let mut bootstrap_runtimes = vec![0.0; cfg.resamples];
        let mut mean_interlocks = 0.0;
        for (i, cb) in program.blocks.iter().enumerate() {
            let block_rng = sim_root.split(i as u64);
            let stats = t
                .span("cpusim.simulate", |_| {
                    try_simulate_runs_stats(
                        &cb.block,
                        mem,
                        cfg.processor,
                        cfg.issue_width,
                        cfg.runs,
                        cfg.cycle_budget,
                        &block_rng,
                    )
                })
                .map_err(|e| e.to_string())?;
            c.block_runs += u64::from(cfg.runs);
            c.cycles += stats.elapsed.iter().sum::<f64>();
            let mut boot_rng = boot_root.split(i as u64);
            let means = t.span("stats.bootstrap", |_| {
                bootstrap_means(&stats.elapsed, cfg.resamples, &mut boot_rng)
            });
            let freq = cb.block.frequency();
            for (total, m) in bootstrap_runtimes.iter_mut().zip(&means) {
                *total += m * freq;
            }
            mean_interlocks += stats.mean_interlocks() * freq;
        }
        let mean_runtime =
            bootstrap_runtimes.iter().sum::<f64>() / bootstrap_runtimes.len().max(1) as f64;
        Ok(ProgramEval {
            bootstrap_runtimes,
            mean_runtime,
            dynamic_instructions: program.dynamic_instructions(),
            mean_interlocks,
        })
    })
}

/// Whether two evaluations agree bit for bit.
#[must_use]
pub fn same_eval(a: &ProgramEval, b: &ProgramEval) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    bits(&a.bootstrap_runtimes) == bits(&b.bootstrap_runtimes)
        && a.mean_runtime.to_bits() == b.mean_runtime.to_bits()
        && a.mean_interlocks.to_bits() == b.mean_interlocks.to_bits()
        && a.dynamic_instructions.to_bits() == b.dynamic_instructions.to_bits()
}

/// What one replay pass reports besides its spans.
#[derive(Debug, Default)]
pub struct PassResult {
    /// Reconstruction or parity failures.
    pub mismatches: Vec<String>,
    /// The workload harness's own time: its top-level real calls minus the
    /// real calls it makes into the layers, each timed alone. Outside-in
    /// this is a difference of two measurements, so where the harness does
    /// little it can read slightly negative.
    pub harness_self_ns: i64,
    /// Workload-specific record-only values (name, value).
    pub extra: Vec<(String, f64)>,
}

/// Sum of the durations of spans named `name`.
#[must_use]
pub fn total_ns(t: &Tracer, name: &str) -> u64 {
    t.spans()
        .iter()
        .filter(|s| s.name == name)
        .map(crate::trace::Span::duration_ns)
        .sum()
}

/// Runs `pass` untraced and traced in alternation until `window` has
/// elapsed (at least once each), and reports every per-layer metric as
/// the median over traced passes. The first traced pass's spans are
/// written to `spans_path`.
pub fn run_traced(
    window: std::time::Duration,
    spans_path: &std::path::Path,
    mut pass: impl FnMut(&mut Tracer, &mut Counts) -> PassResult,
) -> Outcome {
    let start = Instant::now();
    let mut outcome = Outcome::default();
    let mut per_pass: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut layers: BTreeMap<&'static str, [Vec<f64>; 3]> = BTreeMap::new();
    let mut extras: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    // One untimed pass first, so neither side pays for cold caches.
    pass(&mut Tracer::new(false), &mut Counts::default());
    let mut round = 0usize;
    while round == 0 || start.elapsed() < window {
        // Alternate which side runs first, so drift cancels.
        let mut wall = [0.0f64; 2];
        let mut traced = None;
        for side in [round % 2, 1 - round % 2] {
            let mut t = Tracer::new(side == 1);
            let mut c = Counts::default();
            let t0 = Instant::now();
            let result = pass(&mut t, &mut c);
            wall[side] = t0.elapsed().as_secs_f64();
            outcome.attempted += c.ops;
            for m in &result.mismatches {
                outcome.mismatch(m.clone());
            }
            if side == 1 {
                traced = Some((t, c, result));
            }
        }
        let (t, c, result) = traced.expect("one traced side per round");
        if round == 0 {
            if let Err(e) = std::fs::write(spans_path, crate::trace::to_jsonl(t.spans())) {
                outcome.mismatch(format!("writing {}: {e}", spans_path.display()));
            }
        }
        let ms = |name: &str| total_ns(&t, name) as f64 / 1e6;
        let mut push = |name: &str, v: f64| per_pass.entry(name.to_owned()).or_default().push(v);
        push("pipeline.compile_ms", ms("pipeline.compile"));
        push("dag.build_ms", ms("dag.build"));
        push("dag.builds", c.dag_builds as f64);
        push("dag.edges", c.dag_edges as f64);
        push("core.weights_ms", ms("core.weights"));
        push("core.list_ms", ms("core.list"));
        push("regalloc.allocate_ms", ms("regalloc.allocate"));
        push("regalloc.spills", c.spills as f64);
        push("cpusim.simulate_ms", ms("cpusim.simulate"));
        push("cpusim.block_runs", c.block_runs as f64);
        push("cpusim.cycles", c.cycles);
        push("stats.bootstrap_ms", ms("stats.bootstrap"));
        push("harness.self_ms", result.harness_self_ns as f64 / 1e6);
        push("harness.ops", c.ops as f64);
        push("trace.coverage", coverage(t.spans()).unwrap_or(0.0));
        push("trace.overhead", wall[1] / wall[0] - 1.0);
        for (name, (count, total, own)) in totals(t.spans()) {
            let e = layers.entry(name).or_default();
            e[0].push(count as f64);
            e[1].push(total as f64 / 1e6);
            e[2].push(own as f64 / 1e6);
        }
        for (name, v) in result.extra {
            extras.entry(name).or_default().push(v);
        }
        round += 1;
    }
    let med = |v: &[f64]| crate::stats::median(v).unwrap_or(f64::NAN);
    for (name, unit) in PER_LAYER {
        let v = per_pass.get(name).map_or(f64::NAN, |v| med(v));
        outcome.metrics.push(Metric::value(name, unit, v));
    }
    let layer_json: Vec<String> = layers
        .iter()
        .map(|(name, [count, total, own])| {
            format!(
                "\"{name}\":{{\"count\":{},\"total_ms\":{},\"self_ms\":{}}}",
                crate::record::number(med(count)),
                crate::record::number(med(total)),
                crate::record::number(med(own))
            )
        })
        .collect();
    outcome.detail("spans", format!("{{{}}}", layer_json.join(",")));
    let extra_json: Vec<String> = extras
        .iter()
        .map(|(name, v)| format!("\"{name}\":{}", crate::record::number(med(v))))
        .collect();
    outcome.detail("layers_extra", format!("{{{}}}", extra_json.join(",")));
    outcome.detail("passes", round.to_string());
    outcome
}
