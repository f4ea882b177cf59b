//! The search: stage-synchronous beam search over the staged candidate
//! space.
//!
//! A candidate is compiled through the full two-pass [`Pipeline`] and
//! measured with the §4.3 protocol (`runs` seeded simulations,
//! bootstrap mean). Compile and measurement run incrementally through
//! one [`StageMemo`] per search, so a candidate pays only for the stages
//! no earlier candidate shared with it; scores are bit-identical to a
//! fresh compile and evaluation. Every candidate runs under the optional
//! per-candidate wall-clock timeout; a stuck candidate (e.g. the
//! `tune-stall` fault site) is quarantined as
//! [`CandidateOutcome::TimedOut`] and the search continues.
//!
//! Determinism: batches are evaluated with
//! [`parallel_map_with`] under the
//! config's explicit thread budget, results are merged in batch order,
//! and candidate evaluation is a pure function of `(candidate, seed)` —
//! so a seed yields a bit-identical winner and score at any thread
//! count.

use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use bsched_cpusim::ProcessorModel;
use bsched_dag::AliasModel;
use bsched_faults::{fault_point, Site};
use bsched_ir::Function;
use bsched_memsim::{LatencyModel, MemorySystem};
use bsched_par::{parallel_map_with, run_with_timeout};
use bsched_pipeline::{EvalConfig, Pipeline, PolicySpec, SchedulerChoice, StageMemo};

use crate::journal::{fingerprint_mix, CandidateOutcome, TuneJournal};
use crate::space::CandidateSpace;

/// Search parameters. The defaults match the committed `BENCH_tune.json`
/// configuration.
#[derive(Debug, Clone)]
pub struct TuneConfig {
    /// Master seed for candidate evaluation: every candidate sees the
    /// same latency draws, so comparisons are paired.
    pub seed: u64,
    /// Beam survivors kept per stage.
    pub beam_width: usize,
    /// Simulated runs per block per candidate (§4.3 uses 30).
    pub runs: u32,
    /// Thread budget for batch evaluation. Explicit rather than
    /// environment-derived so determinism tests can compare budgets
    /// in-process.
    pub threads: usize,
    /// Processor model candidates are measured on.
    pub processor: ProcessorModel,
    /// Memory disambiguation discipline.
    pub alias: AliasModel,
    /// Per-candidate wall-clock budget; a candidate that exceeds it is
    /// quarantined, not fatal. `None` disables the watchdog.
    pub candidate_timeout: Option<Duration>,
    /// Crash-safe journal path; `None` disables resumption.
    pub journal: Option<PathBuf>,
}

impl Default for TuneConfig {
    fn default() -> Self {
        Self {
            seed: EvalConfig::default().seed,
            beam_width: 3,
            runs: 30,
            threads: bsched_par::max_threads(),
            processor: ProcessorModel::Unlimited,
            alias: AliasModel::Fortran,
            candidate_timeout: None,
            journal: None,
        }
    }
}

/// What a finished search found.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneReport {
    /// Best-scoring policy (ties resolve to the earliest evaluated, so a
    /// no-win search returns the balanced baseline itself).
    pub best: PolicySpec,
    /// The winner's mean runtime in cycles (lower is better).
    pub best_score: f64,
    /// The balanced baseline the search is anchored to.
    pub baseline: PolicySpec,
    /// The baseline's mean runtime under the identical protocol.
    pub baseline_score: f64,
    /// Candidates fully measured this run.
    pub evaluated: usize,
    /// Always 0: the search measures every candidate it visits. Kept
    /// because external digests of a report (the benchmark's pinned
    /// tune digest) hash `evaluated/pruned/skipped`.
    pub pruned: usize,
    /// Candidates quarantined (timeout or typed failure).
    pub skipped: usize,
    /// Candidates restored from the journal instead of re-measured.
    pub resumed: usize,
    /// Total candidates in the space.
    pub space_size: usize,
}

impl TuneReport {
    /// Percentage improvement of the winner over the balanced baseline
    /// (0 when the baseline itself wins).
    #[must_use]
    pub fn improvement_percent(&self) -> f64 {
        if self.baseline_score <= 0.0 {
            return 0.0;
        }
        (self.baseline_score - self.best_score) / self.baseline_score * 100.0
    }
}

/// Why a search could not produce a report.
#[derive(Debug)]
pub enum TuneError {
    /// The function has no blocks to schedule.
    EmptyFunction,
    /// The balanced baseline itself failed to compile or evaluate, so
    /// there is nothing sound to compare candidates against.
    BaselineFailed(String),
    /// The crash-safe journal could not be opened.
    Journal(std::io::Error),
}

impl fmt::Display for TuneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuneError::EmptyFunction => write!(f, "nothing to tune: the function has no blocks"),
            TuneError::BaselineFailed(reason) => {
                write!(f, "balanced baseline failed to evaluate: {reason}")
            }
            TuneError::Journal(e) => write!(f, "tune journal: {e}"),
        }
    }
}

impl std::error::Error for TuneError {}

/// Everything a candidate evaluation needs, cheaply cloneable into the
/// watchdog thread: the search's [`StageMemo`] holds the function,
/// pipeline, memory system and protocol.
struct Ctx {
    memo: Arc<StageMemo>,
    timeout: Option<Duration>,
}

/// Compiles and measures one candidate, incrementally through the
/// search's memo. Pure given `spec` and the context, which is what makes
/// results independent of the thread count.
fn evaluate_candidate(ctx: &Ctx, spec: PolicySpec) -> CandidateOutcome {
    // Fault sites inside the memoized stages (allocation, simulation)
    // decide per candidate context, so under a fault plan a stage's
    // result is not a function of its key alone. Each candidate then
    // gets a memo of its own, and a plan fires exactly for the
    // candidates it names.
    let memo = if bsched_faults::active() {
        Arc::new(ctx.memo.fresh())
    } else {
        Arc::clone(&ctx.memo)
    };
    // The candidate's canonical string is the fault cell context, so a
    // plan can target one candidate (e.g. `tune-stall:key=family=average`)
    // and the quarantine test can prove the rest of the search survives.
    let canon = spec.canonical();
    let body = move || -> CandidateOutcome {
        bsched_faults::with_cell_context(&canon, 0, || {
            if let Some(fault) = fault_point!(Site::TuneStall) {
                std::thread::sleep(Duration::from_millis(fault.arg));
            }
            let measured = memo
                .compile(&SchedulerChoice::Tuned(spec))
                .and_then(|compiled| memo.evaluate(&compiled));
            match measured {
                Ok(e) => CandidateOutcome::Score(e.mean_runtime),
                Err(e) => CandidateOutcome::Failed(e.to_string()),
            }
        })
    };
    match ctx.timeout {
        Some(limit) => run_with_timeout(limit, body).unwrap_or(CandidateOutcome::TimedOut),
        None => body(),
    }
}

struct SearchState {
    ctx: Ctx,
    journal: Option<TuneJournal>,
    /// Canonical policy → score (`None` = quarantined).
    memo: BTreeMap<String, Option<f64>>,
    best: Option<(f64, PolicySpec)>,
    evaluated: usize,
    skipped: usize,
    resumed: usize,
}

impl SearchState {
    fn note_score(&mut self, spec: PolicySpec, score: f64) {
        let better = match self.best {
            Some((incumbent, _)) => score < incumbent,
            None => true,
        };
        if better {
            self.best = Some((score, spec));
        }
    }

    /// Evaluates a batch of candidates, returning a score per input
    /// slot. Memoized and journal-resumed candidates cost nothing;
    /// duplicates within the batch are measured once.
    fn evaluate_batch(&mut self, specs: &[PolicySpec], threads: usize) -> Vec<Option<f64>> {
        let mut fresh: Vec<PolicySpec> = Vec::new();
        let mut queued: BTreeMap<String, ()> = BTreeMap::new();
        for spec in specs {
            let canon = spec.canonical();
            if self.memo.contains_key(&canon) || queued.contains_key(&canon) {
                continue;
            }
            if let Some(outcome) = self.journal.as_ref().and_then(|j| j.lookup(&canon)) {
                self.resumed += 1;
                let score = match outcome {
                    CandidateOutcome::Score(s) => Some(s),
                    CandidateOutcome::TimedOut | CandidateOutcome::Failed(_) => None,
                };
                if let Some(s) = score {
                    self.note_score(*spec, s);
                }
                self.memo.insert(canon, score);
                continue;
            }
            queued.insert(canon, ());
            fresh.push(*spec);
        }

        let ctx = &self.ctx;
        let results = parallel_map_with(threads.max(1), &fresh, |_, spec| {
            evaluate_candidate(ctx, *spec)
        });
        for (spec, outcome) in fresh.iter().zip(results) {
            let canon = spec.canonical();
            if let Some(journal) = &self.journal {
                journal.record(&canon, &outcome);
            }
            match outcome {
                CandidateOutcome::Score(s) => {
                    self.evaluated += 1;
                    self.note_score(*spec, s);
                    self.memo.insert(canon, Some(s));
                }
                CandidateOutcome::TimedOut | CandidateOutcome::Failed(_) => {
                    self.skipped += 1;
                    self.memo.insert(canon, None);
                }
            }
        }
        specs
            .iter()
            .map(|spec| self.memo.get(&spec.canonical()).copied().flatten())
            .collect()
    }

    /// Stage-synchronous beam search.
    fn beam(&mut self, space: &CandidateSpace, cfg: &TuneConfig) {
        let width = cfg.beam_width.max(1);
        let default_rounding = space.roundings()[0];
        let default_ties = space.tie_chains()[0];

        // Stage-1 candidate zero is the balanced baseline, so it is
        // measured (and journaled) first and wins every tie.
        let stage1: Vec<PolicySpec> = space
            .families()
            .iter()
            .map(|&family| PolicySpec {
                family,
                rounding: default_rounding,
                ties: default_ties,
            })
            .collect();
        let scores = self.evaluate_batch(&stage1, cfg.threads);
        let survivors = top_k(&stage1, &scores, width);

        let stage2: Vec<PolicySpec> = survivors
            .iter()
            .flat_map(|spec| {
                space
                    .roundings()
                    .iter()
                    .map(move |&rounding| PolicySpec { rounding, ..*spec })
            })
            .collect();
        let scores = self.evaluate_batch(&stage2, cfg.threads);
        let survivors = top_k(&stage2, &scores, width);

        let stage3: Vec<PolicySpec> = survivors
            .iter()
            .flat_map(|spec| {
                space
                    .tie_chains()
                    .iter()
                    .map(move |&ties| PolicySpec { ties, ..*spec })
            })
            .collect();
        self.evaluate_batch(&stage3, cfg.threads);
    }
}

/// Keeps the `k` best-scoring candidates, ties resolved by batch order.
fn top_k(specs: &[PolicySpec], scores: &[Option<f64>], k: usize) -> Vec<PolicySpec> {
    let mut ranked: Vec<(usize, f64)> = scores
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.map(|score| (i, score)))
        .collect();
    ranked.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    ranked.iter().take(k).map(|&(i, _)| specs[i]).collect()
}

/// Derives the journal fingerprint: everything that determines candidate
/// scores or the shape of the search — each block's instructions as
/// well as its name, length and frequency, the installed fault plan, and
/// the memo's validation levels, analysis gate and cycle budget (which
/// decide whether a candidate fails).
fn fingerprint(
    function: &Function,
    system: &MemorySystem,
    cfg: &TuneConfig,
    memo: &StageMemo,
) -> String {
    let mut acc = fingerprint_mix(0, function.name().as_bytes());
    for block in function.blocks() {
        acc = fingerprint_mix(acc, block.name().as_bytes());
        acc = fingerprint_mix(acc, &(block.len() as u64).to_le_bytes());
        acc = fingerprint_mix(acc, &block.frequency().to_bits().to_le_bytes());
        for inst in block.insts() {
            acc = fingerprint_mix(acc, inst.to_string().as_bytes());
            acc = fingerprint_mix(acc, b"\n");
        }
    }
    let plan = bsched_faults::installed_plan().map_or_else(|| "none".to_owned(), |p| p.to_string());
    acc = fingerprint_mix(acc, plan.as_bytes());
    acc = fingerprint_mix(acc, system.name().as_bytes());
    acc = fingerprint_mix(acc, &cfg.seed.to_le_bytes());
    acc = fingerprint_mix(acc, &u64::from(cfg.runs).to_le_bytes());
    acc = fingerprint_mix(acc, &(cfg.beam_width as u64).to_le_bytes());
    acc = fingerprint_mix(acc, format!("{:?}", cfg.processor).as_bytes());
    acc = fingerprint_mix(acc, format!("{:?}", cfg.alias).as_bytes());
    let (pipeline, eval) = (memo.pipeline(), memo.eval_config());
    let gates = (
        pipeline.validation,
        pipeline.analysis,
        eval.validation,
        eval.cycle_budget,
    );
    acc = fingerprint_mix(acc, format!("{gates:?}").as_bytes());
    format!("{acc:016x}")
}

/// Searches the policy space for the scheduler that minimises
/// `function`'s mean runtime under `system`.
///
/// The balanced baseline is always evaluated first and is itself a
/// member of the space, so `best_score <= baseline_score` whenever the
/// search returns at all.
///
/// # Errors
///
/// [`TuneError::EmptyFunction`] when there is nothing to schedule,
/// [`TuneError::BaselineFailed`] when the balanced baseline itself
/// cannot be measured, and [`TuneError::Journal`] when the configured
/// journal path cannot be opened.
pub fn tune(
    function: &Function,
    system: &MemorySystem,
    cfg: &TuneConfig,
) -> Result<TuneReport, TuneError> {
    search(
        function,
        system,
        cfg,
        Arc::new(stage_memo(function, system, cfg)),
    )
}

/// The memo one search evaluates every candidate through.
fn stage_memo(function: &Function, system: &MemorySystem, cfg: &TuneConfig) -> StageMemo {
    let pipeline = Pipeline {
        alias: cfg.alias,
        ..Pipeline::default()
    };
    let eval = EvalConfig {
        runs: cfg.runs,
        processor: cfg.processor,
        seed: cfg.seed,
        ..EvalConfig::default()
    };
    StageMemo::new(pipeline, function.clone(), *system, eval)
}

/// [`tune`] through a given memo.
fn search(
    function: &Function,
    system: &MemorySystem,
    cfg: &TuneConfig,
    memo: Arc<StageMemo>,
) -> Result<TuneReport, TuneError> {
    if function.blocks().is_empty() {
        return Err(TuneError::EmptyFunction);
    }
    let space = CandidateSpace::for_system(system);
    let journal = match &cfg.journal {
        Some(path) => {
            let j = TuneJournal::open(path, &fingerprint(function, system, cfg, &memo))
                .map_err(TuneError::Journal)?;
            if j.discarded() > 0 {
                eprintln!(
                    "warning: tune journal {}: fingerprint changed; discarded {} recorded \
                     candidate(s) instead of resuming",
                    path.display(),
                    j.discarded()
                );
            }
            Some(j)
        }
        None => None,
    };
    let ctx = Ctx {
        memo,
        timeout: cfg.candidate_timeout,
    };
    let mut search = SearchState {
        ctx,
        journal,
        memo: BTreeMap::new(),
        best: None,
        evaluated: 0,
        skipped: 0,
        resumed: 0,
    };
    search.beam(&space, cfg);
    let baseline = PolicySpec::balanced_default();
    let baseline_score = search
        .memo
        .get(&baseline.canonical())
        .copied()
        .flatten()
        .ok_or_else(|| {
            TuneError::BaselineFailed("no score recorded for the balanced baseline".to_owned())
        })?;
    let (best_score, best) = search.best.ok_or_else(|| {
        TuneError::BaselineFailed("search finished without any scored candidate".to_owned())
    })?;
    Ok(TuneReport {
        best,
        best_score,
        baseline,
        baseline_score,
        evaluated: search.evaluated,
        pruned: 0,
        skipped: search.skipped,
        resumed: search.resumed,
        space_size: space.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsched_workload::{lower_kernel, parse_program};

    const DAXPY: &str = "kernel daxpy {
        arrays x, y;
        unroll 4;
        frequency 1000;
        y[0] = 3.0 * x[0] + y[0];
    }";

    fn function(src: &str) -> Function {
        let blocks = parse_program(src)
            .unwrap()
            .iter()
            .map(|k| lower_kernel(&k.kernel, k.frequency))
            .collect();
        Function::new("daxpy", blocks)
    }

    /// Serialises the tests that compare fingerprints against the one
    /// that installs a (process-global) fault plan, which the fingerprint
    /// covers.
    fn plan_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn fp(function: &Function) -> String {
        let system: MemorySystem = "N(30,5)".parse().unwrap();
        let cfg = TuneConfig::default();
        fingerprint(
            function,
            &system,
            &cfg,
            &stage_memo(function, &system, &cfg),
        )
    }

    #[test]
    fn fingerprint_covers_instructions() {
        let _guard = plan_lock();
        let original = function(DAXPY);
        let edited = function(&DAXPY.replace("+ y[0]", "+ y[1]"));
        // Same shape — names, lengths, frequencies — different code.
        let shape = |f: &Function| -> Vec<(String, usize, u64)> {
            f.blocks()
                .iter()
                .map(|b| (b.name().to_owned(), b.len(), b.frequency().to_bits()))
                .collect()
        };
        assert_eq!(shape(&original), shape(&edited));
        assert_eq!(fp(&original), fp(&function(DAXPY)));
        assert_ne!(fp(&original), fp(&edited));
    }

    #[test]
    fn beam_search_builds_each_dag_once_and_simulates_each_order_pair_once() {
        let func = function(DAXPY);
        let system: MemorySystem = "N(30,5)".parse().unwrap();
        let cfg = TuneConfig {
            runs: 5,
            threads: 1,
            ..TuneConfig::default()
        };
        let memo = Arc::new(stage_memo(&func, &system, &cfg));
        let report = search(&func, &system, &cfg, Arc::clone(&memo)).unwrap();
        let counts = memo.counts();
        let blocks = func.blocks().len();
        assert_eq!(counts.dags.computed, blocks, "{counts:?}");
        assert_eq!(counts.dags.entries, blocks, "{counts:?}");
        assert_eq!(counts.stats.computed, counts.stats.entries, "{counts:?}");
        // Reuse is real: candidates that land on an already-simulated
        // order pair cost no simulation at all.
        let measured = report.evaluated * blocks;
        assert!(counts.stats.entries < measured, "{counts:?} vs {measured}");
    }

    #[test]
    fn fingerprint_covers_the_fault_plan_and_failure_gates() {
        use bsched_pipeline::AnalysisGate;
        use bsched_verify::ValidationLevel;
        let _guard = plan_lock();
        let func = function(DAXPY);
        let system: MemorySystem = "N(30,5)".parse().unwrap();
        let cfg = TuneConfig::default();
        let base = stage_memo(&func, &system, &cfg);
        let with = |pipeline: Pipeline, eval: EvalConfig| {
            let memo = StageMemo::new(pipeline, func.clone(), system, eval);
            fingerprint(&func, &system, &cfg, &memo)
        };
        // Every gate pinned off, so the baseline does not depend on the
        // ambient BSCHED_* settings.
        let pipeline = Pipeline {
            validation: ValidationLevel::Off,
            analysis: AnalysisGate::Off,
            ..*base.pipeline()
        };
        let eval = EvalConfig {
            validation: ValidationLevel::Off,
            cycle_budget: None,
            ..*base.eval_config()
        };
        bsched_faults::clear();
        let clean = with(pipeline, eval);
        // An empty plan fires nothing, so installing it cannot perturb
        // other tests; it still names different run conditions.
        bsched_faults::install(bsched_faults::FaultPlan::seeded(7));
        let planned = with(pipeline, eval);
        bsched_faults::clear();
        assert_eq!(clean, with(pipeline, eval));
        let changed = [
            planned,
            with(
                Pipeline {
                    validation: ValidationLevel::Full,
                    ..pipeline
                },
                EvalConfig {
                    validation: ValidationLevel::Full,
                    ..eval
                },
            ),
            with(
                Pipeline {
                    analysis: AnalysisGate::Check,
                    ..pipeline
                },
                eval,
            ),
            with(
                pipeline,
                EvalConfig {
                    cycle_budget: Some(50),
                    ..eval
                },
            ),
        ];
        for fp in changed {
            assert_ne!(clean, fp);
        }
    }
}
