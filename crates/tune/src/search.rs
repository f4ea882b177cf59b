//! The search drivers: beam search and Monte-Carlo tree search over the
//! staged candidate space.
//!
//! Both drivers share one evaluation harness: a candidate is compiled
//! through the full two-pass [`Pipeline`], pruned against the
//! incumbent's score via the [`model`](crate::model) lower bound, and
//! otherwise measured with the §4.3 protocol (`runs` seeded simulations,
//! bootstrap mean). Compile and measurement run incrementally through
//! one [`StageMemo`] per search, so a candidate pays only for the stages
//! no earlier candidate shared with it; scores are bit-identical to a
//! fresh compile and evaluation. Every candidate runs under the optional
//! per-candidate wall-clock timeout; a stuck candidate (e.g. the
//! `tune-stall` fault site) is quarantined as
//! [`CandidateOutcome::TimedOut`] and the search continues.
//!
//! Determinism: batches are evaluated with
//! [`parallel_map_with`](bsched_par::parallel_map_with) under the
//! config's explicit thread budget, incumbent snapshots advance only at
//! batch boundaries, and candidate evaluation is a pure function of
//! `(candidate, incumbent, seed)` — so a `(driver, seed)` pair yields a
//! bit-identical winner and score at any thread count.

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
use bsched_stats::Pcg32;

use crate::journal::{fingerprint_mix, CandidateOutcome, TuneJournal};
use crate::model::schedule_lower_bound;
use crate::space::CandidateSpace;

/// Which search driver walks the space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Driver {
    /// Stage-synchronous beam search: evaluate every stage-1 completion,
    /// keep the best `beam_width`, extend through stages 2 and 3.
    #[default]
    Beam,
    /// Monte-Carlo tree search over the same three decision stages with
    /// UCB1 selection; seed-dependent tie-breaking explores the space.
    Mcts,
}

impl Driver {
    /// Stable kebab-case driver name (CLI spelling and artifact field).
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Driver::Beam => "beam",
            Driver::Mcts => "mcts",
        }
    }

    /// Looks a driver up by its [`id`](Driver::id).
    #[must_use]
    pub fn from_id(id: &str) -> Option<Driver> {
        match id {
            "beam" => Some(Driver::Beam),
            "mcts" => Some(Driver::Mcts),
            _ => None,
        }
    }
}

impl fmt::Display for Driver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// Search parameters. The defaults match the committed `BENCH_tune.json`
/// configuration.
#[derive(Debug, Clone)]
pub struct TuneConfig {
    /// Which driver walks the space.
    pub driver: Driver,
    /// Master seed: feeds candidate evaluation (every candidate sees the
    /// same latency draws, so comparisons are paired) and the MCTS
    /// tie-break stream.
    pub seed: u64,
    /// Beam survivors kept per stage (beam driver).
    pub beam_width: usize,
    /// Playouts (MCTS driver).
    pub iterations: usize,
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
            driver: Driver::Beam,
            seed: EvalConfig::default().seed,
            beam_width: 3,
            iterations: 96,
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
    /// Candidates discarded by the lower-bound model without simulation.
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

enum EvalResult {
    Outcome(CandidateOutcome),
    Pruned,
}

/// Compiles, bound-checks, and (if it survives) measures one candidate,
/// incrementally through the search's memo. Pure given `(spec,
/// incumbent)` and the context — both drivers rely on this for
/// thread-count-independent results.
fn evaluate_candidate(ctx: &Ctx, spec: PolicySpec, incumbent: Option<f64>) -> EvalResult {
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
    let body = move || -> EvalResult {
        bsched_faults::with_cell_context(&canon, 0, || {
            if let Some(fault) = fault_point!(Site::TuneStall) {
                std::thread::sleep(Duration::from_millis(fault.arg));
            }
            let choice = SchedulerChoice::Tuned(spec);
            let compiled = match memo.compile(&choice) {
                Ok(c) => c,
                Err(e) => return EvalResult::Outcome(CandidateOutcome::Failed(e.to_string())),
            };
            if let Some(best) = incumbent {
                let bound = schedule_lower_bound(
                    compiled.program(),
                    memo.eval_config().issue_width,
                    memo.pipeline().alias,
                );
                if bound >= best {
                    return EvalResult::Pruned;
                }
            }
            match memo.evaluate(&compiled) {
                Ok(e) => EvalResult::Outcome(CandidateOutcome::Score(e.mean_runtime)),
                Err(e) => EvalResult::Outcome(CandidateOutcome::Failed(e.to_string())),
            }
        })
    };
    match ctx.timeout {
        Some(limit) => {
            run_with_timeout(limit, body).unwrap_or(EvalResult::Outcome(CandidateOutcome::TimedOut))
        }
        None => body(),
    }
}

struct SearchState {
    ctx: Ctx,
    journal: Option<TuneJournal>,
    /// Canonical policy → score (`None` = pruned / quarantined).
    memo: BTreeMap<String, Option<f64>>,
    best: Option<(f64, PolicySpec)>,
    evaluated: usize,
    pruned: usize,
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

    /// Evaluates a batch of candidates with one incumbent snapshot,
    /// returning a score per input slot. Memoized and journal-resumed
    /// candidates cost nothing; duplicates within the batch are measured
    /// once.
    fn evaluate_batch(&mut self, specs: &[PolicySpec], threads: usize) -> Vec<Option<f64>> {
        let incumbent = self.best.map(|(score, _)| score);
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
            evaluate_candidate(ctx, *spec, incumbent)
        });
        for (spec, result) in fresh.iter().zip(results) {
            let canon = spec.canonical();
            match result {
                EvalResult::Pruned => {
                    self.pruned += 1;
                    self.memo.insert(canon, None);
                }
                EvalResult::Outcome(outcome) => {
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

        // The baseline evaluates alone first so it is the incumbent every
        // later candidate must beat for the pruning model to engage.
        self.evaluate_batch(&[PolicySpec::balanced_default()], 1);

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

    /// UCB1 Monte-Carlo tree search over family → rounding → ties.
    fn mcts(&mut self, space: &CandidateSpace, cfg: &TuneConfig) {
        self.evaluate_batch(&[PolicySpec::balanced_default()], 1);
        let Some((baseline_score, _)) = self.best else {
            return; // baseline failed; tune() surfaces the error
        };
        let (nf, nr, nt) = (
            space.families().len(),
            space.roundings().len(),
            space.tie_chains().len(),
        );
        let mut family_arms = vec![Arm::default(); nf];
        let mut rounding_arms = vec![vec![Arm::default(); nr]; nf];
        let mut tie_arms = vec![vec![vec![Arm::default(); nt]; nr]; nf];
        let mut rng = Pcg32::seed_from_u64(cfg.seed ^ 0x6d63_7473);
        for _ in 0..cfg.iterations {
            let f = select_arm(&family_arms, &mut rng);
            let r = select_arm(&rounding_arms[f], &mut rng);
            let t = select_arm(&tie_arms[f][r], &mut rng);
            let spec = PolicySpec {
                family: space.families()[f],
                rounding: space.roundings()[r],
                ties: space.tie_chains()[t],
            };
            let score = self.evaluate_batch(&[spec], 1)[0];
            // Reward > 1 beats the baseline; quarantined/pruned playouts
            // earn 0 so their subtree decays.
            let reward = score.map_or(0.0, |s| baseline_score / s.max(1.0));
            family_arms[f].add(reward);
            rounding_arms[f][r].add(reward);
            tie_arms[f][r][t].add(reward);
        }
    }
}

/// One UCB1 bandit arm.
#[derive(Debug, Clone, Copy, Default)]
struct Arm {
    visits: u32,
    total: f64,
}

impl Arm {
    fn add(&mut self, reward: f64) {
        self.visits += 1;
        self.total += reward;
    }
}

/// UCB1 selection: unvisited arms first (lowest index), then the
/// highest upper confidence bound with seed-dependent tie-breaking.
fn select_arm(arms: &[Arm], rng: &mut Pcg32) -> usize {
    if let Some(unvisited) = arms.iter().position(|a| a.visits == 0) {
        return unvisited;
    }
    let parent: u32 = arms.iter().map(|a| a.visits).sum();
    let ln_parent = f64::from(parent.max(1)).ln();
    let ucb =
        |a: &Arm| a.total / f64::from(a.visits) + (2.0 * ln_parent / f64::from(a.visits)).sqrt();
    let best = arms.iter().map(ucb).fold(f64::NEG_INFINITY, f64::max);
    let tied: Vec<usize> = arms
        .iter()
        .enumerate()
        .filter(|(_, a)| ucb(a) >= best)
        .map(|(i, _)| i)
        .collect();
    tied[(rng.next_u32() as usize) % tied.len()]
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
/// well as its name, length and frequency, and the installed fault plan.
fn fingerprint(function: &Function, system: &MemorySystem, cfg: &TuneConfig) -> String {
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
    acc = fingerprint_mix(acc, cfg.driver.id().as_bytes());
    acc = fingerprint_mix(acc, &(cfg.beam_width as u64).to_le_bytes());
    acc = fingerprint_mix(acc, &(cfg.iterations as u64).to_le_bytes());
    acc = fingerprint_mix(acc, format!("{:?}", cfg.processor).as_bytes());
    acc = fingerprint_mix(acc, format!("{:?}", cfg.alias).as_bytes());
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
            let j = TuneJournal::open(path, &fingerprint(function, system, cfg))
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
        pruned: 0,
        skipped: 0,
        resumed: 0,
    };
    match cfg.driver {
        Driver::Beam => search.beam(&space, cfg),
        Driver::Mcts => search.mcts(&space, cfg),
    }
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
        pruned: search.pruned,
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

    fn fp(function: &Function) -> String {
        let system: MemorySystem = "N(30,5)".parse().unwrap();
        fingerprint(function, &system, &TuneConfig::default())
    }

    #[test]
    fn fingerprint_covers_instructions() {
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
    fn fingerprint_covers_the_installed_fault_plan() {
        let func = function(DAXPY);
        bsched_faults::clear();
        let clean = fp(&func);
        // An empty plan fires nothing, so installing it cannot perturb
        // other tests; it still names different run conditions.
        bsched_faults::install(bsched_faults::FaultPlan::seeded(7));
        let planned = fp(&func);
        bsched_faults::clear();
        assert_ne!(clean, planned);
        assert_eq!(clean, fp(&func));
    }
}
