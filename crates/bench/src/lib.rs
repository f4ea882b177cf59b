//! Experiment harness shared by the table/figure binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper:
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `table1`  | Table 1 / Fig. 7 — balanced weight contributions |
//! | `table2`  | Table 2 — % improvement, UNLIMITED, all systems × benchmarks |
//! | `table3`  | Table 3 — MDG detail across processor models |
//! | `table4`  | Table 4 — spill-instruction percentages |
//! | `table5`  | Table 5 — the N(30,5) pathology |
//! | `figure2` | Fig. 2 — the three example schedules |
//! | `figure3` | Fig. 3 — interlocks vs actual latency for those schedules |
//! | `ablation` | DESIGN.md §5 ablations — whole-workload runtime per variant |
//! | `scaling` | §3 complexity claim — median wall time per block size |
//!
//! Run them with `cargo run --release -p bsched-bench --bin table2`.
//! The table and figure binaries honour `BSCHED_RUNS` (simulation runs
//! per block, default 30) and `BSCHED_SEED` (master seed, default matches
//! `EvalConfig::default`), so results are reproducible and a quick smoke
//! run is one environment variable away. `BSCHED_THREADS` caps the
//! worker threads used by [`run_cells_reported`] and the per-block
//! parallelism in `evaluate` — any value produces identical output,
//! because all randomness is counter-split from the master seed and
//! results are folded in deterministic order. `bsched_par::env` lists
//! every variable and when it is read.

#![warn(missing_docs)]

pub mod journal;

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use bsched_analyze::journal::fingerprint_mix;
use bsched_analyze::json;
use bsched_analyze::FailureKind;
use bsched_core::Ratio;
use bsched_cpusim::ProcessorModel;
use bsched_faults::{fault_point, Site};
use bsched_memsim::{CacheModel, LatencyModel, MemorySystem, MixedModel, NetworkModel};
use bsched_par::env::{self, Limit};
use bsched_pipeline::{
    compare, try_evaluate, CompiledProgram, EvalConfig, MemoProgram, Pipeline, PipelineError,
    ProgramEval, SchedulerChoice, StageMemo,
};
use bsched_stats::Improvement;
use bsched_workload::Benchmark;

use journal::JournalEntry;

/// One Table 2 row: a memory system plus the optimistic latency the
/// traditional baseline assumes for it.
#[derive(Debug, Clone)]
pub struct SystemRow {
    /// The memory system simulated.
    pub system: MemorySystem,
    /// The traditional scheduler's assumed load latency.
    pub optimistic: Ratio,
}

impl SystemRow {
    /// Display label, e.g. `L80(2,5) @ 2 3/5`.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{} @ {}", self.system.name(), self.optimistic)
    }
}

/// The 17 rows of Table 2, in paper order: each cache system at its hit
/// latency and at its effective access time, the seven networks at their
/// means, and the mixed system at hit latency and effective latency.
#[must_use]
pub fn table2_rows() -> Vec<SystemRow> {
    let mut rows = Vec::new();
    let caches = [
        (CacheModel::l80_5(), Ratio::new(13, 5)),  // 2.6
        (CacheModel::l80_10(), Ratio::new(18, 5)), // 3.6
        (CacheModel::l95_5(), Ratio::new(43, 20)), // 2.15
        (CacheModel::l95_10(), Ratio::new(12, 5)), // 2.4
    ];
    for (cache, effective) in caches {
        rows.push(SystemRow {
            system: cache.into(),
            optimistic: Ratio::from_int(2),
        });
        rows.push(SystemRow {
            system: cache.into(),
            optimistic: effective,
        });
    }
    for net in NetworkModel::paper_configs() {
        let mean = Ratio::from_int(net.optimistic_latency() as i64);
        rows.push(SystemRow {
            system: net.into(),
            optimistic: mean,
        });
    }
    let mixed = MixedModel::l80_n30_5();
    rows.push(SystemRow {
        system: mixed.into(),
        optimistic: Ratio::from_int(2),
    });
    rows.push(SystemRow {
        system: mixed.into(),
        optimistic: Ratio::new(38, 5),
    }); // 7.6
    rows
}

/// Evaluation configuration from the environment (`BSCHED_RUNS`,
/// `BSCHED_SEED`, read at each call), defaulting to the paper's
/// protocol.
///
/// # Panics
///
/// When either variable is set to a value that does not parse.
#[must_use]
pub fn eval_config(processor: ProcessorModel) -> EvalConfig {
    let mut cfg = EvalConfig {
        processor,
        ..EvalConfig::default()
    };
    if let Some(runs) = env::var::<u32>("BSCHED_RUNS") {
        cfg.runs = runs.max(2);
    }
    if let Some(seed) = env::var("BSCHED_SEED") {
        cfg.seed = seed;
    }
    cfg
}

/// Result of one (benchmark, system, processor) comparison cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Paired percentage improvement of balanced over traditional.
    pub improvement: Improvement,
    /// Traditional evaluation (runtime, interlocks, instructions).
    pub traditional: ProgramEval,
    /// Balanced evaluation.
    pub balanced: ProgramEval,
    /// Traditional spill percentage.
    pub traditional_spill_percent: f64,
    /// Balanced spill percentage.
    pub balanced_spill_percent: f64,
}

/// Compiles and evaluates one benchmark under one system row and
/// processor model, returning the full comparison cell.
#[must_use]
pub fn run_cell(bench: &Benchmark, row: &SystemRow, processor: ProcessorModel) -> Cell {
    Harness::from_env().run_cell(bench, row, processor)
}

/// Evaluates one comparison cell from already-compiled programs.
///
/// Compilation does not depend on the memory system or processor model
/// being simulated, so callers sweeping one benchmark across many
/// systems (every table binary) can compile once and evaluate many
/// times; [`run_cells_reported`] does exactly that.
///
/// # Errors
///
/// Propagates the first finding from [`try_evaluate`] (only possible
/// at `ValidationLevel::Full`).
pub fn try_run_cell_compiled(
    balanced: &CompiledProgram,
    traditional: &CompiledProgram,
    row: &SystemRow,
    processor: ProcessorModel,
) -> Result<Cell, PipelineError> {
    measure(balanced, traditional, row, &eval_config(processor))
}

/// Evaluates both programs under `row`'s system and `cfg`.
fn measure(
    balanced: &CompiledProgram,
    traditional: &CompiledProgram,
    row: &SystemRow,
    cfg: &EvalConfig,
) -> Result<Cell, PipelineError> {
    let b_eval = try_evaluate(balanced, &row.system, cfg)?;
    let t_eval = try_evaluate(traditional, &row.system, cfg)?;
    Ok(cell_of(balanced, traditional, b_eval, t_eval))
}

/// Pairs two programs' evaluations into a comparison cell.
fn cell_of(
    balanced: &CompiledProgram,
    traditional: &CompiledProgram,
    b_eval: ProgramEval,
    t_eval: ProgramEval,
) -> Cell {
    Cell {
        improvement: compare(&t_eval, &b_eval),
        traditional_spill_percent: traditional.spill_percent(),
        balanced_spill_percent: balanced.spill_percent(),
        traditional: t_eval,
        balanced: b_eval,
    }
}

/// One entry in a table's work list: which benchmark to evaluate under
/// which system row and processor model.
#[derive(Debug, Clone, Copy)]
pub struct CellJob<'a> {
    /// Benchmark to compile and simulate.
    pub bench: &'a Benchmark,
    /// Memory system plus the traditional scheduler's assumed latency.
    pub row: &'a SystemRow,
    /// Processor model to simulate under.
    pub processor: ProcessorModel,
}

/// Renders a failure reason as a table cell: `FAILED(<reason>)`,
/// truncated to the reason's first line and at most 40 characters so a
/// broken cell cannot wreck the table layout.
#[must_use]
pub fn failure_label(reason: &str) -> String {
    let first_line = reason.lines().next().unwrap_or("");
    let mut short: String = first_line.chars().take(40).collect();
    if first_line.chars().count() > 40 {
        short.push('…');
    }
    format!("FAILED({short})")
}

/// How one cell reached its terminal state in [`run_cells_reported`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellStatus {
    /// Evaluated cleanly on the first attempt.
    Ok,
    /// Failed at least once, then evaluated cleanly on a bounded retry.
    Recovered {
        /// Total attempts including the successful one (≥ 2).
        attempts: u32,
    },
    /// Every attempt failed; the last error is reported.
    Failed {
        /// Stable failure-vocabulary id.
        kind: FailureKind,
        /// Human-readable reason from the last attempt.
        reason: String,
    },
    /// Retries were skipped because the benchmark already accumulated
    /// [`QUARANTINE_THRESHOLD`] unrecovered failures this run.
    Quarantined {
        /// Why the cell was quarantined, including its own first error.
        reason: String,
    },
}

/// One cell's structured outcome from [`run_cells_reported`]: terminal
/// status, the evaluated cell when one exists, and whether it was
/// resumed from a prior run's journal instead of re-evaluated.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// Stable identity: `<benchmark>|<system @ optimistic>|<processor>`.
    pub key: String,
    /// True when the value came from the `BSCHED_JOURNAL` file.
    pub resumed: bool,
    /// Terminal status.
    pub status: CellStatus,
    /// The evaluated cell, for `Ok`/`Recovered` (and resumed) outcomes.
    pub cell: Option<Cell>,
}

impl CellReport {
    /// The cell, if the evaluation produced one.
    #[must_use]
    pub fn cell(&self) -> Option<&Cell> {
        self.cell.as_ref()
    }

    /// The failure reason, if the cell degraded.
    #[must_use]
    pub fn failure_reason(&self) -> Option<&str> {
        match &self.status {
            CellStatus::Ok | CellStatus::Recovered { .. } => None,
            CellStatus::Failed { reason, .. } | CellStatus::Quarantined { reason } => Some(reason),
        }
    }

    /// The failure-vocabulary id, if the cell degraded.
    #[must_use]
    pub fn failure_kind(&self) -> Option<FailureKind> {
        match &self.status {
            CellStatus::Ok | CellStatus::Recovered { .. } => None,
            CellStatus::Failed { kind, .. } => Some(*kind),
            CellStatus::Quarantined { .. } => Some(FailureKind::Quarantined),
        }
    }
}

/// Unrecovered failures per benchmark before its remaining failed cells
/// are quarantined (reported without burning retries).
pub const QUARANTINE_THRESHOLD: u32 = 2;

/// Stable identity of one cell, used as the fault-injection context key
/// and the journal key.
#[must_use]
pub fn cell_key(job: &CellJob<'_>) -> String {
    format!("{}|{}|{}", job.bench.name(), job.row.label(), job.processor)
}

/// Why one attempt at a cell did not produce a clean value.
#[derive(Debug)]
enum CellError {
    /// A program this cell depends on failed to compile.
    Compile { kind: FailureKind, reason: String },
    /// Evaluation returned a typed pipeline error.
    Pipeline(PipelineError),
    /// The evaluation worker panicked.
    Panic(String),
    /// The wall-clock watchdog fired.
    Timeout(Duration),
    /// A result-perturbing fault fired during the attempt, so the value
    /// (though produced) must not be reported.
    Tainted(String),
}

impl CellError {
    fn kind(&self) -> FailureKind {
        match self {
            CellError::Compile { kind, .. } => *kind,
            CellError::Pipeline(e) => e.failure_kind(),
            CellError::Panic(_) => FailureKind::Panic,
            CellError::Timeout(_) => FailureKind::Timeout,
            CellError::Tainted(_) => FailureKind::Tainted,
        }
    }

    fn reason(&self) -> String {
        match self {
            CellError::Compile { reason, .. } => reason.clone(),
            CellError::Pipeline(e) => e.to_string(),
            CellError::Panic(msg) => format!("panicked: {msg}"),
            CellError::Timeout(limit) => format!("timed out after {limit:?}"),
            CellError::Tainted(sites) => format!("fault injected: {sites}"),
        }
    }
}

/// Everything one harness call runs under. [`run_cells_reported`] and
/// [`run_cell`] read it from the environment once per call; tests build
/// it directly.
#[derive(Debug, Clone)]
struct Harness {
    /// Compiles every program.
    pipeline: Pipeline,
    /// The measurement protocol; each cell substitutes its processor.
    eval: EvalConfig,
    /// Worker threads for the compiles and the first attempts
    /// (`BSCHED_THREADS`).
    threads: usize,
    /// Serial retries after the parallel first attempt
    /// (`BSCHED_RETRIES`).
    retries: u32,
    /// Backoff before retry *r*: `backoff_ms × 2^(r-1)` ms, capped at
    /// 2 s (`BSCHED_BACKOFF_MS`).
    backoff_ms: u64,
    /// Per-attempt wall-clock budget (`BSCHED_TIMEOUT_MS`).
    timeout: Option<Duration>,
    /// The crash-safe journal's path (`BSCHED_JOURNAL`).
    journal: Option<PathBuf>,
}

impl Harness {
    /// The configuration the environment names now.
    ///
    /// # Panics
    ///
    /// On a variable whose value does not parse (see `bsched_par::env`).
    fn from_env() -> Harness {
        Harness {
            pipeline: Pipeline::default(),
            eval: eval_config(ProcessorModel::Unlimited),
            threads: bsched_par::max_threads(),
            retries: env::var("BSCHED_RETRIES").unwrap_or(1),
            backoff_ms: env::var("BSCHED_BACKOFF_MS").unwrap_or(25),
            timeout: env::var::<Limit>("BSCHED_TIMEOUT_MS")
                .and_then(|limit| limit.0)
                .map(Duration::from_millis),
            journal: env::var("BSCHED_JOURNAL"),
        }
    }

    /// The protocol under `processor`.
    fn eval_for(&self, processor: ProcessorModel) -> EvalConfig {
        EvalConfig {
            processor,
            ..self.eval
        }
    }

    /// Compiles and evaluates one cell on its own, the reference the
    /// shared-memo path of [`Harness::run_cells`] must match.
    fn run_cell(&self, bench: &Benchmark, row: &SystemRow, processor: ProcessorModel) -> Cell {
        let compile = |choice: SchedulerChoice| {
            self.pipeline
                .compile(bench.function(), &choice)
                .unwrap_or_else(|e| panic!("compile {}: {e}", choice.name()))
        };
        let balanced = compile(SchedulerChoice::balanced());
        let traditional = compile(SchedulerChoice::traditional(row.optimistic));
        measure(&balanced, &traditional, row, &self.eval_for(processor)).expect("evaluate cell")
    }

    /// Fingerprint of everything that determines cell values this run:
    /// the journal refuses to resume across a change in any of these.
    /// That includes the settings that decide whether a cell fails — the
    /// validation level, the analysis gate and the per-run cycle budget
    /// — so a clean journal never stands in for a stricter rerun.
    fn fingerprint(&self, keys: &[String]) -> String {
        let cfg = &self.eval;
        // FNV-1a over the ordered, newline-terminated key list captures
        // the job-list shape.
        let shape = keys.iter().fold(fingerprint_mix(0, b""), |h, key| {
            fingerprint_mix(fingerprint_mix(h, key.as_bytes()), b"\n")
        });
        let plan =
            bsched_faults::installed_plan().map_or_else(|| "none".to_owned(), |p| p.to_string());
        let budget = cfg
            .cycle_budget
            .map_or_else(|| "off".to_owned(), |b| b.to_string());
        format!(
            "v1;seed={};runs={};cells={};shape={shape:016x};faults={plan};validate={:?};\
             analyze={:?};cycle_budget={budget}",
            cfg.seed,
            cfg.runs,
            keys.len(),
            cfg.validation,
            self.pipeline.analysis,
        )
    }
}

/// The full watchdog/recovery harness: runs every job with per-cell
/// fault isolation, bounded retry with exponential backoff, quarantine,
/// optional wall-clock timeouts, and crash-safe journaling.
///
/// Its behaviour comes from the environment, read once per call (the
/// table in `bsched_par::env` has each variable's default):
///
/// - `BSCHED_RETRIES` — serial retries after the parallel first
///   attempt; backoff before retry *r* is `BSCHED_BACKOFF_MS × 2^(r-1)`
///   ms, capped at 2 s.
/// - `BSCHED_TIMEOUT_MS` — per-attempt wall-clock budget, enforced by
///   [`bsched_par::run_with_timeout`] with cooperative cancellation of
///   the abandoned simulation.
/// - `BSCHED_JOURNAL` — path of a crash-safe
///   [`journal`](journal::Journal); cells recorded by a previous run
///   with the same fingerprint are resumed, not re-evaluated.
/// - `BSCHED_FAULTS` — a [`bsched_faults::FaultPlan`] spec, installed
///   once per process.
/// - `BSCHED_THREADS`, `BSCHED_RUNS`, `BSCHED_SEED` and the pipeline
///   defaults, as everywhere.
///
/// Invariants:
///
/// - With no fault plan installed, results are bit-identical to
///   [`run_cell`] in a loop, for any thread count, retry count, or
///   resume pattern.
/// - An attempt during which a result-perturbing fault (latency jitter,
///   simulator stall) fired is *tainted*: its value is discarded and the
///   cell either recovers on a clean retry or reports a typed
///   [`CellStatus::Failed`] — never a silently wrong number.
/// - After a benchmark accumulates [`QUARANTINE_THRESHOLD`] unrecovered
///   failures, its remaining failed cells skip retries and report
///   [`CellStatus::Quarantined`].
///
/// # Panics
///
/// On a variable whose value does not parse (see `bsched_par::env`).
#[must_use]
pub fn run_cells_reported(jobs: &[CellJob<'_>]) -> Vec<CellReport> {
    env::install_fault_plan();
    Harness::from_env().run_cells(jobs).0
}

impl Harness {
    /// [`run_cells_reported`] under this configuration, also returning each
    /// benchmark's memo (in first-job order) so tests can count the stages
    /// it computed.
    fn run_cells(&self, jobs: &[CellJob<'_>]) -> (Vec<CellReport>, Vec<Arc<StageMemo>>) {
        let keys: Vec<String> = jobs.iter().map(cell_key).collect();
        let journal = self
            .journal
            .as_deref()
            .and_then(|path| journal::open(path, &self.fingerprint(&keys)));

        // Compilation is independent of the memory system and processor
        // model: the balanced schedule depends only on the benchmark, the
        // traditional schedule only on (benchmark, optimistic latency).
        // Table job lists repeat those pairs heavily — Table 2 alone names
        // each benchmark's balanced program 17 times — so each distinct
        // program is compiled once and shared across its cells. Each
        // benchmark's programs compile and measure through one `StageMemo`:
        // they share its pass-1 DAGs, allocations and, under one (system,
        // protocol), the statistics of every block they compile alike.
        // Compilation and measurement are deterministic, making the sharing
        // bit-identical to compiling and evaluating per cell as [`run_cell`]
        // does.
        #[derive(PartialEq, Eq, Hash)]
        enum Key {
            Balanced(usize),
            Traditional(usize, Ratio),
        }
        let mut memo_of: HashMap<usize, usize> = HashMap::new();
        let mut memos: Vec<Arc<StageMemo>> = Vec::new();
        let mut index: HashMap<Key, usize> = HashMap::new();
        let mut tasks: Vec<(&Benchmark, usize, SchedulerChoice)> = Vec::new();
        let mut refs: Vec<(usize, usize)> = Vec::with_capacity(jobs.len());
        for job in jobs {
            let bench_key = std::ptr::from_ref(job.bench) as usize;
            let memo = *memo_of.entry(bench_key).or_insert_with(|| {
                memos.push(Arc::new(StageMemo::new(
                    self.pipeline,
                    job.bench.function().clone(),
                )));
                memos.len() - 1
            });
            let balanced = *index.entry(Key::Balanced(bench_key)).or_insert_with(|| {
                tasks.push((job.bench, memo, SchedulerChoice::balanced()));
                tasks.len() - 1
            });
            let traditional = *index
                .entry(Key::Traditional(bench_key, job.row.optimistic))
                .or_insert_with(|| {
                    let choice = SchedulerChoice::traditional(job.row.optimistic);
                    tasks.push((job.bench, memo, choice));
                    tasks.len() - 1
                });
            refs.push((balanced, traditional));
        }
        // Fault sites inside the memoized stages decide per fault context
        // and count their visits, so under a fault plan a stage's result is
        // not a function of its key alone. Each compile and each evaluation
        // then runs through a memo of its own, visiting every site exactly
        // as an unshared compile or evaluation does.
        let memo_for = |memo: usize| {
            if bsched_faults::active() {
                Arc::new(memos[memo].fresh())
            } else {
                Arc::clone(&memos[memo])
            }
        };

        // Compile each distinct program once, with panics and errors caught
        // per program; a failed compile only poisons the cells that need it.
        // Each compile runs under a `compile|<benchmark>|<scheduler>` fault
        // context so plans can target it (parser reject, spill exhaustion).
        let compile_one = |task: &(&Benchmark, usize, SchedulerChoice), attempt: u32| {
            let ctx = format!("compile|{}|{}", task.0.name(), task.2.name());
            bsched_faults::with_cell_context(&ctx, attempt, || {
                memo_for(task.1)
                    .compile(&task.2)
                    .map_err(|e| (e.failure_kind(), e.to_string()))
            })
        };
        let compiled: Vec<Result<MemoProgram, (FailureKind, String)>> =
            bsched_par::parallel_map_catch_with(self.threads, &tasks, |_, task| {
                compile_one(task, 1)
            })
            .into_iter()
            .enumerate()
            .map(|(k, caught)| {
                let first = caught.unwrap_or_else(|p| Err((FailureKind::Panic, p.to_string())));
                match first {
                    Ok(program) => Ok(program),
                    // Retry once serially: rules out transient causes
                    // (an injected fault with a limit, resource
                    // exhaustion under full fan-out) before every
                    // dependent cell is written off.
                    Err(_) => bsched_par::parallel_map_catch_with(1, &tasks[k..=k], |_, task| {
                        compile_one(task, 2)
                    })
                    .pop()
                    .expect("one result per item")
                    .unwrap_or_else(|p| Err((FailureKind::Panic, p.to_string()))),
                }
            })
            .collect();

        // Every program is compiled, so no later call can hit a compile
        // stage; only the block statistics are shared from here on.
        for memo in &memos {
            memo.release_compile_stages();
        }

        // One attempt at one cell, under its fault context. Any fire of a
        // result-perturbing site during the attempt taints it.
        let attempt = |i: usize, attempt_no: u32| -> Result<Cell, CellError> {
            let (bi, ti) = refs[i];
            let job = &jobs[i];
            let key = &keys[i];
            bsched_faults::with_cell_context(key, attempt_no, || {
                // Both the slow-cell and eval-panic sites live *inside* the
                // timed region, so the wall-clock watchdog covers them.
                fn eval_body(
                    key: &str,
                    b_memo: &StageMemo,
                    balanced: &MemoProgram,
                    t_memo: &StageMemo,
                    traditional: &MemoProgram,
                    system: &MemorySystem,
                    cfg: &EvalConfig,
                ) -> Result<Cell, PipelineError> {
                    if let Some(fault) = fault_point!(Site::SlowCell) {
                        std::thread::sleep(Duration::from_millis(fault.arg.min(10_000)));
                    }
                    if fault_point!(Site::EvalPanic).is_some() {
                        panic!("injected failure (eval-panic in {key})");
                    }
                    let b_eval = b_memo.evaluate(balanced, system, cfg)?;
                    let t_eval = t_memo.evaluate(traditional, system, cfg)?;
                    Ok(cell_of(
                        balanced.program(),
                        traditional.program(),
                        b_eval,
                        t_eval,
                    ))
                }
                let balanced = compiled[bi]
                    .as_ref()
                    .map_err(|(kind, e)| CellError::Compile {
                        kind: *kind,
                        reason: format!("compiling {}: {e}", tasks[bi].2.name()),
                    })?;
                let traditional =
                    compiled[ti]
                        .as_ref()
                        .map_err(|(kind, e)| CellError::Compile {
                            kind: *kind,
                            reason: format!("compiling {}: {e}", tasks[ti].2.name()),
                        })?;
                let (b_memo, t_memo) = (memo_for(tasks[bi].1), memo_for(tasks[ti].1));
                let cfg = self.eval_for(job.processor);
                let cell = match self.timeout {
                    Some(limit) => {
                        // The watchdog thread needs owned inputs; cloning the
                        // compiled programs costs nothing next to the limit
                        // we are prepared to wait.
                        let key = key.clone();
                        let b = balanced.clone();
                        let t = traditional.clone();
                        let system = job.row.system;
                        bsched_par::run_with_timeout(limit, move || {
                            eval_body(&key, &b_memo, &b, &t_memo, &t, &system, &cfg)
                        })
                        .map_err(|t| CellError::Timeout(t.limit))?
                        .map_err(CellError::Pipeline)?
                    }
                    None => eval_body(
                        key,
                        &b_memo,
                        balanced,
                        &t_memo,
                        traditional,
                        &job.row.system,
                        &cfg,
                    )
                    .map_err(CellError::Pipeline)?,
                };
                let perturbing: Vec<&str> = bsched_faults::take_fired(key, attempt_no)
                    .iter()
                    .filter(|f| matches!(f.site, Site::LatencyJitter | Site::SimStall))
                    .map(|f| f.site.id())
                    .collect();
                if perturbing.is_empty() {
                    Ok(cell)
                } else {
                    Err(CellError::Tainted(perturbing.join(", ")))
                }
            })
        };
        let caught_to_err = |p: bsched_par::CaughtPanic| CellError::Panic(p.message().to_owned());

        // First attempt: every not-yet-journaled cell, in parallel. Clean
        // results are journaled as they land — a kill mid-table loses at
        // most the in-flight cells.
        let pending: Vec<usize> = (0..jobs.len())
            .filter(|&i| {
                journal
                    .as_ref()
                    .is_none_or(|j| j.lookup(&keys[i]).is_none())
            })
            .collect();
        let mut firsts: Vec<Option<Result<Cell, CellError>>> =
            (0..jobs.len()).map(|_| None).collect();
        let first_results = bsched_par::parallel_map_catch_with(self.threads, &pending, |_, &i| {
            let result = attempt(i, 1);
            if let (Ok(cell), Some(j)) = (&result, journal.as_ref()) {
                j.record(&keys[i], &JournalEntry::Ok(cell.clone()));
            }
            result
        });
        for (&slot, caught) in pending.iter().zip(first_results) {
            firsts[slot] = Some(caught.unwrap_or_else(|p| Err(caught_to_err(p))));
        }

        // Recovery pass: serial, in job order, so retry/quarantine decisions
        // are deterministic for any thread count.
        let mut strikes: HashMap<String, u32> = HashMap::new();
        let mut reports = Vec::with_capacity(jobs.len());
        let record_failed = |key: &str, kind: FailureKind, reason: &str| {
            if let Some(j) = journal.as_ref() {
                j.record(
                    key,
                    &JournalEntry::Failed {
                        kind,
                        reason: reason.to_owned(),
                    },
                );
            }
        };
        for (i, first) in firsts.into_iter().enumerate() {
            let key = keys[i].clone();
            let report = match first {
                None => {
                    // Resumed from the journal.
                    let entry = journal
                        .as_ref()
                        .and_then(|j| j.lookup(&key))
                        .expect("unattempted cells come from the journal");
                    match entry {
                        JournalEntry::Ok(cell) => CellReport {
                            key,
                            resumed: true,
                            status: CellStatus::Ok,
                            cell: Some(cell),
                        },
                        JournalEntry::Failed { kind, reason } => CellReport {
                            key,
                            resumed: true,
                            status: if kind == FailureKind::Quarantined {
                                CellStatus::Quarantined { reason }
                            } else {
                                CellStatus::Failed { kind, reason }
                            },
                            cell: None,
                        },
                    }
                }
                Some(Ok(cell)) => CellReport {
                    key,
                    resumed: false,
                    status: CellStatus::Ok,
                    cell: Some(cell),
                },
                Some(Err(mut err)) => {
                    let bench = jobs[i].bench.name().to_owned();
                    let prior = strikes.get(&bench).copied().unwrap_or(0);
                    if prior >= QUARANTINE_THRESHOLD {
                        let reason = format!(
                        "{bench} quarantined after {prior} unrecovered failures; this cell's first error: {}",
                        err.reason()
                    );
                        record_failed(&key, FailureKind::Quarantined, &reason);
                        CellReport {
                            key,
                            resumed: false,
                            status: CellStatus::Quarantined { reason },
                            cell: None,
                        }
                    } else {
                        let mut recovered = None;
                        for retry in 0..self.retries {
                            let delay =
                                self.backoff_ms.saturating_mul(1 << retry.min(6)).min(2_000);
                            if delay > 0 {
                                std::thread::sleep(Duration::from_millis(delay));
                            }
                            let caught = bsched_par::parallel_map_catch_with(1, &[i], |_, &i| {
                                attempt(i, retry + 2)
                            })
                            .pop()
                            .expect("one result per item");
                            match caught.unwrap_or_else(|p| Err(caught_to_err(p))) {
                                Ok(cell) => {
                                    recovered = Some((cell, retry + 2));
                                    break;
                                }
                                Err(e) => err = e,
                            }
                        }
                        match recovered {
                            Some((cell, attempts)) => {
                                if let Some(j) = journal.as_ref() {
                                    j.record(&key, &JournalEntry::Ok(cell.clone()));
                                }
                                CellReport {
                                    key,
                                    resumed: false,
                                    status: CellStatus::Recovered { attempts },
                                    cell: Some(cell),
                                }
                            }
                            None => {
                                *strikes.entry(bench).or_insert(0) += 1;
                                let (kind, reason) = (err.kind(), err.reason());
                                record_failed(&key, kind, &reason);
                                CellReport {
                                    key,
                                    resumed: false,
                                    status: CellStatus::Failed { kind, reason },
                                    cell: None,
                                }
                            }
                        }
                    }
                }
            };
            reports.push(report);
        }
        (reports, memos)
    }
}

/// Prints resume/retry/failure detail from a [`run_cells_reported`] pass
/// to stderr and returns the failure count; table binaries exit non-zero
/// when it is positive.
pub fn report_cell_reports(reports: &[CellReport]) -> usize {
    let resumed = reports.iter().filter(|r| r.resumed).count();
    if resumed > 0 {
        eprintln!(
            "resumed {resumed} of {} cells from the journal",
            reports.len()
        );
    }
    for report in reports {
        if let CellStatus::Recovered { attempts } = report.status {
            eprintln!("RECOVERED cell on attempt {attempts}: {}", report.key);
        }
    }
    let mut failures = 0;
    for report in reports {
        if let Some(reason) = report.failure_reason() {
            failures += 1;
            let kind = report
                .failure_kind()
                .map_or_else(String::new, |k| format!(" [{k}]"));
            eprintln!("FAILED cell{kind}: {}: {reason}", report.key);
        }
    }
    if failures > 0 {
        eprintln!(
            "{failures} of {} cells failed; the rest are reported above",
            reports.len()
        );
    }
    failures
}

/// Serialises a table as a JSON object (`{"title", "header", "rows"}`)
/// for external plotting tools. Strings are escaped per RFC 8259.
#[must_use]
pub fn table_to_json(title: &str, header: &[String], rows: &[Vec<String>]) -> String {
    let list = |cells: &[String]| {
        format!(
            "[{}]",
            cells
                .iter()
                .map(|c| json::string(c))
                .collect::<Vec<_>>()
                .join(",")
        )
    };
    format!(
        "{{\"title\":{},\"header\":{},\"rows\":[{}]}}",
        json::string(title),
        list(header),
        rows.iter().map(|r| list(r)).collect::<Vec<_>>().join(",")
    )
}

/// Pretty-prints a header followed by aligned rows — or, when
/// `BSCHED_JSON=1`, one machine-readable JSON object per table.
pub fn print_table(title: &str, header: &[String], rows: &[Vec<String>]) {
    if env::switch("BSCHED_JSON") {
        println!("{}", table_to_json(title, header, rows));
        return;
    }
    println!("\n{title}");
    println!("{}", "=".repeat(title.len()));
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(header));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsched_faults::{FaultPlan, FaultSpec};
    use bsched_pipeline::AnalysisGate;
    use bsched_verify::ValidationLevel;
    use bsched_workload::{perfect, perfect_club};

    /// Serialises the tests that evaluate cells: a fault plan one of
    /// them installs is process-wide and would fire in another's cells.
    static FAULT_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn fault_lock() -> std::sync::MutexGuard<'static, ()> {
        FAULT_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The default harness at `runs` runs a block on `threads` threads,
    /// with no backoff; each test changes what it exercises.
    fn harness(runs: u32, threads: usize) -> Harness {
        Harness {
            pipeline: Pipeline::default(),
            eval: EvalConfig {
                runs,
                ..EvalConfig::default()
            },
            threads,
            retries: 1,
            backoff_ms: 0,
            timeout: None,
            journal: None,
        }
    }

    #[test]
    fn table2_has_seventeen_rows_in_paper_order() {
        let rows = table2_rows();
        assert_eq!(rows.len(), 17);
        assert_eq!(rows[0].label(), "L80(2,5) @ 2");
        assert_eq!(rows[1].label(), "L80(2,5) @ 2 3/5");
        assert_eq!(rows[8].label(), "N(2,2) @ 2");
        assert_eq!(rows[15].label(), "L80-N(30,5) @ 2");
        assert_eq!(rows[16].label(), "L80-N(30,5) @ 7 3/5");
    }

    #[test]
    fn run_cell_produces_consistent_results() {
        let _guard = fault_lock();
        let bench = perfect::track();
        let row = &table2_rows()[8]; // N(2,2)
        let cell = harness(30, 4).run_cell(&bench, row, ProcessorModel::Unlimited);
        assert!(cell.improvement.mean_percent.is_finite());
        assert!(cell.traditional.mean_runtime > 0.0);
        assert!(cell.balanced.mean_runtime > 0.0);
        assert!(cell.traditional_spill_percent >= 0.0);
    }

    #[test]
    fn threads_env_does_not_change_results() {
        let _guard = fault_lock();
        // One full Table-2 row: every benchmark under L80(2,5), serial
        // (BSCHED_THREADS=1) versus four threads, bit-identical.
        let benchmarks = perfect_club();
        let rows = table2_rows();
        let row = &rows[0];
        let jobs: Vec<CellJob> = benchmarks
            .iter()
            .map(|bench| CellJob {
                bench,
                row,
                processor: ProcessorModel::Unlimited,
            })
            .collect();
        let serial = harness(5, 1).run_cells(&jobs).0;
        let parallel = harness(5, 4).run_cells(&jobs).0;
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            let (s, p) = (s.cell().expect("clean cell"), p.cell().expect("clean cell"));
            assert_eq!(s.improvement.mean_percent, p.improvement.mean_percent);
            assert_eq!(
                s.traditional.bootstrap_runtimes,
                p.traditional.bootstrap_runtimes
            );
            assert_eq!(s.balanced.bootstrap_runtimes, p.balanced.bootstrap_runtimes);
            assert_eq!(s.balanced.mean_interlocks, p.balanced.mean_interlocks);
        }
    }

    /// A benchmark whose block already names a physical register, which
    /// the allocator rejects — a stand-in for any corrupted program.
    fn corrupted_benchmark() -> Benchmark {
        use bsched_ir::{Function, Inst, Opcode, PhysReg, RegClass};
        let phys = PhysReg::new(RegClass::Int, 0).into();
        let block = bsched_ir::BasicBlock::new(
            "bad",
            vec![Inst::new(Opcode::Li, vec![phys], vec![], None)],
        );
        Benchmark::new("BROKEN", Function::new("BROKEN", vec![block]))
    }

    #[test]
    fn corrupted_benchmark_degrades_to_a_failed_cell() {
        let _guard = fault_lock();
        let good = perfect::track();
        let bad = corrupted_benchmark();
        let rows = table2_rows();
        let row = &rows[8]; // N(2,2)
        let jobs: Vec<CellJob> = [&good, &bad, &good]
            .into_iter()
            .map(|bench| CellJob {
                bench,
                row,
                processor: ProcessorModel::Unlimited,
            })
            .collect();
        let reports = harness(2, 4).run_cells(&jobs).0;
        assert_eq!(reports.len(), 3);
        assert!(reports[0].cell().is_some(), "good cell must survive");
        assert!(reports[2].cell().is_some(), "good cell must survive");
        let reason = reports[1].failure_reason().expect("bad cell must fail");
        assert!(
            reason.contains("physical registers"),
            "reason should name the allocator's complaint: {reason}"
        );
        assert!(failure_label(reason).starts_with("FAILED("));
        assert_eq!(report_cell_reports(&reports), 1);
    }

    #[test]
    fn injected_panic_fails_the_same_cells_serial_and_parallel() {
        let _guard = fault_lock();
        let benchmarks = perfect_club();
        let rows = table2_rows();
        let row = &rows[8]; // N(2,2)
        let jobs: Vec<CellJob> = benchmarks
            .iter()
            .map(|bench| CellJob {
                bench,
                row,
                processor: ProcessorModel::Unlimited,
            })
            .collect();
        // An unbounded eval-panic plan keyed to one benchmark: every
        // attempt at its cell panics, so retries exhaust and exactly
        // that cell degrades.
        bsched_faults::install(
            FaultPlan::seeded(7)
                .with(FaultSpec::always(Site::EvalPanic).with_key(benchmarks[2].name())),
        );
        let serial = harness(2, 1).run_cells(&jobs).0;
        bsched_faults::install(
            FaultPlan::seeded(7)
                .with(FaultSpec::always(Site::EvalPanic).with_key(benchmarks[2].name())),
        );
        let parallel = harness(2, 4).run_cells(&jobs).0;
        bsched_faults::clear();
        assert_eq!(serial.len(), parallel.len());
        for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            match (s.cell(), p.cell()) {
                (Some(s), Some(p)) => {
                    assert_eq!(
                        s.improvement.mean_percent, p.improvement.mean_percent,
                        "surviving cell {i} differs between serial and parallel"
                    );
                    assert_eq!(s.balanced.bootstrap_runtimes, p.balanced.bootstrap_runtimes);
                }
                (None, None) => {
                    let (s, p) = (s.failure_reason().unwrap(), p.failure_reason().unwrap());
                    assert_eq!(i, 2, "only the injected cell may fail");
                    assert_eq!(s, p);
                    assert!(s.contains("injected failure"), "{s}");
                }
                _ => panic!("cell {i}: serial and parallel outcomes disagree"),
            }
        }
    }

    #[test]
    fn transient_panic_recovers_on_retry_bit_identically() {
        let _guard = fault_lock();
        let bench = perfect::track();
        let rows = table2_rows();
        let jobs = [CellJob {
            bench: &bench,
            row: &rows[8],
            processor: ProcessorModel::Unlimited,
        }];
        bsched_faults::clear();
        let clean = harness(2, 4).run_cells(&jobs).0;
        // limit=1 → the fault fires exactly once; the retry runs clean.
        bsched_faults::install(
            FaultPlan::seeded(3).with(
                FaultSpec::always(Site::EvalPanic)
                    .with_key("TRACK")
                    .with_limit(1),
            ),
        );
        let faulted = harness(2, 4).run_cells(&jobs).0;
        bsched_faults::clear();
        assert_eq!(clean[0].status, CellStatus::Ok);
        assert_eq!(faulted[0].status, CellStatus::Recovered { attempts: 2 });
        let (a, b) = (clean[0].cell().unwrap(), faulted[0].cell().unwrap());
        assert_eq!(
            a.improvement.mean_percent.to_bits(),
            b.improvement.mean_percent.to_bits(),
            "recovered cell must be bit-identical to the fault-free run"
        );
        assert_eq!(a.balanced.bootstrap_runtimes, b.balanced.bootstrap_runtimes);
    }

    #[test]
    fn tainted_jitter_is_never_reported_as_a_clean_number() {
        let _guard = fault_lock();
        let bench = perfect::track();
        let rows = table2_rows();
        let jobs = [CellJob {
            bench: &bench,
            row: &rows[8], // N(2,2): unbounded support, jitter perturbs
            processor: ProcessorModel::Unlimited,
        }];
        // Unbounded jitter plan: every attempt is tainted, so the cell
        // must degrade to a typed failure rather than report perturbed
        // numbers.
        bsched_faults::install(
            FaultPlan::seeded(11).with(
                FaultSpec::always(Site::LatencyJitter)
                    .with_key("TRACK")
                    .with_arg(500),
            ),
        );
        let reports = harness(2, 4).run_cells(&jobs).0;
        bsched_faults::clear();
        assert_eq!(reports[0].failure_kind(), Some(FailureKind::Tainted));
        let reason = reports[0].failure_reason().expect("tainted cell fails");
        assert!(reason.contains("latency-jitter"), "{reason}");
        assert!(
            reports[0].cell().is_none(),
            "no value may escape a tainted cell"
        );
    }

    #[test]
    fn repeated_failures_quarantine_the_benchmark() {
        let _guard = fault_lock();
        let bad = corrupted_benchmark();
        let rows = table2_rows();
        let jobs: Vec<CellJob> = rows[..4]
            .iter()
            .map(|row| CellJob {
                bench: &bad,
                row,
                processor: ProcessorModel::Unlimited,
            })
            .collect();
        bsched_faults::clear();
        let reports = harness(2, 4).run_cells(&jobs).0;
        assert!(matches!(
            reports[0].status,
            CellStatus::Failed {
                kind: FailureKind::Alloc,
                ..
            }
        ));
        assert!(matches!(
            reports[1].status,
            CellStatus::Failed {
                kind: FailureKind::Alloc,
                ..
            }
        ));
        assert!(
            matches!(reports[2].status, CellStatus::Quarantined { .. }),
            "third failure of the same benchmark is quarantined: {:?}",
            reports[2].status
        );
        assert!(matches!(reports[3].status, CellStatus::Quarantined { .. }));
        assert_eq!(reports[2].failure_kind(), Some(FailureKind::Quarantined));
        assert_eq!(report_cell_reports(&reports), 4);
    }

    #[test]
    fn slow_cell_times_out_as_a_typed_failure() {
        let _guard = fault_lock();
        let bench = perfect::track();
        let rows = table2_rows();
        let jobs = [CellJob {
            bench: &bench,
            row: &rows[8],
            processor: ProcessorModel::Unlimited,
        }];
        bsched_faults::install(
            FaultPlan::seeded(5).with(
                FaultSpec::always(Site::SlowCell)
                    .with_key("TRACK")
                    .with_arg(2_000),
            ),
        );
        let reports = Harness {
            timeout: Some(Duration::from_millis(100)),
            retries: 0,
            ..harness(2, 4)
        }
        .run_cells(&jobs)
        .0;
        bsched_faults::clear();
        assert_eq!(reports[0].failure_kind(), Some(FailureKind::Timeout));
        assert!(
            reports[0].failure_reason().unwrap().contains("timed out"),
            "{:?}",
            reports[0].status
        );
    }

    #[test]
    fn journal_resumes_recorded_cells_bit_identically() {
        let _guard = fault_lock();
        let bench = perfect::track();
        let rows = table2_rows();
        let jobs: Vec<CellJob> = rows[..2]
            .iter()
            .map(|row| CellJob {
                bench: &bench,
                row,
                processor: ProcessorModel::Unlimited,
            })
            .collect();
        let path =
            std::env::temp_dir().join(format!("bsched-bench-journal-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let journaled = Harness {
            journal: Some(path.clone()),
            ..harness(2, 4)
        };
        bsched_faults::clear();
        let fresh = journaled.run_cells(&jobs).0;
        let resumed = journaled.run_cells(&jobs).0;
        let _ = std::fs::remove_file(&path);
        for (f, r) in fresh.iter().zip(&resumed) {
            assert!(!f.resumed);
            assert!(r.resumed, "second pass must resume from the journal");
            let (a, b) = (f.cell().unwrap(), r.cell().unwrap());
            assert_eq!(
                a.improvement.mean_percent.to_bits(),
                b.improvement.mean_percent.to_bits()
            );
            assert_eq!(a.balanced.bootstrap_runtimes, b.balanced.bootstrap_runtimes);
            assert_eq!(
                a.traditional.bootstrap_runtimes,
                b.traditional.bootstrap_runtimes
            );
        }
        assert_eq!(report_cell_reports(&resumed), 0);
    }

    #[test]
    fn journal_is_discarded_whole_when_any_fingerprint_field_changes() {
        let _guard = fault_lock();
        let bench = perfect::track();
        let rows = table2_rows();
        let jobs: Vec<CellJob> = rows[..2]
            .iter()
            .map(|row| CellJob {
                bench: &bench,
                row,
                processor: ProcessorModel::Unlimited,
            })
            .collect();
        let path = std::env::temp_dir().join(format!(
            "bsched-bench-journal-fp-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let base = Harness {
            journal: Some(path.clone()),
            ..harness(2, 4)
        };
        bsched_faults::clear();

        let seed = base.run_cells(&jobs).0;
        assert!(seed.iter().all(|r| !r.resumed));

        // Each changed harness runs against a journal the base harness
        // just filled, and may resume nothing — not even the cells that
        // *were* recorded. That covers every setting that decides whether
        // a cell fails: a clean journal must not stand in for a stricter
        // rerun. Each setting moves to a value other than the base's
        // (CI runs this suite under BSCHED_VALIDATE=full).
        type Change = (&'static str, fn(&mut Harness));
        let changes: [Change; 5] = [
            ("runs", |h| h.eval.runs = 3),
            ("seed", |h| h.eval.seed = 12345),
            ("validation", |h| {
                let level = if h.eval.validation == ValidationLevel::Full {
                    ValidationLevel::Off
                } else {
                    ValidationLevel::Full
                };
                (h.pipeline.validation, h.eval.validation) = (level, level);
            }),
            ("analysis", |h| {
                h.pipeline.analysis = if h.pipeline.analysis == AnalysisGate::Check {
                    AnalysisGate::Off
                } else {
                    AnalysisGate::Check
                };
            }),
            ("cycle budget", |h| {
                h.eval.cycle_budget = if h.eval.cycle_budget == Some(50) {
                    None
                } else {
                    Some(50)
                };
            }),
        ];
        for (field, change) in changes {
            let mut changed = base.clone();
            change(&mut changed);
            let _ = base.run_cells(&jobs);
            let after = changed.run_cells(&jobs).0;
            assert!(
                after.iter().all(|r| !r.resumed),
                "a {field} change must discard the journal whole"
            );
        }

        // Changing the job list (shape) — even to a subset of what was
        // recorded — must not resume the overlapping cell.
        let _ = base.run_cells(&jobs);
        let subset = base.run_cells(&jobs[..1]).0;
        assert!(
            subset.iter().all(|r| !r.resumed),
            "a job-list change must discard the journal whole"
        );

        // Installing a fault plan changes the fingerprint too.
        let _ = base.run_cells(&jobs);
        bsched_faults::install(FaultPlan::seeded(7));
        let after_plan = base.run_cells(&jobs).0;
        bsched_faults::clear();
        assert!(
            after_plan.iter().all(|r| !r.resumed),
            "a fault-plan change must discard the journal whole"
        );

        // The discard itself is observable: a journal opened under a
        // different fingerprint reports how many cells it threw away.
        let fresh = base.run_cells(&jobs).0;
        assert!(fresh.iter().all(|r| !r.resumed));
        let j = journal::Journal::open(&path, "other-fingerprint").expect("open");
        assert!(j.is_empty());
        assert_eq!(
            j.discarded(),
            jobs.len(),
            "the discard must be reported, not silent"
        );
        let _ = std::fs::remove_file(&path);
    }

    /// Every float a cell reports, as exact bit patterns.
    fn cell_bits(cell: &Cell) -> Vec<u64> {
        let mut bits = Vec::new();
        for eval in [&cell.balanced, &cell.traditional] {
            bits.extend(eval.bootstrap_runtimes.iter().map(|x| x.to_bits()));
            bits.extend(
                [
                    eval.mean_runtime,
                    eval.dynamic_instructions,
                    eval.mean_interlocks,
                ]
                .map(f64::to_bits),
            );
        }
        let improvement = &cell.improvement;
        bits.extend(
            [
                improvement.mean_percent,
                improvement.interval.low,
                improvement.interval.high,
                improvement.interval.level,
                cell.balanced_spill_percent,
                cell.traditional_spill_percent,
            ]
            .map(f64::to_bits),
        );
        bits
    }

    #[test]
    fn memoized_cells_match_run_cell_across_systems_and_processors() {
        // Table 3's job shape (MDG under every row and processor model)
        // and Table 5's (every stand-in under N(30,5) and every processor
        // model). A benchmark's cells share one memo but differ in system
        // or processor, so a statistics key that lost either would hand
        // one cell another's numbers.
        let _guard = fault_lock();
        let models = ProcessorModel::paper_models();
        let mdg = perfect::mdg();
        let rows = table2_rows();
        let n30 = SystemRow {
            system: NetworkModel::new(30.0, 5.0).into(),
            optimistic: Ratio::from_int(30),
        };
        let benchmarks = perfect_club();
        let table3 = rows.iter().flat_map(|row| {
            let bench = &mdg;
            models.iter().map(move |&processor| CellJob {
                bench,
                row,
                processor,
            })
        });
        let table5 = benchmarks.iter().flat_map(|bench| {
            let row = &n30;
            models.iter().map(move |&processor| CellJob {
                bench,
                row,
                processor,
            })
        });
        let jobs: Vec<CellJob> = table3.chain(table5).collect();
        let expected: Vec<Vec<u64>> = jobs
            .iter()
            .map(|job| cell_bits(&harness(2, 1).run_cell(job.bench, job.row, job.processor)))
            .collect();
        for threads in [1, 4] {
            let reports = harness(2, threads).run_cells(&jobs).0;
            assert_eq!(reports.len(), expected.len());
            for (report, want) in reports.iter().zip(&expected) {
                let cell = report
                    .cell()
                    .unwrap_or_else(|| panic!("{}: {:?}", report.key, report.status));
                assert!(
                    cell_bits(cell) == *want,
                    "{} differs from run_cell at {threads} threads",
                    report.key
                );
            }
        }
    }

    #[test]
    fn a_table2_column_computes_each_stage_once_per_distinct_key() {
        use bsched_pipeline::memo::StageCount;
        use std::collections::HashSet;

        // One thread, so no two workers race to compute the same key.
        let _guard = fault_lock();
        let harness = harness(2, 1);
        let rows = table2_rows();
        let mut totals = [0; 4];
        for bench in &perfect_club() {
            let jobs: Vec<CellJob> = rows
                .iter()
                .map(|row| CellJob {
                    bench,
                    row,
                    processor: ProcessorModel::Unlimited,
                })
                .collect();
            let built = bsched_dag::builds_on_this_thread();
            let (reports, memos) = harness.run_cells(&jobs);
            let builds = bsched_dag::builds_on_this_thread() - built;
            assert!(reports.iter().all(|r| r.status == CellStatus::Ok));
            assert_eq!(memos.len(), 1, "one memo per stand-in");
            let counts = memos[0].counts();

            // Predict each count from the column's programs, each
            // compiled through a memo of its own: one allocation per
            // distinct (block, pass-1 order), one statistics entry per
            // distinct (system, block, order pair). The protocol is the
            // same in every cell.
            let compile = |choice: SchedulerChoice| {
                StageMemo::new(harness.pipeline, bench.function().clone())
                    .compile(&choice)
                    .expect("compiles")
            };
            let balanced = compile(SchedulerChoice::balanced());
            let mut allocs = HashSet::new();
            let mut stats: Vec<(&MemorySystem, HashSet<_>)> = Vec::new();
            for row in &rows {
                let traditional = compile(SchedulerChoice::traditional(row.optimistic));
                let table = match stats.iter().position(|(s, _)| **s == row.system) {
                    Some(t) => t,
                    None => {
                        stats.push((&row.system, HashSet::new()));
                        stats.len() - 1
                    }
                };
                for program in [&balanced, &traditional] {
                    for (block, pair) in program.order_pairs().iter().enumerate() {
                        allocs.insert((block, pair.0.clone()));
                        stats[table].1.insert((block, pair.clone()));
                    }
                }
            }
            let blocks = bench.function().blocks().len();
            let stat_keys: usize = stats.iter().map(|(_, keys)| keys.len()).sum();
            let once = |n| StageCount {
                computed: n,
                entries: n,
            };
            // The compile stages were released once every program was
            // compiled; the statistics are kept to the end.
            let released = |n| StageCount {
                computed: n,
                entries: 0,
            };
            let name = bench.name();
            assert_eq!(counts.dags, released(blocks), "{name}: pass-1 DAGs");
            assert_eq!(counts.allocs, released(allocs.len()), "{name}: allocations");
            // Every DAG the column built: one per block for pass 1, one
            // per allocation for pass 2, and whatever the validators and
            // the analysis gate build around each program's compile.
            let plain = |pipeline: Pipeline| {
                let built = bsched_dag::builds_on_this_thread();
                pipeline
                    .compile(bench.function(), &SchedulerChoice::balanced())
                    .expect("compiles");
                bsched_dag::builds_on_this_thread() - built
            };
            let unchecked = Pipeline {
                validation: ValidationLevel::Off,
                analysis: AnalysisGate::Off,
                ..harness.pipeline
            };
            assert_eq!(plain(unchecked), 2 * blocks, "{name}: one DAG a pass");
            let around = plain(harness.pipeline) - plain(unchecked);
            let latencies: HashSet<Ratio> = rows.iter().map(|r| r.optimistic).collect();
            let programs = 1 + latencies.len();
            assert_eq!(
                builds,
                counts.dags.computed + counts.allocs.computed + programs * around,
                "{name}: DAG builds"
            );
            assert_eq!(counts.stats, once(stat_keys), "{name}: block statistics");
            assert_eq!(
                counts.stats_tables,
                stats.len(),
                "{name}: (system, protocol)"
            );
            let column = [blocks, allocs.len(), stat_keys, 2 * jobs.len() * blocks];
            for (total, n) in totals.iter_mut().zip(column) {
                *total += n;
            }
        }
        // Over the whole table: pass-1 DAGs, allocations and simulated
        // block batches with the memo, then the batches without it
        // (two programs a cell, each simulating every block).
        assert_eq!(totals, [32, 202, 861, 1088]);
    }

    #[test]
    fn all_of_table2_at_two_threads_computes_each_stage_once_per_distinct_key() {
        let _guard = fault_lock();
        // Two workers share each stand-in's memo: a key one of them is
        // computing is waited for, not computed again. The totals are
        // those one thread computes.
        let rows = table2_rows();
        let benches = perfect_club();
        let jobs: Vec<CellJob> = benches
            .iter()
            .flat_map(|bench| {
                rows.iter().map(move |row| CellJob {
                    bench,
                    row,
                    processor: ProcessorModel::Unlimited,
                })
            })
            .collect();
        let (reports, memos) = harness(2, 2).run_cells(&jobs);
        assert!(reports.iter().all(|r| r.status == CellStatus::Ok));
        assert_eq!(memos.len(), benches.len(), "one memo per stand-in");
        let mut totals = [0; 3];
        for memo in &memos {
            let counts = memo.counts();
            let stages = [counts.dags, counts.allocs, counts.stats];
            for (total, stage) in totals.iter_mut().zip(stages) {
                *total += stage.computed;
            }
        }
        assert_eq!(
            totals,
            [32, 202, 861],
            "pass-1 DAGs, allocations, statistics"
        );
    }

    #[test]
    fn json_output_is_wellformed() {
        let json = table_to_json(
            "T \"quoted\"",
            &["a".to_owned(), "b\n".to_owned()],
            &[vec!["1".to_owned(), "x\\y".to_owned()]],
        );
        assert_eq!(
            json,
            "{\"title\":\"T \\\"quoted\\\"\",\"header\":[\"a\",\"b\\n\"],\"rows\":[[\"1\",\"x\\\\y\"]]}"
        );
    }

    #[test]
    fn eval_config_defaults() {
        // The suite runs without BSCHED_RUNS and BSCHED_SEED.
        let cfg = eval_config(ProcessorModel::max_8());
        assert_eq!(cfg.runs, 30);
        assert_eq!(cfg.seed, EvalConfig::default().seed);
        assert_eq!(cfg.processor, ProcessorModel::MaxOutstanding(8));
    }

    #[test]
    fn malformed_timeout_fails_loudly() {
        // `BSCHED_TIMEOUT_MS` parses as a `Limit`: a count, or `0`/`off`
        // for no watchdog; `bsched_par::env::var` stops the process on
        // anything else.
        for (text, limit) in [("250", Some(250)), ("0", None), ("off", None)] {
            assert_eq!(text.parse(), Ok(Limit(limit)), "{text:?}");
        }
        assert!("5s".parse::<Limit>().is_err(), "a typo must not parse");
    }
}
