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
//! results are folded in deterministic order.

#![warn(missing_docs)]

pub mod journal;

use std::collections::HashMap;
use std::time::Duration;

use bsched_analyze::journal::fingerprint_mix;
use bsched_analyze::json;
use bsched_analyze::FailureKind;
use bsched_core::Ratio;
use bsched_cpusim::ProcessorModel;
use bsched_faults::{fault_point, Site};
use bsched_memsim::{CacheModel, LatencyModel, MemorySystem, MixedModel, NetworkModel};
use bsched_pipeline::{
    compare, try_evaluate, CompiledProgram, EvalConfig, Pipeline, PipelineError, ProgramEval,
    SchedulerChoice,
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
/// `BSCHED_SEED`), defaulting to the paper's protocol.
#[must_use]
pub fn eval_config(processor: ProcessorModel) -> EvalConfig {
    let mut cfg = EvalConfig {
        processor,
        ..EvalConfig::default()
    };
    if let Some(runs) = env_knob::<u32>("BSCHED_RUNS") {
        cfg.runs = runs.max(2);
    }
    if let Some(seed) = env_knob("BSCHED_SEED") {
        cfg.seed = seed;
    }
    cfg
}

/// The one reader for the harness's `BSCHED_*` knobs: unset or empty
/// reads as `None`, anything else must parse as `T`.
///
/// # Panics
///
/// On a value `T` cannot parse, with a message that starts with the
/// variable's name — the policy `bsched_faults::init_from_env` applies
/// to `BSCHED_FAULTS`: a typo fails loudly instead of silently running
/// with the default.
#[must_use]
pub fn env_knob<T: std::str::FromStr>(name: &str) -> Option<T>
where
    T::Err: std::fmt::Display,
{
    let raw = std::env::var(name).ok()?;
    match raw.trim() {
        "" => None,
        v => Some(
            v.parse()
                .unwrap_or_else(|e| panic!("{name}: invalid value {v:?}: {e}")),
        ),
    }
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
    let pipeline = Pipeline::default();
    let balanced = pipeline
        .compile(bench.function(), &SchedulerChoice::balanced())
        .expect("compile balanced");
    let traditional = pipeline
        .compile(
            bench.function(),
            &SchedulerChoice::traditional(row.optimistic),
        )
        .expect("compile traditional");
    try_run_cell_compiled(&balanced, &traditional, row, processor).expect("evaluate cell")
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
    let cfg = eval_config(processor);
    let b_eval = try_evaluate(balanced, &row.system, &cfg)?;
    let t_eval = try_evaluate(traditional, &row.system, &cfg)?;
    Ok(Cell {
        improvement: compare(&t_eval, &b_eval),
        traditional_spill_percent: traditional.spill_percent(),
        balanced_spill_percent: balanced.spill_percent(),
        traditional: t_eval,
        balanced: b_eval,
    })
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

/// The per-cell wall-clock limit from `BSCHED_TIMEOUT_MS` (`0`/`off`/
/// empty/unset disables the watchdog).
fn timeout_from_env() -> Option<Duration> {
    if std::env::var("BSCHED_TIMEOUT_MS").is_ok_and(|v| v.trim() == "off") {
        return None;
    }
    env_knob("BSCHED_TIMEOUT_MS")
        .filter(|&ms| ms > 0)
        .map(Duration::from_millis)
}

/// Fingerprint of everything that determines cell values this run: the
/// journal refuses to resume across a change in any of these. That
/// includes the settings that decide whether a cell fails — the
/// validation level, the analysis gate and the per-run cycle budget — so
/// a clean journal never stands in for a stricter rerun.
fn run_fingerprint(keys: &[String]) -> String {
    let cfg = eval_config(ProcessorModel::Unlimited);
    // FNV-1a over the ordered, newline-terminated key list captures the
    // job-list shape.
    let shape = keys.iter().fold(fingerprint_mix(0, b""), |h, key| {
        fingerprint_mix(fingerprint_mix(h, key.as_bytes()), b"\n")
    });
    let plan = bsched_faults::installed_plan().map_or_else(|| "none".to_owned(), |p| p.to_string());
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
        Pipeline::default().analysis,
    )
}

/// The full watchdog/recovery harness: runs every job with per-cell
/// fault isolation, bounded retry with exponential backoff, quarantine,
/// optional wall-clock timeouts, and crash-safe journaling.
///
/// Behaviour knobs (all environment variables):
///
/// - `BSCHED_RETRIES` (default 1) — serial retries after the parallel
///   first attempt; backoff before retry *r* is
///   `BSCHED_BACKOFF_MS × 2^(r-1)` ms (default base 25, capped at 2 s).
/// - `BSCHED_TIMEOUT_MS` (default off) — per-attempt wall-clock budget,
///   enforced by [`bsched_par::run_with_timeout`] with cooperative
///   cancellation of the abandoned simulation.
/// - `BSCHED_JOURNAL` (default off) — path of a crash-safe
///   [`journal`](journal::Journal); cells recorded by a previous run
///   with the same fingerprint are resumed, not re-evaluated.
/// - `BSCHED_FAULTS` (default off) — a [`bsched_faults::FaultPlan`]
///   spec; installed once per process.
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
#[must_use]
pub fn run_cells_reported(jobs: &[CellJob<'_>]) -> Vec<CellReport> {
    bsched_faults::init_from_env();
    let keys: Vec<String> = jobs.iter().map(cell_key).collect();
    let journal = journal::from_env(&run_fingerprint(&keys));
    let timeout = timeout_from_env();

    // Compilation is independent of the memory system and processor
    // model: the balanced schedule depends only on the benchmark, the
    // traditional schedule only on (benchmark, optimistic latency).
    // Table job lists repeat those pairs heavily — Table 2 alone names
    // each benchmark's balanced program 17 times — so each distinct
    // program is compiled once and shared across its cells. Compilation
    // is deterministic, making the sharing bit-identical to compiling
    // per cell as [`run_cell`] does.
    #[derive(PartialEq, Eq, Hash)]
    enum Key {
        Balanced(usize),
        Traditional(usize, Ratio),
    }
    let mut index: HashMap<Key, usize> = HashMap::new();
    let mut tasks: Vec<(&Benchmark, SchedulerChoice)> = Vec::new();
    let mut refs: Vec<(usize, usize)> = Vec::with_capacity(jobs.len());
    for job in jobs {
        let bench_key = std::ptr::from_ref(job.bench) as usize;
        let balanced = *index.entry(Key::Balanced(bench_key)).or_insert_with(|| {
            tasks.push((job.bench, SchedulerChoice::balanced()));
            tasks.len() - 1
        });
        let traditional = *index
            .entry(Key::Traditional(bench_key, job.row.optimistic))
            .or_insert_with(|| {
                tasks.push((job.bench, SchedulerChoice::traditional(job.row.optimistic)));
                tasks.len() - 1
            });
        refs.push((balanced, traditional));
    }

    // Compile each distinct program once, with panics and errors caught
    // per program; a failed compile only poisons the cells that need it.
    // Each compile runs under a `compile|<benchmark>|<scheduler>` fault
    // context so plans can target it (parser reject, spill exhaustion).
    let compile_one = |task: &(&Benchmark, SchedulerChoice), attempt: u32| {
        let ctx = format!("compile|{}|{}", task.0.name(), task.1.name());
        bsched_faults::with_cell_context(&ctx, attempt, || {
            Pipeline::default()
                .compile(task.0.function(), &task.1)
                .map_err(|e| (e.failure_kind(), e.to_string()))
        })
    };
    let compiled: Vec<Result<CompiledProgram, (FailureKind, String)>> =
        bsched_par::parallel_map_catch(&tasks, |_, task| compile_one(task, 1))
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
                    Err(_) => bsched_par::parallel_map_catch(&tasks[k..=k], |_, task| {
                        compile_one(task, 2)
                    })
                    .pop()
                    .expect("one result per item")
                    .unwrap_or_else(|p| Err((FailureKind::Panic, p.to_string()))),
                }
            })
            .collect();

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
                balanced: &CompiledProgram,
                traditional: &CompiledProgram,
                row: &SystemRow,
                processor: ProcessorModel,
            ) -> Result<Cell, PipelineError> {
                if let Some(fault) = fault_point!(Site::SlowCell) {
                    std::thread::sleep(Duration::from_millis(fault.arg.min(10_000)));
                }
                if fault_point!(Site::EvalPanic).is_some() {
                    panic!("injected failure (eval-panic in {key})");
                }
                try_run_cell_compiled(balanced, traditional, row, processor)
            }
            let balanced = compiled[bi]
                .as_ref()
                .map_err(|(kind, e)| CellError::Compile {
                    kind: *kind,
                    reason: format!("compiling {}: {e}", tasks[bi].1.name()),
                })?;
            let traditional = compiled[ti]
                .as_ref()
                .map_err(|(kind, e)| CellError::Compile {
                    kind: *kind,
                    reason: format!("compiling {}: {e}", tasks[ti].1.name()),
                })?;
            let cell = match timeout {
                Some(limit) => {
                    // The watchdog thread needs owned inputs; cloning the
                    // compiled programs costs nothing next to the limit
                    // we are prepared to wait.
                    let key = key.clone();
                    let b = balanced.clone();
                    let t = traditional.clone();
                    let row = job.row.clone();
                    let processor = job.processor;
                    bsched_par::run_with_timeout(limit, move || {
                        eval_body(&key, &b, &t, &row, processor)
                    })
                    .map_err(|t| CellError::Timeout(t.limit))?
                    .map_err(CellError::Pipeline)?
                }
                None => eval_body(key, balanced, traditional, job.row, job.processor)
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
    let mut firsts: Vec<Option<Result<Cell, CellError>>> = (0..jobs.len()).map(|_| None).collect();
    let first_results = bsched_par::parallel_map_catch(&pending, |_, &i| {
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
    let retries = env_knob("BSCHED_RETRIES").unwrap_or(1u32);
    let backoff_ms = env_knob("BSCHED_BACKOFF_MS").unwrap_or(25u64);
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
                    for retry in 0..retries {
                        let delay = backoff_ms.saturating_mul(1 << retry.min(6)).min(2_000);
                        if delay > 0 {
                            std::thread::sleep(Duration::from_millis(delay));
                        }
                        let caught =
                            bsched_par::parallel_map_catch(&[i], |_, &i| attempt(i, retry + 2))
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
    reports
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
    if std::env::var("BSCHED_JSON").as_deref() == Ok("1") {
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
    use bsched_workload::{perfect, perfect_club};

    /// Serialises the tests that read or write `BSCHED_*` environment
    /// variables; the test harness runs tests on concurrent threads.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn env_lock() -> std::sync::MutexGuard<'static, ()> {
        ENV_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
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
        let _guard = env_lock();
        std::env::remove_var("BSCHED_RUNS");
        let bench = perfect::track();
        let row = &table2_rows()[8]; // N(2,2)
        let cell = run_cell(&bench, row, ProcessorModel::Unlimited);
        assert!(cell.improvement.mean_percent.is_finite());
        assert!(cell.traditional.mean_runtime > 0.0);
        assert!(cell.balanced.mean_runtime > 0.0);
        assert!(cell.traditional_spill_percent >= 0.0);
    }

    #[test]
    fn threads_env_does_not_change_results() {
        // One full Table-2 row: every benchmark under L80(2,5), serial
        // (BSCHED_THREADS=1) versus maximally parallel, bit-identical.
        let _guard = env_lock();
        std::env::set_var("BSCHED_RUNS", "5");
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
        std::env::set_var("BSCHED_THREADS", "1");
        let serial = run_cells_reported(&jobs);
        std::env::remove_var("BSCHED_THREADS");
        let parallel = run_cells_reported(&jobs);
        std::env::remove_var("BSCHED_RUNS");
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
        let _guard = env_lock();
        std::env::set_var("BSCHED_RUNS", "2");
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
        let reports = run_cells_reported(&jobs);
        std::env::remove_var("BSCHED_RUNS");
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
        let _guard = env_lock();
        std::env::set_var("BSCHED_RUNS", "2");
        std::env::set_var("BSCHED_BACKOFF_MS", "0");
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
        std::env::set_var("BSCHED_THREADS", "1");
        let serial = run_cells_reported(&jobs);
        std::env::set_var("BSCHED_THREADS", "4");
        bsched_faults::install(
            FaultPlan::seeded(7)
                .with(FaultSpec::always(Site::EvalPanic).with_key(benchmarks[2].name())),
        );
        let parallel = run_cells_reported(&jobs);
        bsched_faults::clear();
        std::env::remove_var("BSCHED_THREADS");
        std::env::remove_var("BSCHED_BACKOFF_MS");
        std::env::remove_var("BSCHED_RUNS");
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
        let _guard = env_lock();
        std::env::set_var("BSCHED_RUNS", "2");
        std::env::set_var("BSCHED_BACKOFF_MS", "0");
        let bench = perfect::track();
        let rows = table2_rows();
        let jobs = [CellJob {
            bench: &bench,
            row: &rows[8],
            processor: ProcessorModel::Unlimited,
        }];
        bsched_faults::clear();
        let clean = run_cells_reported(&jobs);
        // limit=1 → the fault fires exactly once; the retry runs clean.
        bsched_faults::install(
            FaultPlan::seeded(3).with(
                FaultSpec::always(Site::EvalPanic)
                    .with_key("TRACK")
                    .with_limit(1),
            ),
        );
        let faulted = run_cells_reported(&jobs);
        bsched_faults::clear();
        std::env::remove_var("BSCHED_BACKOFF_MS");
        std::env::remove_var("BSCHED_RUNS");
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
        let _guard = env_lock();
        std::env::set_var("BSCHED_RUNS", "2");
        std::env::set_var("BSCHED_BACKOFF_MS", "0");
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
        let reports = run_cells_reported(&jobs);
        bsched_faults::clear();
        std::env::remove_var("BSCHED_BACKOFF_MS");
        std::env::remove_var("BSCHED_RUNS");
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
        let _guard = env_lock();
        std::env::set_var("BSCHED_RUNS", "2");
        std::env::set_var("BSCHED_BACKOFF_MS", "0");
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
        let reports = run_cells_reported(&jobs);
        std::env::remove_var("BSCHED_BACKOFF_MS");
        std::env::remove_var("BSCHED_RUNS");
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
        let _guard = env_lock();
        std::env::set_var("BSCHED_RUNS", "2");
        std::env::set_var("BSCHED_TIMEOUT_MS", "100");
        std::env::set_var("BSCHED_RETRIES", "0");
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
        let reports = run_cells_reported(&jobs);
        bsched_faults::clear();
        std::env::remove_var("BSCHED_RETRIES");
        std::env::remove_var("BSCHED_TIMEOUT_MS");
        std::env::remove_var("BSCHED_RUNS");
        assert_eq!(reports[0].failure_kind(), Some(FailureKind::Timeout));
        assert!(
            reports[0].failure_reason().unwrap().contains("timed out"),
            "{:?}",
            reports[0].status
        );
    }

    #[test]
    fn journal_resumes_recorded_cells_bit_identically() {
        let _guard = env_lock();
        std::env::set_var("BSCHED_RUNS", "2");
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
        std::env::set_var("BSCHED_JOURNAL", &path);
        bsched_faults::clear();
        let fresh = run_cells_reported(&jobs);
        let resumed = run_cells_reported(&jobs);
        std::env::remove_var("BSCHED_JOURNAL");
        std::env::remove_var("BSCHED_RUNS");
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
        let _guard = env_lock();
        std::env::set_var("BSCHED_RUNS", "2");
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
        std::env::set_var("BSCHED_JOURNAL", &path);
        bsched_faults::clear();

        let seed = run_cells_reported(&jobs);
        assert!(seed.iter().all(|r| !r.resumed));

        // Changing the run count changes the fingerprint: nothing may be
        // resumed, not even the cells that *were* recorded.
        std::env::set_var("BSCHED_RUNS", "3");
        let after_runs = run_cells_reported(&jobs);
        assert!(
            after_runs.iter().all(|r| !r.resumed),
            "a runs change must discard the journal whole, not partially resume"
        );
        std::env::set_var("BSCHED_RUNS", "2");

        // Changing the master seed.
        let _ = run_cells_reported(&jobs); // repopulate under runs=2
        std::env::set_var("BSCHED_SEED", "12345");
        let after_seed = run_cells_reported(&jobs);
        assert!(
            after_seed.iter().all(|r| !r.resumed),
            "a seed change must discard the journal whole"
        );
        std::env::remove_var("BSCHED_SEED");

        // Changing the job list (shape) — even to a subset of what was
        // recorded — must not resume the overlapping cell.
        let _ = run_cells_reported(&jobs);
        let subset = run_cells_reported(&jobs[..1]);
        assert!(
            subset.iter().all(|r| !r.resumed),
            "a job-list change must discard the journal whole"
        );

        // Installing a fault plan changes the fingerprint too.
        let _ = run_cells_reported(&jobs);
        bsched_faults::install(FaultPlan::seeded(7));
        let after_plan = run_cells_reported(&jobs);
        bsched_faults::clear();
        assert!(
            after_plan.iter().all(|r| !r.resumed),
            "a fault-plan change must discard the journal whole"
        );

        // So does every setting that decides whether a cell fails: a
        // clean journal must not stand in for a stricter rerun. Each
        // variable moves to a value other than the ambient one (CI runs
        // this suite under BSCHED_VALIDATE=full) and is restored after.
        for (var, [value, fallback]) in [
            ("BSCHED_VALIDATE", ["full", "off"]),
            ("BSCHED_ANALYZE", ["check", "off"]),
            ("BSCHED_CYCLE_BUDGET", ["50", "off"]),
        ] {
            let ambient = std::env::var(var).ok();
            let value = if ambient.as_deref() == Some(value) {
                fallback
            } else {
                value
            };
            let _ = run_cells_reported(&jobs);
            std::env::set_var(var, value);
            let after = run_cells_reported(&jobs);
            match &ambient {
                Some(v) => std::env::set_var(var, v),
                None => std::env::remove_var(var),
            }
            assert!(
                after.iter().all(|r| !r.resumed),
                "a {var}={value} change must discard the journal whole"
            );
        }

        // The discard itself is observable: a journal opened under a
        // different fingerprint reports how many cells it threw away.
        let fresh = run_cells_reported(&jobs);
        assert!(fresh.iter().all(|r| !r.resumed));
        let j = journal::Journal::open(&path, "other-fingerprint").expect("open");
        assert!(j.is_empty());
        assert_eq!(
            j.discarded(),
            jobs.len(),
            "the discard must be reported, not silent"
        );

        std::env::remove_var("BSCHED_JOURNAL");
        std::env::remove_var("BSCHED_RUNS");
        let _ = std::fs::remove_file(&path);
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
        let _guard = env_lock();
        std::env::remove_var("BSCHED_RUNS");
        std::env::remove_var("BSCHED_SEED");
        let cfg = eval_config(ProcessorModel::max_8());
        assert_eq!(cfg.runs, 30);
        assert_eq!(cfg.processor, ProcessorModel::MaxOutstanding(8));
    }

    #[test]
    fn malformed_timeout_fails_loudly() {
        let _guard = env_lock();
        for off in ["", "0", "off"] {
            std::env::set_var("BSCHED_TIMEOUT_MS", off);
            assert_eq!(timeout_from_env(), None, "{off:?}");
        }
        std::env::set_var("BSCHED_TIMEOUT_MS", "250");
        assert_eq!(timeout_from_env(), Some(Duration::from_millis(250)));
        std::env::set_var("BSCHED_TIMEOUT_MS", "5s");
        let panic = std::panic::catch_unwind(timeout_from_env).expect_err("a typo must panic");
        std::env::remove_var("BSCHED_TIMEOUT_MS");
        let msg = panic.downcast_ref::<String>().expect("formatted message");
        assert!(msg.starts_with("BSCHED_TIMEOUT_MS: "), "{msg}");
    }
}
