//! The in-process workloads: `tables` (paper Table 2) and `tune`.
//!
//! Both run a closed loop of back-to-back operations on one worker
//! thread. An operation is one stand-in's share of the work — its Table 2
//! column (17 cells), or its tuning search — so eight operations make one
//! iteration. One thread, because the reference host has two vCPUs shared
//! with other tenants: a second busy thread measured the host's scheduler
//! (run-to-run spreads of 0.2–0.3) rather than the program. The thread
//! moves between the CPUs from one iteration to the next (see
//! `timed_loop`).

use std::time::{Duration, Instant};

use bsched_bench::{
    run_cells_reported, table2_rows, try_run_cell_compiled, CellJob, CellReport, SystemRow,
};
use bsched_cpusim::ProcessorModel;
use bsched_memsim::MemorySystem;
use bsched_pipeline::{
    try_evaluate, try_evaluate_serial, CompiledProgram, EvalConfig, Pipeline, PolicySpec,
    SchedulerChoice,
};
use bsched_tune::{tune, TuneConfig, TuneReport};
use bsched_verify::ValidationLevel;
use bsched_workload::{perfect_club, Benchmark};

use crate::check::{floats, hex, Expected, TABLES_SEED, TUNE_SEED};
use crate::cpu::on_cpu;
use crate::record::{Metric, Outcome};
use crate::replay::{
    compile_both, reference_evaluate, run_traced, same_eval, total_ns, Counts, PassResult,
};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{fnv, setup_due, RunConfig};

/// Caps the worker threads of the harness and the evaluator; `None`
/// restores the default of every core. Only called when no parallel
/// work is running.
pub fn set_threads(n: Option<usize>) {
    match n {
        Some(n) => std::env::set_var("BSCHED_THREADS", n.to_string()),
        None => std::env::remove_var("BSCHED_THREADS"),
    }
}

/// Peak resident set (`VmHWM`) of `pid`, or of this process, in MiB.
#[must_use]
pub fn peak_rss_mib(pid: Option<u32>) -> Option<f64> {
    let path = pid.map_or_else(
        || "/proc/self/status".to_owned(),
        |p| format!("/proc/{p}/status"),
    );
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Operation, iteration and set-up times of the timed loop.
#[derive(Debug, Default)]
struct Timed {
    /// Each operation's wall time, per stand-in.
    op_ms: Vec<Vec<f64>>,
    /// Each whole iteration's wall time.
    iter_s: Vec<f64>,
    /// Each set-up's wall time, the one before the loop first.
    setup_s: Vec<f64>,
    failed: u64,
    ops: u64,
}

/// Runs `f` on the `turn`-th CPU and returns its result and wall time.
fn timed_setup<T>(turn: usize, f: impl FnOnce() -> T) -> (T, f64) {
    on_cpu(turn, || {
        let t0 = Instant::now();
        let made = f();
        (made, t0.elapsed().as_secs_f64())
    })
}

/// Runs whole iterations of `ops` operations back to back, on the one
/// thread the caller has set, until `window` has passed, with the
/// set-ups after the first (which took `first_setup_s`) in between as
/// they fall due ([`setup_due`]). `op(i)` and `set_up()` return how many
/// of their outputs were wrong.
///
/// Successive iterations, and set-ups, are pinned to each CPU in turn: a
/// thread left on one CPU made a whole run slow when that vCPU was, while
/// rotating gives the low percentile reported below iterations from every
/// CPU to draw on.
fn timed_loop(
    window: Duration,
    ops: usize,
    first_setup_s: f64,
    mut op: impl FnMut(usize) -> u64,
    mut set_up: impl FnMut() -> u64,
) -> Timed {
    let mut t = Timed {
        op_ms: vec![Vec::new(); ops],
        setup_s: vec![first_setup_s],
        ..Timed::default()
    };
    let start = Instant::now();
    loop {
        let over = !t.iter_s.is_empty() && start.elapsed() >= window;
        let elapsed = if over { window } else { start.elapsed() };
        while setup_due(t.setup_s.len(), elapsed, window) {
            let (failed, s) = timed_setup(t.setup_s.len(), &mut set_up);
            t.failed += failed;
            t.setup_s.push(s);
        }
        if over {
            return t;
        }
        on_cpu(t.iter_s.len(), || {
            let iteration = Instant::now();
            for (i, times) in t.op_ms.iter_mut().enumerate() {
                let t0 = Instant::now();
                t.failed += op(i);
                times.push(t0.elapsed().as_secs_f64() * 1e3);
                t.ops += 1;
            }
            t.iter_s.push(iteration.elapsed().as_secs_f64());
        });
    }
}

/// The percentile of repeated offline timings that is reported. An
/// operation is a fixed, deterministic computation, so everything that
/// varies its time is interference, and interference only ever slows
/// it: a low percentile estimates the program's cost, where the median
/// follows how busy the shared host was. Across runs on the reference
/// host the 10th percentile spread less than half as much as the median
/// (README, "Baseline and spread"). The medians go to the run record.
const COST_PERCENTILE: f64 = 10.0;

/// The geometric mean over stand-ins of each stand-in's operation time
/// at percentile `p`. Per stand-in first, because operations on
/// different stand-ins differ several-fold in size, and a percentile of
/// the mixture would sit in a gap between two stand-ins' clusters.
fn op_latency(op_ms: &[Vec<f64>], p: f64) -> Metric {
    let per: Vec<crate::stats::Percentile> = op_ms.iter().map(|xs| percentile(xs, p)).collect();
    let values: Option<Vec<f64>> = per.iter().map(|q| q.value).collect();
    Metric {
        name: "latency_ms".to_owned(),
        unit: "ms".to_owned(),
        value: values.map(|v| (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()),
        samples: per.iter().map(|q| q.n).min(),
    }
}

/// Work per second at iteration-time percentile `p`.
fn throughput(timed: &Timed, work_per_iteration: f64, p: f64) -> Metric {
    let q = percentile(&timed.iter_s, p);
    Metric {
        name: "throughput_per_s".to_owned(),
        unit: "1/s".to_owned(),
        value: q.value.map(|s| work_per_iteration / s),
        samples: Some(q.n),
    }
}

/// The end-to-end metrics of an offline run.
fn offline_metrics(out: &mut Outcome, timed: &Timed, work_per_iteration: f64) {
    out.metrics.push(Metric::value(
        "setup_s",
        "s",
        median(&timed.setup_s).unwrap_or(f64::NAN),
    ));
    out.metrics
        .push(throughput(timed, work_per_iteration, COST_PERCENTILE));
    out.metrics.push(op_latency(&timed.op_ms, COST_PERCENTILE));
    out.metrics.push(Metric::value(
        "peak_rss_mb",
        "MiB",
        peak_rss_mib(None).unwrap_or(f64::NAN),
    ));
    let medians = [
        throughput(timed, work_per_iteration, 50.0),
        op_latency(&timed.op_ms, 50.0),
    ];
    let medians: Vec<String> = medians
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{}",
                m.name,
                m.value
                    .map_or_else(|| "\"insufficient\"".to_owned(), crate::record::number)
            )
        })
        .collect();
    out.detail("median", format!("{{{}}}", medians.join(",")));
    let all: Vec<f64> = timed.op_ms.concat();
    let pct = |p: f64| {
        percentile(&all, p)
            .value
            .map_or_else(|| "\"insufficient\"".to_owned(), crate::record::number)
    };
    out.detail(
        "op_tail",
        format!(
            "{{\"n\":{},\"p90_ms\":{},\"p99_ms\":{},\"max_ms\":{}}}",
            all.len(),
            pct(90.0),
            pct(99.0),
            crate::stats::max(&all).map_or_else(|| "null".to_owned(), crate::record::number)
        ),
    );
    out.detail("iterations", timed.iter_s.len().to_string());
}

// ---------------------------------------------------------------- tables

/// Paper Table 2's inputs: the 8 stand-ins and the 17 system rows.
pub struct Tables {
    benches: Vec<Benchmark>,
    rows: Vec<SystemRow>,
    /// The distinct programs of each stand-in: balanced, and traditional
    /// at each distinct optimistic latency of the rows.
    choices: Vec<SchedulerChoice>,
}

impl Tables {
    /// Builds the inputs.
    #[must_use]
    pub fn new() -> Tables {
        let rows = table2_rows();
        let mut choices = vec![SchedulerChoice::balanced()];
        for row in &rows {
            let c = SchedulerChoice::traditional(row.optimistic);
            if !choices.contains(&c) {
                choices.push(c);
            }
        }
        Tables {
            benches: perfect_club(),
            rows,
            choices,
        }
    }

    /// Stand-in `b`'s column: one cell per system row, under UNLIMITED
    /// at the §4.3 protocol (30 runs, 100 resamples).
    #[must_use]
    pub fn column(&self, b: usize) -> Vec<CellReport> {
        let jobs: Vec<CellJob> = self
            .rows
            .iter()
            .map(|row| CellJob {
                bench: &self.benches[b],
                row,
                processor: ProcessorModel::Unlimited,
            })
            .collect();
        run_cells_reported(&jobs)
    }

    /// Every column, in stand-in order.
    #[must_use]
    pub fn iteration(&self) -> Vec<Vec<CellReport>> {
        (0..self.benches.len()).map(|b| self.column(b)).collect()
    }

    /// Bit-exact digest of one column's results.
    #[must_use]
    pub fn digest(column: &[CellReport]) -> u64 {
        column.iter().fold(0, |h, r| {
            let h = fnv(h, r.key.as_bytes());
            match r.cell() {
                None => fnv(h, b"FAILED"),
                Some(cell) => {
                    let h = floats(h, &cell.balanced.bootstrap_runtimes);
                    let h = floats(h, &cell.traditional.bootstrap_runtimes);
                    floats(
                        h,
                        &[
                            cell.balanced.mean_interlocks,
                            cell.traditional.mean_interlocks,
                            cell.improvement.mean_percent,
                            cell.balanced_spill_percent,
                            cell.traditional_spill_percent,
                        ],
                    )
                }
            }
        })
    }

    fn digests(&self, columns: &[Vec<CellReport>]) -> Vec<(String, String)> {
        self.benches
            .iter()
            .zip(columns)
            .map(|(b, col)| (b.name().to_owned(), hex(Tables::digest(col))))
            .collect()
    }

    fn choice_index(&self, row: &SystemRow) -> usize {
        self.choices
            .iter()
            .position(|c| *c == SchedulerChoice::traditional(row.optimistic))
            .expect("every row's traditional program is among the choices")
    }
}

impl Default for Tables {
    fn default() -> Self {
        Tables::new()
    }
}

fn set_tables_seed(seed: u64) {
    std::env::set_var("BSCHED_SEED", seed.to_string());
}

/// Recompiles every program at [`ValidationLevel::Full`] (schedule and
/// allocation verifiers) and re-evaluates every cell serially with the
/// timeline verifier on; each must equal what the timed run produced.
fn check_tables(w: &Tables, seed: u64, columns: &[Vec<CellReport>], out: &mut Outcome) {
    let full = Pipeline {
        validation: ValidationLevel::Full,
        ..Pipeline::default()
    };
    let cfg = EvalConfig {
        processor: ProcessorModel::Unlimited,
        seed,
        validation: ValidationLevel::Full,
        ..EvalConfig::default()
    };
    let mut gen_cycles = 0.0;
    for (bench, column) in w.benches.iter().zip(columns) {
        let mut programs: Vec<CompiledProgram> = Vec::new();
        for choice in &w.choices {
            let checked = full.compile(bench.function(), choice);
            let plain = Pipeline::default().compile(bench.function(), choice);
            match (checked, plain) {
                (Ok(a), Ok(b)) if same_program(&a, &b) => programs.push(a),
                (Ok(_), Ok(_)) => out.mismatch(format!(
                    "{}/{}: validated compile differs",
                    bench.name(),
                    choice.name()
                )),
                (Err(e), _) | (_, Err(e)) => {
                    out.mismatch(format!("{}/{}: {e}", bench.name(), choice.name()));
                }
            }
        }
        if programs.len() != w.choices.len() {
            continue;
        }
        for (row, report) in w.rows.iter().zip(column) {
            let Some(cell) = report.cell() else {
                out.mismatch(format!("{}: no cell", report.key));
                continue;
            };
            gen_cycles += cell.balanced.mean_runtime;
            let pairs = [
                (&programs[0], &cell.balanced),
                (&programs[w.choice_index(row)], &cell.traditional),
            ];
            for (program, got) in pairs {
                match try_evaluate_serial(program, &row.system, &cfg) {
                    Ok(want) if same_eval(&want, got) => {}
                    Ok(_) => out.mismatch(format!(
                        "{} ({}): differs from the serial reference",
                        report.key, program.scheduler
                    )),
                    Err(e) => out.mismatch(format!("{} ({}): {e}", report.key, program.scheduler)),
                }
            }
        }
    }
    out.detail("gen_cycles", crate::record::number(gen_cycles));
}

fn same_program(a: &CompiledProgram, b: &CompiledProgram) -> bool {
    a.blocks.len() == b.blocks.len()
        && a.blocks
            .iter()
            .zip(&b.blocks)
            .all(|(x, y)| x.block == y.block && x.spill_count == y.spill_count)
}

/// The `tables` workload.
pub fn run_tables(cfg: &RunConfig, expected: &Expected) -> Outcome {
    let mut out = Outcome::default();
    set_tables_seed(cfg.seed);
    set_threads(Some(1));
    let ((w, reference), first_setup_s) = timed_setup(0, || {
        let w = Tables::new();
        let columns = w.iteration();
        (w, columns)
    });
    let want: Vec<u64> = reference.iter().map(|c| Tables::digest(c)).collect();
    let errors = |column: &[CellReport], b: usize| {
        let failed = column.iter().filter(|r| r.cell().is_none()).count() as u64;
        failed + u64::from(Tables::digest(column) != want[b])
    };
    let cells = w.rows.len();
    let timed = timed_loop(
        cfg.window,
        w.benches.len(),
        first_setup_s,
        |b| errors(&w.column(b), b),
        || {
            let columns = Tables::new().iteration();
            columns.iter().enumerate().map(|(b, c)| errors(c, b)).sum()
        },
    );
    out.attempted = timed.ops * cells as u64;
    if timed.failed > 0 {
        out.fail(
            timed.failed,
            format!(
                "{} columns or cells failed or differed from the first set-up's",
                timed.failed
            ),
        );
    }
    offline_metrics(&mut out, &timed, (cells * w.benches.len()) as f64);

    check_tables(&w, cfg.seed, &reference, &mut out);
    let pinned = if cfg.seed == TABLES_SEED {
        w.digests(&reference)
    } else {
        set_tables_seed(TABLES_SEED);
        w.digests(&w.iteration())
    };
    expected.verify("tables", &pinned, &mut out);
    set_threads(None);
    out
}

/// One traced pass of `tables`: each column through the real harness,
/// then replayed — every distinct program compiled for real and by the
/// reference decomposition, every cell's two evaluations by simulate +
/// bootstrap — and checked equal to the harness's cells.
fn tables_pass(w: &Tables, seed: u64, t: &mut Tracer, c: &mut Counts) -> PassResult {
    let mut result = PassResult::default();
    let pipeline = Pipeline::default();
    let cfg = EvalConfig {
        processor: ProcessorModel::Unlimited,
        seed,
        ..EvalConfig::default()
    };
    for (b, bench) in w.benches.iter().enumerate() {
        t.set_op(b as u64);
        let column = t.span("bench.run_cells", |_| w.column(b));
        t.span("replay.column", |t| {
            let mut programs = Vec::new();
            for choice in &w.choices {
                match compile_both(t, c, &pipeline, bench.function(), choice) {
                    Ok((p, _)) => programs.push(p),
                    Err(e) => result.mismatches.push(e),
                }
            }
            if programs.len() != w.choices.len() {
                return;
            }
            for (row, report) in w.rows.iter().zip(&column) {
                c.ops += 1;
                let Some(cell) = report.cell() else {
                    result.mismatches.push(format!("{}: no cell", report.key));
                    continue;
                };
                let (balanced, traditional) = (&programs[0], &programs[w.choice_index(row)]);
                let real = t.span("bench.cell", |_| {
                    try_run_cell_compiled(balanced, traditional, row, ProcessorModel::Unlimited)
                });
                if !real.is_ok_and(|r| {
                    same_eval(&r.balanced, &cell.balanced)
                        && same_eval(&r.traditional, &cell.traditional)
                }) {
                    result.mismatches.push(format!(
                        "{}: the cell differs when evaluated alone",
                        report.key
                    ));
                }
                for (program, got) in [(balanced, &cell.balanced), (traditional, &cell.traditional)]
                {
                    match reference_evaluate(t, c, program, &row.system, &cfg) {
                        Ok(e) if same_eval(&e, got) => {}
                        Ok(_) => result
                            .mismatches
                            .push(format!("{}: reference evaluate differs", report.key)),
                        Err(e) => result.mismatches.push(format!("{}: {e}", report.key)),
                    }
                }
            }
        });
    }
    result.harness_self_ns = signed_ns(t, "bench.run_cells")
        - signed_ns(t, "pipeline.compile")
        - signed_ns(t, "bench.cell");
    result
}

fn signed_ns(t: &Tracer, name: &str) -> i64 {
    i64::try_from(total_ns(t, name)).unwrap_or(i64::MAX)
}

/// The traced `tables` run.
pub fn trace_tables(cfg: &RunConfig) -> Outcome {
    set_tables_seed(cfg.seed);
    set_threads(Some(1));
    let w = Tables::new();
    let out = run_traced(cfg.window, &spans_path(cfg), |t, c| {
        tables_pass(&w, cfg.seed, t, c)
    });
    set_threads(None);
    out
}

/// Where a traced run writes its spans.
#[must_use]
pub fn spans_path(cfg: &RunConfig) -> std::path::PathBuf {
    cfg.out_dir
        .join(format!("{}-seed{}-spans.jsonl", cfg.workload, cfg.seed))
}

// ------------------------------------------------------------------ tune

/// The tuner's inputs: the 8 stand-ins under N(30,5).
pub struct Tune {
    benches: Vec<Benchmark>,
    system: MemorySystem,
}

impl Tune {
    /// Builds the inputs.
    #[must_use]
    pub fn new() -> Tune {
        Tune {
            benches: perfect_club(),
            system: "N(30,5)".parse().expect("N(30,5) is a valid system"),
        }
    }

    fn config(seed: u64) -> TuneConfig {
        TuneConfig {
            seed,
            runs: 30,
            beam_width: 3,
            threads: 1,
            ..TuneConfig::default()
        }
    }

    /// Tunes stand-in `b` with beam search, on one thread.
    ///
    /// # Errors
    ///
    /// The tuner's error, rendered.
    pub fn one(&self, b: usize, seed: u64) -> Result<TuneReport, String> {
        tune(
            self.benches[b].function(),
            &self.system,
            &Tune::config(seed),
        )
        .map_err(|e| format!("{}: {e}", self.benches[b].name()))
    }

    fn line(report: &TuneReport) -> String {
        format!(
            "{} {:016x}",
            report.best.canonical(),
            report.best_score.to_bits()
        )
    }

    fn digest(report: &TuneReport) -> u64 {
        let h = fnv(0, Tune::line(report).as_bytes());
        let h = floats(h, &[report.baseline_score]);
        fnv(
            h,
            format!("{}/{}/{}", report.evaluated, report.pruned, report.skipped).as_bytes(),
        )
    }

    fn all(&self, seed: u64) -> Result<Vec<TuneReport>, String> {
        (0..self.benches.len()).map(|b| self.one(b, seed)).collect()
    }
}

impl Default for Tune {
    fn default() -> Self {
        Tune::new()
    }
}

fn candidates(r: &TuneReport) -> u64 {
    (r.evaluated + r.pruned + r.skipped) as u64
}

/// Re-measures each winner and the balanced baseline with validation on
/// (full compile verifiers, timeline verifier, serial evaluation): the
/// scores must equal the tuner's bit for bit.
fn check_tune(w: &Tune, seed: u64, reports: &[TuneReport], out: &mut Outcome) {
    let full = Pipeline {
        validation: ValidationLevel::Full,
        ..Pipeline::default()
    };
    let cfg = EvalConfig {
        runs: 30,
        seed,
        validation: ValidationLevel::Full,
        ..EvalConfig::default()
    };
    let mut gen_cycles = 0.0;
    for (bench, report) in w.benches.iter().zip(reports) {
        gen_cycles += report.best_score;
        for (spec, score) in [
            (report.best, report.best_score),
            (report.baseline, report.baseline_score),
        ] {
            let measured = full
                .compile(bench.function(), &SchedulerChoice::Tuned(spec))
                .map_err(|e| e.to_string())
                .and_then(|p| try_evaluate_serial(&p, &w.system, &cfg).map_err(|e| e.to_string()));
            match measured {
                Ok(e) if e.mean_runtime.to_bits() == score.to_bits() => {}
                Ok(e) => out.mismatch(format!(
                    "{}: {} re-measures {} not {score}",
                    bench.name(),
                    spec.canonical(),
                    e.mean_runtime
                )),
                Err(e) => out.mismatch(format!("{}: {}: {e}", bench.name(), spec.canonical())),
            }
        }
    }
    out.detail("gen_cycles", crate::record::number(gen_cycles));
}

/// The `tune` workload.
pub fn run_tune(cfg: &RunConfig, expected: &Expected) -> Outcome {
    let mut out = Outcome::default();
    set_threads(Some(1));
    let ((w, reports), first_setup_s) = timed_setup(0, || {
        let w = Tune::new();
        let reports = w.all(cfg.seed);
        (w, reports)
    });
    let reports = match reports {
        Ok(r) => r,
        Err(e) => {
            set_threads(None);
            out.attempted = 1;
            out.mismatch(e);
            return out;
        }
    };
    let want: Vec<u64> = reports.iter().map(Tune::digest).collect();
    let per_iteration: u64 = reports.iter().map(candidates).sum();
    let mut tuned = 0u64;
    let timed = timed_loop(
        cfg.window,
        w.benches.len(),
        first_setup_s,
        |b| match w.one(b, cfg.seed) {
            Ok(r) => {
                tuned += candidates(&r);
                u64::from(Tune::digest(&r) != want[b])
            }
            Err(_) => 1,
        },
        || match Tune::new().all(cfg.seed) {
            Ok(rs) => rs
                .iter()
                .zip(&want)
                .filter(|(r, w)| Tune::digest(r) != **w)
                .count() as u64,
            Err(_) => 1,
        },
    );
    out.attempted = tuned.max(1);
    if timed.failed > 0 {
        out.fail(
            timed.failed,
            format!(
                "{} searches or set-ups failed or differed from the first set-up's",
                timed.failed
            ),
        );
    }
    offline_metrics(&mut out, &timed, per_iteration as f64);

    check_tune(&w, cfg.seed, &reports, &mut out);
    let pinned = if cfg.seed == TUNE_SEED {
        Ok(reports)
    } else {
        w.all(TUNE_SEED)
    };
    match pinned {
        Ok(pinned) => {
            let lines: Vec<(String, String)> = w
                .benches
                .iter()
                .zip(&pinned)
                .map(|(b, r)| (b.name().to_owned(), Tune::line(r)))
                .collect();
            expected.verify("tune", &lines, &mut out);
        }
        Err(e) => out.mismatch(e),
    }
    set_threads(None);
    out
}

/// The candidates one search measured, in journal order, recovered from
/// a temporary journal.
fn journaled_candidates(
    w: &Tune,
    b: usize,
    seed: u64,
    dir: &std::path::Path,
) -> Result<Vec<(PolicySpec, f64)>, String> {
    let path = dir.join(format!("tune-{}.jsonl", w.benches[b].name()));
    let _ = std::fs::remove_file(&path);
    let cfg = TuneConfig {
        journal: Some(path.clone()),
        ..Tune::config(seed)
    };
    tune(w.benches[b].function(), &w.system, &cfg).map_err(|e| e.to_string())?;
    let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_file(&path);
    let mut out = Vec::new();
    for line in text.lines().skip(1) {
        let v = bsched_analyze::json::parse(line).ok_or("unreadable journal line")?;
        let get = |k: &str| v.get(k).and_then(bsched_analyze::json::Json::as_str);
        if get("status") != Some("ok") {
            continue;
        }
        let spec = PolicySpec::parse_canonical(get("candidate").ok_or("no candidate")?)
            .map_err(|e| e.to_string())?;
        let bits =
            u64::from_str_radix(get("score").ok_or("no score")?, 16).map_err(|e| e.to_string())?;
        out.push((spec, f64::from_bits(bits)));
    }
    Ok(out)
}

/// One traced pass of `tune`: each stand-in's search for real, then its
/// journaled candidates replayed through compile and evaluate, each
/// checked against the score the search recorded.
fn tune_pass(
    w: &Tune,
    seed: u64,
    journals: &[Vec<(PolicySpec, f64)>],
    t: &mut Tracer,
    c: &mut Counts,
) -> PassResult {
    let mut result = PassResult::default();
    let pipeline = Pipeline::default();
    let cfg = EvalConfig {
        runs: 30,
        seed,
        ..EvalConfig::default()
    };
    let (mut pairs, mut dag_repeats, mut weight_repeats) = (0u64, 0u64, 0u64);
    let (mut evaluated, mut pruned) = (0u64, 0u64);
    for (b, bench) in w.benches.iter().enumerate() {
        t.set_op(b as u64);
        match t.span("tune.tune", |_| w.one(b, seed)) {
            Ok(r) => {
                evaluated += r.evaluated as u64;
                pruned += r.pruned as u64;
            }
            Err(e) => result.mismatches.push(e),
        }
        let mut seen: Vec<Vec<(u64, u64)>> = Vec::new();
        t.span("replay.tune", |t| {
            for (spec, score) in &journals[b] {
                c.ops += 1;
                let choice = SchedulerChoice::Tuned(*spec);
                let outcome = t.span("tune.candidate", |t| {
                    let (program, blocks) =
                        compile_both(t, c, &pipeline, bench.function(), &choice)?;
                    let real = t
                        .span("tune.score", |_| try_evaluate(&program, &w.system, &cfg))
                        .map_err(|e| e.to_string())?;
                    let eval = reference_evaluate(t, c, &program, &w.system, &cfg)?;
                    if !same_eval(&real, &eval) {
                        return Err(format!("{}: reference evaluate differs", spec.canonical()));
                    }
                    Ok::<_, String>((eval.mean_runtime, blocks))
                });
                match outcome {
                    Ok((mean, blocks)) => {
                        if mean.to_bits() != score.to_bits() {
                            result.mismatches.push(format!(
                                "{}: {} replays to {mean}, the search recorded {score}",
                                bench.name(),
                                spec.canonical()
                            ));
                        }
                        let hashes: Vec<(u64, u64)> = blocks
                            .iter()
                            .map(|r| (r.dag_hash, r.weights_hash))
                            .collect();
                        if !seen.is_empty() {
                            for (i, (d, wt)) in hashes.iter().enumerate() {
                                pairs += 1;
                                dag_repeats += u64::from(seen.iter().any(|s| s[i].0 == *d));
                                weight_repeats += u64::from(seen.iter().any(|s| s[i].1 == *wt));
                            }
                        }
                        seen.push(hashes);
                    }
                    Err(e) => result.mismatches.push(e),
                }
            }
        });
    }
    result.harness_self_ns =
        signed_ns(t, "tune.tune") - signed_ns(t, "pipeline.compile") - signed_ns(t, "tune.score");
    let share = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    result.extra = vec![
        ("tune.evaluated".to_owned(), evaluated as f64),
        ("tune.pruned".to_owned(), pruned as f64),
        (
            "tune.prune_ratio".to_owned(),
            share(pruned, evaluated + pruned),
        ),
        (
            "tune.repeat_dag_ratio".to_owned(),
            share(dag_repeats, pairs),
        ),
        (
            "tune.repeat_weights_ratio".to_owned(),
            share(weight_repeats, pairs),
        ),
    ];
    result
}

/// The traced `tune` run.
pub fn trace_tune(cfg: &RunConfig) -> Outcome {
    set_threads(Some(1));
    let w = Tune::new();
    let dir = cfg.out_dir.join("tmp");
    let journals: Result<Vec<_>, String> = std::fs::create_dir_all(&dir)
        .map_err(|e| e.to_string())
        .and_then(|()| {
            (0..w.benches.len())
                .map(|b| journaled_candidates(&w, b, cfg.seed, &dir))
                .collect()
        });
    let out = match journals {
        Ok(journals) => run_traced(cfg.window, &spans_path(cfg), |t, c| {
            tune_pass(&w, cfg.seed, &journals, t, c)
        }),
        Err(e) => {
            let mut out = Outcome {
                attempted: 1,
                ..Outcome::default()
            };
            out.mismatch(format!("recovering candidates: {e}"));
            out
        }
    };
    set_threads(None);
    out
}
