//! Command line of the repository benchmark.
//!
//! ```text
//! bsched-benchmark [run] [--workload W|all] [--seed N] [--seconds S]
//!                  [--trace 0|1] [--out DIR] [--smoke]
//! bsched-benchmark compare PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]
//! ```
//!
//! A run prints every metric by name and unit, writes its record to
//! `--out` (default `bench-out/`), and ends with one JSON result line.
//! It exits non-zero when any output is wrong.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use bsched_benchmark::check::{Expected, SERVE_SEED, TABLES_SEED, TUNE_SEED};
use bsched_benchmark::record::Outcome;
use bsched_benchmark::serve::Kind;
use bsched_benchmark::{client, compare, offline, serve, RunConfig, WORKLOADS};

const USAGE: &str =
    "usage: bsched-benchmark [run] [--workload tables|tune|serve-cold|serve-warm|all] \
[--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--smoke]\n       \
bsched-benchmark compare PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("run") => run(&args[1..]),
        _ => run(&args),
    };
    match code {
        Ok(0) => ExitCode::SUCCESS,
        Ok(c) => ExitCode::from(u8::try_from(c).unwrap_or(1)),
        Err(e) => {
            eprintln!("bsched-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

struct Flags {
    workload: String,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    out: PathBuf,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        workload: "all".to_owned(),
        seed: None,
        seconds: None,
        trace: false,
        out: PathBuf::from("bench-out"),
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => f.workload = value()?.clone(),
            "--seed" => f.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                f.seconds = Some(s);
            }
            "--trace" => {
                f.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => f.out = PathBuf::from(value()?),
            "--smoke" => f.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if f.workload != "all" && !WORKLOADS.contains(&f.workload.as_str()) {
        return Err(format!("unknown workload {:?}", f.workload));
    }
    Ok(f)
}

/// The measured configuration is the shipped default: any `BSCHED_*`
/// variable would change what runs.
fn environment_guard() -> Result<(), String> {
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("BSCHED_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: the benchmark measures the default configuration",
            set.join(", ")
        ))
    }
}

fn default_seed(workload: &str) -> u64 {
    match workload {
        "tables" => TABLES_SEED,
        "tune" => TUNE_SEED,
        _ => SERVE_SEED,
    }
}

fn run(args: &[String]) -> Result<i32, String> {
    let flags = parse(args)?;
    environment_guard()?;
    std::fs::create_dir_all(&flags.out).map_err(|e| format!("{}: {e}", flags.out.display()))?;
    if flags.workload == "all" {
        return run_all(&flags);
    }
    let cfg = RunConfig {
        seed: flags.seed.unwrap_or_else(|| default_seed(&flags.workload)),
        workload: flags.workload.clone(),
        window: Duration::from_secs_f64(flags.seconds.unwrap_or(if flags.smoke {
            1.0
        } else {
            25.0
        })),
        trace: flags.trace,
        smoke: flags.smoke,
        out_dir: flags.out.clone(),
    };
    let outcome = run_one(&cfg)?;
    println!(
        "workload {} seed {} window {:.1}s trace {} nproc {}",
        cfg.workload,
        cfg.seed,
        cfg.window.as_secs_f64(),
        u8::from(cfg.trace),
        bsched_benchmark::nproc()
    );
    print!("{}", outcome.report());
    for m in outcome.mismatches.iter().take(20) {
        println!("  WRONG: {m}");
    }
    let record = cfg.out_dir.join(format!(
        "{}-seed{}{}.json",
        cfg.workload,
        cfg.seed,
        if cfg.trace { "-trace" } else { "" }
    ));
    std::fs::write(&record, outcome.record_json(&cfg))
        .map_err(|e| format!("{}: {e}", record.display()))?;
    println!("{}", outcome.result_line());
    Ok(i32::from(!outcome.correct()))
}

fn run_one(cfg: &RunConfig) -> Result<Outcome, String> {
    let expected = Expected::pinned();
    Ok(match (cfg.workload.as_str(), cfg.trace) {
        ("tables", false) => offline::run_tables(cfg, &expected),
        ("tables", true) => offline::trace_tables(cfg),
        ("tune", false) => offline::run_tune(cfg, &expected),
        ("tune", true) => offline::trace_tune(cfg),
        (serve_workload, trace) => {
            let kind = if serve_workload == "serve-cold" {
                Kind::Cold
            } else {
                Kind::Warm
            };
            if trace {
                serve::trace_serve(cfg, kind)
            } else {
                let bin = client::build_daemon()?;
                serve::run_serve(cfg, kind, &bin, &expected)
            }
        }
    })
}

/// Runs every workload in its own process (so each has its own peak
/// memory), echoing their output; fails if any of them does.
fn run_all(flags: &Flags) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut failed = Vec::new();
    for workload in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args([
            "--workload",
            workload,
            "--trace",
            if flags.trace { "1" } else { "0" },
        ])
        .arg("--out")
        .arg(&flags.out)
        .stdout(Stdio::inherit());
        if let Some(seed) = flags.seed {
            cmd.args(["--seed", &seed.to_string()]);
        }
        if let Some(s) = flags.seconds {
            cmd.args(["--seconds", &s.to_string()]);
        }
        if flags.smoke {
            cmd.arg("--smoke");
        }
        let status = cmd
            .status()
            .map_err(|e| format!("running {workload}: {e}"))?;
        if !status.success() {
            failed.push(workload);
        }
    }
    if failed.is_empty() {
        Ok(0)
    } else {
        eprintln!("bsched-benchmark: failed workloads: {}", failed.join(", "));
        Ok(1)
    }
}
