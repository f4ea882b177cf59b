//! `bsched` — drive the balanced-scheduling pipeline from the command
//! line on kernels written in the text format (see
//! `bsched_workload::parse`).
//!
//! ```console
//! $ bsched schedule kernel.bsk [--scheduler balanced|average|traditional=<lat>] [--alias fortran|c]
//! $ bsched compare  kernel.bsk --system "L80(2,10)" [--optimistic 2] [--processor unlimited|max8|len8] [--runs 30]
//! $ bsched simulate kernel.bsk --system "N(3,5)" [--scheduler …] [--seed 7]
//! $ bsched dot      kernel.bsk [--overlay]     # Graphviz of the code DAG
//! $ bsched analyze  kernel.bsk [--format json] # dataflow lints with source spans
//! $ bsched analyze  --benchmarks --format json # stand-in profiles (results/profiles.json)
//! ```

use std::process::ExitCode;

use balanced_scheduling::analyze::{
    failure_json, has_errors, max_live, pressure_profile, render_json, render_text, suite_json,
};
use balanced_scheduling::cpusim::{render_timeline, simulate_block_traced};
use balanced_scheduling::dag::{to_dot, to_dot_annotated, CodeDag, DotOverlay};
use balanced_scheduling::faults;
use balanced_scheduling::ir::RegClass;
use balanced_scheduling::prelude::*;
use balanced_scheduling::workload::{lower_kernel, parse_program, try_lower_parsed};

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("bsched: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  bsched schedule <kernel.bsk> [--scheduler S] [--alias fortran|c]
  bsched stats    <kernel.bsk> [--alias fortran|c]
  bsched compare  <kernel.bsk> --system SYS [--optimistic LAT] [--processor P] [--runs N] [--seed N]
  bsched simulate <kernel.bsk> --system SYS [--scheduler S] [--processor P] [--seed N]
  bsched dot      <kernel.bsk> [--alias fortran|c] [--overlay]
  bsched analyze  <kernel.bsk> [--alias fortran|c] [--format text|json]
                  [--allow LINT] [--warn LINT] [--deny LINT|warnings]
  bsched analyze  --benchmarks [--format text|json] [--alias …] [--deny …]
  bsched serve    --listen HOST:PORT [--workers N] [--io-threads N]
                  [--queue-cap N] [--cache-cap N] [--deadline-ms N]
                  [--cache-log PATH] [--max-line-bytes N] [--write-cap-bytes N]
  bsched serve    --listen HOST:PORT --route SHARD1,SHARD2,…
                  [--failure-threshold K] [--probe-interval-ms N]
                  [--probe-timeout-ms N] [--forward-timeout-ms N]
  bsched serve    --control ROUTER_ADDR (--add-shard HOST:PORT |
                  --drain-shard HOST:PORT [--no-stop] | --members)
  bsched tune     <kernel.bsk> [--system SYS] [--seed N] [--beam N]
                  [--runs N] [--threads N] [--processor P] [--alias fortran|c]
                  [--timeout-ms N] [--journal PATH] [--out POLICY.json]
  bsched tune     --benchmarks [--bench-out BENCH_tune.json] [--system SYS] [...]

  S    = balanced | balanced-approx | average | traditional=<latency>
       | policy:<file.json>  (artifact written by `bsched tune --out`)
  SYS  = L80(2,5) | N(3,5) | L80-N(30,5) | fixed(4) | …
  P    = unlimited | max8 | len8
  LAT  = 2 | 2.6 | 13/5 | …
  LINT = dead-store | uninitialized-read | redundant-load | …  (see README)

  every command also accepts --faults PLAN (or BSCHED_FAULTS=PLAN), e.g.
  --faults \"seed=1;latency-jitter:rate=0.5\" — see DESIGN.md §9";

/// Flags that take no value.
const BOOLEAN_FLAGS: [&str; 4] = ["benchmarks", "overlay", "members", "no-stop"];

/// Flags that take a value. `--name` outside this list and
/// [`BOOLEAN_FLAGS`] is an error, so a misspelt flag never silently
/// falls back to its default.
const VALUE_FLAGS: [&str; 35] = [
    "add-shard",
    "alias",
    "allow",
    "beam",
    "bench-out",
    "cache-cap",
    "cache-log",
    "control",
    "deadline-ms",
    "deny",
    "drain-shard",
    "failure-threshold",
    "faults",
    "format",
    "forward-timeout-ms",
    "io-threads",
    "journal",
    "listen",
    "max-line-bytes",
    "optimistic",
    "out",
    "probe-interval-ms",
    "probe-timeout-ms",
    "processor",
    "queue-cap",
    "route",
    "runs",
    "scheduler",
    "seed",
    "system",
    "threads",
    "timeout-ms",
    "warn",
    "workers",
    "write-cap-bytes",
];

/// Minimal `--flag value` argument scanner.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if BOOLEAN_FLAGS.contains(&name) {
                    flags.push((name.to_owned(), String::new()));
                    continue;
                }
                if !VALUE_FLAGS.contains(&name) {
                    return Err(format!("unknown flag --{name}\n{USAGE}"));
                }
                let value = it
                    .next()
                    .ok_or_else(|| format!("missing value for --{name}\n{USAGE}"))?;
                flags.push((name.to_owned(), value.clone()));
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Args { positional, flags })
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn is_set(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    /// Every `(name, value)` pair whose name is in `names`, in the order
    /// given on the command line (so later severity overrides win).
    fn flags_among<'a>(&'a self, names: &'a [&str]) -> impl Iterator<Item = (&'a str, &'a str)> {
        self.flags
            .iter()
            .filter(move |(n, _)| names.contains(&n.as_str()))
            .map(|(n, v)| (n.as_str(), v.as_str()))
    }
}

fn run() -> Result<(), String> {
    balanced_scheduling::pipeline::check_environment();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        return Err(USAGE.to_owned());
    };
    let args = Args::parse(rest)?;
    if let Some(spec) = args.flag("faults") {
        let plan: faults::FaultPlan = spec.parse().map_err(|e| format!("--faults: {e}"))?;
        faults::install(plan);
    }
    if command == "analyze" {
        // `analyze --benchmarks` works on the built-in stand-ins and
        // takes no kernel file, so it skips the shared file loading.
        return analyze_cmd(&args);
    }
    if command == "serve" {
        // `serve` takes no kernel file either: kernels arrive over the
        // socket, one request per line.
        return serve_cmd(&args);
    }
    if command == "tune" {
        // `tune --benchmarks` works on the built-in stand-ins, so it
        // shares `analyze`'s special-cased file handling.
        return tune_cmd(&args);
    }
    let file = args
        .positional
        .first()
        .ok_or_else(|| format!("missing kernel file\n{USAGE}"))?;
    let src = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    let kernels = parse_program(&src).map_err(|e| format!("{file}:{e}"))?;
    let blocks: Vec<BasicBlock> = kernels
        .iter()
        .map(|k| lower_kernel(&k.kernel, k.frequency))
        .collect();

    match command.as_str() {
        "schedule" => {
            for block in &blocks {
                schedule_cmd(&args, block)?;
            }
            Ok(())
        }
        "compare" => compare_cmd(&args, blocks),
        "simulate" => {
            for block in &blocks {
                simulate_cmd(&args, block)?;
            }
            Ok(())
        }
        "dot" => {
            for block in &blocks {
                let dag = build_dag(block, alias_of(&args)?);
                if args.is_set("overlay") {
                    let overlay = overlay_of(&dag, block);
                    print!("{}", to_dot_annotated(&dag, block, block.name(), &overlay));
                } else {
                    print!("{}", to_dot(&dag, block, block.name()));
                }
            }
            Ok(())
        }
        "stats" => {
            use balanced_scheduling::dag::DagProfile;
            use balanced_scheduling::sched::BalancedWeights;
            for block in &blocks {
                let dag = build_dag(block, alias_of(&args)?);
                let profile = DagProfile::of(&dag);
                let weights = BalancedWeights::new().assign(&dag);
                println!("{}: {profile}", block.name());
                for id in dag.load_ids() {
                    println!("  {:10} weight {}", block.label(id), weights.weight(id));
                }
            }
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}

/// Builds the `dot --overlay` annotations: balanced weights as a second
/// label line on every node, combined int+float register pressure as a
/// heat fill, and the block's MaxLive as the graph caption.
fn overlay_of(dag: &CodeDag, block: &BasicBlock) -> DotOverlay {
    let weights = BalancedWeights::new().assign(dag);
    let int = pressure_profile(block, RegClass::Int);
    let float = pressure_profile(block, RegClass::Float);
    let at = |profile: &[u32], idx: usize| profile.get(idx).copied().unwrap_or(0);
    DotOverlay {
        node_notes: dag
            .node_ids()
            .map(|id| (id, format!("w={}", weights.weight(id))))
            .collect(),
        pressure: dag
            .node_ids()
            .map(|id| (id, at(&int, id.index()) + at(&float, id.index())))
            .collect(),
        caption: format!(
            "{}: MaxLive {} int / {} float",
            block.name(),
            max_live(block, RegClass::Int),
            max_live(block, RegClass::Float),
        ),
    }
}

fn lint_config_of(args: &Args) -> Result<LintConfig, String> {
    let mut config = LintConfig::new();
    for (name, value) in args.flags_among(&["allow", "warn", "deny"]) {
        if name == "deny" && value == "warnings" {
            config = config.deny_warnings();
            continue;
        }
        let lint = Lint::from_id(value).ok_or_else(|| {
            format!(
                "unknown lint {value:?} (known: {})",
                Lint::ALL.map(Lint::id).join(", ")
            )
        })?;
        config = match name {
            "allow" => config.allow(lint),
            "warn" => config.warn(lint),
            _ => config.deny(lint),
        };
    }
    Ok(config)
}

/// `bsched analyze`: run the dataflow lints over a kernel file (with
/// source spans) or, with `--benchmarks`, over the Perfect Club
/// stand-ins (profiles + envelope checks). Exits non-zero when any
/// error-level diagnostic survives the configuration.
fn analyze_cmd(args: &Args) -> Result<(), String> {
    let analyzer = Analyzer::new(alias_of(args)?).with_config(lint_config_of(args)?);
    let format = args.flag("format").unwrap_or("text");
    if !matches!(format, "text" | "json") {
        return Err(format!("unknown format {format:?} (text|json)"));
    }

    let mut all: Vec<Diagnostic> = Vec::new();
    if args.is_set("benchmarks") {
        let mut profiles = Vec::new();
        for bench in perfect_club() {
            let report = analyzer.analyze_benchmark(&bench);
            if format == "text" {
                let p = &report.profile;
                println!(
                    "{:8} {:4} insts {:4} loads  mean block {:5.1}  llp {:5.2}  peak fp {}",
                    p.name,
                    p.total_instructions,
                    p.total_loads,
                    p.mean_block_size,
                    p.mean_llp,
                    p.peak_float_pressure,
                );
            }
            all.extend(report.diagnostics);
            profiles.push(report.profile);
        }
        if format == "json" {
            // stdout carries the machine-readable profile suite (what
            // results/profiles.json records); diagnostics go to stderr.
            print!("{}", suite_json(&profiles));
            if !all.is_empty() {
                eprint!("{}", render_text(&all));
            }
        } else {
            print!("{}", render_text(&all));
        }
    } else {
        let file = args
            .positional
            .first()
            .ok_or_else(|| format!("missing kernel file (or --benchmarks)\n{USAGE}"))?;
        let src = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        // Pipeline-stage failures use the shared failure vocabulary: in
        // JSON mode stdout carries the same {kind, detail} object the
        // table harness journals, so tooling classifies both identically.
        let kernels = parse_program(&src)
            .map_err(|e| stage_failure(format, file, &PipelineError::from(e)))?;
        for parsed in &kernels {
            let (block, map) = try_lower_parsed(parsed)
                .map_err(|e| stage_failure(format, file, &PipelineError::from(e)))?;
            all.extend(analyzer.analyze_block(&block, Some(&map)));
        }
        if format == "json" {
            println!("{}", render_json(&all));
        } else {
            print!("{}", render_text(&all));
        }
    }
    let errors = all.iter().filter(|d| d.severity == Severity::Error).count();
    if has_errors(&all) {
        return Err(format!(
            "{errors} error-level diagnostic{}",
            if errors == 1 { "" } else { "s" }
        ));
    }
    Ok(())
}

/// Renders a pipeline-stage failure for `analyze`: in JSON mode the
/// machine-readable `{"kind": …, "detail": …}` object goes to stdout
/// (the same vocabulary `FAILED(<kind>: …)` table cells use), and the
/// human-readable message becomes the process error either way.
fn stage_failure(format: &str, file: &str, err: &PipelineError) -> String {
    if format == "json" {
        println!("{}", failure_json(err.failure_kind(), &err.to_string()));
    }
    format!("{file}: {err}")
}

/// `bsched serve`: run the scheduling daemon — or, with `--route`, the
/// fleet router — until it drains on SIGTERM/SIGINT or an
/// `op:"shutdown"` request. Kernels arrive over the socket (see
/// DESIGN.md §10/§12 and `bsched-serve`'s crate docs).
fn serve_cmd(args: &Args) -> Result<(), String> {
    use balanced_scheduling::serve::{install_signal_handlers, Server, ServerConfig};
    if args.is_set("control") {
        return control_cmd(args);
    }
    if args.is_set("route") {
        return route_cmd(args);
    }
    let defaults = ServerConfig::default();
    let parse_size = |name: &str, fallback: usize| -> Result<usize, String> {
        match args.flag(name) {
            None => Ok(fallback),
            Some(raw) => raw
                .parse::<usize>()
                .ok()
                .filter(|n| *n > 0)
                .ok_or_else(|| format!("--{name}: bad count {raw:?}")),
        }
    };
    let cfg = ServerConfig {
        listen: args
            .flag("listen")
            .ok_or("missing --listen HOST:PORT")?
            .to_owned(),
        workers: parse_size("workers", defaults.workers)?,
        io_threads: parse_size("io-threads", defaults.io_threads)?,
        queue_capacity: parse_size("queue-cap", defaults.queue_capacity)?,
        cache_capacity: parse_size("cache-cap", defaults.cache_capacity)?,
        default_deadline_ms: match args.flag("deadline-ms") {
            None => None,
            Some(raw) => Some(
                raw.parse::<u64>()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or_else(|| format!("--deadline-ms: bad value {raw:?}"))?,
            ),
        },
        cache_log: args.flag("cache-log").map(str::to_owned),
        max_line_bytes: parse_size("max-line-bytes", defaults.max_line_bytes)?,
        write_cap_bytes: parse_size("write-cap-bytes", defaults.write_cap_bytes)?,
    };
    install_signal_handlers();
    let server = Server::start(cfg).map_err(|e| format!("serve: {e}"))?;
    eprintln!("bsched serve: listening on {}", server.local_addr());
    server.join();
    eprintln!("bsched serve: drained, exiting");
    Ok(())
}

/// `bsched serve --route shard1,shard2,…`: the consistent-hash router
/// in front of a fleet of shard daemons (DESIGN.md §12).
fn route_cmd(args: &Args) -> Result<(), String> {
    use balanced_scheduling::serve::{install_signal_handlers, Router, RouterConfig};
    let shards: Vec<String> = args
        .flag("route")
        .unwrap_or_default()
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_owned)
        .collect();
    if shards.is_empty() {
        return Err("--route: give a comma-separated shard list (host:port,…)".to_owned());
    }
    let mut cfg = RouterConfig {
        listen: args
            .flag("listen")
            .ok_or("missing --listen HOST:PORT")?
            .to_owned(),
        shards,
        ..RouterConfig::default()
    };
    if let Some(raw) = args.flag("failure-threshold") {
        cfg.health.failure_threshold = raw
            .parse::<u32>()
            .ok()
            .filter(|n| *n > 0)
            .ok_or_else(|| format!("--failure-threshold: bad count {raw:?}"))?;
    }
    let parse_ms = |name: &str| -> Result<Option<std::time::Duration>, String> {
        match args.flag(name) {
            None => Ok(None),
            Some(raw) => raw
                .parse::<u64>()
                .ok()
                .filter(|n| *n > 0)
                .map(|n| Some(std::time::Duration::from_millis(n)))
                .ok_or_else(|| format!("--{name}: bad milliseconds {raw:?}")),
        }
    };
    if let Some(d) = parse_ms("probe-interval-ms")? {
        cfg.health.interval = d;
    }
    if let Some(d) = parse_ms("probe-timeout-ms")? {
        cfg.health.connect_timeout = d;
    }
    if let Some(d) = parse_ms("forward-timeout-ms")? {
        cfg.forward_timeout = d;
    }
    install_signal_handlers();
    let router = Router::start(cfg).map_err(|e| format!("serve --route: {e}"))?;
    eprintln!("bsched serve: routing on {}", router.local_addr());
    router.join();
    eprintln!("bsched serve: router drained, exiting");
    Ok(())
}

/// `bsched serve --control ROUTER_ADDR …`: one-shot membership client.
/// Sends a single control op to a running router, prints the response
/// line, and exits non-zero unless the router answered `status: ok`.
fn control_cmd(args: &Args) -> Result<(), String> {
    let router = args.flag("control").unwrap_or_default().to_owned();
    if router.is_empty() || !router.contains(':') {
        return Err("--control: give the router address (host:port)".to_owned());
    }
    let ops = [
        args.flag("add-shard").map(|addr| {
            format!(
                "{{\"op\":\"add-shard\",\"addr\":{}}}",
                balanced_scheduling::analyze::json::string(addr)
            )
        }),
        args.flag("drain-shard").map(|addr| {
            format!(
                "{{\"op\":\"drain-shard\",\"addr\":{},\"stop\":{}}}",
                balanced_scheduling::analyze::json::string(addr),
                !args.is_set("no-stop")
            )
        }),
        args.is_set("members")
            .then(|| "{\"op\":\"members\"}".to_owned()),
    ];
    let mut picked = ops.into_iter().flatten();
    let line = picked
        .next()
        .ok_or("--control: give one of --add-shard ADDR, --drain-shard ADDR, --members")?;
    if picked.next().is_some() {
        return Err("--control: give exactly one membership op".to_owned());
    }
    let mut client = balanced_scheduling::serve::Client::connect(router.as_str())
        .map_err(|e| format!("--control: {e}"))?;
    // Draining waits for in-flight work (up to ~10s server-side), so
    // give the response read generous headroom.
    let response = client
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .and_then(|()| client.send(&line))
        .and_then(|()| client.recv_line())
        .map_err(|e| format!("--control: {router}: {e}"))?
        .ok_or_else(|| format!("--control: {router} closed without responding"))?;
    println!("{response}");
    if response.contains("\"status\":\"ok\"") {
        Ok(())
    } else {
        Err("router refused the membership op".to_owned())
    }
}

/// Shared `tune` parameter parsing (`--beam`, `--runs`, …).
fn tune_config_of(args: &Args) -> Result<balanced_scheduling::tune::TuneConfig, String> {
    use balanced_scheduling::tune::TuneConfig;
    let mut cfg = TuneConfig {
        seed: seed_of(args)?,
        processor: processor_of(args)?,
        alias: alias_of(args)?,
        ..TuneConfig::default()
    };
    let parse_count = |name: &str, fallback: usize| -> Result<usize, String> {
        match args.flag(name) {
            None => Ok(fallback),
            Some(raw) => raw
                .parse::<usize>()
                .ok()
                .filter(|n| *n > 0)
                .ok_or_else(|| format!("--{name}: bad count {raw:?}")),
        }
    };
    cfg.beam_width = parse_count("beam", cfg.beam_width)?;
    cfg.threads = parse_count("threads", cfg.threads)?;
    if let Some(raw) = args.flag("runs") {
        cfg.runs = raw
            .parse::<u32>()
            .ok()
            .filter(|n| *n > 0)
            .ok_or_else(|| format!("--runs: bad count {raw:?}"))?;
    }
    if let Some(raw) = args.flag("timeout-ms") {
        let ms = raw
            .parse::<u64>()
            .ok()
            .filter(|n| *n > 0)
            .ok_or_else(|| format!("--timeout-ms: bad milliseconds {raw:?}"))?;
        cfg.candidate_timeout = Some(std::time::Duration::from_millis(ms));
    }
    if let Some(path) = args.flag("journal") {
        cfg.journal = Some(std::path::PathBuf::from(path));
    }
    Ok(cfg)
}

/// Writes `text` to `path` atomically (temp + `sync_all` + rename), the
/// same writer the crash-safe journals use.
fn write_atomic(path: &str, text: &str) -> Result<(), String> {
    use std::io::Write as _;
    balanced_scheduling::analyze::journal::write_atomic(path, |f| f.write_all(text.as_bytes()))
        .map_err(|e| format!("{path}: {e}"))
}

/// Renders the policy artifact JSON for a finished search.
fn policy_artifact(
    report: &balanced_scheduling::tune::TuneReport,
    kernel: &str,
    system: &MemorySystem,
    cfg: &balanced_scheduling::tune::TuneConfig,
) -> String {
    use balanced_scheduling::analyze::json;
    // Meta values must arrive as already-rendered JSON.
    report.best.to_artifact_json(&[
        ("kernel", json::string(kernel)),
        ("system", json::string(&system.name())),
        ("driver", json::string("beam")),
        ("seed", cfg.seed.to_string()),
        ("score", format!("{:.6}", report.best_score)),
        ("balanced", format!("{:.6}", report.baseline_score)),
    ])
}

/// `bsched tune`: search the policy space for one kernel file, or with
/// `--benchmarks` for every Perfect Club stand-in (writing the
/// `BENCH_tune.json` table the CI gate checks).
fn tune_cmd(args: &Args) -> Result<(), String> {
    use balanced_scheduling::tune::tune;
    let system: MemorySystem = match args.flag("system") {
        Some(spec) => spec.parse().map_err(|e| format!("{e}"))?,
        // The paper's pathological model: always-slow, uncertain
        // latency, where scheduling policy matters most.
        None => "N(30,5)".parse().expect("default system parses"),
    };
    let cfg = tune_config_of(args)?;
    if args.is_set("benchmarks") {
        return tune_benchmarks_cmd(args, &system, &cfg);
    }
    let file = args
        .positional
        .first()
        .ok_or_else(|| format!("missing kernel file (or --benchmarks)\n{USAGE}"))?;
    let src = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    let kernels = parse_program(&src).map_err(|e| format!("{file}:{e}"))?;
    let blocks: Vec<BasicBlock> = kernels
        .iter()
        .map(|k| lower_kernel(&k.kernel, k.frequency))
        .collect();
    let name = blocks
        .first()
        .map_or_else(|| "program".to_owned(), |b| b.name().to_owned());
    let func = Function::new(name.clone(), blocks);
    let report = tune(&func, &system, &cfg).map_err(|e| format!("tune: {e}"))?;
    println!("system            {}", system.name());
    println!("driver            beam (seed {})", cfg.seed);
    println!(
        "space             {} candidates: {} measured, {} quarantined, {} resumed",
        report.space_size, report.evaluated, report.skipped, report.resumed
    );
    println!("balanced          {:.1} cycles", report.baseline_score);
    println!(
        "tuned             {:.1} cycles  ({:+.2}%)",
        report.best_score,
        -report.improvement_percent()
    );
    println!("policy            {}", report.best.canonical());
    if let Some(out) = args.flag("out") {
        write_atomic(out, &policy_artifact(&report, &name, &system, &cfg))?;
        println!("artifact          {out}");
    }
    Ok(())
}

/// `bsched tune --benchmarks`: tune each stand-in and emit the
/// `BENCH_tune.json` table (tuned vs balanced mean cycles per program).
fn tune_benchmarks_cmd(
    args: &Args,
    system: &MemorySystem,
    base_cfg: &balanced_scheduling::tune::TuneConfig,
) -> Result<(), String> {
    use balanced_scheduling::analyze::json;
    use balanced_scheduling::tune::tune;
    let mut rows = Vec::new();
    let mut wins = 0usize;
    for bench in perfect_club() {
        let mut cfg = base_cfg.clone();
        // One crash-safe journal per stand-in, so a killed sweep resumes
        // mid-suite.
        if let Some(path) = &base_cfg.journal {
            cfg.journal = Some(path.with_extension(format!("{}.jsonl", bench.name())));
        }
        let report =
            tune(bench.function(), system, &cfg).map_err(|e| format!("{}: {e}", bench.name()))?;
        let beat = report.best_score < report.baseline_score;
        wins += usize::from(beat);
        println!(
            "{:8} balanced {:9.1}  tuned {:9.1}  ({:+.2}%)  {}",
            bench.name(),
            report.baseline_score,
            report.best_score,
            -report.improvement_percent(),
            report.best.canonical()
        );
        rows.push(format!(
            "    {{\"name\":{},\"balanced\":{:.6},\"tuned\":{:.6},\"improvement_percent\":{:.4},\
             \"beats_balanced\":{},\"policy\":{},\"evaluated\":{},\"skipped\":{}}}",
            json::string(bench.name()),
            report.baseline_score,
            report.best_score,
            report.improvement_percent(),
            beat,
            json::string(&report.best.canonical()),
            report.evaluated,
            report.skipped
        ));
    }
    println!("tuned wins        {wins}/8 stand-ins");
    let out = args.flag("bench-out").unwrap_or("BENCH_tune.json");
    let text = format!(
        "{{\n  \"bench\": \"bsched-tune-v1\",\n  \"system\": {},\n  \"driver\": {},\n  \
         \"seed\": {},\n  \"runs\": {},\n  \"beam_width\": {},\n  \"tuned_wins\": {wins},\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        json::string(&system.name()),
        json::string("beam"),
        base_cfg.seed,
        base_cfg.runs,
        base_cfg.beam_width,
        rows.join(",\n")
    );
    write_atomic(out, &text)?;
    println!("table             {out}");
    Ok(())
}

fn alias_of(args: &Args) -> Result<AliasModel, String> {
    args.flag("alias").unwrap_or("fortran").parse()
}

fn scheduler_of(args: &Args) -> Result<SchedulerChoice, String> {
    let spec = args.flag("scheduler").unwrap_or("balanced");
    // On the command line `policy:` names a `bsched tune` artifact file;
    // every other spelling is the wire protocol's.
    let Some(path) = spec.strip_prefix("policy:") else {
        return spec.parse();
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("policy file {path}: {e}"))?;
    let spec =
        PolicySpec::from_artifact_json(&text).map_err(|e| format!("policy file {path}: {e}"))?;
    Ok(SchedulerChoice::Tuned(spec))
}

fn processor_of(args: &Args) -> Result<ProcessorModel, String> {
    args.flag("processor").unwrap_or("unlimited").parse()
}

fn system_of(args: &Args) -> Result<MemorySystem, String> {
    let spec = args.flag("system").ok_or("missing --system")?;
    spec.parse().map_err(|e| format!("{e}"))
}

fn seed_of(args: &Args) -> Result<u64, String> {
    match args.flag("seed") {
        None => Ok(EvalConfig::default().seed),
        Some(s) => s.parse().map_err(|_| format!("bad seed {s:?}")),
    }
}

fn pipeline_of(args: &Args) -> Result<Pipeline, String> {
    Ok(Pipeline {
        alias: alias_of(args)?,
        ..Pipeline::default()
    })
}

fn schedule_cmd(args: &Args, block: &BasicBlock) -> Result<(), String> {
    let choice = scheduler_of(args)?;
    let pipeline = pipeline_of(args)?;
    println!("Input ({} instructions):\n{block}", block.len());
    let compiled = pipeline
        .compile_block(block, &choice)
        .map_err(|e| format!("register allocation failed: {e}"))?;
    println!(
        "{} schedule ({} instructions, {} spill):\n{}",
        choice.name(),
        compiled.block.len(),
        compiled.spill_count,
        compiled.block
    );
    Ok(())
}

fn compare_cmd(args: &Args, blocks: Vec<BasicBlock>) -> Result<(), String> {
    let system = system_of(args)?;
    let optimistic: Ratio = match args.flag("optimistic") {
        Some(lat) => lat
            .parse()
            .map_err(|e| format!("bad latency {lat:?}: {e}"))?,
        None => Ratio::from_int(system.optimistic_latency().round().max(1.0) as i64),
    };
    let runs: u32 = match args.flag("runs") {
        Some(r) => r.parse().map_err(|_| format!("bad runs {r:?}"))?,
        None => 30,
    };
    let pipeline = pipeline_of(args)?;
    let name = blocks
        .first()
        .map_or_else(|| "program".to_owned(), |b| b.name().to_owned());
    let func = Function::new(name, blocks);
    let balanced = pipeline
        .compile(&func, &SchedulerChoice::balanced())
        .map_err(|e| format!("register allocation failed: {e}"))?;
    let traditional = pipeline
        .compile(&func, &SchedulerChoice::traditional(optimistic))
        .map_err(|e| format!("register allocation failed: {e}"))?;
    let cfg = EvalConfig {
        runs,
        processor: processor_of(args)?,
        seed: seed_of(args)?,
        ..EvalConfig::default()
    };
    let t = evaluate(&traditional, &system, &cfg);
    let b = evaluate(&balanced, &system, &cfg);
    let imp = compare(&t, &b);
    println!("system            {}", system.name());
    println!("processor         {}", cfg.processor);
    println!("optimistic        {optimistic}");
    println!(
        "traditional       {:.1} cycles  ({:.1}% interlock, {:.2}% spill)",
        t.mean_runtime,
        t.interlock_percent(),
        traditional.spill_percent()
    );
    println!(
        "balanced          {:.1} cycles  ({:.1}% interlock, {:.2}% spill)",
        b.mean_runtime,
        b.interlock_percent(),
        balanced.spill_percent()
    );
    println!("improvement       {imp}");
    Ok(())
}

fn simulate_cmd(args: &Args, block: &BasicBlock) -> Result<(), String> {
    let system = system_of(args)?;
    let choice = scheduler_of(args)?;
    let pipeline = pipeline_of(args)?;
    let compiled = pipeline
        .compile_block(block, &choice)
        .map_err(|e| format!("register allocation failed: {e}"))?;
    let mut rng = Pcg32::seed_from_u64(seed_of(args)?);
    let (result, events) =
        simulate_block_traced(&compiled.block, &system, processor_of(args)?, &mut rng);
    println!("{}", render_timeline(&compiled.block, &events));
    println!("{result}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args_of(argv: &[&str]) -> Args {
        Args::parse(&argv.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn args_split_positional_and_flags() {
        let args = args_of(&["file.bsk", "--system", "N(3,5)", "--runs", "10"]);
        assert_eq!(args.positional, vec!["file.bsk"]);
        assert_eq!(args.flag("system"), Some("N(3,5)"));
        assert_eq!(args.flag("runs"), Some("10"));
        assert_eq!(args.flag("missing"), None);
    }

    #[test]
    fn later_flags_win() {
        let args = args_of(&["f", "--seed", "1", "--seed", "2"]);
        assert_eq!(args.flag("seed"), Some("2"));
    }

    #[test]
    fn missing_flag_value_is_an_error() {
        let argv = vec!["f".to_owned(), "--system".to_owned()];
        assert!(Args::parse(&argv).is_err());
    }

    #[test]
    fn every_flag_in_the_usage_text_is_accepted() {
        for word in USAGE.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')) {
            if let Some(name) = word.strip_prefix("--").filter(|n| !n.is_empty()) {
                assert!(
                    BOOLEAN_FLAGS.contains(&name) || VALUE_FLAGS.contains(&name),
                    "--{name}"
                );
            }
        }
    }

    #[test]
    fn unknown_flags_are_an_error() {
        for flag in ["--seeed", "--driver", "--iterations"] {
            let argv = vec![flag.to_owned(), "7".to_owned()];
            let err = Args::parse(&argv).err().expect(flag);
            assert!(err.starts_with(&format!("unknown flag {flag}\n")), "{err}");
            assert!(err.contains(USAGE), "{err}");
        }
    }

    #[test]
    fn scheduler_specs() {
        assert_eq!(
            scheduler_of(&args_of(&[])).unwrap(),
            SchedulerChoice::balanced()
        );
        assert_eq!(
            scheduler_of(&args_of(&["--scheduler", "traditional=2.6"])).unwrap(),
            SchedulerChoice::traditional(Ratio::new(13, 5))
        );
        assert_eq!(
            scheduler_of(&args_of(&["--scheduler", "average"])).unwrap(),
            SchedulerChoice::Average
        );
        assert!(scheduler_of(&args_of(&["--scheduler", "bogus"])).is_err());
        assert!(scheduler_of(&args_of(&["--scheduler", "traditional=zero"])).is_err());
    }

    #[test]
    fn scheduler_policy_file_roundtrip() {
        let spec = PolicySpec::balanced_default();
        let mut path = std::env::temp_dir();
        path.push(format!("bsched-bin-policy-{}.json", std::process::id()));
        std::fs::write(&path, spec.to_artifact_json(&[])).unwrap();
        let arg = format!("policy:{}", path.display());
        let choice = scheduler_of(&args_of(&["--scheduler", &arg])).unwrap();
        assert_eq!(choice, SchedulerChoice::Tuned(spec));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn scheduler_policy_file_errors_are_typed() {
        let missing = scheduler_of(&args_of(&["--scheduler", "policy:/no/such/file.json"]));
        assert!(missing
            .unwrap_err()
            .contains("policy file /no/such/file.json"));

        let mut path = std::env::temp_dir();
        path.push(format!("bsched-bin-bad-policy-{}.json", std::process::id()));
        std::fs::write(&path, "{\"policy\":\"wrong-version\"}").unwrap();
        let arg = format!("policy:{}", path.display());
        let err = scheduler_of(&args_of(&["--scheduler", &arg])).unwrap_err();
        assert!(err.contains("unsupported policy version"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tune_config_flags() {
        let cfg = tune_config_of(&args_of(&[
            "--seed",
            "11",
            "--beam",
            "4",
            "--runs",
            "6",
            "--threads",
            "2",
            "--timeout-ms",
            "250",
            "--journal",
            "j.jsonl",
        ]))
        .unwrap();
        assert_eq!(cfg.seed, 11);
        assert_eq!(cfg.beam_width, 4);
        assert_eq!(cfg.runs, 6);
        assert_eq!(cfg.threads, 2);
        assert_eq!(
            cfg.candidate_timeout,
            Some(std::time::Duration::from_millis(250))
        );
        assert_eq!(
            cfg.journal.as_deref(),
            Some(std::path::Path::new("j.jsonl"))
        );

        assert!(tune_config_of(&args_of(&["--beam", "0"])).is_err());
        assert!(tune_config_of(&args_of(&["--timeout-ms", "soon"])).is_err());
    }

    #[test]
    fn processor_specs() {
        assert_eq!(
            processor_of(&args_of(&[])).unwrap(),
            ProcessorModel::Unlimited
        );
        assert_eq!(
            processor_of(&args_of(&["--processor", "max8"])).unwrap(),
            ProcessorModel::max_8()
        );
        assert_eq!(
            processor_of(&args_of(&["--processor", "len8"])).unwrap(),
            ProcessorModel::len_8()
        );
        assert!(processor_of(&args_of(&["--processor", "quantum"])).is_err());
    }

    #[test]
    fn alias_specs() {
        assert_eq!(alias_of(&args_of(&[])).unwrap(), AliasModel::Fortran);
        assert_eq!(
            alias_of(&args_of(&["--alias", "c"])).unwrap(),
            AliasModel::CConservative
        );
        assert!(alias_of(&args_of(&["--alias", "ada"])).is_err());
    }

    #[test]
    fn system_and_seed() {
        assert!(system_of(&args_of(&[])).is_err(), "system is required");
        let sys = system_of(&args_of(&["--system", "L80(2,10)"])).unwrap();
        assert_eq!(sys.name(), "L80(2,10)");
        assert_eq!(seed_of(&args_of(&["--seed", "9"])).unwrap(), 9);
        assert!(seed_of(&args_of(&["--seed", "x"])).is_err());
    }
}
