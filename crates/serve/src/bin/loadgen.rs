//! `bsched-loadgen` — drive a `bsched serve` daemon (or a fleet behind
//! the router) with concurrent clients and check that every request is
//! answered, that the cache serves repeats, and that the fleet survives
//! its chaos scenarios. Serving speed is measured by the repository
//! benchmark (`benchmark/`); the one timing recorded here is the
//! router's `--scaleout` curve, which that benchmark does not cover.
//!
//! The request mix is the eight Perfect Club stand-ins under the
//! balanced scheduler on `L80(2,5)`. Each pass sends every request
//! once, spread round-robin over `--clients` connections; repeated
//! passes are how the content-addressed cache shows up in the numbers —
//! the second pass should be nearly all hits.
//!
//! Every scenario (passes, burst, kill, membership, scale-out)
//! talks through the shared [`Client`], and every concurrent one runs
//! through the one fan-out, [`drive`].
//!
//! Exit status is the verdict: non-zero when any response is dropped or
//! malformed, or when `--expect-hit-rate` is given and the second pass's
//! measured hit rate falls short.

use std::io::Write;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use bsched_analyze::journal::write_atomic;
use bsched_analyze::json::{self, Json};
use bsched_serve::health::{ping_shard, HealthConfig};
use bsched_serve::{blank_service_us, Client, Router, RouterConfig, Server, ServerConfig};

const USAGE: &str = "\
bsched-loadgen: load-test a bsched serve daemon

USAGE:
    bsched-loadgen [--addr HOST:PORT | --spawn] [OPTIONS]

OPTIONS:
    --addr HOST:PORT       connect to a running daemon
    --spawn                start an in-process daemon on an ephemeral port
    --clients N            concurrent client connections   [default: 4]
    --passes N             times to send the full mix      [default: 2]
    --runs N               simulation runs per request     [default: 10]
    --burst N              afterwards, pipeline N extra requests at once and
                           report how many were shed as overloaded
    --expect-hit-rate PCT  fail unless 2nd-pass cache hit rate >= PCT
    --out FILE             write the JSON report here      [default: stdout]
    --workers N            (with --spawn) worker threads   [default: 4]
    --queue-cap N          (with --spawn) admission bound  [default: 64]
    --fleet N              spawn N shard daemons (child processes) behind an
                           in-process router and drive the router instead
    --serve-bin PATH       (with --fleet) the bsched binary to spawn shards
                           with                  [default: target/release/bsched]
    --cache-log-dir DIR    (with --fleet) per-shard cache-log directory
                           [default: a fresh directory under the temp dir,
                           removed on exit]
    --kill-shard           (with --fleet) chaos scenario: SIGKILL one shard
                           mid-mix (assert zero failed requests), restart it,
                           and verify it warm-starts from its cache log to a
                           >=90% replay hit rate; adds a \"fleet\" report
                           section and fails the run if either gate misses
    --add-shard-at N       (with --fleet >= 2) membership chaos: at request
                           index N of a 3-pass serial mix, spawn a fresh shard
                           and add it to the live router (assert the re-homed
                           key fraction stays <= 1.5/members)
    --drain-shard-at N     (with --fleet >= 2) membership chaos: at request
                           index N, drain shard 0 through the router (fence,
                           flush, remove, stop) and verify its cache log is
                           reusable; with --add-shard-at this is one combined
                           scenario reported as a \"membership\" section,
                           failing the run when any request drops
    --scaleout N1,N2,...   spawn a fresh fleet at each size and measure
                           aggregate throughput on a compute-bound mix,
                           recording a \"scaleout\" curve (e.g. --scaleout
                           1,2,3); needs --fleet mode for the shard binary
";

/// The memory system every request asks for.
const SYSTEM: &str = "L80(2,5)";
/// The scheduler every request asks for.
const SCHEDULER: &str = "balanced";
/// Event-loop IO threads of the `--spawn` daemon.
const IO_THREADS: usize = 2;

struct Args {
    addr: Option<String>,
    spawn: bool,
    clients: usize,
    passes: usize,
    runs: u32,
    burst: usize,
    expect_hit_rate: Option<f64>,
    out: Option<String>,
    workers: usize,
    queue_cap: usize,
    fleet: usize,
    serve_bin: String,
    cache_log_dir: Option<String>,
    kill_shard: bool,
    add_shard_at: Option<usize>,
    drain_shard_at: Option<usize>,
    scaleout: Vec<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: None,
        spawn: false,
        clients: 4,
        passes: 2,
        runs: 10,
        burst: 0,
        expect_hit_rate: None,
        out: None,
        workers: 4,
        queue_cap: 64,
        fleet: 0,
        serve_bin: "target/release/bsched".to_owned(),
        cache_log_dir: None,
        kill_shard: false,
        add_shard_at: None,
        drain_shard_at: None,
        scaleout: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = Some(value("--addr")?),
            "--spawn" => args.spawn = true,
            "--clients" => args.clients = parse_num(&value("--clients")?, "--clients")?,
            "--passes" => args.passes = parse_num(&value("--passes")?, "--passes")?,
            "--runs" => args.runs = parse_num(&value("--runs")?, "--runs")?,
            "--burst" => args.burst = parse_num(&value("--burst")?, "--burst")?,
            "--expect-hit-rate" => {
                let raw = value("--expect-hit-rate")?;
                let pct: f64 = raw
                    .parse()
                    .map_err(|_| format!("--expect-hit-rate: bad percentage {raw:?}"))?;
                args.expect_hit_rate = Some(pct);
            }
            "--out" => args.out = Some(value("--out")?),
            "--workers" => args.workers = parse_num(&value("--workers")?, "--workers")?,
            "--queue-cap" => args.queue_cap = parse_num(&value("--queue-cap")?, "--queue-cap")?,
            "--fleet" => args.fleet = parse_num(&value("--fleet")?, "--fleet")?,
            "--serve-bin" => args.serve_bin = value("--serve-bin")?,
            "--cache-log-dir" => args.cache_log_dir = Some(value("--cache-log-dir")?),
            "--kill-shard" => args.kill_shard = true,
            "--add-shard-at" => {
                args.add_shard_at = Some(parse_num(&value("--add-shard-at")?, "--add-shard-at")?);
            }
            "--drain-shard-at" => {
                args.drain_shard_at =
                    Some(parse_num(&value("--drain-shard-at")?, "--drain-shard-at")?);
            }
            "--scaleout" => {
                args.scaleout = parse_counts(&value("--scaleout")?, "--scaleout", "fleet sizes")?;
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let sources =
        usize::from(args.spawn) + usize::from(args.addr.is_some()) + usize::from(args.fleet > 0);
    if sources != 1 {
        return Err("give exactly one of --addr, --spawn, or --fleet".to_owned());
    }
    if args.kill_shard && args.fleet < 2 {
        return Err("--kill-shard needs --fleet N with N >= 2 (someone must fail over)".to_owned());
    }
    if (args.add_shard_at.is_some() || args.drain_shard_at.is_some()) && args.fleet < 2 {
        return Err(
            "--add-shard-at/--drain-shard-at need --fleet N with N >= 2 (membership \
             changes against a one-shard ring prove nothing)"
                .to_owned(),
        );
    }
    if !args.scaleout.is_empty() && args.fleet == 0 {
        return Err("--scaleout needs --fleet mode (it spawns fleets with --serve-bin)".to_owned());
    }
    if args.clients == 0 || args.passes == 0 {
        return Err("--clients and --passes must be at least 1".to_owned());
    }
    Ok(args)
}

fn parse_num<T: std::str::FromStr>(raw: &str, flag: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("{flag}: bad number {raw:?}"))
}

/// A comma-separated list of positive counts (`--scaleout`).
fn parse_counts(raw: &str, flag: &str, what: &str) -> Result<Vec<usize>, String> {
    let counts: Vec<usize> = raw
        .split(',')
        .map(|c| parse_num(c.trim(), flag))
        .collect::<Result<_, _>>()?;
    if counts.contains(&0) {
        return Err(format!("{flag}: {what} must be at least 1"));
    }
    Ok(counts)
}

fn count(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// One request line plus the id a well-behaved response must echo.
#[derive(Clone)]
struct Prepared {
    id: String,
    line: String,
}

/// Renders every schedule request line: stand-in `bench` under the fixed
/// system and scheduler, with `extra` fields (`,"seed":…`) appended.
fn schedule(id: String, bench: &str, runs: u32, extra: &str) -> Prepared {
    let line = format!(
        "{{\"op\":\"schedule\",\"id\":{},\"benchmark\":{},\"system\":{},\"scheduler\":{},\
         \"runs\":{runs},\"analyze\":false{extra}}}",
        json::string(&id),
        json::string(bench),
        json::string(SYSTEM),
        json::string(SCHEDULER),
    );
    Prepared { id, line }
}

/// Every stand-in once, ids tagged with `pass`.
fn request_mix(runs: u32, pass: usize) -> Vec<Prepared> {
    bsched_workload::perfect_club()
        .iter()
        .map(|bench| {
            let id = format!("p{pass}-{}-{SCHEDULER}", bench.name());
            schedule(id, bench.name(), runs, "")
        })
        .collect()
}

/// What a set of requests got back.
#[derive(Default, Clone)]
struct Outcome {
    ok: u64,
    cached: u64,
    /// Responses carrying the router's `degraded:true` annotation —
    /// answered, but by a failover shard or after retries.
    degraded: u64,
    errors: u64,
    overloaded: u64,
    timeouts: u64,
    dropped: u64,
    malformed: u64,
    latencies_us: Vec<u64>,
}

impl Outcome {
    fn merge(&mut self, other: Outcome) {
        self.ok += other.ok;
        self.cached += other.cached;
        self.degraded += other.degraded;
        self.errors += other.errors;
        self.overloaded += other.overloaded;
        self.timeouts += other.timeouts;
        self.dropped += other.dropped;
        self.malformed += other.malformed;
        self.latencies_us.extend(other.latencies_us);
    }

    fn answered(&self) -> usize {
        self.latencies_us.len()
    }

    /// Every one of `requests` was answered `ok`.
    fn all_ok(&self, requests: u64) -> bool {
        self.ok == requests
            && self.dropped == 0
            && self.malformed == 0
            && self.errors == 0
            && self.timeouts == 0
            && self.overloaded == 0
    }

    #[allow(clippy::cast_precision_loss)]
    fn throughput(&self, wall: Duration) -> f64 {
        if wall.as_secs_f64() > 0.0 {
            self.answered() as f64 / wall.as_secs_f64()
        } else {
            0.0
        }
    }

    /// The counters every report section shares, in report order:
    /// `ok`, then `second` (`cached` for load runs, `degraded` for the
    /// chaos phases), then the failure counters.
    fn render_counts(&self, second: (&str, u64)) -> String {
        format!(
            "\"ok\":{},\"{}\":{},\"errors\":{},\"overloaded\":{},\"timeouts\":{},\
             \"dropped\":{},\"malformed\":{}",
            self.ok,
            second.0,
            second.1,
            self.errors,
            self.overloaded,
            self.timeouts,
            self.dropped,
            self.malformed,
        )
    }

    /// `A/N answered in Ws (T req/s)` for the stderr progress lines.
    fn summary(&self, requests: usize, wall: Duration) -> String {
        format!(
            "{}/{requests} answered in {:.3}s ({:.1} req/s)",
            self.answered(),
            wall.as_secs_f64(),
            self.throughput(wall)
        )
    }
}

fn classify(outcome: &mut Outcome, expected_id: &str, line: &str) {
    // The router splices its annotation at the end of the line, past
    // the payload, so it is counted from the full line (the substring
    // cannot occur inside schedule text or eval numbers).
    if line.contains("\"degraded\":true") {
        outcome.degraded += 1;
    }
    // Fast path: the id/status/cached fields live in the fixed response
    // envelope, so substring probes classify a response in ~1µs where a
    // full parse of a 5KB payload costs ~350µs — on a small box the
    // parse dominates the whole benchmark and measures the client, not
    // the server. Probe only the envelope — the prefix before the
    // `"schedule"` payload — so payload bytes that happen to contain
    // e.g. `"cached":true` can never masquerade as envelope fields.
    // Anything that doesn't match the envelope exactly falls back to a
    // strict full parse.
    let envelope = line.find(",\"schedule\":").map_or(line, |at| &line[..at]);
    let id_probe = format!("\"id\":{}", json::string(expected_id));
    if envelope.starts_with('{') && envelope.contains(&id_probe) {
        match extract_status(envelope) {
            Some("ok") => {
                outcome.ok += 1;
                if envelope.contains("\"cached\":true") {
                    outcome.cached += 1;
                }
                return;
            }
            Some("error") => {
                outcome.errors += 1;
                return;
            }
            Some("overloaded") => {
                outcome.overloaded += 1;
                return;
            }
            Some("timeout") => {
                outcome.timeouts += 1;
                return;
            }
            _ => {}
        }
    }
    let Some(v) = json::parse(line) else {
        outcome.malformed += 1;
        return;
    };
    if v.get("id").and_then(Json::as_str) != Some(expected_id) {
        outcome.malformed += 1;
        return;
    }
    match v.get("status").and_then(Json::as_str) {
        Some("ok") => {
            outcome.ok += 1;
            if v.get("cached").and_then(Json::as_bool) == Some(true) {
                outcome.cached += 1;
            }
        }
        Some("error") => outcome.errors += 1,
        Some("overloaded") => outcome.overloaded += 1,
        Some("timeout") => outcome.timeouts += 1,
        _ => outcome.malformed += 1,
    }
}

/// Pulls the `"status":"…"` value out of a response line without
/// parsing the payload.
fn extract_status(line: &str) -> Option<&str> {
    let at = line.find("\"status\":\"")?;
    let rest = &line[at + "\"status\":\"".len()..];
    rest.split('"').next()
}

/// Sends one request and classifies its answer, timing the round trip
/// from before the send. `Ok(false)` when the server hung up instead.
fn exchange(client: &mut Client, req: &Prepared, outcome: &mut Outcome) -> std::io::Result<bool> {
    let started = Instant::now();
    client.send(&req.line)?;
    let Some(line) = client.recv_line()? else {
        return Ok(false);
    };
    let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    outcome.latencies_us.push(micros);
    classify(outcome, &req.id, &line);
    Ok(true)
}

/// Sends `requests` over one connection, one at a time.
fn run_client(addr: &str, requests: &[Prepared]) -> std::io::Result<Outcome> {
    let mut outcome = Outcome::default();
    if requests.is_empty() {
        return Ok(outcome);
    }
    let mut client = Client::connect(addr)?;
    for (idx, req) in requests.iter().enumerate() {
        if !exchange(&mut client, req, &mut outcome)? {
            // This request and everything after it on this connection
            // got no answer.
            outcome.dropped += count(requests.len() - idx);
            break;
        }
    }
    Ok(outcome)
}

/// The one fan-out: each request list runs on its own connection and
/// thread. Returns the merged outcome (latencies sorted) and the wall
/// time of the whole fan-out; a client that fails outright counts as
/// one malformed response.
fn drive(addr: &str, per_client: &[Vec<Prepared>]) -> (Outcome, Duration) {
    let started = Instant::now();
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = per_client
            .iter()
            .map(|reqs| scope.spawn(move || run_client(addr, reqs)))
            .collect();
        handles
            .into_iter()
            .map(std::thread::ScopedJoinHandle::join)
            .collect()
    });
    let wall = started.elapsed();
    let mut merged = Outcome::default();
    for result in results {
        match result {
            Ok(Ok(outcome)) => merged.merge(outcome),
            Ok(Err(e)) => {
                eprintln!("bsched-loadgen: client error: {e}");
                merged.malformed += 1;
            }
            Err(_) => merged.malformed += 1,
        }
    }
    merged.latencies_us.sort_unstable();
    (merged, wall)
}

fn fetch_stats(addr: &str) -> Result<Json, String> {
    Client::connect(addr)
        .and_then(|mut client| client.stats())
        .map_err(|e| format!("/stats from {addr}: {e}"))
}

fn stat_u64(stats: &Json, key: &str) -> u64 {
    stats
        .get("stats")
        .and_then(|s| s.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

#[allow(clippy::cast_precision_loss)]
fn hit_rate(hits: u64, requests: usize) -> f64 {
    if requests == 0 {
        0.0
    } else {
        hits as f64 / requests as f64
    }
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let idx = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// One load pass: the mix split round-robin over `--clients`
/// connections. Returns the pass's report, its outcome and its cache
/// hit rate as counted by the server.
fn run_pass(addr: &str, args: &Args, pass: usize) -> Result<(String, Outcome, f64), String> {
    let mix = request_mix(args.runs, pass);
    let total = mix.len();
    let mut per_client = vec![Vec::new(); args.clients];
    for (i, req) in mix.into_iter().enumerate() {
        per_client[i % args.clients].push(req);
    }
    let hits_before = stat_u64(&fetch_stats(addr)?, "cache_hits");
    let (outcome, _) = drive(addr, &per_client);
    let hits_after = stat_u64(&fetch_stats(addr)?, "cache_hits");
    let rate = hit_rate(hits_after.saturating_sub(hits_before), total);
    eprintln!(
        "pass {pass}: {}/{total} answered, ok={} cached={} errors={} overloaded={} timeouts={} \
         hit_rate={:.0}%",
        outcome.answered(),
        outcome.ok,
        outcome.cached,
        outcome.errors,
        outcome.overloaded,
        outcome.timeouts,
        rate * 100.0
    );
    let report = format!(
        "{{\"pass\":{pass},\"requests\":{total},\"answered\":{},{},\
         \"cache_hit_rate\":{rate:.4}}}",
        outcome.answered(),
        outcome.render_counts(("cached", outcome.cached)),
    );
    Ok((report, outcome, rate))
}

/// Pipelines `n` requests down one connection in one write, then reads
/// every response — the over-capacity probe.
fn run_burst(addr: &str, args: &Args) -> Result<String, String> {
    let n = args.burst;
    let mix = request_mix(args.runs, 9999);
    let lines: Vec<&str> = (0..n).map(|i| mix[i % mix.len()].line.as_str()).collect();
    let (mut ok, mut overloaded, mut other, mut dropped) = (0u64, 0u64, 0u64, 0u64);
    let mut client = Client::connect(addr).map_err(|e| format!("burst: {e}"))?;
    client
        .send(&lines.join("\n"))
        .map_err(|e| format!("burst: {e}"))?;
    for _ in 0..n {
        let Some(line) = client.recv_line().map_err(|e| format!("burst: {e}"))? else {
            dropped += 1;
            continue;
        };
        match json::parse(&line)
            .as_ref()
            .and_then(|v| v.get("status"))
            .and_then(Json::as_str)
        {
            Some("ok") => ok += 1,
            Some("overloaded") => overloaded += 1,
            _ => other += 1,
        }
    }
    eprintln!("burst {n}: ok={ok} overloaded={overloaded} other={other} dropped={dropped}");
    Ok(format!(
        "{{\"requests\":{n},\"ok\":{ok},\"overloaded\":{overloaded},\
         \"other\":{other},\"dropped\":{dropped}}}"
    ))
}

/// A spawned fleet: N shard daemons (child processes, each with its own
/// cache log) behind an in-process [`Router`] the load is driven
/// through.
struct Fleet {
    children: Vec<Option<std::process::Child>>,
    shard_addrs: Vec<String>,
    ports: Vec<u16>,
    log_paths: Vec<PathBuf>,
    router: Option<Router>,
    serve_bin: String,
    log_dir: PathBuf,
    /// The log directory was created here (no `--cache-log-dir`), so
    /// shutdown removes it; a directory the user named is never removed.
    owns_log_dir: bool,
}

fn free_port() -> std::io::Result<u16> {
    // Bind-then-drop: the port stays free long enough for the child to
    // claim it (a small race, acceptable for a local bench fleet).
    Ok(std::net::TcpListener::bind("127.0.0.1:0")?
        .local_addr()?
        .port())
}

fn spawn_shard(
    serve_bin: &str,
    port: u16,
    log: &std::path::Path,
) -> Result<std::process::Child, String> {
    std::process::Command::new(serve_bin)
        .args([
            "serve",
            "--listen",
            &format!("127.0.0.1:{port}"),
            "--cache-log",
            &log.display().to_string(),
            "--workers",
            "2",
            "--io-threads",
            "1",
        ])
        .stdout(std::process::Stdio::null())
        .spawn()
        .map_err(|e| {
            format!(
                "spawn shard {serve_bin:?}: {e} \
                 (build it with `cargo build --release` or pass --serve-bin)"
            )
        })
}

/// Polls until the daemon at `addr` answers a protocol-level ping.
fn wait_for_daemon(addr: &str) -> Result<(), String> {
    const DEADLINE: Duration = Duration::from_secs(10);
    let probe = HealthConfig {
        read_timeout: Duration::from_millis(500),
        ..HealthConfig::default()
    };
    let started = Instant::now();
    while !ping_shard(addr, &probe) {
        if started.elapsed() > DEADLINE {
            return Err(format!(
                "daemon at {addr} did not come up within {DEADLINE:?}"
            ));
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    Ok(())
}

impl Fleet {
    fn start(
        count: usize,
        serve_bin: &str,
        cache_log_dir: Option<&str>,
        tag: &str,
    ) -> Result<Fleet, String> {
        let dir = match cache_log_dir {
            Some(d) => PathBuf::from(d),
            None => std::env::temp_dir().join(format!("bsched-{tag}-{}", std::process::id())),
        };
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let mut fleet = Fleet {
            children: Vec::new(),
            shard_addrs: Vec::new(),
            ports: Vec::new(),
            log_paths: Vec::new(),
            router: None,
            serve_bin: serve_bin.to_owned(),
            log_dir: dir.clone(),
            owns_log_dir: cache_log_dir.is_none(),
        };
        for _ in 0..count {
            fleet.spawn_extra()?;
        }
        for addr in &fleet.shard_addrs {
            wait_for_daemon(addr)?;
        }
        let router = Router::start(RouterConfig {
            listen: "127.0.0.1:0".to_owned(),
            shards: fleet.shard_addrs.clone(),
            ..RouterConfig::default()
        })
        .map_err(|e| format!("start router: {e}"))?;
        eprintln!(
            "fleet: {count} shards behind router {} (logs in {})",
            router.local_addr(),
            dir.display()
        );
        fleet.router = Some(router);
        Ok(fleet)
    }

    /// Spawns one more shard daemon (fresh port, fresh cache log) and
    /// waits for it to answer pings. The shard is NOT told to the
    /// router — membership changes go through the `add-shard` control
    /// op, which is the point of the chaos scenario. Returns its addr.
    fn spawn_extra(&mut self) -> Result<String, String> {
        let i = self.children.len();
        let port = free_port().map_err(|e| format!("pick shard port: {e}"))?;
        let log = self.log_dir.join(format!("shard-{i}.log"));
        let child = spawn_shard(&self.serve_bin, port, &log)?;
        let addr = format!("127.0.0.1:{port}");
        self.children.push(Some(child));
        self.shard_addrs.push(addr.clone());
        self.ports.push(port);
        self.log_paths.push(log);
        if self.router.is_some() {
            wait_for_daemon(&addr)?;
        }
        Ok(addr)
    }

    /// Waits for a shard child to exit on its own (the drain path: the
    /// router sends it `op:"shutdown"`, it flushes and leaves). Unlike
    /// [`kill_shard`](Fleet::kill_shard) nothing is forced — a shard
    /// that lingers past the deadline is an error.
    fn wait_shard_exit(&mut self, index: usize, deadline: Duration) -> Result<(), String> {
        let child = self.children[index]
            .as_mut()
            .ok_or_else(|| format!("shard {index} is not running"))?;
        let started = Instant::now();
        loop {
            match child.try_wait() {
                Ok(Some(_)) => {
                    self.children[index] = None;
                    return Ok(());
                }
                Ok(None) => {}
                Err(e) => return Err(format!("wait for shard {index}: {e}")),
            }
            if started.elapsed() > deadline {
                return Err(format!(
                    "shard {index} still running {deadline:?} after its drain"
                ));
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    fn router_addr(&self) -> String {
        self.router
            .as_ref()
            .expect("router running")
            .local_addr()
            .to_string()
    }

    /// SIGKILLs one shard — no drain, no goodbye, exactly the failure
    /// the persistence log and the router's failover exist for.
    fn kill_shard(&mut self, index: usize) -> Result<(), String> {
        let child = self.children[index]
            .as_mut()
            .ok_or_else(|| format!("shard {index} is not running"))?;
        child
            .kill()
            .map_err(|e| format!("kill shard {index}: {e}"))?;
        let _ = child.wait();
        self.children[index] = None;
        Ok(())
    }

    /// Restarts a killed shard on its original port with its original
    /// cache log, so it warm-starts from whatever it flushed before
    /// dying.
    fn restart_shard(&mut self, index: usize) -> Result<(), String> {
        if self.children[index].is_some() {
            return Err(format!("shard {index} is already running"));
        }
        let child = spawn_shard(&self.serve_bin, self.ports[index], &self.log_paths[index])?;
        self.children[index] = Some(child);
        wait_for_daemon(&self.shard_addrs[index])
    }

    fn shutdown(&mut self) {
        if let Some(router) = self.router.take() {
            router.begin_shutdown();
            router.join();
        }
        for child in self.children.iter_mut().filter_map(Option::as_mut) {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.children.clear();
        if self.owns_log_dir {
            let _ = std::fs::remove_dir_all(&self.log_dir);
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Polls the router's merged `/stats` until `want(shards_down)` holds.
fn wait_for_shards_down(
    router_addr: &str,
    deadline: Duration,
    want: impl Fn(u64) -> bool,
) -> Result<u64, String> {
    let started = Instant::now();
    loop {
        let down = stat_u64(&fetch_stats(router_addr)?, "shards_down");
        if want(down) {
            return Ok(down);
        }
        if started.elapsed() > deadline {
            return Err(format!(
                "router never reached the expected shard liveness (shards_down={down} \
                 after {deadline:?})"
            ));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// `requests ok (degraded), errors= dropped= malformed=` for the chaos
/// scenarios' stderr lines.
fn chaos_summary(outcome: &Outcome, requests: u64) -> String {
    format!(
        "{}/{requests} ok ({} degraded), errors={} dropped={} malformed={}",
        outcome.ok, outcome.degraded, outcome.errors, outcome.dropped, outcome.malformed
    )
}

/// The chaos scenario behind `--kill-shard` (DESIGN.md §12): SIGKILL a
/// shard mid-mix, assert zero failed client requests, watch the merged
/// stats notice the outage, restart the shard from its cache log, and
/// verify the fleet replays the whole mix at a warm (≥90%) hit rate —
/// which only happens if the restarted shard actually recovered its
/// cache, since the router routes its keys straight back to it.
fn run_fleet_chaos(
    fleet: &mut Fleet,
    args: &Args,
    router_addr: &str,
) -> Result<(String, bool), String> {
    let victim = 0usize;
    let mix = request_mix(args.runs, 900);
    let half = mix.len() / 2;

    // Kill phase: half the mix against a healthy fleet, SIGKILL, the
    // other half against the wounded one.
    let mut kill_outcome = run_client(router_addr, &mix[..half])
        .map_err(|e| format!("kill-phase (before kill): {e}"))?;
    fleet.kill_shard(victim)?;
    eprintln!(
        "fleet: SIGKILLed shard {victim} ({})",
        fleet.shard_addrs[victim]
    );
    kill_outcome.merge(
        run_client(router_addr, &mix[half..])
            .map_err(|e| format!("kill-phase (after kill): {e}"))?,
    );
    let kill_total = count(mix.len());
    let kill_ok = kill_outcome.all_ok(kill_total);
    eprintln!(
        "fleet: kill phase {}",
        chaos_summary(&kill_outcome, kill_total)
    );

    // The merged stats must report the outage.
    let down_observed =
        wait_for_shards_down(router_addr, Duration::from_secs(5), |down| down >= 1).is_ok();
    eprintln!("fleet: router reports shards_down>=1: {down_observed}");

    // Restart from the same cache log; the prober rehabilitates it.
    let restart_started = Instant::now();
    fleet.restart_shard(victim)?;
    let recovered =
        wait_for_shards_down(router_addr, Duration::from_secs(10), |down| down == 0).is_ok();
    let recovery_s = restart_started.elapsed().as_secs_f64();
    let warm_entries = stat_u64(&fetch_stats(&fleet.shard_addrs[victim])?, "cache_entries");
    eprintln!(
        "fleet: shard {victim} restarted in {recovery_s:.2}s with {warm_entries} \
         warm-started cache entries (recovered={recovered})"
    );

    // Warm replay: every key routes back to its (now live) owner; the
    // fleet-wide hit rate only clears 90% if the restarted shard's
    // slice came back warm.
    let hits_before = stat_u64(&fetch_stats(router_addr)?, "cache_hits");
    let replay = request_mix(args.runs, 901);
    let replay_outcome =
        run_client(router_addr, &replay).map_err(|e| format!("warm replay: {e}"))?;
    let hits_after = stat_u64(&fetch_stats(router_addr)?, "cache_hits");
    let warm_hit_rate = hit_rate(hits_after.saturating_sub(hits_before), replay.len());
    let replay_total = count(replay.len());
    let warm_ok = replay_outcome.all_ok(replay_total) && warm_hit_rate >= 0.90;
    eprintln!(
        "fleet: warm replay {}/{} ok, hit_rate={:.1}%",
        replay_outcome.ok,
        replay_total,
        warm_hit_rate * 100.0
    );

    let final_merged = fetch_stats(router_addr)?;
    let passed = kill_ok && down_observed && recovered && warm_ok;
    let json = format!(
        "{{\"shards\":{},\"killed_shard\":{victim},\
         \"kill_phase\":{{\"requests\":{kill_total},{}}},\
         \"shard_down_observed\":{down_observed},\"recovered\":{recovered},\
         \"recovery_s\":{recovery_s:.3},\"warm_start_entries\":{warm_entries},\
         \"warm_replay\":{{\"requests\":{replay_total},\"ok\":{},\"degraded\":{},\
         \"hit_rate\":{warm_hit_rate:.4}}},\
         \"failovers\":{},\"retries\":{},\"passed\":{passed}}}",
        fleet.shard_addrs.len(),
        kill_outcome.render_counts(("degraded", kill_outcome.degraded)),
        replay_outcome.ok,
        replay_outcome.degraded,
        stat_u64(&final_merged, "failovers"),
        stat_u64(&final_merged, "retries"),
    );
    Ok((json, passed))
}

/// Sends one membership control op to the router and returns the parsed
/// response. Draining can wait on in-flight work server-side, so the
/// read deadline is generous.
fn control_op(router_addr: &str, line: &str) -> Result<Json, String> {
    let mut client = Client::connect(router_addr).map_err(|e| e.to_string())?;
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .and_then(|()| client.round_trip(line))
        .map_err(|e| format!("control op: {e}"))
}

/// Proves streamed responses reassemble bit-identical to plain ones
/// through the router: prime the cache with a plain request, replay it
/// plain (now a hit), replay it streamed with the same id, and compare
/// the reassembled bytes against the plain hit after blanking
/// `service_us`.
fn stream_identity_check(addr: &str, runs: u32) -> Result<bool, String> {
    let club = bsched_workload::perfect_club();
    let bench = club.first().ok_or("no benchmarks")?.name();
    let plain = schedule("stream-check".to_owned(), bench, runs, "").line;
    let streamed = schedule("stream-check".to_owned(), bench, runs, ",\"stream\":true").line;
    let failed = |e: std::io::Error| format!("stream check: {e}");
    let mut client = Client::connect(addr).map_err(failed)?;
    // First plain request computes (cached:false); second is the
    // cache-hit reference the streamed replay must match.
    client.round_trip(&plain).map_err(failed)?;
    client.send(&plain).map_err(failed)?;
    let reference = client
        .recv_line()
        .map_err(failed)?
        .ok_or("stream check: connection closed")?;
    client.send(&streamed).map_err(failed)?;
    let reassembled = match client.recv_stream() {
        Ok((chunks, terminal)) => bsched_serve::reassemble_stream(&chunks, &terminal),
        Err(e) => {
            eprintln!("stream check: {e}");
            return Ok(false);
        }
    };
    let Some(reassembled) = reassembled else {
        eprintln!("stream check: terminal line did not reassemble");
        return Ok(false);
    };
    let identical = blank_service_us(&reassembled) == blank_service_us(&reference);
    if !identical {
        eprintln!(
            "stream check: reassembled response differs from the plain one\n  plain: {}…\n  \
             reassembled: {}…",
            &reference[..reference.len().min(160)],
            &reassembled[..reassembled.len().min(160)],
        );
    }
    Ok(identical)
}

/// The membership chaos scenario behind `--add-shard-at`/
/// `--drain-shard-at` (DESIGN.md §14): a serial 3-pass mix through the
/// router with live membership changes injected at the given request
/// indices. Every request must be answered `ok` — adds and drains are
/// invisible to clients — the add must re-home only ~1/N of the key
/// space, and the drained shard must exit on its own with a reusable
/// cache log.
fn run_membership_chaos(
    fleet: &mut Fleet,
    args: &Args,
    router_addr: &str,
) -> Result<(String, bool), String> {
    let mut mix = Vec::new();
    for pass in [950, 951, 952] {
        mix.extend(request_mix(args.runs, pass));
    }
    let add_at = args.add_shard_at.map(|n| n.min(mix.len()));
    let drain_at = args.drain_shard_at.map(|n| n.min(mix.len()));

    let mut outcome = Outcome::default();
    let mut added: Option<(String, f64, u64)> = None; // (addr, rehomed, members)
    let mut drained: Option<(bool, bool)> = None; // (drained ok, child exited)
    let victim = 0usize;
    let before_members = count(fleet.shard_addrs.len());

    {
        let mut client = Client::connect(router_addr).map_err(|e| e.to_string())?;
        for idx in 0..=mix.len() {
            if add_at == Some(idx) {
                let addr = fleet.spawn_extra()?;
                let response = control_op(
                    router_addr,
                    &format!("{{\"op\":\"add-shard\",\"addr\":{}}}", json::string(&addr)),
                )?;
                let rehomed = response
                    .get("rehomed_fraction")
                    .and_then(Json::as_f64)
                    .unwrap_or(1.0);
                let members = response.get("members").and_then(Json::as_u64).unwrap_or(0);
                eprintln!(
                    "membership: added {addr} at request {idx} (members={members}, \
                     rehomed_fraction={rehomed:.4})"
                );
                added = Some((addr, rehomed, members));
            }
            if drain_at == Some(idx) {
                let addr = fleet.shard_addrs[victim].clone();
                let response = control_op(
                    router_addr,
                    &format!(
                        "{{\"op\":\"drain-shard\",\"addr\":{},\"stop\":true}}",
                        json::string(&addr)
                    ),
                )?;
                let ok = response.get("drained").and_then(Json::as_str) == Some(addr.as_str())
                    && response.get("stopped").and_then(Json::as_bool) == Some(true);
                let exited = fleet
                    .wait_shard_exit(victim, Duration::from_secs(10))
                    .is_ok();
                eprintln!(
                    "membership: drained {addr} at request {idx} (accepted={ok}, exited={exited})"
                );
                drained = Some((ok, exited));
            }
            let Some(req) = mix.get(idx) else { break };
            if !exchange(&mut client, req, &mut outcome)
                .map_err(|e| format!("membership mix: {e}"))?
            {
                outcome.dropped += count(mix.len() - idx);
                break;
            }
        }
    }

    let total = count(mix.len());
    let requests_ok = outcome.all_ok(total);
    eprintln!("membership: mix {}", chaos_summary(&outcome, total));

    // Re-homed fraction gate: adding one member to an N-shard ring may
    // only move the keys the new member now owns (~1/N of the space,
    // 1.5/N with sampling slack).
    let (rehomed, rehome_ok) = match &added {
        Some((_, rehomed, members)) => {
            #[allow(clippy::cast_precision_loss)]
            let bound = 1.5 / (*members).max(1) as f64;
            (*rehomed, *rehomed <= bound && *rehomed > 0.0)
        }
        None => (0.0, add_at.is_none()),
    };
    let drain_ok = match drained {
        Some((ok, exited)) => ok && exited,
        None => drain_at.is_none(),
    };

    // The drained shard flushed its cache log on the way out; a fresh
    // in-process server warm-starting from that log proves the flush.
    let log_reusable = if drain_at.is_some() && drain_ok {
        let reuse = Server::start(ServerConfig {
            listen: "127.0.0.1:0".to_owned(),
            cache_log: Some(fleet.log_paths[victim].display().to_string()),
            workers: 1,
            io_threads: 1,
            ..ServerConfig::default()
        })
        .map_err(|e| format!("reuse drained cache log: {e}"))?;
        let entries = stat_u64(
            &fetch_stats(&reuse.local_addr().to_string())?,
            "cache_entries",
        );
        reuse.begin_shutdown();
        reuse.join();
        eprintln!("membership: drained shard's log warm-starts {entries} entries");
        entries >= 1
    } else {
        drain_at.is_none()
    };

    let stream_identical = stream_identity_check(router_addr, args.runs)?;
    eprintln!("membership: streamed == plain through the router: {stream_identical}");

    let final_merged = fetch_stats(router_addr)?;
    let passed = requests_ok && rehome_ok && drain_ok && log_reusable && stream_identical;
    let json = format!(
        "{{\"initial_shards\":{before_members},\"requests\":{total},{},\
         \"added\":{},\"rehomed_fraction\":{rehomed:.4},\
         \"rehome_ok\":{rehome_ok},\"drained\":{},\"drain_ok\":{drain_ok},\
         \"drained_log_reusable\":{log_reusable},\"stream_identical\":{stream_identical},\
         \"members_now\":{},\"passed\":{passed}}}",
        outcome.render_counts(("degraded", outcome.degraded)),
        added
            .as_ref()
            .map_or_else(|| "null".to_owned(), |(a, _, _)| json::string(a)),
        drain_at.map_or_else(
            || "null".to_owned(),
            |_| json::string(&fleet.shard_addrs[victim])
        ),
        stat_u64(&final_merged, "members"),
    );
    Ok((json, passed))
}

/// Client connections per `--scaleout` point.
const SCALE_CLIENTS: usize = 16;
/// Requests each of those clients sends.
const SCALE_PER_CLIENT: usize = 15;

/// Request mix for the scale-out curve: every request carries a
/// distinct seed (240 distinct cache keys per point, spread across the
/// ring by rendezvous hashing). With `stall_us` > 0 each request also
/// carries a simulated service stall, which the shard sleeps on a
/// worker thread before consulting its cache.
fn scaleout_mix(runs: u32, shards: usize, stall_us: u64) -> Vec<Vec<Prepared>> {
    let club = bsched_workload::perfect_club();
    let stall = if stall_us > 0 {
        format!(",\"stall_us\":{stall_us}")
    } else {
        String::new()
    };
    (0..SCALE_CLIENTS)
        .map(|c| {
            (0..SCALE_PER_CLIENT)
                .map(|i| {
                    let n = c * SCALE_PER_CLIENT + i;
                    let seed = 100_000 * shards + n;
                    let id = format!("scale{shards}-c{c}-{n}");
                    let extra = format!(",\"seed\":{seed}{stall}");
                    schedule(id, club[n % club.len()].name(), runs, &extra)
                })
                .collect()
        })
        .collect()
}

/// The `--scaleout` sweep: for each requested fleet size, stand up a
/// fresh fleet (own shards, own router, own logs), warm every cache key
/// with an untimed pass, then drive the same mix again with a 20 ms
/// simulated service stall per request and record aggregate throughput.
///
/// The timed pass is **service-time-bound, not CPU-bound**: each
/// request pins a shard worker for the stall duration, so aggregate
/// throughput is capped by fleet-wide worker concurrency
/// (shards × workers), exactly the capacity that adding a shard buys.
/// That makes the curve a portable proof that the router drives shards
/// concurrently (no hidden serialization in forwarding, admission, or
/// placement) — it scales with shard count even on a single-core host,
/// where a compute-bound mix could only measure core count. The
/// workload and client concurrency never change across points; only
/// the shard count does. Returns the curve and the merged outcome of
/// its timed passes.
fn run_scaleout(args: &Args) -> Result<(String, Outcome), String> {
    const STALL_US: u64 = 20_000;
    let requests = SCALE_CLIENTS * SCALE_PER_CLIENT;
    let mut points = Vec::new();
    let mut all = Outcome::default();
    for &shards in &args.scaleout {
        let mut fleet = Fleet::start(shards, &args.serve_bin, None, &format!("scale{shards}"))?;
        let addr = fleet.router_addr();
        let (warm, _) = drive(&addr, &scaleout_mix(args.runs, shards, 0));
        if warm.ok < count(requests) {
            eprintln!(
                "bsched-loadgen: scaleout warm pass shards={shards}: only {}/{requests} ok",
                warm.ok
            );
        }
        let (outcome, wall) = drive(&addr, &scaleout_mix(args.runs, shards, STALL_US));
        fleet.shutdown();
        eprintln!(
            "scaleout shards={shards}: {}",
            outcome.summary(requests, wall)
        );
        points.push(format!(
            "{{\"shards\":{shards},\"clients\":{SCALE_CLIENTS},\"requests\":{requests},\
             \"stall_us\":{STALL_US},{},\"wall_s\":{:.6},\"throughput_rps\":{:.3},\
             \"p50_us\":{},\"p99_us\":{}}}",
            outcome.render_counts(("cached", outcome.cached)),
            wall.as_secs_f64(),
            outcome.throughput(wall),
            percentile(&outcome.latencies_us, 0.50),
            percentile(&outcome.latencies_us, 0.99),
        ));
        all.merge(outcome);
    }
    Ok((format!("[{}]", points.join(",")), all))
}

fn run() -> Result<i32, String> {
    let args = parse_args()?;
    let server = if args.spawn {
        Some(
            Server::start(ServerConfig {
                listen: "127.0.0.1:0".to_owned(),
                workers: args.workers,
                io_threads: IO_THREADS,
                queue_capacity: args.queue_cap,
                ..ServerConfig::default()
            })
            .map_err(|e| format!("spawn server: {e}"))?,
        )
    } else {
        None
    };
    let mut fleet = if args.fleet > 0 {
        Some(Fleet::start(
            args.fleet,
            &args.serve_bin,
            args.cache_log_dir.as_deref(),
            "fleet",
        )?)
    } else {
        None
    };
    let addr = match (&server, &fleet) {
        (Some(s), _) => s.local_addr().to_string(),
        (None, Some(f)) => f.router_addr(),
        (None, None) => args.addr.clone().expect("validated: one source is given"),
    };

    // Responses lost by the load runs (passes, scale-out); the
    // chaos scenarios gate their own.
    let mut lost = Outcome::default();
    let mut failures = Vec::new();
    let mut pass_reports = Vec::new();
    let mut hit_rate_last_pass = 0.0f64;
    for pass in 1..=args.passes {
        let (report, outcome, rate) = run_pass(&addr, &args, pass)?;
        pass_reports.push(report);
        lost.merge(outcome);
        hit_rate_last_pass = rate;
    }

    let mut sections = String::new();
    if args.burst > 0 {
        sections.push_str(&format!(",\"burst\":{}", run_burst(&addr, &args)?));
    }
    if args.kill_shard {
        let fleet_ref = fleet
            .as_mut()
            .expect("--kill-shard validated to imply --fleet");
        let (json, passed) = run_fleet_chaos(fleet_ref, &args, &addr)?;
        sections.push_str(&format!(",\"fleet\":{json}"));
        if !passed {
            failures.push("fleet chaos gates missed (see the \"fleet\" report)".to_owned());
        }
    }
    if args.add_shard_at.is_some() || args.drain_shard_at.is_some() {
        let fleet_ref = fleet
            .as_mut()
            .expect("--add-shard-at/--drain-shard-at validated to imply --fleet");
        let (json, passed) = run_membership_chaos(fleet_ref, &args, &addr)?;
        sections.push_str(&format!(",\"membership\":{json}"));
        if !passed {
            failures
                .push("membership chaos gates missed (see the \"membership\" report)".to_owned());
        }
    }
    if !args.scaleout.is_empty() {
        let (curve, outcome) = run_scaleout(&args)?;
        sections.push_str(&format!(",\"scaleout\":{curve}"));
        lost.merge(outcome);
    }

    let final_stats = fetch_stats(&addr)?;
    let report = format!(
        "{{\"bench\":\"serve\",\"system\":{},\"schedulers\":[{}],\"clients\":{},\
         \"passes\":[{}],\"final_stats\":{}{sections}}}",
        json::string(SYSTEM),
        json::string(SCHEDULER),
        args.clients,
        pass_reports.join(","),
        render_stats_obj(&final_stats),
    );
    match &args.out {
        Some(path) => {
            // Atomic so an interrupted run never leaves a truncated
            // report where a previous good one stood.
            write_atomic(path, |f| writeln!(f, "{report}"))
                .map_err(|e| format!("write {path}: {e}"))?;
        }
        None => println!("{report}"),
    }

    if let Some(server) = server {
        server.begin_shutdown();
        server.join();
    }
    if let Some(mut fleet) = fleet {
        fleet.shutdown();
    }

    if lost.dropped > 0 || lost.malformed > 0 {
        failures.push(format!(
            "{} dropped, {} malformed responses",
            lost.dropped, lost.malformed
        ));
    }
    if let Some(expect) = args.expect_hit_rate {
        let measured = hit_rate_last_pass * 100.0;
        if measured + 1e-9 < expect {
            failures.push(format!(
                "final-pass cache hit rate {measured:.1}% < expected {expect:.1}%"
            ));
        }
    }
    for failure in &failures {
        eprintln!("bsched-loadgen: FAIL: {failure}");
    }
    Ok(i32::from(!failures.is_empty()))
}

/// Re-renders the `stats` object from a `/stats` response (stripping the
/// envelope) so the report embeds plain counters.
fn render_stats_obj(resp: &Json) -> String {
    fn render(v: &Json) -> String {
        match v {
            Json::Null => "null".to_owned(),
            Json::Bool(b) => b.to_string(),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    format!("{n:.0}")
                } else {
                    format!("{n}")
                }
            }
            Json::Str(s) => json::string(s),
            Json::Arr(items) => {
                let inner: Vec<String> = items.iter().map(render).collect();
                format!("[{}]", inner.join(","))
            }
            Json::Obj(fields) => {
                let inner: Vec<String> = fields
                    .iter()
                    .map(|(k, v)| format!("{}:{}", json::string(k), render(v)))
                    .collect();
                format!("{{{}}}", inner.join(","))
            }
        }
    }
    resp.get("stats").map_or_else(|| "{}".to_owned(), render)
}

fn main() {
    bsched_pipeline::check_environment();
    match run() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("bsched-loadgen: {e}");
            eprint!("{USAGE}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_probes_only_the_envelope() {
        let mut outcome = Outcome::default();
        let line = "{\"id\":\"p1\",\"status\":\"ok\",\"cached\":false,\
                    \"schedule\":{\"blocks\":[],\"cached\":true},\"service_us\":5}";
        classify(&mut outcome, "p1", line);
        assert_eq!((outcome.ok, outcome.cached, outcome.malformed), (1, 0, 0));
        classify(&mut outcome, "p1", &line.replace("false", "true"));
        assert_eq!((outcome.ok, outcome.cached), (2, 1));
    }

    #[test]
    fn merge_adds_every_counter() {
        let one = Outcome {
            ok: 1,
            cached: 2,
            degraded: 3,
            errors: 4,
            overloaded: 5,
            timeouts: 6,
            dropped: 7,
            malformed: 8,
            latencies_us: vec![9],
        };
        let mut sum = one.clone();
        sum.merge(one);
        assert_eq!(
            [
                sum.ok,
                sum.cached,
                sum.degraded,
                sum.errors,
                sum.overloaded,
                sum.timeouts,
                sum.dropped,
                sum.malformed
            ],
            [2, 4, 6, 8, 10, 12, 14, 16]
        );
        assert_eq!(sum.latencies_us, [9, 9]);
    }
}
