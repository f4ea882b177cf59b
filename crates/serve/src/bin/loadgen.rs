//! `bsched-loadgen` — drive a `bsched serve` daemon with concurrent
//! clients and record throughput/latency/cache behaviour.
//!
//! The request mix is the eight Perfect Club stand-ins (optionally
//! crossed with several schedulers). Each pass sends every request once,
//! spread round-robin over `--clients` connections; repeated passes are
//! how the content-addressed cache shows up in the numbers — the second
//! pass should be nearly all hits.
//!
//! Exit status is the verdict: non-zero when any response is dropped or
//! malformed, or when `--expect-hit-rate` is given and the second pass's
//! measured hit rate falls short.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use bsched_analyze::journal::write_atomic;
use bsched_analyze::json::{self, Json};
use bsched_serve::{Router, RouterConfig, Server, ServerConfig};

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
    --system SPEC          memory system                   [default: L80(2,5)]
    --schedulers A,B       scheduler specs to cross with   [default: balanced]
    --analyze              request analyzer diagnostics too
    --burst N              afterwards, pipeline N extra requests at once and
                           report how many were shed as overloaded
    --sweep C1,C2,...      afterwards, warm the cache then replay the mix at
                           each client-concurrency level, recording a
                           throughput/latency curve (e.g. --sweep 1,2,4,8,16)
    --expect-hit-rate PCT  fail unless 2nd-pass cache hit rate >= PCT
    --out FILE             write the JSON report here      [default: stdout]
    --workers N            (with --spawn) worker threads   [default: 4]
    --io-threads N         (with --spawn) event-loop IO threads [default: 2]
    --queue-cap N          (with --spawn) admission bound  [default: 64]
    --fleet N              spawn N shard daemons (child processes) behind an
                           in-process router and drive the router instead
    --serve-bin PATH       (with --fleet) the bsched binary to spawn shards
                           with                  [default: target/release/bsched]
    --cache-log-dir DIR    (with --fleet) per-shard cache-log directory
                           [default: a fresh directory under the temp dir]
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

struct Args {
    addr: Option<String>,
    spawn: bool,
    clients: usize,
    passes: usize,
    runs: u32,
    system: String,
    schedulers: Vec<String>,
    analyze: bool,
    burst: usize,
    sweep: Vec<usize>,
    expect_hit_rate: Option<f64>,
    out: Option<String>,
    workers: usize,
    io_threads: usize,
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
        system: "L80(2,5)".to_owned(),
        schedulers: vec!["balanced".to_owned()],
        analyze: false,
        burst: 0,
        sweep: Vec::new(),
        expect_hit_rate: None,
        out: None,
        workers: 4,
        io_threads: 2,
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
            "--system" => args.system = value("--system")?,
            "--schedulers" => {
                args.schedulers = value("--schedulers")?
                    .split(',')
                    .map(str::to_owned)
                    .collect();
            }
            "--analyze" => args.analyze = true,
            "--burst" => args.burst = parse_num(&value("--burst")?, "--burst")?,
            "--sweep" => {
                args.sweep = value("--sweep")?
                    .split(',')
                    .map(|c| parse_num::<usize>(c.trim(), "--sweep"))
                    .collect::<Result<_, _>>()?;
                if args.sweep.contains(&0) {
                    return Err("--sweep: concurrency levels must be at least 1".to_owned());
                }
            }
            "--expect-hit-rate" => {
                let raw = value("--expect-hit-rate")?;
                let pct: f64 = raw
                    .parse()
                    .map_err(|_| format!("--expect-hit-rate: bad percentage {raw:?}"))?;
                args.expect_hit_rate = Some(pct);
            }
            "--out" => args.out = Some(value("--out")?),
            "--workers" => args.workers = parse_num(&value("--workers")?, "--workers")?,
            "--io-threads" => args.io_threads = parse_num(&value("--io-threads")?, "--io-threads")?,
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
                args.scaleout = value("--scaleout")?
                    .split(',')
                    .map(|c| parse_num::<usize>(c.trim(), "--scaleout"))
                    .collect::<Result<_, _>>()?;
                if args.scaleout.contains(&0) {
                    return Err("--scaleout: fleet sizes must be at least 1".to_owned());
                }
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

/// One request line plus the id a well-behaved response must echo.
struct Prepared {
    id: String,
    line: String,
}

fn request_mix(args: &Args, pass: usize) -> Vec<Prepared> {
    let mut mix = Vec::new();
    for bench in bsched_workload::perfect_club() {
        for sched in &args.schedulers {
            let id = format!("p{pass}-{}-{sched}", bench.name());
            let line = format!(
                "{{\"op\":\"schedule\",\"id\":{},\"benchmark\":{},\"system\":{},\
                 \"scheduler\":{},\"runs\":{},\"analyze\":{}}}",
                json::string(&id),
                json::string(bench.name()),
                json::string(&args.system),
                json::string(sched),
                args.runs,
                args.analyze
            );
            mix.push(Prepared { id, line });
        }
    }
    mix
}

#[derive(Default, Clone)]
struct PassOutcome {
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

/// Connects with bounded retries and backoff: a daemon still binding
/// its socket (or a shard mid-restart) refuses connections for a few
/// milliseconds, which must not fail a whole run. When the daemon
/// really is absent the caller gets one clean, typed error instead of
/// a raw `ECONNREFUSED` bubbling up.
fn connect_with_retry(addr: &str) -> std::io::Result<TcpStream> {
    const ATTEMPTS: u32 = 8;
    let mut delay = Duration::from_millis(25);
    let mut last: Option<std::io::Error> = None;
    for attempt in 0..ATTEMPTS {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = Some(e),
        }
        if attempt + 1 < ATTEMPTS {
            std::thread::sleep(delay);
            delay = (delay * 2).min(Duration::from_millis(400));
        }
    }
    Err(std::io::Error::other(format!(
        "no daemon accepting connections at {addr} after {ATTEMPTS} attempts \
         (last error: {})",
        last.map_or_else(|| "none".to_owned(), |e| e.to_string())
    )))
}

fn classify(outcome: &mut PassOutcome, expected_id: &str, line: &str) {
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

/// Sends `requests` over one connection, one at a time, timing each
/// round trip.
fn run_client(addr: &str, requests: &[Prepared]) -> std::io::Result<PassOutcome> {
    let mut outcome = PassOutcome::default();
    if requests.is_empty() {
        return Ok(outcome);
    }
    let stream = connect_with_retry(addr)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut frame = Vec::new();
    for (idx, req) in requests.iter().enumerate() {
        let started = Instant::now();
        // One write syscall per request: splitting the newline into its
        // own segment trips client-side Nagle against the server's
        // delayed ACK (~40ms stall on an incomplete line).
        frame.clear();
        frame.extend_from_slice(req.line.as_bytes());
        frame.push(b'\n');
        writer.write_all(&frame)?;
        writer.flush()?;
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            // Server hung up: this request and everything after it on
            // this connection got no answer.
            outcome.dropped += u64::try_from(requests.len() - idx).unwrap_or(u64::MAX);
            break;
        }
        let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        outcome.latencies_us.push(micros);
        classify(&mut outcome, &req.id, line.trim());
    }
    Ok(outcome)
}

fn fetch_stats(addr: &str) -> Result<Json, String> {
    let stream = connect_with_retry(addr).map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = stream;
    writer
        .write_all(b"/stats\n")
        .and_then(|()| writer.flush())
        .map_err(|e| format!("send /stats: {e}"))?;
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("read /stats: {e}"))?;
    json::parse(line.trim()).ok_or_else(|| format!("malformed /stats response: {line:?}"))
}

fn stat_u64(stats: &Json, key: &str) -> u64 {
    stats
        .get("stats")
        .and_then(|s| s.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let idx = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// Pipelines `n` requests down one connection without reading, then
/// reads every response — the over-capacity probe. Returns
/// (ok, overloaded, other, dropped).
fn run_burst(addr: &str, args: &Args, n: usize) -> std::io::Result<(u64, u64, u64, u64)> {
    let stream = connect_with_retry(addr)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mix = request_mix(args, 9999);
    let mut frame = Vec::new();
    for i in 0..n {
        let req = &mix[i % mix.len()];
        frame.extend_from_slice(req.line.as_bytes());
        frame.push(b'\n');
    }
    writer.write_all(&frame)?;
    writer.flush()?;
    let (mut ok, mut overloaded, mut other, mut dropped) = (0u64, 0u64, 0u64, 0u64);
    for _ in 0..n {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            dropped += 1;
            continue;
        }
        match json::parse(line.trim())
            .as_ref()
            .and_then(|v| v.get("status"))
            .and_then(Json::as_str)
        {
            Some("ok") => ok += 1,
            Some("overloaded") => overloaded += 1,
            _ => other += 1,
        }
    }
    Ok((ok, overloaded, other, dropped))
}

/// One point on the concurrency-sweep curve.
struct SweepPoint {
    concurrency: usize,
    requests: usize,
    outcome: PassOutcome,
    wall_s: f64,
    throughput_rps: f64,
}

impl SweepPoint {
    fn render(&self) -> String {
        let o = &self.outcome;
        format!(
            "{{\"concurrency\":{},\"requests\":{},\"answered\":{},\"ok\":{},\
             \"cached\":{},\"errors\":{},\"overloaded\":{},\"timeouts\":{},\
             \"dropped\":{},\"malformed\":{},\"wall_s\":{:.6},\
             \"throughput_rps\":{:.3},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{}}}",
            self.concurrency,
            self.requests,
            o.latencies_us.len(),
            o.ok,
            o.cached,
            o.errors,
            o.overloaded,
            o.timeouts,
            o.dropped,
            o.malformed,
            self.wall_s,
            self.throughput_rps,
            percentile(&o.latencies_us, 0.50),
            percentile(&o.latencies_us, 0.95),
            percentile(&o.latencies_us, 0.99),
        )
    }
}

/// The concurrency sweep: warm the cache with one serial pass of the
/// mix, then replay the full mix once per connection at each
/// concurrency level, so the curve measures the serving path (framing,
/// admission, cache, completion plumbing) rather than first-touch
/// compilation.
fn run_sweep(addr: &str, args: &Args, levels: &[usize]) -> Result<Vec<SweepPoint>, String> {
    let warm = request_mix(args, 0);
    let warmed = run_client(addr, &warm).map_err(|e| format!("sweep warm-up: {e}"))?;
    if warmed.dropped > 0 || warmed.malformed > 0 {
        return Err("sweep warm-up pass lost responses".to_owned());
    }
    let mut points = Vec::new();
    for (at, &concurrency) in levels.iter().enumerate() {
        // Unique pass tag per level keeps request ids unambiguous in
        // logs; cache keys ignore ids, so hits still land.
        let mix = request_mix(args, at + 1);
        let started = Instant::now();
        let outcomes: Vec<PassOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..concurrency)
                .map(|_| scope.spawn(|| run_client(addr, &mix)))
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(Ok(outcome)) => outcome,
                    Ok(Err(e)) => {
                        eprintln!("bsched-loadgen: sweep client error: {e}");
                        PassOutcome {
                            malformed: 1,
                            ..PassOutcome::default()
                        }
                    }
                    Err(_) => PassOutcome {
                        malformed: 1,
                        ..PassOutcome::default()
                    },
                })
                .collect()
        });
        let wall = started.elapsed();
        let mut merged = PassOutcome::default();
        for o in outcomes {
            merged.ok += o.ok;
            merged.cached += o.cached;
            merged.degraded += o.degraded;
            merged.errors += o.errors;
            merged.overloaded += o.overloaded;
            merged.timeouts += o.timeouts;
            merged.dropped += o.dropped;
            merged.malformed += o.malformed;
            merged.latencies_us.extend(o.latencies_us);
        }
        merged.latencies_us.sort_unstable();
        #[allow(clippy::cast_precision_loss)]
        let throughput = if wall.as_secs_f64() > 0.0 {
            merged.latencies_us.len() as f64 / wall.as_secs_f64()
        } else {
            0.0
        };
        let point = SweepPoint {
            concurrency,
            requests: mix.len() * concurrency,
            outcome: merged,
            wall_s: wall.as_secs_f64(),
            throughput_rps: throughput,
        };
        eprintln!(
            "sweep c={concurrency}: {}/{} answered in {:.3}s ({throughput:.1} req/s), \
             p99={}us",
            point.outcome.latencies_us.len(),
            point.requests,
            point.wall_s,
            percentile(&point.outcome.latencies_us, 0.99),
        );
        points.push(point);
    }
    Ok(points)
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
fn wait_for_daemon(addr: &str, deadline: Duration) -> Result<(), String> {
    let started = Instant::now();
    loop {
        if let Ok(mut stream) = TcpStream::connect(addr) {
            let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
            if stream.write_all(b"{\"op\":\"ping\"}\n").is_ok() {
                let mut line = String::new();
                if BufReader::new(stream).read_line(&mut line).is_ok()
                    && line.contains("\"pong\":true")
                {
                    return Ok(());
                }
            }
        }
        if started.elapsed() > deadline {
            return Err(format!(
                "daemon at {addr} did not come up within {deadline:?}"
            ));
        }
        std::thread::sleep(Duration::from_millis(25));
    }
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
        };
        for _ in 0..count {
            fleet.spawn_extra()?;
        }
        for addr in &fleet.shard_addrs {
            wait_for_daemon(addr, Duration::from_secs(10))?;
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
            wait_for_daemon(&addr, Duration::from_secs(10))?;
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
        wait_for_daemon(&self.shard_addrs[index], Duration::from_secs(10))
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
    let mix = request_mix(args, 900);
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
    let after = run_client(router_addr, &mix[half..])
        .map_err(|e| format!("kill-phase (after kill): {e}"))?;
    kill_outcome.ok += after.ok;
    kill_outcome.cached += after.cached;
    kill_outcome.degraded += after.degraded;
    kill_outcome.errors += after.errors;
    kill_outcome.overloaded += after.overloaded;
    kill_outcome.timeouts += after.timeouts;
    kill_outcome.dropped += after.dropped;
    kill_outcome.malformed += after.malformed;
    kill_outcome.latencies_us.extend(after.latencies_us);
    let kill_total = u64::try_from(mix.len()).unwrap_or(u64::MAX);
    let kill_ok = kill_outcome.ok == kill_total
        && kill_outcome.dropped == 0
        && kill_outcome.malformed == 0
        && kill_outcome.errors == 0
        && kill_outcome.timeouts == 0
        && kill_outcome.overloaded == 0;
    eprintln!(
        "fleet: kill phase {}/{} ok ({} degraded), errors={} dropped={} malformed={}",
        kill_outcome.ok,
        kill_total,
        kill_outcome.degraded,
        kill_outcome.errors,
        kill_outcome.dropped,
        kill_outcome.malformed
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
    let replay = request_mix(args, 901);
    let replay_outcome =
        run_client(router_addr, &replay).map_err(|e| format!("warm replay: {e}"))?;
    let hits_after = stat_u64(&fetch_stats(router_addr)?, "cache_hits");
    #[allow(clippy::cast_precision_loss)]
    let warm_hit_rate = if replay.is_empty() {
        0.0
    } else {
        hits_after.saturating_sub(hits_before) as f64 / replay.len() as f64
    };
    let replay_total = u64::try_from(replay.len()).unwrap_or(u64::MAX);
    let warm_ok = replay_outcome.ok == replay_total
        && replay_outcome.dropped == 0
        && replay_outcome.malformed == 0
        && warm_hit_rate >= 0.90;
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
         \"kill_phase\":{{\"requests\":{kill_total},\"ok\":{},\"degraded\":{},\
         \"errors\":{},\"overloaded\":{},\"timeouts\":{},\"dropped\":{},\"malformed\":{}}},\
         \"shard_down_observed\":{down_observed},\"recovered\":{recovered},\
         \"recovery_s\":{recovery_s:.3},\"warm_start_entries\":{warm_entries},\
         \"warm_replay\":{{\"requests\":{replay_total},\"ok\":{},\"degraded\":{},\
         \"hit_rate\":{warm_hit_rate:.4}}},\
         \"failovers\":{},\"retries\":{},\"passed\":{passed}}}",
        fleet.shard_addrs.len(),
        kill_outcome.ok,
        kill_outcome.degraded,
        kill_outcome.errors,
        kill_outcome.overloaded,
        kill_outcome.timeouts,
        kill_outcome.dropped,
        kill_outcome.malformed,
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
    let stream = connect_with_retry(router_addr).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| format!("control op: {e}"))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = stream;
    writer
        .write_all(format!("{line}\n").as_bytes())
        .and_then(|()| writer.flush())
        .map_err(|e| format!("send control op: {e}"))?;
    let mut response = String::new();
    reader
        .read_line(&mut response)
        .map_err(|e| format!("read control response: {e}"))?;
    json::parse(response.trim()).ok_or_else(|| format!("malformed control response: {response:?}"))
}

/// Blanks volatile fields so two responses for the same cached request
/// compare byte-for-byte: `service_us` is wall-clock and differs per
/// hit.
fn normalize_response(line: &str) -> String {
    const NEEDLE: &str = "\"service_us\":";
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(at) = rest.find(NEEDLE) {
        let tail = &rest[at + NEEDLE.len()..];
        let digits = tail.bytes().take_while(u8::is_ascii_digit).count();
        out.push_str(&rest[..at + NEEDLE.len()]);
        out.push('0');
        rest = &tail[digits..];
    }
    out.push_str(rest);
    out
}

/// Proves streamed responses reassemble bit-identical to plain ones
/// through the router: prime the cache with a plain request, replay it
/// plain (now a hit), replay it streamed with the same id, and compare
/// the reassembled bytes against the plain hit after blanking
/// `service_us`.
fn stream_identity_check(addr: &str, args: &Args) -> Result<bool, String> {
    let bench = bsched_workload::perfect_club()
        .into_iter()
        .next()
        .ok_or("no benchmarks")?;
    let fields = format!(
        "\"id\":\"stream-check\",\"benchmark\":{},\"system\":{},\"scheduler\":\"balanced\",\
         \"runs\":{},\"analyze\":false",
        json::string(bench.name()),
        json::string(&args.system),
        args.runs
    );
    let stream = connect_with_retry(addr).map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = stream;
    let mut ask = |line: String| -> Result<String, String> {
        writer
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|()| writer.flush())
            .map_err(|e| format!("stream check send: {e}"))?;
        let mut response = String::new();
        if reader
            .read_line(&mut response)
            .map_err(|e| format!("stream check read: {e}"))?
            == 0
        {
            return Err("stream check: connection closed".to_owned());
        }
        Ok(response.trim().to_owned())
    };
    // First plain request computes (cached:false); second is the
    // cache-hit reference the streamed replay must match.
    let _ = ask(format!("{{\"op\":\"schedule\",{fields}}}"))?;
    let plain = ask(format!("{{\"op\":\"schedule\",{fields}}}"))?;
    writer
        .write_all(format!("{{\"op\":\"schedule\",{fields},\"stream\":true}}\n").as_bytes())
        .and_then(|()| writer.flush())
        .map_err(|e| format!("stream check send: {e}"))?;
    let mut chunks = Vec::new();
    let terminal = loop {
        let mut line = String::new();
        if reader
            .read_line(&mut line)
            .map_err(|e| format!("stream check read: {e}"))?
            == 0
        {
            return Err("stream check: connection closed mid-stream".to_owned());
        }
        let line = line.trim().to_owned();
        if bsched_serve::is_stream_end(&line) {
            break line;
        }
        if !bsched_serve::is_chunk_line(&line) {
            eprintln!("stream check: unexpected line in stream: {line}");
            return Ok(false);
        }
        chunks.push(line);
    };
    let Some(reassembled) = bsched_serve::reassemble_stream(&chunks, &terminal) else {
        eprintln!("stream check: terminal line did not reassemble");
        return Ok(false);
    };
    let identical = normalize_response(&reassembled) == normalize_response(&plain);
    if !identical {
        eprintln!(
            "stream check: reassembled response differs from the plain one\n  plain: {}…\n  \
             reassembled: {}…",
            &plain[..plain.len().min(160)],
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
#[allow(clippy::too_many_lines)]
fn run_membership_chaos(
    fleet: &mut Fleet,
    args: &Args,
    router_addr: &str,
) -> Result<(String, bool), String> {
    let mut mix = Vec::new();
    for pass in [950, 951, 952] {
        mix.extend(request_mix(args, pass));
    }
    let add_at = args.add_shard_at.map(|n| n.min(mix.len()));
    let drain_at = args.drain_shard_at.map(|n| n.min(mix.len()));

    let mut outcome = PassOutcome::default();
    let mut added: Option<(String, f64, u64)> = None; // (addr, rehomed, members)
    let mut drained: Option<(bool, bool)> = None; // (drained ok, child exited)
    let victim = 0usize;
    let before_members = u64::try_from(fleet.shard_addrs.len()).unwrap_or(u64::MAX);

    {
        let stream = connect_with_retry(router_addr).map_err(|e| e.to_string())?;
        let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        let mut writer = stream;
        let mut frame = Vec::new();
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
            frame.clear();
            frame.extend_from_slice(req.line.as_bytes());
            frame.push(b'\n');
            writer
                .write_all(&frame)
                .map_err(|e| format!("membership mix send: {e}"))?;
            let started = Instant::now();
            let mut line = String::new();
            if reader
                .read_line(&mut line)
                .map_err(|e| format!("membership mix read: {e}"))?
                == 0
            {
                outcome.dropped += u64::try_from(mix.len() - idx).unwrap_or(u64::MAX);
                break;
            }
            let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
            outcome.latencies_us.push(micros);
            classify(&mut outcome, &req.id, line.trim());
        }
    }

    let total = u64::try_from(mix.len()).unwrap_or(u64::MAX);
    let requests_ok = outcome.ok == total
        && outcome.dropped == 0
        && outcome.malformed == 0
        && outcome.errors == 0
        && outcome.timeouts == 0
        && outcome.overloaded == 0;
    eprintln!(
        "membership: mix {}/{total} ok ({} degraded), errors={} dropped={} malformed={}",
        outcome.ok, outcome.degraded, outcome.errors, outcome.dropped, outcome.malformed
    );

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

    let stream_identical = stream_identity_check(router_addr, args)?;
    eprintln!("membership: streamed == plain through the router: {stream_identical}");

    let final_merged = fetch_stats(router_addr)?;
    let passed = requests_ok && rehome_ok && drain_ok && log_reusable && stream_identical;
    let json = format!(
        "{{\"initial_shards\":{before_members},\"requests\":{total},\"ok\":{},\
         \"degraded\":{},\"errors\":{},\"overloaded\":{},\"timeouts\":{},\"dropped\":{},\
         \"malformed\":{},\"added\":{},\"rehomed_fraction\":{rehomed:.4},\
         \"rehome_ok\":{rehome_ok},\"drained\":{},\"drain_ok\":{drain_ok},\
         \"drained_log_reusable\":{log_reusable},\"stream_identical\":{stream_identical},\
         \"members_now\":{},\"passed\":{passed}}}",
        outcome.ok,
        outcome.degraded,
        outcome.errors,
        outcome.overloaded,
        outcome.timeouts,
        outcome.dropped,
        outcome.malformed,
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

/// One point on the `--scaleout` aggregate-throughput curve.
struct ScalePoint {
    shards: usize,
    clients: usize,
    requests: usize,
    stall_us: u64,
    outcome: PassOutcome,
    wall_s: f64,
    throughput_rps: f64,
}

impl ScalePoint {
    fn render(&self) -> String {
        let o = &self.outcome;
        format!(
            "{{\"shards\":{},\"clients\":{},\"requests\":{},\"stall_us\":{},\"ok\":{},\
             \"cached\":{},\"errors\":{},\"overloaded\":{},\"timeouts\":{},\"dropped\":{},\
             \"malformed\":{},\"wall_s\":{:.6},\"throughput_rps\":{:.3},\
             \"p50_us\":{},\"p99_us\":{}}}",
            self.shards,
            self.clients,
            self.requests,
            self.stall_us,
            o.ok,
            o.cached,
            o.errors,
            o.overloaded,
            o.timeouts,
            o.dropped,
            o.malformed,
            self.wall_s,
            self.throughput_rps,
            percentile(&o.latencies_us, 0.50),
            percentile(&o.latencies_us, 0.99),
        )
    }
}

/// Request mix for the scale-out curve: every request carries a
/// distinct seed (240 distinct cache keys per point, spread across the
/// ring by rendezvous hashing). With `stall_us` > 0 each request also
/// carries a simulated service stall, which the shard sleeps on a
/// worker thread before consulting its cache.
fn scaleout_mix(
    args: &Args,
    shards: usize,
    per_client: usize,
    clients: usize,
    stall_us: u64,
) -> Vec<Vec<Prepared>> {
    let club = bsched_workload::perfect_club();
    (0..clients)
        .map(|c| {
            (0..per_client)
                .map(|i| {
                    let n = c * per_client + i;
                    let bench = &club[n % club.len()];
                    let seed = 100_000 * shards + n;
                    let id = format!("scale{shards}-c{c}-{n}");
                    let stall = if stall_us > 0 {
                        format!(",\"stall_us\":{stall_us}")
                    } else {
                        String::new()
                    };
                    let line = format!(
                        "{{\"op\":\"schedule\",\"id\":{},\"benchmark\":{},\"system\":{},\
                         \"scheduler\":\"balanced\",\"runs\":{},\"seed\":{seed},\
                         \"analyze\":false{stall}}}",
                        json::string(&id),
                        json::string(bench.name()),
                        json::string(&args.system),
                        args.runs,
                    );
                    Prepared { id, line }
                })
                .collect()
        })
        .collect()
}

/// Drives one full mix (one thread per client) and merges the
/// per-client outcomes into the given list.
fn drive_mix(addr: &str, per_client: &[Vec<Prepared>]) -> Vec<PassOutcome> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = per_client
            .iter()
            .map(|reqs| {
                let addr = addr.to_owned();
                scope.spawn(move || run_client(&addr, reqs))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(Ok(outcome)) => outcome,
                Ok(Err(e)) => {
                    eprintln!("bsched-loadgen: scaleout client error: {e}");
                    PassOutcome {
                        malformed: 1,
                        ..PassOutcome::default()
                    }
                }
                Err(_) => PassOutcome {
                    malformed: 1,
                    ..PassOutcome::default()
                },
            })
            .collect()
    })
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
/// the shard count does.
fn run_scaleout(args: &Args, sizes: &[usize]) -> Result<Vec<ScalePoint>, String> {
    const CLIENTS: usize = 16;
    const PER_CLIENT: usize = 15;
    const STALL_US: u64 = 20_000;
    let mut points = Vec::new();
    for &shards in sizes {
        let mut fleet = Fleet::start(shards, &args.serve_bin, None, &format!("scale{shards}"))?;
        let addr = fleet.router_addr();
        let warm = scaleout_mix(args, shards, PER_CLIENT, CLIENTS, 0);
        let warmed: u64 = drive_mix(&addr, &warm).iter().map(|o| o.ok).sum();
        if warmed < (CLIENTS * PER_CLIENT) as u64 {
            eprintln!(
                "bsched-loadgen: scaleout warm pass shards={shards}: only {warmed}/{} ok",
                CLIENTS * PER_CLIENT
            );
        }
        let timed = scaleout_mix(args, shards, PER_CLIENT, CLIENTS, STALL_US);
        let started = Instant::now();
        let outcomes = drive_mix(&addr, &timed);
        let wall = started.elapsed();
        fleet.shutdown();
        let mut merged = PassOutcome::default();
        for o in outcomes {
            merged.ok += o.ok;
            merged.cached += o.cached;
            merged.degraded += o.degraded;
            merged.errors += o.errors;
            merged.overloaded += o.overloaded;
            merged.timeouts += o.timeouts;
            merged.dropped += o.dropped;
            merged.malformed += o.malformed;
            merged.latencies_us.extend(o.latencies_us);
        }
        merged.latencies_us.sort_unstable();
        #[allow(clippy::cast_precision_loss)]
        let throughput = if wall.as_secs_f64() > 0.0 {
            merged.latencies_us.len() as f64 / wall.as_secs_f64()
        } else {
            0.0
        };
        let point = ScalePoint {
            shards,
            clients: CLIENTS,
            requests: CLIENTS * PER_CLIENT,
            stall_us: STALL_US,
            outcome: merged,
            wall_s: wall.as_secs_f64(),
            throughput_rps: throughput,
        };
        eprintln!(
            "scaleout shards={shards}: {}/{} answered in {:.3}s ({throughput:.1} req/s)",
            point.outcome.latencies_us.len(),
            point.requests,
            point.wall_s,
        );
        points.push(point);
    }
    Ok(points)
}

#[allow(clippy::too_many_lines)]
fn run() -> Result<i32, String> {
    let args = parse_args()?;
    let server = if args.spawn {
        Some(
            Server::start(ServerConfig {
                listen: "127.0.0.1:0".to_owned(),
                workers: args.workers,
                io_threads: args.io_threads,
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
        (None, None) => args.addr.clone().unwrap(),
    };

    let mut pass_reports = Vec::new();
    let mut hit_rate_last_pass = 0.0f64;
    let mut total_dropped = 0u64;
    let mut total_malformed = 0u64;
    for pass in 1..=args.passes {
        let mix = request_mix(&args, pass);
        let hits_before = stat_u64(&fetch_stats(&addr)?, "cache_hits");
        // Round-robin split over the client connections.
        let mut per_client: Vec<Vec<Prepared>> = (0..args.clients).map(|_| Vec::new()).collect();
        let total = mix.len();
        for (i, req) in mix.into_iter().enumerate() {
            per_client[i % args.clients].push(req);
        }
        let started = Instant::now();
        let outcomes: Vec<PassOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = per_client
                .iter()
                .map(|reqs| {
                    let addr = addr.clone();
                    scope.spawn(move || run_client(&addr, reqs))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(Ok(outcome)) => outcome,
                    Ok(Err(e)) => {
                        eprintln!("bsched-loadgen: client error: {e}");
                        PassOutcome {
                            malformed: 1,
                            ..PassOutcome::default()
                        }
                    }
                    Err(_) => PassOutcome {
                        malformed: 1,
                        ..PassOutcome::default()
                    },
                })
                .collect()
        });
        let wall = started.elapsed();
        let hits_after = stat_u64(&fetch_stats(&addr)?, "cache_hits");

        let mut merged = PassOutcome::default();
        for o in outcomes {
            merged.ok += o.ok;
            merged.cached += o.cached;
            merged.degraded += o.degraded;
            merged.errors += o.errors;
            merged.overloaded += o.overloaded;
            merged.timeouts += o.timeouts;
            merged.dropped += o.dropped;
            merged.malformed += o.malformed;
            merged.latencies_us.extend(o.latencies_us);
        }
        merged.latencies_us.sort_unstable();
        let answered = merged.latencies_us.len();
        #[allow(clippy::cast_precision_loss)]
        let throughput = if wall.as_secs_f64() > 0.0 {
            answered as f64 / wall.as_secs_f64()
        } else {
            0.0
        };
        #[allow(clippy::cast_precision_loss)]
        let hit_rate = if total > 0 {
            (hits_after.saturating_sub(hits_before)) as f64 / total as f64
        } else {
            0.0
        };
        hit_rate_last_pass = hit_rate;
        total_dropped += merged.dropped;
        total_malformed += merged.malformed;
        eprintln!(
            "pass {pass}: {answered}/{total} answered in {:.3}s ({throughput:.1} req/s), \
             ok={} cached={} errors={} overloaded={} timeouts={} hit_rate={:.0}%",
            wall.as_secs_f64(),
            merged.ok,
            merged.cached,
            merged.errors,
            merged.overloaded,
            merged.timeouts,
            hit_rate * 100.0
        );
        pass_reports.push(format!(
            "{{\"pass\":{pass},\"requests\":{total},\"answered\":{answered},\
             \"ok\":{},\"cached\":{},\"errors\":{},\"overloaded\":{},\"timeouts\":{},\
             \"dropped\":{},\"malformed\":{},\"wall_s\":{:.6},\"throughput_rps\":{throughput:.3},\
             \"p50_us\":{},\"p95_us\":{},\"p99_us\":{},\"cache_hit_rate\":{hit_rate:.4}}}",
            merged.ok,
            merged.cached,
            merged.errors,
            merged.overloaded,
            merged.timeouts,
            merged.dropped,
            merged.malformed,
            wall.as_secs_f64(),
            percentile(&merged.latencies_us, 0.50),
            percentile(&merged.latencies_us, 0.95),
            percentile(&merged.latencies_us, 0.99),
        ));
    }

    let burst_report = if args.burst > 0 {
        let (ok, overloaded, other, dropped) =
            run_burst(&addr, &args, args.burst).map_err(|e| format!("burst: {e}"))?;
        eprintln!(
            "burst {}: ok={ok} overloaded={overloaded} other={other} dropped={dropped}",
            args.burst
        );
        format!(
            ",\"burst\":{{\"requests\":{},\"ok\":{ok},\"overloaded\":{overloaded},\
             \"other\":{other},\"dropped\":{dropped}}}",
            args.burst
        )
    } else {
        String::new()
    };

    let sweep_report = if args.sweep.is_empty() {
        String::new()
    } else {
        let points = run_sweep(&addr, &args, &args.sweep)?;
        for p in &points {
            total_dropped += p.outcome.dropped;
            total_malformed += p.outcome.malformed;
        }
        format!(
            ",\"sweep\":[{}]",
            points
                .iter()
                .map(SweepPoint::render)
                .collect::<Vec<_>>()
                .join(",")
        )
    };

    let mut fleet_failed = false;
    let fleet_report = if args.kill_shard {
        let fleet_ref = fleet
            .as_mut()
            .expect("--kill-shard validated to imply --fleet");
        let (json, passed) = run_fleet_chaos(fleet_ref, &args, &addr)?;
        fleet_failed = !passed;
        format!(",\"fleet\":{json}")
    } else {
        String::new()
    };

    let mut membership_failed = false;
    let membership_report = if args.add_shard_at.is_some() || args.drain_shard_at.is_some() {
        let fleet_ref = fleet
            .as_mut()
            .expect("--add-shard-at/--drain-shard-at validated to imply --fleet");
        let (json, passed) = run_membership_chaos(fleet_ref, &args, &addr)?;
        membership_failed = !passed;
        format!(",\"membership\":{json}")
    } else {
        String::new()
    };

    let scaleout_report = if args.scaleout.is_empty() {
        String::new()
    } else {
        let points = run_scaleout(&args, &args.scaleout)?;
        for p in &points {
            total_dropped += p.outcome.dropped;
            total_malformed += p.outcome.malformed;
        }
        format!(
            ",\"scaleout\":[{}]",
            points
                .iter()
                .map(ScalePoint::render)
                .collect::<Vec<_>>()
                .join(",")
        )
    };

    let final_stats = fetch_stats(&addr)?;
    let report = format!(
        "{{\"bench\":\"serve\",\"system\":{},\"schedulers\":[{}],\"clients\":{},\
         \"passes\":[{}],\"final_stats\":{}{burst_report}{sweep_report}{fleet_report}\
         {membership_report}{scaleout_report}}}",
        json::string(&args.system),
        args.schedulers
            .iter()
            .map(|s| json::string(s))
            .collect::<Vec<_>>()
            .join(","),
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

    if fleet_failed {
        eprintln!("bsched-loadgen: FAIL: fleet chaos gates missed (see the \"fleet\" report)");
        return Ok(1);
    }
    if membership_failed {
        eprintln!(
            "bsched-loadgen: FAIL: membership chaos gates missed (see the \"membership\" report)"
        );
        return Ok(1);
    }
    if total_dropped > 0 || total_malformed > 0 {
        eprintln!(
            "bsched-loadgen: FAIL: {total_dropped} dropped, {total_malformed} malformed responses"
        );
        return Ok(1);
    }
    if let Some(expect) = args.expect_hit_rate {
        let measured = hit_rate_last_pass * 100.0;
        if measured + 1e-9 < expect {
            eprintln!(
                "bsched-loadgen: FAIL: final-pass cache hit rate {measured:.1}% < expected {expect:.1}%"
            );
            return Ok(1);
        }
    }
    Ok(0)
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
    bsched_faults::init_from_env();
    match run() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("bsched-loadgen: {e}");
            eprint!("{USAGE}");
            std::process::exit(2);
        }
    }
}
