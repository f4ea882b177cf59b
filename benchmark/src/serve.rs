//! The serve workloads: an open-loop rate ladder against the daemon.
//!
//! `serve-cold` gives every request its own key, so each one compiles,
//! lints, simulates and evicts an older cache entry. `serve-warm` fills
//! the cache with 128 keys during set-up and then requests them with
//! Zipf(1.0) popularity, so requests are cache hits and compile and
//! simulate are bypassed.

use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use bsched_analyze::json::{self, Json};
use bsched_analyze::{render_json, Analyzer};
use bsched_ir::Function;
use bsched_pipeline::{try_evaluate_serial, EvalConfig, Pipeline};
use bsched_serve::protocol::ok_response;
use bsched_serve::{
    evaluate_prepared, evaluate_request, parse_request, prepare_request, KernelSource, LruCache,
    Request, ScheduleRequest,
};
use bsched_verify::ValidationLevel;
use bsched_workload::{parse_program, perfect_club, try_lower_parsed, SourceMap};

use crate::check::{hex, Expected, SERVE_SEED};
use crate::client::{drive, Conn, Daemon, Pacing, Sent};
use crate::ladder::{
    judge, majority_pass, max_passing, Ladder, StepOutcome, Verdict, RUNG_UNITS, SATURATION_UNITS,
};
use crate::mix::{cold_bodies, warm_ranks, warm_set, with_id};
use crate::record::{number, Metric, Outcome};
use crate::replay::{compile_both, reference_evaluate, run_traced, total_ns, Counts, PassResult};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{fnv, setup_due, RunConfig};

/// Share of each step discarded as warm-up.
const WARMUP_SHARE: f64 = 0.2;
/// Responses per cold run compared against an in-process evaluation.
const COLD_SAMPLE: usize = 256;
/// Request lines each traced pass replays.
const TRACE_SAMPLE: usize = 256;
/// Outstanding requests while filling the warm set.
const FILL_WINDOW: usize = 8;

fn schedule(line: &str) -> Result<ScheduleRequest, String> {
    match parse_request(line)? {
        Request::Schedule(r) => Ok(*r),
        other => Err(format!("not a schedule request: {other:?}")),
    }
}

/// The payload fragment of an in-process evaluation, hashed as the
/// generator hashes the daemon's.
fn payload_of(body: &str) -> Result<String, String> {
    let req = schedule(&with_id(0, body))?;
    evaluate_request(&req)
        .map(|e| e.payload)
        .map_err(|(kind, reason)| format!("{kind}: {reason}"))
}

fn eval_mean(payload: &str) -> Option<f64> {
    json::parse(&format!("{{{payload}}}"))?
        .get("eval")?
        .get("mean_runtime")?
        .as_f64()
}

/// A request's function and per-block source maps, resolved from public
/// calls (the daemon's own resolver is private).
fn resolve(
    t: &mut Tracer,
    req: &ScheduleRequest,
) -> Result<(Function, Vec<Option<SourceMap>>), String> {
    match &req.source {
        KernelSource::Benchmark(name) => t.span("workload.resolve", |_| {
            // Built once, as the daemon does.
            static STANDINS: std::sync::OnceLock<Vec<bsched_workload::Benchmark>> =
                std::sync::OnceLock::new();
            let bench = STANDINS
                .get_or_init(perfect_club)
                .iter()
                .find(|b| b.name().eq_ignore_ascii_case(name))
                .ok_or_else(|| format!("unknown stand-in {name}"))?;
            let maps = bench.function().blocks().iter().map(|_| None).collect();
            Ok((bench.function().clone(), maps))
        }),
        KernelSource::Inline(text) => t.span("workload.lower", |_| {
            let kernels = parse_program(text).map_err(|e| e.to_string())?;
            let mut blocks = Vec::new();
            let mut maps = Vec::new();
            for parsed in &kernels {
                let (block, map) = try_lower_parsed(parsed).map_err(|e| e.to_string())?;
                blocks.push(block);
                maps.push(Some(map));
            }
            let name = blocks
                .first()
                .map_or_else(|| "program".to_owned(), |b| b.name().to_owned());
            Ok((Function::new(name, blocks), maps))
        }),
        KernelSource::Path(_) => Err("kernel paths are not part of the mix".to_owned()),
    }
}

/// Checks one request in-process: its payload from `evaluate_request`,
/// and its program recompiled at [`ValidationLevel::Full`] and
/// re-evaluated serially with the timeline verifier, which must give the
/// payload's runtime. Returns the payload.
fn verify_request(body: &str) -> Result<String, String> {
    let payload = payload_of(body)?;
    let req = schedule(&with_id(0, body))?;
    let (function, _) = resolve(&mut Tracer::new(false), &req)?;
    let full = Pipeline {
        alias: req.alias,
        validation: ValidationLevel::Full,
        ..Pipeline::default()
    };
    let program = full
        .compile(&function, &req.scheduler)
        .map_err(|e| e.to_string())?;
    let cfg = EvalConfig {
        runs: req.runs,
        processor: req.processor,
        seed: req.seed,
        validation: ValidationLevel::Full,
        ..EvalConfig::default()
    };
    let eval = try_evaluate_serial(&program, &req.system, &cfg).map_err(|e| e.to_string())?;
    match eval_mean(&payload) {
        Some(m) if m.to_bits() == eval.mean_runtime.to_bits() => Ok(payload),
        other => Err(format!(
            "validated evaluation gives {} but the payload says {other:?}",
            eval.mean_runtime
        )),
    }
}

/// Which serve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Unique keys: every request misses.
    Cold,
    /// 128 keys filled during set-up: every request hits.
    Warm,
}

impl Kind {
    /// Request lines per second the saturation phase prepares: well above
    /// any completion rate the daemon reaches on this workload.
    fn saturation_ceiling(self) -> f64 {
        match self {
            Kind::Cold => 5_000.0,
            Kind::Warm => 60_000.0,
        }
    }

    fn ladder(self, smoke: bool) -> Ladder {
        let l = match self {
            Kind::Cold => Ladder::cold(),
            Kind::Warm => Ladder::warm(),
        };
        if smoke {
            l.smoke()
        } else {
            l
        }
    }
}

/// The request bodies of one step, and the global id of its first.
fn step_bodies(kind: Kind, seed: u64, warm: &[String], first: usize, count: usize) -> Vec<String> {
    match kind {
        Kind::Cold => cold_bodies(seed, first, count),
        Kind::Warm => warm_ranks(seed, first, count)
            .into_iter()
            .map(|k| warm[k].clone())
            .collect(),
    }
}

/// Fills the daemon's cache with the warm set, a few requests in flight
/// at a time; returns each key's payload hash.
fn fill(addr: SocketAddr, warm: &[String]) -> Result<Vec<u64>, String> {
    let mut conn = Conn::open(addr)?;
    let mut hashes = vec![None; warm.len()];
    let mut next = 0;
    let mut pending = 0;
    while next < warm.len() || pending > 0 {
        while next < warm.len() && pending < FILL_WINDOW {
            conn.send(&with_id(next, &warm[next]))?;
            next += 1;
            pending += 1;
        }
        let line = conn.recv()?;
        let reply = crate::client::parse_reply(&line, |_| false)
            .filter(|r| r.ok)
            .ok_or_else(|| format!("fill request failed: {line:.160}"))?;
        hashes[reply.id] = Some(reply.payload_hash);
        pending -= 1;
    }
    hashes
        .into_iter()
        .map(|h| h.ok_or_else(|| "fill reply missing".to_owned()))
        .collect()
}

/// One set-up: spawn, wait for a `ping` answer, and (warm) fill.
fn set_up(bin: &Path, kind: Kind, warm: &[String]) -> Result<(Daemon, Vec<u64>), String> {
    let daemon = Daemon::spawn(bin)?;
    let pong = Conn::open(daemon.addr())?.call("{\"op\":\"ping\"}")?;
    if !pong.contains("\"pong\":true") {
        return Err(format!("bad ping reply {pong}"));
    }
    let hashes = match kind {
        Kind::Cold => Vec::new(),
        Kind::Warm => fill(daemon.addr(), warm)?,
    };
    Ok((daemon, hashes))
}

/// Runs the set-ups due `elapsed` into the measured `window`
/// ([`setup_due`]), each on a daemon of its own that is shut down again,
/// and records their times; a warm fill must give `fill_hashes`, the
/// first set-up's.
fn more_setups(
    bin: &Path,
    kind: Kind,
    warm: &[String],
    fill_hashes: &[u64],
    setups: &mut Vec<f64>,
    elapsed: Duration,
    window: Duration,
) -> Result<(), String> {
    while setup_due(setups.len(), elapsed, window) {
        let t0 = Instant::now();
        let (daemon, hashes) = set_up(bin, kind, warm)?;
        setups.push(t0.elapsed().as_secs_f64());
        daemon.shutdown()?;
        if hashes != fill_hashes {
            return Err("a warm fill differs from the first set-up's".to_owned());
        }
    }
    Ok(())
}

fn stats_of(addr: SocketAddr) -> Result<Json, String> {
    let line = Conn::open(addr)?.call("{\"op\":\"stats\"}")?;
    json::parse(&line)
        .and_then(|v| v.get("stats").cloned())
        .ok_or_else(|| format!("bad stats reply {line:.120}"))
}

fn stat(v: &Json, key: &str) -> f64 {
    v.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// One judged ladder step with the live per-layer numbers.
struct Step {
    /// `light`, `heavy`, `probe`, or `confirm` (a failed probe's re-run).
    role: &'static str,
    outcome: StepOutcome,
    verdict: Verdict,
    sent: Vec<Sent>,
    first_id: usize,
    stats_delta: Vec<(&'static str, f64)>,
    /// An invalid step that was run again; the re-run is judged instead.
    superseded: bool,
}

/// Requests in flight in the saturation phase: a quarter of the daemon's
/// default admission bound, enough to keep its workers busy without
/// being refused.
const SATURATION_IN_FLIGHT: usize = 16;

fn step_json(step: &Step) -> String {
    let o = &step.outcome;
    let measured: Vec<&Sent> = step
        .sent
        .iter()
        .filter(|s| s.reply.as_ref().is_some_and(|r| r.ok))
        .collect();
    let service: Vec<f64> = measured
        .iter()
        .map(|s| s.reply.as_ref().map_or(0.0, |r| r.service_us as f64))
        .collect();
    let transport: Vec<f64> = measured
        .iter()
        .map(|s| {
            let r = s.reply.as_ref().expect("measured replies exist");
            let total_us = s.recv_ns.unwrap_or(0).saturating_sub(s.due_ns) as f64 / 1e3;
            total_us - r.service_us as f64
        })
        .collect();
    let hits = stat_of(step, "cache_hits");
    let misses = stat_of(step, "cache_misses");
    let pct = |xs: &[f64], p: f64| {
        percentile(xs, p)
            .value
            .map_or_else(|| "\"insufficient\"".to_owned(), number)
    };
    let deltas: Vec<String> = step
        .stats_delta
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", number(*v)))
        .collect();
    format!(
        "{{\"role\":\"{}\",\"superseded\":{},\"rate\":{},\"verdict\":\"{}\",\"reason\":{},\"n\":{},\"failed\":{},\
         \"p50_ms\":{},\"p90_ms\":{},\"p99_ms\":{},\"max_ms\":{},\"lag_p90_ms\":{},\
         \"service_p50_us\":{},\"transport_p50_us\":{},\"hit_ratio\":{},\"stats_delta\":{{{}}}}}",
        step.role,
        step.superseded,
        number(o.rate),
        step.verdict.word(),
        json::string(match &step.verdict {
            Verdict::Pass => "",
            Verdict::Fail(r) | Verdict::Invalid(r) => r,
        }),
        o.latency_ms.len(),
        o.failed,
        pct(&o.latency_ms, 50.0),
        pct(&o.latency_ms, 90.0),
        pct(&o.latency_ms, 99.0),
        crate::stats::max(&o.latency_ms).map_or_else(|| "null".to_owned(), number),
        pct(&o.lag_ms, 90.0),
        pct(&service, 50.0),
        pct(&transport, 50.0),
        number(if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 }),
        deltas.join(",")
    )
}

fn stat_of(step: &Step, key: &str) -> f64 {
    step.stats_delta
        .iter()
        .find(|(k, _)| *k == key)
        .map_or(0.0, |(_, v)| *v)
}

/// Runs the ladder's steps against one daemon, numbering requests across
/// the whole run so every cold request has its own key.
struct Runner<'a> {
    addr: SocketAddr,
    kind: Kind,
    seed: u64,
    warm: &'a [String],
    slo: crate::ladder::Slo,
    keep: &'a dyn Fn(usize) -> bool,
    next_id: usize,
    steps: Vec<Step>,
}

impl Runner<'_> {
    /// Runs one open-loop step for `len`, and once more if the generator
    /// ran late; returns the verdict that counts.
    fn step(&mut self, rate: f64, role: &'static str, len: Duration) -> Result<Verdict, String> {
        let mut attempt = 0;
        loop {
            let mut step = self.run(Pacing::Open { rate }, len)?;
            step.role = role;
            let verdict = step.verdict.clone();
            let again = matches!(verdict, Verdict::Invalid(_)) && attempt == 0;
            step.superseded = again;
            self.steps.push(step);
            if !again {
                return Ok(verdict);
            }
            attempt += 1;
        }
    }

    /// One closed-loop saturation step; returns its completion rate.
    fn saturate(&mut self, duration: Duration) -> Result<f64, String> {
        let pacing = Pacing::Closed {
            in_flight: SATURATION_IN_FLIGHT,
            duration,
        };
        let mut step = self.run(pacing, duration)?;
        step.role = "saturation";
        let rate = step.outcome.rate;
        self.steps.push(step);
        Ok(rate)
    }

    /// Runs one step for `len`, discarding its warm-up. An open-loop
    /// step's rate is the offered rate; a closed-loop step's is the
    /// completion rate it measured.
    fn run(&mut self, pacing: Pacing, len: Duration) -> Result<Step, String> {
        let first_id = self.next_id;
        let per_second = match pacing {
            Pacing::Open { rate } => rate,
            Pacing::Closed { .. } => self.kind.saturation_ceiling(),
        };
        let count = (per_second * len.as_secs_f64()).round().max(1.0) as usize;
        let lines: Vec<String> = step_bodies(self.kind, self.seed, self.warm, first_id, count)
            .iter()
            .enumerate()
            .map(|(i, b)| with_id(first_id + i, b) + "\n")
            .collect();
        let before = stats_of(self.addr)?;
        let sent = drive(
            self.addr,
            &lines,
            first_id,
            pacing,
            Duration::from_secs(2),
            self.keep,
        )?;
        let after = stats_of(self.addr)?;
        let warmup_ns = (len.as_secs_f64() * WARMUP_SHARE * 1e9) as u64;
        let end_ns = (len.as_secs_f64() * 1e9) as u64;
        let mut outcome = StepOutcome::default();
        for s in sent.iter().filter(|s| s.sent && s.due_ns >= warmup_ns) {
            outcome.sent += 1;
            outcome.lag_ms.push(s.lag_ns as f64 / 1e6);
            match (&s.reply, s.recv_ns) {
                (Some(r), Some(at)) if r.ok => {
                    outcome.latency_ms.push((at - s.due_ns) as f64 / 1e6)
                }
                _ => outcome.failed += 1,
            }
        }
        outcome.rate = match pacing {
            Pacing::Open { rate } => rate,
            Pacing::Closed { .. } => {
                if sent.iter().all(|s| s.sent) {
                    return Err("the saturation phase ran out of request lines".to_owned());
                }
                let done = sent
                    .iter()
                    .filter(|s| s.reply.as_ref().is_some_and(|r| r.ok))
                    .filter(|s| s.recv_ns.is_some_and(|t| t >= warmup_ns && t <= end_ns))
                    .count();
                done as f64 / ((end_ns - warmup_ns) as f64 / 1e9)
            }
        };
        let verdict = judge(&outcome, &self.slo);
        let stats_delta = [
            "cache_hits",
            "cache_misses",
            "overloaded",
            "steals",
            "parks",
        ]
        .into_iter()
        .map(|k| (k, stat(&after, k) - stat(&before, k)))
        .collect();
        self.next_id += sent.len();
        Ok(Step {
            role: "",
            outcome,
            verdict,
            sent,
            first_id,
            stats_delta,
            superseded: false,
        })
    }
}

/// A fixed rate's latency percentile: the median over its repeats of
/// each repeat's percentile, withheld if any repeat could not support it.
fn median_of_repeats(name: &str, p: f64, steps: &[&Step]) -> Metric {
    let per: Vec<crate::stats::Percentile> = steps
        .iter()
        .map(|s| percentile(&s.outcome.latency_ms, p))
        .collect();
    let values: Option<Vec<f64>> = per.iter().map(|q| q.value).collect();
    Metric {
        name: name.to_owned(),
        unit: "ms".to_owned(),
        value: values.and_then(|v| median(&v)),
        samples: per.iter().map(|q| q.n).min(),
    }
}

/// The cold workload keeps every `stride`-th reply's payload for the
/// in-process comparison.
fn cold_stride(total_estimate: usize) -> usize {
    (total_estimate / COLD_SAMPLE).max(1)
}

/// A serve workload run.
pub fn run_serve(cfg: &RunConfig, kind: Kind, bin: &Path, expected: &Expected) -> Outcome {
    let mut out = Outcome::default();
    match serve_inner(cfg, kind, bin, expected, &mut out) {
        Ok(()) => {}
        Err(e) => {
            out.attempted = out.attempted.max(1);
            out.mismatch(e);
        }
    }
    out
}

fn serve_inner(
    cfg: &RunConfig,
    kind: Kind,
    bin: &Path,
    expected: &Expected,
    out: &mut Outcome,
) -> Result<(), String> {
    let warm = warm_set(cfg.seed);
    let t0 = Instant::now();
    let (daemon, fill_hashes) = set_up(bin, kind, &warm)?;
    let mut setups = vec![t0.elapsed().as_secs_f64()];
    // The later set-ups run between steps, while the measured daemon
    // idles.
    let started = Instant::now();
    let more = |setups: &mut Vec<f64>, elapsed: Duration| {
        more_setups(bin, kind, &warm, &fill_hashes, setups, elapsed, cfg.window)
    };
    let ladder = kind.ladder(cfg.smoke);
    let unit = cfg.window.div_f64(ladder.budget_units());
    let saturation_len = unit.mul_f64(SATURATION_UNITS);
    let rung_len = unit.mul_f64(RUNG_UNITS);
    let total_estimate = (ladder.repeats as f64
        * (ladder.light + SATURATION_UNITS * kind.saturation_ceiling())
        + RUNG_UNITS * (ladder.heavy + ladder.probes.iter().sum::<f64>()))
        * unit.as_secs_f64();
    let stride = cold_stride(total_estimate as usize);
    let keep = move |id: usize| kind == Kind::Cold && id.is_multiple_of(stride);
    let mut runner = Runner {
        addr: daemon.addr(),
        kind,
        seed: cfg.seed,
        warm: &warm,
        slo: ladder.slo,
        keep: &keep,
        next_id: 0,
        steps: Vec::new(),
    };
    let mut saturation = Vec::new();
    for _ in 0..ladder.repeats {
        runner.step(ladder.light, "light", unit)?;
        saturation.push(runner.saturate(saturation_len)?);
        more(&mut setups, started.elapsed())?;
    }
    let rungs = std::iter::once((ladder.heavy, "heavy"))
        .chain(ladder.probes.iter().map(|&rate| (rate, "probe")));
    for (rate, role) in rungs {
        if runner.step(rate, role, rung_len)? != Verdict::Pass
            && runner.step(rate, "confirm", rung_len)? != Verdict::Pass
        {
            break;
        }
        more(&mut setups, started.elapsed())?;
    }
    more(&mut setups, cfg.window)?;
    let steps = runner.steps;
    let peak = crate::offline::peak_rss_mib(daemon.pid());
    daemon.shutdown()?;

    // Every request sent counts as attempted. An error reply, a lost
    // request or a wrong payload is a failure; an `overloaded` refusal is
    // admission control working, and counts only against its step's SLO.
    let (mut refused, mut errored) = (0u64, 0u64);
    for step in &steps {
        out.attempted += step.sent.iter().filter(|s| s.sent).count() as u64;
        for s in step.sent.iter().filter(|s| s.sent) {
            match &s.reply {
                Some(r) if r.ok => {}
                Some(r) if r.refused => refused += 1,
                _ => errored += 1,
            }
        }
    }
    if errored > 0 {
        out.fail(
            errored,
            format!("{errored} requests errored or went unanswered"),
        );
    }
    out.detail("refused", refused.to_string());

    let judged = |role: &str| -> Vec<&Step> {
        steps
            .iter()
            .filter(|s| s.role == role && !s.superseded)
            .collect()
    };
    let mut passed: Vec<(f64, Verdict)> = steps
        .iter()
        .filter(|s| matches!(s.role, "heavy" | "probe" | "confirm"))
        .map(|s| (s.outcome.rate, s.verdict.clone()))
        .collect();
    let light: Vec<Verdict> = judged("light").iter().map(|s| s.verdict.clone()).collect();
    if majority_pass(&light) {
        passed.push((ladder.light, Verdict::Pass));
    }
    out.metrics.push(Metric::value(
        "setup_s",
        "s",
        median(&setups).unwrap_or(f64::NAN),
    ));
    out.metrics.push(Metric::value(
        "throughput_per_s",
        "1/s",
        median(&saturation).unwrap_or(f64::NAN),
    ));
    out.detail(
        "max_rps_slo",
        max_passing(&passed).map_or_else(|| "null".to_owned(), number),
    );
    out.metrics
        .push(median_of_repeats("latency_ms", 50.0, &judged("light")));
    // The tail and the heavy rate go to the record only: with generator
    // and daemon sharing two vCPUs of a shared host, their run-to-run
    // spread exceeded any bound the benchmark may set.
    let record_only: Vec<String> = [
        ("p90_ms.light", 90.0, "light"),
        ("p50_ms.heavy", 50.0, "heavy"),
        ("p90_ms.heavy", 90.0, "heavy"),
    ]
    .iter()
    .map(|&(name, p, role)| {
        let m = median_of_repeats(name, p, &judged(role));
        format!(
            "\"{name}\":{}",
            m.value
                .map_or_else(|| "\"insufficient\"".to_owned(), number)
        )
    })
    .collect();
    out.detail("latency", format!("{{{}}}", record_only.join(",")));
    out.metrics.push(Metric::value(
        "peak_rss_mb",
        "MiB",
        peak.unwrap_or(f64::NAN),
    ));
    out.detail(
        "ladder",
        format!(
            "[{}]",
            steps.iter().map(step_json).collect::<Vec<_>>().join(",")
        ),
    );

    check_serve(cfg, kind, &warm, &fill_hashes, &steps, expected, out);
    Ok(())
}

/// Output checks after the timed windows.
fn check_serve(
    cfg: &RunConfig,
    kind: Kind,
    warm: &[String],
    fill_hashes: &[u64],
    steps: &[Step],
    expected: &Expected,
    out: &mut Outcome,
) {
    match kind {
        Kind::Warm => {
            // Every key, checked in-process with validation on; every
            // reply (fill and live) must carry that key's payload.
            let mut want = Vec::with_capacity(warm.len());
            for (k, body) in warm.iter().enumerate() {
                match verify_request(body) {
                    Ok(p) => want.push(Some(fnv(0, p.as_bytes()))),
                    Err(e) => {
                        out.mismatch(format!("warm key {k}: {e}"));
                        want.push(None);
                    }
                }
            }
            for (k, h) in fill_hashes.iter().enumerate() {
                if want[k] != Some(*h) {
                    out.mismatch(format!(
                        "warm key {k}: fill reply differs from the in-process payload"
                    ));
                }
            }
            let mut wrong = 0u64;
            for step in steps {
                let ranks = warm_ranks(cfg.seed, step.first_id, step.sent.len());
                for (s, k) in step.sent.iter().zip(ranks) {
                    if let Some(r) = s.reply.as_ref().filter(|r| r.ok) {
                        wrong += u64::from(want[k] != Some(r.payload_hash) || !r.cached);
                    }
                }
            }
            if wrong > 0 {
                out.fail(
                    wrong,
                    format!("{wrong} warm replies carried a wrong payload or missed the cache"),
                );
            }
            let pinned_set = if cfg.seed == SERVE_SEED {
                warm.to_vec()
            } else {
                warm_set(SERVE_SEED)
            };
            let mut lines = Vec::new();
            for (k, body) in pinned_set.iter().enumerate() {
                match payload_of(body) {
                    Ok(p) => lines.push((k.to_string(), hex(fnv(0, p.as_bytes())))),
                    Err(e) => out.mismatch(format!("pinned warm key {k}: {e}")),
                }
            }
            expected.verify("serve-warm", &lines, out);
        }
        Kind::Cold => {
            // Sampled replies against in-process evaluation with
            // validation on; every distinct program compiled at Full.
            let mut checked = 0;
            for step in steps {
                let bodies = cold_bodies(cfg.seed, step.first_id, step.sent.len());
                for (s, body) in step.sent.iter().zip(&bodies) {
                    let Some(reply) = s.reply.as_ref().filter(|r| r.ok) else {
                        continue;
                    };
                    let Some(payload) = &reply.payload else {
                        continue;
                    };
                    checked += 1;
                    match verify_request(body) {
                        Ok(want) if want == *payload => {}
                        Ok(_) => {
                            out.mismatch(format!(
                                "request {}: payload differs from in-process",
                                reply.id
                            ));
                        }
                        Err(e) => out.mismatch(format!("request {}: {e}", reply.id)),
                    }
                }
            }
            if checked == 0 {
                out.mismatch("no cold reply was sampled for checking");
            }
            out.detail("checked_replies", checked.to_string());
            check_programs(steps, cfg.seed, out);
        }
    }
}

/// Compiles every distinct (kernel, scheduler) program the cold run sent
/// at [`ValidationLevel::Full`].
fn check_programs(steps: &[Step], seed: u64, out: &mut Outcome) {
    let mut seen = BTreeSet::new();
    for step in steps {
        for body in cold_bodies(seed, step.first_id, step.sent.len()) {
            let Ok(req) = schedule(&with_id(0, &body)) else {
                out.mismatch(format!("unparseable request {body:.80}"));
                continue;
            };
            let source = match &req.source {
                KernelSource::Benchmark(n) => n.clone(),
                KernelSource::Inline(t) | KernelSource::Path(t) => t.clone(),
            };
            if !seen.insert(format!("{source}\u{0}{}", req.scheduler.canonical())) {
                continue;
            }
            let full = Pipeline {
                alias: req.alias,
                validation: ValidationLevel::Full,
                ..Pipeline::default()
            };
            let compiled = resolve(&mut Tracer::new(false), &req)
                .and_then(|(f, _)| full.compile(&f, &req.scheduler).map_err(|e| e.to_string()));
            if let Err(e) = compiled {
                out.mismatch(format!("{}: {e}", req.scheduler.name()));
            }
        }
    }
    out.detail("distinct_programs", seen.len().to_string());
}

/// One traced pass over a fixed request sample, through the serve path
/// rebuilt from public calls: parse, prepare, cache, evaluate, render;
/// each miss is decomposed again into lower/resolve, compile, lints and
/// simulate + bootstrap.
fn serve_pass(fill: &[String], sample: &[String], t: &mut Tracer, c: &mut Counts) -> PassResult {
    let mut result = PassResult::default();
    let mut cache = LruCache::new(256);
    let mut misses = 0u64;
    let mut requests = 0u64;
    for (op, line) in fill.iter().chain(sample).enumerate() {
        t.set_op(op as u64);
        c.ops += 1;
        requests += 1;
        let served = t.span(
            "serve.request",
            |t| -> Result<Option<(ScheduleRequest, String)>, String> {
                let req = t.span("serve.parse", |_| schedule(line))?;
                let prepared = t
                    .span("serve.prepare", |_| prepare_request(&req))
                    .map_err(|(k, r)| format!("{k}: {r}"))?;
                let key = prepared.key();
                if let Some(payload) = t.span("serve.cache", |_| cache.get(key)) {
                    t.span("serve.render", |_| ok_response(None, true, &payload, 0));
                    return Ok(None);
                }
                let done = t
                    .span("serve.evaluate", |_| evaluate_prepared(&req, prepared))
                    .map_err(|(k, r)| format!("{k}: {r}"))?;
                let payload: std::sync::Arc<str> = std::sync::Arc::from(done.payload.as_str());
                t.span("serve.cache", |_| cache.put(done.key, payload));
                t.span("serve.render", |_| {
                    ok_response(None, false, &done.payload, 0)
                });
                Ok(Some((req, done.payload)))
            },
        );
        let (req, payload) = match served {
            Ok(Some(miss)) => miss,
            Ok(None) => continue,
            Err(e) => {
                result.mismatches.push(e);
                continue;
            }
        };
        misses += 1;
        let replayed = t.span("serve.reference", |t| -> Result<f64, String> {
            let (function, maps) = resolve(t, &req)?;
            let pipeline = Pipeline {
                alias: req.alias,
                ..Pipeline::default()
            };
            let (program, _) = compile_both(t, c, &pipeline, &function, &req.scheduler)?;
            if req.analyze {
                t.span("analyze.lints", |_| {
                    let analyzer = Analyzer::new(req.alias);
                    let mut all = Vec::new();
                    for (block, map) in function.blocks().iter().zip(&maps) {
                        all.extend(analyzer.analyze_block(block, map.as_ref()));
                    }
                    render_json(&all).replace('\n', " ")
                });
            }
            let cfg = EvalConfig {
                runs: req.runs,
                processor: req.processor,
                seed: req.seed,
                ..EvalConfig::default()
            };
            Ok(reference_evaluate(t, c, &program, &req.system, &cfg)?.mean_runtime)
        });
        match (replayed, eval_mean(&payload)) {
            (Ok(mean), Some(want)) if mean.to_bits() == want.to_bits() => {}
            (Ok(mean), want) => result.mismatches.push(format!(
                "replayed runtime {mean} differs from the payload's {want:?}"
            )),
            (Err(e), _) => result.mismatches.push(e),
        }
    }
    let ns = |name: &str| total_ns(t, name) as f64;
    result.harness_self_ns = ns("serve.request") as i64 - ns("serve.evaluate") as i64;
    let per = |v: f64, n: u64| if n == 0 { 0.0 } else { v / n as f64 / 1e3 };
    // Rendering is what `evaluate_prepared` spends beyond compile, lints
    // and evaluation, plus the response envelope.
    let render_ns = ns("serve.evaluate")
        - ns("pipeline.compile")
        - ns("analyze.lints")
        - ns("pipeline.evaluate")
        + ns("serve.render");
    result.extra = vec![
        (
            "serve.parse_us".to_owned(),
            per(ns("serve.parse"), requests),
        ),
        (
            "serve.prepare_us".to_owned(),
            per(ns("serve.prepare"), requests),
        ),
        (
            "serve.cache_us".to_owned(),
            per(ns("serve.cache"), requests),
        ),
        (
            "serve.evaluate_us".to_owned(),
            per(ns("serve.evaluate"), misses),
        ),
        ("serve.render_us".to_owned(), per(render_ns, requests)),
        ("analyze.lints_ms".to_owned(), ns("analyze.lints") / 1e6),
        (
            "workload.lower_us".to_owned(),
            per(ns("workload.lower"), misses),
        ),
        ("serve.misses".to_owned(), misses as f64),
    ];
    result
}

/// The traced serve run: the warm fill (warm only) and the workload's
/// first 256 request lines, replayed in-process.
pub fn trace_serve(cfg: &RunConfig, kind: Kind) -> Outcome {
    crate::offline::set_threads(Some(1));
    let warm = warm_set(cfg.seed);
    let fill: Vec<String> = match kind {
        Kind::Cold => Vec::new(),
        Kind::Warm => warm
            .iter()
            .enumerate()
            .map(|(k, b)| with_id(k, b))
            .collect(),
    };
    let sample: Vec<String> = step_bodies(kind, cfg.seed, &warm, 0, TRACE_SAMPLE)
        .iter()
        .enumerate()
        .map(|(i, b)| with_id(i, b))
        .collect();
    let out = run_traced(cfg.window, &crate::offline::spans_path(cfg), |t, c| {
        serve_pass(&fill, &sample, t, c)
    });
    crate::offline::set_threads(None);
    out
}
