//! Scheduling-as-a-service: the paper's pipeline behind a socket.
//!
//! The pipeline (kernel → DAG → balanced/traditional schedule →
//! simulated cycles) is a pure, deterministic function of its inputs,
//! which makes it an ideal serving workload: responses are cacheable by
//! content, work is embarrassingly parallel across requests, and
//! correctness does not depend on which worker runs what. This crate
//! provides the daemon behind `bsched serve --listen …`:
//!
//! * [`protocol`] — the line-delimited JSON request/response format;
//! * [`cache`] — a content-addressed LRU response cache keyed by a
//!   stable 128-bit hash of (kernel source, configuration);
//! * [`server`] — the TCP listener, bounded submission queue, persistent
//!   [`bsched_par::WorkerPool`] workers, per-request deadlines via
//!   [`bsched_par::run_with_timeout`], and drain-on-SIGTERM lifecycle;
//! * [`stats`] — counters and p50/p95/p99 service times for `/stats`;
//! * [`persist`] — the append-only, CRC-guarded cache log behind
//!   `--cache-log`: a restarted daemon warm-starts its cache instead of
//!   recomputing it;
//! * [`router`] + [`health`] — `--route` mode: rendezvous-hash the
//!   cache key over N shard daemons, health-check them, and fail over
//!   with typed `degraded:true` responses when one dies;
//! * [`client`] — the one line-protocol client every outside caller
//!   (loadgen, `bsched serve --control`, the tests) talks through.
//!
//! Backpressure is explicit: when the submission queue is full the
//! server answers `{"status":"overloaded", …}` immediately instead of
//! queueing unboundedly — shedding load is a response, not a hang. Two
//! fault-injection sites extend the chaos harness to the serving path:
//! `serve-reject` (admission rejects as if full) and `slow-worker`
//! (workers sleep before evaluating; keyed by request id).
//!
//! The request evaluation itself — resolve the kernel, compile, analyze,
//! simulate — lives here in [`evaluate_request`] so the server, tests,
//! and any future transport share one implementation.

#![warn(missing_docs)]

#[cfg(not(target_os = "linux"))]
compile_error!(
    "bsched-serve needs Linux: its IO backend is raw epoll and its drain uses POSIX signals"
);

pub mod cache;
pub mod client;
pub(crate) mod eventloop;
pub mod health;
pub mod persist;
pub mod protocol;
pub mod router;
pub mod server;
pub mod stats;

pub use cache::{stable_key, LruCache};
pub use client::{blank_service_us, Client};
pub use health::{HealthConfig, MemberState, ShardState};
pub use persist::CacheLog;
pub use protocol::{
    is_chunk_line, is_stream_end, parse_request, read_line_bounded, reassemble_stream,
    split_stream, KernelSource, Request, ScheduleRequest, STREAM_END_MARKER,
};
pub use router::{Router, RouterConfig};
pub use server::{install_signal_handlers, Server, ServerConfig};
pub use stats::ServerStats;

use std::borrow::Cow;

use bsched_analyze::json;
use bsched_analyze::{render_json, Analyzer, FailureKind};
use bsched_ir::Function;
use bsched_memsim::LatencyModel;
use bsched_pipeline::{evaluate, EvalConfig, Pipeline, ProgramEval};
use bsched_workload::{parse_program, perfect_club, try_lower_parsed, SourceMap};

/// A typed request failure: the shared failure-vocabulary kind plus a
/// human-readable reason.
pub type RequestError = (FailureKind, String);

/// The resolved kernel: the text (or stand-in name) that identifies it
/// for caching, plus the lowered function and per-block source maps.
struct ResolvedKernel {
    /// Cache-identity text: inline/file *content*, or `benchmark:NAME`.
    identity: String,
    /// Borrowed for a stand-in, so a cache hit never copies it.
    function: Cow<'static, Function>,
    /// Parallel to `function.blocks()`; `None` for stand-ins.
    maps: Vec<Option<SourceMap>>,
}

/// The stand-in set, constructed once: synthesizing all eight functions
/// costs ~200µs, far too much to repeat on every `benchmark:` request's
/// hot path.
fn standins() -> &'static [bsched_workload::Benchmark] {
    static STANDINS: std::sync::OnceLock<Vec<bsched_workload::Benchmark>> =
        std::sync::OnceLock::new();
    STANDINS.get_or_init(perfect_club)
}

fn resolve_source(source: &KernelSource) -> Result<ResolvedKernel, RequestError> {
    let text = match source {
        KernelSource::Benchmark(name) => {
            let bench = standins()
                .iter()
                .find(|b| b.name().eq_ignore_ascii_case(name))
                .ok_or_else(|| {
                    (
                        FailureKind::Parse,
                        format!(
                            "unknown benchmark {name:?} (one of {})",
                            standins()
                                .iter()
                                .map(bsched_workload::Benchmark::name)
                                .collect::<Vec<_>>()
                                .join(", ")
                        ),
                    )
                })?;
            let maps = bench.function().blocks().iter().map(|_| None).collect();
            return Ok(ResolvedKernel {
                identity: format!("benchmark:{}", bench.name()),
                function: Cow::Borrowed(bench.function()),
                maps,
            });
        }
        KernelSource::Inline(text) => text.clone(),
        KernelSource::Path(path) => std::fs::read_to_string(path)
            .map_err(|e| (FailureKind::Parse, format!("{path}: {e}")))?,
    };
    let kernels = parse_program(&text).map_err(|e| (FailureKind::Parse, e.to_string()))?;
    let mut blocks = Vec::new();
    let mut maps = Vec::new();
    for parsed in &kernels {
        let (block, map) =
            try_lower_parsed(parsed).map_err(|e| (FailureKind::Lower, e.to_string()))?;
        blocks.push(block);
        maps.push(Some(map));
    }
    let name = blocks
        .first()
        .map_or_else(|| "program".to_owned(), |b| b.name().to_owned());
    Ok(ResolvedKernel {
        identity: text,
        function: Cow::Owned(Function::new(name, blocks)),
        maps,
    })
}

/// Computes the content-addressed cache key for a request whose kernel
/// has already been resolved to `identity` text. Field order is fixed;
/// see [`cache::stable_key`] for the stability guarantees.
#[must_use]
pub fn request_key(req: &ScheduleRequest, identity: &str) -> u128 {
    let alias = format!("{:?}", req.alias);
    // The key hashes the *canonical* scheduler rendering, not the raw
    // request spelling: every `SchedulerChoice` variant — including the
    // full parameter vector of a tuned `PolicySpec` — feeds the hash, so
    // two distinct policies can never collide and two spellings of the
    // same policy (`traditional=2` / `traditional=2/1`) always do.
    let scheduler = req.scheduler.canonical();
    let system = req.system.name();
    let optimistic = req.optimistic.map_or_else(String::new, |r| r.to_string());
    let processor = req.processor.to_string();
    let runs = req.runs.to_string();
    let seed = req.seed.to_string();
    let analyze = req.analyze.to_string();
    let tune = req.tune.to_string();
    stable_key(&[
        ("source", identity),
        ("alias", &alias),
        ("scheduler", &scheduler),
        ("system", &system),
        ("optimistic", &optimistic),
        ("processor", &processor),
        ("runs", &runs),
        ("seed", &seed),
        ("analyze", &analyze),
        ("tune", &tune),
    ])
}

fn f64_json(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn eval_json(e: &ProgramEval) -> String {
    format!(
        "{{\"mean_runtime\":{},\"mean_interlocks\":{},\"dynamic_instructions\":{}}}",
        f64_json(e.mean_runtime),
        f64_json(e.mean_interlocks),
        f64_json(e.dynamic_instructions)
    )
}

/// The outcome of one schedule request, minus transport concerns.
#[derive(Debug)]
pub struct Evaluated {
    /// Content-addressed cache key of the request.
    pub key: u128,
    /// Rendered response payload fragment (`"schedule":…,"eval":…`).
    pub payload: String,
}

/// A request whose kernel has been resolved and whose cache key is
/// known, but which has not been compiled or simulated yet. The server
/// checks the cache between [`prepare_request`] and
/// [`evaluate_prepared`]; a hit skips all the expensive work.
pub struct Prepared {
    key: u128,
    resolved: ResolvedKernel,
}

impl Prepared {
    /// The content-addressed cache key for this request.
    #[must_use]
    pub fn key(&self) -> u128 {
        self.key
    }
}

/// Resolves a request's kernel source and computes its cache key — the
/// cheap front half of the service path (no compilation, no
/// simulation).
///
/// # Errors
///
/// A typed [`RequestError`] when the kernel cannot be read, parsed, or
/// lowered, or names an unknown benchmark.
pub fn prepare_request(req: &ScheduleRequest) -> Result<Prepared, RequestError> {
    let resolved = resolve_source(&req.source)?;
    let key = request_key(req, &resolved.identity);
    Ok(Prepared { key, resolved })
}

/// Resolves, compiles, analyzes, and simulates one schedule request.
///
/// This is the full service path minus transport and caching: the
/// server calls [`prepare_request`] + [`evaluate_prepared`] around its
/// cache; tests call this directly.
///
/// # Errors
///
/// A typed [`RequestError`] for every failure mode the pipeline can
/// report (parse, lower, allocation, validation, budget...).
pub fn evaluate_request(req: &ScheduleRequest) -> Result<Evaluated, RequestError> {
    evaluate_prepared(req, prepare_request(req)?)
}

/// The expensive back half of the service path: compile, analyze, and
/// simulate an already-prepared request.
///
/// # Errors
///
/// A typed [`RequestError`] from the pipeline (allocation, validation,
/// budget...).
pub fn evaluate_prepared(
    req: &ScheduleRequest,
    prepared: Prepared,
) -> Result<Evaluated, RequestError> {
    let Prepared { key, resolved } = prepared;
    let pipeline = Pipeline {
        alias: req.alias,
        ..Pipeline::default()
    };
    let compiled = pipeline
        .compile(&resolved.function, &req.scheduler)
        .map_err(|e| (e.failure_kind(), e.to_string()))?;

    let diagnostics = if req.analyze {
        let analyzer = Analyzer::new(req.alias);
        let mut all = Vec::new();
        for (block, map) in resolved.function.blocks().iter().zip(&resolved.maps) {
            all.extend(analyzer.analyze_block(block, map.as_ref()));
        }
        // `render_json` pretty-prints; the line protocol needs one line.
        // String contents are escaped, so raw newlines only ever appear
        // as separators and can be squashed.
        render_json(&all).replace('\n', " ")
    } else {
        "[]".to_owned()
    };

    let cfg = EvalConfig {
        runs: req.runs,
        processor: req.processor,
        seed: req.seed,
        ..EvalConfig::default()
    };
    let eval = evaluate(&compiled, &req.system, &cfg);

    let blocks: Vec<String> = compiled
        .blocks
        .iter()
        .map(|b| {
            format!(
                "{{\"name\":{},\"instructions\":{},\"spills\":{},\"text\":{}}}",
                json::string(b.block.name()),
                b.block.len(),
                b.spill_count,
                json::string(&b.block.to_string())
            )
        })
        .collect();
    let payload = format!(
        "\"schedule\":{{\"scheduler\":{},\"spill_percent\":{},\"blocks\":[{}]}},\
         \"eval\":{},\"system\":{},\"runs\":{},\"seed\":{},\"diagnostics\":{}",
        json::string(&compiled.scheduler),
        f64_json(compiled.spill_percent()),
        blocks.join(","),
        eval_json(&eval),
        json::string(&req.system.name()),
        req.runs,
        req.seed,
        diagnostics
    );
    Ok(Evaluated { key, payload })
}

#[cfg(test)]
mod tests {
    use super::*;
    use protocol::Request;

    fn schedule(line: &str) -> ScheduleRequest {
        match parse_request(line).expect("request parses") {
            Request::Schedule(r) => *r,
            other => panic!("expected schedule, got {other:?}"),
        }
    }

    #[test]
    fn evaluates_an_inline_kernel_end_to_end() {
        let req = schedule(
            r#"{"kernel":"kernel daxpy { arrays x, y; x[0] = 3.0 * x[0] + y[0]; }",
               "system":"fixed(4)","runs":3}"#,
        );
        let out = evaluate_request(&req).expect("evaluates");
        let v = json::parse(&format!("{{{}}}", out.payload)).expect("payload is one JSON line");
        assert!(
            v.get("eval")
                .unwrap()
                .get("mean_runtime")
                .unwrap()
                .as_f64()
                .unwrap()
                > 0.0
        );
        let blocks = v.get("schedule").unwrap().get("blocks").unwrap();
        assert_eq!(blocks.as_array().unwrap().len(), 1);
        assert!(v.get("diagnostics").unwrap().as_array().is_some());
    }

    #[test]
    fn evaluates_a_benchmark_standin_by_name() {
        let req = schedule(r#"{"benchmark":"mdg","system":"N(3,5)","runs":2,"analyze":false}"#);
        let out = evaluate_request(&req).expect("evaluates");
        assert!(out.payload.contains("\"eval\""));
        // Same request, same key; different seed, different key.
        let again = schedule(r#"{"benchmark":"mdg","system":"N(3,5)","runs":2,"analyze":false}"#);
        assert_eq!(out.key, evaluate_request(&again).expect("again").key);
        let reseeded =
            schedule(r#"{"benchmark":"mdg","system":"N(3,5)","runs":2,"seed":1,"analyze":false}"#);
        assert_ne!(out.key, evaluate_request(&reseeded).expect("reseeded").key);
    }

    #[test]
    fn kernel_path_requests_are_content_addressed() {
        let dir = std::env::temp_dir().join(format!("bsched-serve-key-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.bsk");
        let b = dir.join("b.bsk");
        let src = "kernel k { arrays x; x[0] = x[0] + x[0]; }";
        std::fs::write(&a, src).unwrap();
        std::fs::write(&b, src).unwrap();
        let req_a = schedule(&format!(
            r#"{{"kernel_path":{},"system":"fixed(2)","runs":2,"analyze":false}}"#,
            json::string(a.to_str().unwrap())
        ));
        let req_b = schedule(&format!(
            r#"{{"kernel_path":{},"system":"fixed(2)","runs":2,"analyze":false}}"#,
            json::string(b.to_str().unwrap())
        ));
        let inline = schedule(&format!(
            r#"{{"kernel":{},"system":"fixed(2)","runs":2,"analyze":false}}"#,
            json::string(src)
        ));
        let key_a = evaluate_request(&req_a).expect("a").key;
        assert_eq!(key_a, evaluate_request(&req_b).expect("b").key);
        assert_eq!(key_a, evaluate_request(&inline).expect("inline").key);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Golden-pinned cache keys, one per `SchedulerChoice` variant plus
    /// the `tune` flag. These pin the canonical request serialization:
    /// a key change here silently invalidates every fleet cache entry
    /// (and cache log) in the field — change them knowingly.
    #[test]
    fn request_keys_are_golden_stable_per_scheduler_variant() {
        for (spec, golden) in [
            ("balanced", "752d01def57cc93efcbe575b069f6738"),
            ("balanced-approx", "33cb6af1fb417930f7d784da649a22e1"),
            ("average", "bd9e2c3c9e391c43979eabf2f1e2fb78"),
            ("traditional=2", "7eacf36d3b36abefbafbacd0d97a99ef"),
            (
                "policy:family=blend:30/1:1/2;rounding=ceil;ties=slack-,pressure+",
                "4f27860488d8c4c9c1ec5df12fc00c2c",
            ),
        ] {
            let req = schedule(&format!(
                r#"{{"kernel":"k","system":"N(3,5)","scheduler":{}}}"#,
                json::string(spec)
            ));
            assert_eq!(
                format!("{:032x}", request_key(&req, "identity")),
                golden,
                "{spec}"
            );
        }
        let req = schedule(r#"{"kernel":"k","system":"N(3,5)","tune":true}"#);
        assert_eq!(
            format!("{:032x}", request_key(&req, "identity")),
            "820bc7a96600d55f7f2fe2323a09d9aa",
            "tune"
        );
    }

    /// Equivalent spellings share a key (the canonical form is hashed,
    /// not the raw spec), and a tuned policy identical to a named
    /// scheduler still gets that scheduler's key.
    #[test]
    fn equivalent_scheduler_spellings_share_a_key() {
        let a = schedule(r#"{"kernel":"k","system":"N(3,5)","scheduler":"traditional=2"}"#);
        let b = schedule(r#"{"kernel":"k","system":"N(3,5)","scheduler":"traditional=2/1"}"#);
        assert_eq!(request_key(&a, "i"), request_key(&b, "i"));
    }

    /// Every policy the tuner's candidate space can generate must map to
    /// a distinct cache key — two distinct policies colliding would let
    /// one policy's schedule be served for another.
    #[test]
    fn distinct_tuned_policies_never_collide() {
        use std::collections::HashMap;
        let space = bsched_tune::CandidateSpace::for_optimistic_latency(30.0);
        let mut seen: HashMap<u128, String> = HashMap::new();
        for spec in space.enumerate() {
            let req = schedule(&format!(
                r#"{{"kernel":"k","system":"N(30,5)","scheduler":{}}}"#,
                json::string(&format!("policy:{}", spec.canonical()))
            ));
            let key = request_key(&req, "identity");
            if let Some(other) = seen.insert(key, spec.canonical()) {
                panic!("key collision: {} vs {}", other, spec.canonical());
            }
        }
        assert_eq!(seen.len(), space.len());
    }

    #[test]
    fn failures_carry_the_shared_vocabulary() {
        let req = schedule(r#"{"kernel":"not a kernel","system":"fixed(2)"}"#);
        let (kind, reason) = evaluate_request(&req).expect_err("must fail");
        assert_eq!(kind, FailureKind::Parse, "{reason}");
        let req = schedule(r#"{"benchmark":"NOPE","system":"fixed(2)"}"#);
        let (kind, reason) = evaluate_request(&req).expect_err("must fail");
        assert_eq!(kind, FailureKind::Parse);
        assert!(reason.contains("unknown benchmark"), "{reason}");
    }
}
