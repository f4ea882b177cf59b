//! The line-delimited JSON wire protocol.
//!
//! One request per line, one response per line. Every request may carry
//! an `id` string which is echoed verbatim in its response; because slow
//! requests run on worker threads, responses on a pipelined connection
//! may arrive **out of order** — clients match on `id`.
//!
//! Request shapes:
//!
//! ```json
//! {"op":"schedule","id":"r1","kernel":"k d { ... }","system":"L80(2,5)",
//!  "scheduler":"balanced","alias":"fortran","processor":"unlimited",
//!  "runs":10,"seed":7,"deadline_ms":5000,"analyze":true,"tune":false}
//! {"op":"schedule","kernel_path":"kernels/daxpy.bsk","system":"N(3,5)"}
//! {"op":"schedule","benchmark":"MDG","system":"L80(2,5)","optimistic":"2"}
//! {"op":"stats"}     — also accepted as the bare line "/stats"
//! {"op":"ping"}
//! {"op":"shutdown"}  — begins a graceful drain
//! {"op":"add-shard","addr":"host:port"}              — router only
//! {"op":"drain-shard","addr":"host:port","stop":true} — router only
//! {"op":"members"}                                    — router only
//! ```
//!
//! Response statuses: `ok`, `error` (with a `kind` from the shared
//! failure vocabulary and a human `reason`), `overloaded` (typed
//! backpressure — the submission queue was full; retry later), and
//! `timeout` (the request's own deadline expired).
//!
//! ## Streaming
//!
//! A schedule request carrying `"stream":true` is answered as one
//! `{"status":"chunk","seq":i,"block":{…}}` line per compiled block
//! followed by a terminal summary line that starts with
//! `{"stream_end":true,"chunks":N,` and carries everything else the
//! single-line response would have carried (with the blocks array
//! emptied). [`split_stream`] and [`reassemble_stream`] are exact
//! inverses: joining the chunks back into the terminal line reproduces
//! the non-streamed response byte for byte. Framing is sound because
//! [`json::string`] escapes every quote — the raw marker byte sequences
//! (`"status":"chunk"`, `"stream_end":true`) cannot occur inside any
//! rendered string value. Responses without a blocks array (errors,
//! overload, timeout) stay single-line even for streaming clients.

use bsched_analyze::json::{self, Json};
use bsched_core::Ratio;
use bsched_cpusim::ProcessorModel;
use bsched_dag::AliasModel;
use bsched_memsim::MemorySystem;
use bsched_pipeline::SchedulerChoice;

/// Where the kernel to schedule comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelSource {
    /// Kernel text carried inline in the request.
    Inline(String),
    /// Path to a kernel file readable by the *server* process. The cache
    /// key hashes the file's content, not its path.
    Path(String),
    /// One of the built-in Perfect Club stand-ins, by name (`ADM`,
    /// `MDG`, …).
    Benchmark(String),
}

/// A fully parsed `schedule` request.
#[derive(Debug, Clone)]
pub struct ScheduleRequest {
    /// The kernel to compile and simulate.
    pub source: KernelSource,
    /// Alias discipline (raw spec kept for the cache key).
    pub alias: AliasModel,
    /// Scheduler choice (the cache key hashes `scheduler.canonical()`).
    pub scheduler: SchedulerChoice,
    /// Memory system to simulate.
    pub system: MemorySystem,
    /// Traditional baseline latency override (defaults per system).
    pub optimistic: Option<Ratio>,
    /// Processor model.
    pub processor: ProcessorModel,
    /// Simulation runs per block (default 10 — servers favour latency;
    /// batch tables use 30).
    pub runs: u32,
    /// Master seed (default matches the batch harness).
    pub seed: u64,
    /// Per-request wall-clock deadline in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Whether to run the analyzer lints and attach diagnostics.
    pub analyze: bool,
    /// Stream the response as one chunk line per block plus a terminal
    /// summary line. Deliberately **not** part of the cache key —
    /// streamed and plain requests share cache entries.
    pub stream: bool,
    /// Whether a cache miss should also enqueue a background policy
    /// search (`bsched-tune`) for this request's key; the winning
    /// schedule is installed into the cache so subsequent identical
    /// requests are served tuned. Part of the cache key — tuned and
    /// untuned requests must never share an entry, because the tuner
    /// overwrites the tuned entry's payload in place.
    pub tune: bool,
    /// Simulated per-request service stall in microseconds (0..=1s),
    /// slept on the worker before the cache is even consulted. A
    /// load-testing knob: it models IO- or memory-stall-dominated
    /// service time so fleet-scaling curves measure concurrency rather
    /// than host core count. Not part of the cache key — it does not
    /// change the result.
    pub stall_us: u64,
}

/// One request line, decoded.
#[derive(Debug, Clone)]
pub enum Request {
    /// Compile + simulate a kernel.
    Schedule(Box<ScheduleRequest>),
    /// Introspection snapshot.
    Stats,
    /// Liveness probe.
    Ping,
    /// Begin graceful drain.
    Shutdown,
    /// Add a shard to the router's ring at runtime (router only).
    AddShard {
        /// `host:port` of the shard daemon to adopt.
        addr: String,
    },
    /// Fence, flush, and remove a shard from the ring (router only).
    DrainShard {
        /// `host:port` of the shard to drain.
        addr: String,
        /// Whether to send the drained daemon a graceful shutdown once
        /// it is fenced and idle (default true).
        stop: bool,
    },
    /// List the router's current membership (router only).
    Members,
}

/// Default simulation runs for served requests.
pub const DEFAULT_RUNS: u32 = 10;

fn get_str<'a>(v: &'a Json, key: &str) -> Option<&'a str> {
    v.get(key).and_then(Json::as_str)
}

/// Extracts the echoed request id, if any, even from requests that
/// otherwise fail to decode.
#[must_use]
pub fn request_id(line: &str) -> Option<String> {
    let v = json::parse(line)?;
    get_str(&v, "id").map(str::to_owned)
}

/// Decodes one request line.
///
/// # Errors
///
/// A human-readable description of the first problem found; the server
/// turns it into a typed `error` response with kind `parse`.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let line = line.trim();
    if line == "/stats" {
        return Ok(Request::Stats);
    }
    let v = json::parse(line).ok_or("request is not valid JSON")?;
    v.as_object().ok_or("request must be a JSON object")?;
    match get_str(&v, "op").unwrap_or("schedule") {
        "stats" => Ok(Request::Stats),
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        "members" => Ok(Request::Members),
        "add-shard" => Ok(Request::AddShard {
            addr: parse_addr(&v)?,
        }),
        "drain-shard" => Ok(Request::DrainShard {
            addr: parse_addr(&v)?,
            stop: match v.get("stop") {
                None => true,
                Some(b) => b.as_bool().ok_or("\"stop\" must be a boolean")?,
            },
        }),
        "schedule" => parse_schedule(&v).map(|r| Request::Schedule(Box::new(r))),
        other => Err(format!(
            "unknown op {other:?} (schedule|stats|ping|shutdown|add-shard|drain-shard|members)"
        )),
    }
}

fn parse_addr(v: &Json) -> Result<String, String> {
    let addr = get_str(v, "addr").ok_or("missing field \"addr\" (host:port)")?;
    if addr.is_empty() || !addr.contains(':') {
        return Err(format!("bad addr {addr:?} (want host:port)"));
    }
    Ok(addr.to_owned())
}

fn parse_schedule(v: &Json) -> Result<ScheduleRequest, String> {
    let source = match (
        get_str(v, "kernel"),
        get_str(v, "kernel_path"),
        get_str(v, "benchmark"),
    ) {
        (Some(text), None, None) => KernelSource::Inline(text.to_owned()),
        (None, Some(path), None) => KernelSource::Path(path.to_owned()),
        (None, None, Some(name)) => KernelSource::Benchmark(name.to_owned()),
        (None, None, None) => {
            return Err("missing kernel source (one of kernel|kernel_path|benchmark)".to_owned())
        }
        _ => return Err("give exactly one of kernel|kernel_path|benchmark".to_owned()),
    };
    // A tuned policy travels inline as `policy:<canonical>`: the server
    // never reads client-side files.
    let scheduler = get_str(v, "scheduler").unwrap_or("balanced").parse()?;
    let system: MemorySystem = get_str(v, "system")
        .ok_or("missing field \"system\" (e.g. \"L80(2,5)\", \"N(3,5)\", \"fixed(4)\")")?
        .parse()
        .map_err(|e| format!("bad system: {e}"))?;
    let optimistic = match get_str(v, "optimistic") {
        None => None,
        Some(spec) => Some(
            spec.parse::<Ratio>()
                .map_err(|e| format!("bad optimistic latency {spec:?}: {e}"))?,
        ),
    };
    let runs = match v.get("runs") {
        None => DEFAULT_RUNS,
        #[allow(clippy::cast_possible_truncation)]
        Some(n) => n
            .as_u64()
            .filter(|n| (2..=10_000).contains(n))
            .ok_or("\"runs\" must be an integer in [2, 10000]")? as u32,
    };
    let seed = match v.get("seed") {
        None => bsched_pipeline::EvalConfig::default().seed,
        Some(n) => n
            .as_u64()
            .ok_or("\"seed\" must be a non-negative integer")?,
    };
    let deadline_ms = match v.get("deadline_ms") {
        None => None,
        Some(n) => Some(
            n.as_u64()
                .filter(|n| *n > 0)
                .ok_or("\"deadline_ms\" must be a positive integer")?,
        ),
    };
    let analyze = match v.get("analyze") {
        None => true,
        Some(b) => b.as_bool().ok_or("\"analyze\" must be a boolean")?,
    };
    let stream = match v.get("stream") {
        None => false,
        Some(b) => b.as_bool().ok_or("\"stream\" must be a boolean")?,
    };
    let tune = match v.get("tune") {
        None => false,
        Some(b) => b.as_bool().ok_or("\"tune\" must be a boolean")?,
    };
    let stall_us = match v.get("stall_us") {
        None => 0,
        Some(n) => n
            .as_u64()
            .filter(|n| *n <= 1_000_000)
            .ok_or("\"stall_us\" must be an integer in [0, 1000000]")?,
    };
    Ok(ScheduleRequest {
        source,
        alias: get_str(v, "alias").unwrap_or("fortran").parse()?,
        scheduler,
        system,
        optimistic,
        processor: get_str(v, "processor").unwrap_or("unlimited").parse()?,
        runs,
        seed,
        deadline_ms,
        analyze,
        stream,
        tune,
        stall_us,
    })
}

/// Renders the optional leading `"id":…,` fragment responses start
/// with.
#[must_use]
pub fn id_fragment(id: Option<&str>) -> String {
    id.map_or_else(String::new, |id| format!("\"id\":{},", json::string(id)))
}

/// Renders an `ok` response around a cached or freshly computed payload
/// fragment (the fragment carries `schedule`/`eval`/`diagnostics`).
#[must_use]
pub fn ok_response(id: Option<&str>, cached: bool, payload: &str, service_us: u64) -> String {
    format!(
        "{{{}\"status\":\"ok\",\"cached\":{cached},{payload},\"service_us\":{service_us}}}",
        id_fragment(id)
    )
}

/// Renders a typed `error` response using the shared failure
/// vocabulary.
#[must_use]
pub fn error_response(id: Option<&str>, kind: &str, reason: &str) -> String {
    format!(
        "{{{}\"status\":\"error\",\"kind\":{},\"reason\":{}}}",
        id_fragment(id),
        json::string(kind),
        json::string(reason)
    )
}

/// Renders the typed backpressure response: the submission queue is
/// full (or an injected fault said to pretend it is). Clients retry
/// with backoff; the server has shed the work, not queued it.
#[must_use]
pub fn overloaded_response(id: Option<&str>, depth: usize, capacity: usize) -> String {
    format!(
        "{{{}\"status\":\"overloaded\",\"queue_depth\":{depth},\"queue_capacity\":{capacity},\
         \"retry\":true}}",
        id_fragment(id)
    )
}

/// Renders the per-request deadline expiry response.
#[must_use]
pub fn timeout_response(id: Option<&str>, deadline_ms: u64) -> String {
    format!(
        "{{{}\"status\":\"timeout\",\"deadline_ms\":{deadline_ms}}}",
        id_fragment(id)
    )
}

/// Renders the typed oversized-request error (the inbound line cap).
#[must_use]
pub fn too_large_response(id: Option<&str>, limit: usize) -> String {
    format!(
        "{{{}\"status\":\"error\",\"kind\":\"too_large\",\
         \"reason\":\"request line exceeds {limit} bytes\",\"limit_bytes\":{limit}}}",
        id_fragment(id)
    )
}

/// Renders the typed notice written (best-effort) before a slow
/// consumer whose outbound backlog exceeded the per-connection cap is
/// disconnected.
#[must_use]
pub fn slow_consumer_response(cap: usize) -> String {
    format!(
        "{{\"status\":\"error\",\"kind\":\"slow_consumer\",\
         \"reason\":\"outbound buffer exceeded {cap} bytes; disconnecting\",\"cap_bytes\":{cap}}}"
    )
}

/// Marker carried by the terminal line of a streamed response (and by
/// [`stream_aborted_response`]); the router and clients frame streams
/// on it. Cannot occur raw inside any rendered JSON string value
/// because [`json::string`] escapes quotes.
pub const STREAM_END_MARKER: &str = "\"stream_end\":true";

const CHUNK_MARKER: &str = "\"status\":\"chunk\"";
const BLOCKS_NEEDLE: &str = "\"blocks\":[";
const BLOCK_FIELD: &str = ",\"block\":";

/// Whether a response line is a streaming chunk.
#[must_use]
pub fn is_chunk_line(line: &str) -> bool {
    line.starts_with('{') && line.contains(CHUNK_MARKER)
}

/// Whether a response line terminates a stream (summary or abort).
#[must_use]
pub fn is_stream_end(line: &str) -> bool {
    line.contains(STREAM_END_MARKER)
}

/// Typed terminator spliced into a relayed stream when the shard dies
/// after the first chunk has already reached the client: the stream can
/// no longer be retried or failed over without duplicating chunks, so
/// it ends loudly instead of truncating silently. Carries
/// [`STREAM_END_MARKER`] so client framing terminates normally.
#[must_use]
pub fn stream_aborted_response(id: Option<&str>, reason: &str) -> String {
    format!(
        "{{{}\"status\":\"error\",\"kind\":\"stream_aborted\",\"reason\":{},{STREAM_END_MARKER}}}",
        id_fragment(id),
        json::string(reason)
    )
}

/// Splits one rendered single-line response into per-block chunk lines
/// plus a terminal summary line.
///
/// Each chunk is `{"id":…,"status":"chunk","seq":i,"block":<elem>}`
/// where `<elem>` is the exact byte slice of the i-th `blocks` array
/// element. The terminal line is the original response with
/// `"stream_end":true,"chunks":N,` spliced after the opening brace and
/// the blocks array emptied. Returns `None` when the line carries no
/// `"blocks":[` array (errors, overload, timeout, stats) — such
/// responses stay single-line even for streaming clients.
#[must_use]
pub fn split_stream(id: Option<&str>, line: &str) -> Option<(Vec<String>, String)> {
    let start = line.find(BLOCKS_NEEDLE)? + BLOCKS_NEEDLE.len();
    let (elems, close) = split_array_elements(&line[start..])?;
    let frag = id_fragment(id);
    let chunks: Vec<String> = elems
        .iter()
        .enumerate()
        .map(|(seq, block)| format!("{{{frag}{CHUNK_MARKER},\"seq\":{seq},\"block\":{block}}}"))
        .collect();
    let terminal = format!(
        "{{{STREAM_END_MARKER},\"chunks\":{},{}{}",
        chunks.len(),
        &line[1..start],
        &line[start + close..]
    );
    Some((chunks, terminal))
}

/// Exact inverse of [`split_stream`]: splices the chunk blocks back
/// into the terminal line's emptied array, reproducing the non-streamed
/// response byte for byte. Returns `None` when the lines are not a
/// well-formed chunk sequence + terminal.
#[must_use]
pub fn reassemble_stream(chunks: &[String], terminal: &str) -> Option<String> {
    let prefix = format!("{{{STREAM_END_MARKER},\"chunks\":{},", chunks.len());
    let rest = terminal.strip_prefix(prefix.as_str())?;
    let empty = format!("{BLOCKS_NEEDLE}]");
    let at = rest.find(empty.as_str())?;
    let blocks: Option<Vec<&str>> = chunks.iter().map(|c| chunk_block(c)).collect();
    Some(format!(
        "{{{}{BLOCKS_NEEDLE}{}]{}",
        &rest[..at],
        blocks?.join(","),
        &rest[at + empty.len()..]
    ))
}

/// The raw `"block"` value of one chunk line — the exact byte slice of
/// the original blocks-array element.
#[must_use]
pub fn chunk_block(chunk: &str) -> Option<&str> {
    let at = chunk.find(BLOCK_FIELD)? + BLOCK_FIELD.len();
    chunk.strip_suffix('}').map(|s| &s[at..])
}

/// Splits the elements of a JSON array whose opening `[` has already
/// been consumed; `rest` starts at the first element (or at `]`).
/// Returns the element byte slices and the offset of the closing
/// bracket within `rest`, or `None` if the array never closes.
fn split_array_elements(rest: &str) -> Option<(Vec<&str>, usize)> {
    let bytes = rest.as_bytes();
    let mut elems = Vec::new();
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    let mut elem_start = 0usize;
    for (i, &b) in bytes.iter().enumerate() {
        if in_string {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_string = false;
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'[' | b'{' => depth += 1,
            b']' if depth == 0 => {
                if i > elem_start {
                    elems.push(&rest[elem_start..i]);
                }
                return Some((elems, i));
            }
            b']' | b'}' => depth = depth.checked_sub(1)?,
            b',' if depth == 0 => {
                elems.push(&rest[elem_start..i]);
                elem_start = i + 1;
            }
            _ => {}
        }
    }
    None
}

/// Reads one `\n`-terminated line with a hard size cap, like
/// `BufRead::read_line` but bounded and CR-tolerant. `Ok(None)` is a
/// clean EOF; a final unterminated line is returned like
/// `BufRead::lines` would.
///
/// # Errors
///
/// `InvalidData` when the line exceeds `cap` bytes (the caller renders
/// a typed `too_large` response); otherwise the underlying IO error.
pub fn read_line_bounded<R: std::io::BufRead>(
    reader: &mut R,
    cap: usize,
) -> std::io::Result<Option<String>> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            if line.is_empty() {
                return Ok(None);
            }
            return Ok(Some(String::from_utf8_lossy(&line).into_owned()));
        }
        if let Some(at) = buf.iter().position(|&b| b == b'\n') {
            line.extend_from_slice(&buf[..at]);
            reader.consume(at + 1);
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            if line.len() > cap {
                return Err(line_too_long(cap));
            }
            return Ok(Some(String::from_utf8_lossy(&line).into_owned()));
        }
        let n = buf.len();
        line.extend_from_slice(buf);
        reader.consume(n);
        if line.len() > cap {
            return Err(line_too_long(cap));
        }
    }
}

/// Writes `line` and its newline with one `write_all` of one buffer,
/// then flushes. Two writes would send the newline as its own segment,
/// which Nagle holds until the peer's delayed ACK (~40 ms per line on
/// a socket without `TCP_NODELAY`).
///
/// # Errors
///
/// The write failed (typically: the peer hung up).
pub(crate) fn write_line<W: std::io::Write>(writer: &mut W, line: &str) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(line.len() + 1);
    frame.extend_from_slice(line.as_bytes());
    frame.push(b'\n');
    writer.write_all(&frame)?;
    writer.flush()
}

fn line_too_long(cap: usize) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("line exceeds {cap} bytes"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records every `write` call it receives.
    #[derive(Default)]
    struct Recorder {
        writes: Vec<Vec<u8>>,
    }

    impl std::io::Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_line_issues_exactly_one_write_per_line() {
        let mut out = Recorder::default();
        write_line(&mut out, "{\"op\":\"ping\"}").unwrap();
        write_line(&mut out, "").unwrap();
        assert_eq!(
            out.writes,
            vec![b"{\"op\":\"ping\"}\n".to_vec(), b"\n".to_vec()]
        );
    }

    #[test]
    fn parses_a_full_schedule_request() {
        let req = parse_request(
            r#"{"op":"schedule","id":"r1","kernel":"k d { }","system":"L80(2,5)",
               "scheduler":"traditional=2","alias":"c","processor":"max8",
               "runs":5,"seed":9,"deadline_ms":250,"analyze":false}"#,
        )
        .expect("parses");
        let Request::Schedule(req) = req else {
            panic!("expected schedule")
        };
        assert_eq!(req.source, KernelSource::Inline("k d { }".to_owned()));
        assert_eq!(req.alias, AliasModel::CConservative);
        assert_eq!(
            req.scheduler,
            SchedulerChoice::traditional(Ratio::from_int(2))
        );
        assert_eq!(req.runs, 5);
        assert_eq!(req.seed, 9);
        assert_eq!(req.deadline_ms, Some(250));
        assert!(!req.analyze);
    }

    #[test]
    fn defaults_are_applied() {
        let req = parse_request(r#"{"benchmark":"MDG","system":"N(3,5)"}"#).expect("parses");
        let Request::Schedule(req) = req else {
            panic!("expected schedule")
        };
        assert_eq!(req.source, KernelSource::Benchmark("MDG".to_owned()));
        assert_eq!(req.alias, AliasModel::Fortran);
        assert_eq!(req.scheduler, SchedulerChoice::balanced());
        assert_eq!(req.runs, DEFAULT_RUNS);
        assert_eq!(req.deadline_ms, None);
        assert!(req.analyze);
    }

    #[test]
    fn control_ops_and_bare_stats_line() {
        assert!(matches!(
            parse_request(r#"{"op":"stats"}"#),
            Ok(Request::Stats)
        ));
        assert!(matches!(parse_request("/stats"), Ok(Request::Stats)));
        assert!(matches!(
            parse_request(r#"{"op":"ping"}"#),
            Ok(Request::Ping)
        ));
        assert!(matches!(
            parse_request(r#"{"op":"shutdown"}"#),
            Ok(Request::Shutdown)
        ));
    }

    #[test]
    fn rejects_malformed_requests_with_reasons() {
        for (line, needle) in [
            ("not json", "not valid JSON"),
            ("[1,2]", "must be a JSON object"),
            (r#"{"op":"frobnicate"}"#, "unknown op"),
            (
                r#"{"op":"schedule","system":"N(3,5)"}"#,
                "missing kernel source",
            ),
            (
                r#"{"kernel":"k","kernel_path":"p","system":"N(3,5)"}"#,
                "exactly one",
            ),
            (r#"{"kernel":"k d { }"}"#, "missing field \"system\""),
            (
                r#"{"kernel":"k","system":"N(3,5)","runs":1}"#,
                "\"runs\" must be",
            ),
            (
                r#"{"kernel":"k","system":"N(3,5)","deadline_ms":0}"#,
                "\"deadline_ms\" must be",
            ),
            (r#"{"kernel":"k","system":"bogus"}"#, "bad system"),
        ] {
            let err = parse_request(line).expect_err(line);
            assert!(err.contains(needle), "{line} -> {err}");
        }
    }

    #[test]
    fn parses_membership_ops_and_stream_flag() {
        let req = parse_request(r#"{"op":"add-shard","addr":"127.0.0.1:9001"}"#).expect("parses");
        assert!(matches!(req, Request::AddShard { addr } if addr == "127.0.0.1:9001"));
        let req = parse_request(r#"{"op":"drain-shard","addr":"h:1","stop":false}"#).unwrap();
        assert!(matches!(req, Request::DrainShard { addr, stop: false } if addr == "h:1"));
        let req = parse_request(r#"{"op":"drain-shard","addr":"h:1"}"#).unwrap();
        assert!(matches!(req, Request::DrainShard { stop: true, .. }));
        assert!(matches!(
            parse_request(r#"{"op":"members"}"#),
            Ok(Request::Members)
        ));
        for (line, needle) in [
            (r#"{"op":"add-shard"}"#, "missing field \"addr\""),
            (r#"{"op":"add-shard","addr":"noport"}"#, "bad addr"),
            (
                r#"{"op":"drain-shard","addr":"h:1","stop":3}"#,
                "\"stop\" must be",
            ),
            (
                r#"{"kernel":"k","system":"N(3,5)","stream":"yes"}"#,
                "\"stream\" must be",
            ),
        ] {
            let err = parse_request(line).expect_err(line);
            assert!(err.contains(needle), "{line} -> {err}");
        }
        let Ok(Request::Schedule(req)) =
            parse_request(r#"{"kernel":"k d { }","system":"N(3,5)","stream":true}"#)
        else {
            panic!("expected schedule")
        };
        assert!(req.stream);
        let Ok(Request::Schedule(req)) = parse_request(r#"{"kernel":"k d { }","system":"N(3,5)"}"#)
        else {
            panic!("expected schedule")
        };
        assert!(!req.stream);
    }

    fn sample_response(id: Option<&str>, blocks: &[(&str, &str)]) -> String {
        let rendered: Vec<String> = blocks
            .iter()
            .map(|(name, text)| {
                format!(
                    "{{\"name\":{},\"instructions\":3,\"spills\":0,\"text\":{}}}",
                    json::string(name),
                    json::string(text)
                )
            })
            .collect();
        let payload = format!(
            "\"schedule\":{{\"scheduler\":\"balanced\",\"spill_percent\":0,\"blocks\":[{}]}},\
             \"eval\":{{\"speedup\":1.25}},\"diagnostics\":[]",
            rendered.join(",")
        );
        ok_response(id, false, &payload, 42)
    }

    #[test]
    fn split_and_reassemble_are_exact_inverses() {
        // Adversarial content: block text carrying the raw marker byte
        // sequences, quotes, brackets, and commas — all neutralized by
        // json::string escaping.
        let line = sample_response(
            Some("r\"1"),
            &[
                ("d", "ld r1, a[i]\nadd r2, r1, r3"),
                (
                    "evil",
                    "\"status\":\"chunk\" \"stream_end\":true \"blocks\":[ ], } {",
                ),
                ("empty", ""),
            ],
        );
        let (chunks, terminal) = split_stream(Some("r\"1"), &line).expect("splits");
        assert_eq!(chunks.len(), 3);
        assert!(chunks.iter().all(|c| is_chunk_line(c)));
        assert!(chunks.iter().all(|c| !is_stream_end(c)));
        assert!(is_stream_end(&terminal));
        assert!(!is_chunk_line(&terminal));
        assert!(terminal.contains("\"chunks\":3"));
        assert!(terminal.contains("\"blocks\":[]"));
        for c in &chunks {
            assert!(json::parse(c).is_some(), "chunk is valid JSON: {c}");
        }
        assert!(json::parse(&terminal).is_some(), "{terminal}");
        let back = reassemble_stream(&chunks, &terminal).expect("reassembles");
        assert_eq!(back, line, "byte-for-byte roundtrip");
    }

    #[test]
    fn zero_block_responses_stream_as_terminal_only() {
        let line = sample_response(None, &[]);
        let (chunks, terminal) = split_stream(None, &line).expect("splits");
        assert!(chunks.is_empty());
        assert!(terminal.contains("\"chunks\":0"));
        assert_eq!(
            reassemble_stream(&chunks, &terminal).as_deref(),
            Some(line.as_str())
        );
    }

    #[test]
    fn blockless_responses_do_not_split() {
        assert!(split_stream(None, &error_response(Some("x"), "parse", "nope")).is_none());
        assert!(split_stream(None, &overloaded_response(None, 8, 8)).is_none());
        assert!(split_stream(None, &timeout_response(None, 5)).is_none());
    }

    #[test]
    fn stream_terminators_are_typed_and_framed() {
        let aborted = stream_aborted_response(Some("s1"), "shard died");
        assert!(is_stream_end(&aborted));
        let v = json::parse(&aborted).unwrap();
        assert_eq!(v.get("kind").unwrap().as_str(), Some("stream_aborted"));
        let large = too_large_response(Some("b"), 4096);
        let v = json::parse(&large).unwrap();
        assert_eq!(v.get("kind").unwrap().as_str(), Some("too_large"));
        assert_eq!(v.get("limit_bytes").unwrap().as_u64(), Some(4096));
        let slow = slow_consumer_response(1 << 20);
        let v = json::parse(&slow).unwrap();
        assert_eq!(v.get("kind").unwrap().as_str(), Some("slow_consumer"));
    }

    #[test]
    fn read_line_bounded_frames_and_caps() {
        use std::io::BufReader;
        let mut r = BufReader::new(&b"abc\r\ndef\ntail"[..]);
        assert_eq!(
            read_line_bounded(&mut r, 64).unwrap().as_deref(),
            Some("abc")
        );
        assert_eq!(
            read_line_bounded(&mut r, 64).unwrap().as_deref(),
            Some("def")
        );
        assert_eq!(
            read_line_bounded(&mut r, 64).unwrap().as_deref(),
            Some("tail")
        );
        assert_eq!(read_line_bounded(&mut r, 64).unwrap(), None);
        let long = [b'x'; 100];
        let mut r = BufReader::with_capacity(8, &long[..]);
        let err = read_line_bounded(&mut r, 32).expect_err("caps");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn responses_are_wellformed_and_echo_ids() {
        for rendered in [
            ok_response(Some("a\"b"), true, "\"eval\":{}", 12),
            error_response(Some("x"), "parse", "bad \"thing\""),
            overloaded_response(None, 8, 8),
            timeout_response(Some("t"), 100),
        ] {
            let v = json::parse(&rendered).expect(&rendered);
            assert!(v.get("status").is_some(), "{rendered}");
        }
        let ok = json::parse(&ok_response(Some("a\"b"), true, "\"eval\":{}", 12)).unwrap();
        assert_eq!(ok.get("id").unwrap().as_str(), Some("a\"b"));
        assert_eq!(ok.get("cached").unwrap().as_bool(), Some(true));
        assert_eq!(
            request_id(r#"{"id":"r9","op":"ping"}"#).as_deref(),
            Some("r9")
        );
        assert_eq!(request_id("garbage"), None);
    }
}
