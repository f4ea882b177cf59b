//! Router mode: consistent-hash fan-out over a fleet of shard daemons.
//!
//! `bsched serve --route shard1,shard2,…` runs this instead of the
//! single-process daemon. The router speaks the same line-JSON protocol
//! on both sides: clients need no changes, and downstream it forwards
//! each schedule request's **raw line** verbatim to the shard that owns
//! the request's 128-bit content hash.
//!
//! ## Placement: rendezvous (HRW) hashing
//!
//! Each `(key, shard)` pair gets a deterministic 64-bit score; the
//! shard with the highest score owns the key, the runner-up is the
//! failover target, and so on. Unlike modulo placement, removing one
//! shard only re-homes *that shard's* keys — everyone else's cache
//! locality survives the outage, which is the whole point of sharding a
//! content-addressed cache (each shard stays warm for its own slice).
//!
//! ## Failover: bounded retries, typed degradation, never a drop
//!
//! A forward gets up to [`RouterConfig::attempts_per_shard`] tries with
//! exponential backoff against the owner, then moves to the
//! rendezvous-next shard (shards already marked down are skipped
//! without burning a timeout). Any response that needed a retry or a
//! non-owner shard is annotated `"degraded":true` — visible, typed
//! degradation. Only when *every* shard has failed does the client see
//! an `error` response with kind `unavailable`; no path drops a
//! request on the floor.
//!
//! Forwarding failures feed the same consecutive-failure accounting as
//! the health prober (see [`crate::health`]), so a dead shard is marked
//! down by whichever notices first, and one successful probe or forward
//! rehabilitates it.
//!
//! ## Live membership
//!
//! The member list is mutable at runtime: `add-shard` adopts a daemon
//! into the ring (Joining until its first successful probe, so an
//! unreachable address never owns keys), and `drain-shard` walks a
//! shard through Draining — fence new forwards, wait for in-flight
//! ones to land, optionally stop the daemon (flushing its cache log) —
//! before removing it. Rendezvous hashing keeps the collateral minimal
//! either way: only ~1/N of keys re-home, which `add-shard` measures
//! over a sampled keyspace and reports as `rehomed_fraction`.
//!
//! ## Streaming
//!
//! A `"stream":true` schedule request is relayed line-by-line: chunk
//! lines as they arrive from the shard, then the terminal summary line
//! (framed by [`crate::protocol::STREAM_END_MARKER`]). Failover and
//! retries are legal only before the first chunk reaches the client;
//! a shard that dies mid-stream gets a typed `stream_aborted`
//! terminator spliced in — never a silent truncation, never duplicated
//! chunks.
//!
//! Transport is deliberately thread-per-connection blocking IO: a
//! router holds one client connection per loadgen worker — tens, not
//! thousands — and its real latency is the downstream evaluation, not
//! connection multiplexing.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bsched_par::sync::thread::JoinHandle;
use bsched_par::sync::{thread, AtomicBool, AtomicU64, Mutex, Ordering};

use bsched_analyze::json;
use bsched_faults::{fault_point, Site};

use crate::client::Client;
use crate::health::{ping_shard, prober_loop, HealthConfig, MemberState, ShardState};
use crate::prepare_request;
use crate::protocol::{
    error_response, id_fragment, is_chunk_line, is_stream_end, parse_request, read_line_bounded,
    request_id, stream_aborted_response, write_line, Request,
};

/// Inbound cap on client request lines, matching the daemon's default.
const MAX_CLIENT_LINE: usize = crate::server::DEFAULT_MAX_LINE_BYTES;
/// How long a drain waits for a fenced shard's in-flight forwards.
const DRAIN_INFLIGHT_GRACE: Duration = Duration::from_secs(10);
/// Keys sampled when measuring a membership change's re-home fraction.
const REHOME_SAMPLES: u64 = 4096;

/// Knobs for one router instance.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port).
    pub listen: String,
    /// Backend shard addresses (`host:port`), order-insensitive for
    /// placement (rendezvous scores don't depend on list order).
    pub shards: Vec<String>,
    /// Health probe and failure-threshold knobs.
    pub health: HealthConfig,
    /// Forward attempts per shard before moving to the next (≥ 1).
    pub attempts_per_shard: u32,
    /// First retry backoff; doubles per further attempt.
    pub backoff_base: Duration,
    /// Per-line read deadline on router→shard forwards: a shard that
    /// accepts the connection but never answers trips retry/failover
    /// instead of stalling the client forever.
    pub forward_timeout: Duration,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            listen: "127.0.0.1:0".to_owned(),
            shards: Vec::new(),
            health: HealthConfig::default(),
            attempts_per_shard: 2,
            backoff_base: Duration::from_millis(10),
            forward_timeout: Duration::from_secs(2),
        }
    }
}

/// Router-level lifetime counters (shard counters live in
/// [`ShardState`]).
#[derive(Default)]
pub struct RouterStats {
    /// Request lines read from clients.
    pub requests: AtomicU64,
    /// Schedule requests answered by some shard.
    pub forwarded: AtomicU64,
    /// Responses served by a shard other than the rendezvous owner.
    pub failovers: AtomicU64,
    /// Repeat forward attempts (after the first) against any shard.
    pub retries: AtomicU64,
    /// Responses annotated `degraded:true`.
    pub degraded: AtomicU64,
    /// Requests answered with a router-generated error (parse,
    /// unavailable, …).
    pub errors: AtomicU64,
    /// Forward attempts that hit the read deadline (hung shard).
    pub forward_timeouts: AtomicU64,
    /// Streamed responses relayed chunk-by-chunk.
    pub streams: AtomicU64,
    /// Streams terminated with a typed `stream_aborted` line.
    pub stream_aborts: AtomicU64,
}

struct RouterInner {
    cfg: RouterConfig,
    /// The live member list; locked briefly for snapshots and
    /// membership changes, never across a forward.
    members: Mutex<Vec<Arc<ShardState>>>,
    stats: RouterStats,
    shutdown: AtomicBool,
}

impl RouterInner {
    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed) || crate::server::signalled()
    }
}

/// A running router. [`Router::join`] blocks until drain.
pub struct Router {
    inner: Arc<RouterInner>,
    addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

impl Router {
    /// Binds `cfg.listen`, starts the health prober and accept loop.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure; refuses an empty shard list.
    pub fn start(cfg: RouterConfig) -> std::io::Result<Router> {
        if cfg.shards.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "router needs at least one shard (--route a:1,b:2,…)",
            ));
        }
        let listener = TcpListener::bind(&cfg.listen)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let members: Vec<Arc<ShardState>> = cfg
            .shards
            .iter()
            .map(|a| Arc::new(ShardState::new(a.clone())))
            .collect();
        let inner = Arc::new(RouterInner {
            members: Mutex::new(members),
            cfg,
            stats: RouterStats::default(),
            shutdown: AtomicBool::new(false),
        });
        let mut threads = Vec::new();
        let probe_inner = Arc::clone(&inner);
        threads.push(
            thread::Builder::new()
                .name("bsched-route-health".to_owned())
                .spawn(move || {
                    prober_loop(
                        &probe_inner.members,
                        &probe_inner.cfg.health,
                        &probe_inner.shutdown,
                    );
                })
                .expect("spawn health prober"),
        );
        let accept_inner = Arc::clone(&inner);
        threads.push(
            thread::Builder::new()
                .name("bsched-route-accept".to_owned())
                .spawn(move || accept_loop(&listener, &accept_inner))
                .expect("spawn accept thread"),
        );
        Ok(Router {
            inner,
            addr,
            threads,
        })
    }

    /// The bound address (useful with `listen = "127.0.0.1:0"`).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begins a drain: stop accepting, stop probing; open connections
    /// finish their in-flight lines.
    pub fn begin_shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Relaxed);
    }

    /// Blocks until the accept loop and prober have exited.
    pub fn join(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Router {
    /// A dropped router must not leak its prober or accept thread: set
    /// the shutdown flag and join both. After an explicit [`Router::join`]
    /// the thread list is already drained and this is a no-op.
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, inner: &Arc<RouterInner>) {
    loop {
        if inner.draining() {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let conn_inner = Arc::clone(inner);
                let _ = thread::Builder::new()
                    .name("bsched-route-conn".to_owned())
                    .spawn(move || serve_connection(stream, &conn_inner));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
}

fn serve_connection(stream: TcpStream, inner: &Arc<RouterInner>) {
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    loop {
        let line = match read_line_bounded(&mut reader, MAX_CLIENT_LINE) {
            Ok(Some(line)) => line,
            Ok(None) => break,
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                inner.stats.errors.fetch_add(1, Ordering::Relaxed);
                let notice = crate::protocol::too_large_response(None, MAX_CLIENT_LINE);
                let _ = write_line(&mut writer, &notice);
                break;
            }
            Err(_) => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        if route_request(inner, &line, &mut writer).is_err() {
            break;
        }
    }
}

/// Routes one raw request line, writing the response line(s) — plural
/// for streamed schedules — directly to the client.
fn route_request(inner: &RouterInner, line: &str, writer: &mut TcpStream) -> std::io::Result<()> {
    inner.stats.requests.fetch_add(1, Ordering::Relaxed);
    let id = request_id(line);
    let id = id.as_deref();
    match parse_request(line) {
        Err(reason) => {
            inner.stats.errors.fetch_add(1, Ordering::Relaxed);
            write_line(writer, &error_response(id, "parse", &reason))
        }
        Ok(Request::Ping) => write_line(
            writer,
            &format!(
                "{{{}\"status\":\"ok\",\"pong\":true,\"router\":true}}",
                id_fragment(id)
            ),
        ),
        Ok(Request::Stats) => write_line(writer, &merged_stats(inner, id)),
        Ok(Request::Shutdown) => {
            inner.shutdown.store(true, Ordering::Relaxed);
            write_line(
                writer,
                &format!(
                    "{{{}\"status\":\"ok\",\"draining\":true,\"router\":true}}",
                    id_fragment(id)
                ),
            )
        }
        Ok(Request::Members) => write_line(writer, &members_response(inner, id)),
        Ok(Request::AddShard { addr }) => write_line(writer, &add_shard(inner, id, &addr)),
        Ok(Request::DrainShard { addr, stop }) => {
            write_line(writer, &drain_shard(inner, id, &addr, stop))
        }
        Ok(Request::Schedule(req)) => match prepare_request(&req) {
            Err((kind, reason)) => {
                inner.stats.errors.fetch_add(1, Ordering::Relaxed);
                write_line(writer, &error_response(id, kind.id(), &reason))
            }
            Ok(prepared) => relay(inner, id, prepared.key(), line, writer),
        },
    }
}

/// Snapshot of the members currently eligible to own keys.
fn active_members(inner: &RouterInner) -> Vec<Arc<ShardState>> {
    inner
        .members
        .lock()
        .unwrap()
        .iter()
        .filter(|s| s.member_state() == MemberState::Active)
        .cloned()
        .collect()
}

/// One shard's fault-injection + liveness + fence check before a
/// forward. Returns `false` (with failover accounting) when the shard
/// must be skipped; on `true` the caller owns one `end_forward`.
fn admit_forward(shard: &ShardState, index: usize, threshold: u32) -> bool {
    let injected_down =
        bsched_faults::with_cell_context(&format!("shard{index}|{}", shard.addr), 0, || {
            fault_point!(Site::ShardDown)
        })
        .is_some();
    if injected_down {
        shard.record_failure(threshold);
    }
    if injected_down || !shard.is_up() || !shard.begin_forward() {
        shard.failed_over.fetch_add(1, Ordering::Relaxed);
        return false;
    }
    true
}

fn count_forward_error(inner: &RouterInner, e: &std::io::Error) {
    if matches!(
        e.kind(),
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
    ) {
        inner.stats.forward_timeouts.fetch_add(1, Ordering::Relaxed);
    }
}

/// Relays one schedule request to the rendezvous-ranked shards until one
/// answers, line by line: a plain request's single response line, or a
/// streamed request's chunk lines then its terminal line. Never drops:
/// the worst case is a typed `unavailable` error. Failover/retry is
/// legal only before the first relayed line; once a chunk has reached
/// the client the stream can only end with its own terminal line or a
/// typed `stream_aborted` terminator — never silent truncation, never
/// duplicated chunks.
fn relay(
    inner: &RouterInner,
    id: Option<&str>,
    key: u128,
    line: &str,
    writer: &mut TcpStream,
) -> std::io::Result<()> {
    let members = active_members(inner);
    let addrs: Vec<String> = members.iter().map(|s| s.addr.clone()).collect();
    let threshold = inner.cfg.health.failure_threshold;
    let mut degraded = false;
    for (rank, &index) in rendezvous_rank(key, &addrs).iter().enumerate() {
        let shard = &members[index];
        if !admit_forward(shard, index, threshold) {
            degraded = true;
            continue;
        }
        // Nothing has been relayed yet, so per-shard retries are safe.
        let mut opened = None;
        for attempt in 0..inner.cfg.attempts_per_shard.max(1) {
            if attempt > 0 {
                inner.stats.retries.fetch_add(1, Ordering::Relaxed);
                degraded = true;
                thread::sleep(inner.cfg.backoff_base * 2u32.pow(attempt - 1));
            }
            let first = forward_open(shard, line, inner)
                .and_then(|mut client| read_shard_line(&mut client).map(|first| (client, first)));
            match first {
                Ok(pair) => {
                    opened = Some(pair);
                    break;
                }
                Err(e) => {
                    count_forward_error(inner, &e);
                    shard.record_failure(threshold);
                }
            }
        }
        let Some((mut reader, first)) = opened else {
            shard.end_forward();
            shard.failed_over.fetch_add(1, Ordering::Relaxed);
            degraded = true;
            continue;
        };
        shard.record_success();
        shard.forwarded.fetch_add(1, Ordering::Relaxed);
        inner.stats.forwarded.fetch_add(1, Ordering::Relaxed);
        if rank > 0 {
            inner.stats.failovers.fetch_add(1, Ordering::Relaxed);
            degraded = true;
        }
        if degraded {
            inner.stats.degraded.fetch_add(1, Ordering::Relaxed);
        }
        if !is_chunk_line(&first) {
            // A complete single-line answer (every plain response, and a
            // streamed request's error, overload or blockless ok): relay
            // it as-is.
            shard.end_forward();
            let out = if degraded {
                annotate_degraded(&first)
            } else {
                first
            };
            return write_line(writer, &out);
        }
        inner.stats.streams.fetch_add(1, Ordering::Relaxed);
        let mut current = first;
        loop {
            if is_stream_end(&current) {
                shard.end_forward();
                let out = if degraded {
                    annotate_degraded(&current)
                } else {
                    current
                };
                return write_line(writer, &out);
            }
            if let Err(e) = write_line(writer, &current) {
                // Client vanished mid-stream: drop the shard connection
                // (the shard sees the close) and give up on the client.
                shard.end_forward();
                return Err(e);
            }
            match read_shard_line(&mut reader) {
                Ok(next) => current = next,
                Err(e) => {
                    count_forward_error(inner, &e);
                    shard.record_failure(threshold);
                    shard.end_forward();
                    inner.stats.stream_aborts.fetch_add(1, Ordering::Relaxed);
                    let terminator = stream_aborted_response(
                        id,
                        &format!("shard {} died mid-stream: {e}", shard.addr),
                    );
                    return write_line(writer, &terminator);
                }
            }
        }
    }
    inner.stats.errors.fetch_add(1, Ordering::Relaxed);
    write_line(
        writer,
        &error_response(
            id,
            "unavailable",
            &format!("all {} shards unreachable", members.len()),
        ),
    )
}

/// Opens a fresh connection to a shard and sends the raw request line,
/// under the connect deadline and the per-line forward timeout.
fn forward_open(shard: &ShardState, line: &str, inner: &RouterInner) -> std::io::Result<Client> {
    let mut client = Client::connect_with_deadline(
        &shard.addr,
        inner.cfg.health.connect_timeout,
        inner.cfg.forward_timeout,
    )?;
    client.send(line)?;
    Ok(client)
}

/// One response line off a shard connection; EOF is an error (the shard
/// closed before finishing its answer).
fn read_shard_line(shard: &mut Client) -> std::io::Result<String> {
    shard.recv_line()?.ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "shard closed before responding",
        )
    })
}

/// Renders the `members` listing: every member's address, lifecycle
/// state, liveness, and in-flight count.
fn members_response(inner: &RouterInner, id: Option<&str>) -> String {
    let members = inner.members.lock().unwrap().clone();
    let objs: Vec<String> = members
        .iter()
        .map(|s| {
            format!(
                "{{\"addr\":{},\"state\":{},\"up\":{},\"inflight\":{},\"forwarded\":{}}}",
                json::string(&s.addr),
                json::string(s.member_state().as_str()),
                s.is_up(),
                s.inflight(),
                s.forwarded.load(Ordering::Relaxed)
            )
        })
        .collect();
    format!(
        "{{{}\"status\":\"ok\",\"router\":true,\"members\":[{}]}}",
        id_fragment(id),
        objs.join(",")
    )
}

/// Adopts a shard into the ring at runtime. A reachable shard joins
/// Active immediately; an unreachable one joins as Joining and owns no
/// keys until the prober's first successful probe promotes it. The
/// response reports the measured fraction of sampled keys whose
/// rendezvous owner moves — with HRW placement only the new shard's
/// ~1/N slice re-homes, and this number proves it.
fn add_shard(inner: &RouterInner, id: Option<&str>, addr: &str) -> String {
    if inner.members.lock().unwrap().iter().any(|s| s.addr == addr) {
        inner.stats.errors.fetch_add(1, Ordering::Relaxed);
        return error_response(
            id,
            "exists",
            &format!("shard {addr} is already in the ring"),
        );
    }
    // Probe outside the lock (it can take the whole connect deadline).
    let reachable = ping_shard(addr, &inner.cfg.health);
    let shard = Arc::new(if reachable {
        ShardState::new(addr.to_owned())
    } else {
        ShardState::new_joining(addr.to_owned())
    });
    let (before, after) = {
        let mut members = inner.members.lock().unwrap();
        if members.iter().any(|s| s.addr == addr) {
            inner.stats.errors.fetch_add(1, Ordering::Relaxed);
            return error_response(
                id,
                "exists",
                &format!("shard {addr} is already in the ring"),
            );
        }
        let before: Vec<String> = members
            .iter()
            .filter(|s| s.member_state() == MemberState::Active)
            .map(|s| s.addr.clone())
            .collect();
        members.push(Arc::clone(&shard));
        // The steady-state ownership once the new shard is Active.
        let mut after = before.clone();
        after.push(addr.to_owned());
        (before, after)
    };
    let rehomed = rehomed_fraction(&before, &after);
    eprintln!(
        "bsched-serve: shard {addr} added ({}), rehomed_fraction {rehomed:.4}",
        shard.member_state().as_str()
    );
    format!(
        "{{{}\"status\":\"ok\",\"router\":true,\"added\":{},\"state\":{},\
         \"members\":{},\"rehomed_fraction\":{rehomed:.4}}}",
        id_fragment(id),
        json::string(addr),
        json::string(shard.member_state().as_str()),
        inner.members.lock().unwrap().len()
    )
}

/// Walks a shard through the drain state machine: fence new forwards
/// (Draining), wait for in-flight ones to land, optionally stop the
/// daemon — its graceful drain flushes queued work and leaves the cache
/// log consistent on disk — then remove it from the ring. Refuses to
/// drain the last Active shard: a router with no owners drops every
/// request, which is exactly what drain exists to avoid.
fn drain_shard(inner: &RouterInner, id: Option<&str>, addr: &str, stop: bool) -> String {
    let shard = {
        let members = inner.members.lock().unwrap();
        let Some(shard) = members.iter().find(|s| s.addr == addr).cloned() else {
            inner.stats.errors.fetch_add(1, Ordering::Relaxed);
            return error_response(id, "unknown", &format!("shard {addr} is not in the ring"));
        };
        let actives = members
            .iter()
            .filter(|s| s.member_state() == MemberState::Active)
            .count();
        if shard.member_state() == MemberState::Active && actives <= 1 {
            inner.stats.errors.fetch_add(1, Ordering::Relaxed);
            return error_response(id, "refused", "refusing to drain the last active shard");
        }
        shard.set_member_state(MemberState::Draining);
        shard
    };
    // Fenced: the in-flight count can only fall. Wait (bounded) for it
    // to hit zero so no forwarded request is ever cut off mid-answer.
    let deadline = Instant::now() + DRAIN_INFLIGHT_GRACE;
    while shard.inflight() > 0 && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(5));
    }
    let inflight_at_removal = shard.inflight();
    let stopped = stop && send_shutdown(&shard.addr, &inner.cfg.health);
    inner.members.lock().unwrap().retain(|s| s.addr != addr);
    eprintln!(
        "bsched-serve: shard {addr} drained and removed (stopped: {stopped}, \
         inflight at removal: {inflight_at_removal})"
    );
    format!(
        "{{{}\"status\":\"ok\",\"router\":true,\"drained\":{},\"stopped\":{stopped},\
         \"inflight_at_removal\":{inflight_at_removal},\"members\":{}}}",
        id_fragment(id),
        json::string(addr),
        inner.members.lock().unwrap().len()
    )
}

/// Asks a drained daemon to shut down gracefully; returns whether it
/// acknowledged the drain.
fn send_shutdown(addr: &str, health: &HealthConfig) -> bool {
    Client::connect_with_deadline(addr, health.connect_timeout, health.read_timeout)
        .and_then(|mut shard| shard.round_trip("{\"op\":\"shutdown\"}"))
        .is_ok_and(|reply| reply.get("draining").and_then(json::Json::as_bool) == Some(true))
}

/// Measured fraction of sampled keys whose rendezvous owner differs
/// between two address sets — the re-home cost of a membership change.
fn rehomed_fraction(before: &[String], after: &[String]) -> f64 {
    if before.is_empty() || after.is_empty() {
        return 1.0;
    }
    let mut moved = 0u64;
    for i in 0..REHOME_SAMPLES {
        let key = u128::from(splitmix64(i)) | (u128::from(splitmix64(i ^ 0xdead_beef_f00d)) << 64);
        let owner_before = &before[rendezvous_rank(key, before)[0]];
        let owner_after = &after[rendezvous_rank(key, after)[0]];
        if owner_before != owner_after {
            moved += 1;
        }
    }
    #[allow(clippy::cast_precision_loss)]
    {
        moved as f64 / REHOME_SAMPLES as f64
    }
}

/// Splices `"degraded":true` into a response line's top-level object so
/// clients see typed degradation rather than a silent rough edge.
fn annotate_degraded(response: &str) -> String {
    let trimmed = response.trim_end();
    trimmed.strip_suffix('}').map_or_else(
        || trimmed.to_owned(),
        |body| format!("{body},\"degraded\":true}}"),
    )
}

/// splitmix64 — the same tiny mixer the fault planner uses; plenty for
/// spreading (key, shard) pairs over 64-bit scores.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The rendezvous score of `(key, shard address)`.
#[must_use]
pub fn hrw_score(key: u128, addr: &str) -> u64 {
    #[allow(clippy::cast_possible_truncation)]
    let mut h = splitmix64((key as u64) ^ ((key >> 64) as u64));
    for b in addr.as_bytes() {
        h = splitmix64(h ^ u64::from(*b));
    }
    h
}

/// Shard indices ordered by descending rendezvous score for `key`: the
/// first entry owns the key, the rest are the failover order.
#[must_use]
pub fn rendezvous_rank(key: u128, shards: &[String]) -> Vec<usize> {
    let mut scored: Vec<(u64, usize)> = shards
        .iter()
        .enumerate()
        .map(|(i, addr)| (hrw_score(key, addr), i))
        .collect();
    scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    scored.into_iter().map(|(_, i)| i).collect()
}

/// Renders the merged `/stats` view: summed per-shard daemon counters
/// (same field names a single daemon reports, so clients need no
/// changes), router-level counters, fleet liveness, and a per-shard
/// breakdown.
fn merged_stats(inner: &RouterInner, id: Option<&str>) -> String {
    const SUMMED: [&str; 8] = [
        "requests",
        "ok",
        "errors",
        "overloaded",
        "timeouts",
        "cache_hits",
        "cache_misses",
        "cache_entries",
    ];
    let members = inner.members.lock().unwrap().clone();
    let mut sums = [0u64; SUMMED.len()];
    let mut shard_objs = Vec::with_capacity(members.len());
    let mut up = 0usize;
    for shard in &members {
        let reachable = shard.is_up();
        let mut fields = String::new();
        if reachable {
            up += 1;
        }
        if let Some(stats) = fetch_shard_stats(shard, &inner.cfg.health) {
            for (slot, name) in SUMMED.iter().enumerate() {
                if let Some(v) = stats.get(name).and_then(json::Json::as_u64) {
                    sums[slot] += v;
                    fields.push_str(&format!(",\"{name}\":{v}"));
                }
            }
        }
        shard_objs.push(format!(
            "{{\"addr\":{},\"up\":{reachable},\"state\":{},\"inflight\":{},\
             \"forwarded\":{},\"failed_over\":{}{fields}}}",
            json::string(&shard.addr),
            json::string(shard.member_state().as_str()),
            shard.inflight(),
            shard.forwarded.load(Ordering::Relaxed),
            shard.failed_over.load(Ordering::Relaxed),
        ));
    }
    let summed: String = SUMMED
        .iter()
        .enumerate()
        .map(|(slot, name)| format!("\"{name}\":{},", sums[slot]))
        .collect();
    format!(
        "{{{}\"status\":\"ok\",\"router\":true,\"stats\":{{{summed}\
         \"shards_up\":{up},\"shards_down\":{},\"members\":{},\"failovers\":{},\"retries\":{},\
         \"degraded\":{},\"routed\":{},\"router_requests\":{},\"router_errors\":{},\
         \"forward_timeouts\":{},\"streams\":{},\"stream_aborts\":{},\
         \"probe_interval_ms\":{},\"probe_timeout_ms\":{},\"forward_timeout_ms\":{}}},\
         \"shards\":[{}]}}",
        id_fragment(id),
        members.len() - up,
        members.len(),
        inner.stats.failovers.load(Ordering::Relaxed),
        inner.stats.retries.load(Ordering::Relaxed),
        inner.stats.degraded.load(Ordering::Relaxed),
        inner.stats.forwarded.load(Ordering::Relaxed),
        inner.stats.requests.load(Ordering::Relaxed),
        inner.stats.errors.load(Ordering::Relaxed),
        inner.stats.forward_timeouts.load(Ordering::Relaxed),
        inner.stats.streams.load(Ordering::Relaxed),
        inner.stats.stream_aborts.load(Ordering::Relaxed),
        inner.cfg.health.interval.as_millis(),
        inner.cfg.health.connect_timeout.as_millis(),
        inner.cfg.forward_timeout.as_millis(),
        shard_objs.join(",")
    )
}

/// Fetches one shard's `stats` object, best-effort under tight
/// deadlines (a dead shard must not stall the merged view).
fn fetch_shard_stats(shard: &ShardState, health: &HealthConfig) -> Option<json::Json> {
    let deadline = health.read_timeout.min(Duration::from_millis(750));
    let mut client =
        Client::connect_with_deadline(&shard.addr, health.connect_timeout, deadline).ok()?;
    client
        .round_trip("{\"op\":\"stats\"}")
        .ok()?
        .get("stats")
        .cloned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendezvous_is_deterministic_and_covers_all_shards() {
        let shards: Vec<String> = (0..4).map(|i| format!("127.0.0.1:{}", 9000 + i)).collect();
        let rank_a = rendezvous_rank(42, &shards);
        let rank_b = rendezvous_rank(42, &shards);
        assert_eq!(rank_a, rank_b);
        let mut sorted = rank_a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3], "a full permutation");
    }

    #[test]
    fn removing_a_shard_only_rehomes_its_own_keys() {
        let shards: Vec<String> = (0..4).map(|i| format!("127.0.0.1:{}", 9000 + i)).collect();
        let without_last: Vec<String> = shards[..3].to_vec();
        for key in 0..500u128 {
            let owner = rendezvous_rank(key, &shards)[0];
            if owner < 3 {
                assert_eq!(
                    rendezvous_rank(key, &without_last)[0],
                    owner,
                    "key {key} moved although its owner survived"
                );
            }
        }
    }

    #[test]
    fn keys_spread_over_shards() {
        let shards: Vec<String> = (0..3).map(|i| format!("127.0.0.1:{}", 9000 + i)).collect();
        let mut counts = [0usize; 3];
        for key in 0..600u128 {
            counts[rendezvous_rank(key * 0x9e37_79b9, &shards)[0]] += 1;
        }
        for (i, n) in counts.iter().enumerate() {
            assert!(
                (100..=400).contains(n),
                "shard {i} owns {n}/600 keys — placement is skewed"
            );
        }
    }

    #[test]
    fn rehome_fraction_is_minimal_for_single_member_changes() {
        let three: Vec<String> = (0..3).map(|i| format!("127.0.0.1:{}", 9000 + i)).collect();
        let mut four = three.clone();
        four.push("127.0.0.1:9003".to_owned());
        let grow = rehomed_fraction(&three, &four);
        assert!(
            grow <= 1.5 / 4.0,
            "adding 1 of 4 shards rehomed {grow:.4} > 1.5/N"
        );
        assert!(grow > 0.10, "the new shard owns a real slice: {grow:.4}");
        let shrink = rehomed_fraction(&four, &three);
        assert!(
            shrink <= 1.5 / 4.0,
            "removing 1 of 4 shards rehomed {shrink:.4} > 1.5/N"
        );
        assert!(
            (rehomed_fraction(&three, &three)).abs() < f64::EPSILON,
            "identical sets rehome nothing"
        );
    }

    #[test]
    fn degraded_annotation_splices_before_the_closing_brace() {
        assert_eq!(
            annotate_degraded("{\"status\":\"ok\",\"cached\":true}"),
            "{\"status\":\"ok\",\"cached\":true,\"degraded\":true}"
        );
        let parsed = json::parse(&annotate_degraded("{\"a\":1}")).unwrap();
        assert_eq!(parsed.get("degraded").unwrap().as_bool(), Some(true));
        assert_eq!(annotate_degraded("not json"), "not json");
    }
}
