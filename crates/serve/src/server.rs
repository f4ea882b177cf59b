//! The daemon: epoll event loop, admission control, worker pool,
//! lifecycle.
//!
//! A small fixed set of IO threads multiplexes every connection over
//! raw `epoll` (see the private `eventloop` module): thread 0 owns the
//! non-blocking listener and hands accepted sockets out round-robin;
//! each IO thread runs an edge-triggered loop over its
//! connections' read/write readiness plus a wake pipe. Request lines
//! are framed *in place* — the parser is handed a `&str` view into the
//! connection's read buffer, never a copied-out line. Schedule requests
//! are admitted against a bounded queue and executed on a persistent
//! [`bsched_par::WorkerPool`]; the worker posts the finished response
//! back to the owning IO thread's completion queue and tickles its wake
//! pipe, so pipelined responses interleave out of order — the protocol
//! echoes ids for exactly this reason. Control requests (`stats`,
//! `ping`, `shutdown`) are answered inline on the IO thread and never
//! queue.
//!
//! Backpressure is a counter, not a buffer: admission increments the
//! queue depth and rejects with a typed `overloaded` response when it
//! would exceed the configured capacity. Nothing is dropped silently
//! and nothing queues unboundedly.
//!
//! Shutdown is a drain, not an abort: `op:"shutdown"`, SIGTERM, or
//! SIGINT stop new admissions (subsequent schedule requests get
//! `overloaded`), the listener closes, queued work finishes and its
//! responses are flushed, and a connection caught mid-line gets a typed
//! `overloaded` response rather than a silently closed socket. Only
//! then does [`Server::join`] return.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bsched_par::sync::thread::JoinHandle;
use bsched_par::sync::{thread, AtomicBool, Mutex, Ordering};

use bsched_faults::{fault_point, Site};
use bsched_par::{run_with_timeout, WorkerPool};

use crate::cache::LruCache;
use crate::protocol::{
    error_response, ok_response, overloaded_response, parse_request, request_id, timeout_response,
    Request, ScheduleRequest,
};
use crate::stats::ServerStats;
use crate::{evaluate_prepared, prepare_request};

/// Knobs for one daemon instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port).
    pub listen: String,
    /// Persistent worker threads evaluating schedule requests.
    pub workers: usize,
    /// Event-loop IO threads multiplexing connections.
    pub io_threads: usize,
    /// Admission bound: queued + executing schedule requests.
    pub queue_capacity: usize,
    /// Response cache bound, in entries.
    pub cache_capacity: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline_ms: Option<u64>,
    /// Path of the append-only cache persistence log (`--cache-log`);
    /// `None` serves from a memory-only cache that dies with the
    /// process.
    pub cache_log: Option<String>,
    /// Inbound request-line cap in bytes. A longer line gets a typed
    /// `too_large` error and the connection is closed — the partial-tail
    /// buffer never grows without bound on a runaway client.
    pub max_line_bytes: usize,
    /// Outbound per-connection backlog cap in bytes. Reads pause
    /// (backpressure) at half this backlog; a consumer that still lets
    /// in-flight responses exceed it gets a typed `slow_consumer`
    /// notice and is disconnected.
    pub write_cap_bytes: usize,
}

/// Default inbound request-line cap (4 MiB).
pub const DEFAULT_MAX_LINE_BYTES: usize = 4 * 1024 * 1024;
/// Default outbound backlog cap (16 MiB).
pub const DEFAULT_WRITE_CAP_BYTES: usize = 16 * 1024 * 1024;

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            listen: "127.0.0.1:0".to_owned(),
            workers: 4,
            io_threads: 2,
            queue_capacity: 64,
            cache_capacity: 256,
            default_deadline_ms: None,
            cache_log: None,
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            write_cap_bytes: DEFAULT_WRITE_CAP_BYTES,
        }
    }
}

/// Set by the raw SIGTERM/SIGINT handlers; polled by every IO loop.
///
/// Deliberately a plain `std` atomic, never the model-checker shim: the
/// store below runs in async-signal context, which must stay lock-free.
static SIGNALLED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    // A relaxed atomic store is async-signal-safe: no locks, no
    // allocation. Everything else happens on normal threads.
    SIGNALLED.store(true, std::sync::atomic::Ordering::Relaxed);
}

/// True once SIGTERM/SIGINT has been observed (shared with the router,
/// which has its own drain flag but the same signals).
pub(crate) fn signalled() -> bool {
    SIGNALLED.load(std::sync::atomic::Ordering::Relaxed)
}

/// Installs SIGTERM/SIGINT handlers that begin a graceful drain.
///
/// Uses the C `signal()` entry point directly (the workspace vendors no
/// libc binding).
pub fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `on_signal` is an `extern "C" fn(i32)` as POSIX requires,
    // and only performs an atomic store.
    unsafe {
        signal(SIGTERM, on_signal as *const () as usize);
        signal(SIGINT, on_signal as *const () as usize);
    }
}

/// A response computed on a worker, addressed back to the connection
/// slot (`token`) it came from. The generation guards against slot
/// reuse: if the connection died and the slot was recycled, the stale
/// completion is dropped instead of being written to a stranger.
struct Completion {
    token: usize,
    generation: u64,
    line: String,
}

/// The cross-thread half of one IO thread: workers push completions and
/// thread 0 pushes handed-over sockets, then wake the pipe.
struct IoHandle {
    completions: Mutex<Vec<Completion>>,
    incoming: Mutex<Vec<std::net::TcpStream>>,
    wake: crate::eventloop::WakePipe,
}

struct Inner {
    cfg: ServerConfig,
    pool: WorkerPool,
    cache: Mutex<LruCache>,
    /// The cache persistence log, when `--cache-log` is configured.
    /// Never taken while `cache` is held: lookups never wait on disk.
    log: Option<Mutex<crate::persist::CacheLog>>,
    /// Append/compaction failures downgraded to this counter — a full
    /// disk degrades durability, never serving.
    persist_errors: std::sync::atomic::AtomicU64,
    /// Cache keys with a background policy search in flight — the
    /// dedup guard that keeps a hot `"tune":true` key from spawning one
    /// search per miss.
    tuning: Mutex<std::collections::HashSet<u128>>,
    /// Tuned schedules installed into the cache by background searches.
    tuned_installs: std::sync::atomic::AtomicU64,
    stats: ServerStats,
    shutdown: AtomicBool,
    io: Vec<Arc<IoHandle>>,
}

impl Inner {
    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed) || SIGNALLED.load(Ordering::Relaxed)
    }

    /// Caches `payload` under `key` and appends it to the cache log,
    /// compacting the log once dead records dominate it. The one
    /// install path: compiled misses and background tunes both land
    /// here. Durability is best-effort under IO failure: a full disk
    /// costs warm restarts, never live serving. The compaction snapshot
    /// is taken under the log mutex, so every install missing from it
    /// appends after the rewrite.
    fn install(&self, key: u128, payload: &Arc<str>) {
        self.cache.lock().unwrap().put(key, Arc::clone(payload));
        let Some(log) = &self.log else {
            return;
        };
        let mut log = log.lock().unwrap();
        if let Err(e) = log.append(key, payload) {
            self.persist_errors.fetch_add(1, Ordering::Relaxed);
            eprintln!("bsched-serve: cache-log append failed: {e}");
        } else if log.needs_compaction() {
            let snapshot = self.cache.lock().unwrap().iter_lru();
            if let Err(e) = log.compact(&snapshot) {
                self.persist_errors.fetch_add(1, Ordering::Relaxed);
                eprintln!("bsched-serve: cache-log compaction failed: {e}");
            }
        }
    }
}

/// A running daemon. Dropping it without [`Server::join`] detaches the
/// IO threads but lets in-flight work finish under the pool's own
/// shutdown.
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `cfg.listen` and starts accepting connections.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (address in use, permission, …) or an
    /// `epoll`/pipe setup failure.
    pub fn start(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = std::net::TcpListener::bind(&cfg.listen)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (log, cache) = open_cache(&cfg)?;
        let io_count = cfg.io_threads.max(1);
        let mut io = Vec::with_capacity(io_count);
        for _ in 0..io_count {
            io.push(Arc::new(IoHandle {
                completions: Mutex::new(Vec::new()),
                incoming: Mutex::new(Vec::new()),
                wake: crate::eventloop::WakePipe::new()?,
            }));
        }
        let inner = Arc::new(Inner {
            pool: WorkerPool::new(cfg.workers.max(1)),
            cache: Mutex::new(cache),
            log,
            persist_errors: std::sync::atomic::AtomicU64::new(0),
            tuning: Mutex::new(std::collections::HashSet::new()),
            tuned_installs: std::sync::atomic::AtomicU64::new(0),
            cfg,
            stats: ServerStats::default(),
            shutdown: AtomicBool::new(false),
            io,
        });
        let mut threads = Vec::with_capacity(io_count);
        let mut listener = Some(listener);
        for index in 0..io_count {
            let io_inner = Arc::clone(&inner);
            let listener = if index == 0 { listener.take() } else { None };
            threads.push(
                thread::Builder::new()
                    .name(format!("bsched-serve-io{index}"))
                    .spawn(move || event::io_loop(&io_inner, index, listener))
                    .expect("spawn io thread"),
            );
        }
        Ok(Server {
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

    /// Begins a graceful drain, as if `op:"shutdown"` had arrived.
    pub fn begin_shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Relaxed);
        for handle in &self.inner.io {
            handle.wake.wake();
        }
    }

    /// Blocks until the drain completes: the listener has closed, every
    /// admitted request has flushed its response, and the IO threads
    /// have exited.
    pub fn join(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Opens the persistence log (when configured) and warm-starts the
/// cache from its recovered entries. Recovery replays oldest-first, so
/// the cache's LRU order matches the one the previous process died
/// with.
fn open_cache(
    cfg: &ServerConfig,
) -> std::io::Result<(Option<Mutex<crate::persist::CacheLog>>, LruCache)> {
    let mut cache = LruCache::new(cfg.cache_capacity);
    let log = match &cfg.cache_log {
        None => None,
        Some(path) => {
            let (log, recovery) =
                crate::persist::CacheLog::open(std::path::Path::new(path), cfg.cache_capacity)?;
            let recovered = recovery.entries.len();
            for (key, payload) in recovery.entries {
                cache.preload(key, payload);
            }
            if recovered > 0 {
                eprintln!("bsched-serve: warm start: {recovered} cached responses from {path}");
            }
            Some(Mutex::new(log))
        }
    };
    Ok((log, cache))
}

/// What one request line asks the transport to do, computed by the
/// dispatcher before the event loop acts on it.
enum Action {
    /// Answer now, on the IO/connection thread.
    Respond(String),
    /// Admitted: run on the pool, deliver the returned line, and only
    /// then release the queue slot.
    Execute {
        id: Option<String>,
        req: Box<ScheduleRequest>,
        admitted_at: Instant,
    },
}

/// Parses and dispatches one request line (a borrowed view into the
/// connection's read buffer — never a copied-out line). Control ops are
/// answered inline; schedule requests pass admission control here:
/// reserve a queue slot or shed with a typed `overloaded` response —
/// never an unbounded queue, never a silent drop.
fn handle_line(inner: &Arc<Inner>, line: &str) -> Option<Action> {
    if line.trim().is_empty() {
        return None;
    }
    inner.stats.requests.fetch_add(1, Ordering::Relaxed);
    let id = request_id(line);
    Some(match parse_request(line) {
        Err(reason) => {
            inner.stats.errors.fetch_add(1, Ordering::Relaxed);
            Action::Respond(error_response(id.as_deref(), "parse", &reason))
        }
        Ok(Request::Ping) => Action::Respond(format!(
            "{{{}\"status\":\"ok\",\"pong\":true}}",
            crate::protocol::id_fragment(id.as_deref())
        )),
        Ok(Request::Stats) => Action::Respond(render_stats(inner, id.as_deref())),
        Ok(Request::Shutdown) => {
            inner.shutdown.store(true, Ordering::Relaxed);
            Action::Respond(format!(
                "{{{}\"status\":\"ok\",\"draining\":true}}",
                crate::protocol::id_fragment(id.as_deref())
            ))
        }
        Ok(Request::AddShard { .. } | Request::DrainShard { .. } | Request::Members) => {
            inner.stats.errors.fetch_add(1, Ordering::Relaxed);
            Action::Respond(error_response(
                id.as_deref(),
                "unsupported",
                "membership ops need the router (bsched serve --route)",
            ))
        }
        Ok(Request::Schedule(req)) => {
            let capacity = inner.cfg.queue_capacity.max(1);
            let injected_reject = fault_point!(Site::ServeReject).is_some();
            let depth = inner.stats.queue_depth.fetch_add(1, Ordering::Relaxed);
            if depth >= capacity || inner.draining() || injected_reject {
                inner.stats.queue_depth.fetch_sub(1, Ordering::Relaxed);
                inner.stats.overloaded.fetch_add(1, Ordering::Relaxed);
                Action::Respond(overloaded_response(id.as_deref(), depth, capacity))
            } else {
                Action::Execute {
                    id,
                    req,
                    admitted_at: Instant::now(),
                }
            }
        }
    })
}

/// The full service path for one admitted request: fault points, cache
/// probe, compile + simulate under the deadline, stats. Returns the
/// response line; the transport decides how it travels.
fn run_schedule(
    inner: &Arc<Inner>,
    id: Option<&str>,
    req: &ScheduleRequest,
    admitted_at: Instant,
) -> String {
    // The request id is the fault cell context, so a plan can stall one
    // request (e.g. `slow-worker:key=slow,limit=1`) and no other request
    // can use up its limit.
    let slow =
        bsched_faults::with_cell_context(id.unwrap_or(""), 0, || fault_point!(Site::SlowWorker));
    if let Some(fault) = slow {
        thread::sleep(Duration::from_millis(fault.arg));
    }
    if req.stall_us > 0 {
        // Simulated service stall (load-testing knob): before the cache
        // lookup, so hits and misses stall alike.
        thread::sleep(Duration::from_micros(req.stall_us));
    }
    let response = match prepare_request(req) {
        Err((kind, reason)) => {
            inner.stats.errors.fetch_add(1, Ordering::Relaxed);
            error_response(id, kind.id(), &reason)
        }
        Ok(prepared) => {
            let key = prepared.key();
            let hit = inner.cache.lock().unwrap().get(key);
            match hit {
                Some(payload) => {
                    inner.stats.ok.fetch_add(1, Ordering::Relaxed);
                    ok_response(id, true, &payload, service_us(admitted_at))
                }
                None => {
                    let deadline = req.deadline_ms.or(inner.cfg.default_deadline_ms);
                    let req_owned = req.clone();
                    let outcome = match deadline {
                        Some(ms) => run_with_timeout(Duration::from_millis(ms), move || {
                            evaluate_prepared(&req_owned, prepared)
                        })
                        .map_err(|_| ()),
                        None => Ok(evaluate_prepared(&req_owned, prepared)),
                    };
                    match outcome {
                        Ok(Ok(done)) => {
                            let payload: Arc<str> = Arc::from(done.payload);
                            inner.install(done.key, &payload);
                            inner.stats.ok.fetch_add(1, Ordering::Relaxed);
                            if req.tune {
                                maybe_spawn_tune(inner, key, req);
                            }
                            ok_response(id, false, &payload, service_us(admitted_at))
                        }
                        Ok(Err((kind, reason))) => {
                            inner.stats.errors.fetch_add(1, Ordering::Relaxed);
                            error_response(id, kind.id(), &reason)
                        }
                        Err(_timeout) => {
                            inner.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                            timeout_response(id, deadline.unwrap_or(0))
                        }
                    }
                }
            }
        }
    };
    inner.stats.record_service(service_us(admitted_at));
    if req.stream {
        if let Some((chunks, terminal)) = crate::protocol::split_stream(id, &response) {
            inner.stats.streams.fetch_add(1, Ordering::Relaxed);
            // The transport writes one trailing newline; join the chunk
            // lines and the terminal here so the event loop streams for
            // free. Blockless responses (errors, timeout) fall through
            // and stay single-line.
            let mut blob = String::with_capacity(
                response.len() + chunks.iter().map(String::len).sum::<usize>(),
            );
            for chunk in &chunks {
                blob.push_str(chunk);
                blob.push('\n');
            }
            blob.push_str(&terminal);
            return blob;
        }
    }
    response
}

/// Enqueues a background policy search for a cache-missed `"tune":true`
/// request, unless one is already in flight for the same key. The
/// search runs on the worker pool behind live requests; the winning
/// policy's schedule is evaluated through the normal service path and
/// installed under the **original** request key (and appended to the
/// cache log), so the next identical request is served tuned.
fn maybe_spawn_tune(inner: &Arc<Inner>, key: u128, req: &ScheduleRequest) {
    if inner.draining() || !inner.tuning.lock().unwrap().insert(key) {
        return;
    }
    let job_inner = Arc::clone(inner);
    let req = req.clone();
    inner.pool.spawn(move || {
        background_tune(&job_inner, key, &req);
        job_inner.tuning.lock().unwrap().remove(&key);
    });
}

/// The background search itself. Failures are silent by design — tuning
/// is an optimization, never a correctness dependency of serving.
fn background_tune(inner: &Arc<Inner>, key: u128, req: &ScheduleRequest) -> Option<()> {
    if inner.draining() {
        return None;
    }
    let function = prepare_request(req).ok()?.resolved.function;
    // Deterministic per-key seed: the same kernel + configuration tunes
    // identically on every shard of the fleet, so cached policies are
    // interchangeable across daemons.
    #[allow(clippy::cast_possible_truncation)]
    let seed = req.seed ^ (key as u64) ^ ((key >> 64) as u64);
    let cfg = bsched_tune::TuneConfig {
        seed,
        runs: req.runs,
        // One worker thread: the search yields to live requests rather
        // than saturating the pool.
        threads: 1,
        beam_width: 2,
        processor: req.processor,
        alias: req.alias,
        candidate_timeout: Some(Duration::from_secs(5)),
        ..bsched_tune::TuneConfig::default()
    };
    let report = bsched_tune::tune(&function, &req.system, &cfg).ok()?;
    let mut tuned = req.clone();
    tuned.scheduler = bsched_pipeline::SchedulerChoice::Tuned(report.best);
    let done = crate::evaluate_request(&tuned).ok()?;
    inner.install(key, &Arc::from(done.payload));
    inner.tuned_installs.fetch_add(1, Ordering::Relaxed);
    Some(())
}

fn service_us(admitted_at: Instant) -> u64 {
    u64::try_from(admitted_at.elapsed().as_micros()).unwrap_or(u64::MAX)
}

fn render_stats(inner: &Inner, id: Option<&str>) -> String {
    let (cache_hits, cache_misses, cache_entries) = {
        let cache = inner.cache.lock().unwrap();
        let (h, m) = cache.counters();
        (h, m, cache.len())
    };
    let pool = inner.pool.metrics();
    let (persist_appends, persist_compactions, persist_bytes) =
        inner.log.as_ref().map_or((0, 0, 0), |log| {
            let log = log.lock().unwrap();
            let (appends, compactions) = log.counters();
            (appends, compactions, log.file_bytes())
        });
    // `"steals":0` stays, as a literal: the benchmark (`benchmark/src/serve.rs`) reads the key.
    format!(
        "{{{}\"status\":\"ok\",\"stats\":{{{},\"cache_hits\":{cache_hits},\
         \"cache_misses\":{cache_misses},\"cache_entries\":{cache_entries},\
         \"persist_appends\":{persist_appends},\"persist_compactions\":{persist_compactions},\
         \"persist_bytes\":{persist_bytes},\"persist_errors\":{},\
         \"tuned_installs\":{},\"tuning_in_flight\":{},\
         \"workers\":{},\"queue_capacity\":{},\"steals\":0,\"parks\":{},\
         \"pool_queued\":{},\"io_threads\":{},\"open_connections\":{},\
         \"max_line_bytes\":{},\"write_cap_bytes\":{},\
         \"draining\":{}}}}}",
        crate::protocol::id_fragment(id),
        inner.stats.render_fields(),
        inner.persist_errors.load(Ordering::Relaxed),
        inner.tuned_installs.load(Ordering::Relaxed),
        inner.tuning.lock().unwrap().len(),
        inner.cfg.workers.max(1),
        inner.cfg.queue_capacity.max(1),
        pool.parks,
        pool.queued,
        inner.cfg.io_threads.max(1),
        inner.stats.conns_open.load(Ordering::Relaxed),
        inner.cfg.max_line_bytes,
        inner.cfg.write_cap_bytes,
        inner.draining()
    )
}

mod event {
    //! The event loop: one edge-triggered epoll loop per IO thread.
    //!
    //! Per-loop state is plain single-threaded Rust — a slab of
    //! connections indexed by epoll token, each with its own read/write
    //! buffer. The only cross-thread traffic is the [`IoHandle`]:
    //! workers post completions, thread 0 posts accepted sockets, and
    //! both wake the pipe so a blocked `epoll_wait` notices.

    use super::{handle_line, run_schedule, Action, Completion, Inner};
    use crate::eventloop::{
        EpollEvent, Poller, EPOLLERR, EPOLLET, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
    };
    use crate::protocol::overloaded_response;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// Wake-pipe readability.
    const WAKE_TOKEN: u64 = u64::MAX;
    /// Listener readability (thread 0 only).
    const LISTEN_TOKEN: u64 = u64::MAX - 1;
    /// Poll granularity: an idle loop re-checks the drain flag this
    /// often, so SIGTERM is noticed promptly even with no IO.
    const POLL_MS: i32 = 25;
    /// How long the final drain phase keeps flushing response bytes to
    /// slow readers before closing on them.
    const DRAIN_FLUSH_GRACE: Duration = Duration::from_secs(2);
    /// Compact a partially written buffer past this many flushed bytes.
    const WRITE_COMPACT: usize = 64 * 1024;

    struct Conn {
        stream: TcpStream,
        /// Unparsed request bytes; complete lines are framed and
        /// dispatched *in place* (no per-line copy), and only the
        /// partial tail survives between readiness events.
        read_buf: Vec<u8>,
        /// Response bytes not yet accepted by the kernel.
        write_buf: Vec<u8>,
        /// Prefix of `write_buf` already written to the socket.
        written: usize,
        /// Admitted requests whose completions have not come back yet.
        inflight: usize,
        /// Read side saw EOF; close once `inflight` and the write
        /// buffer drain (the client may still be reading responses).
        peer_closed: bool,
        /// This connection already got its mid-line drain notice.
        drain_notified: bool,
        /// The last read pass stopped before `WouldBlock` (inbound cap
        /// or write backpressure). Edge-triggered epoll guarantees no
        /// further readiness edge for bytes already in the kernel, so
        /// the loop re-scans these connections every poll tick — the
        /// same re-arm pattern as `accept_retry`.
        read_pending: bool,
    }

    impl Conn {
        fn new(stream: TcpStream) -> Conn {
            Conn {
                stream,
                read_buf: Vec::new(),
                write_buf: Vec::new(),
                written: 0,
                inflight: 0,
                peer_closed: false,
                drain_notified: false,
                read_pending: false,
            }
        }

        /// Bytes accepted by `respond` but not yet by the kernel.
        fn backlog(&self) -> usize {
            self.write_buf.len() - self.written
        }

        fn flushed(&self) -> bool {
            self.written == self.write_buf.len()
        }
    }

    struct IoLoop {
        inner: Arc<Inner>,
        index: usize,
        poller: Poller,
        /// Connection slab: the epoll token is the slot index.
        conns: Vec<Option<Conn>>,
        /// Bumped on every close; stale completions for a recycled slot
        /// fail the generation check and are dropped.
        generations: Vec<u64>,
        free: Vec<usize>,
        listener: Option<TcpListener>,
        /// Round-robin cursor for handing accepted sockets out.
        next_assign: usize,
        /// Accept hit a transient error (fd exhaustion): the listener
        /// is edge-triggered, so already-backlogged connections will
        /// never produce another readiness edge — re-attempt the
        /// accept on the next poll tick instead of waiting for one.
        accept_retry: bool,
    }

    pub(super) fn io_loop(inner: &Arc<Inner>, index: usize, listener: Option<TcpListener>) {
        let poller = Poller::new().expect("epoll_create1");
        let handle = &inner.io[index];
        poller
            .add(handle.wake.read_fd(), EPOLLIN | EPOLLET, WAKE_TOKEN)
            .expect("register wake pipe");
        if let Some(l) = &listener {
            poller
                .add(l.as_raw_fd(), EPOLLIN | EPOLLET, LISTEN_TOKEN)
                .expect("register listener");
        }
        let mut io = IoLoop {
            inner: Arc::clone(inner),
            index,
            poller,
            conns: Vec::new(),
            generations: Vec::new(),
            free: Vec::new(),
            listener,
            next_assign: 0,
            accept_retry: false,
        };
        let mut events = vec![EpollEvent { events: 0, data: 0 }; 64];
        let mut flush_deadline = None;
        loop {
            let n = io.poller.wait(&mut events, POLL_MS).unwrap_or(0);
            for ev in &events[..n] {
                let token = ev.data;
                let flags = ev.events;
                match token {
                    WAKE_TOKEN => io.inner.io[io.index].wake.drain(),
                    LISTEN_TOKEN => io.accept_burst(),
                    t => {
                        #[allow(clippy::cast_possible_truncation)]
                        io.on_conn_event(t as usize, flags);
                    }
                }
            }
            if io.accept_retry {
                io.accept_retry = false;
                io.accept_burst();
            }
            io.adopt_incoming();
            io.apply_completions();
            io.resume_pending_reads();
            if io.inner.draining() && io.drain_step(&mut flush_deadline) {
                break;
            }
        }
    }

    impl IoLoop {
        /// ET discipline: accept until the listener runs dry.
        fn accept_burst(&mut self) {
            loop {
                let Some(listener) = &self.listener else {
                    return;
                };
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let _ = stream.set_nodelay(true);
                        let target = self.next_assign % self.inner.io.len();
                        self.next_assign = self.next_assign.wrapping_add(1);
                        if target == self.index {
                            self.register(stream);
                        } else {
                            let peer = &self.inner.io[target];
                            peer.incoming.lock().unwrap().push(stream);
                            peer.wake.wake();
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    // The aborted connection consumed its readiness;
                    // keep accepting the rest of the backlog.
                    Err(e) if e.kind() == std::io::ErrorKind::ConnectionAborted => {}
                    Err(_) => {
                        // EMFILE/ENFILE and friends: give up for now
                        // but retry on the next poll tick — closing
                        // connections frees fds without generating a
                        // listener edge.
                        self.accept_retry = true;
                        return;
                    }
                }
            }
        }

        /// Takes ownership of sockets thread 0 handed over.
        fn adopt_incoming(&mut self) {
            let streams = std::mem::take(&mut *self.inner.io[self.index].incoming.lock().unwrap());
            for stream in streams {
                self.register(stream);
            }
        }

        fn register(&mut self, stream: TcpStream) {
            let token = self.free.pop().unwrap_or_else(|| {
                self.conns.push(None);
                self.generations.push(0);
                self.conns.len() - 1
            });
            let fd = stream.as_raw_fd();
            self.conns[token] = Some(Conn::new(stream));
            let interest = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;
            if self.poller.add(fd, interest, token as u64).is_err() {
                self.conns[token] = None;
                self.free.push(token);
                return;
            }
            self.inner.stats.conns_open.fetch_add(1, Ordering::Relaxed);
        }

        fn close(&mut self, token: usize) {
            if let Some(conn) = self.conns[token].take() {
                let _ = self.poller.delete(conn.stream.as_raw_fd());
                self.generations[token] += 1;
                self.free.push(token);
                self.inner.stats.conns_open.fetch_sub(1, Ordering::Relaxed);
                // In-flight jobs for this connection will post stale
                // completions; the generation check drops them (the
                // queue slot is still released when they land).
            }
        }

        fn on_conn_event(&mut self, token: usize, flags: u32) {
            if self.conns.get(token).is_none_or(Option::is_none) {
                return; // stale event for an already-closed slot
            }
            if flags & EPOLLERR != 0 {
                self.close(token);
                return;
            }
            if flags & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0 && !self.read_and_dispatch(token) {
                self.close(token);
                return;
            }
            if flags & EPOLLOUT != 0 && self.conns[token].is_some() && !self.flush(token) {
                self.close(token);
                return;
            }
            self.maybe_close(token);
        }

        /// Re-scans connections whose read pass stopped early (inbound
        /// cap or write backpressure): no future epoll edge is
        /// guaranteed for bytes already buffered in the kernel, so the
        /// poll tick retries them until they drain or close.
        fn resume_pending_reads(&mut self) {
            for token in 0..self.conns.len() {
                let pending = self.conns[token].as_ref().is_some_and(|c| c.read_pending);
                if pending {
                    if let Some(conn) = self.conns[token].as_mut() {
                        conn.read_pending = false;
                    }
                    if self.read_and_dispatch(token) {
                        self.maybe_close(token);
                    } else {
                        self.close(token);
                    }
                }
            }
        }

        /// ET read discipline: drain the socket, then frame and
        /// dispatch every complete line in place. Returns `false` when
        /// the connection is broken.
        fn read_and_dispatch(&mut self, token: usize) -> bool {
            let max_line = self.inner.cfg.max_line_bytes.max(1);
            let mut capped = false;
            let mut scratch = [0u8; 8192];
            {
                let Some(conn) = self.conns[token].as_mut() else {
                    return true;
                };
                if conn.peer_closed {
                    return true;
                }
                // Write backpressure: a consumer that is not draining
                // its responses does not get more requests read. The
                // poll tick re-checks via `read_pending`; TCP flow
                // control pushes back on the client in the meantime.
                if conn.backlog() > self.inner.cfg.write_cap_bytes.max(1) / 2 {
                    conn.read_pending = true;
                    return true;
                }
                loop {
                    // Inbound cap: stop pulling once the unframed
                    // buffer is over the line limit; after framing,
                    // either complete lines drained it (resume next
                    // tick) or one line really is too large.
                    if conn.read_buf.len() > max_line {
                        capped = true;
                        break;
                    }
                    match conn.stream.read(&mut scratch) {
                        Ok(0) => {
                            conn.peer_closed = true;
                            break;
                        }
                        Ok(n) => conn.read_buf.extend_from_slice(&scratch[..n]),
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(_) => return false,
                    }
                }
            }
            // Take the buffer (a move, not a copy) so each framed line
            // can be borrowed while the handlers mutate the connection.
            let buf = {
                let Some(conn) = self.conns[token].as_mut() else {
                    return true;
                };
                std::mem::take(&mut conn.read_buf)
            };
            let mut consumed = 0;
            while let Some(at) = buf[consumed..].iter().position(|&b| b == b'\n') {
                if self.conns[token].is_none() {
                    // A handler closed the connection (write failure)
                    // partway through this batch. Stop framing: the
                    // remaining pipelined lines have nowhere to
                    // respond, and dispatching them would capture the
                    // post-close generation — if the freed slot were
                    // recycled before the completion landed, the stale
                    // response would pass the generation check and be
                    // written to an unrelated client.
                    break;
                }
                let mut line = &buf[consumed..consumed + at];
                if line.last() == Some(&b'\r') {
                    line = &line[..line.len() - 1];
                }
                if line.len() > max_line {
                    // A complete line can still blow the cap when its
                    // newline lands inside the read chunk that tripped
                    // it; it gets the same typed notice + close as a
                    // newline-less flood, never a parse attempt.
                    consumed += at + 1;
                    self.inner.stats.requests.fetch_add(1, Ordering::Relaxed);
                    self.inner.stats.errors.fetch_add(1, Ordering::Relaxed);
                    self.inner.stats.too_large.fetch_add(1, Ordering::Relaxed);
                    if let Some(conn) = self.conns[token].as_mut() {
                        conn.peer_closed = true;
                    }
                    let notice = crate::protocol::too_large_response(None, max_line);
                    self.respond(token, &notice);
                    break;
                }
                self.dispatch_line(token, line);
                consumed += at + 1;
            }
            let too_large = {
                let Some(conn) = self.conns[token].as_mut() else {
                    // A handler closed the connection (write failure).
                    return false;
                };
                // Only the partial tail is retained (and shifted) —
                // complete lines were consumed without leaving the
                // buffer.
                conn.read_buf = buf;
                conn.read_buf.drain(..consumed);
                if conn.read_buf.len() > max_line {
                    // One newline-less line blew the cap: drop the
                    // junk and stop reading — the connection closes
                    // once the typed notice (and any pipelined
                    // responses) flush.
                    conn.read_buf.clear();
                    conn.read_buf.shrink_to_fit();
                    conn.peer_closed = true;
                    true
                } else {
                    if capped {
                        conn.read_pending = true;
                    }
                    false
                }
            };
            if too_large {
                self.inner.stats.requests.fetch_add(1, Ordering::Relaxed);
                self.inner.stats.errors.fetch_add(1, Ordering::Relaxed);
                self.inner.stats.too_large.fetch_add(1, Ordering::Relaxed);
                let notice = crate::protocol::too_large_response(None, max_line);
                self.respond(token, &notice);
            }
            self.conns[token].is_some()
        }

        fn dispatch_line(&mut self, token: usize, raw: &[u8]) {
            if self.conns[token].is_none() {
                // Already closed: spawning now would tag the job with
                // the post-close generation, defeating the slot-reuse
                // guard in `apply_completions` (see the framing loop).
                return;
            }
            let Ok(line) = std::str::from_utf8(raw) else {
                self.inner.stats.requests.fetch_add(1, Ordering::Relaxed);
                self.inner.stats.errors.fetch_add(1, Ordering::Relaxed);
                let reason = crate::protocol::error_response(None, "parse", "invalid UTF-8");
                self.respond(token, &reason);
                return;
            };
            match handle_line(&self.inner, line) {
                None => {}
                Some(Action::Respond(response)) => self.respond(token, &response),
                Some(Action::Execute {
                    id,
                    req,
                    admitted_at,
                }) => {
                    if let Some(conn) = self.conns[token].as_mut() {
                        conn.inflight += 1;
                    }
                    let job_inner = Arc::clone(&self.inner);
                    let io_index = self.index;
                    let generation = self.generations[token];
                    self.inner.pool.spawn(move || {
                        let line = run_schedule(&job_inner, id.as_deref(), &req, admitted_at);
                        let handle = &job_inner.io[io_index];
                        handle.completions.lock().unwrap().push(Completion {
                            token,
                            generation,
                            line,
                        });
                        handle.wake.wake();
                    });
                }
            }
        }

        /// Queues a response line, opportunistically flushes, and
        /// enforces the outbound backlog cap: a consumer that lets
        /// unflushed responses exceed it gets a best-effort typed
        /// `slow_consumer` notice and is disconnected — bounded memory
        /// beats an unbounded `Vec` growing until OOM.
        fn respond(&mut self, token: usize, line: &str) {
            let Some(conn) = self.conns[token].as_mut() else {
                return;
            };
            conn.write_buf.extend_from_slice(line.as_bytes());
            conn.write_buf.push(b'\n');
            if !self.flush(token) {
                self.close(token);
                return;
            }
            let cap = self.inner.cfg.write_cap_bytes.max(1);
            let over = self.conns[token]
                .as_ref()
                .is_some_and(|c| c.backlog() > cap);
            if over {
                self.inner
                    .stats
                    .slow_consumers
                    .fetch_add(1, Ordering::Relaxed);
                if let Some(conn) = self.conns[token].as_mut() {
                    let notice = crate::protocol::slow_consumer_response(cap);
                    conn.write_buf.extend_from_slice(notice.as_bytes());
                    conn.write_buf.push(b'\n');
                }
                let _ = self.flush(token);
                self.close(token);
            }
        }

        /// ET write discipline: write until the kernel pushes back.
        /// Returns `false` when the connection is broken.
        fn flush(&mut self, token: usize) -> bool {
            let Some(conn) = self.conns[token].as_mut() else {
                return true;
            };
            while conn.written < conn.write_buf.len() {
                match conn.stream.write(&conn.write_buf[conn.written..]) {
                    Ok(0) => return false,
                    Ok(n) => conn.written += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => return false,
                }
            }
            if conn.flushed() {
                conn.write_buf.clear();
                conn.written = 0;
            } else if conn.written > WRITE_COMPACT {
                conn.write_buf.drain(..conn.written);
                conn.written = 0;
            }
            true
        }

        /// Delivers worker responses posted to this thread's completion
        /// queue. The queue-depth slot is released here — after the
        /// response bytes are in the connection's write buffer — so the
        /// drain's `depth == 0` means every response has at least
        /// reached its buffer.
        fn apply_completions(&mut self) {
            let pending =
                std::mem::take(&mut *self.inner.io[self.index].completions.lock().unwrap());
            for completion in pending {
                let token = completion.token;
                let live = self.generations.get(token) == Some(&completion.generation)
                    && self.conns[token].is_some();
                if live {
                    if let Some(conn) = self.conns[token].as_mut() {
                        conn.inflight -= 1;
                    }
                    self.respond(token, &completion.line);
                    self.maybe_close(token);
                }
                self.inner.stats.queue_depth.fetch_sub(1, Ordering::Relaxed);
            }
        }

        /// Closes a half-closed connection once nothing more can arrive
        /// for it: the peer sent EOF, every admitted request answered,
        /// and the answers are flushed.
        fn maybe_close(&mut self, token: usize) {
            let done = self.conns[token]
                .as_ref()
                .is_some_and(|c| c.peer_closed && c.inflight == 0 && c.flushed());
            if done {
                self.close(token);
            }
        }

        /// One drain tick; returns true when this IO thread is finished.
        ///
        /// Phases: stop accepting; wait for the global queue depth to
        /// hit zero (every admitted response buffered); give mid-line
        /// connections a typed `overloaded` notice instead of a silent
        /// close; flush everything (bounded grace); close and exit.
        fn drain_step(&mut self, flush_deadline: &mut Option<Instant>) -> bool {
            if let Some(listener) = self.listener.take() {
                let _ = self.poller.delete(listener.as_raw_fd());
            }
            if self.inner.stats.queue_depth.load(Ordering::Relaxed) > 0 {
                return false;
            }
            if flush_deadline.is_none() {
                *flush_deadline = Some(Instant::now() + DRAIN_FLUSH_GRACE);
                let capacity = self.inner.cfg.queue_capacity.max(1);
                for token in 0..self.conns.len() {
                    let mid_line = self.conns[token]
                        .as_mut()
                        .is_some_and(|c| !c.read_buf.is_empty() && !c.drain_notified);
                    if mid_line {
                        if let Some(conn) = self.conns[token].as_mut() {
                            conn.drain_notified = true;
                        }
                        self.inner.stats.overloaded.fetch_add(1, Ordering::Relaxed);
                        self.respond(token, &overloaded_response(None, 0, capacity));
                    }
                }
            }
            let mut all_flushed = true;
            for token in 0..self.conns.len() {
                if self.conns[token].is_some() {
                    if !self.flush(token) {
                        self.close(token);
                    } else if self.conns[token].as_ref().is_some_and(|c| !c.flushed()) {
                        all_flushed = false;
                    }
                }
            }
            if all_flushed || flush_deadline.is_some_and(|d| Instant::now() >= d) {
                for token in 0..self.conns.len() {
                    self.close(token);
                }
                return true;
            }
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tuned_install_compacts_the_cache_log() {
        let path = std::env::temp_dir().join(format!(
            "bsched-serve-tuned-compaction-{}.log",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let server = Server::start(ServerConfig {
            workers: 1,
            io_threads: 1,
            cache_log: Some(path.display().to_string()),
            ..ServerConfig::default()
        })
        .expect("start");
        let inner = &server.inner;
        let line = r#"{"op":"schedule","kernel":"kernel daxpy { arrays x, y; y[0] = 3.0 * x[0] + y[0]; }","system":"N(3,2)","runs":3,"analyze":false,"tune":true}"#;
        let Ok(Request::Schedule(req)) = parse_request(line) else {
            panic!("a schedule request");
        };
        let key = prepare_request(&req).expect("prepares").key();
        // Rewrites of one key leave the log mostly dead records: past
        // the compaction threshold, yet never compacted, because they
        // bypass the install path.
        let stale = "x".repeat(8 * 1024);
        {
            let mut log = inner.log.as_ref().expect("log").lock().unwrap();
            for _ in 0..9 {
                log.append(key, &stale).expect("append");
            }
            assert_eq!(log.counters(), (9, 0));
        }
        background_tune(inner, key, &req).expect("tunes and installs");
        assert_eq!(inner.tuned_installs.load(Ordering::Relaxed), 1);
        let (appends, compactions) = inner.log.as_ref().unwrap().lock().unwrap().counters();
        assert_eq!(appends, 10);
        assert_eq!(compactions, 1, "the tuned install must compact the log");
        server.begin_shutdown();
        server.join();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_lookup_never_waits_on_the_cache_log() {
        let path = std::env::temp_dir().join(format!(
            "bsched-serve-unblocked-lookup-{}.log",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let server = Server::start(ServerConfig {
            workers: 1,
            io_threads: 1,
            cache_log: Some(path.display().to_string()),
            ..ServerConfig::default()
        })
        .expect("start");
        let inner = Arc::clone(&server.inner);
        inner.install(1, &Arc::from("cached"));
        // Holding the log mutex stands in for a slow compaction; an
        // install of a new key then blocks on it.
        let held = inner.log.as_ref().expect("log").lock().unwrap();
        let installer = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || inner.install(2, &Arc::from("new")))
        };
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || {
                while inner.cache.lock().unwrap().len() < 2 {
                    std::thread::yield_now();
                }
                let _ = tx.send(inner.cache.lock().unwrap().get(1));
            })
        };
        let hit = rx.recv_timeout(Duration::from_secs(5));
        drop(held);
        installer.join().unwrap();
        reader.join().unwrap();
        let hit = hit.expect("a lookup must not wait on a blocked install");
        assert_eq!(hit.as_deref(), Some("cached"));
        let counters = inner.log.as_ref().unwrap().lock().unwrap().counters();
        assert_eq!(
            counters,
            (2, 0),
            "the blocked install appends once released"
        );
        server.begin_shutdown();
        server.join();
        let _ = std::fs::remove_file(&path);
    }
}
