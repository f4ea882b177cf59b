//! The controlled-scheduling explorer.
//!
//! # Execution model
//!
//! A model run executes the user's closure on real OS threads, but
//! only **one** of them is ever running user code: a single "token" is
//! handed from the controller to exactly one model thread at a time.
//! Every shim operation ([`crate::sync`]) is a *yield point*: the
//! thread declares the operation it is about to perform
//! (`Status::Pending`), hands the token back, and blocks until the
//! controller grants it. The controller waits until every live thread
//! has declared (quiescence), computes the *enabled* set (a pending
//! `lock` on a held mutex is not enabled; a `join` on a live thread is
//! not enabled), asks the active strategy to pick one, applies the
//! operation's scheduler-visible effect (mutex ownership, condvar
//! wait/wake), records a [`TraceStep`], and hands the token over.
//! Declaring *before* scheduling is what lets the sleep-set reduction
//! and the deadlock detector reason about every thread's next move
//! without lookahead.
//!
//! Because user code runs strictly one-thread-at-a-time, everything
//! that happens between two yield points is atomic from the model's
//! point of view — which is exactly the granularity we want, since the
//! shim interposes on every cross-thread communication primitive.
//!
//! # Determinism and object identity
//!
//! A schedule is replayed by re-executing the closure from scratch
//! (stateless / CHESS-style). Heap addresses differ across runs, so
//! objects are identified by **first-touch interning order**: the k-th
//! distinct object to appear in a scheduled operation gets id k. Only
//! the token holder can construct or touch objects, so interning order
//! is a pure function of the schedule prefix and ids are stable across
//! replays. (Corollary: model tests should keep their atomics/mutexes
//! alive for the whole run — an object freed and reallocated at the
//! same address would alias its id.)
//!
//! # Abandoning a run
//!
//! When a run ends (success, failure, prune, or step limit) the
//! controller sets the `abandoned` flag and wakes everyone; parked
//! model threads panic with a private sentinel that unwinds them out
//! of user code, and the controller waits until every OS thread has
//! exited before returning, so no state leaks into the next schedule.
//! A panic hook (installed once, wrapping any previous hook)
//! suppresses panic spew from model threads — the failure surfaces as
//! a rendered [`Failure`] instead.

use std::collections::HashMap;
use std::fmt;
use std::panic::{self, AssertUnwindSafe, Location};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, OnceLock};

// ---------------------------------------------------------------------------
// Operations
// ---------------------------------------------------------------------------

/// What kind of sync operation a thread is about to perform.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpKind {
    /// Synthetic first op of every model thread.
    Start,
    /// Parent-side half of a thread spawn.
    Spawn,
    /// Wait for a model thread to finish.
    Join,
    AtomicLoad,
    AtomicStore,
    /// Read-modify-write: swap, fetch_add/sub, compare_exchange.
    AtomicRmw,
    MutexLock,
    MutexUnlock,
    /// Atomically release the mutex and start waiting on the condvar.
    CondWait,
    CondNotifyOne,
    CondNotifyAll,
    /// `thread::sleep` — a pure yield point; model time does not pass.
    Sleep,
    /// `thread::yield_now`.
    Yield,
}

impl OpKind {
    /// Can this operation change state another thread observes?
    fn is_write(self) -> bool {
        matches!(
            self,
            OpKind::AtomicStore
                | OpKind::AtomicRmw
                | OpKind::MutexLock
                | OpKind::MutexUnlock
                | OpKind::CondWait
                | OpKind::CondNotifyOne
                | OpKind::CondNotifyAll
        )
    }
}

/// One declared operation. `obj`/`obj2` are interned object ids
/// (0 = none); `target` is a tid for `Spawn`/`Join` (`usize::MAX` =
/// none); `loc` is the production call site via `#[track_caller]`.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    pub(crate) kind: OpKind,
    pub(crate) obj: usize,
    pub(crate) obj2: usize,
    pub(crate) name: &'static str,
    pub(crate) loc: &'static Location<'static>,
    pub(crate) target: usize,
}

/// Identity for cross-run comparison (sleep sets, replay checks).
/// `loc` is deliberately excluded: it is stable too, but `(tid, kind,
/// objects, target)` already pins the op since a thread has at most
/// one pending op.
fn same_op(a: &Op, b: &Op) -> bool {
    a.kind == b.kind && a.obj == b.obj && a.obj2 == b.obj2 && a.target == b.target
}

/// Dependence relation for the sleep-set reduction. Conservative:
/// `true` when reordering the two ops might matter.
fn conflicts(a: &Op, b: &Op) -> bool {
    use OpKind::{Join, Sleep, Spawn, Start, Yield};
    let structural = |k: OpKind| matches!(k, Start | Spawn | Join);
    if structural(a.kind) || structural(b.kind) {
        return true;
    }
    if matches!(a.kind, Sleep | Yield) || matches!(b.kind, Sleep | Yield) {
        return false;
    }
    let overlap = (a.obj != 0 && (a.obj == b.obj || a.obj == b.obj2))
        || (a.obj2 != 0 && (a.obj2 == b.obj || a.obj2 == b.obj2));
    overlap && (a.kind.is_write() || b.kind.is_write())
}

/// A runnable `(thread, declared op)` pair offered to the strategy.
#[derive(Clone, Debug)]
pub(crate) struct Candidate {
    pub(crate) tid: usize,
    pub(crate) op: Op,
}

// ---------------------------------------------------------------------------
// Execution state
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Turn {
    Controller,
    Thread(usize),
}

#[derive(Debug)]
enum Status {
    /// Spawned; has not reached its `Start` op yet.
    Starting,
    /// Declared an op; waiting for the controller to grant it.
    Pending(Op),
    /// Holds the token and is executing user code.
    Running,
    /// Parked on a condvar; woken only by a notify (back to `Pending`
    /// with a synthetic lock-reacquire op).
    WaitingCond {
        cv: usize,
        mutex: usize,
        op: Op,
    },
    Finished,
    Panicked,
}

struct ThreadState {
    status: Status,
    name: String,
}

struct ExecState {
    turn: Turn,
    threads: Vec<ThreadState>,
    /// mutex object id → owning tid.
    mutex_owner: HashMap<usize, usize>,
    /// raw address → interned object id (first-touch order).
    interned: HashMap<usize, usize>,
    step: usize,
    trace: Vec<TraceStep>,
    schedule: Vec<usize>,
    abandoned: bool,
    failure: Option<String>,
    /// OS threads that have been registered and not yet exited.
    live_os: usize,
}

/// One model run's shared state: a single lock + condvar carries the
/// token handoff between the controller and all model threads.
pub(crate) struct Execution {
    state: StdMutex<ExecState>,
    cv: StdCondvar,
}

/// Panic payload used to unwind parked threads when a run is
/// abandoned. Never observable by user code that completes normally.
struct Abandon;

thread_local! {
    static CURRENT: std::cell::RefCell<Option<(Arc<Execution>, usize)>> =
        const { std::cell::RefCell::new(None) };
}

/// The active `(execution, tid)` for this OS thread, if it is a model
/// thread. The shim falls through to plain std behaviour when `None`.
pub(crate) fn current_ctx() -> Option<(Arc<Execution>, usize)> {
    CURRENT.with(|c| c.borrow().clone())
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// Suppress panic spew from model threads; the failure is rendered as
/// a schedule trace instead. Installed once, delegating to whatever
/// hook was in place before.
fn install_panic_hook() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let model_thread = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("bsched-model-t"));
            if !model_thread {
                prev(info);
            }
        }));
    });
}

impl Execution {
    fn new() -> Execution {
        Execution {
            state: StdMutex::new(ExecState {
                turn: Turn::Controller,
                threads: Vec::new(),
                mutex_owner: HashMap::new(),
                interned: HashMap::new(),
                step: 0,
                trace: Vec::new(),
                schedule: Vec::new(),
                abandoned: false,
                failure: None,
                live_os: 0,
            }),
            cv: StdCondvar::new(),
        }
    }

    /// Declare an op, yield the token, and block until granted (or
    /// the run is abandoned, in which case this panics the thread out
    /// of user code). For `CondWait` the single call spans the whole
    /// wait: it returns only once a notify has moved the thread back
    /// to pending *and* the controller has granted the lock reacquire.
    // A flat argument list: this is the shim's single internal hook,
    // and an Op-builder struct would repeat every field at each of the
    // ~20 macro-generated call sites.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn yield_op(
        self: &Arc<Execution>,
        me: usize,
        kind: OpKind,
        raw_obj: usize,
        raw_obj2: usize,
        name: &'static str,
        loc: &'static Location<'static>,
        target: usize,
    ) {
        let mut st = self.state.lock().unwrap();
        if st.abandoned {
            drop(st);
            // Ops reached while unwinding an abandoned run (e.g. a
            // MutexGuard dropped by the abandon panic itself) must not
            // re-panic: a panic inside a panic aborts the process.
            if std::thread::panicking() {
                return;
            }
            panic::panic_any(Abandon);
        }
        let obj = intern(&mut st, raw_obj);
        let obj2 = intern(&mut st, raw_obj2);
        let op = Op {
            kind,
            obj,
            obj2,
            name,
            loc,
            target,
        };
        st.threads[me].status = Status::Pending(op);
        if st.turn == Turn::Thread(me) {
            st.turn = Turn::Controller;
        }
        self.cv.notify_all();
        loop {
            if st.abandoned {
                drop(st);
                if std::thread::panicking() {
                    return;
                }
                panic::panic_any(Abandon);
            }
            if matches!(st.threads[me].status, Status::Running) {
                return;
            }
            st = self.cv.wait(st).unwrap();
        }
    }

    /// The controller side of one schedule: wait for quiescence, pick,
    /// apply, repeat — then tear the run down completely.
    fn run_controller(
        self: &Arc<Execution>,
        cfg: &Config,
        chooser: &mut dyn FnMut(&[Candidate]) -> Choice,
    ) -> RunResult {
        let mut st = self.state.lock().unwrap();
        let outcome = loop {
            while st.failure.is_none() && !quiescent(&st) {
                st = self.cv.wait(st).unwrap();
            }
            if let Some(msg) = st.failure.clone() {
                break Outcome::Failure(msg);
            }
            if st
                .threads
                .iter()
                .all(|t| matches!(t.status, Status::Finished))
            {
                break Outcome::Ok;
            }
            if st.step >= cfg.max_steps {
                break Outcome::StepLimit;
            }
            let enabled = enabled_candidates(&st);
            if enabled.is_empty() {
                break Outcome::Failure(deadlock_message(&st));
            }
            let pick = match chooser(&enabled) {
                Choice::Pick(i) => enabled[i].clone(),
                Choice::Prune => break Outcome::Pruned,
            };
            let tid = pick.tid;
            let op = pick.op;
            let mut note = String::new();
            match op.kind {
                OpKind::MutexLock => {
                    st.mutex_owner.insert(op.obj, tid);
                }
                OpKind::MutexUnlock => {
                    st.mutex_owner.remove(&op.obj);
                }
                OpKind::CondWait => {
                    // Release the mutex and park; the token stays with
                    // the controller — nobody is granted this step's
                    // "other half", the next loop iteration picks who
                    // runs while tid waits.
                    st.mutex_owner.remove(&op.obj2);
                    st.threads[tid].status = Status::WaitingCond {
                        cv: op.obj,
                        mutex: op.obj2,
                        op,
                    };
                    record_step(&mut st, tid, op, String::new());
                    continue;
                }
                OpKind::CondNotifyOne | OpKind::CondNotifyAll => {
                    let all = op.kind == OpKind::CondNotifyAll;
                    let mut woken = Vec::new();
                    for (wtid, t) in st.threads.iter().enumerate() {
                        if let Status::WaitingCond { cv, .. } = t.status {
                            if cv == op.obj {
                                woken.push(wtid);
                                if !all {
                                    break;
                                }
                            }
                        }
                    }
                    for &wtid in &woken {
                        let Status::WaitingCond { mutex, op: wop, .. } = st.threads[wtid].status
                        else {
                            unreachable!("collected above")
                        };
                        // The waiter's next move is reacquiring the
                        // mutex it released when it began waiting.
                        st.threads[wtid].status = Status::Pending(Op {
                            kind: OpKind::MutexLock,
                            obj: mutex,
                            obj2: 0,
                            name: "relock-after-wait",
                            loc: wop.loc,
                            target: usize::MAX,
                        });
                    }
                    note = if woken.is_empty() {
                        "wakes nobody".to_owned()
                    } else {
                        format!(
                            "wakes {}",
                            woken
                                .iter()
                                .map(|t| format!("t{t}"))
                                .collect::<Vec<_>>()
                                .join(",")
                        )
                    };
                }
                _ => {}
            }
            record_step(&mut st, tid, op, note);
            st.threads[tid].status = Status::Running;
            st.turn = Turn::Thread(tid);
            self.cv.notify_all();
        };
        // Teardown: unwind every parked thread and wait for all OS
        // threads to exit so nothing leaks into the next schedule.
        st.abandoned = true;
        self.cv.notify_all();
        while st.live_os > 0 {
            st = self.cv.wait(st).unwrap();
        }
        RunResult {
            outcome,
            trace: Trace {
                steps: std::mem::take(&mut st.trace),
            },
            schedule: std::mem::take(&mut st.schedule),
            steps: st.step,
        }
    }
}

fn intern(st: &mut ExecState, raw: usize) -> usize {
    if raw == 0 {
        return 0;
    }
    let next = st.interned.len() + 1;
    *st.interned.entry(raw).or_insert(next)
}

fn quiescent(st: &ExecState) -> bool {
    st.turn == Turn::Controller
        && st
            .threads
            .iter()
            .all(|t| !matches!(t.status, Status::Starting | Status::Running))
}

fn enabled_candidates(st: &ExecState) -> Vec<Candidate> {
    let mut out = Vec::new();
    for (tid, t) in st.threads.iter().enumerate() {
        if let Status::Pending(op) = t.status {
            let runnable = match op.kind {
                OpKind::MutexLock => !st.mutex_owner.contains_key(&op.obj),
                OpKind::Join => matches!(
                    st.threads[op.target].status,
                    Status::Finished | Status::Panicked
                ),
                _ => true,
            };
            if runnable {
                out.push(Candidate { tid, op });
            }
        }
    }
    out
}

fn record_step(st: &mut ExecState, tid: usize, op: Op, note: String) {
    st.schedule.push(tid);
    st.step += 1;
    let step = st.step;
    st.trace.push(TraceStep {
        step,
        tid,
        thread: st.threads[tid].name.clone(),
        kind: op.kind,
        name: op.name,
        obj: op.obj,
        loc: format!("{}:{}", op.loc.file(), op.loc.line()),
        note,
    });
}

fn deadlock_message(st: &ExecState) -> String {
    let mut msg = String::from("deadlock: no runnable thread\n");
    let all_cond = st
        .threads
        .iter()
        .all(|t| matches!(t.status, Status::WaitingCond { .. } | Status::Finished));
    for (tid, t) in st.threads.iter().enumerate() {
        let line = match &t.status {
            Status::Pending(op) => match op.kind {
                OpKind::MutexLock => format!(
                    "blocked locking mutex obj#{} at {}:{}",
                    op.obj,
                    op.loc.file(),
                    op.loc.line()
                ),
                OpKind::Join => format!("joining t{}, which never finishes", op.target),
                _ => format!("pending {} (disabled)", op.name),
            },
            Status::WaitingCond { cv, .. } => {
                format!("waiting on condvar obj#{cv} with no notifier left — possible lost wakeup")
            }
            Status::Finished => "finished".to_owned(),
            other => format!("{other:?}"),
        };
        msg.push_str(&format!("  t{tid} ({}): {line}\n", t.name));
    }
    if all_cond {
        msg.push_str("  (every live thread is in a condvar wait: lost wakeup)\n");
    }
    msg
}

// ---------------------------------------------------------------------------
// Thread registration / spawning (used by sync::thread and run_one)
// ---------------------------------------------------------------------------

/// Reserve a tid and count its OS thread as live *before* it spawns,
/// so the controller's teardown can never miss it.
pub(crate) fn register_thread(exec: &Arc<Execution>, name: String) -> usize {
    let mut st = exec.state.lock().unwrap();
    let tid = st.threads.len();
    st.threads.push(ThreadState {
        status: Status::Starting,
        name,
    });
    st.live_os += 1;
    tid
}

/// Spawn the OS thread backing model thread `tid`. The wrapper
/// installs the thread-local context, emits the `Start` op, runs `f`
/// under `catch_unwind`, and records the outcome; a non-abandon panic
/// becomes the run's failure.
pub(crate) fn spawn_model_thread<T: Send + 'static>(
    exec: &Arc<Execution>,
    tid: usize,
    loc: &'static Location<'static>,
    f: impl FnOnce() -> T + Send + 'static,
) -> std::thread::JoinHandle<T> {
    install_panic_hook();
    let exec = exec.clone();
    std::thread::Builder::new()
        .name(format!("bsched-model-t{tid}"))
        .spawn(move || {
            struct Live(Arc<Execution>);
            impl Drop for Live {
                fn drop(&mut self) {
                    let mut st = self.0.state.lock().unwrap();
                    st.live_os -= 1;
                    drop(st);
                    self.0.cv.notify_all();
                }
            }
            CURRENT.with(|c| *c.borrow_mut() = Some((exec.clone(), tid)));
            let live = Live(exec.clone());
            let res = panic::catch_unwind(AssertUnwindSafe(|| {
                exec.yield_op(tid, OpKind::Start, 0, 0, "start", loc, usize::MAX);
                f()
            }));
            CURRENT.with(|c| *c.borrow_mut() = None);
            let mut st = exec.state.lock().unwrap();
            match res {
                Ok(v) => {
                    st.threads[tid].status = Status::Finished;
                    if st.turn == Turn::Thread(tid) {
                        st.turn = Turn::Controller;
                    }
                    drop(st);
                    exec.cv.notify_all();
                    drop(live);
                    v
                }
                Err(payload) => {
                    st.threads[tid].status = Status::Panicked;
                    if st.turn == Turn::Thread(tid) {
                        st.turn = Turn::Controller;
                    }
                    if payload.downcast_ref::<Abandon>().is_none() && st.failure.is_none() {
                        let name = st.threads[tid].name.clone();
                        st.failure = Some(format!(
                            "thread t{tid} ({name}) panicked: {}",
                            panic_message(payload.as_ref())
                        ));
                        st.abandoned = true;
                    }
                    drop(st);
                    exec.cv.notify_all();
                    drop(live);
                    panic::resume_unwind(payload)
                }
            }
        })
        .expect("bsched-model: failed to spawn model thread")
}

// ---------------------------------------------------------------------------
// One run
// ---------------------------------------------------------------------------

enum Choice {
    Pick(usize),
    Prune,
}

#[derive(Debug)]
enum Outcome {
    Ok,
    Failure(String),
    Pruned,
    StepLimit,
}

struct RunResult {
    outcome: Outcome,
    trace: Trace,
    schedule: Vec<usize>,
    steps: usize,
}

fn run_one<F>(
    cfg: &Config,
    model: &Arc<F>,
    chooser: &mut dyn FnMut(&[Candidate]) -> Choice,
) -> RunResult
where
    F: Fn() + Send + Sync + 'static,
{
    let exec = Arc::new(Execution::new());
    let tid = register_thread(&exec, "main".to_owned());
    let m = Arc::clone(model);
    // Detached deliberately: the controller's teardown waits for
    // live_os == 0, which the wrapper's drop guard decrements.
    let _root = spawn_model_thread(&exec, tid, Location::caller(), move || (m)());
    exec.run_controller(cfg, chooser)
}

// ---------------------------------------------------------------------------
// Public API: config, report, strategies
// ---------------------------------------------------------------------------

/// Exploration bounds and knobs. `Default` suits small models.
#[derive(Clone, Debug)]
pub struct Config {
    /// Per-schedule step bound; hitting it is a failure when
    /// `fail_on_step_limit` (the default) — models are expected to
    /// terminate — or a silent prune otherwise (for models that loop
    /// until an external stop, e.g. the health prober).
    pub max_steps: usize,
    /// Total schedules bound for [`explore`]; the report's `complete`
    /// is false if the bound was hit.
    pub max_schedules: u64,
    /// CHESS-style preemption bound for [`explore`]: limits schedules
    /// to at most N involuntary context switches. `None` = unbounded.
    pub preemption_bound: Option<usize>,
    /// Sleep-set (DPOR-lite) reduction for [`explore`]; on by default,
    /// switch off only to measure how much it saves.
    pub reduction: bool,
    pub fail_on_step_limit: bool,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            max_steps: 20_000,
            max_schedules: 1_000_000,
            preemption_bound: None,
            reduction: true,
            fail_on_step_limit: true,
        }
    }
}

/// One step of a recorded interleaving.
pub struct TraceStep {
    pub step: usize,
    pub tid: usize,
    pub thread: String,
    pub kind: OpKind,
    pub name: &'static str,
    pub obj: usize,
    pub loc: String,
    pub note: String,
}

/// The full interleaving of a schedule, printable step-by-step.
pub struct Trace {
    pub steps: Vec<TraceStep>,
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.steps {
            write!(
                f,
                "  #{:<4} t{}({}) {:<18}",
                s.step,
                s.tid,
                s.thread,
                format!("{} {:?}", s.name, s.kind)
            )?;
            if s.obj != 0 {
                write!(f, " obj#{:<3}", s.obj)?;
            } else {
                write!(f, "        ")?;
            }
            write!(f, " at {}", s.loc)?;
            if !s.note.is_empty() {
                write!(f, "  [{}]", s.note)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// A bug found by exploration: what went wrong, the interleaving that
/// triggered it, and the schedule to hand to [`replay`].
pub struct Failure {
    pub message: String,
    pub trace: Trace,
    /// The chosen tid at each step — feed to [`replay`] to reproduce.
    pub schedule: Vec<usize>,
}

impl Failure {
    /// Human-readable rendering: message, replay schedule, trace.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "model check failed: {}\nreplay schedule ({} steps): {:?}\ninterleaving:\n{}",
            self.message,
            self.schedule.len(),
            self.schedule,
            self.trace
        )
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// What an exploration did and whether it found anything.
pub struct Report {
    pub schedules_run: u64,
    /// True iff the state space was exhausted within every bound
    /// (always false for PCT, which samples).
    pub complete: bool,
    pub failure: Option<Failure>,
}

// --- DFS with sleep sets ---------------------------------------------------

struct Frame {
    /// enabled \ sleep at first visit; exploration order is fixed.
    candidates: Vec<Candidate>,
    idx: usize,
    /// Sleep set on entry to this node.
    sleep: Vec<Candidate>,
}

/// Bounded exhaustive DFS over all schedules, with sleep-set
/// reduction: after exploring a transition from a node, it enters the
/// node's sleep set, and descendants drop sleeping transitions that
/// stay independent of every step taken — pruning interleavings that
/// only commute independent ops. Sound for safety properties and
/// deadlocks (every Mazurkiewicz trace is still visited once).
pub fn explore<F>(cfg: &Config, model: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    let model = Arc::new(model);
    let mut stack: Vec<Frame> = Vec::new();
    let mut schedules_run: u64 = 0;
    let mut complete = true;

    loop {
        let mut depth = 0usize;
        let mut cur_sleep: Vec<Candidate> = Vec::new();
        let mut last_tid: Option<usize> = None;
        let mut preempt_used = 0usize;
        let mut divergence: Option<String> = None;

        let result = run_one(cfg, &model, &mut |enabled| {
            if depth < stack.len() {
                // Replay the committed prefix.
                let fr = &stack[depth];
                let want = fr.candidates[fr.idx].clone();
                let Some(pos) = enabled
                    .iter()
                    .position(|c| c.tid == want.tid && same_op(&c.op, &want.op))
                else {
                    divergence = Some(format!(
                        "replay divergence at depth {depth}: expected t{} {} but it is not enabled \
                         — the model is nondeterministic beyond its sync ops",
                        want.tid, want.op.name
                    ));
                    return Choice::Prune;
                };
                let mut s = fr.sleep.clone();
                s.extend_from_slice(&fr.candidates[..fr.idx]);
                s.retain(|x| !conflicts(&x.op, &want.op));
                cur_sleep = s;
                if let Some(l) = last_tid {
                    if l != want.tid && enabled.iter().any(|c| c.tid == l) {
                        preempt_used += 1;
                    }
                }
                last_tid = Some(want.tid);
                depth += 1;
                Choice::Pick(pos)
            } else {
                // Fresh frontier node.
                let mut cands: Vec<Candidate> = if cfg.reduction {
                    enabled
                        .iter()
                        .filter(|c| {
                            !cur_sleep
                                .iter()
                                .any(|s| s.tid == c.tid && same_op(&s.op, &c.op))
                        })
                        .cloned()
                        .collect()
                } else {
                    enabled.to_vec()
                };
                if let Some(bound) = cfg.preemption_bound {
                    if preempt_used >= bound {
                        if let Some(l) = last_tid {
                            if cands.iter().any(|c| c.tid == l) {
                                cands.retain(|c| c.tid == l);
                            }
                        }
                    }
                }
                if cands.is_empty() {
                    // Everything enabled is asleep: this whole subtree
                    // is covered by an already-explored reordering.
                    return Choice::Prune;
                }
                let chosen = cands[0].clone();
                let pos = enabled
                    .iter()
                    .position(|c| c.tid == chosen.tid && same_op(&c.op, &chosen.op))
                    .expect("candidate came from enabled");
                stack.push(Frame {
                    candidates: cands,
                    idx: 0,
                    sleep: cur_sleep.clone(),
                });
                cur_sleep.retain(|x| !conflicts(&x.op, &chosen.op));
                if let Some(l) = last_tid {
                    if l != chosen.tid && enabled.iter().any(|c| c.tid == l) {
                        preempt_used += 1;
                    }
                }
                last_tid = Some(chosen.tid);
                depth += 1;
                Choice::Pick(pos)
            }
        });

        schedules_run += 1;
        if let Some(msg) = divergence {
            return Report {
                schedules_run,
                complete: false,
                failure: Some(Failure {
                    message: msg,
                    trace: result.trace,
                    schedule: result.schedule,
                }),
            };
        }
        match result.outcome {
            Outcome::Failure(message) => {
                return Report {
                    schedules_run,
                    complete: false,
                    failure: Some(Failure {
                        message,
                        trace: result.trace,
                        schedule: result.schedule,
                    }),
                };
            }
            Outcome::StepLimit => {
                if cfg.fail_on_step_limit {
                    return Report {
                        schedules_run,
                        complete: false,
                        failure: Some(Failure {
                            message: format!(
                                "schedule exceeded max_steps = {} — non-terminating model \
                                 or livelock",
                                cfg.max_steps
                            ),
                            trace: result.trace,
                            schedule: result.schedule,
                        }),
                    };
                }
                complete = false;
            }
            Outcome::Ok | Outcome::Pruned => {}
        }

        // Backtrack: advance the deepest frame with siblings left.
        while let Some(fr) = stack.last_mut() {
            fr.idx += 1;
            if fr.idx < fr.candidates.len() {
                break;
            }
            stack.pop();
        }
        if stack.is_empty() {
            return Report {
                schedules_run,
                complete,
                failure: None,
            };
        }
        if schedules_run >= cfg.max_schedules {
            return Report {
                schedules_run,
                complete: false,
                failure: None,
            };
        }
    }
}

// --- PCT -------------------------------------------------------------------

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Seeded PCT (probabilistic concurrency testing): each schedule draws
/// random per-thread priorities plus `depth` priority-change points;
/// the scheduler always runs the highest-priority enabled thread.
/// For a bug of depth d, each schedule finds it with probability
/// ≥ 1/(n·k^(d-1)) — so thousands of schedules give real coverage
/// where exhaustive search cannot finish. Fully deterministic per
/// `(seed, schedule index)`; a found failure carries its replayable
/// schedule like any other.
pub fn explore_pct<F>(cfg: &Config, seed: u64, schedules: u64, depth: usize, model: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    let model = Arc::new(model);
    let mut est_len: usize = 64;
    let mut schedules_run: u64 = 0;
    for i in 0..schedules {
        let mut rng = SplitMix64(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1));
        let points: Vec<usize> = (0..depth)
            .map(|_| (rng.next() as usize) % est_len.max(1) + 1)
            .collect();
        let mut prios: HashMap<usize, u64> = HashMap::new();
        let mut demotions: u64 = 0;
        let mut step = 0usize;
        let result = run_one(cfg, &model, &mut |enabled| {
            for c in enabled {
                // Lazy assignment in candidate (= tid) order keeps the
                // rng stream deterministic per schedule.
                prios.entry(c.tid).or_insert_with(|| rng.next() | (1 << 63));
            }
            step += 1;
            if points.contains(&step) {
                if let Some(hi) = enabled.iter().max_by_key(|c| prios[&c.tid]) {
                    demotions += 1;
                    prios.insert(hi.tid, demotions);
                }
            }
            let pos = enabled
                .iter()
                .enumerate()
                .max_by_key(|(_, c)| prios[&c.tid])
                .map(|(i, _)| i)
                .expect("enabled is non-empty");
            Choice::Pick(pos)
        });
        schedules_run += 1;
        est_len = result.steps.max(1);
        match result.outcome {
            Outcome::Failure(message) => {
                return Report {
                    schedules_run,
                    complete: false,
                    failure: Some(Failure {
                        message,
                        trace: result.trace,
                        schedule: result.schedule,
                    }),
                };
            }
            Outcome::StepLimit if cfg.fail_on_step_limit => {
                return Report {
                    schedules_run,
                    complete: false,
                    failure: Some(Failure {
                        message: format!(
                            "schedule exceeded max_steps = {} — non-terminating model or livelock",
                            cfg.max_steps
                        ),
                        trace: result.trace,
                        schedule: result.schedule,
                    }),
                };
            }
            _ => {}
        }
    }
    Report {
        schedules_run,
        complete: false,
        failure: None,
    }
}

// --- Replay ----------------------------------------------------------------

/// Re-execute one recorded schedule (the `schedule` field of a
/// [`Failure`]) and report what happens — the step-by-step trace of a
/// failing run, deterministically reproduced.
pub fn replay<F>(cfg: &Config, schedule: &[usize], model: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    let model = Arc::new(model);
    let mut k = 0usize;
    let mut divergence: Option<String> = None;
    let result = run_one(cfg, &model, &mut |enabled| {
        let pick = if k < schedule.len() {
            let want = schedule[k];
            match enabled.iter().position(|c| c.tid == want) {
                Some(p) => p,
                None => {
                    divergence = Some(format!(
                        "replay divergence at step {k}: t{want} is not enabled"
                    ));
                    return Choice::Prune;
                }
            }
        } else {
            0
        };
        k += 1;
        Choice::Pick(pick)
    });
    let failure = match (divergence, result.outcome) {
        (Some(msg), _) | (None, Outcome::Failure(msg)) => Some(Failure {
            message: msg,
            trace: result.trace,
            schedule: result.schedule,
        }),
        (None, Outcome::StepLimit) if cfg.fail_on_step_limit => Some(Failure {
            message: format!("schedule exceeded max_steps = {}", cfg.max_steps),
            trace: result.trace,
            schedule: result.schedule,
        }),
        _ => None,
    };
    Report {
        schedules_run: 1,
        complete: false,
        failure,
    }
}

// --- Panic-on-failure conveniences ----------------------------------------

/// [`explore`] and panic with the rendered failure if one is found.
/// The usual entry point for a model test.
pub fn check<F>(cfg: &Config, model: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    let report = explore(cfg, model);
    if let Some(f) = &report.failure {
        panic!("{}", f.render());
    }
    report
}

/// [`explore_pct`] and panic with the rendered failure if one is found.
pub fn check_pct<F>(cfg: &Config, seed: u64, schedules: u64, depth: usize, model: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    let report = explore_pct(cfg, seed, schedules, depth, model);
    if let Some(f) = &report.failure {
        panic!("{}", f.render());
    }
    report
}
