//! Deterministic fork-join parallelism for the experiment harness.
//!
//! The measurement protocol derives every random stream from a master
//! seed by *counter splitting* (`Pcg32::split`), so per-item work is a
//! pure function of the item index — which items run on which OS thread
//! cannot change any result. [`parallel_map`] exploits that: it fans a
//! slice out over a dynamic work queue and returns results **in item
//! order**, so callers fold them exactly as a serial loop would and get
//! bit-identical output.
//!
//! Thread count comes from the `BSCHED_THREADS` environment variable
//! (read on every call, so a caller can change it between calls),
//! defaulting to the machine's available parallelism.
//! `BSCHED_THREADS=1` forces serial execution everywhere. The [`env`](mod@env)
//! module reads and documents every `BSCHED_*` variable.
//!
//! Nested calls degrade gracefully: a `parallel_map` running inside a
//! worker thread of another `parallel_map` executes serially instead of
//! oversubscribing the machine. The harness relies on this — the bench
//! crate parallelises over table cells while `evaluate()` parallelises
//! over blocks, and whichever fans out first wins.
//!
//! Panics are isolated **per item**, never per pool: a panicking item
//! cannot stall the work queue or poison the worker state, and every
//! other item still runs to completion. [`parallel_map`] then re-raises
//! the first panic in *item order* (so which thread hit it first cannot
//! change what the caller observes), while [`parallel_map_catch`]
//! instead hands each item's outcome back as a
//! `Result<R, `[`CaughtPanic`]`>` for callers that degrade gracefully.
//!
//! # Example
//!
//! ```
//! let squares = bsched_par::parallel_map(&[1u64, 2, 3, 4], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![warn(missing_docs)]

pub mod env;
pub mod pool;
pub mod sync;

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

pub use pool::{global_pool, PoolMetrics, WorkerPool};

thread_local! {
    /// Set inside pool worker threads so nested calls run serially
    /// instead of spawning threads-of-threads.
    pub(crate) static IN_PARALLEL: Cell<bool> = const { Cell::new(false) };
}

/// True when called from inside a [`parallel_map`] worker thread.
#[must_use]
pub fn in_parallel_worker() -> bool {
    IN_PARALLEL.with(Cell::get)
}

/// The number of worker threads fan-out points should use right now:
/// `BSCHED_THREADS` when set, otherwise the machine's available
/// parallelism. Re-read on every call.
///
/// # Panics
///
/// When `BSCHED_THREADS` is not a positive integer (see [`env`](mod@env)).
#[must_use]
pub fn max_threads() -> usize {
    env::var::<std::num::NonZeroUsize>("BSCHED_THREADS")
        .or_else(|| std::thread::available_parallelism().ok())
        .map_or(1, usize::from)
}

/// A panic caught while mapping one item, rendered to text.
///
/// The original payload is consumed where it is caught (payloads are not
/// `Clone`); what travels back to the caller is the panic message — a
/// `&str` or `String` payload verbatim, anything else a placeholder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaughtPanic {
    message: String,
}

impl CaughtPanic {
    fn from_payload(payload: &(dyn Any + Send)) -> Self {
        let message = if let Some(s) = payload.downcast_ref::<&'static str>() {
            (*s).to_owned()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_owned()
        };
        Self { message }
    }

    /// The panic message.
    #[must_use]
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl std::fmt::Display for CaughtPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "panicked: {}", self.message)
    }
}

impl std::error::Error for CaughtPanic {}

/// Maps `f` over `items` on up to [`max_threads`] threads, returning
/// results in item order.
///
/// `f` receives `(index, &item)` and must be a pure function of them for
/// the order guarantee to mean anything. Equivalent to
/// `items.iter().enumerate().map(..).collect()` — including panic
/// propagation — just faster.
///
/// # Panics
///
/// If any item's `f` panics, every other item still completes, and the
/// first panic **in item order** is re-raised with its original payload
/// — the same panic a serial loop would have surfaced, regardless of
/// which worker thread happened to hit one first.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_map_with(max_threads(), items, f)
}

/// [`parallel_map`] with an explicit thread budget (tests use this to
/// compare serial and parallel execution without touching the
/// environment). `threads <= 1` runs serially on the calling thread, as
/// does any call nested inside another `parallel_map`.
pub fn parallel_map_with<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    for result in run_isolated(threads, items, f) {
        match result {
            Ok(r) => out.push(r),
            Err(payload) => resume_unwind(payload),
        }
    }
    out
}

/// Like [`parallel_map`], but a panicking item becomes an `Err` in its
/// slot instead of unwinding: all other items complete and their results
/// come back in item order. The degradation path of the table harness —
/// one poisoned cell must not take down the run.
pub fn parallel_map_catch<T, R, F>(items: &[T], f: F) -> Vec<Result<R, CaughtPanic>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_map_catch_with(max_threads(), items, f)
}

/// [`parallel_map_catch`] with an explicit thread budget.
pub fn parallel_map_catch_with<T, R, F>(
    threads: usize,
    items: &[T],
    f: F,
) -> Vec<Result<R, CaughtPanic>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    run_isolated(threads, items, f)
        .into_iter()
        .map(|r| r.map_err(|payload| CaughtPanic::from_payload(payload.as_ref())))
        .collect()
}

/// The shared engine: every item's `f` runs inside `catch_unwind`, so a
/// drain job can never unwind — the work queue always empties and no
/// pool worker ever dies mid-fan-out.
///
/// The parallel path runs on the [`global_pool`]: `threads - 1` drain
/// jobs are submitted and the calling thread drains alongside them, so
/// the fan-out makes progress even when every pool worker is busy with
/// someone else's work.
fn run_isolated<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<Result<R, Box<dyn Any + Send>>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let call = |i: usize| catch_unwind(AssertUnwindSafe(|| f(i, &items[i])));
    if threads <= 1 || n <= 1 || in_parallel_worker() {
        // A one-thread budget binds what `f` fans out; a short map does
        // not. `call` catches panics, so the flag is always restored.
        let outer = IN_PARALLEL.with(|flag| flag.replace(flag.get() || threads <= 1));
        let out = (0..n).map(call).collect();
        IN_PARALLEL.with(|flag| flag.set(outer));
        return out;
    }
    let threads = threads.min(n);

    // Pool workers inherit the spawner's fault context and cancel
    // token: a fan-out *within* one watched cell keeps charging faults
    // to that cell and still observes its watchdog.
    let fault_ctx = bsched_faults::current_context();
    let cancel = bsched_faults::current_cancel_token();

    // Dynamic work queue: drains race on a shared counter so uneven
    // item costs (block sizes vary wildly) still balance.
    type Outcome<R> = Result<R, Box<dyn Any + Send>>;
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Outcome<R>)>> = Mutex::new(Vec::new());
    let drain = |participant_is_caller: bool| {
        if !participant_is_caller {
            bsched_faults::set_context(fault_ctx.clone());
            bsched_faults::set_cancel_token(cancel.clone());
        }
        let mut local = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            local.push((i, call(i)));
        }
        if !local.is_empty() {
            done.lock().unwrap().extend(local);
        }
    };
    let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (1..threads)
        .map(|_| Box::new(|| drain(false)) as Box<dyn FnOnce() + Send + '_>)
        .collect();
    pool::global_pool().scope(jobs, || {
        // The caller keeps its own fault context but drains as a worker
        // so nested fan-outs inside `f` stay serial here too.
        IN_PARALLEL.with(|flag| flag.set(true));
        drain(true);
        IN_PARALLEL.with(|flag| flag.set(false));
    });

    let mut slots: Vec<Option<Result<R, _>>> = std::iter::repeat_with(|| None).take(n).collect();
    for (i, r) in done.into_inner().unwrap() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|r| r.expect("every index was claimed by exactly one drain"))
        .collect()
}

/// A wall-clock watchdog fired before the guarded work finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timeout {
    /// The configured limit.
    pub limit: Duration,
}

impl std::fmt::Display for Timeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "timed out after {:?}", self.limit)
    }
}

impl std::error::Error for Timeout {}

/// Runs `f` under a wall-clock watchdog.
///
/// `f` executes on a dedicated thread that inherits the caller's fault
/// context, nested-parallelism flag, and a fresh
/// [`bsched_faults::CancelToken`]. If it finishes within `limit`, its
/// result comes back as `Ok`. If the deadline passes first, the token is
/// cancelled — cooperative loops (the simulator checks between runs)
/// notice and bail — and the caller gets `Err(Timeout)` immediately; the
/// abandoned thread unwinds on its own and its late result is discarded.
///
/// # Errors
///
/// `Err(Timeout)` when the deadline passes before `f` returns.
///
/// # Panics
///
/// A panic inside `f` (within the deadline) is re-raised on the calling
/// thread with its original payload, exactly as if `f` had been called
/// directly.
pub fn run_with_timeout<R, F>(limit: Duration, f: F) -> Result<R, Timeout>
where
    R: Send + 'static,
    F: FnOnce() -> R + Send + 'static,
{
    let token = bsched_faults::CancelToken::new();
    let worker_token = token.clone();
    let fault_ctx = bsched_faults::current_context();
    let nested = in_parallel_worker();
    let (tx, rx) = mpsc::sync_channel(1);
    // Detached on purpose: `std::thread::scope` would have to join the
    // runaway thread, which is exactly what a watchdog must not do.
    std::thread::spawn(move || {
        IN_PARALLEL.with(|flag| flag.set(nested));
        bsched_faults::set_context(fault_ctx);
        let outcome =
            bsched_faults::with_cancel_token(worker_token, || catch_unwind(AssertUnwindSafe(f)));
        // The receiver is gone once the watchdog fires; a late result
        // (or late panic) is deliberately dropped with it.
        let _ = tx.send(outcome);
    });
    match rx.recv_timeout(limit) {
        Ok(Ok(result)) => Ok(result),
        Ok(Err(payload)) => resume_unwind(payload),
        Err(_) => {
            token.cancel();
            Err(Timeout { limit })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order() {
        let items: Vec<usize> = (0..257).collect();
        let serial: Vec<usize> = items.iter().map(|&x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let par = parallel_map_with(threads, &items, |_, &x| x * 3 + 1);
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn index_matches_item_position() {
        let items = [10u64, 20, 30, 40, 50];
        let pairs = parallel_map_with(4, &items, |i, &x| (i, x));
        for (i, (idx, x)) in pairs.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*x, items[i]);
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(parallel_map_with(8, &empty, |_, &x| x).is_empty());
        assert_eq!(parallel_map_with(8, &[7u8], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn nested_calls_run_serially_without_deadlock() {
        let outer: Vec<usize> = (0..8).collect();
        let sums = parallel_map_with(4, &outer, |_, &o| {
            assert!(in_parallel_worker());
            let inner: Vec<usize> = (0..50).collect();
            parallel_map_with(4, &inner, |_, &x| x + o)
                .iter()
                .sum::<usize>()
        });
        let expected: Vec<usize> = outer
            .iter()
            .map(|o| (0..50).sum::<usize>() + 50 * o)
            .collect();
        assert_eq!(sums, expected);
        assert!(!in_parallel_worker(), "flag must not leak to the caller");
    }

    #[test]
    fn a_one_thread_budget_keeps_nested_maps_serial() {
        let items: Vec<usize> = (0..4).collect();
        let flags = parallel_map_with(1, &items, |_, _| in_parallel_worker());
        assert_eq!(flags, [true; 4], "a one-thread map marks its items");
        assert!(
            !in_parallel_worker(),
            "flag must not leak after a serial map"
        );

        // One item under a larger budget keeps its nested fan-out.
        assert_eq!(
            parallel_map_with(4, &[0u8], |_, _| in_parallel_worker()),
            [false]
        );
        assert!(
            !in_parallel_worker(),
            "flag must not leak after a short map"
        );

        let panicked = std::panic::catch_unwind(|| {
            parallel_map_with(1, &items, |_, &x| assert!(x != 2, "boom"))
        });
        assert!(panicked.is_err());
        assert!(!in_parallel_worker(), "flag must not leak after a panic");
    }

    #[test]
    fn worker_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            parallel_map_with(4, &[1u32, 2, 3, 4, 5, 6, 7, 8], |_, &x| {
                assert!(x != 5, "boom");
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn first_panic_in_item_order_wins() {
        // Items 2 and 6 both panic; whichever thread trips first, the
        // caller must always see item 2's payload.
        for threads in [1, 2, 4, 8] {
            let items: Vec<usize> = (0..8).collect();
            let payload = std::panic::catch_unwind(|| {
                parallel_map_with(threads, &items, |_, &x| {
                    if x == 2 || x == 6 {
                        std::panic::panic_any(format!("item {x}"));
                    }
                    x
                })
            })
            .unwrap_err();
            let message = payload.downcast_ref::<String>().unwrap();
            assert_eq!(message, "item 2", "threads = {threads}");
        }
    }

    #[test]
    fn catch_isolates_panics_per_item() {
        let items: Vec<u32> = (0..16).collect();
        for threads in [1, 3, 8] {
            let results = parallel_map_catch_with(threads, &items, |i, &x| {
                assert!(x % 5 != 3, "boom at {i}");
                x * 2
            });
            assert_eq!(results.len(), items.len());
            for (i, r) in results.iter().enumerate() {
                if i % 5 == 3 {
                    let err = r.as_ref().unwrap_err();
                    assert!(err.message().contains(&format!("boom at {i}")), "{err}");
                } else {
                    assert_eq!(*r.as_ref().unwrap(), items[i] * 2, "threads = {threads}");
                }
            }
        }
    }

    #[test]
    fn pool_survives_a_panicking_item() {
        // A caught panic must leave no residue: the flag is clear on the
        // caller, and the next fan-out behaves normally.
        let _ = std::panic::catch_unwind(|| {
            parallel_map_with(4, &[0u8; 32], |i, _| {
                assert!(i != 9);
                i
            })
        });
        assert!(!in_parallel_worker(), "flag must not leak after a panic");
        let items: Vec<usize> = (0..64).collect();
        let doubled = parallel_map_with(4, &items, |_, &x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn caught_panic_renders_static_and_formatted_messages() {
        let results = parallel_map_catch_with(2, &[0u8, 1], |_, &x| {
            if x == 0 {
                panic!("static message");
            }
            std::panic::panic_any(7u32);
        });
        let first = results[0].as_ref().unwrap_err();
        assert_eq!(first.message(), "static message");
        assert_eq!(first.to_string(), "panicked: static message");
        let second = results[1].as_ref().unwrap_err();
        assert_eq!(second.message(), "non-string panic payload");
    }

    #[test]
    fn workers_inherit_fault_context_and_cancel_token() {
        let items: Vec<usize> = (0..32).collect();
        let token = bsched_faults::CancelToken::new();
        let contexts = bsched_faults::with_cell_context("CELL|ctx", 2, || {
            bsched_faults::with_cancel_token(token.clone(), || {
                parallel_map_with(4, &items, |_, _| {
                    (
                        bsched_faults::current_context(),
                        bsched_faults::current_cancel_token().is_some(),
                    )
                })
            })
        });
        for (ctx, has_token) in contexts {
            assert_eq!(ctx, Some(("CELL|ctx".to_owned(), 2)));
            assert!(has_token);
        }
        assert_eq!(bsched_faults::current_context(), None);
    }

    #[test]
    fn timeout_returns_result_within_deadline() {
        let out = run_with_timeout(Duration::from_secs(30), || 6 * 7);
        assert_eq!(out, Ok(42));
    }

    #[test]
    fn timeout_fires_and_cancels_the_worker() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let saw_cancel = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&saw_cancel);
        let out = run_with_timeout(Duration::from_millis(20), move || {
            // Cooperative worker: poll the token like the simulator does.
            for _ in 0..2_000 {
                if bsched_faults::cancelled() {
                    flag.store(true, Ordering::SeqCst);
                    return 0u32;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            1
        });
        assert_eq!(
            out,
            Err(Timeout {
                limit: Duration::from_millis(20)
            })
        );
        assert!(out.unwrap_err().to_string().contains("timed out"));
        // Give the abandoned worker a moment to observe the cancel.
        for _ in 0..200 {
            if saw_cancel.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("worker never observed the cancelled token");
    }

    #[test]
    fn timeout_reraises_worker_panics() {
        let caught = std::panic::catch_unwind(|| {
            let _ = run_with_timeout(Duration::from_secs(30), || -> u32 {
                std::panic::panic_any("watchdogged boom".to_owned());
            });
        })
        .unwrap_err();
        assert_eq!(
            caught.downcast_ref::<String>().map(String::as_str),
            Some("watchdogged boom")
        );
    }

    #[test]
    fn timeout_worker_inherits_fault_context() {
        let ctx = bsched_faults::with_cell_context("CELL|t", 1, || {
            run_with_timeout(Duration::from_secs(30), bsched_faults::current_context)
        });
        assert_eq!(ctx, Ok(Some(("CELL|t".to_owned(), 1))));
    }

    #[test]
    #[allow(clippy::disallowed_methods)] // exercises the live variable
    fn env_var_controls_thread_budget() {
        // The only test here that reads the variable: the rest pass
        // explicit thread budgets.
        std::env::set_var("BSCHED_THREADS", "3");
        assert_eq!(max_threads(), 3);
        std::env::set_var("BSCHED_THREADS", " 1 ");
        assert_eq!(max_threads(), 1);
        // Blank means unset: the hardware default.
        let default = std::thread::available_parallelism().map_or(1, usize::from);
        std::env::set_var("BSCHED_THREADS", "");
        assert_eq!(max_threads(), default);
        // Anything else stops the caller, naming the variable.
        for bad in ["0", "-2", "two"] {
            std::env::set_var("BSCHED_THREADS", bad);
            let panic = std::panic::catch_unwind(max_threads).expect_err(bad);
            let msg = panic.downcast_ref::<String>().expect("formatted message");
            assert!(msg.starts_with("BSCHED_THREADS: "), "{msg}");
        }
        std::env::remove_var("BSCHED_THREADS");
        assert_eq!(max_threads(), default);
    }
}
