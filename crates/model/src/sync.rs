//! Instrumented sync primitives: std-compatible wrappers whose every
//! operation is a scheduler yield point when the calling thread is a
//! model thread, and plain std behaviour otherwise.
//!
//! The fall-through design is what lets one binary serve both worlds:
//! `cargo test -p bsched-model` exercises the checker through these
//! types with no special cfg, while `--cfg bsched_model` builds of
//! `bsched-par`/`bsched-serve` route the *production* pool, stats,
//! and prober through them. Outside a model run every method is
//! a thread-local lookup (`None`) plus the std call; inside one, the
//! method declares the op to the controller and blocks until granted.
//!
//! API notes:
//! - Memory orderings are accepted and forwarded to std, but the model
//!   explores *sequentially consistent* interleavings only: it finds
//!   ordering bugs expressible as interleavings of SC steps (a lost
//!   wakeup, a job stranded by a submit racing shutdown), not
//!   relaxed-memory reorderings — that is what the Miri/TSan CI jobs
//!   are for.
//! - `thread::sleep` under the model is a pure yield: model time does
//!   not pass, so timing can never mask an interleaving.

use std::fmt;
use std::panic::Location;
use std::sync::{LockResult, PoisonError};

pub use std::sync::atomic::Ordering;

use crate::checker::{self, OpKind};

/// Declare `kind` on the object at `addr` if this is a model thread.
#[track_caller]
fn op(addr: usize, kind: OpKind, name: &'static str) {
    if let Some((exec, me)) = checker::current_ctx() {
        exec.yield_op(me, kind, addr, 0, name, Location::caller(), usize::MAX);
    }
}

macro_rules! model_atomic {
    ($name:ident, $std:ty, $ty:ty, $zero:expr, $doc:expr) => {
        #[doc = $doc]
        pub struct $name {
            inner: $std,
        }

        impl $name {
            /// A new atomic holding `v`.
            #[must_use]
            pub const fn new(v: $ty) -> Self {
                Self {
                    inner: <$std>::new(v),
                }
            }

            #[track_caller]
            pub fn load(&self, order: Ordering) -> $ty {
                op(self as *const Self as usize, OpKind::AtomicLoad, "load");
                self.inner.load(order)
            }

            #[track_caller]
            pub fn store(&self, v: $ty, order: Ordering) {
                op(self as *const Self as usize, OpKind::AtomicStore, "store");
                self.inner.store(v, order);
            }

            #[track_caller]
            pub fn swap(&self, v: $ty, order: Ordering) -> $ty {
                op(self as *const Self as usize, OpKind::AtomicRmw, "swap");
                self.inner.swap(v, order)
            }

            #[track_caller]
            pub fn compare_exchange(
                &self,
                current: $ty,
                new: $ty,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$ty, $ty> {
                op(
                    self as *const Self as usize,
                    OpKind::AtomicRmw,
                    "compare_exchange",
                );
                self.inner.compare_exchange(current, new, success, failure)
            }

            #[track_caller]
            pub fn compare_exchange_weak(
                &self,
                current: $ty,
                new: $ty,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$ty, $ty> {
                op(
                    self as *const Self as usize,
                    OpKind::AtomicRmw,
                    "compare_exchange_weak",
                );
                // The model has no spurious failures to explore; the
                // strong variant keeps replays deterministic.
                self.inner.compare_exchange(current, new, success, failure)
            }

            /// Consume the atomic (no yield point: `self` is owned,
            /// so no other thread can race it).
            #[must_use]
            pub fn into_inner(self) -> $ty {
                self.inner.into_inner()
            }
        }

        impl Default for $name {
            fn default() -> Self {
                Self::new($zero)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                self.inner.fmt(f)
            }
        }
    };
}

macro_rules! model_atomic_int {
    ($name:ident, $std:ty, $ty:ty, $doc:expr) => {
        model_atomic!($name, $std, $ty, 0, $doc);

        impl $name {
            #[track_caller]
            pub fn fetch_add(&self, v: $ty, order: Ordering) -> $ty {
                op(self as *const Self as usize, OpKind::AtomicRmw, "fetch_add");
                self.inner.fetch_add(v, order)
            }

            #[track_caller]
            pub fn fetch_sub(&self, v: $ty, order: Ordering) -> $ty {
                op(self as *const Self as usize, OpKind::AtomicRmw, "fetch_sub");
                self.inner.fetch_sub(v, order)
            }
        }
    };
}

model_atomic_int!(
    AtomicUsize,
    std::sync::atomic::AtomicUsize,
    usize,
    "Instrumented `std::sync::atomic::AtomicUsize`."
);
model_atomic_int!(
    AtomicU64,
    std::sync::atomic::AtomicU64,
    u64,
    "Instrumented `std::sync::atomic::AtomicU64`."
);
model_atomic_int!(
    AtomicU32,
    std::sync::atomic::AtomicU32,
    u32,
    "Instrumented `std::sync::atomic::AtomicU32`."
);
model_atomic!(
    AtomicBool,
    std::sync::atomic::AtomicBool,
    bool,
    false,
    "Instrumented `std::sync::atomic::AtomicBool`."
);

// ---------------------------------------------------------------------------
// Mutex / Condvar
// ---------------------------------------------------------------------------

/// Instrumented `std::sync::Mutex`. Under the model, the *scheduler*
/// arbitrates ownership (a pending `lock` on a held mutex is simply
/// not enabled), so the inner std lock is always uncontended among
/// model threads.
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// A new mutex protecting `t`.
    pub const fn new(t: T) -> Mutex<T> {
        Mutex {
            inner: std::sync::Mutex::new(t),
        }
    }

    fn addr(&self) -> usize {
        self as *const Mutex<T> as usize
    }

    /// Acquire the lock (a `MutexLock` yield point under the model).
    ///
    /// # Errors
    ///
    /// Poisoned if a holder panicked, exactly as std.
    #[track_caller]
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        let loc = Location::caller();
        let model = checker::current_ctx();
        if let Some((exec, me)) = &model {
            exec.yield_op(
                *me,
                OpKind::MutexLock,
                self.addr(),
                0,
                "lock",
                loc,
                usize::MAX,
            );
        }
        match self.inner.lock() {
            Ok(g) => Ok(MutexGuard {
                inner: Some(g),
                model,
                lock: self,
                loc,
            }),
            Err(poisoned) => Err(PoisonError::new(MutexGuard {
                inner: Some(poisoned.into_inner()),
                model,
                lock: self,
                loc,
            })),
        }
    }

    /// Consume the mutex (no yield point: exclusive by ownership).
    ///
    /// # Errors
    ///
    /// Poisoned if a holder panicked.
    pub fn into_inner(self) -> LockResult<T> {
        self.inner.into_inner()
    }

    /// Mutable access (no yield point: exclusive by borrow).
    ///
    /// # Errors
    ///
    /// Poisoned if a holder panicked.
    pub fn get_mut(&mut self) -> LockResult<&mut T> {
        self.inner.get_mut()
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// RAII guard for [`Mutex`]; dropping it is a `MutexUnlock` yield
/// point under the model. The inner std lock is released *before* the
/// unlock op is declared — safe because the declaring thread still
/// holds the execution token, so no other model thread can run until
/// the scheduler processes the unlock.
pub struct MutexGuard<'a, T> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
    model: Option<(std::sync::Arc<checker::Execution>, usize)>,
    lock: &'a Mutex<T>,
    loc: &'static Location<'static>,
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard holds the lock")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard holds the lock")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if let Some((exec, me)) = self.model.take() {
            self.inner = None;
            exec.yield_op(
                me,
                OpKind::MutexUnlock,
                self.lock.addr(),
                0,
                "unlock",
                self.loc,
                usize::MAX,
            );
        }
    }
}

/// Instrumented `std::sync::Condvar`. Model waits never touch the
/// inner std condvar: the scheduler parks the thread and a scheduled
/// notify moves it back to runnable — which is precisely how lost
/// wakeups become *observable* as deadlocks instead of being papered
/// over by timing.
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Default for Condvar {
    fn default() -> Condvar {
        Condvar::new()
    }
}

impl Condvar {
    /// A new condition variable.
    #[must_use]
    pub const fn new() -> Condvar {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    fn addr(&self) -> usize {
        self as *const Condvar as usize
    }

    /// Release the guard's mutex and wait to be notified, then
    /// reacquire. Under the model this is a single `CondWait` op whose
    /// wake side is a synthetic `relock-after-wait` lock op.
    ///
    /// # Errors
    ///
    /// Poisoned if a holder of the mutex panicked.
    #[track_caller]
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        let loc = Location::caller();
        let lock = guard.lock;
        if let Some((exec, me)) = guard.model.take() {
            // Release the real lock first; we still hold the execution
            // token, so nothing can slip in before the CondWait op is
            // declared.
            guard.inner = None;
            drop(guard);
            exec.yield_op(
                me,
                OpKind::CondWait,
                self.addr(),
                lock.addr(),
                "wait",
                loc,
                usize::MAX,
            );
            // The scheduler granted the relock: the std mutex is free
            // at model level, take it without another yield point.
            match lock.inner.lock() {
                Ok(g) => Ok(MutexGuard {
                    inner: Some(g),
                    model: Some((exec, me)),
                    lock,
                    loc,
                }),
                Err(poisoned) => Err(PoisonError::new(MutexGuard {
                    inner: Some(poisoned.into_inner()),
                    model: Some((exec, me)),
                    lock,
                    loc,
                })),
            }
        } else {
            let std_guard = guard.inner.take().expect("guard holds the lock");
            drop(guard);
            match self.inner.wait(std_guard) {
                Ok(g) => Ok(MutexGuard {
                    inner: Some(g),
                    model: None,
                    lock,
                    loc,
                }),
                Err(poisoned) => Err(PoisonError::new(MutexGuard {
                    inner: Some(poisoned.into_inner()),
                    model: None,
                    lock,
                    loc,
                })),
            }
        }
    }

    /// Wake one waiter (a `CondNotifyOne` yield point under the model;
    /// waking nobody is recorded in the trace — that is the lost-
    /// wakeup signature).
    #[track_caller]
    pub fn notify_one(&self) {
        op(self.addr(), OpKind::CondNotifyOne, "notify_one");
        self.inner.notify_one();
    }

    /// Wake every waiter.
    #[track_caller]
    pub fn notify_all(&self) {
        op(self.addr(), OpKind::CondNotifyAll, "notify_all");
        self.inner.notify_all();
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar")
    }
}

// ---------------------------------------------------------------------------
// Threads
// ---------------------------------------------------------------------------

/// Instrumented subset of `std::thread`: spawning from a model thread
/// creates a new *model* thread the scheduler interleaves; spawning
/// from anywhere else is plain `std::thread::spawn`.
pub mod thread {
    use std::panic::Location;
    use std::sync::Arc;
    use std::time::Duration;

    pub use std::thread::Result;

    use crate::checker::{self, OpKind};

    /// Instrumented `std::thread::Builder`.
    #[derive(Debug, Default)]
    pub struct Builder {
        name: Option<String>,
    }

    impl Builder {
        /// A new builder with no name set.
        #[must_use]
        pub fn new() -> Builder {
            Builder { name: None }
        }

        /// Name the thread (model threads keep this as their trace
        /// name; their OS name stays `bsched-model-t<tid>` so the
        /// panic hook can recognise them).
        #[must_use]
        pub fn name(mut self, name: String) -> Builder {
            self.name = Some(name);
            self
        }

        /// Spawn the thread.
        ///
        /// # Errors
        ///
        /// OS thread creation failure, as std.
        #[track_caller]
        pub fn spawn<F, T>(self, f: F) -> std::io::Result<JoinHandle<T>>
        where
            F: FnOnce() -> T + Send + 'static,
            T: Send + 'static,
        {
            let loc = Location::caller();
            if let Some((exec, me)) = checker::current_ctx() {
                let name = self.name.unwrap_or_else(|| "spawned".to_owned());
                let tid = checker::register_thread(&exec, name);
                let os = checker::spawn_model_thread(&exec, tid, loc, f);
                // The spawn itself is a yield point for the parent:
                // schedules where the child runs before the parent's
                // next op are explored.
                exec.yield_op(me, OpKind::Spawn, 0, 0, "spawn", loc, tid);
                Ok(JoinHandle(Inner::Model { tid, exec, os }))
            } else {
                let mut builder = std::thread::Builder::new();
                if let Some(name) = self.name {
                    builder = builder.name(name);
                }
                builder.spawn(f).map(|h| JoinHandle(Inner::Std(h)))
            }
        }
    }

    /// Instrumented `std::thread::spawn`.
    #[track_caller]
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        Builder::new().spawn(f).expect("failed to spawn thread")
    }

    /// Instrumented `std::thread::sleep`: under the model a pure yield
    /// point — model time does not pass, so sleeps can never hide an
    /// interleaving.
    #[track_caller]
    pub fn sleep(dur: Duration) {
        if let Some((exec, me)) = checker::current_ctx() {
            exec.yield_op(
                me,
                OpKind::Sleep,
                0,
                0,
                "sleep",
                Location::caller(),
                usize::MAX,
            );
        } else {
            std::thread::sleep(dur);
        }
    }

    /// Instrumented `std::thread::yield_now`.
    #[track_caller]
    pub fn yield_now() {
        if let Some((exec, me)) = checker::current_ctx() {
            exec.yield_op(
                me,
                OpKind::Yield,
                0,
                0,
                "yield_now",
                Location::caller(),
                usize::MAX,
            );
        } else {
            std::thread::yield_now();
        }
    }

    enum Inner<T> {
        Std(std::thread::JoinHandle<T>),
        Model {
            tid: usize,
            exec: Arc<checker::Execution>,
            os: std::thread::JoinHandle<T>,
        },
    }

    /// Instrumented `std::thread::JoinHandle`.
    pub struct JoinHandle<T>(Inner<T>);

    impl<T> JoinHandle<T> {
        /// Join the thread. Under the model, a `Join` op that is
        /// enabled only once the target finished — a join on a thread
        /// that can never finish is a detected deadlock, not a hang.
        ///
        /// # Errors
        ///
        /// The thread's panic payload if it panicked.
        #[track_caller]
        pub fn join(self) -> Result<T> {
            match self.0 {
                Inner::Std(h) => h.join(),
                Inner::Model { tid, exec, os } => {
                    if let Some((cur, me)) = checker::current_ctx() {
                        debug_assert!(Arc::ptr_eq(&cur, &exec), "join across model runs");
                        cur.yield_op(me, OpKind::Join, 0, 0, "join", Location::caller(), tid);
                    }
                    os.join()
                }
            }
        }

        /// Whether the thread has finished (no yield point; advisory,
        /// as in std).
        #[must_use]
        pub fn is_finished(&self) -> bool {
            match &self.0 {
                Inner::Std(h) => h.is_finished(),
                Inner::Model { os, .. } => os.is_finished(),
            }
        }
    }

    impl<T> std::fmt::Debug for JoinHandle<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("JoinHandle(..)")
        }
    }
}
