//! `bsched-model`: an in-repo concurrency model checker (mini-loom).
//!
//! The repo's hot paths — the `WorkerPool` park/unpark and
//! submit-versus-shutdown protocols, the serve-side stats and cache
//! counters, the health prober — are hand-rolled low-lock code, exactly
//! the kind of code where interleaving bugs hide from ordinary tests.
//! This crate makes those interleavings *enumerable*: a model test runs
//! a closure over N model threads whose every sync operation (atomic
//! access, mutex lock/unlock, condvar wait/notify, spawn/join,
//! sleep/yield) is a scheduler yield point, and the checker re-executes
//! the closure once per distinct schedule.
//!
//! Two exploration strategies:
//!
//! - **Bounded exhaustive DFS with sleep-set reduction** ([`explore`])
//!   for small models: every schedule (up to the bounds) is visited,
//!   minus those the sleep sets prove equivalent to an already-visited
//!   one. Use this to *prove* a 2–3 thread interaction correct.
//! - **Seeded PCT randomized priority scheduling** ([`explore_pct`])
//!   for larger models: each schedule assigns random thread priorities
//!   plus `depth` priority-change points (Burckhardt et al.'s
//!   probabilistic concurrency testing), giving a probabilistic bug
//!   guarantee where exhaustive search is infeasible.
//!
//! Both detect deadlocks (every live thread blocked; condvar waiters
//! flagged as possible lost wakeups) and record every step into a
//! [`Trace`]; a failing schedule is replayable with [`replay`] and the
//! trace prints as a step-by-step interleaving with source locations.
//!
//! The production code is ported onto [`sync`], whose types compile to
//! thin std wrappers and *fall through to plain std behaviour*
//! whenever no checker is active on the current thread — so the same
//! binary runs model tests and ordinary tests, and `bsched-par`
//! re-exports true zero-cost std aliases unless built with
//! `--cfg bsched_model`.

pub mod checker;
pub mod sync;

pub use checker::{
    check, check_pct, explore, explore_pct, replay, Config, Failure, Report, Trace, TraceStep,
};
