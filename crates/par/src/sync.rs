//! The sync primitives the concurrency core is written against.
//!
//! Normally these are **zero-cost aliases for `std`** — `pub use`
//! re-exports, no wrappers, no branches — so production builds are
//! bit-for-bit what they were before the model checker existed. Under
//! `--cfg bsched_model` (set via `RUSTFLAGS`, never by a feature, so
//! it cannot leak into a release build through unification) the same
//! names resolve to [`bsched_model::sync`]'s instrumented types, whose
//! every operation is a yield point for the deterministic scheduler.
//!
//! Code under `crates/par` and `crates/serve` imports atomics, locks,
//! condvars, and thread spawning from here (or from the
//! `bsched_par::sync` re-export) instead of `std::sync` /
//! `std::thread`. `std::sync::Arc` and friends that carry no
//! scheduling behaviour stay on `std`.

#[cfg(bsched_model)]
pub use bsched_model::sync::*;

#[cfg(not(bsched_model))]
mod std_alias {
    pub use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
    pub use std::sync::{Condvar, Mutex, MutexGuard};

    /// The `std::thread` subset the concurrency core uses.
    pub mod thread {
        pub use std::thread::{sleep, spawn, yield_now, Builder, JoinHandle, Result};
    }
}

#[cfg(not(bsched_model))]
pub use std_alias::*;
