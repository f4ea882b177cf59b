//! Deterministic fault injection and watchdog primitives.
//!
//! The paper's premise is that load latency is *uncertain*; this crate
//! makes the rest of the harness prove it can survive uncertainty that
//! is adversarial rather than merely stochastic. A [`FaultPlan`] arms
//! named [`Site`]s across the pipeline (parser, allocator, simulator,
//! evaluation workers); each layer calls [`fault_point!`] at its site
//! and reacts to the returned [`FiredFault`], if any.
//!
//! Design rules:
//!
//! - **Zero cost when disabled.** `fault_point!` compiles to a single
//!   relaxed atomic load when no plan is installed, so production runs
//!   are bit-identical to a build without the crate.
//! - **Deterministic.** Whether occurrence *n* of a site fires in a
//!   given cell is a pure hash of `(plan seed, site, cell, n)` —
//!   independent of thread count, timing, or iteration order across
//!   cells.
//! - **No silent corruption.** Every fire is recorded against the
//!   current `(cell, attempt)` context; the harness treats any attempt
//!   during which a fault fired as *tainted* and either retries it or
//!   reports a typed degraded outcome, never a quietly perturbed number.

mod plan;

pub use plan::{FaultPlan, FaultSpec, PlanParseError, Site};

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// One fault that actually fired at a site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiredFault {
    /// The site that fired.
    pub site: Site,
    /// Site-specific magnitude from the matching spec ([`FaultSpec::arg`]),
    /// or the site's default when the spec left it unset.
    pub arg: u64,
    /// The cell context the fire was recorded under (empty outside any
    /// [`with_cell_context`] scope).
    pub cell: String,
}

/// Per-(site, cell) firing state.
#[derive(Default)]
struct SiteCounters {
    occurrences: u64,
    fires: u32,
}

struct Active {
    plan: FaultPlan,
    /// (site, cell) → occurrence/fire counters.
    counters: Mutex<HashMap<(Site, String), SiteCounters>>,
    /// (cell, attempt) → faults that fired during that attempt.
    fired: Mutex<HashMap<(String, u32), Vec<FiredFault>>>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static ACTIVE: RwLock<Option<Arc<Active>>> = RwLock::new(None);

thread_local! {
    /// The (cell key, attempt) the current thread is evaluating.
    static CONTEXT: RefCell<Option<(String, u32)>> = const { RefCell::new(None) };
    /// The cancellation token watching the current thread, if any.
    static CANCEL: RefCell<Option<CancelToken>> = const { RefCell::new(None) };
}

/// True when a fault plan is installed. This is the only check on the
/// hot path; everything else happens behind it.
#[inline(always)]
#[must_use]
pub fn active() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs `plan` process-wide, replacing any previous plan and
/// clearing all counters and fired records.
pub fn install(plan: FaultPlan) {
    let enabled = !plan.is_empty();
    *ACTIVE.write().unwrap() = Some(Arc::new(Active {
        plan,
        counters: Mutex::new(HashMap::new()),
        fired: Mutex::new(HashMap::new()),
    }));
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Removes any installed plan; [`fault_point!`] goes back to its
/// single-load fast path.
pub fn clear() {
    ENABLED.store(false, Ordering::Relaxed);
    *ACTIVE.write().unwrap() = None;
}

/// The currently installed plan, if any.
#[must_use]
pub fn installed_plan() -> Option<FaultPlan> {
    ACTIVE.read().unwrap().as_ref().map(|a| a.plan.clone())
}

/// Default magnitude per site, used when the matching spec has no `arg`.
#[must_use]
pub fn default_arg(site: Site) -> u64 {
    match site {
        // Extra latency cycles folded into a load's sampled latency
        // (then clamped to the model's declared support).
        Site::LatencyJitter => 1_000,
        // Stall cycles — large enough to trip any sane cycle budget,
        // small enough that saturating arithmetic never overflows.
        Site::SimStall => 1 << 40,
        // Sleep milliseconds for a slow cell / slow server worker / slow
        // tuner candidate.
        Site::SlowCell | Site::SlowWorker | Site::TuneStall => 50,
        Site::Parse
        | Site::Alloc
        | Site::EvalPanic
        | Site::ServeReject
        | Site::PersistCorrupt
        | Site::ShardDown => 0,
    }
}

/// splitmix64 — a tiny, high-quality mixer; good enough to turn
/// (seed, site, cell, occurrence) into an independent uniform draw.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn hash_str(mut h: u64, s: &str) -> u64 {
    for b in s.as_bytes() {
        h = splitmix64(h ^ u64::from(*b));
    }
    h
}

/// The deterministic uniform draw in [0, 1) for one occurrence.
fn draw(seed: u64, site: Site, cell: &str, occurrence: u64) -> f64 {
    let mut h = splitmix64(seed ^ 0xb5ec_u64);
    h = hash_str(h, site.id());
    h = hash_str(h, cell);
    h = splitmix64(h ^ occurrence);
    // 53 random bits → uniform f64 in [0, 1).
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Reports one occurrence of `site` on the current thread and decides —
/// deterministically — whether a fault fires.
///
/// Returns the fired fault (also recorded against the current
/// `(cell, attempt)` context for [`take_fired`]) or `None`. Prefer the
/// [`fault_point!`] macro, which skips this call entirely when no plan
/// is installed.
#[must_use]
pub fn trigger(site: Site) -> Option<FiredFault> {
    let active = ACTIVE.read().unwrap().as_ref()?.clone();
    let (cell, attempt) =
        CONTEXT.with(|c| c.borrow().clone().unwrap_or_else(|| (String::new(), 0)));

    let mut counters = active.counters.lock().unwrap();
    let state = counters.entry((site, cell.clone())).or_default();
    let occurrence = state.occurrences;
    state.occurrences += 1;

    let mut fired = None;
    for spec in active.plan.matching(site, &cell) {
        if let Some(limit) = spec.limit {
            if state.fires >= limit {
                continue;
            }
        }
        if spec.rate < 1.0 && draw(active.plan.seed, site, &cell, occurrence) >= spec.rate {
            continue;
        }
        state.fires += 1;
        fired = Some(FiredFault {
            site,
            arg: spec.arg.unwrap_or_else(|| default_arg(site)),
            cell: cell.clone(),
        });
        break;
    }
    drop(counters);

    if let Some(fault) = &fired {
        active
            .fired
            .lock()
            .unwrap()
            .entry((cell, attempt))
            .or_default()
            .push(fault.clone());
    }
    fired
}

/// The injection hook each layer plants at its fault site.
///
/// `fault_point!(Site::X)` evaluates to `Option<FiredFault>`; when no
/// plan is installed it is a single relaxed atomic load.
#[macro_export]
macro_rules! fault_point {
    ($site:expr) => {
        if $crate::active() {
            $crate::trigger($site)
        } else {
            None
        }
    };
}

/// Applies adversarial jitter to a sampled load latency, clamped to the
/// latency model's declared support `[min, max]` so verification
/// invariants (`verify_timeline`, `min_latency_elapsed`) still hold.
///
/// `max = None` means the model declares no upper bound (the jittered
/// value is only clamped from below).
#[must_use]
pub fn jitter_latency(sampled: u64, extra: u64, min: u64, max: Option<u64>) -> u64 {
    let jittered = sampled.saturating_add(extra);
    let floored = jittered.max(min.max(1));
    match max {
        Some(hi) => floored.min(hi.max(min.max(1))),
        None => floored,
    }
}

/// Runs `f` with the thread's fault context set to `(cell, attempt)`,
/// restoring the previous context afterwards (even on panic).
pub fn with_cell_context<R>(cell: &str, attempt: u32, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<(String, u32)>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            CONTEXT.with(|c| *c.borrow_mut() = prev);
        }
    }
    let prev = CONTEXT.with(|c| c.borrow_mut().replace((cell.to_owned(), attempt)));
    let _restore = Restore(prev);
    f()
}

/// The current thread's fault context, if any. Worker pools use this to
/// re-plant the spawning thread's context inside their workers.
#[must_use]
pub fn current_context() -> Option<(String, u32)> {
    CONTEXT.with(|c| c.borrow().clone())
}

/// Sets (or clears) the current thread's fault context directly. Worker
/// pools call this with the value captured via [`current_context`].
pub fn set_context(ctx: Option<(String, u32)>) {
    CONTEXT.with(|c| *c.borrow_mut() = ctx);
}

/// Removes and returns the faults that fired during `(cell, attempt)`.
///
/// The harness calls this after each attempt: a non-empty result means
/// the attempt was *tainted* — its value may have been perturbed (e.g.
/// by latency jitter) and must not be reported as a clean number.
#[must_use]
pub fn take_fired(cell: &str, attempt: u32) -> Vec<FiredFault> {
    let Some(active) = ACTIVE.read().unwrap().as_ref().cloned() else {
        return Vec::new();
    };
    let taken = active
        .fired
        .lock()
        .unwrap()
        .remove(&(cell.to_owned(), attempt))
        .unwrap_or_default();
    taken
}

/// A shared cancellation flag for cooperative wall-clock watchdogs.
///
/// The watchdog holds one clone and calls [`cancel`](CancelToken::cancel)
/// on timeout; the worker installs its clone as the thread's current
/// token and long-running loops poll [`cancelled`] between units of work.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Trips the token; every clone observes it.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// True once any clone has been cancelled.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Runs `f` with `token` installed as the current thread's cancellation
/// token, restoring the previous token afterwards (even on panic).
pub fn with_cancel_token<R>(token: CancelToken, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<CancelToken>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            CANCEL.with(|c| *c.borrow_mut() = prev);
        }
    }
    let prev = CANCEL.with(|c| c.borrow_mut().replace(token));
    let _restore = Restore(prev);
    f()
}

/// The current thread's cancellation token, if any. Worker pools use
/// this to propagate the token into their workers.
#[must_use]
pub fn current_cancel_token() -> Option<CancelToken> {
    CANCEL.with(|c| c.borrow().clone())
}

/// Sets (or clears) the current thread's cancellation token directly.
pub fn set_cancel_token(token: Option<CancelToken>) {
    CANCEL.with(|c| *c.borrow_mut() = token);
}

/// True when the current thread is being watched by a token that has
/// been cancelled. Long loops (the simulator's per-run loop) poll this.
#[must_use]
pub fn cancelled() -> bool {
    CANCEL.with(|c| c.borrow().as_ref().is_some_and(CancelToken::is_cancelled))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// The plan registry is process-global; serialize tests that touch it.
    static PLAN_LOCK: StdMutex<()> = StdMutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        PLAN_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_by_default_and_after_clear() {
        let _g = lock();
        clear();
        assert!(!active());
        assert_eq!(fault_point!(Site::EvalPanic), None);
        install(FaultPlan::seeded(1).with(FaultSpec::always(Site::EvalPanic)));
        assert!(active());
        clear();
        assert!(!active());
    }

    #[test]
    fn always_spec_fires_and_is_recorded_against_context() {
        let _g = lock();
        install(FaultPlan::seeded(1).with(FaultSpec::always(Site::EvalPanic).with_key("MDG")));
        let fired = with_cell_context("MDG|cell", 0, || fault_point!(Site::EvalPanic));
        assert_eq!(fired.as_ref().map(|f| f.site), Some(Site::EvalPanic));
        let missed = with_cell_context("ADM|cell", 0, || fault_point!(Site::EvalPanic));
        assert_eq!(missed, None);
        assert_eq!(take_fired("MDG|cell", 0).len(), 1);
        assert_eq!(take_fired("MDG|cell", 0).len(), 0, "take drains");
        assert_eq!(take_fired("ADM|cell", 0).len(), 0);
        clear();
    }

    #[test]
    fn limit_makes_faults_transient() {
        let _g = lock();
        install(FaultPlan::seeded(1).with(FaultSpec::always(Site::EvalPanic).with_limit(1)));
        let first = with_cell_context("cell", 0, || fault_point!(Site::EvalPanic));
        let second = with_cell_context("cell", 1, || fault_point!(Site::EvalPanic));
        assert!(first.is_some());
        assert_eq!(second, None, "limit=1 exhausted after the first fire");
        let other = with_cell_context("other-cell", 0, || fault_point!(Site::EvalPanic));
        assert!(other.is_some(), "limits are per (site, cell)");
        clear();
    }

    #[test]
    fn rate_draws_are_deterministic() {
        let _g = lock();
        let plan =
            FaultPlan::seeded(42).with(FaultSpec::always(Site::LatencyJitter).with_rate(0.5));
        let run = |plan: &FaultPlan| {
            install(plan.clone());
            let pattern: Vec<bool> = (0..64)
                .map(|_| {
                    with_cell_context("cell", 0, || fault_point!(Site::LatencyJitter)).is_some()
                })
                .collect();
            clear();
            pattern
        };
        let a = run(&plan);
        let b = run(&plan);
        assert_eq!(a, b, "same plan → same firing pattern");
        let fires = a.iter().filter(|f| **f).count();
        assert!((8..=56).contains(&fires), "rate 0.5 fired {fires}/64");
        let c = run(&FaultPlan::seeded(43).with(plan.specs[0].clone()));
        assert_ne!(a, c, "different seed → different pattern");
    }

    #[test]
    fn jitter_respects_declared_support() {
        assert_eq!(jitter_latency(3, 1_000, 2, Some(5)), 5);
        assert_eq!(jitter_latency(3, 0, 2, Some(5)), 3);
        assert_eq!(jitter_latency(0, 0, 2, Some(5)), 2);
        assert_eq!(jitter_latency(1, u64::MAX, 1, None), u64::MAX);
        assert_eq!(jitter_latency(1, 7, 1, None), 8);
    }

    #[test]
    fn context_nests_and_restores() {
        assert_eq!(current_context(), None);
        with_cell_context("outer", 0, || {
            assert_eq!(current_context(), Some(("outer".into(), 0)));
            with_cell_context("inner", 3, || {
                assert_eq!(current_context(), Some(("inner".into(), 3)));
            });
            assert_eq!(current_context(), Some(("outer".into(), 0)));
        });
        assert_eq!(current_context(), None);
    }

    #[test]
    fn cancel_token_is_shared() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
        assert!(!cancelled(), "no token installed on this thread");
        with_cancel_token(clone, || assert!(cancelled()));
        assert!(!cancelled());
    }
}
