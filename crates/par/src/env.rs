//! The process's `BSCHED_*` configuration: the one place the program
//! reads its environment.
//!
//! Every variable follows one policy. Unset or blank means the default.
//! Any other value must parse through its type's `FromStr` (after
//! trimming), or the process stops with a panic whose message starts
//! with the variable's name — a typo never silently runs with the
//! default. The binaries (`bsched`, the daemon, the table binaries,
//! `bsched-loadgen`) parse all of them at startup through
//! `bsched_pipeline::check_environment`, so a bad value stops the
//! process before any work, never inside a pool worker.
//!
//! | Variable | Type | Default | Read | Set by |
//! |---|---|---|---|---|
//! | `BSCHED_THREADS` | integer ≥ 1 | every core | each fan-out ([`max_threads`](crate::max_threads)) | users, CI, the benchmark (in-process) |
//! | `BSCHED_SEED` | `u64` | `EvalConfig::default().seed` | each harness call | users, the benchmark (in-process) |
//! | `BSCHED_RUNS` | `u32` (at least 2 is used) | 30 | each harness call | users, CI |
//! | `BSCHED_VALIDATE` | `off`/`0`/`none`, `schedule`, `full` | `schedule` in debug builds, `off` in release | once per process (pipeline defaults) | CI's full-validation job |
//! | `BSCHED_ANALYZE` | `off`/`0`, `check`/`1`, `strict` | `off` | once per process (pipeline defaults) | users |
//! | `BSCHED_CYCLE_BUDGET` | cycles, or `0`/`off` | 10⁹ cycles | once per process (pipeline defaults) | users |
//! | `BSCHED_FAULTS` | a `FaultPlan` spec | none | once per process ([`install_fault_plan`]) | CI's chaos and serve jobs |
//! | `BSCHED_TIMEOUT_MS` | milliseconds, or `0`/`off` | off | each harness call | CI's chaos job |
//! | `BSCHED_RETRIES` | `u32` | 1 | each harness call | CI's chaos job |
//! | `BSCHED_BACKOFF_MS` | `u64` | 25 | each harness call | CI |
//! | `BSCHED_JOURNAL` | path | none | each harness call | CI's chaos job |
//! | `BSCHED_JSON` | `0`/`1` | `0` | each printed table | users |
//! | `BSCHED_CI` | `0`/`1` | `0` | `table2` startup | users |
//! | `BSCHED_PROCESSOR` | `unlimited`, `max8`, `len8` | `unlimited` | `table2` startup | users |
//! | `BSCHED_BENCH` | stand-in name | `MDG` | `table3` startup | users |
//! | `BSCHED_ALLOC` | `belady`, `usage` | `belady` | `table4` startup | users |
//!
//! "Each harness call" is once per `bsched_bench::run_cells_reported`
//! (and per `run_cell`/`eval_config`), so a caller that sets a variable
//! in-process between calls is honoured.

use std::fmt::Display;
use std::str::FromStr;
use std::sync::Once;

/// Reads variable `name`: `None` when it is unset or blank, otherwise
/// its trimmed value parsed as `T`.
///
/// # Panics
///
/// When the value is not valid Unicode or does not parse as `T`; the
/// message starts with `name`.
#[must_use]
pub fn var<T: FromStr>(name: &str) -> Option<T>
where
    T::Err: Display,
{
    #[allow(clippy::disallowed_methods)] // the one environment read
    let raw = match std::env::var(name) {
        Ok(raw) => raw,
        Err(std::env::VarError::NotPresent) => return None,
        Err(e) => invalid(name, "", &e),
    };
    match raw.trim() {
        "" => None,
        v => Some(v.parse().unwrap_or_else(|e| invalid(name, v, &e))),
    }
}

/// Stops the process over a bad value of variable `name`.
///
/// # Panics
///
/// Always, with a message that starts with `name`.
pub fn invalid(name: &str, value: &str, reason: &dyn Display) -> ! {
    panic!("{name}: invalid value {value:?}: {reason}")
}

/// Reads an on/off variable: `1` or `0`, unset meaning off.
///
/// # Panics
///
/// On any other value, as [`var`] does.
#[must_use]
pub fn switch(name: &str) -> bool {
    match var::<u8>(name) {
        None | Some(0) => false,
        Some(1) => true,
        Some(v) => invalid(name, &v.to_string(), &"expected 1 or 0"),
    }
}

/// A limit that `0` or `off` disables: `None` when disabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limit(pub Option<u64>);

impl FromStr for Limit {
    type Err = std::num::ParseIntError;

    fn from_str(s: &str) -> Result<Limit, Self::Err> {
        if s.eq_ignore_ascii_case("off") {
            return Ok(Limit(None));
        }
        s.parse().map(|n| Limit(Some(n).filter(|&n| n > 0)))
    }
}

/// Installs the `BSCHED_FAULTS` plan, once per process; later calls
/// are no-ops. An explicitly installed plan (`bsched --faults`, tests)
/// replaces it.
///
/// # Panics
///
/// When `BSCHED_FAULTS` does not parse, as [`var`] does: a chaos run
/// with a typo'd plan must never silently run clean.
pub fn install_fault_plan() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        if let Some(plan) = var::<bsched_faults::FaultPlan>("BSCHED_FAULTS") {
            bsched_faults::install(plan);
        }
    });
}
