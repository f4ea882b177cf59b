//! The pipeline's environment defaults, read once per process.
//!
//! [`Pipeline::default`](crate::Pipeline) and
//! [`EvalConfig::default`](crate::EvalConfig) take their validation
//! level, analysis gate and cycle budget from `BSCHED_VALIDATE`,
//! `BSCHED_ANALYZE` and `BSCHED_CYCLE_BUDGET` through one snapshot, so
//! building a default costs no environment read after the first.
//! `bsched_par::env` documents every variable.

use std::sync::OnceLock;

use bsched_cpusim::ProcessorModel;
use bsched_par::env::{self, Limit};
use bsched_verify::ValidationLevel;

use crate::eval::DEFAULT_CYCLE_BUDGET;
use crate::pipeline::{AllocationStrategy, AnalysisGate};

/// The environment's pipeline defaults.
pub(crate) struct Defaults {
    pub(crate) validation: ValidationLevel,
    pub(crate) analysis: AnalysisGate,
    pub(crate) cycle_budget: Option<u64>,
}

/// The snapshot, taken on first use.
pub(crate) fn defaults() -> &'static Defaults {
    static DEFAULTS: OnceLock<Defaults> = OnceLock::new();
    DEFAULTS.get_or_init(|| Defaults {
        validation: env::var("BSCHED_VALIDATE").unwrap_or_default(),
        analysis: env::var("BSCHED_ANALYZE").unwrap_or_default(),
        cycle_budget: env::var::<Limit>("BSCHED_CYCLE_BUDGET")
            .map_or(Some(DEFAULT_CYCLE_BUDGET), |limit| limit.0),
    })
}

/// Parses every `BSCHED_*` variable and installs the `BSCHED_FAULTS`
/// plan. Binaries call this first, so a bad value stops the process
/// before any work — never inside a pool worker.
///
/// # Panics
///
/// On the first variable whose value does not parse; the message
/// starts with the variable's name.
pub fn check_environment() {
    defaults();
    env::install_fault_plan();
    let _ = bsched_par::max_threads();
    let _: Option<u64> = env::var("BSCHED_SEED");
    let _: Option<u32> = env::var("BSCHED_RUNS");
    let _: Option<Limit> = env::var("BSCHED_TIMEOUT_MS");
    let _: Option<u32> = env::var("BSCHED_RETRIES");
    let _: Option<u64> = env::var("BSCHED_BACKOFF_MS");
    let _: Option<String> = env::var("BSCHED_JOURNAL");
    let _: Option<String> = env::var("BSCHED_BENCH");
    let _ = env::switch("BSCHED_JSON");
    let _ = env::switch("BSCHED_CI");
    let _: Option<ProcessorModel> = env::var("BSCHED_PROCESSOR");
    let _: Option<AllocationStrategy> = env::var("BSCHED_ALLOC");
}
