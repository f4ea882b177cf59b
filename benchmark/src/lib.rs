//! The repository benchmark: four workloads, measured from outside.
//!
//! * `tables` — paper Table 2 (17 systems × 8 stand-ins) through
//!   [`bsched_bench::run_cells_reported`], in-process.
//! * `tune` — [`bsched_tune::tune`] (beam search) on the 8 stand-ins.
//! * `serve-cold` / `serve-warm` — an open-loop rate ladder against the
//!   real `bsched serve` daemon over TCP.
//!
//! A run with `--trace 1` replays each workload single-threaded through
//! the layers' public functions with spans kept in memory
//! ([`trace`], [`replay`]). See `README.md` for the workloads, metrics,
//! bounds and the layer → end-to-end map.

pub mod check;
pub mod client;
pub mod compare;
pub mod cpu;
pub mod ladder;
pub mod mix;
pub mod offline;
pub mod record;
pub mod replay;
pub mod serve;
pub mod stats;
pub mod trace;

use std::time::Duration;

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["tables", "tune", "serve-cold", "serve-warm"];

/// Set-ups per run; `setup_s` is their median. The first comes before the
/// measured window and the rest within it ([`setup_due`]). Each offline
/// set-up runs on the next CPU in turn ([`cpu::on_cpu`]); an even count
/// gives two CPUs an equal share.
pub const SETUP_REPEATS: usize = 12;

/// Whether another set-up is due, `done` set-ups into a run and `elapsed`
/// into its measured `window`: set-up `k` is due `k / SETUP_REPEATS` of
/// the way through, and `elapsed == window` makes every remaining one
/// due. Run back to back before the window, the set-ups all fell into
/// whatever slow spell the shared host was in, and the median of one run
/// read twice that of another; spread over the window, a spell of a few
/// seconds spoils a few set-ups but not their median.
#[must_use]
pub fn setup_due(done: usize, elapsed: Duration, window: Duration) -> bool {
    done < SETUP_REPEATS && elapsed >= window.mul_f64(done as f64 / SETUP_REPEATS as f64)
}

/// How one run is shaped, from the command line.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Workload seed; every generated input derives from it.
    pub seed: u64,
    /// Measured window of the run.
    pub window: Duration,
    /// Replay the workload traced instead of measuring it end to end.
    pub trace: bool,
    /// Short windows and a two-step ladder, for a quick whole-run check.
    pub smoke: bool,
    /// Where run records and span files go.
    pub out_dir: std::path::PathBuf,
}

/// The machine's parallelism, a condition every record notes.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Stable 64-bit FNV-1a (the tuner journal's fingerprint mix), used for
/// output digests.
pub use bsched_tune::journal::fingerprint_mix as fnv;
