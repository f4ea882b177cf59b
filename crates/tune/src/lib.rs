//! `bsched-tune` — search-based schedule autotuning (DESIGN.md §15).
//!
//! The paper's balanced scheduler is one fixed point in a larger design
//! space: how per-load weights are assigned (balanced, traditional,
//! their convex blends, block-average), how fractional weights round,
//! and how ready-list ties break. This crate searches that space for the
//! policy that minimises a kernel's measured mean runtime under a given
//! memory system, keeping the candidate space apart from the search
//! that walks it, as search-based compilers do:
//!
//! * [`CandidateSpace`] — the declarative cross product of staged
//!   decisions (weight family × rounding × tie-break chain). It always
//!   contains the paper's balanced scheduler, so a tuned policy can
//!   never lose to it under the same protocol.
//! * [`tune`] — stage-synchronous beam search, deterministic under an
//!   explicit seed and thread budget, that measures every candidate it
//!   visits with the §4.3 protocol, with per-candidate wall-clock
//!   quarantine and a crash-safe resumable [`TuneJournal`].
//!
//! The winner is a plain [`PolicySpec`](bsched_pipeline::PolicySpec):
//! first-class everywhere a
//! [`SchedulerChoice`](bsched_pipeline::SchedulerChoice) is accepted —
//! the CLI (`--scheduler policy:<file>`), the serving daemon
//! (`"scheduler":"policy:<canonical>"`), and the fleet cache, which
//! keys on the policy's canonical string.
//!
//! # Quick start
//!
//! ```
//! use bsched_memsim::MemorySystem;
//! use bsched_tune::{tune, TuneConfig};
//! use bsched_workload::perfect_club;
//!
//! let system: MemorySystem = "N(3,2)".parse().unwrap();
//! let bench = &perfect_club()[0];
//! let cfg = TuneConfig { runs: 2, ..TuneConfig::default() };
//! let report = tune(bench.function(), &system, &cfg).unwrap();
//! assert!(report.best_score <= report.baseline_score);
//! ```

#![warn(missing_docs)]

pub mod journal;
pub mod search;
pub mod space;

pub use journal::{CandidateOutcome, TuneJournal};
pub use search::{tune, TuneConfig, TuneError, TuneReport};
pub use space::CandidateSpace;
