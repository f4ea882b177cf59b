//! Static analysis over the IR, the code DAG and kernel source.
//!
//! `bsched-verify` (PR 2) checks *outputs* — schedules, allocations,
//! timelines — after the pipeline runs. This crate checks *inputs*: a
//! malformed or degenerate kernel produces meaningless paper tables long
//! before any verifier sees a schedule. Two families of passes run over
//! every block:
//!
//! * **Correctness lints** ([`lints`]) — classic dataflow on the
//!   straight-line IR: reads of uninitialized registers, dead stores and
//!   dead code, redundant loads under the active
//!   [`AliasModel`](bsched_dag::AliasModel), empty/cold blocks, and a
//!   weight-invariant pass for the paper's balanced-weight properties.
//! * **Profile analyses** ([`profile`], [`envelope`]) — load-level
//!   parallelism, load density, schedule lower bounds and MaxLive
//!   pressure per block, aggregated per benchmark and checked against
//!   the profile envelope DESIGN.md claims for each Perfect Club
//!   stand-in.
//!
//! Findings flow through the [`diag`] engine: stable lint ids,
//! allow/warn/deny configuration, kernel-source spans threaded from
//! `bsched_workload::parse`, and text/JSON renderers. Entry points are
//! the [`Analyzer`] (library), `bsched analyze` (CLI) and the
//! pipeline's optional pre-scheduling gate.
//!
//! # Example
//!
//! ```
//! use bsched_analyze::{Analyzer, Severity};
//! use bsched_ir::BlockBuilder;
//!
//! let mut b = BlockBuilder::new("bad");
//! let base = b.def_int("base");
//! let x = b.load("x", base, 8);
//! b.store(x, base, 0);
//! b.store(x, base, 0); // overwrites the first store: dead
//! let diags = Analyzer::default().analyze_block(&b.finish(), None);
//! assert_eq!(diags[0].severity, Severity::Error);
//! assert_eq!(diags[0].lint.id(), "dead-store");
//! ```

#![warn(missing_docs)]

pub mod analyzer;
pub mod diag;
pub mod envelope;
pub mod failure;
pub mod journal;
pub mod json;
pub mod lints;
pub mod profile;

pub use analyzer::{Analyzer, BenchmarkReport};
pub use diag::{
    has_errors, render_json, render_text, Diagnostic, Finding, Lint, LintConfig, Severity,
};
pub use envelope::{check_envelope, envelope_for, ProfileEnvelope, ENVELOPES};
pub use failure::{failure_json, FailureKind};
pub use profile::{
    benchmark_json, max_live, pressure_profile, suite_json, BenchmarkProfile, BlockProfile,
};
