//! Independent validators for the compile–simulate pipeline.
//!
//! Every number the paper's tables report rests on three invariants that
//! nothing else in the pipeline checks end-to-end:
//!
//! 1. a scheduled block is a **topological order** of its code DAG
//!    ([`verify_schedule`]);
//! 2. register allocation preserves **value flow** — every physical
//!    register read holds the virtual value the original program read,
//!    spill stores and reloads pair up through real stack slots, and no
//!    register index escapes the configured file ([`verify_allocation`]);
//! 3. the simulator's issue **timeline** is sane — monotone issue cycles,
//!    no more issues in a cycle than the issue width, every sampled load
//!    latency inside the memory model's declared support, and total time
//!    no smaller than the min-latency critical path ([`verify_timeline`]).
//!
//! The validators recompute everything from first principles (they build
//! their own DAG, run their own dataflow) so a bug in the scheduler,
//! allocator or simulator cannot hide itself. They are wired into
//! `bsched-pipeline` behind a [`ValidationLevel`], selected by the
//! `BSCHED_VALIDATE` environment variable: `off`, `schedule`, or `full`
//! (default: `schedule` in debug builds, `off` in release builds).
//!
//! # Example
//!
//! ```
//! use bsched_dag::AliasModel;
//! use bsched_ir::{BlockBuilder, InstId};
//! use bsched_verify::verify_schedule;
//!
//! let mut b = BlockBuilder::new("ex");
//! let base = b.def_int("base");
//! let x = b.load("x", base, 0);
//! let _y = b.fadd("y", x, x);
//! let block = b.finish();
//!
//! // Program order is always a legal schedule…
//! let order: Vec<InstId> = (0..3).map(InstId::from_usize).collect();
//! assert!(verify_schedule(&block, &order, AliasModel::Fortran).is_ok());
//! // …issuing the add before its load is not.
//! let bad = [2, 0, 1].map(InstId::from_usize);
//! assert!(verify_schedule(&block, &bad, AliasModel::Fortran).is_err());
//! ```

#![warn(missing_docs)]

pub mod allocation;
pub mod error;
pub mod level;
pub mod schedule;
pub mod timeline;

pub use allocation::verify_allocation;
pub use error::VerifyError;
pub use level::ValidationLevel;
pub use schedule::verify_schedule;
pub use timeline::{min_latency_elapsed, verify_timeline};
