//! Instruction-level processor simulator (paper §4.3–4.4).
//!
//! Simulates the execution of one scheduled basic block on a single-issue
//! processor with **non-blocking loads** and **hardware interlocks**:
//! every instruction executes in one cycle except loads, whose latency is
//! drawn from a [`bsched_memsim::LatencyModel`]; an instruction whose
//! operands are not ready stalls the processor, and each stall cycle is
//! counted as an *interlock*. A program's runtime is therefore exactly
//! `instructions + interlocks`, the decomposition Tables 3 and 5 report.
//!
//! Three processor models control how much load-level parallelism the
//! hardware can exploit (§4.4):
//!
//! * [`ProcessorModel::Unlimited`] — unbounded outstanding loads
//!   (dataflow-like upper bound);
//! * [`ProcessorModel::MaxOutstanding`]`(8)` — MAX-8: at most eight loads
//!   in flight; issuing a ninth blocks until one completes;
//! * [`ProcessorModel::MaxLength`]`(8)` — LEN-8: a load outstanding for
//!   eight cycles blocks the processor until its data returns (Tera-style).
//!
//! The §6 extensions issue up to `width` instructions per cycle
//! ([`simulate_block_wide`], traced by [`simulate_block_wide_traced`])
//! and give FP opcodes fixed multi-cycle latencies
//! ([`simulate_block_custom`]).
//!
//! # Cost model
//!
//! The §4.3 protocol simulates every block 30 times, so the one batch
//! entry point, [`try_simulate_runs_stats`], decodes the block once —
//! operands renumbered into a dense per-block register index, addresses
//! and opcode latencies precomputed — and replays that plan per run against a flat scoreboard and buffers reused across the
//! batch. Every entry point shares the one run loop, so a batch's runs
//! are bit-identical to single-run calls on the same `rng.split(run)`
//! streams.
//!
//! # Example
//!
//! ```
//! use bsched_cpusim::{simulate_block, ProcessorModel};
//! use bsched_ir::BlockBuilder;
//! use bsched_memsim::FixedLatency;
//! use bsched_stats::Pcg32;
//!
//! let mut b = BlockBuilder::new("ex");
//! let base = b.def_int("base");
//! let x = b.load("x", base, 0);
//! let _ = b.fadd("y", x, x); // consumes the load immediately
//! let block = b.finish();
//! let mut rng = Pcg32::seed_from_u64(0);
//! let r = simulate_block(&block, &FixedLatency::new(4), ProcessorModel::Unlimited, &mut rng);
//! assert_eq!(r.instructions, 3);
//! assert_eq!(r.interlocks, 3, "the add waits out the 4-cycle load");
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod processor;
pub mod result;
pub mod sim;
pub mod timeline;

pub use error::SimError;
pub use processor::ProcessorModel;
pub use result::{InterlockBreakdown, SimResult};
pub use sim::{
    simulate_block, simulate_block_custom, simulate_block_traced, simulate_block_wide,
    simulate_block_wide_traced, try_simulate_runs_stats, IssueEvent, RunStats,
};
pub use timeline::render_timeline;
