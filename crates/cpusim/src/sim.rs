//! The cycle-level simulation loop.
//!
//! Every entry point splits the work in two. A `Simulator` decodes the
//! block once per call: each non-vnop instruction's id, load flag,
//! simulated address and fixed opcode latency, and its operands as
//! indices into a dense per-block register numbering. `Simulator::run`
//! then replays that plan once per run against a `Vec<u64>` scoreboard
//! and buffers reused across the batch, so the §4.3 protocol's 30 runs
//! of a block decode it once and hash or allocate nothing per run.

use std::collections::HashMap;

use bsched_faults::{fault_point, Site};
use bsched_ir::{BasicBlock, Inst, InstId, OpLatencies, Reg};
use bsched_memsim::LatencyModel;
use bsched_stats::Pcg32;

use crate::error::SimError;
use crate::processor::ProcessorModel;
use crate::result::{InterlockBreakdown, SimResult};

/// One issued instruction in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueEvent {
    /// The instruction.
    pub id: InstId,
    /// Cycle at which it issued.
    pub issue_cycle: u64,
    /// For loads, the sampled completion cycle; for others, issue + 1.
    pub complete_cycle: u64,
    /// Interlock cycles charged immediately before this issue.
    pub stall_cycles: u64,
}

impl IssueEvent {
    /// Cycles from issue to completion — a load's sampled latency, 1 for
    /// anything else.
    #[must_use]
    pub fn latency(&self) -> u64 {
        self.complete_cycle.saturating_sub(self.issue_cycle)
    }
}

/// Simulates one execution of `block` in its current instruction order.
///
/// The model (§4.3): single-issue, in-order, one instruction per cycle;
/// non-load results are available the cycle after issue; loads complete
/// `latency` cycles after issue, where the latency of every dynamic load
/// is an independent draw from `mem`. An instruction whose source
/// operands are not yet available stalls the processor (hardware
/// interlock); the processor-model constraints add further stalls.
///
/// Store/load consistency (§4.4) holds structurally: the scheduler never
/// reorders conflicting memory accesses, stores retire into an ideal
/// write buffer at issue, and a later load to the same address forwards
/// from that buffer — so no extra stall cycles arise from consistency.
///
/// Virtual no-ops, if any survived scheduling, are skipped: "the virtual
/// no-ops are removed before actual code generation" (§4.1).
#[must_use]
pub fn simulate_block(
    block: &BasicBlock,
    mem: &dyn LatencyModel,
    model: ProcessorModel,
    rng: &mut Pcg32,
) -> SimResult {
    simulate_block_wide(block, mem, model, 1, rng).0
}

/// Like [`simulate_block`], also returning the per-instruction trace.
#[must_use]
pub fn simulate_block_traced(
    block: &BasicBlock,
    mem: &dyn LatencyModel,
    model: ProcessorModel,
    rng: &mut Pcg32,
) -> (SimResult, Vec<IssueEvent>) {
    let (result, _, trace) = simulate_block_wide_traced(block, mem, model, 1, rng);
    (result, trace)
}

/// §6 extension: an in-order superscalar that issues up to `width`
/// instructions per cycle. Results still appear one cycle after issue
/// (loads: after their sampled latency), so same-cycle dependent pairs
/// split across cycles exactly as on real in-order multi-issue machines.
///
/// Returns the per-instruction accounting plus the **elapsed** cycle
/// count — with `width > 1`, elapsed time is less than
/// `instructions + interlocks` because slots overlap. With `width = 1`
/// the elapsed count equals [`SimResult::cycles`].
///
/// # Panics
///
/// Panics if `width` is zero.
#[must_use]
pub fn simulate_block_wide(
    block: &BasicBlock,
    mem: &dyn LatencyModel,
    model: ProcessorModel,
    width: u32,
    rng: &mut Pcg32,
) -> (SimResult, u64) {
    simulate_block_custom(block, mem, model, width, OpLatencies::unit(), rng)
}

/// [`simulate_block_wide`] plus the per-instruction trace: the same run
/// loop, so `(result, elapsed)` equal that function's output for the same
/// `rng`, and several events may share an issue cycle.
///
/// # Panics
///
/// Panics if `width` is zero.
#[must_use]
pub fn simulate_block_wide_traced(
    block: &BasicBlock,
    mem: &dyn LatencyModel,
    model: ProcessorModel,
    width: u32,
    rng: &mut Pcg32,
) -> (SimResult, u64, Vec<IssueEvent>) {
    let mut sim = Simulator::new(block, mem, model, width, OpLatencies::unit());
    let mut trace = Vec::with_capacity(sim.insts.len());
    let (result, elapsed) = sim
        .run(rng, Some(&mut trace), u64::MAX)
        .expect("an unlimited budget cannot be exceeded");
    (result, elapsed, trace)
}

/// The fully configurable simulation entry point: issue `width`, plus
/// fixed multi-cycle latencies for non-load opcodes (§6's asynchronous
/// FP units — an `fdiv`'s result becomes available `op_latencies`
/// cycles after issue instead of 1).
///
/// # Panics
///
/// Panics if `width` is zero.
#[must_use]
pub fn simulate_block_custom(
    block: &BasicBlock,
    mem: &dyn LatencyModel,
    model: ProcessorModel,
    width: u32,
    op_latencies: OpLatencies,
    rng: &mut Pcg32,
) -> (SimResult, u64) {
    Simulator::new(block, mem, model, width, op_latencies)
        .run(rng, None, u64::MAX)
        .expect("an unlimited budget cannot be exceeded")
}

/// Per-run samples from one batch of independent simulations: everything
/// the §4.3 measurement protocol consumes, produced in a **single**
/// simulation pass per run.
///
/// Run `r` draws its latencies from `rng.split(r)`, so each run is
/// bit-identical to a single-run call on that stream, and `interlocks`
/// comes for free from the same runs.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Elapsed cycles per run (equals `instructions + interlocks` at
    /// issue width 1; less when slots overlap on a wider machine).
    pub elapsed: Vec<f64>,
    /// Interlock cycles per run.
    pub interlocks: Vec<f64>,
}

impl RunStats {
    /// Mean interlock cycles across the batch (0 for an empty batch).
    #[must_use]
    pub fn mean_interlocks(&self) -> f64 {
        if self.interlocks.is_empty() {
            0.0
        } else {
            self.interlocks.iter().sum::<f64>() / self.interlocks.len() as f64
        }
    }
}

/// The one batch entry point: runs `runs` independent simulations
/// (fresh latency draws each run, split deterministically from `rng`)
/// and returns both the elapsed cycle count and the interlock count of
/// every run — the raw samples the §4.3 bootstrap consumes. Each
/// `(block, run)` pair is simulated exactly once.
///
/// Each run is bounded by a per-run cycle `budget` (`None` means
/// unlimited) and the batch checks the thread's cancellation token
/// between runs. A run whose issue clock passes the
/// budget fails the whole batch with [`SimError::BudgetExceeded`]; a
/// tripped [`bsched_faults::CancelToken`] fails it with
/// [`SimError::Cancelled`].
///
/// # Errors
///
/// See above — the two [`SimError`] variants.
///
/// # Panics
///
/// Panics if `width` is zero.
pub fn try_simulate_runs_stats(
    block: &BasicBlock,
    mem: &dyn LatencyModel,
    model: ProcessorModel,
    width: u32,
    runs: u32,
    budget: Option<u64>,
    rng: &Pcg32,
) -> Result<RunStats, SimError> {
    Simulator::new(block, mem, model, width, OpLatencies::unit()).batch(
        runs,
        rng,
        budget.unwrap_or(u64::MAX),
    )
}

/// Maps a symbolic memory location to a flat simulated address: each
/// region gets a 16 GiB band, offsets (possibly negative, e.g. `a[-1]`)
/// land inside it. Unknown offsets map to `None` so address-aware models
/// treat them as unpredictable.
fn address_of(inst: &Inst) -> Option<u64> {
    let access = inst.mem()?;
    let offset = access.loc().offset()?;
    let base = (u64::from(access.loc().region().raw()) + 1) << 34;
    Some(base.wrapping_add_signed(offset))
}

/// An in-flight load.
#[derive(Debug, Clone, Copy)]
struct Outstanding {
    issued: u64,
    completes: u64,
}

/// One non-vnop instruction, decoded once per [`Simulator`].
#[derive(Debug, Clone, Copy)]
struct Decoded {
    id: InstId,
    is_load: bool,
    /// The load's simulated address (`None` for non-loads too).
    address: Option<u64>,
    /// Result latency of a non-load.
    latency: u64,
    /// `operands[start..uses_end]` are the uses,
    /// `operands[uses_end..defs_end]` the defs, as dense register indices.
    start: u32,
    uses_end: u32,
    defs_end: u32,
}

/// A block decoded for repeated simulation, plus the per-run buffers its
/// runs share.
struct Simulator<'a> {
    mem: &'a dyn LatencyModel,
    model: ProcessorModel,
    width: u32,
    insts: Vec<Decoded>,
    operands: Vec<u32>,
    /// Register scoreboard: the cycle each dense register becomes ready.
    reg_ready: Vec<u64>,
    registers: usize,
    /// In-flight loads; tracked only under MAX-k and LEN-k.
    outstanding: Vec<Outstanding>,
    /// MAX-k scratch: completion cycles of the in-flight loads.
    completions: Vec<u64>,
}

impl<'a> Simulator<'a> {
    /// Decodes `block`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    fn new(
        block: &BasicBlock,
        mem: &'a dyn LatencyModel,
        model: ProcessorModel,
        width: u32,
        op_latencies: OpLatencies,
    ) -> Self {
        assert!(width >= 1, "issue width must be at least 1");
        let mut dense: HashMap<Reg, u32> = HashMap::new();
        let mut index = |r: Reg| {
            let next = dense.len() as u32;
            *dense.entry(r).or_insert(next)
        };
        let mut insts = Vec::with_capacity(block.len());
        let mut operands = Vec::new();
        for (id, inst) in block.iter_ids() {
            if inst.opcode().is_vnop() {
                continue;
            }
            let start = operands.len() as u32;
            operands.extend(inst.uses().iter().map(|&r| index(r)));
            let uses_end = operands.len() as u32;
            operands.extend(inst.defs().iter().map(|&r| index(r)));
            let is_load = inst.is_load();
            insts.push(Decoded {
                id,
                is_load,
                address: if is_load { address_of(inst) } else { None },
                latency: u64::from(op_latencies.latency(inst.opcode())),
                start,
                uses_end,
                defs_end: operands.len() as u32,
            });
        }
        let registers = dense.len();
        Self {
            mem,
            model,
            width,
            insts,
            operands,
            reg_ready: Vec::with_capacity(registers),
            registers,
            outstanding: Vec::new(),
            completions: Vec::new(),
        }
    }

    /// Runs `runs` simulations, run `r` on `rng.split(r)`, checking the
    /// thread's cancellation token before every run.
    fn batch(&mut self, runs: u32, rng: &Pcg32, budget: u64) -> Result<RunStats, SimError> {
        let mut elapsed = Vec::with_capacity(runs as usize);
        let mut interlocks = Vec::with_capacity(runs as usize);
        for r in 0..runs {
            if bsched_faults::cancelled() {
                return Err(SimError::Cancelled);
            }
            let mut run_rng = rng.split(u64::from(r));
            let (result, cycles) = self.run(&mut run_rng, None, budget)?;
            elapsed.push(cycles as f64);
            interlocks.push(result.interlocks as f64);
        }
        Ok(RunStats {
            elapsed,
            interlocks,
        })
    }

    /// The single simulation loop: one execution of the decoded block.
    /// `budget` bounds the run's issue clock: the moment an instruction's
    /// issue cycle passes it the run aborts with
    /// [`SimError::BudgetExceeded`]. The infallible entry points pass
    /// `u64::MAX`, which can never trip.
    fn run(
        &mut self,
        rng: &mut Pcg32,
        mut trace: Option<&mut Vec<IssueEvent>>,
        budget: u64,
    ) -> Result<(SimResult, u64), SimError> {
        let Self {
            mem,
            model,
            width,
            insts,
            operands,
            reg_ready,
            registers,
            outstanding,
            completions,
        } = self;
        let (mem, model, width) = (*mem, *model, *width);
        mem.begin_run();
        // Hoisted so the fault hooks cost one relaxed load per run, not one
        // per instruction, when no plan is installed.
        let faults_on = bsched_faults::active();
        let track_outstanding = model != ProcessorModel::Unlimited;
        reg_ready.clear();
        reg_ready.resize(*registers, 0);
        outstanding.clear();
        let mut breakdown = InterlockBreakdown::default();
        let mut cycle: u64 = 0;
        let mut slots_used: u32 = 0;
        let mut instructions: u64 = 0;

        for inst in insts.iter() {
            let earliest = cycle;

            // Operand readiness (register scoreboard).
            let operand_ready = operands[inst.start as usize..inst.uses_end as usize]
                .iter()
                .map(|&u| reg_ready[u as usize])
                .max()
                .unwrap_or(0);
            let mut issue = earliest.max(operand_ready);
            breakdown.operand += issue - earliest;

            // Injected processor stall: the machine simply loses `arg`
            // cycles before this issue (watchdog fodder — large stalls trip
            // the cycle budget below).
            if faults_on {
                if let Some(fault) = fault_point!(Site::SimStall) {
                    let stall = fault.arg.clamp(1, 1 << 50);
                    issue = issue.saturating_add(stall);
                    breakdown.operand = breakdown.operand.saturating_add(stall);
                }
            }

            // Processor-model constraints.
            match model {
                ProcessorModel::Unlimited => {}
                ProcessorModel::MaxOutstanding(k) => {
                    if inst.is_load {
                        outstanding.retain(|o| o.completes > issue);
                        if outstanding.len() >= k as usize {
                            // Block until enough outstanding loads complete:
                            // the (len − k)-th earliest completion frees a slot.
                            completions.clear();
                            completions.extend(outstanding.iter().map(|o| o.completes));
                            let nth = outstanding.len() - k as usize;
                            let free_at = *completions.select_nth_unstable(nth).1;
                            if free_at > issue {
                                breakdown.max_outstanding += free_at - issue;
                                issue = free_at;
                            }
                            outstanding.retain(|o| o.completes > issue);
                        }
                    }
                }
                ProcessorModel::MaxLength(k) => {
                    // The processor cannot execute past `issued + k` while a
                    // load is still outstanding: each such load creates a
                    // blocked interval [issued + k, completes).
                    loop {
                        let barrier = outstanding
                            .iter()
                            .filter(|o| issue >= o.issued + u64::from(k) && issue < o.completes)
                            .map(|o| o.completes)
                            .max();
                        match barrier {
                            Some(c) if c > issue => {
                                breakdown.max_length += c - issue;
                                issue = c;
                            }
                            _ => break,
                        }
                    }
                    outstanding.retain(|o| o.completes > issue);
                }
            }

            if issue > budget {
                return Err(SimError::BudgetExceeded {
                    budget,
                    cycle: issue,
                });
            }

            // Issue.
            let complete = if inst.is_load {
                let mut latency = mem.sample_at(inst.address, rng).max(1);
                // Adversarial jitter stays inside the model's declared
                // support, so the timeline validator's bounds still hold —
                // the *number* changes, never the invariant.
                if faults_on {
                    if let Some(fault) = fault_point!(Site::LatencyJitter) {
                        latency = bsched_faults::jitter_latency(
                            latency,
                            fault.arg,
                            mem.min_latency(),
                            mem.max_latency(),
                        );
                    }
                }
                let complete = issue.saturating_add(latency);
                if track_outstanding {
                    outstanding.push(Outstanding {
                        issued: issue,
                        completes: complete,
                    });
                }
                complete
            } else {
                issue + inst.latency
            };
            for &d in &operands[inst.uses_end as usize..inst.defs_end as usize] {
                reg_ready[d as usize] = complete;
            }
            if let Some(t) = trace.as_deref_mut() {
                t.push(IssueEvent {
                    id: inst.id,
                    issue_cycle: issue,
                    complete_cycle: complete,
                    stall_cycles: issue - earliest,
                });
            }
            instructions += 1;
            // Advance the issue clock: `width` slots per cycle.
            if issue > cycle {
                cycle = issue;
                slots_used = 0;
            }
            slots_used += 1;
            if slots_used >= width {
                cycle += 1;
                slots_used = 0;
            }
        }

        let elapsed = cycle + u64::from(slots_used > 0);
        Ok((
            SimResult {
                instructions,
                interlocks: breakdown.total(),
                breakdown,
            },
            elapsed,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsched_ir::BlockBuilder;
    use bsched_memsim::{FixedLatency, MemorySystem, NetworkModel};

    /// An unbudgeted width-1 UNLIMITED batch.
    fn unbudgeted(block: &BasicBlock, mem: &dyn LatencyModel, runs: u32, rng: &Pcg32) -> RunStats {
        try_simulate_runs_stats(block, mem, ProcessorModel::Unlimited, 1, runs, None, rng).unwrap()
    }

    /// base; k independent loads; an add consuming the last load.
    fn block_with_loads(k: usize) -> BasicBlock {
        let mut b = BlockBuilder::new("t");
        let region = b.fresh_region();
        let base = b.def_int("base");
        let mut last = None;
        for i in 0..k {
            last = Some(b.load_region("l", region, base, Some(8 * i as i64)));
        }
        if let Some(v) = last {
            let _ = b.fadd("use", v, v);
        }
        b.finish()
    }

    #[test]
    fn alu_only_block_has_no_interlocks() {
        let mut b = BlockBuilder::new("alu");
        let c = b.fconst("c", 1.0);
        let d = b.fadd("d", c, c);
        let _ = b.fmul("e", d, d);
        let block = b.finish();
        let mut rng = Pcg32::seed_from_u64(0);
        let r = simulate_block(
            &block,
            &FixedLatency::new(9),
            ProcessorModel::Unlimited,
            &mut rng,
        );
        assert_eq!(r.instructions, 3);
        assert_eq!(r.interlocks, 0, "single-cycle chain never stalls");
        assert_eq!(r.cycles(), 3);
    }

    #[test]
    fn immediate_use_stalls_for_latency() {
        // load at cycle 1 (after base at 0); use at cycle 2 nominally but
        // data arrives at 1 + λ: stall λ − 1.
        let block = block_with_loads(1);
        for lambda in 1..8u64 {
            let mut rng = Pcg32::seed_from_u64(0);
            let r = simulate_block(
                &block,
                &FixedLatency::new(lambda),
                ProcessorModel::Unlimited,
                &mut rng,
            );
            assert_eq!(r.interlocks, lambda - 1, "λ={lambda}");
            assert_eq!(r.breakdown.operand, lambda - 1);
        }
    }

    #[test]
    fn independent_loads_overlap_under_unlimited() {
        // 16 independent loads of latency 10, then one use of the last:
        // loads pipeline one per cycle; only the final use stalls.
        let block = block_with_loads(16);
        let mut rng = Pcg32::seed_from_u64(0);
        let r = simulate_block(
            &block,
            &FixedLatency::new(10),
            ProcessorModel::Unlimited,
            &mut rng,
        );
        // base@0, loads @1..=16, last completes at 16+10=26, use stalls
        // from 17 to 26: 9 interlocks.
        assert_eq!(r.instructions, 18);
        assert_eq!(r.interlocks, 9);
    }

    #[test]
    fn max_outstanding_blocks_extra_loads() {
        // With MAX-2 and latency 10, the third load must wait for the
        // first to complete.
        let block = block_with_loads(4);
        let mut rng = Pcg32::seed_from_u64(0);
        let unlimited = simulate_block(
            &block,
            &FixedLatency::new(10),
            ProcessorModel::Unlimited,
            &mut rng,
        );
        let mut rng = Pcg32::seed_from_u64(0);
        let max2 = simulate_block(
            &block,
            &FixedLatency::new(10),
            ProcessorModel::MaxOutstanding(2),
            &mut rng,
        );
        assert!(max2.cycles() > unlimited.cycles());
        assert!(max2.breakdown.max_outstanding > 0);
        // Exact accounting: base@0; l1@1 completes 11; l2@2 completes 12;
        // l3 wants cycle 3 but both slots are busy → blocked until 11
        // (8 stall cycles), completes 21; l4 wants 12, one slot free →
        // issues immediately; the final use waits on l4 (operand stall).
        assert_eq!(max2.breakdown.max_outstanding, 8);
        assert_eq!(max2.breakdown.operand, 22 - 13);
    }

    #[test]
    fn max_length_blocks_old_loads() {
        // LEN-2 with latency 10: after a load is 2 cycles old the CPU
        // stalls until its data returns.
        let block = block_with_loads(3);
        let mut rng = Pcg32::seed_from_u64(0);
        let r = simulate_block(
            &block,
            &FixedLatency::new(10),
            ProcessorModel::MaxLength(2),
            &mut rng,
        );
        assert!(r.breakdown.max_length > 0);
        // base@0; l1@1 (completes 11); l2@2; l3 would issue at 3 = l1.issued+2
        // → blocked until 11. l3@11 completes 21; l2 completed 12 < 11? no:
        // l2 issued 2, completes 12; at cycle 11 l2 is 9 ≥ 2 cycles old…
        // after unblocking at 11, l2 still outstanding and 11 ≥ 2+2 → block
        // to 12. l3@12, completes 22; use at 13 ≥ 12+2? l3 outstanding, age
        // 1 < 2 → operand stall until 22.
        let mut rng = Pcg32::seed_from_u64(0);
        let unlimited = simulate_block(
            &block,
            &FixedLatency::new(10),
            ProcessorModel::Unlimited,
            &mut rng,
        );
        assert!(r.cycles() > unlimited.cycles());
    }

    #[test]
    fn len_model_with_short_latency_never_blocks() {
        let block = block_with_loads(6);
        let mut rng = Pcg32::seed_from_u64(0);
        let r = simulate_block(
            &block,
            &FixedLatency::new(2),
            ProcessorModel::MaxLength(8),
            &mut rng,
        );
        assert_eq!(r.breakdown.max_length, 0);
    }

    #[test]
    fn vnops_are_skipped() {
        use bsched_ir::{Inst, Opcode};
        let mut b = BlockBuilder::new("v");
        let _ = b.def_int("x");
        b.push(Inst::new(Opcode::VNop, vec![], vec![], None));
        let block = b.finish();
        let mut rng = Pcg32::seed_from_u64(0);
        let r = simulate_block(
            &block,
            &FixedLatency::new(1),
            ProcessorModel::Unlimited,
            &mut rng,
        );
        assert_eq!(r.instructions, 1, "vnop not counted");
    }

    #[test]
    fn traced_simulation_matches_untr() {
        let block = block_with_loads(4);
        let mut rng = Pcg32::seed_from_u64(5);
        let plain = simulate_block(
            &block,
            &FixedLatency::new(5),
            ProcessorModel::Unlimited,
            &mut rng,
        );
        let mut rng = Pcg32::seed_from_u64(5);
        let (traced, events) = simulate_block_traced(
            &block,
            &FixedLatency::new(5),
            ProcessorModel::Unlimited,
            &mut rng,
        );
        assert_eq!(plain, traced);
        assert_eq!(events.len(), 6);
        assert!(events
            .windows(2)
            .all(|w| w[0].issue_cycle < w[1].issue_cycle));
        assert_eq!(
            events.iter().map(|e| e.stall_cycles).sum::<u64>(),
            traced.interlocks
        );
    }

    #[test]
    fn simulate_runs_is_deterministic_per_seed() {
        let block = block_with_loads(8);
        let mem: MemorySystem = NetworkModel::new(3.0, 2.0).into();
        let rng = Pcg32::seed_from_u64(100);
        let a = unbudgeted(&block, &mem, 30, &rng).elapsed;
        let b = unbudgeted(&block, &mem, 30, &rng).elapsed;
        assert_eq!(a, b);
        assert_eq!(a.len(), 30);
        // Stochastic latencies: runs should not all coincide.
        assert!(a.iter().any(|&x| x != a[0]));
    }

    #[test]
    fn runs_stats_single_pass_matches_separate_passes() {
        // The batch entry point must reproduce, bit for bit, both its own
        // elapsed samples and the interlocks a separate per-run
        // `simulate_block` pass would have counted.
        let block = block_with_loads(8);
        let mem: MemorySystem = NetworkModel::new(3.0, 2.0).into();
        let rng = Pcg32::seed_from_u64(42);
        let stats = unbudgeted(&block, &mem, 30, &rng);
        let elapsed = unbudgeted(&block, &mem, 30, &rng).elapsed;
        assert_eq!(stats.elapsed, elapsed);
        let interlocks: Vec<f64> = (0..30u32)
            .map(|r| {
                let mut run_rng = rng.split(u64::from(r));
                simulate_block(&block, &mem, ProcessorModel::Unlimited, &mut run_rng).interlocks
                    as f64
            })
            .collect();
        assert_eq!(stats.interlocks, interlocks);
        let mean = interlocks.iter().sum::<f64>() / 30.0;
        assert_eq!(stats.mean_interlocks(), mean);
    }

    #[test]
    fn runs_stats_empty_batch() {
        let block = block_with_loads(1);
        let rng = Pcg32::seed_from_u64(0);
        let stats = unbudgeted(&block, &FixedLatency::new(2), 0, &rng);
        assert!(stats.elapsed.is_empty());
        assert_eq!(stats.mean_interlocks(), 0.0);
    }

    #[test]
    fn stochastic_runs_average_near_expectation() {
        // A single load immediately used: expected stalls = E[λ] − 1.
        let block = block_with_loads(1);
        let mem: MemorySystem = NetworkModel::new(5.0, 2.0).into();
        let rng = Pcg32::seed_from_u64(7);
        let runs = unbudgeted(&block, &mem, 2000, &rng).elapsed;
        let mean_cycles = runs.iter().sum::<f64>() / runs.len() as f64;
        // 3 instructions + (E[λ]−1) stalls.
        let expected = 3.0
            + (bsched_memsim::LatencyModel::effective_latency(&NetworkModel::new(5.0, 2.0)) - 1.0);
        assert!(
            (mean_cycles - expected).abs() < 0.15,
            "{mean_cycles} vs {expected}"
        );
    }

    #[test]
    fn empty_block() {
        let block = BasicBlock::new("e", vec![]);
        let mut rng = Pcg32::seed_from_u64(0);
        let r = simulate_block(
            &block,
            &FixedLatency::new(3),
            ProcessorModel::Unlimited,
            &mut rng,
        );
        assert_eq!(r.cycles(), 0);
    }

    #[test]
    fn dual_issue_halves_alu_runtime() {
        // Six independent FP constants: width 1 → 6 cycles, width 2 → 3.
        let mut b = BlockBuilder::new("wide");
        for k in 0..6 {
            let _ = b.fconst(&format!("c{k}"), f64::from(k));
        }
        let block = b.finish();
        let mut rng = Pcg32::seed_from_u64(0);
        let (w1, e1) = simulate_block_wide(
            &block,
            &FixedLatency::new(1),
            ProcessorModel::Unlimited,
            1,
            &mut rng,
        );
        let (w2, e2) = simulate_block_wide(
            &block,
            &FixedLatency::new(1),
            ProcessorModel::Unlimited,
            2,
            &mut rng,
        );
        let (_, e6) = simulate_block_wide(
            &block,
            &FixedLatency::new(1),
            ProcessorModel::Unlimited,
            6,
            &mut rng,
        );
        assert_eq!(e1, 6);
        assert_eq!(e2, 3);
        assert_eq!(e6, 1, "fully parallel block issues in one cycle at width 6");
        assert_eq!(w2.interlocks, 0);
        assert_eq!(
            w1,
            simulate_block(
                &block,
                &FixedLatency::new(1),
                ProcessorModel::Unlimited,
                &mut rng
            ),
            "width 1 ≡ single issue"
        );
        assert_eq!(
            e1,
            w1.cycles(),
            "width-1 elapsed matches the paper's accounting"
        );
    }

    #[test]
    fn wide_trace_shares_issue_cycles() {
        let mut b = BlockBuilder::new("wide");
        for k in 0..5 {
            let _ = b.fconst(&format!("c{k}"), f64::from(k));
        }
        let block = b.finish();
        let mut rng = Pcg32::seed_from_u64(0);
        let (r, elapsed, events) = simulate_block_wide_traced(
            &block,
            &FixedLatency::new(1),
            ProcessorModel::Unlimited,
            2,
            &mut rng,
        );
        let cycles: Vec<u64> = events.iter().map(|e| e.issue_cycle).collect();
        assert_eq!(cycles, vec![0, 0, 1, 1, 2]);
        assert_eq!(elapsed, 3, "a half-used last cycle still counts");
        assert_eq!(r.instructions, 5);
    }

    #[test]
    fn dual_issue_respects_data_dependences() {
        // A dependent chain cannot dual-issue: each result is available
        // the cycle after issue, so three chained adds take three cycles
        // even at width 4.
        let mut b = BlockBuilder::new("chain");
        let c = b.fconst("c", 1.0);
        let d = b.fadd("d", c, c);
        let _ = b.fadd("e", d, d);
        let block = b.finish();
        let mut rng = Pcg32::seed_from_u64(0);
        let (r, elapsed) = simulate_block_wide(
            &block,
            &FixedLatency::new(1),
            ProcessorModel::Unlimited,
            4,
            &mut rng,
        );
        assert_eq!(elapsed, 3);
        assert_eq!(r.breakdown.operand, 2, "two one-cycle waits on the chain");
    }

    #[test]
    #[should_panic(expected = "issue width must be at least 1")]
    fn zero_width_panics() {
        let block = BasicBlock::new("e", vec![]);
        let mut rng = Pcg32::seed_from_u64(0);
        let _ = simulate_block_wide(
            &block,
            &FixedLatency::new(1),
            ProcessorModel::Unlimited,
            0,
            &mut rng,
        );
    }

    /// Fault-plan tests share the process-global plan registry; keep
    /// them serialized and keyed to a context no other test uses.
    static FAULT_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn fault_lock() -> std::sync::MutexGuard<'static, ()> {
        FAULT_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn budget_kills_a_runaway_run() {
        let block = block_with_loads(1);
        let rng = Pcg32::seed_from_u64(0);
        let err = try_simulate_runs_stats(
            &block,
            &FixedLatency::new(10),
            ProcessorModel::Unlimited,
            1,
            5,
            Some(1),
            &rng,
        )
        .unwrap_err();
        assert!(
            matches!(err, crate::SimError::BudgetExceeded { budget: 1, .. }),
            "{err:?}"
        );
        // A budget the block fits under changes nothing.
        let ok = try_simulate_runs_stats(
            &block,
            &FixedLatency::new(10),
            ProcessorModel::Unlimited,
            1,
            5,
            Some(1_000),
            &rng,
        )
        .unwrap();
        assert_eq!(ok.elapsed.len(), 5);
    }

    #[test]
    fn cancelled_token_stops_the_batch() {
        let block = block_with_loads(2);
        let rng = Pcg32::seed_from_u64(0);
        let token = bsched_faults::CancelToken::new();
        token.cancel();
        let err = bsched_faults::with_cancel_token(token, || {
            try_simulate_runs_stats(
                &block,
                &FixedLatency::new(2),
                ProcessorModel::Unlimited,
                1,
                5,
                None,
                &rng,
            )
        })
        .unwrap_err();
        assert_eq!(err, crate::SimError::Cancelled);
    }

    #[test]
    fn injected_stall_trips_the_budget() {
        use bsched_faults::{FaultPlan, FaultSpec, Site};
        let _g = fault_lock();
        let block = block_with_loads(2);
        let rng = Pcg32::seed_from_u64(0);
        bsched_faults::install(
            FaultPlan::seeded(1).with(FaultSpec::always(Site::SimStall).with_key("__chaos__")),
        );
        let err = bsched_faults::with_cell_context("__chaos__", 0, || {
            try_simulate_runs_stats(
                &block,
                &FixedLatency::new(2),
                ProcessorModel::Unlimited,
                1,
                3,
                Some(1_000_000),
                &rng,
            )
        })
        .unwrap_err();
        bsched_faults::clear();
        assert!(
            matches!(err, crate::SimError::BudgetExceeded { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn injected_jitter_is_clamped_to_the_declared_support() {
        use bsched_faults::{FaultPlan, FaultSpec, Site};
        let _g = fault_lock();
        let block = block_with_loads(4);
        let rng = Pcg32::seed_from_u64(9);
        // Point support: jitter must clamp back to the fixed latency, so
        // the perturbed run is bit-identical to the clean one.
        let clean = unbudgeted(&block, &FixedLatency::new(7), 10, &rng);
        bsched_faults::install(
            FaultPlan::seeded(3).with(FaultSpec::always(Site::LatencyJitter).with_key("__chaos__")),
        );
        let jittered = bsched_faults::with_cell_context("__chaos__", 0, || {
            try_simulate_runs_stats(
                &block,
                &FixedLatency::new(7),
                ProcessorModel::Unlimited,
                1,
                10,
                None,
                &rng,
            )
        })
        .unwrap();
        // Unbounded support: jitter slows the runs down.
        let mem: MemorySystem = NetworkModel::new(3.0, 2.0).into();
        let net_clean = unbudgeted(&block, &mem, 10, &rng);
        let net_jittered = bsched_faults::with_cell_context("__chaos__", 0, || {
            try_simulate_runs_stats(&block, &mem, ProcessorModel::Unlimited, 1, 10, None, &rng)
        })
        .unwrap();
        bsched_faults::clear();
        assert_eq!(clean, jittered, "point support absorbs all jitter");
        for (c, j) in net_clean.elapsed.iter().zip(&net_jittered.elapsed) {
            assert!(j >= c, "jitter may only slow a run down: {j} < {c}");
        }
        assert_ne!(net_clean.elapsed, net_jittered.elapsed);
    }

    #[test]
    fn line_cache_sees_spatial_locality() {
        use bsched_memsim::LineCache;
        // Eight consecutive 8-byte loads in one region: 32-byte lines ⇒
        // 2 misses + 6 hits, deterministically.
        let mut b = BlockBuilder::new("stream");
        let region = b.fresh_region();
        let base = b.def_int("base");
        for k in 0..8 {
            let _ = b.load_region("l", region, base, Some(8 * k));
        }
        let block = b.finish();
        let cache = LineCache::new(32, 64, 2, 2, 10);
        let mut rng = Pcg32::seed_from_u64(0);
        let (_, events) =
            simulate_block_traced(&block, &cache, ProcessorModel::Unlimited, &mut rng);
        let latencies: Vec<u64> = events
            .iter()
            .skip(1)
            .map(|e| e.complete_cycle - e.issue_cycle)
            .collect();
        assert_eq!(latencies, vec![10, 2, 2, 2, 10, 2, 2, 2]);
    }

    #[test]
    fn line_cache_state_resets_between_runs() {
        use bsched_memsim::LineCache;
        let mut b = BlockBuilder::new("one");
        let region = b.fresh_region();
        let base = b.def_int("base");
        let _ = b.load_region("l", region, base, Some(0));
        let block = b.finish();
        let cache = LineCache::new(32, 4, 1, 2, 10);
        let rng = Pcg32::seed_from_u64(1);
        let runs = unbudgeted(&block, &cache, 5, &rng).elapsed;
        // Every run starts cold: identical cycle counts.
        assert!(runs.iter().all(|&c| c == runs[0]), "{runs:?}");
    }

    #[test]
    fn distinct_regions_use_distinct_addresses() {
        use bsched_memsim::LineCache;
        // Loads at offset 0 of two different regions must not alias in
        // the cache line space.
        let mut b = BlockBuilder::new("two");
        let r1 = b.fresh_region();
        let r2 = b.fresh_region();
        let base = b.def_int("base");
        let _ = b.load_region("a", r1, base, Some(0));
        let _ = b.load_region("b", r2, base, Some(0));
        let _ = b.load_region("a2", r1, base, Some(0));
        let block = b.finish();
        let cache = LineCache::new(32, 64, 4, 2, 10);
        let mut rng = Pcg32::seed_from_u64(0);
        let (_, events) =
            simulate_block_traced(&block, &cache, ProcessorModel::Unlimited, &mut rng);
        let lat: Vec<u64> = events
            .iter()
            .skip(1)
            .map(|e| e.complete_cycle - e.issue_cycle)
            .collect();
        assert_eq!(
            lat,
            vec![10, 10, 2],
            "miss, miss (different region), hit (revisit)"
        );
    }
}
