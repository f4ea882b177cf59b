//! Timeline sanity: the simulator's issue trace against first principles.

use std::collections::HashMap;

use bsched_cpusim::IssueEvent;
use bsched_ir::{BasicBlock, Reg};

use crate::error::VerifyError;

/// The elapsed cycle count of `block` on an idealised single-issue
/// machine where every load completes in exactly `min_load_latency`
/// cycles (clamped to at least 1, the simulator's floor) and every other
/// instruction in one.
///
/// This re-runs the dataflow from scratch — one instruction per cycle,
/// an instruction waits until its operands are ready — with no processor
/// model and the most optimistic latency the memory system can produce.
/// Real simulations only ever *add* stalls on top of this (longer
/// latency draws, MAX/LEN processor constraints), so the result is a
/// hard lower bound on any legitimate elapsed time for the same block.
#[must_use]
pub fn min_latency_elapsed(block: &BasicBlock, min_load_latency: u64) -> u64 {
    min_latency_elapsed_at(block, 1, min_load_latency)
}

/// [`min_latency_elapsed`] on an in-order machine issuing up to `width`
/// instructions per cycle.
fn min_latency_elapsed_at(block: &BasicBlock, width: u32, min_load_latency: u64) -> u64 {
    let load_latency = min_load_latency.max(1);
    let mut ready: HashMap<Reg, u64> = HashMap::new();
    let mut cycle: u64 = 0;
    let mut slots_used: u32 = 0;
    for inst in block.insts() {
        if inst.opcode().is_vnop() {
            continue;
        }
        let operand_ready = inst
            .uses()
            .iter()
            .map(|u| ready.get(u).copied().unwrap_or(0))
            .max()
            .unwrap_or(0);
        let issue = cycle.max(operand_ready);
        let complete = issue + if inst.is_load() { load_latency } else { 1 };
        for &d in inst.defs() {
            ready.insert(d, complete);
        }
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
    cycle + u64::from(slots_used > 0)
}

/// Checks a simulation trace of `block` on a `width`-issue processor for
/// internal consistency:
///
/// * the trace covers exactly the block's non-vnop instructions, in
///   order;
/// * issue cycles never decrease, and at most `width` instructions issue
///   in any one cycle (at width 1, issue cycles strictly increase);
/// * every load's latency lies within the memory model's declared
///   support `[min_load_latency.max(1), max_load_latency]`, and every
///   other instruction completes the cycle after it issues;
/// * `elapsed` is the cycle after the last issue, and is at least the
///   min-latency critical path at `width` ([`min_latency_elapsed`] at
///   width 1) — the simulator cannot report a runtime faster than that.
///
/// `max_load_latency` is `None` for unbounded models (e.g. a normal
/// distribution's upper tail).
///
/// # Errors
///
/// Returns [`VerifyError::Timeline`] describing the first inconsistency.
///
/// # Panics
///
/// Panics if `width` is zero.
pub fn verify_timeline(
    block: &BasicBlock,
    events: &[IssueEvent],
    elapsed: u64,
    width: u32,
    min_load_latency: u64,
    max_load_latency: Option<u64>,
) -> Result<(), VerifyError> {
    assert!(width >= 1, "issue width must be at least 1");
    let timeline = |detail: String| VerifyError::Timeline { detail };
    let min_load_latency = min_load_latency.max(1);

    let mut events_iter = events.iter();
    let mut last_issue = None;
    let mut issued_this_cycle: u32 = 0;
    for (id, inst) in block.iter_ids() {
        if inst.opcode().is_vnop() {
            continue;
        }
        let Some(event) = events_iter.next() else {
            return Err(timeline(format!("trace ends before instruction {id}")));
        };
        if event.id != id {
            return Err(timeline(format!(
                "trace lists {} where the block has {id}",
                event.id
            )));
        }
        let cycle = event.issue_cycle;
        match last_issue {
            Some(prev) if cycle < prev => {
                return Err(timeline(format!(
                    "{id} issues at cycle {cycle}, before the previous issue at {prev}"
                )));
            }
            Some(prev) if cycle == prev => {
                issued_this_cycle += 1;
                if issued_this_cycle > width {
                    return Err(timeline(format!(
                        "{id} issues at cycle {cycle}, not after the previous issue at \
                         {prev}, though all {width} issue slots of that cycle are taken"
                    )));
                }
            }
            _ => issued_this_cycle = 1,
        }
        last_issue = Some(cycle);

        let latency = event.complete_cycle.saturating_sub(event.issue_cycle);
        if inst.is_load() {
            if latency < min_load_latency {
                return Err(timeline(format!(
                    "load {id} took {latency} cycles, below the model minimum {min_load_latency}"
                )));
            }
            if let Some(max) = max_load_latency {
                if latency > max {
                    return Err(timeline(format!(
                        "load {id} took {latency} cycles, above the model maximum {max}"
                    )));
                }
            }
        } else if latency != 1 {
            return Err(timeline(format!(
                "non-load {id} took {latency} cycles instead of 1"
            )));
        }
    }
    if let Some(extra) = events_iter.next() {
        return Err(timeline(format!(
            "trace has an extra event for {}",
            extra.id
        )));
    }

    let expected_elapsed = last_issue.map_or(0, |issue| issue + 1);
    if elapsed != expected_elapsed {
        return Err(timeline(format!(
            "elapsed {elapsed} cycles, but the last issue implies {expected_elapsed}"
        )));
    }
    let floor = min_latency_elapsed_at(block, width, min_load_latency);
    if elapsed < floor {
        return Err(timeline(format!(
            "elapsed {elapsed} cycles, below the min-latency critical path of {floor}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsched_cpusim::{simulate_block_traced, simulate_block_wide_traced, ProcessorModel};
    use bsched_ir::{BlockBuilder, InstId};
    use bsched_memsim::FixedLatency;
    use bsched_stats::Pcg32;

    /// base; x = load; y = load; s = x + y.
    fn demo_block() -> BasicBlock {
        let mut b = BlockBuilder::new("demo");
        let region = b.fresh_region();
        let base = b.def_int("base");
        let x = b.load_region("x", region, base, Some(0));
        let y = b.load_region("y", region, base, Some(8));
        let _ = b.fadd("s", x, y);
        b.finish()
    }

    fn trace(latency: u64) -> (BasicBlock, Vec<IssueEvent>, u64) {
        let block = demo_block();
        let mut rng = Pcg32::seed_from_u64(0);
        let (result, events) = simulate_block_traced(
            &block,
            &FixedLatency::new(latency),
            ProcessorModel::Unlimited,
            &mut rng,
        );
        (block, events, result.cycles())
    }

    #[test]
    fn real_traces_verify() {
        for latency in [1, 4, 20] {
            let (block, events, elapsed) = trace(latency);
            verify_timeline(&block, &events, elapsed, 1, latency, Some(latency)).unwrap();
            // Looser declared bounds also pass.
            verify_timeline(&block, &events, elapsed, 1, 1, None).unwrap();
        }
    }

    #[test]
    fn critical_path_matches_hand_count() {
        // base@0; loads @1,@2; add waits for y: issue 2+λ, elapsed 3+λ.
        let block = demo_block();
        for latency in [1u64, 4, 20] {
            assert_eq!(min_latency_elapsed(&block, latency), 3 + latency.max(1));
        }
        assert_eq!(min_latency_elapsed(&BasicBlock::new("e", vec![]), 5), 0);
    }

    #[test]
    fn latency_outside_declared_support_is_rejected() {
        let (block, events, elapsed) = trace(4);
        let err = verify_timeline(&block, &events, elapsed, 1, 5, None).unwrap_err();
        assert!(err.to_string().contains("below the model minimum"), "{err}");
        let err = verify_timeline(&block, &events, elapsed, 1, 1, Some(3)).unwrap_err();
        assert!(err.to_string().contains("above the model maximum"), "{err}");
    }

    #[test]
    fn tampered_traces_are_rejected() {
        let (block, events, elapsed) = trace(4);

        // Non-monotone issue.
        let mut bad = events.clone();
        bad[2].issue_cycle = bad[1].issue_cycle;
        let err = verify_timeline(&block, &bad, elapsed, 1, 1, None).unwrap_err();
        assert!(err.to_string().contains("not after"), "{err}");

        // Wrong instruction order.
        let mut bad = events.clone();
        bad.swap(1, 2);
        assert!(verify_timeline(&block, &bad, elapsed, 1, 1, None).is_err());

        // Missing / extra events.
        assert!(verify_timeline(&block, &events[..3], elapsed, 1, 1, None).is_err());
        let mut bad = events.clone();
        bad.push(IssueEvent {
            id: InstId::from_usize(9),
            issue_cycle: elapsed + 1,
            complete_cycle: elapsed + 2,
            stall_cycles: 0,
        });
        assert!(verify_timeline(&block, &bad, elapsed, 1, 1, None).is_err());

        // A non-load pretending to be multi-cycle.
        let mut bad = events.clone();
        bad[0].complete_cycle = bad[0].issue_cycle + 3;
        let err = verify_timeline(&block, &bad, elapsed, 1, 1, None).unwrap_err();
        assert!(err.to_string().contains("instead of 1"), "{err}");

        // Elapsed time inconsistent with the last issue.
        let err = verify_timeline(&block, &events, elapsed + 1, 1, 1, None).unwrap_err();
        assert!(err.to_string().contains("last issue implies"), "{err}");
    }

    #[test]
    fn impossibly_fast_elapsed_is_rejected() {
        // Claim every load finished instantly and issues were packed:
        // the min-latency critical path (λ = 4 declared) forbids it.
        let (block, events, elapsed) = trace(1);
        // With declared min 4, the λ=1 trace violates the per-load bound
        // first; squeeze the check down to the critical-path comparison
        // by handing it a consistent-looking fast trace.
        let err = verify_timeline(&block, &events, elapsed, 1, 4, None).unwrap_err();
        assert!(err.to_string().contains("below the model minimum"), "{err}");
        // And a trace whose per-event data is fine but whose elapsed
        // claim undercuts the critical path is caught by the floor.
        let floor = min_latency_elapsed(&block, 1);
        assert!(elapsed >= floor);
    }

    #[test]
    fn empty_block_trace_verifies() {
        let block = BasicBlock::new("e", vec![]);
        verify_timeline(&block, &[], 0, 1, 3, Some(3)).unwrap();
        assert!(verify_timeline(&block, &[], 1, 1, 3, Some(3)).is_err());
    }

    /// Four independent constants: a width-2 machine issues them two a
    /// cycle.
    fn wide_trace() -> (BasicBlock, Vec<IssueEvent>, u64) {
        let mut b = BlockBuilder::new("wide");
        for k in 0..4 {
            let _ = b.fconst(&format!("c{k}"), f64::from(k));
        }
        let block = b.finish();
        let mut rng = Pcg32::seed_from_u64(0);
        let (_, elapsed, events) = simulate_block_wide_traced(
            &block,
            &FixedLatency::new(1),
            ProcessorModel::Unlimited,
            2,
            &mut rng,
        );
        (block, events, elapsed)
    }

    #[test]
    fn dual_issue_traces_verify_at_their_width_only() {
        let (block, events, elapsed) = wide_trace();
        let cycles: Vec<u64> = events.iter().map(|e| e.issue_cycle).collect();
        assert_eq!(cycles, vec![0, 0, 1, 1]);
        assert_eq!(elapsed, 2);
        verify_timeline(&block, &events, elapsed, 2, 1, Some(1)).unwrap();
        let err = verify_timeline(&block, &events, elapsed, 1, 1, Some(1)).unwrap_err();
        assert!(err.to_string().contains("issue slots"), "{err}");
        // The width-2 floor is half the width-1 one for this block.
        assert_eq!(min_latency_elapsed_at(&block, 2, 1), 2);
        assert_eq!(min_latency_elapsed(&block, 1), 4);
    }

    #[test]
    fn three_issues_in_one_width_2_cycle_are_rejected() {
        let (block, events, elapsed) = wide_trace();
        let mut bad = events.clone();
        bad[2].issue_cycle = 0;
        bad[2].complete_cycle = 1;
        let err = verify_timeline(&block, &bad, elapsed, 2, 1, None).unwrap_err();
        assert!(err.to_string().contains("all 2 issue slots"), "{err}");

        // Issue cycles running backwards.
        let mut bad = events;
        bad[3].issue_cycle = 0;
        bad[3].complete_cycle = 1;
        let err = verify_timeline(&block, &bad, elapsed, 2, 1, None).unwrap_err();
        assert!(
            err.to_string().contains("before the previous issue"),
            "{err}"
        );
    }

    #[test]
    fn dual_issue_trace_faster_than_the_width_2_critical_path_is_rejected() {
        // demo_block at λ = 1 and width 2: base@0, both loads wait for
        // it and issue @1, the add @2 — elapsed 3. A trace that issues
        // the first load beside base and the add beside the second load
        // keeps every cycle within 2 slots but claims elapsed 2.
        let block = demo_block();
        let mut rng = Pcg32::seed_from_u64(0);
        let (_, elapsed, events) = simulate_block_wide_traced(
            &block,
            &FixedLatency::new(1),
            ProcessorModel::Unlimited,
            2,
            &mut rng,
        );
        assert_eq!(elapsed, 3);
        verify_timeline(&block, &events, elapsed, 2, 1, Some(1)).unwrap();
        let mut bad = events;
        for (e, cycle) in bad.iter_mut().zip([0, 0, 1, 1]) {
            e.issue_cycle = cycle;
            e.complete_cycle = cycle + 1;
        }
        let err = verify_timeline(&block, &bad, 2, 2, 1, None).unwrap_err();
        assert!(err.to_string().contains("critical path of 3"), "{err}");
    }
}
