//! Golden simulator digest: every observable output of the cycle
//! simulator over a fixed corpus, folded into one FNV-1a hash.
//!
//! The benchmark's pinned digests only see UNLIMITED at issue width 1.
//! This test covers the rest of the configuration space — MAX-k and
//! LEN-k, dual issue, multi-cycle FP units, stateful memory models — so
//! any change to the simulation loop that moves a single cycle, stall
//! attribution or latency draw trips it. When a change is *meant* to
//! alter simulation results, regenerate the constant (the failure
//! message prints the new digest) and say why in the change log.

mod common;

use bsched_cpusim::{simulate_block_custom, simulate_block_traced, try_simulate_runs_stats};
use bsched_ir::{BasicBlock, OpLatencies};
use bsched_stats::Pcg32;
use common::{corpus, memories, MODELS};

/// The digest of [`simulator_digest`] over the corpus, generated on the
/// simulator loop before it was split into a decode plan and a run loop.
const GOLDEN: u64 = 0xdef3_e11f_5812_cded;

const RUNS: u32 = 4;

/// 64-bit FNV-1a over a stream of `u64` words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn simulator_digest(blocks: &[BasicBlock]) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let memories = memories();
    for (b, block) in blocks.iter().enumerate() {
        let root = Pcg32::seed_from_u64(b as u64);
        for (m, mem) in memories.iter().enumerate() {
            for model in MODELS {
                let rng = root.split(m as u64);
                for width in [1, 2] {
                    let stats =
                        try_simulate_runs_stats(block, &**mem, model, width, RUNS, None, &rng)
                            .expect("no budget, no cancellation");
                    for (e, i) in stats.elapsed.iter().zip(&stats.interlocks) {
                        h.word(e.to_bits());
                        h.word(i.to_bits());
                    }
                    for op_latencies in [OpLatencies::unit(), OpLatencies::mips_fpu()] {
                        let mut run_rng = rng.split(u64::from(RUNS));
                        let (r, elapsed) = simulate_block_custom(
                            block,
                            &**mem,
                            model,
                            width,
                            op_latencies,
                            &mut run_rng,
                        );
                        for w in [
                            elapsed,
                            r.instructions,
                            r.interlocks,
                            r.breakdown.operand,
                            r.breakdown.max_outstanding,
                            r.breakdown.max_length,
                        ] {
                            h.word(w);
                        }
                    }
                }
                let mut run_rng = rng.split(0);
                let (r, events) = simulate_block_traced(block, &**mem, model, &mut run_rng);
                h.word(r.cycles());
                for e in events {
                    h.word(u64::from(e.id.raw()));
                    h.word(e.issue_cycle);
                    h.word(e.complete_cycle);
                    h.word(e.stall_cycles);
                }
            }
        }
    }
    h.0
}

#[test]
fn simulator_outputs_match_the_golden_digest() {
    let blocks = corpus();
    assert!(blocks.len() > 40, "corpus has {} blocks", blocks.len());
    let digest = simulator_digest(&blocks);
    assert_eq!(
        digest, GOLDEN,
        "simulator outputs drifted: digest {digest:#018x}"
    );
}
