//! The timeline validator over every trace of the simulator's golden
//! corpus (`crates/cpusim/tests/golden_sim.rs`) at issue widths 1 and 2:
//! each stand-in block and each `kernels/*.bsk` kernel, in source order
//! and balanced-scheduled then allocated, under every processor model
//! and memory-model kind.

#[path = "../../cpusim/tests/common/mod.rs"]
mod common;

use bsched_cpusim::{simulate_block_wide, simulate_block_wide_traced};
use bsched_stats::Pcg32;
use bsched_verify::verify_timeline;
use common::{corpus, memories, MODELS};

#[test]
fn every_golden_trace_verifies_at_its_width() {
    let memories = memories();
    let mut checked = 0;
    for (b, block) in corpus().iter().enumerate() {
        for mem in &memories {
            for model in MODELS {
                for width in [1, 2] {
                    let rng = Pcg32::seed_from_u64(b as u64);
                    let (result, elapsed, events) =
                        simulate_block_wide_traced(block, &**mem, model, width, &mut rng.clone());
                    assert_eq!(
                        (result, elapsed),
                        simulate_block_wide(block, &**mem, model, width, &mut rng.clone()),
                        "tracing changed the run of block {b}"
                    );
                    if let Err(e) = verify_timeline(
                        block,
                        &events,
                        elapsed,
                        width,
                        mem.min_latency(),
                        mem.max_latency(),
                    ) {
                        panic!("block {b}, {}, {model}, width {width}: {e}", mem.name());
                    }
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 1000, "{checked} traces");
}
