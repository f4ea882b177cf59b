//! The §6 extensions: applying balanced scheduling beyond uncertain
//! loads.
//!
//! 1. **Known-latency loads**: "disabling balanced scheduling when the
//!    latency is known (e.g., for the second access to a cache line)" —
//!    pin such loads to their known latency while the rest stay balanced.
//! 2. **Other multi-cycle instructions**: "other multi-cycle instructions
//!    (e.g., floating point operations coupled with asynchronous floating
//!    point units)" — mark FP divides as uncertain-latency nodes and let
//!    the balanced weights cover them too.
//!
//! Run with: `cargo run --example extensions`

use balanced_scheduling::ir::Opcode;
use balanced_scheduling::prelude::*;
use balanced_scheduling::sched::BalancedWeights;

fn main() {
    // --- Extension 1: pinning known-latency loads -----------------------
    // Two loads hit the same cache line: the second is guaranteed to hit
    // (2 cycles). Pin it; balance the rest.
    let mut b = BlockBuilder::new("pinning");
    let region = b.fresh_region();
    let base = b.def_int("base");
    let first = b.load_region("first", region, base, Some(0));
    let second = b.load_region("second", region, base, Some(8)); // same line
    let far = b.load_region("far", region, base, Some(4096));
    let s = b.fadd("s", first, second);
    let t = b.fadd("t", s, far);
    b.store_region(region, t, base, Some(8192));
    let block = b.finish();
    let dag = build_dag(&block, AliasModel::Fortran);

    let second_id = block.load_ids()[1];
    let plain = BalancedWeights::new().assign(&dag);
    let pinned = BalancedWeights::new()
        .with_known_latency(second_id, Ratio::from_int(2))
        .assign(&dag);
    println!("Known-latency pinning:");
    for id in dag.load_ids() {
        println!(
            "  {:7} balanced weight {} -> pinned {}",
            block.label(id),
            plain.weight(id),
            pinned.weight(id)
        );
    }

    // --- Extension 2: balancing asynchronous FP divides ------------------
    // Treat `div.d` as an uncertain-latency operation: mark the node
    // load-like, and the weight algorithm distributes parallelism over
    // it exactly as it does over loads.
    let mut b = BlockBuilder::new("fpdiv");
    let region = b.fresh_region();
    let base = b.def_int("base");
    let x = b.load_region("x", region, base, Some(0));
    let y = b.load_region("y", region, base, Some(8));
    let q = b.fdiv("q", x, y); // long-latency asynchronous divide
    let a = b.fconst("a", 1.0);
    let bb = b.fconst("b", 2.0);
    let c = b.fmul("c", a, bb);
    let d = b.fadd("d", c, c);
    let out = b.fadd("out", q, d);
    b.store_region(region, out, base, Some(16));
    let block = b.finish();

    let mut dag = build_dag(&block, AliasModel::Fortran);
    let div_id = block
        .iter_ids()
        .find(|(_, i)| i.opcode() == Opcode::FDiv)
        .map(|(id, _)| id)
        .expect("divide exists");

    let before = BalancedWeights::new().assign(&dag);
    dag.mark_load_like(div_id);
    let after = BalancedWeights::new().assign(&dag);
    println!("\nBalancing an asynchronous FP divide:");
    println!("  div.d weight before: {}", before.weight(div_id));
    println!(
        "  div.d weight after:  {} (now scheduled like an uncertain load)",
        after.weight(div_id)
    );

    let sched = ListScheduler::new().run_with_weights(&dag, &after);
    let names: Vec<_> = sched.order().iter().map(|&i| block.label(i)).collect();
    println!("  schedule: {}", names.join(" "));
    assert!(sched.verify(&dag).is_ok());

    // --- Extension 1 under a *real* cache ---------------------------------
    // With the address-tracking line cache, "second access to a cache
    // line" is a measurable event, not a thought experiment: pin every
    // load whose line was already touched earlier in the block and
    // compare against plain balanced scheduling.
    use balanced_scheduling::cpusim::simulate_block;
    use balanced_scheduling::memsim::LineCache;

    let mut b = BlockBuilder::new("lines");
    let region = b.fresh_region();
    let base = b.def_int("base");
    let mut vals = Vec::new();
    for k in 0..8i64 {
        // 8-byte loads over 32-byte lines: every second pair shares a line.
        vals.push(b.load_region(&format!("l{k}"), region, base, Some(8 * k)));
    }
    let mut acc = vals[0];
    for &v in &vals[1..] {
        acc = b.fadd("a", acc, v);
    }
    b.store_region(region, acc, base, Some(4096));
    let block = b.finish();
    let dag = build_dag(&block, AliasModel::Fortran);

    // Detect same-line second accesses (line size 32).
    let mut seen_lines = std::collections::HashSet::new();
    let mut pinned = BalancedWeights::new();
    let mut pin_count = 0;
    for (id, inst) in block.iter_ids() {
        if let Some(m) = inst.mem() {
            if inst.is_load() {
                if let Some(off) = m.loc().offset() {
                    if !seen_lines.insert((m.loc().region(), off.div_euclid(32))) {
                        pinned = pinned.with_known_latency(id, Ratio::from_int(2));
                        pin_count += 1;
                    }
                }
            }
        }
    }
    println!("\nLine-cache experiment: {pin_count} of 8 loads pinned as known hits");

    let cache = LineCache::new(32, 64, 2, 2, 12);
    let scheduler = ListScheduler::new();
    for (label, weights) in [
        ("plain balanced", BalancedWeights::new().assign(&dag)),
        ("pinned balanced", pinned.assign(&dag)),
    ] {
        let sched = scheduler.run_with_weights(&dag, &weights);
        let ordered = sched.apply(&block);
        let mut rng = Pcg32::seed_from_u64(1);
        let result = simulate_block(&ordered, &cache, ProcessorModel::Unlimited, &mut rng);
        println!("  {label:16} {result}");
    }
}
