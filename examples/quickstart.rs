//! Quickstart: schedule one basic block with both schedulers and see why
//! balanced scheduling wins when memory latency is uncertain.
//!
//! Run with: `cargo run --example quickstart`

use balanced_scheduling::prelude::*;
use balanced_scheduling::sched::compute_priorities;

fn main() {
    // A small numeric block mixing parallel and serial loads: x0 and x1
    // are independent; y0 chases a pointer loaded by x0 (loads in
    // series); the rest is a reduction tree. The serial/parallel mix is
    // exactly what distinguishes the two schedulers.
    let mut b = BlockBuilder::new("quickstart");
    let region = b.fresh_region();
    let base = b.def_int("base");
    let x0 = b.load_region("x0", region, base, Some(0));
    let x1 = b.load_region("x1", region, base, Some(8));
    let p = b.int_to_addr("p", x0); // address computed from x0's value
    let y0 = b.load_region("y0", region, p, Some(16));
    let s0 = b.fadd("s0", x1, y0);
    let s1 = b.fmul("s1", s0, s0);
    let total = b.fadd("total", s1, x1);
    b.store_region(region, total, base, Some(32));
    let block = b.finish();

    println!("Input block:\n{block}");

    // Build the code DAG and inspect the balanced weights.
    let dag = build_dag(&block, AliasModel::Fortran);
    let weights = BalancedWeights::new().assign(&dag);
    println!("Balanced load weights (1 + shared issue slots / chances):");
    for id in dag.load_ids() {
        println!("  {:6} -> {}", block.label(id), weights.weight(id));
    }
    let priorities = compute_priorities(&dag, &weights);
    println!("Priorities (weight + max successor priority): {priorities:?}\n");

    // Schedule with both strategies.
    let scheduler = ListScheduler::new();
    let balanced = scheduler.run(&dag, &BalancedWeights::new());
    let traditional = scheduler.run(&dag, &TraditionalWeights::new(Ratio::from_int(2)));
    println!("Balanced schedule:\n{balanced}");
    println!("Traditional (w=2) schedule:\n{traditional}");

    // Execute both schedules under an uncertain memory system and compare.
    let mem = CacheModel::l80_10(); // 80% hits at 2 cycles, misses at 10
    let mut rng = Pcg32::seed_from_u64(42);
    let b_result = simulate_block(
        &balanced.apply(&block),
        &mem,
        ProcessorModel::Unlimited,
        &mut rng,
    );
    let mut rng = Pcg32::seed_from_u64(42);
    let t_result = simulate_block(
        &traditional.apply(&block),
        &mem,
        ProcessorModel::Unlimited,
        &mut rng,
    );
    println!(
        "Under {} (one sampled run, same seed):",
        LatencyModel::name(&mem)
    );
    println!("  balanced:    {b_result}");
    println!("  traditional: {t_result}");

    // The statistically sound comparison — the paper's full protocol —
    // on a realistic kernel (a 3-point stencil, unrolled 3×).
    let kernel = balanced_scheduling::workload::kernels::stencil3().with_unroll(3);
    let stencil = balanced_scheduling::workload::lower_kernel(&kernel, 1000.0);
    let func = Function::new("quickstart", vec![stencil]);
    let pipeline = Pipeline::default();
    let bal = pipeline
        .compile(&func, &SchedulerChoice::balanced())
        .expect("compile");
    let trad = pipeline
        .compile(&func, &SchedulerChoice::traditional(Ratio::from_int(2)))
        .expect("compile");
    let cfg = EvalConfig::default();
    let imp = compare(&evaluate(&trad, &mem, &cfg), &evaluate(&bal, &mem, &cfg));
    println!("\n30-run bootstrap comparison on an unrolled stencil: improvement {imp}");
}
