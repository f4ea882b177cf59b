//! Property-based tests over randomly generated blocks: invariants that
//! must hold for *any* straight-line program, not just the workload.

use std::cell::Cell;

use balanced_scheduling::cpusim::simulate_block_wide;
use balanced_scheduling::memsim::LatencyModel;
use balanced_scheduling::prelude::*;
use balanced_scheduling::sched::compute_priorities;
use balanced_scheduling::stats::SplitMix64;
use balanced_scheduling::workload::{random_block, GeneratorConfig};
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = GeneratorConfig> {
    (5usize..80, 0.05f64..0.7, 0.0f64..0.5, 0.0f64..0.3).prop_map(
        |(size, load_fraction, chain_fraction, store_fraction)| GeneratorConfig {
            size,
            load_fraction,
            chain_fraction,
            store_fraction,
        },
    )
}

/// A latency model that plays a script: the `i`-th load a run issues
/// takes `latencies[i]` cycles.
struct Scripted {
    latencies: Vec<u64>,
    next: Cell<usize>,
}

impl Scripted {
    fn new(latencies: Vec<u64>) -> Self {
        Self {
            latencies,
            next: Cell::new(0),
        }
    }
}

impl LatencyModel for Scripted {
    fn name(&self) -> String {
        "scripted".to_owned()
    }

    fn sample(&self, _rng: &mut Pcg32) -> u64 {
        let i = self.next.get();
        self.next.set(i + 1);
        self.latencies[i]
    }

    fn begin_run(&self) {
        self.next.set(0);
    }

    fn optimistic_latency(&self) -> f64 {
        1.0
    }

    fn effective_latency(&self) -> f64 {
        1.0
    }
}

/// Elapsed cycles of `block` when its loads take `latencies`, in issue
/// order.
fn scripted_elapsed(
    block: &BasicBlock,
    latencies: &[u64],
    model: ProcessorModel,
    width: u32,
) -> u64 {
    let mem = Scripted::new(latencies.to_vec());
    simulate_block_wide(block, &mem, model, width, &mut Pcg32::seed_from_u64(0)).1
}

/// LEN-k is *not* monotone in one load's latency, so a "monotone bound"
/// cannot cover it. Minimized from a random block: raising the first
/// load's latency from 1 to 5 makes the whole block one cycle faster.
///
/// Under LEN-4 the fourth load `l3` would issue at 5 and block cycles
/// [9, 11) until its data returns at 11; `l4`, stalled behind `l1`'s and
/// `l2`'s windows until 9, walks into that one too and issues at 11
/// (elapsed 12). A slow `l0` blocks `l3` itself until 6, `l1`'s and
/// `l2`'s windows hold it to 9, so its own window moves to [13, 15) —
/// and `l4` now issues at 10, before it (elapsed 11).
#[test]
fn len_k_is_not_monotone_in_one_load_latency() {
    let mut b = BlockBuilder::new("len_anomaly");
    let base = b.def_int("base");
    for (name, offset) in [("l0", 0), ("l1", 8)] {
        let _ = b.load(name, base, offset);
    }
    let _ = b.def_int("pad");
    for (name, offset) in [("l2", 16), ("l3", 24), ("l4", 32)] {
        let _ = b.load(name, base, offset);
    }
    let block = b.finish();
    let len4 = ProcessorModel::MaxLength(4);
    assert_eq!(scripted_elapsed(&block, &[1, 6, 5, 6, 1], len4, 1), 12);
    assert_eq!(scripted_elapsed(&block, &[5, 6, 5, 6, 1], len4, 1), 11);
    // The models the monotone bound does cover get slower, as they must.
    for model in [ProcessorModel::Unlimited, ProcessorModel::MaxOutstanding(2)] {
        assert!(
            scripted_elapsed(&block, &[5, 6, 5, 6, 1], model, 1)
                >= scripted_elapsed(&block, &[1, 6, 5, 6, 1], model, 1)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Per-load monotonicity, the premise of a "monotone bound" on
    /// runtime: on UNLIMITED and MAX-k, at issue widths 1 and 2, raising
    /// any one load's latency never lowers elapsed time. (LEN-k fails
    /// it; see `len_k_is_not_monotone_in_one_load_latency`.)
    #[test]
    fn elapsed_is_monotone_in_each_load_latency(
        cfg in arb_config(),
        seed in 0u64..1000,
        raise in 1u64..16,
    ) {
        let mut rng = Pcg32::seed_from_u64(seed);
        let block = random_block(&cfg, &mut rng);
        let loads = block.insts().iter().filter(|i| i.is_load()).count();
        let latencies: Vec<u64> = (0..loads).map(|_| 1 + u64::from(rng.next_u32() % 20)).collect();
        for model in [
            ProcessorModel::Unlimited,
            ProcessorModel::MaxOutstanding(1),
            ProcessorModel::MaxOutstanding(2),
            ProcessorModel::max_8(),
        ] {
            for width in [1, 2] {
                let base = scripted_elapsed(&block, &latencies, model, width);
                for i in 0..loads {
                    let mut raised = latencies.clone();
                    raised[i] += raise;
                    let slower = scripted_elapsed(&block, &raised, model, width);
                    prop_assert!(
                        slower >= base,
                        "{model}, width {width}: load {i} +{raise} cycles: {slower} < {base}"
                    );
                }
            }
        }
    }

    /// Both schedulers produce valid topological orders for any block,
    /// any alias model, any direction.
    #[test]
    fn schedules_always_verify(cfg in arb_config(), seed in 0u64..1000) {
        let mut rng = Pcg32::seed_from_u64(seed);
        let block = random_block(&cfg, &mut rng);
        for alias in [AliasModel::Fortran, AliasModel::CConservative] {
            let dag = build_dag(&block, alias);
            for direction in [Direction::BottomUp, Direction::TopDown] {
                let scheduler = ListScheduler::new().with_direction(direction);
                for assigner in [
                    &BalancedWeights::new() as &dyn WeightAssigner,
                    &TraditionalWeights::new(Ratio::from_int(3)),
                ] {
                    let sched = scheduler.run(&dag, assigner);
                    prop_assert!(sched.verify(&dag).is_ok());
                    prop_assert_eq!(sched.len(), block.len());
                }
            }
        }
    }

    /// Balanced weights are at least 1 on every node and exceed 1 only
    /// on loads.
    #[test]
    fn balanced_weights_bounds(cfg in arb_config(), seed in 0u64..1000) {
        let mut rng = Pcg32::seed_from_u64(seed);
        let block = random_block(&cfg, &mut rng);
        let dag = build_dag(&block, AliasModel::Fortran);
        let w = BalancedWeights::new().assign(&dag);
        for id in dag.node_ids() {
            prop_assert!(w.weight(id) >= Ratio::ONE);
            if !dag.is_load(id) {
                prop_assert_eq!(w.weight(id), Ratio::ONE);
            }
        }
    }

    /// The sum of balanced weight contributions is conserved: every
    /// instruction donates at most its issue slot per component, so the
    /// total extra weight over all loads is at most n per donor — a loose
    /// but model-independent bound: Σ(w_l − 1) ≤ n·L where L = #loads.
    #[test]
    fn balanced_weight_total_is_bounded(cfg in arb_config(), seed in 0u64..1000) {
        let mut rng = Pcg32::seed_from_u64(seed);
        let block = random_block(&cfg, &mut rng);
        let dag = build_dag(&block, AliasModel::Fortran);
        let w = BalancedWeights::new().assign(&dag);
        let loads = dag.load_ids();
        let total_extra: Ratio = loads.iter().map(|&l| w.weight(l) - Ratio::ONE).sum();
        let bound = Ratio::from_int((dag.len() * loads.len()) as i64);
        prop_assert!(total_extra <= bound);
    }

    /// Priorities are monotone along dependence edges: a predecessor's
    /// priority strictly exceeds each successor's (weights ≥ 1).
    #[test]
    fn priorities_decrease_along_edges(cfg in arb_config(), seed in 0u64..1000) {
        let mut rng = Pcg32::seed_from_u64(seed);
        let block = random_block(&cfg, &mut rng);
        let dag = build_dag(&block, AliasModel::Fortran);
        let w = BalancedWeights::new().assign(&dag);
        let p = compute_priorities(&dag, &w);
        for e in dag.edges() {
            prop_assert!(p[e.from.index()] > p[e.to.index()]);
        }
    }

    /// Simulation accounting: cycles = instructions + interlocks, and a
    /// fixed latency of 1 never stalls any schedule.
    #[test]
    fn simulation_accounting(cfg in arb_config(), seed in 0u64..1000, latency in 1u64..12) {
        let mut rng = Pcg32::seed_from_u64(seed);
        let block = random_block(&cfg, &mut rng);
        let mut sim_rng = Pcg32::seed_from_u64(seed ^ 1);
        let r = simulate_block(&block, &FixedLatency::new(latency), ProcessorModel::Unlimited, &mut sim_rng);
        prop_assert_eq!(r.cycles(), r.instructions + r.interlocks);
        prop_assert_eq!(r.instructions as usize, block.len());
        if latency == 1 {
            prop_assert_eq!(r.interlocks, 0);
        }
    }

    /// Restricted processors never beat UNLIMITED on the same program and
    /// latency draws.
    #[test]
    fn restricted_processors_never_win(cfg in arb_config(), seed in 0u64..1000) {
        let mut rng = Pcg32::seed_from_u64(seed);
        let block = random_block(&cfg, &mut rng);
        let mem = FixedLatency::new(9);
        let run = |model: ProcessorModel| {
            let mut r = Pcg32::seed_from_u64(seed ^ 2);
            simulate_block(&block, &mem, model, &mut r).cycles()
        };
        let unlimited = run(ProcessorModel::Unlimited);
        prop_assert!(run(ProcessorModel::max_8()) >= unlimited);
        prop_assert!(run(ProcessorModel::len_8()) >= unlimited);
        prop_assert!(run(ProcessorModel::MaxOutstanding(1)) >= run(ProcessorModel::max_8()));
    }

    /// Register allocation preserves the program: instruction count grows
    /// exactly by the spill count, no virtual registers survive, and
    /// every use is dominated by a def.
    #[test]
    fn allocation_preserves_structure(cfg in arb_config(), seed in 0u64..1000) {
        let mut rng = Pcg32::seed_from_u64(seed);
        let block = random_block(&cfg, &mut rng);
        let result = allocate(&block, &AllocatorConfig::mips_default()).unwrap();
        prop_assert_eq!(result.block.len(), block.len() + result.spill_count());
        let mut defined = std::collections::HashSet::new();
        for inst in result.block.insts() {
            for u in inst.uses() {
                prop_assert!(!u.is_virt());
                prop_assert!(defined.contains(u), "use before def");
            }
            for d in inst.defs() {
                prop_assert!(!d.is_virt());
                defined.insert(*d);
            }
        }
        // Loads and stores balance: every spill store has its slot read
        // at least once (reloads never exceed... stores ≤ loads).
        prop_assert!(result.spill_stores <= result.spill_loads || result.spill_stores == 0);
    }

    /// The full pipeline terminates and verifies on arbitrary blocks.
    #[test]
    fn pipeline_end_to_end(cfg in arb_config(), seed in 0u64..500) {
        let mut rng = Pcg32::seed_from_u64(seed);
        let block = random_block(&cfg, &mut rng);
        let func = Function::new("prop", vec![block]);
        let prog = Pipeline::default().compile(&func, &SchedulerChoice::balanced()).unwrap();
        let eval = evaluate(
            &prog,
            &CacheModel::l80_5(),
            &EvalConfig { runs: 3, resamples: 10, ..EvalConfig::default() },
        );
        prop_assert!(eval.mean_runtime >= eval.dynamic_instructions);
    }

    /// Monotonicity: raising a uniform fixed latency never makes any
    /// schedule run faster on the UNLIMITED processor.
    #[test]
    fn cycles_are_monotone_in_latency(cfg in arb_config(), seed in 0u64..500) {
        let mut rng = Pcg32::seed_from_u64(seed);
        let block = random_block(&cfg, &mut rng);
        let run = |latency: u64| {
            let mut r = Pcg32::seed_from_u64(seed ^ 3);
            simulate_block(&block, &FixedLatency::new(latency), ProcessorModel::Unlimited, &mut r)
                .cycles()
        };
        let mut prev = run(1);
        for latency in [2u64, 4, 8, 16] {
            let cur = run(latency);
            prop_assert!(cur >= prev, "latency {latency}: {cur} < {prev}");
            prev = cur;
        }
    }

    /// RNG streams: different split indices give different sequences.
    #[test]
    fn rng_split_streams_differ(seed in 0u64..10_000) {
        let root = Pcg32::seed_from_u64(seed);
        let mut a = root.split(0);
        let mut b = root.split(1);
        let same = (0..32).filter(|_| a.next_u32() == b.next_u32()).count();
        prop_assert!(same < 4);
        let mut sm1 = SplitMix64::new(seed);
        let mut sm2 = SplitMix64::new(seed.wrapping_add(1));
        prop_assert_ne!(sm1.next_u64(), sm2.next_u64());
    }
}
