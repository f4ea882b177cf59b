//! Incremental candidate evaluation: one memo of the compile and
//! measurement stages that many scheduling policies share.
//!
//! An autotuner compiles and measures one function under dozens of
//! policies. Most of that work repeats: the pass-1 DAG depends only on
//! the block, its weights only on the weight family, and policies that
//! differ only in rounding or tie-breaking often land on the same
//! schedule. A [`StageMemo`] binds the function, pipeline, memory system
//! and measurement protocol once, then keys each stage by exactly what
//! it depends on:
//!
//! | stage | key |
//! |---|---|
//! | pass-1 DAG | block |
//! | pass-1 weights | (block, weight family) |
//! | allocated block and spill count | (block, pass-1 order) |
//! | pass-2 weights | (block, pass-1 order, weight family) |
//! | block statistics (bootstrap means, interlocks) | (block, pass-1 order, pass-2 order) |
//!
//! The pair of orders fixes the compiled block exactly, and the block's
//! statistics are a pure function of (compiled block, block index,
//! memory model, [`EvalConfig`]) — every random stream is counter-split
//! from the master seed, and every [`MemorySystem`] variant is plain
//! data — so a memoized score is bit-identical to
//! [`Pipeline::compile`] followed by [`try_evaluate`](crate::try_evaluate).
//!
//! Compilation runs through the same stage functions as
//! [`Pipeline::compile_block`]; validation is never skipped. The
//! schedule validator runs for every candidate, and the allocation and
//! timeline validators run whenever their stage is first computed: the
//! memo stores the stage's whole `Result`, so a cached failure is
//! returned again on every hit.
//!
//! The memo is safe to share between threads. No lock is held while a
//! stage computes; two threads that race on one key both compute the
//! same pure value and the first to store it wins. The one stage result
//! that is not pure — a simulation cut short by a watchdog's cancel
//! token — is returned but never stored. Fault sites inside the stages
//! decide per fault cell context, so a caller that runs candidates under
//! distinct contexts while a fault plan is installed gives each
//! candidate a [`fresh`](StageMemo::fresh) memo.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use bsched_core::Weights;
use bsched_cpusim::SimError;
use bsched_dag::CodeDag;
use bsched_ir::{Function, InstId};
use bsched_memsim::MemorySystem;

use crate::error::PipelineError;
use crate::eval::{block_stats, evaluate_blocks, BlockStats, EvalConfig, ProgramEval};
use crate::pipeline::{Allocated, CompiledProgram, OrderPair, Pipeline, SchedulerChoice};
use crate::policy::WeightFamily;

/// One stage's results, keyed by what the stage depends on.
pub(crate) struct Table<K, V> {
    map: Mutex<HashMap<K, V>>,
    computed: AtomicUsize,
}

impl<K, V> Default for Table<K, V> {
    fn default() -> Self {
        Self {
            map: Mutex::new(HashMap::new()),
            computed: AtomicUsize::new(0),
        }
    }
}

impl<K: Eq + Hash, V: Clone> Table<K, V> {
    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<K, V>> {
        self.map
            .lock()
            .expect("no stage computes under the memo lock, so nothing can poison it")
    }

    /// The stored value for `key`, or `compute`'s, stored only if `keep`
    /// accepts it.
    fn get_or_compute(
        &self,
        key: K,
        compute: impl FnOnce() -> V,
        keep: impl FnOnce(&V) -> bool,
    ) -> V {
        let hit = self.lock().get(&key).cloned();
        if let Some(value) = hit {
            return value;
        }
        let value = compute();
        self.computed.fetch_add(1, Ordering::Relaxed);
        if keep(&value) {
            self.lock().entry(key).or_insert_with(|| value.clone());
        }
        value
    }

    fn count(&self) -> StageCount {
        StageCount {
            computed: self.computed.load(Ordering::Relaxed),
            entries: self.lock().len(),
        }
    }
}

/// Runs one compile stage: through `table` under `key` when a memo is
/// present, otherwise straight through `compute`.
pub(crate) fn through<K: Eq + Hash, V: Clone>(
    slot: Option<(&Table<K, V>, K)>,
    compute: impl FnOnce() -> V,
) -> V {
    match slot {
        Some((table, key)) => table.get_or_compute(key, compute, |_| true),
        None => compute(),
    }
}

/// The memo of one function's candidate-independent stages under one
/// pipeline, memory system and measurement protocol.
pub struct StageMemo {
    pipeline: Pipeline,
    function: Function,
    system: MemorySystem,
    eval: EvalConfig,
    pub(crate) dags: Table<usize, Arc<CodeDag>>,
    pub(crate) weights1: Table<(usize, WeightFamily), Arc<Weights>>,
    pub(crate) allocs: Table<(usize, Vec<InstId>), Result<Arc<Allocated>, PipelineError>>,
    pub(crate) weights2: Table<(usize, Vec<InstId>, WeightFamily), Arc<Weights>>,
    stats: Table<(usize, OrderPair), Result<Arc<BlockStats>, PipelineError>>,
}

/// A program compiled through a [`StageMemo`], carrying each block's
/// pass-1 and pass-2 orders as the key of its statistics.
#[derive(Debug, Clone)]
pub struct MemoProgram {
    program: CompiledProgram,
    orders: Vec<OrderPair>,
}

impl MemoProgram {
    /// The compiled program, identical to what [`Pipeline::compile`]
    /// returns for the same choice.
    #[must_use]
    pub fn program(&self) -> &CompiledProgram {
        &self.program
    }
}

impl StageMemo {
    /// An empty memo for compiling `function` with `pipeline` and
    /// measuring it under `system` with `eval`.
    #[must_use]
    pub fn new(
        pipeline: Pipeline,
        function: Function,
        system: MemorySystem,
        eval: EvalConfig,
    ) -> Self {
        Self {
            pipeline,
            function,
            system,
            eval,
            dags: Table::default(),
            weights1: Table::default(),
            allocs: Table::default(),
            weights2: Table::default(),
            stats: Table::default(),
        }
    }

    /// An empty memo with the same function, pipeline, memory system and
    /// protocol.
    #[must_use]
    pub fn fresh(&self) -> Self {
        Self::new(self.pipeline, self.function.clone(), self.system, self.eval)
    }

    /// The pipeline every compile runs.
    #[must_use]
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// The measurement protocol every evaluation runs.
    #[must_use]
    pub fn eval_config(&self) -> &EvalConfig {
        &self.eval
    }

    /// Compiles the memo's function under `choice`, reusing every stage
    /// an earlier compile already computed.
    ///
    /// # Errors
    ///
    /// Exactly the errors [`Pipeline::compile`] returns for `choice`.
    pub fn compile(&self, choice: &SchedulerChoice) -> Result<MemoProgram, PipelineError> {
        let (program, orders) =
            self.pipeline
                .compile_function(&self.function, choice, Some(self))?;
        Ok(MemoProgram { program, orders })
    }

    /// Measures a program this memo compiled, simulating only the blocks
    /// no earlier evaluation has seen compiled the same way. Blocks are
    /// measured in parallel under the same rule as
    /// [`try_evaluate`](crate::try_evaluate).
    ///
    /// # Errors
    ///
    /// Exactly the errors [`try_evaluate`](crate::try_evaluate) returns
    /// for the same program.
    pub fn evaluate(&self, compiled: &MemoProgram) -> Result<ProgramEval, PipelineError> {
        evaluate_blocks(
            &compiled.program,
            &self.system,
            &self.eval,
            |index, cb, mem| {
                let key = (index, compiled.orders[index].clone());
                // A simulation a watchdog cancelled stopped early: its
                // result says so, and it is the one result not stored.
                self.stats.get_or_compute(
                    key,
                    || block_stats(cb, index, mem, &self.eval).map(Arc::new),
                    |stats| !matches!(stats, Err(PipelineError::Sim(SimError::Cancelled))),
                )
            },
        )
    }

    /// How often each stage was computed and how many entries it holds.
    /// A measurement hook for tests; it is no part of any report.
    #[doc(hidden)]
    #[must_use]
    pub fn counts(&self) -> MemoCounts {
        MemoCounts {
            dags: self.dags.count(),
            weights1: self.weights1.count(),
            allocs: self.allocs.count(),
            weights2: self.weights2.count(),
            stats: self.stats.count(),
        }
    }
}

/// One stage's computations and stored entries.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageCount {
    /// Times the stage was computed (a miss, or a lost race).
    pub computed: usize,
    /// Distinct keys stored.
    pub entries: usize,
}

/// Every stage's [`StageCount`].
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoCounts {
    /// Pass-1 DAGs.
    pub dags: StageCount,
    /// Pass-1 weights.
    pub weights1: StageCount,
    /// Allocated blocks.
    pub allocs: StageCount,
    /// Pass-2 weights.
    pub weights2: StageCount,
    /// Block statistics, i.e. simulated (pass-1, pass-2) order pairs.
    pub stats: StageCount,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::try_evaluate_serial;
    use crate::policy::PolicySpec;
    use bsched_faults::CancelToken;

    #[test]
    fn a_cancelled_evaluation_stores_nothing_and_later_candidates_score() {
        let function = bsched_workload::perfect::adm().function().clone();
        let system: MemorySystem = "N(30,5)".parse().unwrap();
        let pipeline = Pipeline::default();
        let eval = EvalConfig {
            runs: 5,
            ..EvalConfig::default()
        };
        let memo = StageMemo::new(pipeline, function.clone(), system, eval);
        let choice = SchedulerChoice::Tuned(PolicySpec::balanced_default());
        let compiled = memo.compile(&choice).unwrap();

        // A candidate whose watchdog fired: its simulations stop early.
        let token = CancelToken::new();
        token.cancel();
        let cancelled = bsched_faults::with_cancel_token(token, || memo.evaluate(&compiled));
        let err = cancelled.expect_err("a cancelled evaluation must fail");
        assert!(err.to_string().contains("cancelled"), "{err}");
        assert_eq!(
            memo.counts().stats.entries,
            0,
            "nothing cancelled is stored"
        );

        // The next candidate on the same orders gets its fresh score.
        let again = memo.compile(&choice).unwrap();
        let memoized = memo.evaluate(&again).unwrap();
        let fresh = pipeline.compile(&function, &choice).unwrap();
        let fresh = try_evaluate_serial(&fresh, &system, &eval).unwrap();
        assert_eq!(
            memoized.mean_runtime.to_bits(),
            fresh.mean_runtime.to_bits()
        );
        assert_eq!(memo.counts().stats.entries, function.blocks().len());
    }
}
