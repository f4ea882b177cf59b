//! Incremental compile and measurement: one memo of the stages that
//! many scheduling choices, memory systems and processors share.
//!
//! An autotuner compiles and measures one function under dozens of
//! policies. Most of that work repeats: the pass-1 DAG depends only on
//! the block, its weights only on the weight family, and policies that
//! differ only in rounding or tie-breaking often land on the same
//! schedule. The experiment harness measures one function's balanced
//! and traditional programs under many memory systems and processors;
//! the programs share every pass-1 DAG and many of their schedules. A
//! [`StageMemo`] binds the function and pipeline once, then keys each
//! stage by exactly what it depends on:
//!
//! | stage | key |
//! |---|---|
//! | pass-1 DAG | block |
//! | pass-1 weights | (block, weight family) |
//! | allocated block, spill count and pass-2 DAG | (block, pass-1 order) |
//! | pass-2 weights | (block, pass-1 order, weight family) |
//! | block statistics (bootstrap means, interlocks) | (memory system, [`EvalConfig`], block, pass-1 order, pass-2 order) |
//!
//! The pair of orders fixes the compiled block exactly, and the block's
//! statistics are a pure function of (compiled block, block index,
//! memory model, [`EvalConfig`]) — every random stream is counter-split
//! from the master seed, and every [`MemorySystem`] variant is plain
//! data — so a memoized score is bit-identical to
//! [`Pipeline::compile`] followed by [`try_evaluate`](crate::try_evaluate).
//! [`MemorySystem`] holds floats and is only `PartialEq`, so the memo
//! keeps one statistics table per distinct (system, config) and finds it
//! by equality; a caller measuring under one system and config has one
//! table.
//!
//! Compilation runs through the same stage functions as
//! [`Pipeline::compile_block`]; validation is never skipped. The
//! schedule validator runs for every candidate, and the allocation and
//! timeline validators run whenever their stage is first computed: the
//! memo stores the stage's whole `Result`, so a cached failure is
//! returned again on every hit.
//!
//! The memo is safe to share between threads, and single-flight: the
//! first caller to miss on a key marks it in flight and computes it with
//! no lock held, and a second caller on that key waits for its result
//! instead of computing the same pure value again. The one stage result
//! that is not pure — a simulation cut short by a watchdog's cancel
//! token — is returned but never stored; its waiters then compute for
//! themselves, as they do when the computation panics. Fault sites
//! inside the stages decide per fault cell context and count their
//! visits, so while a
//! fault plan is installed a caller gives each compile or evaluation
//! that runs under a context of its own a [`fresh`](StageMemo::fresh)
//! memo.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

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
    map: Mutex<HashMap<K, Slot<V>>>,
    /// Signalled whenever a key stops being in flight.
    settled: Condvar,
    computed: AtomicUsize,
}

/// A key's state: being computed by one caller, or computed and stored.
enum Slot<V> {
    InFlight,
    Ready(V),
}

impl<K, V> Default for Table<K, V> {
    fn default() -> Self {
        Self {
            map: Mutex::new(HashMap::new()),
            settled: Condvar::new(),
            computed: AtomicUsize::new(0),
        }
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Table<K, V> {
    fn lock(&self) -> MutexGuard<'_, HashMap<K, Slot<V>>> {
        self.map
            .lock()
            .expect("no stage computes under the memo lock, so nothing can poison it")
    }

    /// The stored value for `key`, or `compute`'s, stored only if `keep`
    /// accepts it. One caller computes a key at a time: the others wait
    /// for its result, and compute for themselves only when it was not
    /// stored (or its computation panicked).
    fn get_or_compute(
        &self,
        key: K,
        compute: impl FnOnce() -> V,
        keep: impl FnOnce(&V) -> bool,
    ) -> V {
        let mut map = self.lock();
        loop {
            match map.get(&key) {
                Some(Slot::Ready(value)) => return value.clone(),
                Some(Slot::InFlight) => {
                    map = self
                        .settled
                        .wait(map)
                        .expect("no stage computes under the memo lock, so nothing can poison it");
                }
                None => break,
            }
        }
        map.insert(key.clone(), Slot::InFlight);
        drop(map);
        let mut flight = Flight {
            table: self,
            key: Some(key),
        };
        let value = compute();
        self.computed.fetch_add(1, Ordering::Relaxed);
        let key = flight.key.take().expect("the flight still holds its key");
        let mut map = self.lock();
        if keep(&value) {
            map.insert(key, Slot::Ready(value.clone()));
        } else {
            map.remove(&key);
        }
        drop(map);
        self.settled.notify_all();
        value
    }

    fn count(&self) -> StageCount {
        let map = self.lock();
        StageCount {
            computed: self.computed.load(Ordering::Relaxed),
            entries: map.values().filter(|s| matches!(s, Slot::Ready(_))).count(),
        }
    }

    /// Drops every stored entry and frees the map's spare room; the
    /// computation count is kept.
    fn release(&self) {
        let mut map = self.lock();
        map.retain(|_, slot| matches!(slot, Slot::InFlight));
        map.shrink_to_fit();
    }
}

/// A key one caller is computing. If the computation unwinds, dropping
/// the flight clears the key and wakes its waiters, who compute it
/// themselves.
struct Flight<'t, K: Eq + Hash + Clone, V: Clone> {
    table: &'t Table<K, V>,
    key: Option<K>,
}

impl<K: Eq + Hash + Clone, V: Clone> Drop for Flight<'_, K, V> {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            // Removing one key leaves the map valid, so a poisoned lock is
            // taken as is: a panic here, mid-unwind, would abort.
            let mut map = self
                .table
                .map
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            map.remove(&key);
            drop(map);
            self.table.settled.notify_all();
        }
    }
}

/// Runs one compile stage: through `table` under `key` when a memo is
/// present, otherwise straight through `compute`.
pub(crate) fn through<K: Eq + Hash + Clone, V: Clone>(
    slot: Option<(&Table<K, V>, K)>,
    compute: impl FnOnce() -> V,
) -> V {
    match slot {
        Some((table, key)) => table.get_or_compute(key, compute, |_| true),
        None => compute(),
    }
}

/// One block's statistics under one memory system and protocol, keyed by
/// the block and its order pair.
type StatsTable = Table<(usize, OrderPair), Result<Arc<BlockStats>, PipelineError>>;

/// The memo of one function's candidate-independent stages under one
/// pipeline.
pub struct StageMemo {
    pipeline: Pipeline,
    function: Function,
    pub(crate) dags: Table<usize, Arc<CodeDag>>,
    pub(crate) weights1: Table<(usize, WeightFamily), Arc<Weights>>,
    pub(crate) allocs: Table<(usize, Vec<InstId>), Result<Arc<Allocated>, PipelineError>>,
    pub(crate) weights2: Table<(usize, Vec<InstId>, WeightFamily), Arc<Weights>>,
    /// One statistics table per distinct (memory system, protocol), in
    /// first-use order.
    stats: Mutex<Vec<(MemorySystem, EvalConfig, Arc<StatsTable>)>>,
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

    /// Each block's pass-1 and pass-2 orders: the pass-1 order keys its
    /// allocation, the pair its statistics. A measurement hook for
    /// tests; it is no part of any report.
    #[doc(hidden)]
    #[must_use]
    pub fn order_pairs(&self) -> &[(Vec<InstId>, Vec<InstId>)] {
        &self.orders
    }
}

impl StageMemo {
    /// An empty memo for compiling `function` with `pipeline`.
    #[must_use]
    pub fn new(pipeline: Pipeline, function: Function) -> Self {
        Self {
            pipeline,
            function,
            dags: Table::default(),
            weights1: Table::default(),
            allocs: Table::default(),
            weights2: Table::default(),
            stats: Mutex::new(Vec::new()),
        }
    }

    /// An empty memo with the same function and pipeline.
    #[must_use]
    pub fn fresh(&self) -> Self {
        Self::new(self.pipeline, self.function.clone())
    }

    /// The pipeline every compile runs.
    #[must_use]
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
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

    /// Drops every stored compile stage (pass-1 DAGs, weights and
    /// allocations) and keeps the block statistics. For a caller that has
    /// compiled every program it will measure: no later compile can hit
    /// those entries, and holding them through the measurements only
    /// raises peak memory. A later compile recomputes what it needs.
    pub fn release_compile_stages(&self) {
        self.dags.release();
        self.weights1.release();
        self.allocs.release();
        self.weights2.release();
    }

    /// Measures a program this memo compiled under `system` with `eval`,
    /// simulating only the blocks no earlier evaluation under the same
    /// system and protocol has seen compiled the same way. Blocks are
    /// measured in parallel under the same rule as
    /// [`try_evaluate`](crate::try_evaluate).
    ///
    /// # Errors
    ///
    /// Exactly the errors [`try_evaluate`](crate::try_evaluate) returns
    /// for the same program, system and protocol.
    pub fn evaluate(
        &self,
        compiled: &MemoProgram,
        system: &MemorySystem,
        eval: &EvalConfig,
    ) -> Result<ProgramEval, PipelineError> {
        let table = self.stats_table(system, eval);
        evaluate_blocks(&compiled.program, system, eval, |index, cb, mem| {
            let key = (index, compiled.orders[index].clone());
            // A simulation a watchdog cancelled stopped early: its
            // result says so, and it is the one result not stored.
            table.get_or_compute(
                key,
                || block_stats(cb, index, mem, eval).map(Arc::new),
                |stats| !matches!(stats, Err(PipelineError::Sim(SimError::Cancelled))),
            )
        })
    }

    /// The statistics table of (`system`, `eval`), found by equality and
    /// added on first use.
    fn stats_table(&self, system: &MemorySystem, eval: &EvalConfig) -> Arc<StatsTable> {
        let mut tables = self
            .stats
            .lock()
            .expect("no stage computes under the memo lock, so nothing can poison it");
        if let Some((_, _, table)) = tables.iter().find(|(s, e, _)| s == system && e == eval) {
            return Arc::clone(table);
        }
        let table = Arc::new(StatsTable::default());
        tables.push((*system, *eval, Arc::clone(&table)));
        table
    }

    /// How often each stage was computed and how many entries it holds.
    /// A measurement hook for tests; it is no part of any report.
    #[doc(hidden)]
    #[must_use]
    pub fn counts(&self) -> MemoCounts {
        let tables = self
            .stats
            .lock()
            .expect("no stage computes under the memo lock, so nothing can poison it");
        let mut stats = StageCount {
            computed: 0,
            entries: 0,
        };
        for (_, _, table) in tables.iter() {
            let count = table.count();
            stats.computed += count.computed;
            stats.entries += count.entries;
        }
        MemoCounts {
            dags: self.dags.count(),
            weights1: self.weights1.count(),
            allocs: self.allocs.count(),
            weights2: self.weights2.count(),
            stats,
            stats_tables: tables.len(),
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
    /// Block statistics, i.e. simulated (pass-1, pass-2) order pairs,
    /// summed over every statistics table.
    pub stats: StageCount,
    /// Distinct (memory system, [`EvalConfig`]) statistics tables.
    pub stats_tables: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::try_evaluate_serial;
    use crate::policy::PolicySpec;
    use bsched_faults::CancelToken;

    #[test]
    fn a_computation_that_panics_leaves_its_key_to_the_next_caller() {
        let table: Table<u32, u32> = Table::default();
        let panicked = std::panic::catch_unwind(|| {
            table.get_or_compute(1, || panic!("stage failed"), |_| true)
        });
        assert!(panicked.is_err());
        assert_eq!(table.get_or_compute(1, || 5, |_| true), 5);
        assert_eq!(table.get_or_compute(1, || 6, |_| true), 5);
        assert_eq!(
            table.count(),
            StageCount {
                computed: 1,
                entries: 1
            }
        );
    }

    #[test]
    fn a_cancelled_evaluation_stores_nothing_and_later_candidates_score() {
        let function = bsched_workload::perfect::adm().function().clone();
        let system: MemorySystem = "N(30,5)".parse().unwrap();
        let pipeline = Pipeline::default();
        let eval = EvalConfig {
            runs: 5,
            ..EvalConfig::default()
        };
        let memo = StageMemo::new(pipeline, function.clone());
        let choice = SchedulerChoice::Tuned(PolicySpec::balanced_default());
        let compiled = memo.compile(&choice).unwrap();

        // A candidate whose watchdog fired: its simulations stop early.
        let token = CancelToken::new();
        token.cancel();
        let cancelled =
            bsched_faults::with_cancel_token(token, || memo.evaluate(&compiled, &system, &eval));
        let err = cancelled.expect_err("a cancelled evaluation must fail");
        assert!(err.to_string().contains("cancelled"), "{err}");
        assert_eq!(
            memo.counts().stats.entries,
            0,
            "nothing cancelled is stored"
        );

        // The next candidate on the same orders gets its fresh score.
        let again = memo.compile(&choice).unwrap();
        let memoized = memo.evaluate(&again, &system, &eval).unwrap();
        let fresh = pipeline.compile(&function, &choice).unwrap();
        let fresh = try_evaluate_serial(&fresh, &system, &eval).unwrap();
        assert_eq!(
            memoized.mean_runtime.to_bits(),
            fresh.mean_runtime.to_bits()
        );
        assert_eq!(memo.counts().stats.entries, function.blocks().len());
    }
}
