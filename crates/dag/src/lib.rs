//! Code DAG construction and analysis.
//!
//! "The primary data structure used by list schedulers is the *code DAG*,
//! in which nodes represent instructions and edges represent dependences
//! between them" (§2). This crate builds that DAG from a
//! [`bsched_ir::BasicBlock`] and provides every graph analysis the
//! balanced scheduling algorithm (paper Fig. 6) needs:
//!
//! * [`build`] — dependence edges: register **true** (def→use), **anti**
//!   (use→def) and **output** (def→def) dependences, plus **memory**
//!   dependences between conflicting loads/stores under a configurable
//!   [`AliasModel`] (Fortran array independence vs conservative C, paper
//!   Fig. 8);
//! * [`closure`] — bitset transitive closures `Pred(i)` / `Succ(i)`;
//! * [`components`] — connected components of the independence subgraph
//!   `G − (Pred(i) ∪ Succ(i))` (Fig. 6 line 3–4);
//! * [`paths`] — `Chances`: the maximum number of loads on any path in a
//!   component, both the exact DP and the paper's min/max-level
//!   union-find approximation (§3);
//! * [`unionfind`] — the disjoint-set structure backing the approximation;
//! * [`workspace`] — reusable scratch buffers so the Fig. 6 inner loop
//!   runs allocation-free;
//! * [`dot`] — Graphviz export for debugging and documentation.
//!
//! # Example
//!
//! ```
//! use bsched_ir::BlockBuilder;
//! use bsched_dag::{build_dag, AliasModel};
//!
//! let mut b = BlockBuilder::new("ex");
//! let base = b.def_int("base");
//! let x = b.load("x", base, 0);
//! let y = b.fadd("y", x, x); // true dependence on the load
//! let _ = y;
//! let dag = build_dag(&b.finish(), AliasModel::Fortran);
//! assert_eq!(dag.len(), 3);
//! assert!(dag.has_edge(bsched_ir::InstId::new(1), bsched_ir::InstId::new(2)));
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod bitset;
pub mod build;
pub mod closure;
pub mod components;
pub mod dag;
pub mod dot;
pub mod paths;
pub mod unionfind;
pub mod workspace;

pub use analysis::{alap_levels, asap_levels, critical_path_length, slack, DagProfile};
pub use bitset::BitSet;
pub use build::{build_dag, builds_on_this_thread, AliasModel};
pub use closure::Closures;
pub use components::connected_components;
pub use dag::{CodeDag, DepKind, Edge};
pub use dot::{to_dot, to_dot_annotated, DotOverlay};
pub use paths::{chances_exact, chances_level_approx, load_levels, ChancesMethod};
pub use unionfind::UnionFind;
pub use workspace::DagWorkspace;
