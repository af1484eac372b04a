//! Loop IR and the compiler-side analyses of the paper.
//!
//! The paper's transformations are driven by static analysis: detect the
//! recurrences, build the data-dependence graph, distribute the loop into
//! a dispatcher loop and a remainder (Section 3), recursively extract
//! top-level recurrences when there are several (Section 6), fuse the
//! resulting loops bottom-up, and pick a strategy per the taxonomy and the
//! cost model. This crate implements that pipeline over an explicit loop
//! IR (the "Fortran front-end" is out of scope; the IR is what a front-end
//! would produce):
//!
//! * [`ir`] — statements with explicit read/write sets, affine or
//!   unanalyzable subscripts, recurrence updates and exit tests;
//! * [`dependence`] — pairwise dependence testing (GCD-style on affine
//!   subscripts, conservative on unknowns) and the dependence graph;
//! * [`scc`] — Tarjan's strongly-connected components, the unit of loop
//!   distribution;
//! * [`distribute`](mod@distribute) — topological distribution into sequential/parallel
//!   loops and the Section 6 bottom-up fusion;
//! * [`plan`](mod@plan) — taxonomy classification and strategy selection, bridging
//!   to `wlp-core`'s executors and cost model;
//! * [`frontend`] — a small Fortran-flavored source front-end that parses
//!   WHILE-loop text into the IR;
//! * [`exec`] — the slot-resolved [`ExecPlan`] a parsed loop is lowered to
//!   once, and the one executor that runs it sequentially or as a
//!   speculative DOALL with per-array access modes;
//! * [`interp`] — the [`Machine`] and the compile-then-execute entry
//!   points over that executor, completing the source → analysis → plan →
//!   parallel-execution pipeline.

pub mod dependence;
pub mod distribute;
pub mod exec;
pub mod frontend;
pub mod interp;
pub mod ir;
pub mod plan;
pub mod scc;
pub mod span;

pub use dependence::{
    refs_conflict_cross_iteration, refs_may_conflict, DepEdge, DepGraph, DepKind,
};
pub use distribute::{distribute, fuse, DistributedLoop, FusedBlock, LoopNature};
pub use exec::{AccessMode, ExecPlan, Frame, PlanHints, Schedule, SeqReason};
pub use frontend::parse_loop;
pub use interp::{run_parallel, run_sequential, ExecOutcome, Machine};
pub use ir::{ArrayId, LoopIr, Stmt, StmtKind, Subscript, UpdateOp, VarId, WRef};
pub use plan::{plan, Plan, StrategyKind};
pub use scc::condense;
pub use span::{line_col, Span};
