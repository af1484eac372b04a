//! WHILE-loop parallelization: the paper's primary contribution.
//!
//! A WHILE loop is a loop with one or more *recurrences* (the dominating
//! one is the **dispatcher**), a *remainder* (the per-iteration work), and
//! one or more *termination conditions* (the **terminator**). This crate
//! implements the full transformation framework of Rauchwerger & Padua:
//!
//! * [`taxonomy`] — Table 1: the dispatcher/terminator classification that
//!   decides which method applies and whether overshooting is possible.
//! * [`induction`] — Induction-1 and Induction-2 (Section 3.1): DOALL
//!   execution with in-body termination tests and the last-valid-iteration
//!   minimum reduction; Induction-2 uses the software QUIT.
//! * [`general`] — General-1/2/3 (Section 3.3) for inherently sequential
//!   dispatchers.
//! * [`undo`] — Section 4: checkpointed, write-time-stamped arrays and the
//!   restoration of iterations that overshot the termination condition.
//! * [`speculate`] — Section 5: speculative parallel execution with the PD
//!   test, exception capture, and automatic sequential re-execution.
//! * [`recover`] — the Section 5 exception rule as a reusable combinator:
//!   on a contained worker panic, restore the [`VersionedArray`]
//!   checkpoint, emit the abort events, re-execute sequentially.
//! * [`cost`] — Section 7: the `Sp_id`/`Sp_at` model, worst-case bounds and
//!   the should-we-parallelize decision procedure.
//! * [`strategy`] — Section 8: statistics-enhanced stamping thresholds.
//!   (Strip-mining, the sliding window and the hedge are simulator
//!   strategies of `wlp-sim`.)

pub mod cost;
pub mod general;
pub mod induction;
pub mod recover;
pub mod speculate;
pub mod strategy;
pub mod taxonomy;
pub mod undo;

pub use cost::{CostModel, Decision};
pub use general::{
    general1, general2, general3, general3_recovering, GeneralConfig, GeneralOutcome,
};
pub use induction::{induction1, induction2, InductionOutcome};
pub use recover::{run_with_recovery, ParallelAttempt, RecoveryOutcome};
pub use speculate::{
    speculative_while, speculative_while_group, speculative_while_with, GroupAccess, GroupArray,
    GroupFault, SpecOutcome, SpeculativeArray,
};
pub use strategy::StatsStamping;
pub use taxonomy::{classify, DispatcherClass, Parallelism, TaxonomyCell, TerminatorClass};
pub use undo::VersionedArray;
