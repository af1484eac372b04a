//! WHILE-loop parallelization: the paper's primary contribution.
//!
//! A WHILE loop is a loop with one or more *recurrences* (the dominating
//! one is the **dispatcher**), a *remainder* (the per-iteration work), and
//! one or more *termination conditions* (the **terminator**). This crate
//! implements the full transformation framework of Rauchwerger & Padua:
//!
//! * [`taxonomy`] — Table 1: the dispatcher/terminator classification that
//!   decides which method applies and whether overshooting is possible.
//! * [`dispatch`] — dispatcher abstractions: inductions (closed form),
//!   affine/associative recurrences (parallel-prefix evaluable), and
//!   general recurrences (linked-list cursors).
//! * [`induction`] — Induction-1 and Induction-2 (Section 3.1): DOALL
//!   execution with in-body termination tests and the last-valid-iteration
//!   minimum reduction; Induction-2 uses the software QUIT.
//! * [`assoc`] — the associative-dispatcher method (Section 3.2): loop
//!   distribution plus a parallel prefix, then a DOALL over the terms.
//! * [`general`] — General-1/2/3 (Section 3.3) for inherently sequential
//!   dispatchers, plus the Wu & Lewis loop-distribution baseline.
//! * [`undo`] — Section 4: checkpointed, write-time-stamped arrays and the
//!   restoration of iterations that overshot the termination condition.
//! * [`speculate`] — Section 5: speculative parallel execution with the PD
//!   test, exception capture, and automatic sequential re-execution.
//! * [`recover`] — the Section 5 exception rule as a reusable combinator:
//!   on a contained worker panic, restore the [`VersionedArray`]
//!   checkpoint, emit the abort events, re-execute sequentially.
//! * [`cost`] — Section 7: the `Sp_id`/`Sp_at` model, worst-case bounds and
//!   the should-we-parallelize decision procedure.
//! * [`strategy`] — Section 8: statistics-enhanced stamping thresholds and
//!   the 1-processor/(p−1)-processor hedge. (Strip-mining and the sliding
//!   window live in `wlp-runtime`, which this crate re-uses.)
//! * [`constructs`] — the proposed parallel-language constructs
//!   WHILE-DOALL / WHILE-DOACROSS / WHILE-DOANY, plus the Section 4
//!   run-twice scheme that avoids time-stamping altogether.

pub mod assoc;
pub mod constructs;
pub mod cost;
pub mod dispatch;
pub mod general;
pub mod induction;
pub mod recover;
pub mod speculate;
pub mod strategy;
pub mod taxonomy;
pub mod undo;

pub use constructs::{run_twice_while, while_doacross, while_doall, while_doany};
pub use cost::{CostModel, Decision};
pub use dispatch::{AffineRecurrence, InductionDispatcher, ListDispatcher};
pub use general::{
    general1, general2, general3, general3_recovering, wu_lewis_distribution, GeneralConfig,
    GeneralOutcome,
};
pub use induction::{induction1, induction2, InductionOutcome};
pub use recover::{run_with_recovery, ParallelAttempt, RecoveryOutcome};
pub use speculate::{
    run_twice_speculative, speculative_while, speculative_while_group,
    speculative_while_privatized, speculative_while_strips, speculative_while_windowed,
    speculative_while_with, GroupAccess, GroupArray, GroupFault, SpecOutcome, SpeculativeArray,
    StripSpecOutcome,
};
pub use strategy::{hedged_execute, HedgeWinner, StatsStamping};
pub use taxonomy::{classify, DispatcherClass, Parallelism, TaxonomyCell, TerminatorClass};
pub use undo::VersionedArray;
