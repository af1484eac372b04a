//! The PD (Privatizing DOALL) run-time dependence test — Section 5 of the
//! paper, after Rauchwerger & Padua's LRPD work \[20\].
//!
//! When the compiler cannot analyze the access pattern of a shared array, a
//! WHILE loop can still be *speculatively* executed in parallel: shadow
//! structures record the loop's reads and writes while it runs, and a fully
//! parallel post-execution analysis decides whether any cross-iteration
//! dependence actually occurred. If one did, the loop's side effects are
//! rolled back and it is re-executed sequentially.
//!
//! Three pieces live here:
//!
//! * [`shadow::Shadow`] — the shadow arrays (`Aw`, `Ar` in the paper, with
//!   the not-privatizable information folded into the exposed-read marks)
//!   and their analysis. Marks carry *iteration time-stamps* so that, when
//!   the WHILE loop **overshoots**, marks made by iterations beyond the last
//!   valid iteration are ignored exactly as Section 5.1 prescribes. Each
//!   mark keeps the two smallest distinct marking iterations, which makes
//!   the filtered analysis *exact* (see `shadow` module docs), not merely
//!   conservative.
//! * [`crosscheck`](mod@crosscheck) — replays concrete access logs through the oracle
//!   *and* the shadow to falsify static safety certificates (the
//!   `wlp-analyze` agreement harness).
//! * [`oracle`] — a sequential, brute-force dependence checker over explicit
//!   access logs. It defines the ground truth the shadow analysis is
//!   property-tested against, and doubles as a reference implementation of
//!   the paper's dependence definitions (flow/anti/output, privatization
//!   criterion).

pub mod crosscheck;
pub mod oracle;
pub mod shadow;

pub use crosscheck::{crosscheck, Claims, Falsified};
pub use oracle::{oracle_verdict, Access};
pub use shadow::{Conflict, ConflictKind, IterMarker, PdVerdict, Shadow};
