//! Static safety certification for WHILE-loop parallelization.
//!
//! The paper's transformations are sound only under properties the
//! compiler must *prove*: which locations are privatizable, which updates
//! are associative recurrences, whether the terminator can observe the
//! remainder (Table 1's RI/RV split). This crate proves them over
//! [`wlp_ir::LoopIr`] and packages the result two ways:
//!
//! * **diagnostics** — structured, span-carrying findings
//!   ([`diag::Diagnostic`]) rendered by the `wlp-lint` CLI;
//! * **certificates** — [`certificate::SafetyCertificate`], the static
//!   may-write bound and verdict the runtime consumes: the undo budget
//!   shrinks to the certified-uncertain writes
//!   ([`SafetyCertificate::write_budget`], which the daemon reserves per
//!   speculative request).
//!
//! Every certificate is falsifiable: [`concrete`] replays the loop into
//! access logs and [`wlp_pd::crosscheck()`] drives them through the dynamic
//! oracle — the static-vs-dynamic agreement property the test suite pins.
//!
//! Pipeline: [`privatize`] (def-before-use ⇒ drop carried edges) →
//! [`reduction`] (accumulator non-interference) → [`terminator`] (RI/RV by
//! subscript dataflow) → [`analyze()`] (refined plan + certificate).
//! [`compile_source`] is the daemon's certificate-cache miss: it stops at
//! the certificate and lowers the execution plan under it;
//! [`lint_source`] runs the whole analysis, fission plan and diagnostics
//! included.

pub mod analyze;
pub mod certificate;
pub mod concrete;
pub mod diag;
pub mod exec;
pub mod fission;
pub mod lint;
pub mod privatize;
pub mod reduction;
pub mod terminator;

pub use analyze::{analyze, Analysis};
pub use certificate::{CertDecodeError, CertVerdict, SafetyCertificate};
pub use concrete::{array_log, concretize, remainder_log, scalar_log, ConcreteLog, Owner};
pub use diag::{Diagnostic, Severity};
pub use exec::{compile_source, plan_hints};
pub use fission::{fission_plan, masked_body, BlockCertificate, DoacrossEdge, FissionPlan};
pub use lint::{lint_source, LintOutcome};
pub use privatize::{privatization, privatized_body, Privatization};
pub use reduction::{recurrences, Recurrence, RecurrenceRole};
pub use terminator::{classify_terminator, RvWitness};
