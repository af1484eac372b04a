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
pub use exec::{compile_source, plan_hints};

use wlp_ir::frontend::{lower, parse_program, FrontendError, Program};

/// Parse → lower → [`analyze()`] in a single call, returning the parsed
/// [`Program`] together with the finished [`Analysis`] (certificate
/// included). [`compile_source`] is the same pipeline carried one step
/// further, to the execution plan.
pub fn analyze_source(source: &str) -> Result<(Program, Analysis), FrontendError> {
    let program = parse_program(source)?;
    let body = lower(&program)?;
    let analysis = analyze(&body);
    Ok((program, analysis))
}

pub use certificate::{CertDecodeError, CertVerdict, SafetyCertificate};
pub use concrete::{array_log, concretize, remainder_log, scalar_log, ConcreteLog, Owner};
pub use diag::{Diagnostic, Severity};
pub use fission::{fission_plan, masked_body, BlockCertificate, DoacrossEdge, FissionPlan};
pub use lint::{lint_source, LintOutcome};
pub use privatize::{privatization, privatized_body, Privatization};
pub use reduction::{recurrences, Recurrence, RecurrenceRole};
pub use terminator::{classify_terminator, RvWitness};

#[cfg(test)]
mod pipeline_tests {
    use super::*;

    const DOALL: &str = "integer i = 0\nwhile (i < n) {\n    A[i] = 2 * A[i]\n    i = i + 1\n}";

    #[test]
    fn analyze_source_matches_the_staged_pipeline() {
        let (program, analysis) = analyze_source(DOALL).expect("valid source");
        let body = lower(&program).expect("lower");
        assert_eq!(analysis.certificate, analyze(&body).certificate);
    }
}
