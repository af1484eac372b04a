//! The top-level analysis pass: findings, refined plan, certificate.

use crate::certificate::{count_writes, CertVerdict, SafetyCertificate};
use crate::diag::{Diagnostic, Severity};
use crate::fission::{fission_of, FissionPlan};
use crate::privatize::{privatization, privatized_body, Privatization};
use crate::reduction::{recurrences, Recurrence, RecurrenceRole};
use crate::terminator::{classify_terminator, RvWitness};
use std::collections::BTreeSet;
use wlp_core::taxonomy::{Parallelism, TerminatorClass};
use wlp_ir::dependence::{dep_graph, DepGraph};
use wlp_ir::plan::{plan, Plan, StrategyKind};
use wlp_ir::{LoopIr, StmtKind, Subscript, WRef};

/// Everything the analysis produced for one loop.
#[derive(Debug)]
pub struct Analysis {
    /// The plan the pipeline produces *without* this analysis.
    pub baseline: Plan,
    /// The plan after privatization-refined dependence information.
    pub refined: Plan,
    /// Privatization results.
    pub privatization: Privatization,
    /// Recognized recurrences and their roles.
    pub recurrences: Vec<Recurrence>,
    /// Dataflow terminator class.
    pub terminator: TerminatorClass,
    /// The speculation-safety certificate.
    pub certificate: SafetyCertificate,
    /// The Section 6 fission plan: fused work blocks, each with its own
    /// certificate, plus the cross-block DOACROSS edges.
    pub fission: FissionPlan,
    /// Structured findings, in statement order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Analysis {
    /// The one-or-two-line plan summary: the whole-loop plan/verdict line,
    /// plus the fission line when distribution actually split the
    /// remainder. `wlp-lint` prints it with the batch line between the two
    /// ([`LintOutcome::summary`](crate::LintOutcome::summary)).
    pub fn plan_summary(&self) -> String {
        let mut out = format!(
            "plan: {:?} → {:?}; verdict {:?}; write bound {}/iter ({} uncertain)",
            self.baseline.strategy,
            self.refined.strategy,
            self.certificate.verdict,
            self.certificate.writes_per_iter,
            self.certificate.uncertain_writes_per_iter,
        );
        if let Some(f) = self.fission.summary() {
            out.push('\n');
            out.push_str(&f);
        }
        out
    }
}

fn describe(r: &WRef) -> String {
    match r {
        WRef::Scalar(v) => format!("scalar v{}", v.0),
        WRef::Element(a, Subscript::Const(k)) => format!("A{}[{k}]", a.0),
        WRef::Element(a, Subscript::Affine { coeff, offset }) => {
            format!("A{}[{coeff}·i{offset:+}]", a.0)
        }
        WRef::Element(a, Subscript::Unknown) => format!("A{}[?]", a.0),
    }
}

/// The remainder view of a (privatization-refined) body: recurrence
/// updates contribute nothing (their value pattern is materialized up
/// front — closed form or parallel prefix), and accesses to the scalars
/// they own are likewise dropped everywhere. What is left is exactly the
/// memory traffic a parallel execution of the remainder performs.
fn remainder_view(body: &LoopIr) -> LoopIr {
    let update_vars: BTreeSet<_> = body
        .stmts
        .iter()
        .filter(|s| matches!(s.kind, StmtKind::Update(_)))
        .flat_map(|s| s.writes.iter())
        .filter_map(|w| match w {
            WRef::Scalar(v) => Some(*v),
            WRef::Element(..) => None,
        })
        .collect();
    let owned = |r: &WRef| matches!(r, WRef::Scalar(v) if update_vars.contains(v));
    let mut out = LoopIr::new();
    for s in &body.stmts {
        let mut c = s.clone();
        if matches!(s.kind, StmtKind::Update(_)) {
            c.writes.clear();
            c.reads.clear();
        } else {
            c.writes.retain(|r| !owned(r));
            c.reads.retain(|r| !owned(r));
        }
        out.push(c);
    }
    out
}

/// The part of the certificate pipeline a whole loop and a fused block
/// share: privatize → refined plan → remainder view and its dependence
/// graph. Keeping it in one place guarantees a fused block masked down to
/// its own statements is judged by exactly the rules the whole loop is.
pub(crate) struct Refinement {
    pub priv_info: Privatization,
    pub refined_body: LoopIr,
    pub refined: Plan,
    /// [`remainder_view`] of `refined_body`: what a parallel execution of
    /// the remainder touches.
    pub rem_view: LoopIr,
    pub rem_graph: DepGraph,
}

fn refine(body: &LoopIr) -> Refinement {
    let priv_info = privatization(body);
    let refined_body = privatized_body(body, &priv_info);
    let refined = plan(&refined_body);
    let rem_view = remainder_view(&refined_body);
    let rem_graph = dep_graph(&rem_view);
    Refinement {
        priv_info,
        refined_body,
        refined,
        rem_view,
        rem_graph,
    }
}

/// Carried-edge census → write count → verdict over one refinement. The
/// terminator and dispatcher parallelism are whole-loop properties the
/// caller supplies.
fn certificate_of(
    body: &LoopIr,
    r: &Refinement,
    terminator: TerminatorClass,
    parallelism: Parallelism,
) -> SafetyCertificate {
    // The planner reasons per fused block (fission sequencing), but the
    // executors run the remainder as one fused DOALL under the PD test —
    // so a budget-0 certificate additionally requires that *no*
    // loop-carried edge survives anywhere in the dispatcher-censored
    // remainder, SCC boundaries notwithstanding.
    let carried_stmts: BTreeSet<usize> = r
        .rem_graph
        .edges
        .iter()
        .filter(|e| e.loop_carried)
        .flat_map(|e| [e.from, e.to])
        .collect();
    let (writes_per_iter, uncertain, uncertain_arrays, uncertain_stmts) =
        count_writes(body, &r.refined_body, &r.priv_info, &carried_stmts);
    let verdict = if r.refined.strategy == StrategyKind::Sequential {
        CertVerdict::CertifiedSequential
    } else if !r.refined.needs_pd_test && carried_stmts.is_empty() {
        CertVerdict::CertifiedDoall
    } else {
        CertVerdict::SpeculateBounded
    };
    let (uncertain, uncertain_stmts) = match verdict {
        CertVerdict::SpeculateBounded => (uncertain, uncertain_stmts),
        // certified loops shadow nothing
        CertVerdict::CertifiedDoall | CertVerdict::CertifiedSequential => (0, Vec::new()),
    };
    SafetyCertificate {
        verdict,
        terminator,
        parallelism,
        writes_per_iter,
        uncertain_writes_per_iter: uncertain,
        uncertain_arrays,
        uncertain_stmts,
    }
}

/// The whole-loop certificate pipeline: the baseline plan, the
/// [`Refinement`], the dataflow terminator, and the certificate.
/// [`compile_source`](crate::compile_source) runs it alone on a cache
/// miss; [`analyze`] runs it once per loop and hands it to the fission
/// certifier.
pub(crate) struct CertCore {
    pub baseline: Plan,
    pub refinement: Refinement,
    pub rv_witness: Option<RvWitness>,
    pub certificate: SafetyCertificate,
}

pub(crate) fn certify_core(body: &LoopIr) -> CertCore {
    let baseline = plan(body);
    let refinement = refine(body);
    let (terminator, rv_witness) = classify_terminator(body);
    let certificate = certificate_of(
        body,
        &refinement,
        terminator,
        refinement.refined.cell.parallelism,
    );
    CertCore {
        baseline,
        refinement,
        rv_witness,
        certificate,
    }
}

/// The certificate of one fused block, `masked` being the body masked to
/// its statements. Overshoot and dispatcher parallelism are whole-loop
/// properties — an exit test in a sibling block still governs this
/// block's iterations, and every stage shares the one dispatcher — so
/// they are copied from `whole`, and the block runs no baseline plan,
/// recurrence census or terminator classification of its own.
pub(crate) fn certify_block(masked: &LoopIr, whole: &SafetyCertificate) -> SafetyCertificate {
    certificate_of(masked, &refine(masked), whole.terminator, whole.parallelism)
}

/// Runs the full analysis over one loop body.
pub fn analyze(body: &LoopIr) -> Analysis {
    let core = certify_core(body);
    let fission = fission_of(body, &core);
    let CertCore {
        baseline,
        refinement:
            Refinement {
                priv_info,
                refined_body,
                refined,
                ..
            },
        rv_witness,
        certificate,
    } = core;
    let terminator = certificate.terminator;
    let recs = recurrences(body);

    let mut diagnostics = Vec::new();
    let span_of = |stmt: usize| body.stmts.get(stmt).and_then(|s| s.span);

    // privatization findings
    for v in &priv_info.scalars {
        let def = body
            .stmts
            .iter()
            .position(|s| s.writes.contains(&WRef::Scalar(*v)));
        diagnostics.push(
            Diagnostic::new(
                "W-PRIV01",
                Severity::Note,
                format!(
                    "scalar v{} is defined before use in every iteration: privatizable",
                    v.0
                ),
            )
            .with_span(def.and_then(span_of))
            .with_hint("give each worker a private copy; its carried dependences drop"),
        );
    }
    for a in &priv_info.arrays {
        let def = body.stmts.iter().position(|s| {
            s.writes
                .iter()
                .any(|w| matches!(w, WRef::Element(wa, _) if wa == a))
        });
        diagnostics.push(
            Diagnostic::new(
                "W-PRIV02",
                Severity::Note,
                format!(
                    "array A{} is a per-iteration workspace (every read covered): privatizable",
                    a.0
                ),
            )
            .with_span(def.and_then(span_of))
            .with_hint("privatize with last-value copy-out if live after the loop"),
        );
    }

    // recurrence findings
    for r in &recs {
        let (code, sev, msg, hint): (_, _, String, &str) = match r.role {
            RecurrenceRole::Reduction => (
                "W-RED01",
                Severity::Note,
                format!(
                    "v{} is an associative reduction ({:?}) read nowhere else",
                    r.var.0, r.op
                ),
                "evaluate by parallel prefix; its carried dependence is benign",
            ),
            RecurrenceRole::Dispatcher => (
                "W-RED02",
                Severity::Note,
                format!(
                    "v{} is the loop's dispatcher recurrence ({:?})",
                    r.var.0, r.op
                ),
                "its value pattern is produced up front (closed form or prefix)",
            ),
            RecurrenceRole::General => (
                "W-RED03",
                Severity::Warning,
                format!(
                    "v{} is a general recurrence ({:?}): dispatcher must run sequentially",
                    r.var.0, r.op
                ),
                "general-* strategies pipeline the remainder against it",
            ),
        };
        diagnostics.push(
            Diagnostic::new(code, sev, msg)
                .with_span(span_of(r.stmt))
                .with_hint(hint),
        );
    }

    // terminator findings
    match (&terminator, rv_witness) {
        (TerminatorClass::RemainderVariant, Some(w)) => diagnostics.push(
            Diagnostic::new(
                "W-TERM01",
                Severity::Warning,
                format!(
                    "terminator is remainder-variant: the exit predicate reads {} which statement {} may write ({})",
                    describe(&w.read),
                    w.write_stmt,
                    describe(&w.write)
                ),
            )
            .with_span(span_of(w.exit_stmt))
            .with_hint("overshoot is possible: backups + time-stamps, or a window bound"),
        ),
        _ => {
            // note when dataflow *downgraded* the baseline's coarse RV
            if baseline.terminator == TerminatorClass::RemainderVariant {
                diagnostics.push(
                    Diagnostic::new(
                        "W-TERM02",
                        Severity::Note,
                        "exit predicate provably never reads a remainder-written location: remainder-invariant",
                    )
                    .with_hint("no backups needed; overshot iterations are harmless"),
                );
            }
        }
    }

    // unanalyzable accesses (in the refined body: privatized ones are gone)
    for (si, s) in refined_body.stmts.iter().enumerate() {
        let unknowns: Vec<&WRef> = s
            .writes
            .iter()
            .chain(s.reads.iter())
            .filter(|r| matches!(r, WRef::Element(_, Subscript::Unknown)))
            .collect();
        if let Some(first) = unknowns.first() {
            diagnostics.push(
                Diagnostic::new(
                    "W-SPEC01",
                    Severity::Warning,
                    format!(
                        "statement {si} accesses {} through an unanalyzable subscript",
                        describe(first)
                    ),
                )
                .with_span(span_of(si))
                .with_hint("the run-time PD test will shadow this access"),
            );
        }
    }

    // fission findings: when distribution actually split the remainder
    // into several work blocks, report each block's verdict at its span,
    // and each cross-block DOACROSS edge with its synchronization
    // distance.
    if fission.is_fissioned() {
        for b in &fission.blocks {
            diagnostics.push(
                Diagnostic::new(
                    "W-FIS01",
                    Severity::Note,
                    format!(
                        "fused block {} ({}): {}",
                        b.index,
                        b.describe_stmts(),
                        b.certificate.verdict.name()
                    ),
                )
                .with_span(b.span)
                .with_hint(match b.certificate.verdict {
                    CertVerdict::CertifiedDoall => {
                        "this block runs fully parallel as one DOACROSS stage"
                    }
                    CertVerdict::CertifiedSequential => {
                        "this block pipelines sequentially as one DOACROSS stage"
                    }
                    CertVerdict::SpeculateBounded => {
                        "this block's stage keeps the PD shadow; siblings run unshadowed"
                    }
                }),
            );
        }
        for e in &fission.edges {
            diagnostics.push(
                Diagnostic::new(
                    "W-FIS02",
                    Severity::Note,
                    format!(
                        "doacross: block {} → block {} carries a {:?} dependence at distance {}",
                        e.from_block, e.to_block, e.kind, e.distance
                    ),
                )
                .with_span(fission.blocks.get(e.to_block).and_then(|b| b.span))
                .with_hint(
                    "stage order synchronizes: the sink stage of iteration i waits for the \
                     source stage of iteration i−distance",
                ),
            );
        }
    }

    let verdict = certificate.verdict;
    let writes_per_iter = certificate.writes_per_iter;
    let uncertain = certificate.uncertain_writes_per_iter;

    match verdict {
        CertVerdict::CertifiedSequential => {
            // a provable recurrence forces the *whole-loop* plan
            // sequential, but when fission confines it to its own
            // block(s) with parallel sibling work, the block plan still
            // extracts parallelism — that must not read as a hard error.
            let recovered = fission.is_fissioned()
                && fission
                    .blocks
                    .iter()
                    .any(|b| b.certificate.verdict != CertVerdict::CertifiedSequential);
            if recovered {
                diagnostics.push(
                    Diagnostic::new(
                        "W-SEQ02",
                        Severity::Warning,
                        format!(
                            "a provable loop-carried recurrence confines {} of {} fused blocks: \
                             fission + DOACROSS recovers the parallel siblings",
                            fission
                                .blocks
                                .iter()
                                .filter(|b| {
                                    b.certificate.verdict == CertVerdict::CertifiedSequential
                                })
                                .count(),
                            fission.blocks.len(),
                        ),
                    )
                    .with_hint("schedule the block plan DOACROSS instead of running sequentially"),
                );
            } else {
                diagnostics.push(
                    Diagnostic::new(
                        "W-SEQ01",
                        Severity::Error,
                        "a loop-carried dependence is provable even after privatization: parallel execution would abort deterministically",
                    )
                    .with_hint("run sequentially (or distribute the independent statements out)"),
                );
            }
        }
        CertVerdict::CertifiedDoall => {
            let upgraded = baseline.strategy == StrategyKind::Sequential
                || baseline.needs_pd_test;
            diagnostics.push(
                Diagnostic::new(
                    "W-DOALL01",
                    Severity::Note,
                    if upgraded {
                        "certified DOALL after refinement: no run-time test needed"
                    } else {
                        "certified DOALL: no run-time test needed"
                    },
                )
                .with_hint("execute fully parallel; undo budget 0"),
            );
        }
        CertVerdict::SpeculateBounded => diagnostics.push(
            Diagnostic::new(
                "W-SPEC02",
                Severity::Warning,
                format!(
                    "speculation required; certified may-write bound: {uncertain} uncertain of {writes_per_iter} writes per iteration"
                ),
            )
            .with_hint("shadow only the uncertain arrays; budget = bound × iterations"),
        ),
    }

    diagnostics.sort_by_key(|d| (d.span.map(|s| s.start), d.code));

    Analysis {
        baseline,
        refined,
        privatization: priv_info,
        recurrences: recs,
        terminator,
        certificate,
        fission,
        diagnostics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlp_ir::ir::examples;

    #[test]
    fn figure5b_upgrades_sequential_to_doall() {
        let body = examples::figure5b_swap();
        let a = analyze(&body);
        assert_eq!(
            a.baseline.strategy,
            StrategyKind::Sequential,
            "{:?}",
            a.baseline
        );
        assert_eq!(
            a.refined.strategy,
            StrategyKind::InductionDoall,
            "{:?}",
            a.refined
        );
        assert_eq!(a.certificate.verdict, CertVerdict::CertifiedDoall);
        assert_eq!(a.certificate.uncertain_writes_per_iter, 0);
        assert!(a.diagnostics.iter().any(|d| d.code == "W-PRIV01"));
        assert!(a.diagnostics.iter().any(|d| d.code == "W-DOALL01"));
    }

    #[test]
    fn figure5c_is_certified_sequential() {
        let a = analyze(&examples::figure5c_recurrence());
        assert_eq!(a.certificate.verdict, CertVerdict::CertifiedSequential);
        assert!(a.diagnostics.iter().any(|d| d.severity == Severity::Error));
    }

    #[test]
    fn track_style_keeps_speculation_with_a_bound() {
        let a = analyze(&examples::track_style_unknown());
        assert_eq!(a.certificate.verdict, CertVerdict::SpeculateBounded);
        assert!(a.certificate.needs_pd());
        assert!(a.certificate.write_budget(100) <= a.certificate.naive_write_budget(100));
    }

    #[test]
    fn figure5a_is_certified_doall() {
        let a = analyze(&examples::figure5a_independent());
        assert_eq!(a.certificate.verdict, CertVerdict::CertifiedDoall);
        assert!(!a.certificate.needs_pd());
    }

    #[test]
    fn diagnostics_carry_stable_codes() {
        let a = analyze(&examples::figure1b_list_traversal());
        for d in &a.diagnostics {
            assert!(d.code.starts_with("W-"), "{d:?}");
        }
    }
}
