//! From certificate to execution plan: the one place analysis results
//! (which speak ids) become the [`PlanHints`] the `wlp-ir` executor lowers
//! under (which speak names).
//!
//! Per stored-to array the rule is Nuriyev's independence criterion read
//! off the certificate: an array is *certified* when none of its accesses
//! has an unanalyzable subscript (`uncertain_arrays`) and no statement
//! storing to it is incident to a surviving loop-carried edge
//! (`uncertain_stmts`); everything else stored to is shadowed. Arrays the
//! loop only reads are read-only whatever the certificate says — the
//! lowering decides that from the program text itself.

use crate::analyze::{analyze, Analysis};
use crate::certificate::CertVerdict;
use std::collections::BTreeSet;
use wlp_core::taxonomy::TerminatorClass;
use wlp_ir::exec::{ExecPlan, PlanHints, SeqReason};
use wlp_ir::frontend::{lower_with_symbols, parse_program, FrontendError, Program, Symbols};
use wlp_ir::{ArrayId, LoopIr, Subscript, WRef};

/// Whether every access to `a` is the same non-constant affine subscript:
/// iteration `i` then touches one element no other iteration does, so a
/// per-iteration workspace needs no private copy to be race-free.
fn iteration_disjoint(body: &LoopIr, a: ArrayId) -> bool {
    let mut subs = body
        .stmts
        .iter()
        .flat_map(|s| s.writes.iter().chain(&s.reads))
        .filter_map(|r| match r {
            WRef::Element(ra, sub) if *ra == a => Some(*sub),
            _ => None,
        });
    match subs.next() {
        Some(first @ Subscript::Affine { coeff, .. }) if coeff != 0 => subs.all(|s| s == first),
        _ => false,
    }
}

/// What `analysis` licenses the executor to skip for `body`.
pub fn plan_hints(body: &LoopIr, symbols: &Symbols, analysis: &Analysis) -> PlanHints {
    let cert = &analysis.certificate;
    let stored = |stmts: &mut dyn Iterator<Item = &wlp_ir::Stmt>| -> BTreeSet<ArrayId> {
        stmts
            .flat_map(|s| s.writes.iter())
            .filter_map(|w| match w {
                WRef::Element(a, _) => Some(*a),
                WRef::Scalar(_) => None,
            })
            .collect()
    };
    let mut shadowed: BTreeSet<ArrayId> = cert.uncertain_arrays.iter().copied().collect();
    shadowed.extend(stored(
        &mut cert.uncertain_stmts.iter().map(|&si| &body.stmts[si]),
    ));
    let certified = stored(&mut body.stmts.iter())
        .difference(&shadowed)
        .map(|a| symbols.arrays[a.0 as usize].clone())
        .collect();

    // The verdict may lean on privatization; this executor shares every
    // array, which is only the same thing when the workspace is
    // iteration-disjoint anyway (or PD-tested regardless).
    let needs_private_copy = analysis
        .privatization
        .arrays
        .iter()
        .any(|a| !shadowed.contains(a) && !iteration_disjoint(body, *a));
    let sequential = if cert.verdict == CertVerdict::CertifiedSequential {
        Some(SeqReason::CertifiedSequential)
    } else if needs_private_copy {
        Some(SeqReason::PrivatizedArray)
    } else {
        None
    };

    PlanHints {
        dispatcher: analysis.baseline.dispatcher,
        sequential,
        certified,
        terminator_rv: cert.terminator == TerminatorClass::RemainderVariant,
        write_budget_per_iter: Some(cert.uncertain_writes_per_iter),
    }
}

/// One-stop pipeline entry: parse → lower → [`analyze()`] → plan. The
/// parsed [`Program`], the finished [`Analysis`] (certificate included)
/// and the [`ExecPlan`] lowered under it.
///
/// This is the exact sequence the serve-layer certificate cache runs on
/// a miss; keeping it here guarantees every consumer derives
/// certificates and plans the same way.
pub fn compile_source(source: &str) -> Result<(Program, Analysis, ExecPlan), FrontendError> {
    let program = parse_program(source)?;
    let (body, symbols) = lower_with_symbols(&program)?;
    let analysis = analyze(&body);
    let plan = ExecPlan::lower(&program, &plan_hints(&body, &symbols, &analysis));
    Ok((program, analysis, plan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlp_ir::exec::{AccessMode, Schedule};

    fn plan_of(src: &str) -> ExecPlan {
        compile_source(src).expect("valid source").2
    }

    fn modes(plan: &ExecPlan) -> Vec<(&str, AccessMode)> {
        let mut out: Vec<_> = plan
            .arrays()
            .iter()
            .map(String::as_str)
            .zip(plan.modes().iter().copied())
            .collect();
        out.sort_by_key(|(n, _)| *n);
        out
    }

    #[test]
    fn gather_scatter_shadows_only_the_indirectly_stored_array() {
        let plan = plan_of(
            "integer i = 0\nwhile (i < n) {\n    B[i] = 2 * w[i]\n    \
             A[idx[i]] = A[idx[i]] + B[i]\n    i = i + 1\n}",
        );
        assert_eq!(
            modes(&plan),
            [
                ("A", AccessMode::Shadowed),
                ("B", AccessMode::Certified),
                ("idx", AccessMode::ReadOnly),
                ("w", AccessMode::ReadOnly),
            ]
        );
        assert!(matches!(plan.schedule(), Schedule::SpeculativeDoall { .. }));
        assert!(
            !plan.stamps_certified(),
            "`i < n` is a threshold: B cannot be overshot"
        );
        assert_eq!(plan.shadowed_stores_per_iter(), 1);
    }

    #[test]
    fn remainder_variant_exit_keeps_stamps_but_no_shadow() {
        let plan = plan_of(
            "integer i = 0\nwhile (i < n) {\n    A[i] = g(A[i])\n    \
             exit if (A[i] > limit)\n    i = i + 1\n}",
        );
        assert_eq!(modes(&plan), [("A", AccessMode::Certified)]);
        assert!(plan.stamps_certified());
    }

    #[test]
    fn statically_sequential_plans_say_why() {
        let reason = |src: &str| match plan_of(src).schedule() {
            Schedule::Sequential(r) => r,
            other => panic!("expected a sequential plan, got {other:?}"),
        };
        assert_eq!(
            reason("integer i = 1\nwhile (i < n) { A[i] = A[i] + A[i - 1]; i = i + 1 }"),
            SeqReason::CertifiedSequential
        );
        assert_eq!(
            reason(
                "integer i = 0\ninteger s = 0\nwhile (i < n) { s = s + 3; A[i] = w[i]; i = i + 1 }"
            ),
            SeqReason::ExtraScalarState
        );
        assert_eq!(
            reason("integer p = 0\nwhile (p != -1) { A[p] = A[p] + 1; p = step(p) }"),
            SeqReason::NonInductionDispatcher
        );
        assert_eq!(
            reason("integer i = start()\nwhile (i < n) { A[i] = 0; i = i + 1 }"),
            SeqReason::UnknownInductionInit
        );
        assert_eq!(
            reason("integer i = 0\nwhile (i < n) { i = i + 1; A[i] = 0 }"),
            SeqReason::InductionNotLast
        );
        assert_eq!(
            reason("while (x < n) { A[idx[0]] = 1 }"),
            SeqReason::NoInduction
        );
        // T is a per-iteration workspace (def-before-use), so the verdict
        // is certified — but every iteration shares T[0]
        assert_eq!(
            reason("integer i = 0\nwhile (i < n) { T[0] = w[i]; A[i] = T[0]; i = i + 1 }"),
            SeqReason::PrivatizedArray
        );
    }
}
