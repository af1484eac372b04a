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

use crate::analyze::certify_core;
use crate::certificate::{CertVerdict, SafetyCertificate};
use std::collections::BTreeSet;
use wlp_core::taxonomy::DispatcherClass;
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

/// What `cert` licenses the executor to skip for `body`, given the arrays
/// privatization proved per-iteration workspaces and the baseline plan's
/// dispatcher class.
pub fn plan_hints(
    body: &LoopIr,
    symbols: &Symbols,
    cert: &SafetyCertificate,
    privatized: &BTreeSet<ArrayId>,
    dispatcher: DispatcherClass,
) -> PlanHints {
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
    let needs_private_copy = privatized
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
        dispatcher,
        sequential,
        certified,
    }
}

/// One certificate-cache miss: parse → lower → the whole-loop
/// certificate → plan, and nothing a request does not read (no
/// recurrence census, fission plan or diagnostics: those are
/// [`analyze()`](crate::analyze())'s). Keeping it here guarantees every
/// consumer derives certificates and plans the same way.
pub fn compile_source(
    source: &str,
) -> Result<(Program, SafetyCertificate, ExecPlan), FrontendError> {
    let program = parse_program(source)?;
    let (body, symbols) = lower_with_symbols(&program)?;
    let core = certify_core(&body);
    let hints = plan_hints(
        &body,
        &symbols,
        &core.certificate,
        &core.refinement.priv_info.arrays,
        core.baseline.dispatcher,
    );
    let plan = ExecPlan::lower(&program, &hints);
    Ok((program, core.certificate, plan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{analyze, Analysis};
    use wlp_ir::exec::{AccessMode, Schedule};

    fn hints_of(body: &LoopIr, symbols: &Symbols, analysis: &Analysis) -> PlanHints {
        plan_hints(
            body,
            symbols,
            &analysis.certificate,
            &analysis.privatization.arrays,
            analysis.baseline.dispatcher,
        )
    }

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
    fn every_store_to_a_shadowed_array_is_stamped() {
        // only the stores a carried edge touches are uncertain, but `A` is
        // shadowed whole, so all three are stamped
        let src = "integer i = 0\nwhile (i < n) {\n    A[2*i + 1] = A[2*i + 1] + i\n    \
                   A[107 - 2*i] = A[107 - 2*i] + 1\n    A[2*i + 3] = A[2*i + 3] + 1\n    \
                   i = i + 2\n}";
        let program = parse_program(src).unwrap();
        let (body, symbols) = lower_with_symbols(&program).unwrap();
        let analysis = analyze(&body);
        assert!(analysis.certificate.uncertain_writes_per_iter < 3);
        let hints = hints_of(&body, &symbols, &analysis);
        let plan = ExecPlan::lower(&program, &hints);
        assert_eq!(modes(&plan), [("A", AccessMode::Shadowed)]);
        assert_eq!(plan.shadowed_stores_per_iter(), 3);
    }

    /// Whether certified arrays carry stamps is read off the program: a
    /// threshold condition on the induction, with no `exit if`, cannot be
    /// overshot. Under `induction`'s rule the body assigns no scalar but
    /// the induction, so such a condition is remainder-invariant by
    /// construction and a certificate has nothing to add. Each body is
    /// lowered under the analyzer's hints and under uncertified ones that
    /// keep only its sequential verdict, so both plans share a schedule
    /// (a certified recurrence would otherwise speculate, uncertified).
    #[test]
    fn the_certificate_does_not_enter_the_stamp_decision() {
        let loops = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/loops");
        let body = "{ A[i] = 1; i = i + 1 }";
        let mut sources = vec![
            format!("integer i = 0\nwhile (i < n) {body}"),
            format!("integer i = 0\nwhile (2 * n >= i) {body}"),
            "integer i = 9\nwhile (i > 0) { A[i] = 1; i = i - 1 }".to_string(),
            format!("integer i = 0\nwhile (i > n) {body}"),
            format!("integer i = 0\nwhile (i != n) {body}"),
            format!("integer i = 0\nwhile (i < i + n) {body}"),
            format!("integer i = 0\nwhile (i < A[0]) {body}"),
            "integer i = 0\nwhile (i < n) { exit if (s[i] == 1); A[i] = 1; i = i + 1 }".to_string(),
        ];
        for name in [
            "counted_fill",
            "gather_scatter",
            "guarded_update",
            "mcsparse_pair",
            "partial_sums",
            "swap",
            "wavefront",
        ] {
            sources.push(std::fs::read_to_string(loops.join(format!("{name}.wlp"))).unwrap());
        }
        let mut speculative = Vec::new();
        for src in &sources {
            let program = parse_program(src).unwrap();
            let (body, symbols) = lower_with_symbols(&program).unwrap();
            let hints = hints_of(&body, &symbols, &analyze(&body));
            let none = PlanHints {
                sequential: hints.sequential,
                ..PlanHints::uncertified(hints.dispatcher)
            };
            let (with, without) = (
                ExecPlan::lower(&program, &hints),
                ExecPlan::lower(&program, &none),
            );
            assert_eq!(with.schedule(), without.schedule(), "{src}");
            assert_eq!(with.stamps_certified(), without.stamps_certified(), "{src}");
            if matches!(with.schedule(), Schedule::SpeculativeDoall { .. }) {
                speculative.push(with.stamps_certified());
            }
        }
        // three threshold rows and gather_scatter drop the stamps
        assert_eq!(speculative.len(), 10);
        assert_eq!(speculative.iter().filter(|&&s| !s).count(), 4);
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

    /// The batch licence reads plan code alone, yet on the corpus the
    /// kind of batch it grants follows the certificate: a certified DOALL
    /// runs plain batches, a proven recurrence scans within each batch,
    /// and the loop left to speculation claims its computed elements.
    /// A miss stops at the certificate core, yet certifies and plans each
    /// body exactly as the whole analysis does.
    #[test]
    fn the_batch_licence_agrees_with_the_certificate_on_the_corpus() {
        let loops = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/loops");
        let kind = |plan: &ExecPlan| match (plan.batch_scans().is_empty(), plan.batch_checked()) {
            (true, checked) if checked.is_empty() => "plain",
            (false, checked) if checked.is_empty() => "scanned",
            (true, _) => "checked",
            (false, _) => "scanned and checked",
        };
        let mut licensed = Vec::new();
        for entry in std::fs::read_dir(&loops).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_none_or(|e| e != "wlp") {
                continue;
            }
            let src = std::fs::read_to_string(&path).unwrap();
            let (program, certificate, plan) = compile_source(&src).expect("the corpus compiles");
            let (body, symbols) = lower_with_symbols(&program).unwrap();
            let whole = analyze(&body);
            assert_eq!(certificate, whole.certificate, "{}", path.display());
            let whole_plan = ExecPlan::lower(&program, &hints_of(&body, &symbols, &whole));
            assert_eq!(plan, whole_plan, "{}", path.display());
            assert_eq!(plan.batch_refusal(), None, "{}", path.display());
            let want = match certificate.verdict {
                CertVerdict::CertifiedDoall => "plain",
                CertVerdict::CertifiedSequential => "scanned",
                CertVerdict::SpeculateBounded => "checked",
            };
            assert_eq!(kind(&plan), want, "{}", path.display());
            let name = path.file_stem().unwrap().to_str().unwrap().to_string();
            licensed.push((name, kind(&plan)));
        }
        licensed.sort();
        assert_eq!(
            licensed,
            [
                ("counted_fill", "plain"),
                ("gather_scatter", "checked"),
                ("guarded_update", "plain"),
                ("mcsparse_pair", "scanned"),
                ("partial_sums", "scanned"),
                ("swap", "plain"),
                ("wavefront", "scanned"),
            ]
            .map(|(name, kind)| (name.to_string(), kind))
        );

        // hints that wrongly certify gather_scatter's `A` change its mode,
        // never its licence: its elements are still claimed per batch
        let src = std::fs::read_to_string(loops.join("gather_scatter.wlp")).unwrap();
        let program = parse_program(&src).unwrap();
        let (body, symbols) = lower_with_symbols(&program).unwrap();
        let mut hints = hints_of(&body, &symbols, &analyze(&body));
        hints.certified = vec!["A".into(), "B".into()];
        let plan = ExecPlan::lower(&program, &hints);
        let a = plan.arrays().iter().position(|a| a == "A").unwrap();
        assert_eq!(plan.modes()[a], AccessMode::Certified, "the hint took");
        assert_eq!(kind(&plan), "checked");
        assert_eq!(plan.batch_checked(), ["A"]);
    }
}
