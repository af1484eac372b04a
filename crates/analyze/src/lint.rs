//! Linting source text: parse → lower → analyze → diagnostics.

use crate::analyze::{analyze, Analysis};
use crate::diag::{Diagnostic, Severity};
use crate::exec::compile_source;
use wlp_ir::exec::ExecPlan;
use wlp_ir::frontend::{lower, FrontendError};

/// What linting one source produced.
#[derive(Debug)]
pub struct LintOutcome {
    /// The full analysis, when the source parsed and lowered.
    pub analysis: Option<Analysis>,
    /// The execution plan a cache miss lowers for the source.
    pub plan: Option<ExecPlan>,
    /// All diagnostics, including parse/lower errors.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintOutcome {
    /// Worst severity across all diagnostics.
    pub fn max_severity(&self) -> Severity {
        self.diagnostics
            .iter()
            .map(|d| d.severity)
            .max()
            .unwrap_or(Severity::Note)
    }

    /// Renders every diagnostic against the source (human format).
    pub fn render(&self, src: &str) -> String {
        self.diagnostics
            .iter()
            .map(|d| d.render(Some(src)))
            .collect()
    }

    /// What `wlp-lint` prints after the findings: the plan line, under it
    /// whether the plan runs a batch at a time (or the first reason it
    /// does not), then the fission line when distribution split the
    /// remainder. `None` when the source did not lower.
    pub fn summary(&self) -> Option<String> {
        let (analysis, plan) = (self.analysis.as_ref()?, self.plan.as_ref()?);
        let summary = analysis.plan_summary();
        let (head, fission) = summary.split_once('\n').unwrap_or((&summary, ""));
        let mut out = format!("{head}\n{}", plan.batch_summary());
        if !fission.is_empty() {
            out.push('\n');
            out.push_str(fission);
        }
        Some(out)
    }

    /// Renders every diagnostic as one JSON object per line.
    pub fn render_json(&self, src: &str) -> String {
        self.diagnostics
            .iter()
            .map(|d| format!("{}\n", d.render_json(Some(src))))
            .collect()
    }
}

/// Lints one WHILE-loop source text: the plan the daemon runs, and the
/// whole analysis (fission plan and diagnostics included) of the program
/// lowered again, as a `certify` reply counts it.
pub fn lint_source(src: &str) -> LintOutcome {
    let compiled =
        compile_source(src).and_then(|(program, _, plan)| Ok((analyze(&lower(&program)?), plan)));
    match compiled {
        Ok((analysis, plan)) => {
            let diagnostics = analysis.diagnostics.clone();
            LintOutcome {
                analysis: Some(analysis),
                plan: Some(plan),
                diagnostics,
            }
        }
        Err(e) => {
            let code = match &e {
                FrontendError::Parse(_) => "E-PARSE",
                FrontendError::Lower(_) => "E-LOWER",
            };
            let d = Diagnostic::new(code, Severity::Error, e.to_string())
                .with_span(Some(e.span()))
                .with_hint("fix the source before analysis can run");
            LintOutcome {
                analysis: None,
                plan: None,
                diagnostics: vec![d],
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SWAP: &str = "integer i = 1\n\
                        integer tmp = 0\n\
                        while (i < n) {\n\
                        \x20   tmp = A[2 * i]\n\
                        \x20   A[2 * i] = A[2 * i - 1]\n\
                        \x20   A[2 * i - 1] = tmp\n\
                        \x20   i = i + 1\n\
                        }";

    #[test]
    fn swap_loop_lints_to_privatization_note_with_spans() {
        let out = lint_source(SWAP);
        let a = out.analysis.as_ref().expect("parses");
        assert!(!a.privatization.scalars.is_empty(), "{a:?}");
        let privd = out
            .diagnostics
            .iter()
            .find(|d| d.code == "W-PRIV01")
            .expect("privatization note");
        let span = privd.span.expect("lowered IR carries spans");
        assert_eq!(&SWAP[span.start..span.end], "tmp = A[2 * i]");
        let rendered = out.render(SWAP);
        assert!(rendered.contains("at 4:"), "{rendered}");
    }

    #[test]
    fn parse_errors_become_error_diagnostics() {
        let out = lint_source("while (x { }");
        assert!(out.analysis.is_none());
        assert_eq!(out.max_severity(), Severity::Error);
        assert_eq!(out.diagnostics[0].code, "E-PARSE");
        assert!(out.diagnostics[0].span.is_some());
    }

    const WAVEFRONT: &str = "integer i = 1\n\
                             while (i < n) {\n\
                             \x20   B[i] = B[i - 1] + w[i]\n\
                             \x20   C[i] = B[i - 1] + 3\n\
                             \x20   i = i + 1\n\
                             }";

    const PARTIAL_SUMS: &str = "integer i = 1\n\
                                while (i < n) {\n\
                                \x20   A[i] = A[i] + A[i - 1]\n\
                                \x20   i = i + 1\n\
                                }";

    #[test]
    fn mixed_block_verdicts_are_a_warning_not_an_error() {
        // wavefront: the B recurrence confines the whole-loop verdict to
        // CertifiedSequential, but fission recovers a DOALL sibling — so
        // W-SEQ01 (error) downgrades to W-SEQ02 (warning) and wlp-lint
        // exits 0 on the file.
        let out = lint_source(WAVEFRONT);
        assert!(out.diagnostics.iter().any(|d| d.code == "W-SEQ02"));
        assert!(out.diagnostics.iter().all(|d| d.code != "W-SEQ01"));
        assert!(out.max_severity() < Severity::Error, "{out:?}");

        // each fused block gets its own diagnostic with a span
        let blocks: Vec<_> = out
            .diagnostics
            .iter()
            .filter(|d| d.code == "W-FIS01")
            .collect();
        assert_eq!(blocks.len(), 2);
        assert!(blocks.iter().all(|d| d.span.is_some()));
        assert!(out.diagnostics.iter().any(|d| d.code == "W-FIS02"));
    }

    #[test]
    fn fully_sequential_loops_still_error() {
        // partial_sums has a single work block: no fission escape hatch,
        // the W-SEQ01 error (exit 1) stands.
        let out = lint_source(PARTIAL_SUMS);
        assert!(out.diagnostics.iter().any(|d| d.code == "W-SEQ01"));
        assert_eq!(out.max_severity(), Severity::Error);
    }

    #[test]
    fn json_rendering_is_one_object_per_line() {
        let out = lint_source(SWAP);
        let json = out.render_json(SWAP);
        for line in json.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert_eq!(json.lines().count(), out.diagnostics.len());
    }
}
