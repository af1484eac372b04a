//! A small Fortran-flavored front-end for WHILE loops.
//!
//! The paper's compiler consumes Fortran; this front-end accepts the same
//! loop shapes in a compact textual form and lowers them to [`LoopIr`],
//! completing the source → analysis → plan → execution pipeline. The
//! paper's Figure 1(b), for example:
//!
//! ```text
//! pointer tmp = head(list)
//! while (tmp != null) {
//!     work[tmp] = f(work[tmp])
//!     tmp = next(tmp)
//! }
//! ```
//!
//! Recognized recurrence updates (the dispatcher candidates): `x = x + c`
//! (induction), `x = a*x + b` in any arrangement (associative), and
//! `p = next(p)` (pointer chase). Subscripts affine in a recognized
//! induction variable with a known initial value lower to
//! [`Subscript::Affine`]; anything else (subscripted subscripts, unknown
//! bases, nonlinear forms) lowers to [`Subscript::Unknown`] — exactly the
//! conservatism the run-time PD test exists to recover from.
//!
//! [`Subscript::Affine`]: crate::ir::Subscript::Affine
//! [`Subscript::Unknown`]: crate::ir::Subscript::Unknown
//! [`LoopIr`]: crate::ir::LoopIr

mod ast;
pub mod lexer;
pub(crate) mod lower;
mod parser;

pub use ast::{BinOp, Decl, Expr, Program, Stmt};
pub use lexer::{LexError, Token};
pub use lower::{lower, lower_with_symbols, LowerError, Symbols};
pub use parser::{parse_program, ParseError};

use crate::ir::LoopIr;
use crate::span::{render_pos, snippet, Span};

/// Parses and lowers one WHILE loop from source text.
pub fn parse_loop(src: &str) -> Result<LoopIr, FrontendError> {
    let program = parse_program(src)?;
    Ok(lower(&program)?)
}

/// Any front-end failure, with a human-readable description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrontendError {
    /// Tokenization or syntax error.
    Parse(ParseError),
    /// The program is syntactically fine but cannot be lowered.
    Lower(LowerError),
}

impl std::fmt::Display for FrontendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrontendError::Parse(e) => write!(f, "parse error: {e}"),
            FrontendError::Lower(e) => write!(f, "lowering error: {e}"),
        }
    }
}

impl std::error::Error for FrontendError {}

impl FrontendError {
    /// The source span the failure points at.
    pub fn span(&self) -> Span {
        match self {
            FrontendError::Parse(e) => e.span,
            FrontendError::Lower(e) => e.span,
        }
    }

    /// Renders the error against its source as a rustc-style snippet:
    /// `line:column`, the offending line, and a caret underline.
    pub fn render(&self, src: &str) -> String {
        let span = self.span();
        let (line, caret) = snippet(src, span);
        format!(
            "error at {}: {}\n    {}\n    {}",
            render_pos(src, span.start),
            self,
            line,
            caret
        )
    }
}

impl From<ParseError> for FrontendError {
    fn from(e: ParseError) -> Self {
        FrontendError::Parse(e)
    }
}

impl From<LowerError> for FrontendError {
    fn from(e: LowerError) -> Self {
        FrontendError::Lower(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_errors_report_line_and_column() {
        let src = "integer i = 0\nwhile (i < n) {\n    i = i $ 1\n}";
        let err = parse_loop(src).unwrap_err();
        let rendered = err.render(src);
        assert!(rendered.starts_with("error at 3:11:"), "{rendered}");
        assert!(rendered.contains("i = i $ 1"), "{rendered}");
        assert!(rendered.contains('^'), "{rendered}");
    }
}
