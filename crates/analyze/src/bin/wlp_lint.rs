//! `wlp-lint`: static safety diagnostics for WHILE-loop sources.
//!
//! ```text
//! wlp-lint [--json] [--quiet] FILE...
//! wlp-lint [--json] -        # read one loop from stdin
//! ```
//!
//! Multi-block loops get one `W-FIS01` note per fused block (block index,
//! span, certificate kind) plus a `W-FIS02` note per cross-block DOACROSS
//! edge, in `--json` as in human output.
//!
//! Exit status: 0 when no diagnostic is an error, 1 when any source has an
//! error-severity finding, 2 on usage or I/O problems. Mixed verdicts do
//! **not** exit 1: a provably-sequential fused block alongside parallel
//! sibling blocks downgrades `W-SEQ01` (error) to `W-SEQ02` (warning),
//! because the fission plan still extracts parallelism — only a loop whose
//! entire remainder is provably sequential (or a parse failure) is an
//! error.

use std::io::Read;
use std::process::ExitCode;
use wlp_analyze::{lint_source, Severity};

fn main() -> ExitCode {
    let mut json = false;
    let mut quiet = false;
    let mut inputs: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--quiet" | "-q" => quiet = true,
            "--help" | "-h" => {
                println!("usage: wlp-lint [--json] [--quiet] FILE... (or - for stdin)");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with("--") => {
                eprintln!("wlp-lint: unknown flag {other}");
                return ExitCode::from(2);
            }
            path => inputs.push(path.to_string()),
        }
    }
    if inputs.is_empty() {
        eprintln!("wlp-lint: no input files (use - for stdin)");
        return ExitCode::from(2);
    }

    let mut worst = Severity::Note;
    for path in &inputs {
        let src = if path == "-" {
            let mut buf = String::new();
            match std::io::stdin().read_to_string(&mut buf) {
                Ok(_) => buf,
                Err(e) => {
                    eprintln!("wlp-lint: stdin: {e}");
                    return ExitCode::from(2);
                }
            }
        } else {
            match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("wlp-lint: {path}: {e}");
                    return ExitCode::from(2);
                }
            }
        };

        let out = lint_source(&src);
        worst = worst.max(out.max_severity());
        if !quiet {
            if json {
                print!("{}", out.render_json(&src));
            } else {
                let header = format!("── {path} ──");
                println!("{header}");
                print!("{}", out.render(&src));
                if let Some(summary) = out.summary() {
                    println!("{summary}");
                }
            }
        }
    }

    if worst >= Severity::Error {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
