//! Golden-output corpus: every `.wlp` source under `examples/loops` is
//! linted and its rendered diagnostics + plan summary are compared against
//! the checked-in expectation in `examples/loops/expected/<stem>.txt`.
//!
//! The expected files are exactly what `wlp-lint <file>` prints (minus the
//! per-file header), so the corpus doubles as CLI documentation. To
//! regenerate after an intentional diagnostics change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p wlp-analyze --test corpus
//! ```

use std::path::{Path, PathBuf};
use wlp_analyze::lint_source;

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/loops")
}

/// The same rendering `wlp-lint` produces for one file (human format,
/// without the `── path ──` header).
fn render(src: &str) -> String {
    let out = lint_source(src);
    let mut s = out.render(src);
    if let Some(summary) = out.summary() {
        s.push_str(&summary);
        s.push('\n');
    }
    s
}

#[test]
fn corpus_matches_golden_output() {
    let dir = corpus_dir();
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();

    let mut sources: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("corpus dir {}: {e}", dir.display()))
        .filter_map(|entry| {
            let p = entry.expect("read corpus dir").path();
            (p.extension().is_some_and(|x| x == "wlp")).then_some(p)
        })
        .collect();
    sources.sort();
    assert!(
        sources.len() >= 5,
        "corpus shrank: only {} .wlp files in {}",
        sources.len(),
        dir.display()
    );

    let mut failures = Vec::new();
    for path in &sources {
        let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
        let src = std::fs::read_to_string(path).expect("read corpus source");
        let got = render(&src);
        let expected_path = dir.join("expected").join(format!("{stem}.txt"));

        if update {
            std::fs::write(&expected_path, &got).expect("write golden");
            continue;
        }

        let want = std::fs::read_to_string(&expected_path).unwrap_or_else(|e| {
            panic!(
                "{}: missing golden {} ({e}); run with UPDATE_GOLDEN=1 to create it",
                stem,
                expected_path.display()
            )
        });
        if got != want {
            failures.push(format!(
                "{stem}: lint output diverged from {}\n--- expected ---\n{want}--- got ---\n{got}",
                expected_path.display()
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn corpus_covers_every_verdict() {
    // the corpus must keep exercising all three certificate verdicts
    let mut verdicts = std::collections::BTreeSet::new();
    for entry in std::fs::read_dir(corpus_dir()).expect("corpus dir") {
        let p = entry.expect("read corpus dir").path();
        if p.extension().is_some_and(|x| x == "wlp") {
            let src = std::fs::read_to_string(&p).expect("read corpus source");
            let out = lint_source(&src);
            let a = out.analysis.expect("corpus sources parse");
            verdicts.insert(format!("{:?}", a.certificate.verdict));
        }
    }
    for v in ["CertifiedDoall", "CertifiedSequential", "SpeculateBounded"] {
        assert!(verdicts.contains(v), "no corpus loop certifies as {v}");
    }
}
