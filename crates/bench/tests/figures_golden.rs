//! Golden-output net over the `figures` exhibits: every exhibit except
//! `faults` (which prints wall-clock microseconds) is rendered through
//! [`wlp_bench::exhibit`] — the dispatch the `figures` binary prints from —
//! and compared byte for byte with `tests/golden/<exhibit>.txt`. The
//! simulator is deterministic, so any difference is a behaviour change.
//! To regenerate after an intentional one:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p wlp-bench --test figures_golden
//! ```

use std::path::Path;
use wlp_bench::{exhibit, EXHIBITS};

#[test]
fn exhibits_match_golden_output() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();

    let mut failures = Vec::new();
    for name in EXHIBITS.into_iter().filter(|&n| n != "faults") {
        let got = exhibit(name).expect("EXHIBITS names only known exhibits");
        let path = dir.join(format!("{name}.txt"));
        if update {
            std::fs::write(&path, &got).expect("write golden");
            continue;
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{name}: missing golden {} ({e}); run with UPDATE_GOLDEN=1 to create it",
                path.display()
            )
        });
        if got != want {
            failures.push(format!(
                "{name}: output diverged from {}\n--- expected ---\n{want}--- got ---\n{got}",
                path.display()
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}
