//! The daemon's command line: a flag it does not know is a usage error,
//! so an invocation written for an option the daemon has dropped fails
//! loudly at startup instead of running without what it asked for.

use std::process::{Command, Stdio};

/// Runs `wlp-serve --stdin` with `extra` and an empty stdin; returns the
/// exit code and stderr.
fn run_daemon(extra: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_wlp-serve"))
        .arg("--stdin")
        .args(extra)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .expect("run wlp-serve");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn the_removed_persistence_flags_are_unknown() {
    let state = std::env::temp_dir()
        .join(format!("wlp-serve-cli-{}", std::process::id()))
        .join("state");
    let state = state.to_string_lossy();
    for (flag, value) in [
        ("--state-dir", &*state),
        ("--journal-fsync", "1"),
        ("--compact-bytes", "1"),
    ] {
        let (code, stderr) = run_daemon(&[flag, value]);
        assert_eq!(code, Some(2), "{flag}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "{flag}: {stderr}"
        );
    }
}

#[test]
fn a_known_flag_still_starts_the_daemon() {
    let (code, stderr) = run_daemon(&["--cache", "4", "--quiet"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
}
