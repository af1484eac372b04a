//! The `wlp-serve` child process: build it, start it, ask it for its
//! counters, read its memory and CPU from `/proc`, stop it.

use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The repository root: the benchmark package sits directly under it.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ has a parent")
        .to_path_buf()
}

/// Builds `wlp-serve` in release mode from the repository's own manifest,
/// into the target directory this benchmark was built into, and returns
/// the binary's path. A no-op after the first call in a checkout.
pub fn build(root: &Path) -> Result<PathBuf, String> {
    let manifest = root.join("Cargo.toml");
    if !manifest.is_file() || !root.join("crates/serve").is_dir() {
        return Err(format!(
            "{} is not the repository root: no Cargo.toml and crates/serve beside benchmark/",
            root.display()
        ));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| root.join("benchmark/target"));
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "wlp-serve", "--bin", "wlp-serve", "--manifest-path"])
        .arg(&manifest)
        .arg("--target-dir")
        .arg(&target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building wlp-serve failed: {status}"));
    }
    let bin = target.join("release/wlp-serve");
    if !bin.is_file() {
        return Err(format!("cargo built no {}", bin.display()));
    }
    Ok(bin)
}

/// A running daemon. Dropping it kills the process and waits for it.
pub struct Daemon {
    child: Child,
    addr: String,
    /// Drains the daemon's stderr so a long drain report cannot block it.
    stderr: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Starts `wlp-serve --listen 127.0.0.1:0 --workers 2 --lane-width 2`
    /// and waits for the line naming the port the kernel gave it.
    pub fn spawn(bin: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args([
                "--listen",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--lane-width",
                "2",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let pipe = child.stderr.take().expect("stderr was piped");
        let (tx, rx) = mpsc::channel();
        let stderr = std::thread::spawn(move || {
            for line in BufReader::new(pipe).lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix("wlp-serve: listening on ") {
                    let _ = tx.send(addr.to_string());
                }
            }
        });
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            stderr: Some(stderr),
        };
        daemon.addr = rx
            .recv_timeout(Duration::from_secs(20))
            .map_err(|_| "wlp-serve never reported its listening address".to_string())?;
        Ok(daemon)
    }

    pub fn connect(&self) -> Result<TcpStream, String> {
        let stream = TcpStream::connect(&self.addr)
            .map_err(|e| format!("cannot connect to {}: {e}", self.addr))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        Ok(stream)
    }

    /// One request on a connection of its own; the parsed response.
    pub fn ask(&self, line: &str) -> Result<Value, String> {
        let mut stream = self.connect()?;
        stream
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("control write: {e}"))?;
        let mut resp = String::new();
        BufReader::new(stream)
            .read_line(&mut resp)
            .map_err(|e| format!("control read: {e}"))?;
        serde::json::parse(resp.trim_end()).map_err(|e| format!("control response: {e}"))
    }

    /// Blocks until the daemon answers a `ping`.
    pub fn ping(&self) -> Result<(), String> {
        let pong = self.ask(r#"{"op":"ping"}"#)?;
        match pong.get("pong").and_then(Value::as_bool) {
            Some(true) => Ok(()),
            _ => Err(format!("unexpected ping response: {pong}")),
        }
    }

    /// The `stats` object.
    pub fn stats(&self) -> Result<Value, String> {
        let resp = self.ask(r#"{"op":"stats"}"#)?;
        resp.get("stats")
            .cloned()
            .ok_or_else(|| format!("stats response without stats: {resp}"))
    }

    fn proc_file(&self, name: &str) -> Result<String, String> {
        let path = format!("/proc/{}/{name}", self.child.id());
        std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))
    }

    /// Peak resident set (`VmHWM`), MB.
    pub fn rss_peak_mb(&self) -> Result<f64, String> {
        let status = self.proc_file("status")?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in /proc status".to_string())
    }

    /// User plus system CPU time consumed so far, microseconds. `/proc`
    /// counts in clock ticks of 1/100 s (Linux's fixed `USER_HZ`).
    pub fn cpu_us(&self) -> Result<f64, String> {
        let stat = self.proc_file("stat")?;
        // the command name may hold spaces; fields count from after ")"
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |k: usize| fields.get(k).and_then(|f| f.parse::<f64>().ok());
        match (ticks(11), ticks(12)) {
            (Some(utime), Some(stime)) => Ok((utime + stime) * 10_000.0),
            _ => Err("cannot read utime/stime from /proc stat".to_string()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(t) = self.stderr.take() {
            let _ = t.join();
        }
    }
}
