//! Service-level chaos harness for `wlp-serve`: deadlines, cancellation,
//! circuit breaking, and graceful drain exercised under injected faults.
//!
//! ```text
//! cargo run -p wlp-bench --release --bin serve-chaos               # full run
//! cargo run -p wlp-bench --release --bin serve-chaos -- --smoke    # CI-sized
//! cargo run -p wlp-bench --release --bin serve-chaos -- --out /tmp/c.json
//! cargo run -p wlp-bench --release --bin serve-chaos -- --only worker-stall
//! ```
//!
//! One [`wlp_fault::ChaosScenario`] per section, each against a fresh
//! service so the post-scenario invariant is unambiguous:
//!
//! * `worker-panic` — the one-shot `chaos_panic` builtin fires on both
//!   the sequential path (caught, `exec_error`) and the speculative path
//!   (contained by the pool, recovered through the sequential rerun);
//! * `worker-stall` — `chaos_stall` wedges a lane past the request
//!   deadline; the response must be a retriable `timeout`;
//! * `client-disconnect` — the connection's cancel flag is raised while
//!   a region runs; the request aborts, answers `timeout`, and frees
//!   its lane;
//! * `slow-reader` — one tenant consumes responses far slower than its
//!   neighbours submit; nobody else is affected;
//! * `sigterm-burst` — a real `wlp-serve` subprocess under closed-loop
//!   TCP load receives SIGTERM; every request sent must receive a
//!   response and the process must exit clean inside its drain budget;
//!
//! After **every** scenario the harness asserts the leak invariant from
//! the service's own `stats` op: all lanes free, empty queue, zero
//! active runs, every tenant back to its full credit pool. Any
//! violation fails the run (exit 1) — this is the hard gate the
//! `chaos-smoke` CI job rides on. The artifact is `BENCH_chaos.json`;
//! with `--trajectory PATH` the headline numbers also land on the
//! shared bench-trajectory scoreboard.

use serde::{json, Serialize, Value};
use std::io::{BufRead, BufReader, Write as IoWrite};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wlp_bench::trajectory::{TrajectoryExhibit, TrajectoryRecord};
use wlp_fault::ChaosScenario;
use wlp_serve::{CancelFlag, ServeConfig, Service};

/// Credits each scenario's service starts with — asserted restored.
const CREDITS: u64 = 1 << 16;

fn chaos_service() -> Service {
    Service::new(ServeConfig {
        workers: 4,
        lane_width: 2,
        chaos_builtins: true,
        tenant_spec_credits: CREDITS,
        max_inflight_per_tenant: 4,
        // breaker tuned tight enough that worker-stall trips it inside
        // the scenario, proving the trip/recover cycle under load
        circuit: wlp_serve::circuit::CircuitPolicy {
            trip_threshold: 3,
            open_ms: 60,
            half_open_probes: 1,
        },
        ..ServeConfig::default()
    })
}

/// A benign certified-DOALL request line.
fn quick_line(tenant: &str) -> String {
    let src = "integer i = 0\nwhile (i < n) {\n    A[i] = 2 * A[i]\n    i = i + 1\n}";
    format!(
        r#"{{"op":"run","tenant":"{tenant}","program":{},"arrays":{{"A":[1,2,3,4]}},"scalars":{{"n":4}},"reply":"digest"}}"#,
        json::to_string(src)
    )
}

/// A request whose first iteration stalls `stall_ms` (one-shot), with an
/// optional deadline.
fn stall_line(tenant: &str, stall_ms: u64, deadline_ms: Option<u64>) -> String {
    let src = format!(
        "integer i = 0\nwhile (i < n) {{\n    A[i] = chaos_stall({stall_ms})\n    i = i + 1\n}}"
    );
    let deadline = deadline_ms.map_or(String::new(), |ms| format!(r#","deadline_ms":{ms}"#));
    format!(
        r#"{{"op":"run","tenant":"{tenant}","program":{},"arrays":{{"A":[0,0]}},"scalars":{{"n":2}}{deadline}}}"#,
        json::to_string(&src)
    )
}

/// Sequential-verdict panic request (`x` is loop-carried) — exercises
/// the service's catch_unwind containment.
fn panic_seq_line(tenant: &str) -> String {
    let src = "integer i = 0\nwhile (i < n) {\n    x = chaos_panic(x)\n    i = i + 1\n}";
    format!(
        r#"{{"op":"run","tenant":"{tenant}","program":{},"scalars":{{"n":3,"x":1}}}}"#,
        json::to_string(src)
    )
}

/// Speculative-verdict panic request — the pool contains the panic and
/// the one-shot builtin lets the sequential rerun recover. Each `round`
/// submits its own program text: a program's first run speculates, while
/// a repeat would be the program's run history's to send down the
/// sequential path, where the panic is the other scenario's.
fn panic_spec_line(tenant: &str, round: usize) -> String {
    let src = format!(
        "integer i = 0\nwhile (i < n) {{\n    A[i] = chaos_panic(A[i]) + {round}\n    i = i + 1\n}}"
    );
    format!(
        r#"{{"op":"run","tenant":"{tenant}","program":{},"arrays":{{"A":[1,2,3,4]}},"scalars":{{"n":4}}}}"#,
        json::to_string(&src)
    )
}

#[derive(Serialize)]
struct Machine {
    os: String,
    arch: String,
    cpus: usize,
}

#[derive(Default, Serialize)]
struct Tally {
    requests: usize,
    ok: usize,
    retriable: usize,
    fatal: usize,
}

impl Tally {
    fn count(&mut self, resp: &str) {
        self.requests += 1;
        if resp.contains("\"ok\":true") {
            self.ok += 1;
        } else if resp.contains("\"retry_after_ms\":") {
            self.retriable += 1;
        } else {
            self.fatal += 1;
        }
    }
}

#[derive(Serialize)]
struct ScenarioReport {
    name: &'static str,
    tally: Tally,
    /// Whether the post-fault probe request succeeded.
    recovered: bool,
    /// Fault injection to first subsequent success, in ms.
    recovery_ms: u64,
    /// Lanes not back in the free pool at scenario end (must be 0).
    leaked_lanes: u64,
    /// Credits not returned to tenant pools at scenario end (must be 0).
    leaked_credits: u64,
    /// `run` requests still counted active at scenario end (must be 0).
    stuck_active: u64,
    /// Violation messages; empty means the invariant held.
    violations: Vec<String>,
    /// SIGTERM to process exit, in ms (subprocess scenarios only).
    drain_ms: Option<u64>,
    /// Whether the subprocess exited 0 (subprocess scenarios only).
    clean_exit: Option<bool>,
}

#[derive(Serialize)]
struct BenchFile {
    schema: &'static str,
    machine: Machine,
    smoke: bool,
    scenarios: Vec<ScenarioReport>,
    all_invariants_hold: bool,
}

/// Reads the leak invariant off a `stats` response. Returns
/// `(leaked_lanes, leaked_credits, stuck_active, violations)`.
fn check_invariants(service: &Service) -> (u64, u64, u64, Vec<String>) {
    let resp = service.handle_line(r#"{"op":"stats"}"#);
    let mut violations = Vec::new();
    let v = match json::parse(&resp) {
        Ok(v) => v,
        Err(e) => {
            violations.push(format!("stats response unparseable: {e:?}"));
            return (0, 0, 0, violations);
        }
    };
    let stats = v.get("stats").cloned().unwrap_or(Value::Null);
    let num = |key: &str| stats.get(key).and_then(Value::as_u64).unwrap_or(u64::MAX);
    let lanes = num("lanes");
    let lanes_free = num("lanes_free");
    let leaked_lanes = lanes.saturating_sub(lanes_free);
    if leaked_lanes != 0 {
        violations.push(format!("{leaked_lanes} of {lanes} lanes not returned"));
    }
    if num("queue_waiting") != 0 {
        violations.push(format!("{} tickets still queued", num("queue_waiting")));
    }
    let stuck_active = num("active_runs");
    if stuck_active != 0 {
        violations.push(format!("{stuck_active} runs still active"));
    }
    let mut leaked_credits = 0u64;
    if let Some(Value::Object(tenants)) = stats.get("tenants") {
        for (name, t) in tenants {
            let credits = t.get("credits").and_then(Value::as_u64).unwrap_or(0);
            if credits != CREDITS {
                leaked_credits += CREDITS.saturating_sub(credits);
                violations.push(format!("tenant `{name}` holds {credits}/{CREDITS} credits"));
            }
            let in_flight = t.get("in_flight").and_then(Value::as_u64).unwrap_or(0);
            if in_flight != 0 {
                violations.push(format!("tenant `{name}` still has {in_flight} in flight"));
            }
        }
    }
    (leaked_lanes, leaked_credits, stuck_active, violations)
}

/// Probes recovery: one benign request; returns (recovered, latency).
fn probe(service: &Service, tenant: &str, fault_at: Instant) -> (bool, u64) {
    let resp = service.handle_line(&quick_line(tenant));
    (
        resp.contains("\"ok\":true"),
        fault_at.elapsed().as_millis() as u64,
    )
}

fn report(
    name: &'static str,
    service: &Service,
    tally: Tally,
    recovered: bool,
    recovery_ms: u64,
) -> ScenarioReport {
    let (leaked_lanes, leaked_credits, stuck_active, violations) = check_invariants(service);
    ScenarioReport {
        name,
        tally,
        recovered,
        recovery_ms,
        leaked_lanes,
        leaked_credits,
        stuck_active,
        violations,
        drain_ms: None,
        clean_exit: None,
    }
}

fn worker_panic(rounds: usize) -> ScenarioReport {
    let service = chaos_service();
    let mut tally = Tally::default();
    let fault_at = Instant::now();
    for r in 0..rounds {
        // sequential containment: must answer exec_error, not die
        let resp = service.handle_line(&panic_seq_line(&format!("boom-seq-{r}")));
        assert!(
            resp.contains("\"code\":\"exec_error\""),
            "sequential panic must answer exec_error: {resp}"
        );
        tally.count(&resp);
        // speculative containment: the pool absorbs the panic and the
        // rerun recovers, so this one is expected to succeed — and must
        // have reached the speculative path to be this scenario at all
        let resp = service.handle_line(&panic_spec_line(&format!("boom-spec-{r}"), r));
        assert!(
            resp.contains("\"decision\":\"speculated\"") || resp.contains("\"decision\":\"probe\""),
            "speculative panic must run on the speculative path: {resp}"
        );
        tally.count(&resp);
    }
    let (recovered, recovery_ms) = probe(&service, "probe", fault_at);
    report("worker-panic", &service, tally, recovered, recovery_ms)
}

fn worker_stall(rounds: usize) -> ScenarioReport {
    let service = chaos_service();
    let mut tally = Tally::default();
    let fault_at = Instant::now();
    let mut circuit_rejections = 0usize;
    for r in 0..rounds {
        // 60ms stall against a 15ms deadline: a timeout every time
        // until the tenant's circuit opens and rejections take over
        let resp = service.handle_line(&stall_line("staller", 60, Some(15)));
        if resp.contains("\"code\":\"tenant_circuit_open\"") {
            circuit_rejections += 1;
        } else {
            assert!(
                resp.contains("\"code\":\"timeout\""),
                "stall round {r} must time out: {resp}"
            );
        }
        tally.count(&resp);
        // an innocent bystander keeps running at full speed
        let resp = service.handle_line(&quick_line("bystander"));
        assert!(
            resp.contains("\"ok\":true"),
            "bystander must be unaffected: {resp}"
        );
        tally.count(&resp);
    }
    assert!(
        circuit_rejections > 0 || rounds < 4,
        "enough consecutive timeouts must trip the staller's circuit"
    );
    // the breaker recovers: after the open interval a probe closes it
    std::thread::sleep(Duration::from_millis(70));
    let resp = service.handle_line(&quick_line("staller"));
    let breaker_recovered = resp.contains("\"ok\":true");
    let (probe_ok, recovery_ms) = probe(&service, "probe", fault_at);
    report(
        "worker-stall",
        &service,
        tally,
        probe_ok && breaker_recovered,
        recovery_ms,
    )
}

fn client_disconnect(rounds: usize) -> ScenarioReport {
    let service = Arc::new(chaos_service());
    let mut tally = Tally::default();
    let fault_at = Instant::now();
    for r in 0..rounds {
        let cancel = Arc::new(CancelFlag::new());
        let line = stall_line(&format!("ghost-{r}"), 120, None);
        let svc = Arc::clone(&service);
        let flag = Arc::clone(&cancel);
        let handle = std::thread::spawn(move || svc.handle_line_with(&line, Some(&flag)));
        // the client vanishes ~10ms into the request
        std::thread::sleep(Duration::from_millis(10));
        cancel.cancel();
        let resp = handle.join().expect("request thread");
        assert!(
            resp.contains("\"code\":\"timeout\"") && resp.contains("client abandoned"),
            "abandoned request must answer timeout: {resp}"
        );
        tally.count(&resp);
    }
    let (recovered, recovery_ms) = probe(&service, "probe", fault_at);
    report("client-disconnect", &service, tally, recovered, recovery_ms)
}

fn slow_reader(fast_requests: usize) -> ScenarioReport {
    let service = Arc::new(chaos_service());
    let fault_at = Instant::now();
    let slow_done = AtomicUsize::new(0);
    let tally = std::sync::Mutex::new(Tally::default());
    std::thread::scope(|scope| {
        // the slow reader: issues a request, then dawdles before
        // consuming the next — its pace must not set anyone else's
        scope.spawn(|| {
            for _ in 0..4 {
                let resp = service.handle_line(&quick_line("sloth"));
                tally.lock().unwrap().count(&resp);
                slow_done.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(15));
            }
        });
        // two fast tenants hammer in closed loop meanwhile
        for t in 0..2 {
            let service = &service;
            let tally = &tally;
            scope.spawn(move || {
                let tenant = format!("fast-{t}");
                for _ in 0..fast_requests {
                    let resp = service.handle_line(&quick_line(&tenant));
                    assert!(
                        resp.contains("\"ok\":true") || resp.contains("\"retry_after_ms\":"),
                        "fast tenant hit a fatal error: {resp}"
                    );
                    tally.lock().unwrap().count(&resp);
                }
            });
        }
    });
    assert_eq!(slow_done.load(Ordering::Relaxed), 4, "slow reader finished");
    let tally = tally.into_inner().unwrap();
    let (recovered, recovery_ms) = probe(&service, "probe", fault_at);
    report("slow-reader", &service, tally, recovered, recovery_ms)
}

#[cfg(unix)]
fn send_sigterm(pid: u32) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGTERM: i32 = 15;
    unsafe {
        kill(pid as i32, SIGTERM);
    }
}

/// Locates the `wlp-serve` binary next to this harness binary.
fn serve_binary() -> Option<std::path::PathBuf> {
    let me = std::env::current_exe().ok()?;
    let candidate = me.parent()?.join("wlp-serve");
    candidate.exists().then_some(candidate)
}

/// One closed-loop TCP client for the SIGTERM scenario. Sends until it
/// receives a `draining` rejection (the drain's signal to go away) or
/// the connection dies. Returns `(sent, answered)` — the acceptance bar
/// is `sent == answered` for every client.
fn burst_client(addr: &str, tenant: String, stall: bool) -> (usize, usize) {
    let Ok(stream) = TcpStream::connect(addr) else {
        return (0, 0);
    };
    let Ok(write_half) = stream.try_clone() else {
        return (0, 0);
    };
    let mut reader = BufReader::new(stream);
    let mut writer = write_half;
    let mut sent = 0usize;
    let mut answered = 0usize;
    loop {
        let line = if stall {
            stall_line(&tenant, 120, None)
        } else {
            quick_line(&tenant)
        };
        if writeln!(writer, "{line}")
            .and_then(|()| writer.flush())
            .is_err()
        {
            break;
        }
        sent += 1;
        let mut resp = String::new();
        match reader.read_line(&mut resp) {
            Ok(0) | Err(_) => break,
            Ok(_) => answered += 1,
        }
        if resp.contains("\"code\":\"draining\"") {
            break;
        }
    }
    (sent, answered)
}

fn sigterm_burst(clients: usize) -> ScenarioReport {
    let mut base = report(
        "sigterm-burst",
        &chaos_service(), // fresh idle service: invariant trivially holds
        Tally::default(),
        false,
        0,
    );
    if cfg!(not(unix)) {
        base.violations.push("skipped: no SIGTERM off unix".into());
        return base;
    }
    let Some(bin) = serve_binary() else {
        base.violations
            .push("wlp-serve binary not built next to serve-chaos".into());
        return base;
    };
    let mut child = match std::process::Command::new(&bin)
        .args([
            "--listen",
            "127.0.0.1:0",
            "--chaos",
            "--drain-ms",
            "2000",
            "--workers",
            "4",
            "--lane-width",
            "2",
        ])
        .stderr(std::process::Stdio::piped())
        .spawn()
    {
        Ok(c) => c,
        Err(e) => {
            base.violations.push(format!("cannot spawn wlp-serve: {e}"));
            return base;
        }
    };
    // harvest stderr on a thread; the first line carries the port
    let stderr = child.stderr.take().expect("piped stderr");
    let (addr_tx, addr_rx) = std::sync::mpsc::channel();
    let stderr_thread = std::thread::spawn(move || {
        let mut collected = String::new();
        let mut sent_addr = false;
        for line in BufReader::new(stderr).lines().map_while(Result::ok) {
            if !sent_addr {
                if let Some(addr) = line.strip_prefix("wlp-serve: listening on ") {
                    let _ = addr_tx.send(addr.to_string());
                    sent_addr = true;
                }
            }
            collected.push_str(&line);
            collected.push('\n');
        }
        collected
    });
    let Ok(addr) = addr_rx.recv_timeout(Duration::from_secs(10)) else {
        base.violations
            .push("wlp-serve never reported its port".into());
        let _ = child.kill();
        let _ = child.wait();
        return base;
    };

    // closed-loop load: most clients run quick certified programs, one
    // holds lanes with 120ms stalls so SIGTERM lands mid-region
    let totals: Vec<(usize, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let addr = addr.clone();
                scope.spawn(move || burst_client(&addr, format!("burst-{c}"), c == 0))
            })
            .collect();
        std::thread::sleep(Duration::from_millis(150));
        let term_at = Instant::now();
        send_sigterm(child.id());
        let results = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let status = child.wait().expect("child exits");
        base.drain_ms = Some(term_at.elapsed().as_millis() as u64);
        base.clean_exit = Some(status.success());
        results
    });
    let stderr_text = stderr_thread.join().unwrap_or_default();

    for (c, (sent, answered)) in totals.iter().enumerate() {
        base.tally.requests += sent;
        base.tally.ok += answered; // per-response codes live in the log
        if sent != answered {
            base.violations.push(format!(
                "client {c}: {sent} sent but only {answered} answered — a request was dropped"
            ));
        }
    }
    if base.clean_exit != Some(true) {
        base.violations.push("drain did not exit clean".into());
    }
    if base.drain_ms.is_some_and(|ms| ms > 3_000) {
        base.violations
            .push(format!("drain took {:?}ms (budget 3000)", base.drain_ms));
    }
    // the final stats line must agree that nothing leaked
    if let Some(stats_line) = stderr_text
        .lines()
        .find_map(|l| l.split("final stats: ").nth(1))
    {
        if let Ok(v) = json::parse(stats_line) {
            let lanes = v.get("lanes").and_then(Value::as_u64).unwrap_or(0);
            let free = v.get("lanes_free").and_then(Value::as_u64).unwrap_or(0);
            if lanes != free {
                base.violations
                    .push(format!("subprocess leaked {} lanes", lanes - free));
            }
            if v.get("active_runs").and_then(Value::as_u64) != Some(0) {
                base.violations
                    .push("subprocess exited with active runs".into());
            }
        }
    } else {
        base.violations
            .push("subprocess never flushed final stats".into());
    }
    base.recovered = base.violations.is_empty();
    base.recovery_ms = base.drain_ms.unwrap_or(0);
    base
}

fn main() {
    // the injected chaos_panic fires dozens of times by design; keep its
    // backtraces out of the log while leaving real panics loud
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.to_string().contains("chaos_panic") {
            return;
        }
        default_hook(info);
    }));
    let mut smoke = false;
    let mut out = "BENCH_chaos.json".to_string();
    let mut only: Option<ChaosScenario> = None;
    let mut trajectory: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = args.next().expect("--out needs a path"),
            "--trajectory" => trajectory = Some(args.next().expect("--trajectory needs a path")),
            "--only" => {
                let name = args.next().expect("--only needs a scenario name");
                only = Some(ChaosScenario::parse(&name).unwrap_or_else(|| {
                    eprintln!("unknown scenario `{name}`");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: serve-chaos [--smoke] [--only SCENARIO] [--out PATH] [--trajectory PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    let (rounds, burst_clients) = if smoke { (4, 3) } else { (12, 6) };

    let mut scenarios = Vec::new();
    for s in ChaosScenario::ALL {
        if only.is_some_and(|o| o != s) {
            continue;
        }
        let rep = match s {
            ChaosScenario::WorkerPanic => worker_panic(rounds),
            ChaosScenario::WorkerStall => worker_stall(rounds),
            ChaosScenario::ClientDisconnect => client_disconnect(rounds.min(6)),
            ChaosScenario::SlowReader => slow_reader(rounds * 4),
            ChaosScenario::SigtermBurst => sigterm_burst(burst_clients),
        };
        eprintln!(
            "serve-chaos {}: {} requests ({} ok, {} retriable, {} fatal), recovered={} in {}ms{}",
            rep.name,
            rep.tally.requests,
            rep.tally.ok,
            rep.tally.retriable,
            rep.tally.fatal,
            rep.recovered,
            rep.recovery_ms,
            if rep.violations.is_empty() {
                ", invariants hold".to_string()
            } else {
                format!(", VIOLATIONS: {:?}", rep.violations)
            },
        );
        scenarios.push(rep);
    }

    let all_hold = scenarios
        .iter()
        .all(|r| r.violations.is_empty() && r.recovered);
    let file = BenchFile {
        schema: "wlp-bench-chaos-v1",
        machine: Machine {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            cpus: std::thread::available_parallelism().map_or(4, |p| p.get()),
        },
        smoke,
        scenarios,
        all_invariants_hold: all_hold,
    };
    std::fs::write(&out, json::to_string(&file)).expect("write bench file");
    eprintln!("serve-chaos: wrote {out}");
    if let Some(path) = &trajectory {
        let exhibits: Vec<TrajectoryExhibit> = file
            .scenarios
            .iter()
            .map(|r| TrajectoryExhibit {
                name: format!("chaos_{}_recovery", r.name),
                median_ns: r.recovery_ms * 1_000_000,
                value: None,
                speedup_vs_baseline: None,
            })
            .collect();
        TrajectoryRecord::now("serve-chaos", smoke, exhibits)
            .append_to(path)
            .expect("append trajectory record");
        eprintln!("serve-chaos: appended trajectory record to {path}");
    }
    if !all_hold {
        eprintln!("serve-chaos: INVARIANT VIOLATIONS — failing the run");
        std::process::exit(1);
    }
}
