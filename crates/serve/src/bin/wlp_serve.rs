//! The `wlp-serve` daemon binary.
//!
//! Two transports over the same [`wlp_serve::Service`]:
//!
//! * `wlp-serve --stdin` — read NDJSON requests from standard input,
//!   write one response line per request to standard output, exit 0 at
//!   EOF (or after a `shutdown` request drains). The mode scripts and
//!   the CI smoke job use.
//! * `wlp-serve --listen ADDR` — accept TCP connections on `ADDR`
//!   (e.g. `127.0.0.1:7070`), one thread per connection, same NDJSON
//!   framing per connection. Runs until a `shutdown` request or
//!   SIGTERM/SIGINT begins a graceful drain: the listener closes,
//!   in-flight requests finish under `--drain-ms`, final stats go to
//!   stderr, and the exit code says whether the drain completed clean.
//!
//! Accepted sockets go through [`wlp_serve::prepare_accepted`] (blocking
//! I/O, `TCP_NODELAY`), and every response is one flushed write, so a
//! pipelined client is answered as each response is ready.
//!
//! Each TCP connection gets a cancellation flag. A dedicated reader
//! thread notices connection resets while a request is still executing
//! and raises the flag, which aborts the request's region and returns
//! its lane and credits — a client that disconnects stops costing the
//! other tenants capacity.
//!
//! Tunables (see `docs/OPERATIONS.md` for sizing guidance):
//! `--workers N`, `--lane-width N`, `--cache N`, `--max-inflight N`,
//! `--max-queue N`, `--max-iters N`, `--credits N`, `--max-deadline MS`,
//! `--drain-ms MS`, `--circuit-trip N`, `--circuit-open-ms MS`,
//! `--chaos`, `--quiet`.
//!
//! Durable state (`docs/OPERATIONS.md` § Durable state): `--state-dir
//! DIR` gives the certificate cache a crash-safe snapshot + journal and
//! a warm restart; `--journal-fsync N` sets the fsync batch (default 1 =
//! every append; 0 = OS-paced); `--compact-bytes N` sets the journal
//! size that triggers compaction. An unusable state dir (missing parent,
//! not writable, locked by a live daemon) is a one-line error at
//! startup, exit 1 — never a mid-request surprise.

use serde::json;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wlp_serve::proto::{self, codes, ProtoError};
use wlp_serve::{CancelFlag, ServeConfig, Service};

/// Longest request line either transport accepts (docs/PROTOCOL.md).
/// `BufRead::lines` would buffer an arbitrarily long line whole, letting
/// one client exhaust the daemon's memory; past this bound the line is
/// drained, answered with a `bad_request` error, and the stream resumes
/// at the next newline.
const MAX_LINE_BYTES: usize = 1 << 20;

/// One bounded read: `Line` up to the cap, `TooLong` past it (already
/// drained to the next newline), `Eof` at end of stream.
enum BoundedLine {
    Line(String),
    TooLong,
    Eof,
}

fn read_bounded_line<R: BufRead>(reader: &mut R) -> std::io::Result<BoundedLine> {
    let mut buf = Vec::new();
    let n =
        std::io::Read::take(&mut *reader, MAX_LINE_BYTES as u64 + 1).read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(BoundedLine::Eof);
    }
    if buf.last() != Some(&b'\n') && n > MAX_LINE_BYTES {
        // skip the remainder of the oversized line so the connection
        // can keep serving subsequent requests
        loop {
            buf.clear();
            let m = std::io::Read::take(&mut *reader, MAX_LINE_BYTES as u64)
                .read_until(b'\n', &mut buf)?;
            if m == 0 || buf.last() == Some(&b'\n') {
                return Ok(BoundedLine::TooLong);
            }
        }
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
    }
    // the buffer becomes the line; only ill-formed UTF-8 pays for a copy
    Ok(BoundedLine::Line(String::from_utf8(buf).unwrap_or_else(
        |e| String::from_utf8_lossy(e.as_bytes()).into_owned(),
    )))
}

fn line_too_long_response() -> String {
    proto::error_line(
        &ProtoError {
            code: codes::BAD_REQUEST,
            detail: format!("request line exceeds {MAX_LINE_BYTES} bytes"),
            id: None,
        },
        None,
    )
}

/// SIGTERM/SIGINT → a flag the accept loop polls. The handler only
/// stores to an atomic, which is async-signal-safe; everything else
/// (drain, stats flush) happens on the main thread.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERM: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_term(_sig: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_term as extern "C" fn(i32) as usize);
            signal(SIGINT, on_term as extern "C" fn(i32) as usize);
        }
    }

    pub fn termed() -> bool {
        TERM.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}
    pub fn termed() -> bool {
        false
    }
}

struct Args {
    listen: Option<String>,
    cfg: ServeConfig,
    quiet: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: wlp-serve [--stdin | --listen ADDR] [--workers N] [--lane-width N]\n\
         \x20                [--cache N] [--max-inflight N] [--max-queue N]\n\
         \x20                [--max-iters N] [--credits N] [--max-deadline MS]\n\
         \x20                [--drain-ms MS] [--circuit-trip N] [--circuit-open-ms MS]\n\
         \x20                [--state-dir DIR] [--journal-fsync N] [--compact-bytes N]\n\
         \x20                [--chaos] [--quiet]\n\
         \n\
         Serves the wlp NDJSON protocol (docs/PROTOCOL.md): one JSON request\n\
         per line, one response line per request. Default mode is --stdin.\n\
         SIGTERM (or a `shutdown` request) begins a graceful drain."
    );
    std::process::exit(2);
}

/// The persist config under construction. `--journal-fsync` and
/// `--compact-bytes` may precede `--state-dir` on the command line; a
/// missing `--state-dir` is caught after parsing.
fn persist_cfg(cfg: &mut ServeConfig) -> &mut wlp_serve::persist::PersistConfig {
    cfg.persist
        .get_or_insert_with(|| wlp_serve::persist::PersistConfig::at(""))
}

fn parse_args() -> Args {
    let mut args = Args {
        listen: None,
        cfg: ServeConfig::default(),
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut num = |name: &str| -> usize {
            it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("wlp-serve: {name} needs a non-negative integer");
                usage()
            })
        };
        match arg.as_str() {
            "--stdin" => args.listen = None,
            "--listen" => match it.next() {
                Some(addr) => args.listen = Some(addr),
                None => usage(),
            },
            "--workers" => args.cfg.workers = num("--workers").max(1),
            "--lane-width" => args.cfg.lane_width = num("--lane-width").max(1),
            "--cache" => args.cfg.cache_capacity = num("--cache").max(1),
            "--max-inflight" => args.cfg.max_inflight_per_tenant = num("--max-inflight").max(1),
            // clamped: 0 would make admit() reject every run outright
            "--max-queue" => args.cfg.max_queue_depth = num("--max-queue").max(1),
            "--max-iters" => args.cfg.default_max_iters = num("--max-iters"),
            "--credits" => args.cfg.tenant_spec_credits = num("--credits") as u64,
            "--max-deadline" => args.cfg.max_deadline_ms = num("--max-deadline").max(1) as u64,
            "--drain-ms" => args.cfg.drain_deadline_ms = num("--drain-ms") as u64,
            // 0 disables the breaker
            "--circuit-trip" => args.cfg.circuit.trip_threshold = num("--circuit-trip") as u32,
            "--circuit-open-ms" => {
                args.cfg.circuit.open_ms = num("--circuit-open-ms").max(1) as u64
            }
            "--state-dir" => match it.next() {
                Some(dir) => {
                    let mut pcfg = args
                        .cfg
                        .persist
                        .take()
                        .unwrap_or_else(|| wlp_serve::persist::PersistConfig::at(&dir));
                    pcfg.state_dir = dir.into();
                    args.cfg.persist = Some(pcfg);
                }
                None => usage(),
            },
            "--journal-fsync" => {
                let n = num("--journal-fsync") as u64;
                persist_cfg(&mut args.cfg).journal_fsync_every = n;
            }
            "--compact-bytes" => {
                let n = num("--compact-bytes").max(1) as u64;
                persist_cfg(&mut args.cfg).compact_bytes = n;
            }
            "--chaos" => args.cfg.chaos_builtins = true,
            "--quiet" => args.quiet = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("wlp-serve: unknown flag `{other}`");
                usage()
            }
        }
    }
    if let Some(pcfg) = &args.cfg.persist {
        if pcfg.state_dir.as_os_str().is_empty() {
            eprintln!("wlp-serve: --journal-fsync/--compact-bytes need --state-dir DIR");
            usage()
        }
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    sig::install();
    // Fail fast: an unusable --state-dir is a startup error the operator
    // sees once, not a per-request surprise later.
    let service = match Service::try_new(args.cfg.clone()) {
        Ok(svc) => Arc::new(svc),
        Err(e) => {
            eprintln!("wlp-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !args.quiet {
        eprintln!(
            "wlp-serve: {} workers in {}-wide lanes, cache capacity {}, protocol v{}",
            args.cfg.workers,
            args.cfg.lane_width,
            args.cfg.cache_capacity,
            wlp_serve::PROTOCOL_VERSION,
        );
        if let Some(store) = service.persist_store() {
            eprintln!(
                "wlp-serve: state dir {} ({} certificate(s) recovered, {} skipped)",
                store.state_dir().display(),
                store.loaded(),
                store.skipped_corrupt(),
            );
        }
    }
    match args.listen {
        None => serve_stdin(&service, args.quiet),
        Some(addr) => serve_tcp(&service, &addr, args.quiet),
    }
}

/// Waits out in-flight requests, flushes final stats, and reports
/// whether the drain beat `drain_deadline_ms`. The short settle sleep
/// lets connection threads write responses whose `run` just finished —
/// the active counter drops when the response string is assembled,
/// a moment before it reaches the socket.
fn finish_drain(service: &Service, quiet: bool) -> ExitCode {
    let clean = service.await_drain(Duration::from_millis(service.config().drain_deadline_ms));
    // The drain is the last chance to fsync a batched journal tail.
    service.flush_persist();
    std::thread::sleep(Duration::from_millis(50));
    if !quiet {
        eprintln!(
            "wlp-serve: drain {} ({} run(s) in flight), final stats: {}",
            if clean { "complete" } else { "timed out" },
            service.active_runs(),
            json::to_string(&service.stats_value()),
        );
    }
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn serve_stdin(service: &Service, quiet: bool) -> ExitCode {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut reader = stdin.lock();
    let mut out = BufWriter::new(stdout.lock());
    loop {
        let resp = match read_bounded_line(&mut reader) {
            Ok(BoundedLine::Eof) => return ExitCode::SUCCESS,
            Ok(BoundedLine::TooLong) => line_too_long_response(),
            Ok(BoundedLine::Line(line)) => {
                if line.trim().is_empty() {
                    continue;
                }
                service.handle_line(&line)
            }
            Err(e) => {
                eprintln!("wlp-serve: stdin read failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        if writeln!(out, "{resp}").and_then(|()| out.flush()).is_err() {
            // downstream closed the pipe: nothing left to serve
            return ExitCode::SUCCESS;
        }
        if service.is_draining() {
            // a `shutdown` request: requests are serial here, so the
            // response above was the drain's last word
            return finish_drain(service, quiet);
        }
    }
}

fn serve_tcp(service: &Arc<Service>, addr: &str, quiet: bool) -> ExitCode {
    let listener = match TcpListener::bind(addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("wlp-serve: cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if listener.set_nonblocking(true).is_err() {
        eprintln!("wlp-serve: cannot poll the listener");
        return ExitCode::FAILURE;
    }
    if !quiet {
        // the resolved address, so `--listen 127.0.0.1:0` callers (the
        // chaos harness) can learn the kernel-assigned port
        let local = listener
            .local_addr()
            .map_or_else(|_| addr.to_string(), |a| a.to_string());
        eprintln!("wlp-serve: listening on {local}");
    }
    loop {
        if sig::termed() {
            service.begin_drain();
        }
        if service.is_draining() {
            // stop accepting; connections already established keep
            // answering (new runs retriable `draining`) until exit
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                if wlp_serve::prepare_accepted(&stream).is_err() {
                    continue;
                }
                let svc = Arc::clone(service);
                std::thread::spawn(move || serve_conn(&svc, stream));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => eprintln!("wlp-serve: accept failed: {e}"),
        }
    }
    drop(listener);
    if !quiet {
        eprintln!(
            "wlp-serve: draining, {} run(s) in flight",
            service.active_runs()
        );
    }
    finish_drain(service, quiet)
}

/// How long a connection's handler keeps polling for the client's next
/// line after it has answered one, before it blocks on the channel.
///
/// A closed-loop client sends its next request some tens of µs after it
/// reads a response. If the handler blocks in that gap its cpu goes idle,
/// and what it costs to wake a thread on an idle cpu is not the daemon's
/// to set: on a shared virtual machine it moves between ~15 µs and
/// ~100 µs with what the host's other guests are doing, per hop, and a
/// request crosses three (client → reader → handler → client). Since the
/// executor stopped being the larger part of a small request, those hops
/// are: one build answered `n = 512` requests at 4300 or at 6200 a second
/// (the benchmark's `hot-small`, at its yardstick's nominal speed)
/// depending on the host. Polling keeps the handler's cpu awake across the
/// gap, which takes the reader → handler hop out and lets the reader wake
/// on the cpu the client has just left: 6000–6200 in either state.
///
/// The poll yields on every turn, so it only uses a cpu nobody else
/// wants, and it is bounded, so a quiet connection is parked as before
/// and costs nothing. The gap is one slow wake-up (the client's) plus
/// ~35 µs: 50 µs of polling did not cover it on a slow host, 100 and 200
/// read the same as this; the rest is room for a host slower than the
/// slowest seen (wake-ups of ~140 µs).
const HOT_POLL: Duration = Duration::from_micros(500);

/// The connection's next line: polled for [`HOT_POLL`] when the
/// connection has just been answered (`hot`), then waited for. `None`
/// when the reader is gone.
fn next_item(rx: &mpsc::Receiver<BoundedLine>, hot: bool) -> Option<BoundedLine> {
    if hot {
        let started = Instant::now();
        while started.elapsed() < HOT_POLL {
            match rx.try_recv() {
                Ok(item) => return Some(item),
                Err(mpsc::TryRecvError::Disconnected) => return None,
                Err(mpsc::TryRecvError::Empty) => std::thread::yield_now(),
            }
        }
    }
    rx.recv().ok()
}

/// One TCP connection. The reader runs on its own thread so a
/// connection reset is noticed *while* a request executes: the reset
/// raises `cancel`, the service aborts the region, and the lane goes
/// back to the pool. A clean half-close (EOF) does **not** cancel —
/// clients may legitimately shut down their write half and wait for the
/// final response.
fn serve_conn(service: &Service, stream: TcpStream) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let cancel = Arc::new(CancelFlag::new());
    let (tx, rx) = mpsc::channel();
    let reader_cancel = Arc::clone(&cancel);
    let reader = std::thread::spawn(move || {
        // a request line runs to tens of KB: read it in a few large
        // reads rather than a dozen of the default 8 KB
        let mut reader = BufReader::with_capacity(64 << 10, stream);
        loop {
            match read_bounded_line(&mut reader) {
                Ok(BoundedLine::Eof) => return,
                Err(_) => {
                    // reset mid-stream: the client is gone for real
                    reader_cancel.cancel();
                    return;
                }
                Ok(item) => {
                    if tx.send(item).is_err() {
                        return;
                    }
                }
            }
        }
    });
    let mut out = BufWriter::new(write_half);
    let mut hot = false;
    while let Some(item) = next_item(&rx, hot) {
        hot = true;
        let resp = match item {
            BoundedLine::Eof => break,
            BoundedLine::TooLong => line_too_long_response(),
            BoundedLine::Line(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                service.handle_line_with(&line, Some(&cancel))
            }
        };
        if writeln!(out, "{resp}").and_then(|()| out.flush()).is_err() {
            // the client stopped reading; abort its remaining work
            cancel.cancel();
            break;
        }
    }
    drop(rx);
    let _ = reader.join();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(item: Option<BoundedLine>) -> Option<String> {
        match item {
            Some(BoundedLine::Line(s)) => Some(s),
            _ => None,
        }
    }

    #[test]
    fn a_hot_connection_gets_a_queued_line_without_blocking() {
        let (tx, rx) = mpsc::channel();
        tx.send(BoundedLine::Line("a".into())).unwrap();
        assert_eq!(line(next_item(&rx, true)).as_deref(), Some("a"));
    }

    #[test]
    fn a_line_later_than_the_poll_still_arrives() {
        let (tx, rx) = mpsc::channel();
        let late = std::thread::spawn(move || {
            std::thread::sleep(HOT_POLL * 20);
            tx.send(BoundedLine::Line("late".into())).unwrap();
        });
        let started = Instant::now();
        assert_eq!(line(next_item(&rx, true)).as_deref(), Some("late"));
        assert!(started.elapsed() >= HOT_POLL);
        late.join().unwrap();
    }

    #[test]
    fn a_hung_up_reader_ends_the_connection_hot_or_not() {
        for hot in [false, true] {
            let (tx, rx) = mpsc::channel::<BoundedLine>();
            drop(tx);
            assert!(next_item(&rx, hot).is_none());
        }
    }
}
