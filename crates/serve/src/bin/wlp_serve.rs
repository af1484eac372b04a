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
//! Both run one loop, `serve_lines`, on the thread that reads the lines.
//! Accepted sockets go through [`wlp_serve::prepare_accepted`] (blocking
//! I/O, `TCP_NODELAY`), and every response is one flushed write, so a
//! pipelined client is answered as each response is ready.
//!
//! Each TCP connection gets a cancellation flag. One watcher thread
//! raises it when the client resets the connection while a request is in
//! flight, which aborts the request's region and returns its lane and
//! credits — a client that disconnects stops costing the other tenants
//! capacity. A half-close is not a reset.
//!
//! Tunables (see `docs/OPERATIONS.md` for sizing guidance):
//! `--workers N`, `--lane-width N`, `--cache N`, `--max-inflight N`,
//! `--max-queue N`, `--max-iters N`, `--credits N`, `--max-deadline MS`,
//! `--drain-ms MS`, `--circuit-trip N`, `--circuit-open-ms MS`,
//! `--chaos`, `--quiet`.
//!
//! The daemon keeps no state on disk. Its certificate cache is a pure
//! function of the program texts it has seen, so a restarted daemon
//! answers every request as before and pays one analysis per distinct
//! program, on that program's first request.

use serde::json;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
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

/// A connection's socket, asked without waiting.
mod sock {
    use std::net::TcpStream;

    const POLLIN: i16 = 0x1;
    const POLLERR: i16 = 0x8;
    const POLLHUP: i16 = 0x10;

    /// A read would return at once: a byte, EOF or an error is waiting.
    pub fn readable(socket: &TcpStream) -> bool {
        ready(socket, POLLIN) != 0
    }

    /// The client reset the connection. A clean half-close raises only
    /// `POLLIN | POLLRDHUP`, neither asked for, so it is not a reset.
    pub fn reset(socket: &TcpStream) -> bool {
        ready(socket, 0) & (POLLERR | POLLHUP) != 0
    }

    /// A zero-timeout `poll(2)`: the socket's ready `events`, and
    /// `POLLERR` / `POLLHUP`, which are reported unasked.
    #[cfg(target_os = "linux")]
    fn ready(socket: &TcpStream, events: i16) -> i16 {
        use std::os::fd::AsRawFd;
        #[repr(C)]
        struct PollFd {
            fd: i32,
            events: i16,
            revents: i16,
        }
        extern "C" {
            fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout_ms: i32) -> i32;
        }
        let mut polled = PollFd {
            fd: socket.as_raw_fd(),
            events,
            revents: 0,
        };
        // SAFETY: one initialised pollfd, which outlives the call.
        unsafe { poll(&mut polled, 1, 0) };
        polled.revents
    }

    /// Elsewhere every socket reads as readable and none as reset: the
    /// bounded wait ends at once, and a reset is seen by the next read.
    #[cfg(not(target_os = "linux"))]
    fn ready(_socket: &TcpStream, events: i16) -> i16 {
        events
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
         \x20                [--chaos] [--quiet]\n\
         \n\
         Serves the wlp NDJSON protocol (docs/PROTOCOL.md): one JSON request\n\
         per line, one response line per request. Default mode is --stdin.\n\
         SIGTERM (or a `shutdown` request) begins a graceful drain."
    );
    std::process::exit(2);
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
            "--chaos" => args.cfg.chaos_builtins = true,
            "--quiet" => args.quiet = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("wlp-serve: unknown flag `{other}`");
                usage()
            }
        }
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    sig::install();
    let service = Arc::new(Service::new(args.cfg));
    if !args.quiet {
        let cfg = service.config();
        eprintln!(
            "wlp-serve: {} workers in {}-wide lanes, cache capacity {}, protocol v{}",
            cfg.workers,
            cfg.lane_width,
            cfg.cache_capacity,
            wlp_serve::PROTOCOL_VERSION,
        );
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
    match serve_lines(service, std::io::stdin(), std::io::stdout(), None) {
        Ok(()) if service.is_draining() => finish_drain(service, quiet),
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("wlp-serve: stdin read failed: {e}");
            ExitCode::FAILURE
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
    if let Err(e) = std::thread::Builder::new()
        .name("wlp-resets".into())
        .spawn(watch_resets)
    {
        eprintln!("wlp-serve: cannot start the reset watcher: {e}");
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
                std::thread::spawn(move || {
                    let conn = Arc::new(Conn {
                        socket: stream,
                        cancel: Arc::new(CancelFlag::new()),
                    });
                    let _ = serve_lines(&svc, &conn.socket, &conn.socket, Some(&conn));
                });
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

/// How long a connection's thread keeps asking its socket for the next
/// request after it has answered one, before it blocks in `read`.
///
/// A closed-loop client sends its next request some tens of µs after it
/// reads a response. A thread that blocks in that gap leaves its cpu
/// idle, and waking a thread on an idle cpu costs ~15–100 µs on a shared
/// virtual machine, whatever the daemon does: without this poll the
/// benchmark's `hot-small` (`n = 512`) answered at a median of 46 µs,
/// with it at 38. The poll yields on every turn, so it only takes a cpu
/// nobody else wants, and it ends, so a quiet connection costs nothing.
/// 50 µs did not cover the gap on a slow host; 100 and 200 read the same
/// as 500, which leaves room for a host slower than any seen.
const HOT_POLL: Duration = Duration::from_micros(500);

/// How often the reset watcher polls the connections that have a request
/// in flight: the longest a reset goes unnoticed while its request runs.
const WATCH_TICK: Duration = Duration::from_millis(5);

/// One stream of request lines, each answered and flushed before the next
/// is read: `--stdin`'s loop, and each TCP connection's on its own
/// thread. It ends at EOF, after a `shutdown` on stdin, when a response
/// cannot be written, or with `Err` on a failed read. Reads and writes
/// happen between requests, so a failed one leaves nothing to cancel.
fn serve_lines<R: Read, W: Write>(
    service: &Service,
    input: R,
    output: W,
    conn: Option<&Arc<Conn>>,
) -> std::io::Result<()> {
    // a request line runs to tens of KB: read it in a few large reads
    // rather than a dozen of the default 8 KB
    let mut reader = BufReader::with_capacity(64 << 10, input);
    let mut out = BufWriter::new(output);
    loop {
        let resp = match read_bounded_line(&mut reader)? {
            BoundedLine::Eof => return Ok(()),
            BoundedLine::TooLong => proto::error_line(
                &ProtoError {
                    code: codes::BAD_REQUEST,
                    detail: format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                    id: None,
                },
                None,
            ),
            BoundedLine::Line(line) if line.trim().is_empty() => continue,
            BoundedLine::Line(line) => match conn {
                None => service.handle_line(&line),
                // in the watcher's table while it runs: no syscall, no wake-up
                Some(conn) => {
                    let in_flight = || IN_FLIGHT.lock().expect("in-flight table");
                    in_flight().push(Arc::clone(conn));
                    let resp = service.handle_line_with(&line, Some(&conn.cancel));
                    in_flight().retain(|c| !Arc::ptr_eq(c, conn));
                    resp
                }
            },
        };
        if writeln!(out, "{resp}").and_then(|()| out.flush()).is_err() {
            return Ok(());
        }
        match conn {
            // a `shutdown` request: requests are serial here, so the
            // response above was the drain's last word
            None if service.is_draining() => return Ok(()),
            None => {}
            Some(conn) => {
                let started = Instant::now();
                while reader.buffer().is_empty()
                    && !sock::readable(&conn.socket)
                    && started.elapsed() < HOT_POLL
                {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// A TCP connection's side of [`serve_lines`]: its socket, and the
/// cancel flag a reset raises.
struct Conn {
    socket: TcpStream,
    cancel: Arc<CancelFlag>,
}

/// The connections with a request in flight, which [`watch_resets`]
/// polls. No holder can panic, so the lock is never poisoned.
static IN_FLIGHT: Mutex<Vec<Arc<Conn>>> = Mutex::new(Vec::new());

/// The process's one reset watcher: every [`WATCH_TICK`] it polls the
/// sockets in [`IN_FLIGHT`] and raises the cancel flag of each one its
/// client reset, so the request's region aborts and its lane and credits
/// go back. With nothing in flight a tick costs a wake-up and a lock.
fn watch_resets() {
    loop {
        std::thread::sleep(WATCH_TICK);
        for conn in IN_FLIGHT.lock().expect("in-flight table").iter() {
            if sock::reset(&conn.socket) {
                conn.cancel.cancel();
            }
        }
    }
}
