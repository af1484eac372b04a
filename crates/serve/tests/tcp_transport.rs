//! TCP-transport behaviours only a real socket exercises: the 1 MiB
//! oversized-line drain (previously covered on stdin only), graceful
//! shutdown over the wire, `TCP_NODELAY` on accepted sockets and a
//! pipelined burst.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Kills the server on drop so a failing assertion never leaks a
/// listening process into the test harness.
struct Server {
    child: Child,
    addr: String,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_server(extra: &[&str]) -> Server {
    let mut child = Command::new(env!("CARGO_BIN_EXE_wlp-serve"))
        .args(["--listen", "127.0.0.1:0"])
        .args(extra)
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn wlp-serve");
    let stderr = child.stderr.take().expect("piped stderr");
    let mut reader = BufReader::new(stderr);
    let mut addr = None;
    let mut line = String::new();
    for _ in 0..4 {
        line.clear();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        if let Some(a) = line.trim().strip_prefix("wlp-serve: listening on ") {
            addr = Some(a.to_string());
            break;
        }
    }
    // keep draining stderr so the child never blocks on a full pipe
    std::thread::spawn(move || {
        let mut sink = String::new();
        while reader.read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
            sink.clear();
        }
    });
    Server {
        child,
        addr: addr.expect("server reported its address"),
    }
}

fn connect(server: &Server) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(&server.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let write_half = stream.try_clone().expect("clone");
    (BufReader::new(stream), write_half)
}

fn round_trip(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, line: &str) -> String {
    writeln!(writer, "{line}").expect("write request");
    writer.flush().expect("flush");
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("read response");
    resp
}

#[test]
fn oversized_line_is_drained_and_the_connection_keeps_serving() {
    let server = spawn_server(&[]);
    let (mut reader, mut writer) = connect(&server);

    let pong = round_trip(&mut reader, &mut writer, r#"{"op":"ping","id":"warm"}"#);
    assert!(pong.contains("\"pong\":true"), "{pong}");

    // a line well past the 1 MiB cap, in chunks so no single write has
    // to fit a socket buffer
    let chunk = vec![b'x'; 64 * 1024];
    for _ in 0..20 {
        writer.write_all(&chunk).expect("write oversized chunk");
    }
    writer.write_all(b"\n").expect("terminate oversized line");
    writer.flush().expect("flush");
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("read rejection");
    assert!(resp.contains("\"code\":\"bad_request\""), "{resp}");
    assert!(resp.contains("exceeds"), "{resp}");

    // the stream resumed at the next newline: a real request right
    // after the drained line is served normally
    let src = "integer i = 0\nwhile (i < n) {\n    A[i] = 2 * A[i]\n    i = i + 1\n}";
    let run = format!(
        r#"{{"op":"run","tenant":"after","program":{},"arrays":{{"A":[1,2]}},"scalars":{{"n":2}},"id":"after"}}"#,
        serde::json::to_string(src)
    );
    let resp = round_trip(&mut reader, &mut writer, &run);
    assert!(resp.contains("\"ok\":true"), "{resp}");
    assert!(resp.contains("\"id\":\"after\""), "{resp}");

    // a second oversized line without trailing newline until much later
    // also drains (multiple refill reads through the take adapter)
    for _ in 0..20 {
        writer.write_all(&chunk).expect("write oversized chunk");
    }
    writer.write_all(b"\n").expect("newline");
    writeln!(writer, r#"{{"op":"ping","id":"again"}}"#).expect("follow-up");
    writer.flush().expect("flush");
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("read rejection");
    assert!(resp.contains("\"code\":\"bad_request\""), "{resp}");
    resp.clear();
    reader.read_line(&mut resp).expect("read pong");
    assert!(resp.contains("\"id\":\"again\""), "{resp}");
}

#[test]
fn shutdown_over_tcp_drains_and_exits_clean() {
    let mut server = spawn_server(&["--drain-ms", "2000"]);
    let (mut reader, mut writer) = connect(&server);

    let resp = round_trip(&mut reader, &mut writer, r#"{"op":"shutdown","id":"bye"}"#);
    assert!(resp.contains("\"ok\":true"), "{resp}");
    assert!(resp.contains("\"draining\":true"), "{resp}");

    // new runs on the still-open connection are rejected retriable
    // while the drain runs (until the process exits under us)
    let src = "integer i = 0\nwhile (i < n) {\n    A[i] = 2 * A[i]\n    i = i + 1\n}";
    let run = format!(
        r#"{{"op":"run","tenant":"late","program":{},"arrays":{{"A":[1]}},"scalars":{{"n":1}}}}"#,
        serde::json::to_string(src)
    );
    writeln!(writer, "{run}").expect("write late run");
    writer.flush().expect("flush");
    let mut resp = String::new();
    if reader.read_line(&mut resp).map(|n| n > 0).unwrap_or(false) {
        assert!(resp.contains("\"code\":\"draining\""), "{resp}");
    }

    // the process exits 0 inside its drain budget
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = server.child.try_wait().expect("try_wait") {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "server never exited after shutdown"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(status.success(), "drain must exit clean: {status:?}");
}

#[test]
fn an_accepted_socket_is_left_blocking_with_nagle_off() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    listener
        .set_nonblocking(true)
        .expect("poll mode, as the daemon's");
    let _client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
    let accepted = loop {
        match listener.accept() {
            Ok((stream, _)) => break stream,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::yield_now(),
            Err(e) => panic!("accept: {e}"),
        }
    };
    wlp_serve::prepare_accepted(&accepted).expect("prepare");
    assert!(accepted.nodelay().expect("nodelay"));
}

#[test]
fn a_burst_of_pipelined_runs_is_answered_complete_and_in_order() {
    let server = spawn_server(&[]);
    let (mut reader, mut writer) = connect(&server);
    let src = "integer i = 0\nwhile (i < n) {\n    A[i] = 2 * A[i]\n    i = i + 1\n}";
    // every request written before the first response is read
    let burst: String = (0..64)
        .map(|k| {
            format!(
                r#"{{"op":"run","tenant":"burst","program":{},"arrays":{{"A":[{k},1,2]}},"scalars":{{"n":3}},"reply":"full","id":"b-{k}"}}"#,
                serde::json::to_string(src)
            ) + "\n"
        })
        .collect();
    writer.write_all(burst.as_bytes()).expect("write burst");
    writer.flush().expect("flush");
    for k in 0..64 {
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("read response");
        assert!(resp.ends_with('\n'), "response {k} cut short: {resp}");
        assert!(resp.contains("\"ok\":true"), "{resp}");
        assert!(resp.contains(&format!("\"id\":\"b-{k}\"")), "{resp}");
        assert!(
            resp.contains(&format!("\"arrays\":{{\"A\":[{},2,4]}}", 2 * k)),
            "{resp}"
        );
    }
}
