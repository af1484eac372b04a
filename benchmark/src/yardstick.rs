//! The yardstick: a small service of the benchmark's own, measured beside
//! the daemon, round by round, so that the speed of the machine can be
//! taken out of the daemon's timings.
//!
//! The machine this benchmark was defined on is a 2-vcpu VM on a shared
//! host. What a request costs there moves by a third within a minute and
//! by more over an hour while a register-only spin loop stays within 3 %:
//! the cost that moves is memory, allocation and thread wake-ups, which
//! is what the daemon spends its time on. The yardstick does the same
//! kinds of work in fixed amounts: a request line arrives over loopback
//! TCP at a reader thread, crosses a channel to a handler thread (the
//! daemon's own hops), which parses the numbers out of the text into
//! named arrays, runs a loop that looks its arrays up by name on every
//! iteration, digests them with FNV-1a and writes the digest back. It
//! calls nothing in the repository's crates, so no change to the
//! repository can move it.
//!
//! A timing is reported as `measured × nominal ÷ yardstick`, the yardstick
//! being what the yardstick rounds run right before and right after the
//! measured round read, and `nominal` the yardstick's usual reading on
//! the defining machine: the numbers stay in the units and near the size
//! a client sees.

use crate::load::Conn;
use crate::stats;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread::JoinHandle;

/// Which of the two request shapes the yardstick imitates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// About what a `hot-small` request costs: 5 KB parsed, 4000
    /// iterations.
    Small,
    /// About what a `hot-large` request costs: 100 KB parsed, 100 000
    /// iterations.
    Large,
}

impl Size {
    /// `(request bytes, loop iterations, requests per yardstick round)`.
    fn shape(self) -> (usize, usize, usize) {
        match self {
            Size::Small => (5_000, 4_000, 80),
            Size::Large => (100_000, 100_000, 24),
        }
    }

    /// The yardstick's usual median round trip on the defining machine,
    /// µs. Only a scale: it cancels out of every comparison.
    pub fn nominal_us(self) -> f64 {
        match self {
            Size::Small => 300.0,
            Size::Large => 7_000.0,
        }
    }
}

/// What one yardstick round read: its round trips' median and mean, µs.
/// The median is what a median latency is divided by; the mean is for
/// what stalls move (a 95th percentile, a rate, a set-up time), because
/// stalls move the mean too and leave the median where it was.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    pub p50_us: f64,
    pub mean_us: f64,
}

impl Reading {
    /// The reading half-way between two.
    pub fn between(a: Reading, b: Reading) -> Reading {
        Reading {
            p50_us: (a.p50_us + b.p50_us) / 2.0,
            mean_us: (a.mean_us + b.mean_us) / 2.0,
        }
    }
}

/// What the yardstick does per request, in fixed amounts: every run of
/// digits in `line` becomes an integer, the integers fill four named
/// arrays, `iters` iterations each look their arrays up by name, and the
/// arrays are digested.
pub fn serve(line: &str, iters: usize) -> u64 {
    let mut numbers: Vec<i64> = Vec::new();
    let mut current: Option<i64> = None;
    for b in line.bytes() {
        if b.is_ascii_digit() {
            let digit = i64::from(b - b'0');
            current = Some(current.unwrap_or(0).wrapping_mul(10).wrapping_add(digit));
        } else if let Some(v) = current.take() {
            numbers.push(v);
        }
    }
    const NAMES: [&str; 4] = ["A", "B", "idx", "out"];
    let len = (numbers.len() / NAMES.len()).max(1);
    let mut arrays: HashMap<String, Vec<i64>> = HashMap::new();
    for (k, name) in NAMES.iter().enumerate() {
        let mut data: Vec<i64> = numbers.iter().skip(k * len).take(len).copied().collect();
        data.resize(len, 1);
        arrays.insert((*name).to_string(), data);
    }
    for i in 0..iters {
        let at = arrays["idx"][i % len].unsigned_abs() as usize % len;
        let v = arrays["A"][at].wrapping_add(arrays["B"][i % len]);
        arrays.get_mut("out").expect("inserted above")[at] = v;
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for name in NAMES {
        for v in &arrays[name] {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// The request line of a yardstick of `bytes` bytes: the iteration count,
/// then numbers below 1000.
fn request_line(bytes: usize, iters: usize) -> String {
    let mut line = format!("{iters} ");
    let mut k: u64 = 0;
    while line.len() < bytes {
        k += 1;
        line.push_str(&format!("{},", k.wrapping_mul(2_654_435_761) % 1000));
    }
    line.push('\n');
    line
}

/// A running yardstick service and the client connection to it.
pub struct Yardstick {
    conn: Conn,
    line: String,
    expect: String,
    requests: usize,
    threads: Vec<JoinHandle<()>>,
}

impl Yardstick {
    pub fn start(size: Size) -> Result<Yardstick, String> {
        let (bytes, iters, requests) = size.shape();
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| format!("yardstick: bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("yardstick: address: {e}"))?;
        let stream = TcpStream::connect(addr).map_err(|e| format!("yardstick: connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("yardstick: set_nodelay: {e}"))?;
        let (served, _) = listener
            .accept()
            .map_err(|e| format!("yardstick: accept: {e}"))?;
        let mut writer = served
            .try_clone()
            .map_err(|e| format!("yardstick: cannot clone the socket: {e}"))?;
        // the daemon's shape: a reader thread per connection hands each
        // line to a handler thread, which writes the response itself
        let (tx, rx) = mpsc::channel::<String>();
        let reader = std::thread::spawn(move || {
            let mut lines = BufReader::new(served);
            loop {
                let mut line = String::new();
                match lines.read_line(&mut line) {
                    Ok(n) if n > 0 && tx.send(line).is_ok() => {}
                    _ => return,
                }
            }
        });
        let handler = std::thread::spawn(move || {
            while let Ok(line) = rx.recv() {
                let iters = line
                    .split(' ')
                    .next()
                    .and_then(|n| n.parse().ok())
                    .unwrap_or(0);
                let response = format!("{}\n", serve(&line, iters));
                if writer.write_all(response.as_bytes()).is_err() {
                    return;
                }
            }
        });
        let line = request_line(bytes, iters);
        let mut yardstick = Yardstick {
            conn: Conn::new(stream)?,
            expect: format!("{}\n", serve(&line, iters)),
            line,
            requests,
            threads: vec![reader, handler],
        };
        // connection, allocator and caches warm before the first reading
        yardstick.round()?;
        Ok(yardstick)
    }

    /// One closed-loop round.
    pub fn round(&mut self) -> Result<Reading, String> {
        let mut trips = Vec::with_capacity(self.requests);
        let mut resp = String::new();
        for _ in 0..self.requests {
            let (io, us) = self.conn.round_trip(&self.line, &mut resp);
            if io.is_err() || resp != self.expect {
                return Err(format!("yardstick: wrong response: {io:?} {resp:?}"));
            }
            trips.push(us);
        }
        Ok(Reading {
            mean_us: trips.iter().sum::<f64>() / trips.len() as f64,
            p50_us: stats::percentile_of(trips, 50.0),
        })
    }
}

impl Drop for Yardstick {
    fn drop(&mut self) {
        // the reader sees the end of the stream and hangs up the channel,
        // which ends the handler
        self.conn.shutdown(Shutdown::Both);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_is_a_function_of_its_line() {
        let line = request_line(600, 50);
        assert_eq!(serve(&line, 50), serve(&line, 50));
        assert_ne!(serve(&line, 50), serve(&line, 51));
        assert_ne!(serve(&line, 50), serve(&request_line(700, 50), 50));
        // nothing to parse is still a request
        serve("", 3);
    }

    #[test]
    fn request_lines_have_the_stated_size_and_lead_with_the_iterations() {
        let line = request_line(5_000, 4_000);
        assert!((5_000..5_010).contains(&line.len()));
        assert!(line.starts_with("4000 ") && line.ends_with('\n'));
    }

    #[test]
    fn a_round_reads_a_positive_time_and_the_service_stops_with_it() {
        let mut y = Yardstick::start(Size::Small).expect("yardstick starts");
        let reading = y.round().expect("round");
        assert!(reading.p50_us > 0.0 && reading.mean_us > 0.0);
        drop(y); // joins both threads: a hang here fails the test run
    }
}
