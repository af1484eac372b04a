//! The load generator: closed-loop and open-loop drivers over loopback
//! TCP, and the check every response goes through.

use crate::gen::{Expect, Request};
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One client connection, kept open across the warm-up and every round.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn new(stream: TcpStream) -> Result<Conn, String> {
        let reader = stream
            .try_clone()
            .map_err(|e| format!("cannot clone the socket: {e}"))?;
        Ok(Conn {
            writer: stream,
            reader: BufReader::new(reader),
        })
    }

    /// Sends `line` and reads the one line that answers it into `resp`:
    /// the bytes read (0: the peer hung up) and the time both took, µs.
    pub fn round_trip(&mut self, line: &str, resp: &mut String) -> (std::io::Result<usize>, f64) {
        resp.clear();
        let t0 = Instant::now();
        let io = self
            .writer
            .write_all(line.as_bytes())
            .and_then(|()| self.reader.read_line(resp));
        (io, micros(t0.elapsed()))
    }

    pub fn shutdown(&self, how: Shutdown) {
        let _ = self.writer.shutdown(how);
    }
}

/// What one correct response told the client.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Client-observed latency, µs (open loop: from the due time).
    pub latency_us: f64,
    /// The response's own `latency_us` (`run` only).
    pub service_us: Option<f64>,
    pub ran_parallel: bool,
    pub rung_sequential: bool,
}

/// One phase (warm-up or measured round) as the client saw it.
#[derive(Debug, Default)]
pub struct Round {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    /// The first failure's description, for the operator.
    pub first_failure: Option<String>,
    pub wall_s: f64,
    /// Open loop: how late each send started after its due time, µs.
    pub sched_lag_us: Vec<f64>,
    /// Open loop: the backlog was still growing when the round ended.
    pub backlog_growing: bool,
}

impl Round {
    fn fail(&mut self, count: u64, why: String) {
        self.failed += count;
        self.first_failure.get_or_insert(why);
    }
}

/// Checks a response line against what the native reference expects and
/// extracts the fields the per-layer metrics need.
pub fn check(resp: &str, req: &Request, latency_us: f64) -> Result<Sample, String> {
    let v = serde::json::parse(resp.trim_end()).map_err(|e| format!("{}: {e}", req.id))?;
    let fail = |what: &str| Err(format!("{}: {what}: {}", req.id, resp.trim_end()));
    if v.get("ok").and_then(Value::as_bool) != Some(true) {
        return fail("not ok");
    }
    if v.get("id").and_then(Value::as_str) != Some(req.id.as_str()) {
        return fail("answers another request");
    }
    match &req.expect {
        Expect::Certify => {
            if v.get("op").and_then(Value::as_str) != Some("certify") {
                return fail("not a certify response");
            }
            Ok(Sample {
                latency_us,
                service_us: None,
                ran_parallel: false,
                rung_sequential: false,
            })
        }
        Expect::Run(want) => {
            if v.get("iterations").and_then(Value::as_u64) != Some(want.iterations) {
                return fail("wrong iteration count");
            }
            if v.get("exited_at").and_then(Value::as_u64) != want.exited_at {
                return fail("wrong exit iteration");
            }
            let got = v.get("digests").and_then(Value::as_object).unwrap_or(&[]);
            let same = got.len() == want.digests.len()
                && want.digests.iter().all(|(name, d)| {
                    v.get("digests")
                        .and_then(|o| o.get(name))
                        .and_then(Value::as_u64)
                        == Some(*d)
                });
            if !same {
                return fail("digest mismatch against the native reference");
            }
            let Some(service_us) = v.get("latency_us").and_then(Value::as_f64) else {
                return fail("no latency_us");
            };
            Ok(Sample {
                latency_us,
                service_us: Some(service_us),
                ran_parallel: v.get("ran_parallel").and_then(Value::as_bool) == Some(true),
                rung_sequential: v.get("rung").and_then(Value::as_str) == Some("sequential"),
            })
        }
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// One closed-loop phase: the next request goes out only after the
/// previous response has been read in full.
pub fn closed(conn: &mut Conn, reqs: &[Arc<Request>]) -> Round {
    let mut round = Round {
        attempted: reqs.len() as u64,
        ..Round::default()
    };
    let mut resp = String::new();
    let start = Instant::now();
    for (k, req) in reqs.iter().enumerate() {
        let (io, latency_us) = conn.round_trip(&req.line, &mut resp);
        match io {
            Ok(n) if n > 0 => match check(&resp, req, latency_us) {
                Ok(sample) => round.samples.push(sample),
                Err(why) => round.fail(1, why),
            },
            other => {
                // the connection is gone: everything not yet answered failed
                round.fail(
                    (reqs.len() - k) as u64,
                    format!("{}: transport: {other:?}", req.id),
                );
                break;
            }
        }
    }
    round.wall_s = start.elapsed().as_secs_f64();
    round
}

/// Runs one open-loop round on one pipelined connection: a sender thread
/// follows `due_ns` whatever the daemon does, a receiver thread reads the
/// responses in order and times each from the instant it was due.
pub fn open(conn: &mut Conn, reqs: &[Arc<Request>], due_ns: &[u64], rate: f64) -> Round {
    assert_eq!(reqs.len(), due_ns.len());
    let received = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(5);
    let Conn { writer, reader } = conn;
    let (sent, got) = std::thread::scope(|scope| {
        let received = &received;
        let sender = scope.spawn(move || {
            let mut lags = Vec::with_capacity(reqs.len());
            let mut backlog = Vec::with_capacity(reqs.len());
            for (k, (req, due)) in reqs.iter().zip(due_ns).enumerate() {
                let due_at = start + Duration::from_nanos(*due);
                if let Some(wait) = due_at.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                lags.push(micros(Instant::now().saturating_duration_since(due_at)));
                backlog.push(k - received.load(Ordering::Relaxed).min(k));
                if let Err(e) = writer.write_all(req.line.as_bytes()) {
                    return (lags, backlog, Some(format!("{}: transport: {e}", req.id)));
                }
            }
            (lags, backlog, None)
        });
        let receiver = scope.spawn(move || {
            let mut round = Round::default();
            let mut resp = String::new();
            for (k, (req, due)) in reqs.iter().zip(due_ns).enumerate() {
                resp.clear();
                let io = reader.read_line(&mut resp);
                let latency_us = micros(
                    Instant::now().saturating_duration_since(start + Duration::from_nanos(*due)),
                );
                received.store(k + 1, Ordering::Relaxed);
                match io {
                    Ok(n) if n > 0 => match check(&resp, req, latency_us) {
                        Ok(sample) => round.samples.push(sample),
                        Err(why) => round.fail(1, why),
                    },
                    other => {
                        round.fail(
                            (reqs.len() - k) as u64,
                            format!("{}: transport: {other:?}", req.id),
                        );
                        // let a sender blocked on the schedule finish
                        received.store(reqs.len(), Ordering::Relaxed);
                        break;
                    }
                }
            }
            round
        });
        (
            sender.join().expect("sender thread panicked"),
            receiver.join().expect("receiver thread panicked"),
        )
    });
    let (lags, backlog, send_error) = sent;
    let mut round = got;
    round.attempted = reqs.len() as u64;
    if let Some(why) = send_error {
        round.first_failure.get_or_insert(why);
    }
    round.wall_s = start.elapsed().as_secs_f64();
    round.sched_lag_us = lags;
    round.backlog_growing = backlog_growing(&backlog, rate);
    round
}

/// Whether the unanswered-request count was still climbing at the end of
/// a round: through the whole last tenth of the sends, at least a
/// quarter-second of arrivals stayed unanswered. A daemon that keeps up
/// lets the backlog fall back between bursts; one that does not never
/// gets it down again.
pub fn backlog_growing(backlog: &[usize], rate: f64) -> bool {
    let tail = &backlog[backlog.len() - backlog.len() / 10..];
    tail.iter()
        .min()
        .is_some_and(|&least| least as f64 > 0.25 * rate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::Outcome;

    fn run_request() -> Request {
        Request {
            id: "r1".into(),
            line: String::new(),
            expect: Expect::Run(Outcome {
                iterations: 4,
                exited_at: Some(4),
                digests: vec![("A".into(), 11), ("B".into(), 22)],
            }),
        }
    }

    const GOOD: &str = r#"{"v":1,"ok":true,"id":"r1","op":"run","rung":"sequential","iterations":4,"exited_at":4,"ran_parallel":false,"digests":{"A":11,"B":22},"latency_us":35}"#;

    #[test]
    fn a_matching_response_passes_and_yields_its_fields() {
        let s = check(GOOD, &run_request(), 50.0).expect("correct response");
        assert_eq!(s.service_us, Some(35.0));
        assert!(s.rung_sequential && !s.ran_parallel);
    }

    #[test]
    fn wrong_digest_count_id_or_error_fails() {
        let req = run_request();
        for bad in [
            GOOD.replace("\"B\":22", "\"B\":23"),
            GOOD.replace(",\"B\":22", ""),
            GOOD.replace("\"iterations\":4", "\"iterations\":5"),
            GOOD.replace("\"exited_at\":4", "\"exited_at\":null"),
            GOOD.replace("\"id\":\"r1\"", "\"id\":\"r2\""),
            r#"{"v":1,"ok":false,"id":"r1","error":{"code":"tenant_busy","detail":"x"}}"#
                .to_string(),
            "not json".to_string(),
        ] {
            assert!(check(&bad, &req, 1.0).is_err(), "{bad}");
        }
    }

    #[test]
    fn backlog_rule_separates_steady_from_growing() {
        let steady: Vec<usize> = (0..400).map(|k| k % 5).collect();
        assert!(!backlog_growing(&steady, 300.0));
        let growing: Vec<usize> = (0..400).map(|k| k / 2).collect();
        assert!(backlog_growing(&growing, 300.0));
        // a burst that drains again is not growth, however tall
        let burst: Vec<usize> = (0..400)
            .map(|k| if (370..390).contains(&k) { 120 } else { 2 })
            .collect();
        assert!(!backlog_growing(&burst, 300.0));
        assert!(!backlog_growing(&[], 300.0));
    }
}
