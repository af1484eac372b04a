//! The protocol documentation is executable: every example request line
//! in `docs/examples/smoke_requests.jsonl` must appear verbatim in
//! `docs/PROTOCOL.md`, and every one must succeed against a real
//! [`Service`] — including the cache-hit the examples are arranged to
//! produce and the documented parse-error example.

use serde::{json, Value};
use wlp_serve::Service;

const PROTOCOL_MD: &str = include_str!("../../../docs/PROTOCOL.md");
const SMOKE_REQUESTS: &str = include_str!("../../../docs/examples/smoke_requests.jsonl");

fn example_lines() -> Vec<&'static str> {
    SMOKE_REQUESTS
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect()
}

#[test]
fn every_smoke_request_appears_verbatim_in_protocol_md() {
    let lines = example_lines();
    assert!(lines.len() >= 5, "expected at least 5 example requests");
    for line in lines {
        assert!(
            PROTOCOL_MD.contains(line),
            "smoke request not documented verbatim in PROTOCOL.md:\n{line}"
        );
    }
}

#[test]
fn smoke_requests_succeed_with_a_cache_hit() {
    let service = Service::with_defaults();
    let mut responses = Vec::new();
    for line in example_lines() {
        let resp = service.handle_line(line);
        let v = json::parse(&resp).expect("response is valid JSON");
        assert_eq!(
            v.get("ok").and_then(Value::as_bool),
            Some(true),
            "documented example failed: {line}\n-> {resp}"
        );
        responses.push((line, resp));
    }
    // ids echo in order
    for (i, (_, resp)) in responses.iter().enumerate() {
        assert!(
            resp.contains(&format!("\"id\":\"example-{}\"", i + 1)),
            "{resp}"
        );
    }
    // example-3 runs the program example-2 certified, and example-4 runs
    // it again: both are cache hits, which the final stats line reports
    assert!(
        responses[2].1.contains("\"cache\":\"hit\""),
        "{}",
        responses[2].1
    );
    assert!(
        responses[3].1.contains("\"cache\":\"hit\""),
        "{}",
        responses[3].1
    );
    let stats = json::parse(&responses[4].1).unwrap();
    let hits = stats
        .get("stats")
        .and_then(|s| s.get("cache_hits"))
        .and_then(Value::as_u64)
        .expect("stats.cache_hits");
    assert!(hits >= 2, "expected nonzero cache hits, got {hits}");
    // ...and what the five lines so far cost to read, as the `ingest`
    // table documents: every line and every byte handed in, this one
    // included
    let ingest = |name: &str| {
        let field = stats.get("stats").and_then(|s| s.get("ingest")?.get(name));
        field.and_then(Value::as_u64)
    };
    let sent: usize = example_lines()[..5].iter().map(|l| l.len()).sum();
    assert_eq!(ingest("lines"), Some(5));
    assert_eq!(ingest("bytes"), Some(sent as u64));
    assert!(ingest("parse_us").is_some(), "{}", responses[4].1);
    for row in ["| `lines` |", "| `bytes` |", "| `parse_us` | time spent"] {
        assert!(PROTOCOL_MD.contains(row), "PROTOCOL.md lost `{row}`");
    }
    // the run example's documented result is exact
    assert!(
        responses[2].1.contains("\"arrays\":{\"A\":[2,4,6,8]}"),
        "{}",
        responses[2].1
    );
    // every run response splits its handling time as the field table
    // documents: `parse_us` is a part of `latency_us`
    for k in [2, 3, 5] {
        let v = json::parse(&responses[k].1).unwrap();
        let us = |name: &str| v.get(name).and_then(Value::as_u64);
        let (parse_us, latency_us) = (us("parse_us"), us("latency_us"));
        assert!(
            parse_us.is_some() && parse_us <= latency_us,
            "parse_us {parse_us:?} of latency_us {latency_us:?}: {}",
            responses[k].1
        );
    }
    assert!(PROTOCOL_MD.contains("| `parse_us` |"));
    // every run response says why it took its path, as documented: the
    // program's first run at a size speculates, its second measures the
    // sequential path, and a new size starts over
    for (k, want) in [(2, "speculated"), (3, "probe"), (5, "speculated")] {
        let v = json::parse(&responses[k].1).unwrap();
        assert_eq!(
            v.get("decision").and_then(Value::as_str),
            Some(want),
            "{}",
            responses[k].1
        );
        assert!(
            PROTOCOL_MD.contains(&format!("\"decision\":\"{want}\"")),
            "PROTOCOL.md's example-{} response lost its decision",
            k + 1
        );
    }
    for value in ["`speculated`", "`probe`", "`below_break_even`"] {
        assert!(
            PROTOCOL_MD.contains(value),
            "PROTOCOL.md does not document decision {value}"
        );
    }
    // the decision is the program's, not the tenant's: there is no
    // strategy ladder to report
    assert!(!PROTOCOL_MD.contains("rung_sequential"));
    let tenants = stats
        .get("stats")
        .and_then(|s| s.get("tenants"))
        .and_then(Value::as_object)
        .expect("stats.tenants");
    assert!(!tenants.is_empty(), "{}", responses[4].1);
    for (name, row) in tenants {
        assert!(row.get("rung").is_none(), "tenant `{name}`: {row:?}");
    }
    for (line, resp) in &responses {
        if line.contains(r#""op":"run""#) {
            let v = json::parse(resp).unwrap();
            assert!(v.get("rung").is_none(), "{resp}");
        }
    }
    assert!(PROTOCOL_MD.contains("| `decision` |"));
    // ...and the stats block that counts them
    let speculation = |name: &str| {
        let block = stats.get("stats").and_then(|s| s.get("speculation"));
        block.and_then(|b| b.get(name)).and_then(Value::as_u64)
    };
    for (name, count) in [
        ("attempted", 1),
        ("committed", 1),
        ("declined", 0),
        ("probes", 1),
    ] {
        assert_eq!(speculation(name), Some(count), "{}", responses[4].1);
        assert!(
            PROTOCOL_MD.contains(&format!("| `{name}` |")),
            "PROTOCOL.md lost the speculation.{name} row"
        );
    }
    assert!(PROTOCOL_MD
        .contains("\"speculation\":{\"attempted\":1,\"committed\":1,\"declined\":0,\"probes\":1}"));
    // example-6's generous deadline is met — it is a normal success, not
    // a timeout — and example-7 leaves the service draining with nothing
    // in flight, exactly as documented
    assert!(
        responses[5].1.contains("\"iterations\":2"),
        "{}",
        responses[5].1
    );
    assert!(
        responses[6].1.contains("\"draining\":true") && responses[6].1.contains("\"in_flight\":0"),
        "{}",
        responses[6].1
    );
    assert!(service.is_draining(), "shutdown example must start a drain");
    let late = service.handle_line(example_lines()[2]);
    assert!(
        late.contains("\"code\":\"draining\""),
        "a run after the documented shutdown must be rejected retriable: {late}"
    );
}

#[test]
fn the_documented_error_example_is_accurate() {
    let request = r#"{"op":"run","id":"bad-1","program":"while ("}"#;
    assert!(
        PROTOCOL_MD.contains(request),
        "PROTOCOL.md no longer documents the parse-error example request"
    );
    let service = Service::with_defaults();
    let resp = service.handle_line(request);
    assert!(resp.contains("\"ok\":false") && resp.contains("\"code\":\"parse_error\""));
    // the exact response line is quoted in the doc
    assert!(
        PROTOCOL_MD.contains(&resp),
        "PROTOCOL.md's error example drifted from the implementation.\nactual: {resp}"
    );
}

#[test]
fn every_stats_key_is_documented_and_none_is_persist() {
    let service = Service::with_defaults();
    let resp = service.handle_line(r#"{"op":"stats","id":"s"}"#);
    let v = json::parse(&resp).expect("response is valid JSON");
    let stats = v
        .get("stats")
        .and_then(Value::as_object)
        .expect("stats object");
    assert!(stats.len() >= 20, "{resp}");
    for (key, _) in stats {
        assert!(
            PROTOCOL_MD.contains(&format!("`{key}`")),
            "stats.{key} is not documented in PROTOCOL.md"
        );
    }
    // the certificate cache is memory-only: there is no store to report
    assert!(stats.iter().all(|(key, _)| key != "persist"), "{resp}");
    assert!(!PROTOCOL_MD.contains("persist"));
    // the counters are the daemon's one record: there is no event ring
    // whose overflow to report
    assert!(
        stats.iter().all(|(key, _)| key != "samples_dropped"),
        "{resp}"
    );
    assert!(!PROTOCOL_MD.contains("samples_dropped"));
}

#[test]
fn batched_runs_counts_the_runs_that_committed_a_batch() {
    // sequential by construction (`s` is a second scalar), and a body the
    // batch licence admits: iteration 0 runs alone, then 64 at a time
    let program = json::to_string(
        "integer i = 0\ninteger s = 0\nwhile (i < n) {\n    s = s + 3\n    A[i] = s\n    i = i + 1\n}",
    );
    let service = Service::with_defaults();
    for n in [10, 100, 65, 64] {
        let items: Vec<String> = (0..n).map(|v: i64| v.to_string()).collect();
        let line = format!(
            r#"{{"op":"run","id":"b{n}","program":{program},"arrays":{{"A":[{}]}},"scalars":{{"n":{n}}},"reply":"scalars"}}"#,
            items.join(",")
        );
        let resp = service.handle_line(&line);
        assert!(resp.contains(&format!("\"s\":{}", 3 * n)), "{resp}");
    }
    let stats = json::parse(&service.handle_line(r#"{"op":"stats","id":"s"}"#)).unwrap();
    let batched = stats.get("stats").and_then(|s| s.get("batched_runs"));
    // n = 100 and n = 65 run iterations 1 to 64 as a batch; 10 and 64
    // iterations do not reach the end of one
    assert_eq!(batched.and_then(Value::as_u64), Some(2), "{stats:?}");
    assert!(PROTOCOL_MD.contains("`batched_runs` (runs whose sequential execution committed"));
}
