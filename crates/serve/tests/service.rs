//! End-to-end service tests: multi-tenant concurrent submission against
//! the sequential reference, cache behaviour under a hot working set,
//! deterministic admission rejections, and the hit-path/miss-path
//! certificate identity property.

#[path = "../../ir/tests/common/mod.rs"]
mod reference;

use proptest::prelude::*;
use reference::reference_run;
use serde::{json, Value};
use std::sync::Arc;
use wlp_ir::frontend::parse_program;
use wlp_ir::interp::Machine;
use wlp_serve::{fnv1a64, register_builtins, CancelFlag, ServeConfig, Service};
use wlp_workloads::sources::{corpus, machine_inputs};

/// Builds the request line one tenant submits for one corpus program.
fn run_line(tenant: &str, name: &str, src: &str, n: usize) -> String {
    let (arrays, scalars) = machine_inputs(name, n);
    let arrays_json: Vec<String> = arrays
        .iter()
        .map(|(k, v)| {
            let items: Vec<String> = v.iter().map(i64::to_string).collect();
            format!("{}:[{}]", json::to_string(k), items.join(","))
        })
        .collect();
    let scalars_json: Vec<String> = scalars
        .iter()
        .map(|(k, v)| format!("{}:{v}", json::to_string(k)))
        .collect();
    format!(
        r#"{{"op":"run","tenant":{},"program":{},"arrays":{{{}}},"scalars":{{{}}},"max_iters":{}}}"#,
        json::to_string(tenant),
        json::to_string(src),
        arrays_json.join(","),
        scalars_json.join(","),
        2 * n + 4,
    )
}

/// Sorted `(array digests, scalars)` — the comparable shape of a final
/// machine state.
type StateSummary = (Vec<(String, u64)>, Vec<(String, i64)>);

/// The ground truth for one `(program, n)` pair: digests and scalars
/// after the reference tree walker (not the plan executor the service
/// runs) interpreted the program.
fn sequential_reference(name: &str, src: &str, n: usize) -> StateSummary {
    let program = parse_program(src).expect("corpus parses");
    let (arrays, scalars) = machine_inputs(name, n);
    let mut machine = Machine::default();
    for (k, v) in arrays {
        machine.arrays.insert(k, v);
    }
    for (k, v) in scalars {
        machine.scalars.insert(k, v);
    }
    register_builtins(&mut machine);
    reference_run(&program, &mut machine, 2 * n + 4).expect("reference runs");
    let mut digests: Vec<(String, u64)> = machine
        .arrays
        .iter()
        .map(|(k, data)| {
            let mut bytes = Vec::with_capacity(data.len() * 8);
            for x in data {
                bytes.extend_from_slice(&x.to_le_bytes());
            }
            (k.clone(), fnv1a64(&bytes))
        })
        .collect();
    digests.sort();
    let mut scalars: Vec<(String, i64)> = machine.scalars.into_iter().collect();
    scalars.sort();
    (digests, scalars)
}

/// Pulls the digests and scalars out of a parsed `run` response.
fn response_state(resp: &str) -> StateSummary {
    let v = json::parse(resp).expect("response parses");
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{resp}");
    let mut digests: Vec<(String, u64)> = v
        .get("digests")
        .and_then(Value::as_object)
        .expect("digests present")
        .iter()
        .map(|(k, d)| (k.clone(), d.as_u64().expect("digest is u64")))
        .collect();
    digests.sort();
    let mut scalars: Vec<(String, i64)> = v
        .get("scalars")
        .and_then(Value::as_object)
        .expect("scalars present")
        .iter()
        .map(|(k, s)| (k.clone(), s.as_i64().expect("scalar is i64")))
        .collect();
    scalars.sort();
    (digests, scalars)
}

/// The tentpole correctness property: N tenants submitting overlapping
/// speculative regions concurrently each observe exactly the results a
/// sequential execution of their own requests would produce.
#[test]
fn concurrent_tenants_match_the_sequential_reference() {
    const TENANTS: usize = 4;
    const ROUNDS: usize = 3;
    let service = Arc::new(Service::new(ServeConfig {
        workers: 4,
        lane_width: 2,
        max_inflight_per_tenant: 4,
        max_queue_depth: 64,
        ..ServeConfig::default()
    }));
    let programs = corpus();
    std::thread::scope(|scope| {
        for t in 0..TENANTS {
            let service = Arc::clone(&service);
            let programs = &programs;
            scope.spawn(move || {
                let tenant = format!("tenant{t}");
                let n = 24 + 8 * t; // distinct problem size per tenant
                for round in 0..ROUNDS {
                    for (name, src) in programs {
                        let resp = service.handle_line(&run_line(&tenant, name, src, n));
                        let got = response_state(&resp);
                        let want = sequential_reference(name, src, n);
                        assert_eq!(
                            got, want,
                            "tenant {tenant} round {round} program {name} diverged: {resp}"
                        );
                    }
                }
            });
        }
    });
    // 4 tenants x 3 rounds x 5 programs = 60 runs over 5 distinct
    // programs. Tenants racing on the same cold program may each record
    // a miss (the analysis runs outside the cache lock), so the miss
    // count is bounded by tenants x programs, not exactly programs.
    let total = (TENANTS * ROUNDS * programs.len()) as u64;
    let misses = service.cache_misses();
    assert!(
        misses >= programs.len() as u64 && misses <= (TENANTS * programs.len()) as u64,
        "implausible miss count {misses}"
    );
    assert_eq!(service.cache_hits() + misses, total);
}

/// The acceptance bar: >= 100 requests over <= 10 distinct programs must
/// land a cache-hit ratio >= 0.8, and the stats op must report it.
#[test]
fn hot_working_set_exceeds_the_hit_ratio_bar() {
    let service = Service::with_defaults();
    let programs = corpus();
    assert!(programs.len() <= 10);
    let mut requests = 0;
    for round in 0..21 {
        for (name, src) in &programs {
            let resp = service.handle_line(&run_line("hot", name, src, 16 + round % 3));
            assert!(resp.contains("\"ok\":true"), "{resp}");
            requests += 1;
        }
    }
    assert!(requests >= 100, "only {requests} requests");
    assert!(
        service.cache_hit_ratio() >= 0.8,
        "hit ratio {} below 0.8",
        service.cache_hit_ratio()
    );
    let stats = json::parse(&service.handle_line(r#"{"op":"stats"}"#)).unwrap();
    let s = stats.get("stats").expect("stats payload");
    assert_eq!(
        s.get("cache_misses").and_then(Value::as_u64),
        Some(programs.len() as u64)
    );
    assert_eq!(
        s.get("cache_hits").and_then(Value::as_u64),
        Some(requests as u64 - programs.len() as u64)
    );
    let report = service.profile();
    assert_eq!(report.cache_hits, requests as u64 - programs.len() as u64);
    assert_eq!(report.cache_misses, programs.len() as u64);
}

/// Both transports run one launch path: a request carrying a
/// connection's cancel flag (TCP) answers field for field what the same
/// request answers without one (`--stdin`), the two clocks aside, and
/// neither leaves a thread behind.
#[test]
fn a_connection_flag_changes_no_answer_and_leaves_no_thread() {
    let service = Service::with_defaults();
    let flag = Arc::new(CancelFlag::new());
    let lines: Vec<String> = corpus()
        .iter()
        .map(|(name, src)| run_line("parity", name, src, 64))
        .collect();
    assert_eq!(lines.len(), 7);
    let round = |cancel: Option<&Arc<CancelFlag>>| -> Vec<Vec<(String, Value)>> {
        lines
            .iter()
            .map(|line| {
                let resp = json::parse(&service.handle_line_with(line, cancel)).unwrap();
                assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
                let fields = resp.as_object().expect("a response is an object");
                fields
                    .iter()
                    .filter(|(k, _)| k != "parse_us" && k != "latency_us")
                    .cloned()
                    .collect()
            })
            .collect()
    };
    round(None); // warm: a first request answers "cache":"miss"
    let threads = || std::fs::read_dir("/proc/self/task").ok().map(|d| d.count());
    if threads().is_none() {
        println!("thread counts skipped: no /proc/self/task on this platform");
    }
    // Other tests of this binary start and stop threads meanwhile; a
    // leak would show in every round, so one undisturbed round decides.
    let quiet = (0..50).any(|_| {
        let before = threads();
        let plain = round(None);
        let after_plain = threads();
        let armed = round(Some(&flag));
        assert_eq!(plain, armed);
        before == after_plain && after_plain == threads()
    });
    assert!(quiet, "a round of requests changed the thread count");
}

/// The same bar under concurrent closed-loop traffic: 20 rounds of the
/// corpus from 4 tenant threads, each issuing its next request the
/// moment the previous response lands.
#[test]
fn a_hot_corpus_is_served_from_the_cache() {
    const TENANTS: usize = 4;
    const ROUNDS_EACH: usize = 5;
    let service = Service::with_defaults();
    let programs = corpus();
    std::thread::scope(|scope| {
        for t in 0..TENANTS {
            let (service, programs) = (&service, &programs);
            scope.spawn(move || {
                let tenant = format!("hot{t}");
                for _ in 0..ROUNDS_EACH {
                    for (name, src) in programs {
                        let resp = service.handle_line(&run_line(&tenant, name, src, 64));
                        assert!(resp.contains("\"ok\":true"), "{tenant} {name}: {resp}");
                    }
                }
            });
        }
    });
    let total = (TENANTS * ROUNDS_EACH * programs.len()) as u64;
    assert_eq!(service.cache_hits() + service.cache_misses(), total);
    // 133/140 unless two threads race the same first miss
    let ratio = service.cache_hit_ratio();
    println!("hit ratio {ratio:.3} over {total} requests");
    assert!(ratio >= 0.8, "hit ratio {ratio} below 0.8");
}

/// Admission rejections are deterministic at the configuration edges:
/// a zero in-flight allowance rejects `tenant_busy`, a zero queue depth
/// rejects `overloaded`, and both carry the retry hint.
#[test]
fn admission_rejections_carry_retry_hints() {
    let busy = Service::new(ServeConfig {
        max_inflight_per_tenant: 0,
        ..ServeConfig::default()
    });
    let (name, src) = corpus()[0];
    let resp = busy.handle_line(&run_line("t", name, src, 8));
    assert!(resp.contains("\"code\":\"tenant_busy\""), "{resp}");
    assert!(resp.contains("\"retry_after_ms\":25"), "{resp}");

    let overloaded = Service::new(ServeConfig {
        max_queue_depth: 0,
        ..ServeConfig::default()
    });
    let resp = overloaded.handle_line(&run_line("t", name, src, 8));
    assert!(resp.contains("\"code\":\"overloaded\""), "{resp}");
    assert!(resp.contains("\"retry_after_ms\":25"), "{resp}");

    let stats = json::parse(&overloaded.handle_line(r#"{"op":"stats"}"#)).unwrap();
    let s = stats.get("stats").unwrap();
    assert_eq!(s.get("regions_rejected").and_then(Value::as_u64), Some(1));
    assert_eq!(s.get("regions_admitted").and_then(Value::as_u64), Some(0));
}

/// Strips the only legitimately varying field of a `certify` response.
fn canonical_certify(resp: &str) -> String {
    resp.replace("\"cache\":\"miss\"", "\"cache\":\"hit\"")
}

proptest! {
    /// Property: for every corpus program, the certificate served from
    /// the cache-hit path is byte-identical to the one computed on the
    /// miss path (and both match a cold service's answer).
    #[test]
    fn hit_and_miss_paths_serve_identical_certificates(pick in 0usize..5, n in 4usize..40) {
        let (name, src) = corpus()[pick];
        let line = format!(r#"{{"op":"certify","program":{}}}"#, json::to_string(src));
        let service = Service::with_defaults();
        let miss = service.handle_line(&line);
        let hit = service.handle_line(&line);
        prop_assert!(miss.contains("\"cache\":\"miss\""), "{}", miss);
        prop_assert!(hit.contains("\"cache\":\"hit\""), "{}", hit);
        prop_assert_eq!(canonical_certify(&miss), canonical_certify(&hit));

        // a cold service agrees, so cached certificates never go stale
        let cold = Service::with_defaults().handle_line(&line);
        prop_assert_eq!(canonical_certify(&cold), canonical_certify(&hit));

        // and the run path reports the same verdict either way
        let r1 = service.handle_line(&run_line("p", name, src, n));
        let r2 = service.handle_line(&run_line("p", name, src, n));
        let v1 = json::parse(&r1).unwrap();
        let v2 = json::parse(&r2).unwrap();
        prop_assert_eq!(
            v1.get("verdict").and_then(Value::as_str),
            v2.get("verdict").and_then(Value::as_str)
        );
        prop_assert_eq!(
            v1.get("digests").cloned().map(|d| json::to_string(&d)),
            v2.get("digests").cloned().map(|d| json::to_string(&d))
        );
    }
}

/// Literals a tenant can send whose folded coefficient leaves `i64`:
/// the front end calls them "not linear" and the request gets a
/// well-formed answer — the walker's — never a panic inside `lower`.
#[test]
fn literals_that_overflow_a_linear_fold_get_a_well_formed_response() {
    let service = Service::with_defaults();
    for body in [
        "A[0] = i; i = i + 9223372036854775807 + 9223372036854775807",
        "A[0] = A[0] + 1; i = i + 4611686018427387904 * 4",
        "A[3037000500 * (3037000500 * i)] = 1; i = i + 1",
    ] {
        let src = format!("integer i = 0\nwhile (i < 4) {{ {body} }}");
        let line = format!(
            r#"{{"op":"run","tenant":"t","program":{},"arrays":{{"A":[0,0,0,0,0,0,0,0]}},"max_iters":6}}"#,
            json::to_string(&src),
        );
        let resp = service.handle_line(&line);
        let v = json::parse(&resp).unwrap_or_else(|e| panic!("{resp}: {e:?}"));

        let mut machine = Machine::default();
        machine.arrays.insert("A".into(), vec![0; 8]);
        let program = parse_program(&src).expect("parses");
        match reference_run(&program, &mut machine, 6) {
            Ok(out) => {
                assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{resp}");
                assert_eq!(
                    v.get("iterations").and_then(Value::as_u64),
                    Some(out.iterations as u64),
                    "{resp}"
                );
                let (_, scalars) = response_state(&resp);
                assert_eq!(scalars, [("i".to_string(), machine.scalars["i"])]);
            }
            Err(e) => {
                assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false), "{resp}");
                assert!(resp.contains(&e.msg), "{resp} lacks `{e}`");
            }
        }
    }
}
