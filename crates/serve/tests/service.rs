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
use wlp_serve::cache::PROBE_PERIOD;
use wlp_serve::{fnv1a64, register_builtins, CancelFlag, ServeConfig, Service};
use wlp_workloads::sources::{corpus, machine_inputs, MachineInputs};

/// Builds the request line one tenant submits for one corpus program.
fn run_line(tenant: &str, name: &str, src: &str, n: usize) -> String {
    request_line(tenant, src, &machine_inputs(name, n), 2 * n + 4)
}

/// Builds a `run` request line over explicit inputs.
fn request_line(
    tenant: &str,
    src: &str,
    (arrays, scalars): &MachineInputs,
    max_iters: usize,
) -> String {
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
        max_iters,
    )
}

/// Sorted `(array digests, scalars)` — the comparable shape of a final
/// machine state.
type StateSummary = (Vec<(String, u64)>, Vec<(String, i64)>);

/// The ground truth for one `(program, n)` pair: digests and scalars
/// after the reference tree walker (not the plan executor the service
/// runs) interpreted the program.
fn sequential_reference(name: &str, src: &str, n: usize) -> StateSummary {
    reference_state(src, machine_inputs(name, n), 2 * n + 4)
}

/// [`sequential_reference`] over explicit inputs.
fn reference_state(src: &str, (arrays, scalars): MachineInputs, max_iters: usize) -> StateSummary {
    let program = parse_program(src).expect("corpus parses");
    let mut machine = Machine::default();
    for (k, v) in arrays {
        machine.arrays.insert(k, v);
    }
    for (k, v) in scalars {
        machine.scalars.insert(k, v);
    }
    register_builtins(&mut machine);
    reference_run(&program, &mut machine, max_iters).expect("reference runs");
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
/// sequential execution of their own requests would produce — on
/// whichever path each program's run history sends them, and across the
/// probes that switch paths.
#[test]
fn concurrent_tenants_match_the_sequential_reference() {
    const TENANTS: usize = 4;
    // every tenant alone takes each program's size class past a probe
    const ROUNDS: usize = PROBE_PERIOD as usize + 1;
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
    // Tenants racing on the same cold program may each record a miss (the
    // analysis runs outside the cache lock), so the miss count is bounded
    // by tenants x programs, not exactly programs.
    let total = (TENANTS * ROUNDS * programs.len()) as u64;
    let misses = service.cache_misses();
    assert!(
        misses >= programs.len() as u64 && misses <= (TENANTS * programs.len()) as u64,
        "implausible miss count {misses}"
    );
    assert_eq!(service.cache_hits() + misses, total);
    // gather_scatter and guarded_update plan speculative: each of their
    // size classes measured its second path once and probed again at
    // least once a period later
    let speculation = speculation_stats(&service);
    assert!(speculation("probes") >= 4, "too few probes");
    assert!(speculation("attempted") >= 2, "never speculated");
}

/// A reader of the service's `stats.speculation` counters.
fn speculation_stats(service: &Service) -> impl Fn(&str) -> u64 {
    let stats = json::parse(&service.handle_line(r#"{"op":"stats"}"#)).unwrap();
    let block = stats
        .get("stats")
        .and_then(|s| s.get("speculation"))
        .cloned()
        .expect("stats.speculation");
    move |name| {
        block
            .get(name)
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("no speculation.{name}"))
    }
}

/// A program whose speculation can never commit — gather_scatter with
/// every subscript on one of four cells — is measured, declined, and
/// probed on the period, and every answer is the sequential one whichever
/// path produced it.
#[test]
fn a_program_whose_speculation_always_fails_is_declined_after_two_runs() {
    const RUNS: u32 = 40;
    let n = 4096;
    let (name, src) = corpus()[1];
    assert_eq!(name, "gather_scatter");
    let (mut arrays, scalars) = machine_inputs(name, n);
    for (array, data) in &mut arrays {
        if array == "idx" {
            data.iter_mut()
                .enumerate()
                .for_each(|(i, x)| *x = (i % 4) as i64);
        }
    }
    let inputs = (arrays, scalars);
    let want = reference_state(src, inputs.clone(), n + 8);
    let service = Service::with_defaults();
    let mut decisions = Vec::new();
    for k in 0..RUNS {
        // a fresh tenant each time, as the benchmark sends them; the
        // decision is the program's history, whoever sends it
        let resp = service.handle_line(&request_line(&format!("collide-{k}"), src, &inputs, n + 8));
        assert_eq!(response_state(&resp), want, "run {k}: {resp}");
        let v = json::parse(&resp).unwrap();
        decisions.push(
            v.get("decision")
                .and_then(Value::as_str)
                .unwrap()
                .to_string(),
        );
        if k == 1 {
            assert_eq!(speculation_stats(&service)("declined"), 0);
        }
    }
    assert_eq!(decisions[..2], ["speculated", "probe"], "{decisions:?}");
    let speculation = speculation_stats(&service);
    assert!(speculation("declined") > 0, "{decisions:?}");
    assert_eq!(speculation("committed"), 0);
    // the sequential path measured on the second run, then the path not
    // preferred on every PROBE_PERIOD-th
    let probes = u64::from(1 + RUNS / PROBE_PERIOD);
    assert_eq!(speculation("probes"), probes, "{decisions:?}");
    assert_eq!(
        decisions.iter().filter(|d| *d == "probe").count() as u64,
        probes
    );
    for (k, d) in decisions.iter().enumerate() {
        let on_period = (k as u32 + 1).is_multiple_of(PROBE_PERIOD);
        assert_eq!(d == "probe", k == 1 || on_period, "run {k}: {decisions:?}");
    }
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
}

/// Both transports run one launch path: a request carrying a
/// connection's cancel flag (TCP) answers field for field what the same
/// request answers without one (`--stdin`), the two clocks aside, and
/// neither leaves a thread behind.
///
/// Which path a request of a speculative plan takes is its program's run
/// history's call, so each transport gets a fresh service and the same
/// two rounds of the corpus. Those two are decided before any estimate
/// is compared: every speculative plan speculates on its first run and
/// measures the sequential path on its second. The first round is where
/// an armed speculative region must launch and commit like a plain one.
#[test]
fn a_connection_flag_changes_no_answer_and_leaves_no_thread() {
    let flag = Arc::new(CancelFlag::new());
    let lines: Vec<String> = corpus()
        .iter()
        .map(|(name, src)| run_line("parity", name, src, 64))
        .collect();
    assert_eq!(lines.len(), 7);
    type Answer = Vec<(String, Value)>;
    let rounds = |service: &Service, cancel: Option<&Arc<CancelFlag>>| -> Vec<Answer> {
        // the first round answers "cache":"miss", the second "hit"
        (0..2)
            .flat_map(|_| &lines)
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
    let field = |resp: &Answer, name: &str| -> Value {
        resp.iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| panic!("no {name}"))
    };
    let threads = || std::fs::read_dir("/proc/self/task").ok().map(|d| d.count());
    if threads().is_none() {
        println!("thread counts skipped: no /proc/self/task on this platform");
    }
    // Other tests of this binary start and stop threads meanwhile; a
    // leak would show in every attempt, so one undisturbed attempt decides.
    let quiet = (0..50).any(|_| {
        // a service's workers spawn when it is built: before counting
        let (plain_service, armed_service) = (Service::with_defaults(), Service::with_defaults());
        let before = threads();
        let plain = rounds(&plain_service, None);
        let after_plain = threads();
        let armed = rounds(&armed_service, Some(&flag));
        let after_armed = threads();
        assert_eq!(plain, armed);
        let (first, second) = plain.split_at(lines.len());
        let speculated: Vec<&Answer> = first
            .iter()
            .filter(|r| field(r, "decision") == Value::Str("speculated".into()))
            .collect();
        assert!(!speculated.is_empty(), "no corpus program speculated");
        for resp in speculated {
            assert_eq!(field(resp, "ran_parallel"), Value::Bool(true), "{resp:?}");
        }
        // the same programs measure the sequential path next
        for (a, b) in first.iter().zip(second) {
            if field(a, "decision") == Value::Str("speculated".into()) {
                assert_eq!(field(b, "decision"), Value::Str("probe".into()), "{b:?}");
                assert_eq!(field(b, "ran_parallel"), Value::Bool(false), "{b:?}");
            } else {
                assert_eq!(field(a, "decision"), field(b, "decision"));
            }
        }
        before == after_plain && after_plain == after_armed
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
