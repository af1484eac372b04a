//! The frozen surface: every repository API `benchmark/src/layers.rs` calls,
//! with the argument shapes it calls them with. `benchmark/` is a package
//! of its own that tier-1 `cargo test` never builds, so a signature change
//! that would break it is caught here instead. Each call is also checked
//! for the result the layer kernels rely on.

use std::sync::atomic::{AtomicU64, Ordering};
use wlp::core::speculate::SpecAccess;
use wlp::core::{speculative_while, SpeculativeArray};
use wlp::ir::frontend::{lower, parse_program};
use wlp::ir::interp::{run_parallel, run_sequential, Machine};
use wlp::pd::Shadow;
use wlp::runtime::{doacross, doall_dynamic, Pool, RegionScheduler, SchedulerConfig, Step};
use wlp::serve::cache::{CacheOutcome, CertCache};
use wlp::serve::proto::{self, Request as Parsed};
use wlp::serve::{register_builtins, ServeConfig, Service};
use wlp::workloads::{spice, track};
use wlp_analyze::{analyze, fission_plan};

const DOUBLE: &str = "integer i = 0\nwhile (i < n) {\n    A[i] = 2 * A[i]\n    i = i + 1\n}";

fn never(_i: usize, _acc: &mut SpecAccess<'_, i64>) -> bool {
    false
}

#[test]
fn runtime_entry_points_keep_their_shapes() {
    for p in [1, 2] {
        let lanes = AtomicU64::new(0);
        Pool::new(p).run(|vpn| {
            lanes.fetch_add(1 << vpn, Ordering::Relaxed);
        });
        assert_eq!(lanes.load(Ordering::Relaxed), (1 << p) - 1);
    }

    let sched = RegionScheduler::new(SchedulerConfig {
        total_workers: 2,
        lane_width: 2,
    });
    let lane = sched.acquire();
    assert_eq!(lane.index(), 0);

    let pool = Pool::new(2);
    let sum = AtomicU64::new(0);
    let out = doall_dynamic(&pool, 100, |i, _| {
        sum.fetch_add(i as u64, Ordering::Relaxed);
        Step::Continue
    });
    assert_eq!((out.executed, out.quit), (100, None));
    assert_eq!(sum.load(Ordering::Relaxed), 4950);

    let stages = AtomicU64::new(0);
    let out = doacross(&pool, 100, 1, |i, stage| {
        stages.fetch_add((i + stage) as u64, Ordering::Relaxed);
    });
    assert_eq!(out.executed, 100);
    assert_eq!(stages.load(Ordering::Relaxed), 4950);
}

#[test]
fn speculation_and_the_pd_test_keep_their_shapes() {
    let pool = Pool::new(2);
    let n = 64usize;
    let perm: Vec<usize> = (0..n).rev().collect();

    let arr = SpeculativeArray::new(vec![0i64; n]);
    let out = speculative_while(&pool, n, &arr, never, |i, a| a.write(perm[i], i as i64));
    assert!(out.committed_parallel);
    assert_eq!(arr.snapshot()[0], n as i64 - 1);

    let arr = SpeculativeArray::new(vec![0i64; n]);
    let out = speculative_while(&pool, n, &arr, never, |i, a| {
        let v = a.read(i % 4);
        a.write(i % 4, v + 1);
    });
    assert!(!out.committed_parallel, "colliding subscripts must abort");
    assert_eq!(arr.snapshot()[0], n as i64 / 4, "sequential re-run");

    let shadow = Shadow::new(n);
    for (i, &e) in perm.iter().enumerate() {
        let mut marker = shadow.iteration(i);
        marker.mark_read(e);
        marker.mark_write(e);
    }
    assert!(shadow.analyze(&pool, None, 16).doall);
}

#[test]
fn front_end_analysis_and_interpreters_keep_their_shapes() {
    let program = parse_program(DOUBLE).expect("parse");
    let body = lower(&program).expect("lower");
    let analysis = analyze(&body);
    assert_eq!(analysis.certificate.verdict.name(), "certified_doall");
    assert!(fission_plan(&body).stages() <= 1);

    let machine = || {
        let mut m = Machine::default();
        m.arrays.insert("A".into(), (0..32).collect());
        m.scalars.insert("n".into(), 32);
        m
    };
    let mut seq = machine();
    let out = run_sequential(&program, &mut seq, 1000).expect("runs");
    assert_eq!((out.iterations, out.ran_parallel), (32, false));
    let mut par = machine();
    let out = run_parallel(&program, &mut par, &Pool::new(2), 1000).expect("runs");
    assert_eq!(out.iterations, 32);
    assert_eq!(seq.arrays["A"], par.arrays["A"]);
    assert_eq!(seq.arrays["A"][31], 62);
}

#[test]
fn paper_workloads_keep_their_shapes() {
    let pool = Pool::new(2);
    let inst = track::TrackInstance::new(400, 300, 7);
    let (seq_state, seq_exit) = inst.run_sequential();
    let (par_state, out) = inst.run_parallel(&pool);
    assert_eq!(out.last_valid, seq_exit);
    assert_eq!(seq_state, par_state);

    let list = spice::build_device_list(500, 7);
    let seq = spice::load_sequential(&list, 1e-3);
    let (par, out) = spice::load_parallel(&pool, &list, 1e-3, spice::Method::General3);
    assert_eq!(out.iterations, 500);
    assert_eq!(seq, par);
}

#[test]
fn the_service_and_its_cache_keep_their_shapes() {
    let svc = Service::new(ServeConfig {
        workers: 2,
        lane_width: 2,
        ..ServeConfig::default()
    });
    let program = DOUBLE.replace('\n', "\\n");
    let run_line = format!(
        r#"{{"op":"run","tenant":"t","program":"{program}","arrays":{{"A":[1,2,3]}},"scalars":{{"n":3}},"max_iters":1000}}"#
    );
    let certify_line = format!(r#"{{"op":"certify","tenant":"t","program":"{program}"}}"#);
    for line in [&run_line, &certify_line] {
        let resp = svc.handle_line(line);
        assert!(resp.contains("\"ok\":true"), "{resp}");
    }

    let run = match proto::parse_request(&run_line) {
        Ok(Parsed::Run(run)) => run,
        other => panic!("a run line parsed as {other:?}"),
    };
    match proto::parse_request(&certify_line) {
        Ok(Parsed::Certify { source, .. }) => assert_eq!(source, run.source),
        other => panic!("a certify line parsed as {other:?}"),
    }
    let max_iters = run.max_iters.expect("the line sets max_iters");
    let machine = || {
        let mut m = Machine::default();
        for (name, data) in &run.arrays {
            m.arrays.insert(name.clone(), data.clone());
        }
        for (name, v) in &run.scalars {
            m.scalars.insert(name.clone(), *v);
        }
        register_builtins(&mut m);
        m
    };

    let cache = CertCache::new(ServeConfig::default().cache_capacity);
    let (_, outcome) = cache.lookup(&run.source).expect("parses");
    assert_eq!(outcome, CacheOutcome::Miss);
    let (entry, outcome) = cache.lookup(&run.source).expect("parses");
    assert_eq!(outcome, CacheOutcome::Hit);
    let mut seq = machine();
    let out = run_sequential(&entry.program, &mut seq, max_iters).expect("runs");
    assert_eq!(out.iterations, 3);
    let mut par = machine();
    let out = run_parallel(&entry.program, &mut par, &Pool::new(2), max_iters).expect("runs");
    assert_eq!(out.iterations, 3);
    assert_eq!(seq.arrays["A"], [2, 4, 6]);
    assert_eq!(seq.arrays["A"], par.arrays["A"]);
}
