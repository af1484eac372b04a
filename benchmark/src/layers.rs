//! Every call into the repository's crates lives in this file, so a later
//! API change breaks one file and not the benchmark. Three things happen
//! here: the corpus is fetched, request lines are replayed in-process with
//! a span around each layer's public entry point (the traced pass), and
//! each layer's kernel is timed from outside.

use crate::gen::{Corpus, Request, Rng};
use crate::load;
use crate::stats;
use crate::trace::{self, Tracer};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wlp_analyze::{analyze, fission_plan};
use wlp_core::speculate::SpecAccess;
use wlp_core::{speculative_while, SpeculativeArray};
use wlp_ir::frontend::{lower, parse_program};
use wlp_ir::interp::{run_parallel, run_sequential, Machine};
use wlp_pd::Shadow;
use wlp_runtime::{doacross, doall_dynamic, Pool, RegionScheduler, SchedulerConfig, Step};
use wlp_serve::cache::{CacheOutcome, CertCache};
use wlp_serve::proto::{self, Request as Parsed};
use wlp_serve::{register_builtins, ServeConfig, Service};
use wlp_workloads::{spice, track};

/// The seven templates, as the daemon's own crates list them.
pub fn corpus() -> Corpus {
    wlp_workloads::sources::corpus()
        .into_iter()
        .map(|(name, src)| (name.to_string(), src.to_string()))
        .collect()
}

/// A named per-layer measurement.
pub type Metric = (&'static str, f64);

/// An in-process service shaped like the daemon the TCP rounds talk to.
fn service() -> Service {
    Service::new(ServeConfig {
        workers: 2,
        lane_width: 2,
        ..ServeConfig::default()
    })
}

fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

fn p50(samples: Vec<f64>) -> f64 {
    stats::percentile_of(samples, 50.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn machine(run: &proto::RunRequest) -> Machine {
    let mut m = Machine::default();
    for (name, data) in &run.arrays {
        m.arrays.insert(name.clone(), data.clone());
    }
    for (name, v) in &run.scalars {
        m.scalars.insert(name.clone(), *v);
    }
    register_builtins(&mut m);
    m
}

/// What the traced pass found.
pub struct Traced {
    pub metrics: Vec<Metric>,
    /// Median root span, µs: what the untraced replay is compared with.
    pub handle_line_p50_us: f64,
    /// Failed in-process responses (the same check as over TCP).
    pub failed: u64,
    pub first_failure: Option<String>,
    /// At the median request the children took at most 1.10 of the
    /// parent, and `self_p50 ≥ 0`.
    pub conserved: bool,
}

/// Sums the traced pass keeps per layer; all times in ns.
#[derive(Default)]
struct Sums {
    parse_ns: f64,
    parse_bytes: f64,
    hit_ns: Vec<f64>,
    miss_ns: f64,
    misses: f64,
    frontend_ns: f64,
    analyze_ns: f64,
    fission_ns: f64,
    stmts: f64,
    seq_ns: f64,
    seq_iters: f64,
    /// Over the requests whose `run_parallel` committed in parallel:
    /// its time, the sequential interpreter's time, and the iterations.
    par_ns: f64,
    par_seq_ns: f64,
    par_iters: f64,
    self_ns: Vec<f64>,
}

/// Replays `lines` through an in-process [`Service`]: a root span around
/// `handle_line`, then child spans made by calling each layer's public
/// function on the same input. The children are re-executions, timed on
/// their own after the root; they are attributed to the root (parented
/// to it) when the response says that path was the one taken.
pub fn traced_pass(lines: &[Arc<Request>], tracer: &mut Tracer) -> Traced {
    let svc = service();
    let cache = CertCache::new(ServeConfig::default().cache_capacity);
    let pool = Pool::new(2);
    let mut sums = Sums::default();
    let mut roots = Vec::with_capacity(lines.len());
    let mut failed = 0u64;
    let mut first_failure = None;

    for (k, req) in lines.iter().enumerate() {
        let k = k as u32;
        let line = req.line.trim_end();
        let (resp, root, root_d) = tracer.span(trace::ROOT, None, k, || svc.handle_line(line));
        roots.push(ns(root_d));
        let sample = match load::check(&resp, req, 0.0) {
            Ok(sample) => sample,
            Err(why) => {
                failed += 1;
                first_failure.get_or_insert(why);
                continue;
            }
        };

        let (parsed, _, parse_d) = tracer.span("serve.proto_parse", Some(root), k, || {
            proto::parse_request(line)
        });
        sums.parse_ns += ns(parse_d);
        sums.parse_bytes += line.len() as f64;
        let (source, run) = match parsed {
            Ok(Parsed::Run(run)) => (run.source.clone(), Some(run)),
            Ok(Parsed::Certify { source, .. }) => (source, None),
            other => panic!("generated line parsed as {other:?}"),
        };

        let (looked, lookup, lookup_d) = tracer.span("serve.cache_lookup", Some(root), k, || {
            cache.lookup(&source)
        });
        let (entry, outcome) = looked.expect("generated program parses");
        if outcome == CacheOutcome::Hit {
            sums.hit_ns.push(ns(lookup_d));
        } else {
            sums.miss_ns += ns(lookup_d);
            sums.misses += 1.0;
            // what the miss paid for, timed again stage by stage
            let (body, _, d) = tracer.span("ir.frontend", Some(lookup), k, || {
                let program = parse_program(&source).expect("parsed a moment ago");
                lower(&program).expect("lowered a moment ago")
            });
            sums.frontend_ns += ns(d);
            sums.stmts += body.stmts.len() as f64;
            let (_, analysis, d) = tracer.span("analyze.analyze", Some(lookup), k, || {
                black_box(analyze(&body))
            });
            sums.analyze_ns += ns(d);
            let (_, _, d) = tracer.span("analyze.fission_plan", Some(analysis), k, || {
                black_box(fission_plan(&body))
            });
            sums.fission_ns += ns(d);
        }

        let mut executor_ns = 0.0;
        if let Some(run) = run {
            let max_iters = run.max_iters.expect("generated lines set max_iters");
            // both executors run on every request; the root adopts the
            // one its response says it used
            let adopt = |used: bool| used.then_some(root);
            let mut m = machine(&run);
            let (seq, _, seq_d) =
                tracer.span("ir.run_sequential", adopt(!sample.ran_parallel), k, || {
                    run_sequential(&entry.program, &mut m, max_iters)
                });
            let seq = seq.expect("generated program runs");
            sums.seq_ns += ns(seq_d);
            sums.seq_iters += seq.iterations as f64;
            let mut m = machine(&run);
            let (par, _, par_d) =
                tracer.span("ir.run_parallel", adopt(sample.ran_parallel), k, || {
                    run_parallel(&entry.program, &mut m, &pool, max_iters)
                });
            let par = par.expect("generated program runs");
            if par.ran_parallel {
                sums.par_ns += ns(par_d);
                sums.par_seq_ns += ns(seq_d);
                sums.par_iters += par.iterations as f64;
            }
            executor_ns = ns(if sample.ran_parallel { par_d } else { seq_d });
        }
        sums.self_ns
            .push(ns(root_d) - ns(parse_d) - ns(lookup_d) - executor_ns);
    }

    let root_total: f64 = roots.iter().sum();
    let self_total: f64 = sums.self_ns.iter().sum();
    let self_p50 = p50(sums.self_ns);
    // at the median request (a burst of machine noise between a root and
    // its re-executed children must not fail the run)
    let children_over_parent = p50(trace::roots_with_children(&tracer.spans)
        .iter()
        .map(|&(parent, children)| children as f64 / parent.max(1) as f64)
        .collect());
    let conserved = self_p50 >= 0.0 && children_over_parent <= 1.10;
    let handle_line_p50_us = p50(roots) / 1e3;
    let metrics = vec![
        ("serve.handle_line_p50_us", handle_line_p50_us),
        (
            "serve.proto_parse_ns_per_byte",
            ratio(sums.parse_ns, sums.parse_bytes),
        ),
        ("serve.cache_hit_lookup_ns", p50(sums.hit_ns)),
        (
            "serve.cache_miss_lookup_us",
            ratio(sums.miss_ns, sums.misses) / 1e3,
        ),
        (
            "ir.frontend_us_per_program",
            ratio(sums.frontend_ns, sums.misses) / 1e3,
        ),
        (
            "analyze.analyze_us_per_program",
            ratio(sums.analyze_ns, sums.misses) / 1e3,
        ),
        (
            "analyze.analyze_us_per_stmt",
            ratio(sums.analyze_ns, sums.stmts) / 1e3,
        ),
        (
            "analyze.fission_plan_us_per_program",
            ratio(sums.fission_ns, sums.misses) / 1e3,
        ),
        (
            "ir.interp_seq_ns_per_iter",
            ratio(sums.seq_ns, sums.seq_iters),
        ),
        (
            "ir.interp_par_ns_per_iter",
            ratio(sums.par_ns, sums.par_iters),
        ),
        (
            "ir.interp_par_over_seq",
            ratio(sums.par_ns, sums.par_seq_ns),
        ),
        ("serve.self_p50_us", self_p50 / 1e3),
        ("serve.self_share", ratio(self_total, root_total)),
    ];
    Traced {
        metrics,
        handle_line_p50_us,
        failed,
        first_failure,
        conserved,
    }
}

/// The same replay with nothing but `handle_line` in the loop and span
/// recording off: the median against which tracing overhead is stated.
pub fn untraced_handle_line_p50_us(lines: &[Arc<Request>]) -> f64 {
    let svc = service();
    let mut tracer = Tracer::new(false);
    let durations = lines
        .iter()
        .map(|req| {
            let (resp, _, d) = tracer.span(trace::ROOT, None, 0, || {
                svc.handle_line(req.line.trim_end())
            });
            black_box(resp);
            ns(d)
        })
        .collect();
    p50(durations) / 1e3
}

/// Median over `repeats` timings of `f`, ns; `setup` runs untimed before
/// each.
fn timed_with<S, T>(
    repeats: usize,
    mut setup: impl FnMut() -> S,
    mut f: impl FnMut(S) -> T,
) -> f64 {
    let samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let input = setup();
            let t0 = Instant::now();
            let out = f(input);
            let d = t0.elapsed();
            drop(black_box(out));
            ns(d)
        })
        .collect();
    stats::median(&samples)
}

/// A terminator that never fires: the kernels run all their iterations.
fn never(_i: usize, _acc: &mut SpecAccess<'_, i64>) -> bool {
    false
}

/// [`timed_with`] for kernels that need nothing prepared.
fn timed<T>(repeats: usize, mut f: impl FnMut() -> T) -> f64 {
    timed_with(repeats, || (), |()| f())
}

/// Times each layer's kernel from outside, through un-suffixed public
/// entry points only. `scale` shrinks the sizes (`--smoke`); `seed`
/// shuffles the subscripts.
pub fn kernels(scale: f64, seed: u64) -> Vec<Metric> {
    const REPEATS: usize = 9;
    let sized = |n: usize| ((n as f64 * scale) as usize).max(64);
    let mut out: Vec<Metric> = Vec::new();

    // -- fixed costs of a small region [the paper's Tb, set-up part] ------
    for (name, p) in [
        ("runtime.region_launch_p1_us", 1),
        ("runtime.region_launch_p2_us", 2),
    ] {
        let pool = Pool::new(p);
        let calls = sized(2_000);
        let t = timed(REPEATS, || {
            for _ in 0..calls {
                pool.run(|vpn| {
                    black_box(vpn);
                });
            }
        });
        out.push((name, t / calls as f64 / 1e3));
    }
    {
        let sched = RegionScheduler::new(SchedulerConfig {
            total_workers: 2,
            lane_width: 2,
        });
        let calls = sized(20_000);
        let t = timed(REPEATS, || {
            for _ in 0..calls {
                let lane = sched.acquire();
                black_box(lane.index());
            }
        });
        out.push(("runtime.scheduler_acquire_ns", t / calls as f64));
    }
    {
        let elems = 1usize << 16;
        let t = timed_with(REPEATS, || vec![0i64; elems], SpeculativeArray::new);
        out.push(("core.spec_setup_ns_per_elem", t / elems as f64));
    }

    // -- per-iteration costs of a large region ----------------------------
    let pool = Pool::new(2);
    let n = sized(200_000);
    let mut rng = Rng::new(seed ^ 0x6b65_726e_656c);
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let perm = &perm;
    let claim = timed(REPEATS, || {
        doall_dynamic(&pool, n, |i, _| {
            black_box(i);
            Step::Continue
        })
    });
    out.push(("runtime.claim_ns", claim / n as f64));

    // stamped writes and shadowed reads [Tb]: a speculative loop with one
    // access per iteration through a permutation; the time per iteration
    // includes the claim above
    let fresh = || SpeculativeArray::new(vec![0i64; n]);
    let write = timed_with(REPEATS, fresh, |arr| {
        speculative_while(&pool, n, &arr, never, |i, a| a.write(perm[i], i as i64))
    });
    out.push(("core.spec_write_ns", write / n as f64));
    let read = timed_with(REPEATS, fresh, |arr| {
        speculative_while(&pool, n, &arr, never, |i, a| {
            black_box(a.read(perm[i]));
        })
    });
    out.push(("core.spec_read_ns", read / n as f64));

    // PD marking [Td] and the post-pass [Ta]
    let mark = |shadow: Shadow| {
        for (i, &e) in perm.iter().enumerate() {
            let mut marker = shadow.iteration(i);
            marker.mark_read(e);
            marker.mark_write(e);
        }
        shadow
    };
    let marking = timed_with(REPEATS, || Shadow::new(n), mark);
    out.push(("pd.mark_ns", marking / (2 * n) as f64));
    let postpass = timed_with(
        REPEATS,
        || mark(Shadow::new(n)),
        |shadow| shadow.analyze(&pool, None, 16),
    );
    out.push(("pd.postpass_ns_per_elem", postpass / n as f64));

    // a failed speculation (every iteration hits one of four cells:
    // attempt, undo, sequential re-run) over the plain sequential loop
    let cell = |i: usize| i % 4;
    let aborted = timed_with(REPEATS, fresh, |arr| {
        let o = speculative_while(&pool, n, &arr, never, |i, a| {
            let v = a.read(cell(i));
            a.write(cell(i), v + 1);
        });
        assert!(!o.committed_parallel, "colliding subscripts must abort");
    });
    let plain = timed_with(
        REPEATS,
        || vec![0i64; n],
        |mut a| {
            for i in 0..n {
                let e = black_box(cell(i));
                a[e] = black_box(a[e] + 1);
            }
            a
        },
    );
    out.push(("core.spec_abort_over_seq", ratio(aborted, plain)));

    let iters = sized(20_000);
    let sync = timed(REPEATS, || {
        doacross(&pool, iters, 1, |i, stage| {
            black_box((i, stage));
        })
    });
    out.push(("runtime.doacross_sync_ns", sync / iters as f64));

    // -- the paper's own loops through the library, p = 2 -----------------
    let iters = sized(20_000);
    let inst = track::TrackInstance::new(iters, iters * 3 / 4, seed);
    let seq = timed(REPEATS, || inst.run_sequential());
    let par = timed(REPEATS, || inst.run_parallel(&pool));
    out.push(("workloads.track_par_over_seq_p2", ratio(par, seq)));

    let list = spice::build_device_list(sized(50_000), seed);
    let dt = 1e-3;
    let seq = timed(REPEATS, || spice::load_sequential(&list, dt));
    let par = timed(REPEATS, || {
        spice::load_parallel(&pool, &list, dt, spice::Method::General3)
    });
    out.push(("workloads.spice_par_over_seq_p2", ratio(par, seq)));
    out
}
