//! Wall-clock benchmark harness for the *threaded* runtime.
//!
//! Unlike `figures` (which replays the paper's exhibits on the
//! deterministic simulator), this binary times real executions of the
//! runtime constructs and workloads on the host machine, across pool
//! sizes, scheduling policies and pool modes, and writes the results to
//! `BENCH_runtime.json` for CI to archive and gate on.
//!
//! ```text
//! cargo run -p wlp-bench --release --bin wlp-bench                 # full run
//! cargo run -p wlp-bench --release --bin wlp-bench -- --smoke     # CI-sized
//! cargo run -p wlp-bench --release --bin wlp-bench -- --smoke --gate
//! cargo run -p wlp-bench --release --bin wlp-bench -- --out /tmp/b.json
//! ```
//!
//! Exhibit families:
//!
//! * `compute` — a uniform-body DOALL over a synthetic flop kernel, per
//!   pool size and [`ChunkPolicy`], against the sequential loop; the
//!   `one` cells also as ns per claim.
//! * `spice` — the SPICE LOAD workload (linked-list dispatcher,
//!   General-3; General-1 and General-2 beside it at `p = 2`), against
//!   its sequential reference; reported but not gated — its bodies are
//!   tiny ("the body in Loop 40 does little work"), so the exhibit
//!   measures dispatcher overhead, which machine size swings by an order
//!   of magnitude.
//! * `track` — the TRACK speculative workload (checkpoint + PD test +
//!   undo), against its sequential reference; reported but not gated,
//!   since the speculation machinery's overhead is the quantity under
//!   study, not a regression.
//! * `dispatch` — many small regions back to back on the resident pool:
//!   the dispatch-overhead exhibit, on a plain handle (`resident`), on
//!   one armed `with_abort` (`abort`: each region's flag linked to an
//!   abort switch) and on one armed `with_deadline` (`deadline`: each
//!   region's flag given an expiry its pollers read the clock against).
//!   `--gate` holds `abort` and `deadline` within 1.5× of `resident` at
//!   every `p` the machine can seat: arming a region launches nothing.
//! * `watchdog` — the same DOALL on a deadline-armed pool vs the plain
//!   resident pool: what polling an expiry costs a loop. The deadline is
//!   generous (never trips), so the delta is pure polling overhead;
//!   `--gate` bounds it at 5%.
//! * `contention` — tiny bodies at full pool width, the pure claim-path
//!   exhibit: one-at-a-time and chunked self-scheduling, and a
//!   stamp-dense speculative loop whose cost is dominated by shadow
//!   marking and undo stamping. Reported but not
//!   gated: these cells *are* the dispatcher/marking overhead under
//!   study, and their absolute cost is what `--trajectory` tracks
//!   across commits.
//!
//! * `ingest` — the daemon's first layer, request line → typed
//!   `Request`: one `proto::parse_request` over each of the seven corpus
//!   `run` lines at `n = 512` (`small`) and `n = 16384` (`large`; the
//!   same with seeded-random values as `benchmark/` sends them,
//!   `large-random`, and with `", "` between elements, `large-spaced`),
//!   reported per pass and as ns per request and ns per byte. `--gate`
//!   bounds `large` at 1.8 ns/byte and `large-spaced` at 3.8; the rest
//!   is the budget a request's transport share is read against.
//!
//! * `interp` — the daemon's executor layer: the lowered plan of each
//!   corpus template at `n = 16384`, bound as a request binds it
//!   (`compile_source` + `Machine::bind`), run sequentially
//!   (`interp/seq/<template>/p1`) and, where the plan speculates, as a
//!   speculative DOALL on one and on two workers against that
//!   (`interp/spec/<template>/p{1,2}`: at p = 1 the speculation
//!   machinery with no parallelism to hide it); reported per run and as ns per
//!   iteration and ns per plan instruction. `digest` — the reply digest
//!   over the same inputs' arrays (`small`: every element has zero high
//!   bytes) and over as many full-width values (`wide`), as ns per
//!   element. Not gated: they are what §7's `Trem` costs here.
//!
//! * `analyze` — the daemon's certificate-cache miss: `compile_source`
//!   (parse, lower, the whole-loop certificate, the execution plan; no
//!   fission plan, recurrence census or diagnostics, which the rows
//!   included before the miss stopped building them) over 64 seeded
//!   programs of 1, 2 and 4 corpus template groups under one induction,
//!   shaped like the `cold-unique` benchmark workload's
//!   (`analyze/miss/{1,2,4}/p1`); reported per pass, per program and per
//!   lowered statement, and as µs. Not gated: on `cold-unique` a miss is
//!   most of a request.
//!
//! * `layers` — §7's overhead terms, one operation at a time on inputs
//!   built before the clock starts: `layers/pd/{unmarked,mark_write,
//!   mark_rw}` (ns per shadow-marked access, `Td`), `layers/pd/analyze`
//!   (the post-pass, ns per element, `Ta`) and `layers/undo/{checkpoint,
//!   plain_write,stamped_write,undo_half,restore_all}` (ns per element:
//!   `Tb` and §4's undo / commit). `scan` — §3.2's three-phase parallel
//!   prefix against the sequential scan. Not gated: read them beside
//!   `interp/seq/*` ns per iteration for §7's ratio.
//!
//! With `--gate`, the run fails (exit 1) if any gated parallel exhibit at
//! the largest pool size is more than 1.5× slower than its sequential
//! baseline, if the deadline-armed pool is more than 5% slower than
//! the ungoverned one, if abort-armed regions launch more than 1.5×
//! slower than unarmed ones, or if parsing the large corpus lines costs
//! more per byte than its bound. A gate whose cell is wider than the machine is
//! skipped, printed as skipped, and listed under `gates_skipped` in the
//! artifact.
//!
//! With `--trajectory PATH`, one JSON line per run — git sha, date,
//! machine, and every exhibit's median — is *appended* to `PATH`
//! (`BENCH_trajectory.jsonl` by convention), building a bench history
//! across commits that CI archives as an artifact.

use rand::prelude::*;
use serde::Serialize;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use wlp_analyze::compile_source;
use wlp_bench::run_line;
use wlp_core::undo::VersionedArray;
use wlp_core::{speculative_while, SpeculativeArray};
use wlp_ir::exec::Schedule;
use wlp_ir::interp::Machine as LoopMachine;
use wlp_pd::Shadow;
use wlp_runtime::{
    doall_dynamic, doall_with, parallel_scan_inclusive, CancelFlag, ChunkPolicy, Deadline,
    DoallOptions, DoallOutcome, IssueOrder, Pool, Step,
};
use wlp_serve::proto::parse_request;
use wlp_serve::{fnv1a64_i64s, register_builtins};
use wlp_workloads::sources::{corpus, machine_inputs};
use wlp_workloads::{spice, track};

/// Slowdown bound for `--gate`: a parallel construct at the largest pool
/// size may be at most this much slower than its sequential baseline.
const GATE_SLOWDOWN: f64 = 1.5;

/// Deadline-polling bound for `--gate`: a deadline-armed pool may be at
/// most this much slower than the ungoverned resident pool on the same
/// work.
const WATCHDOG_GATE: f64 = 1.05;

/// Armed-dispatch bound for `--gate`: back-to-back small regions on an
/// abort- or deadline-armed handle may take at most this much longer than
/// on a plain one — both are read by the region's own polling, so arming
/// a region launches nothing.
const ARMED_GATE: f64 = 1.5;

/// Ingest bounds for `--gate`, ns per parsed byte: the corpus lines at
/// `n = 16384` must stay under the first (3.8 before the tokenizer took
/// integer runs itself, ≈ 1 since), and a client that writes `", "`
/// between elements must pay no more than everyone paid before that.
const INGEST_GATES: [(&str, f64); 2] = [
    ("ingest/parse/large/p1", 1.8),
    ("ingest/parse/large-spaced/p1", 3.8),
];

#[derive(Serialize, Clone)]
struct Machine {
    os: String,
    arch: String,
    cpus: usize,
}

#[derive(Serialize)]
struct RunConfig {
    smoke: bool,
    repeats: usize,
    warmup: usize,
}

#[derive(Serialize)]
struct Exhibit {
    /// Unique id: `family/mode/policy/p{p}`.
    name: String,
    family: String,
    /// `seq`, `resident`, `abort`, `deadline` or `spec`; for `layers`,
    /// the layer (`pd`, `undo`).
    mode: String,
    /// Chunk policy label (`-` where not applicable); for `layers`, the
    /// operation; for `spice`, the General method when not General-3.
    policy: String,
    p: usize,
    /// Problem size (iterations; for `dispatch`, iterations per region).
    n: usize,
    repeats: usize,
    median_ns: u64,
    q1_ns: u64,
    q3_ns: u64,
    iqr_ns: u64,
    /// Name of the exhibit this one is measured against, if any.
    baseline: Option<String>,
    /// `baseline_median / median` (> 1 means faster than the baseline).
    speedup_vs_baseline: Option<f64>,
    /// Whether `--gate` applies its slowdown bound to this exhibit.
    gated: bool,
    /// The median over each unit of work one repeat does, headline unit
    /// first (`ingest`: byte, request; `interp`: iter, op; `digest`:
    /// element; `layers`: access or element; compute `one` cells:
    /// claim). Empty for the families timed as a whole.
    per_unit: Vec<UnitCost>,
}

#[derive(Serialize)]
struct UnitCost {
    unit: &'static str,
    ns: f64,
}

#[derive(Serialize)]
struct BenchFile {
    schema: String,
    machine: Machine,
    config: RunConfig,
    /// Every `--gate` bound this machine was too small to check, with
    /// the reason; filled whether or not `--gate` was passed.
    gates_skipped: Vec<String>,
    exhibits: Vec<Exhibit>,
}

/// The headline exhibit every run must record: the sequential compute
/// baseline every other compute cell is normalized against. A trajectory
/// line without it cannot anchor cross-commit comparisons.
const HEADLINE_EXHIBIT: &str = "compute/seq/-/p1";

/// Appends one trajectory line to `path` via the shared
/// [`wlp_bench::trajectory`] scoreboard (the same file `serve-chaos`
/// folds its headline numbers into).
fn append_trajectory(path: &str, file: &BenchFile) -> std::io::Result<()> {
    use wlp_bench::trajectory::{TrajectoryExhibit, TrajectoryRecord};
    let exhibits = file
        .exhibits
        .iter()
        .map(|e| TrajectoryExhibit {
            name: e.name.clone(),
            median_ns: e.median_ns,
            value: e.per_unit.first().map(|u| u.ns),
            speedup_vs_baseline: e.speedup_vs_baseline,
        })
        .collect();
    TrajectoryRecord::now("wlp-bench", file.config.smoke, exhibits).append_to(path)
}

/// Post-append self-check: the last line of `path` must parse back
/// through [`TrajectoryRecord::parse`] as this run's record and carry
/// the headline exhibit with a real timing. Returns the error text
/// instead of a record so the caller can fail the gate with it.
fn verify_trajectory(path: &str) -> Result<(), String> {
    use wlp_bench::trajectory::TrajectoryRecord;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let last = text
        .lines()
        .last()
        .ok_or_else(|| format!("{path}: no trajectory lines after append"))?;
    let rec = TrajectoryRecord::parse(last).map_err(|e| format!("{path}: last line: {e}"))?;
    if rec.source != "wlp-bench" {
        return Err(format!(
            "{path}: last line has source `{}`, expected `wlp-bench`",
            rec.source
        ));
    }
    let headline = rec
        .exhibits
        .iter()
        .find(|e| e.name == HEADLINE_EXHIBIT)
        .ok_or_else(|| format!("{path}: record carries no `{HEADLINE_EXHIBIT}` exhibit"))?;
    if headline.median_ns == 0 {
        return Err(format!(
            "{path}: headline exhibit `{HEADLINE_EXHIBIT}` recorded a zero median"
        ));
    }
    Ok(())
}

struct Stats {
    median_ns: u64,
    q1_ns: u64,
    q3_ns: u64,
}

/// Times `f` `warmup + repeats` times; returns nearest-rank quartiles
/// over the timed repeats.
fn measure(warmup: usize, repeats: usize, mut f: impl FnMut()) -> Stats {
    for _ in 0..warmup {
        f();
    }
    let mut ns: Vec<u64> = (0..repeats)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    ns.sort_unstable();
    let at = |q: f64| ns[((ns.len() as f64 * q) as usize).min(ns.len() - 1)];
    let median = if ns.len() % 2 == 1 {
        ns[ns.len() / 2]
    } else {
        (ns[ns.len() / 2 - 1] + ns[ns.len() / 2]) / 2
    };
    Stats {
        median_ns: median,
        q1_ns: at(0.25),
        q3_ns: at(0.75),
    }
}

/// The synthetic compute kernel: enough flops that a claim is cheap
/// relative to the body, little enough that dispatch is still visible.
fn flops(i: usize) -> f64 {
    let mut v = i as f64 + 1.0;
    for _ in 0..40 {
        v = v * 1.000001 + 0.3;
    }
    v
}

struct Sizes {
    compute_n: usize,
    spice_n: usize,
    track_n: usize,
    track_exit: usize,
    dispatch_n: usize,
    dispatch_regions: usize,
    contention_n: usize,
}

impl Sizes {
    fn full() -> Self {
        Sizes {
            compute_n: 200_000,
            spice_n: 50_000,
            track_n: 20_000,
            track_exit: 15_000,
            dispatch_n: 256,
            dispatch_regions: 200,
            contention_n: 100_000,
        }
    }

    fn smoke() -> Self {
        Sizes {
            compute_n: 40_000,
            spice_n: 10_000,
            track_n: 4_000,
            track_exit: 3_000,
            dispatch_n: 256,
            dispatch_regions: 50,
            contention_n: 20_000,
        }
    }
}

struct Harness {
    warmup: usize,
    repeats: usize,
    exhibits: Vec<Exhibit>,
}

impl Harness {
    #[allow(clippy::too_many_arguments)] // flat exhibit descriptor, mirrors the JSON row
    fn run(
        &mut self,
        family: &str,
        mode: &str,
        policy: &str,
        p: usize,
        n: usize,
        baseline: Option<&str>,
        gated: bool,
        f: impl FnMut(),
    ) {
        let name = format!("{family}/{mode}/{policy}/p{p}");
        let s = measure(self.warmup, self.repeats, f);
        let speedup = baseline
            .and_then(|b| self.exhibits.iter().find(|e| e.name == b))
            .map(|b| b.median_ns as f64 / s.median_ns.max(1) as f64);
        println!(
            "  {name:<40} median {:>12} ns  iqr {:>10} ns{}",
            s.median_ns,
            s.q3_ns - s.q1_ns,
            speedup.map_or(String::new(), |x| format!("  speedup {x:.2}x")),
        );
        self.exhibits.push(Exhibit {
            name,
            family: family.to_string(),
            mode: mode.to_string(),
            policy: policy.to_string(),
            p,
            n,
            repeats: self.repeats,
            median_ns: s.median_ns,
            q1_ns: s.q1_ns,
            q3_ns: s.q3_ns,
            iqr_ns: s.q3_ns - s.q1_ns,
            baseline: baseline.map(str::to_string),
            speedup_vs_baseline: speedup,
            gated,
            per_unit: Vec::new(),
        });
    }

    /// States the exhibit just run per unit of its work too: `units` says
    /// how many of each one repeat did.
    fn per_unit(&mut self, units: &[(&'static str, usize)]) {
        let e = self.exhibits.last_mut().expect("run pushed the exhibit");
        e.per_unit = units
            .iter()
            .map(|&(unit, count)| UnitCost {
                unit,
                ns: e.median_ns as f64 / count as f64,
            })
            .collect();
        let costs: Vec<String> = e
            .per_unit
            .iter()
            .zip(units)
            .map(|(u, (_, count))| format!("{:.2} ns/{} ({count})", u.ns, u.unit))
            .collect();
        println!("  {:<40} {}", "", costs.join("  "));
    }
}

fn pool_sizes() -> Vec<usize> {
    vec![1, 2, 4]
}

fn policies() -> Vec<ChunkPolicy> {
    vec![
        ChunkPolicy::One,
        ChunkPolicy::Fixed(32),
        ChunkPolicy::Guided { min: 4 },
    ]
}

/// A dynamic DOALL claiming chunks by `policy`; the body discards `vpn`.
fn doall_chunked(
    pool: &Pool,
    n: usize,
    policy: ChunkPolicy,
    body: impl Fn(usize) + Sync,
) -> DoallOutcome {
    let opts = DoallOptions {
        order: IssueOrder::Dynamic(policy),
        ..DoallOptions::default()
    };
    doall_with(
        pool,
        n,
        opts,
        |_| (),
        |i, ()| {
            body(i);
            Step::Continue
        },
    )
}

fn run_all(h: &mut Harness, sizes: &Sizes) {
    // -- ingest: request line -> typed request, the first layer -----------
    // Single-threaded, so it runs before the pools below have put the
    // host's cpus through a burst.
    println!("ingest (corpus run lines):");
    run_ingest(h, "small", 512, false, ",");
    run_ingest(h, "large", 16_384, false, ",");
    run_ingest(h, "large-random", 16_384, true, ",");
    run_ingest(h, "large-spaced", 16_384, false, ", ");

    // -- interp, digest: what a request executes and what its reply hashes -
    println!("interp (corpus plans, n = {INTERP_N}):");
    run_interp(h);

    // -- analyze: what one certificate-cache miss computes ----------------
    println!("analyze (compile_source, {ANALYZE_PROGRAMS} programs a repeat):");
    for groups in [1, 2, 4] {
        run_analyze(h, groups);
    }

    // -- layers: §7's Td, Ta and Tb, one operation at a time --------------
    println!("layers (pd m = {PD_MARK_M}, analyze and undo n = {LAYER_N}):");
    run_layers(h);

    // -- compute: sequential baseline, then every (p, policy) cell --------
    println!("compute (n = {}):", sizes.compute_n);
    let n = sizes.compute_n;
    h.run("compute", "seq", "-", 1, n, None, false, || {
        let mut acc = 0.0f64;
        for i in 0..n {
            acc += flops(i);
        }
        black_box(acc);
    });
    for &p in &pool_sizes() {
        let pool = Pool::new(p);
        for policy in policies() {
            h.run(
                "compute",
                "resident",
                &policy.label(),
                p,
                n,
                Some("compute/seq/-/p1"),
                p > 1,
                || {
                    doall_chunked(&pool, n, policy, |i| {
                        black_box(flops(i));
                    });
                },
            );
            if policy == ChunkPolicy::One {
                h.per_unit(&[("claim", n)]);
            }
        }
    }

    // -- scan: §3.2's parallel prefix against the sequential scan ---------
    println!("scan (n = {LAYER_N}):");
    run_scan(h);

    // -- spice: linked-list LOAD via General-3 ----------------------------
    println!("spice (n = {}):", sizes.spice_n);
    let list = spice::build_device_list(sizes.spice_n, 42);
    let dt = 1e-3;
    h.run("spice", "seq", "-", 1, sizes.spice_n, None, false, || {
        black_box(spice::load_sequential(&list, dt));
    });
    for &p in &pool_sizes() {
        let pool = Pool::new(p);
        let mut methods = vec![("-", spice::Method::General3)];
        if p == 2 {
            methods.push(("general1", spice::Method::General1));
            methods.push(("general2", spice::Method::General2));
        }
        for (label, method) in methods {
            h.run(
                "spice",
                "resident",
                label,
                p,
                sizes.spice_n,
                Some("spice/seq/-/p1"),
                false, // overhead exhibit: tiny bodies measure the dispatcher
                || {
                    black_box(spice::load_parallel(&pool, &list, dt, method));
                },
            );
        }
    }

    // -- track: speculative DOALL with checkpoint + PD test + undo --------
    println!(
        "track (n = {}, exit at {}):",
        sizes.track_n, sizes.track_exit
    );
    let inst = track::TrackInstance::new(sizes.track_n, sizes.track_exit, 7);
    h.run("track", "seq", "-", 1, sizes.track_n, None, false, || {
        black_box(inst.run_sequential());
    });
    for &p in &pool_sizes() {
        let pool = Pool::new(p);
        h.run(
            "track",
            "resident",
            "-",
            p,
            sizes.track_n,
            Some("track/seq/-/p1"),
            false, // speculation overhead is the quantity under study
            || {
                black_box(inst.run_parallel(&pool));
            },
        );
    }

    // -- dispatch: many tiny regions back to back on the resident pool ----
    println!(
        "dispatch ({} regions of {} iterations):",
        sizes.dispatch_regions, sizes.dispatch_n
    );
    let (n, regions) = (sizes.dispatch_n, sizes.dispatch_regions);
    for &p in &pool_sizes() {
        // p = 1 runs inline and dispatches nothing: its rows show what a
        // guard adds to an inline region.
        let resident = Pool::new(p);
        let abort = resident.with_abort(Arc::new(CancelFlag::new()));
        let deadline = resident.with_deadline(Deadline::from_millis(60_000));
        let base = format!("dispatch/resident/-/p{p}");
        for (mode, pool, baseline) in [
            ("resident", &resident, None),
            ("abort", &abort, Some(base.as_str())),
            ("deadline", &deadline, Some(base.as_str())),
        ] {
            // the armed rows are gated separately: within ARMED_GATE of
            // the baseline at every p the machine can seat
            h.run("dispatch", mode, "-", p, n, baseline, false, || {
                for _ in 0..regions {
                    doall_dynamic(pool, n, |i, _| {
                        black_box(i);
                        Step::Continue
                    });
                }
            });
        }
    }

    // -- watchdog: deadline-armed pool vs ungoverned resident pool --------
    println!("watchdog (n = {}):", sizes.compute_n);
    let n = sizes.compute_n;
    for &p in &pool_sizes() {
        if p == 1 {
            continue; // inline regions have no lanes to watch
        }
        let plain = Pool::new(p);
        h.run("watchdog", "resident", "-", p, n, None, false, || {
            doall_chunked(&plain, n, ChunkPolicy::Guided { min: 4 }, |i| {
                black_box(flops(i));
            });
        });
        // A deadline far beyond the region's runtime: every region's
        // flag is armed and polled against the clock without ever
        // expiring, so the delta against the plain pool is pure polling
        // overhead.
        let armed = plain.with_deadline(Deadline::from_millis(60_000));
        h.run(
            "watchdog",
            "deadline",
            "-",
            p,
            n,
            Some(&format!("watchdog/resident/-/p{p}")),
            false, // gated separately: within WATCHDOG_GATE of the baseline
            || {
                doall_chunked(&armed, n, ChunkPolicy::Guided { min: 4 }, |i| {
                    black_box(flops(i));
                });
            },
        );
    }

    // -- contention: tiny bodies at full width — the claim-path exhibit --
    // The body is a single black_box, so every cell measures the cost of
    // *getting* an iteration, not running it: the shared-cursor claim
    // (`one`), the amortized claim (`fixed32`), and the shadow-marking +
    // undo-stamping fast path (`spec`). Full pool width maximizes claim
    // collisions.
    let p = pool_sizes().into_iter().max().unwrap_or(1).max(4);
    let n = sizes.contention_n;
    println!("contention (n = {n}, p = {p}):");
    h.run("contention", "seq", "-", 1, n, None, false, || {
        let mut acc = 0usize;
        for i in 0..n {
            acc = acc.wrapping_add(black_box(i));
        }
        black_box(acc);
    });
    let pool = Pool::new(p);
    for policy in [ChunkPolicy::One, ChunkPolicy::Fixed(32)] {
        h.run(
            "contention",
            "resident",
            &policy.label(),
            p,
            n,
            Some("contention/seq/-/p1"),
            false, // pure dispatcher overhead: tracked, not gated
            || {
                doall_chunked(&pool, n, policy, |i| {
                    black_box(i);
                });
            },
        );
    }
    // Stamp-dense speculation: every iteration reads and writes its own
    // element, so the run commits in parallel while every single body
    // exercises the relaxed shadow CAS, the undo fetch_min fast path and
    // the batched charge flush — the lock-free marking protocol end to
    // end, with nothing else to hide behind.
    let mut arr = SpeculativeArray::new(vec![0u64; n]);
    h.run(
        "contention",
        "spec",
        "one",
        p,
        n,
        Some("contention/seq/-/p1"),
        false,
        || {
            let out = speculative_while(
                &pool,
                n,
                &arr,
                |_, _| false,
                |i, a| {
                    let v = a.read(i);
                    a.write(i, v.wrapping_add(1));
                },
            );
            black_box(out.committed_parallel);
            arr.commit();
        },
    );
}

/// The `ingest` family: what it costs to turn the corpus `run` lines at
/// problem size `n` into typed requests, before any layer the other
/// families time gets to run. `random` redraws every array that is not
/// constant the way `benchmark/src/gen.rs` draws it — seeded, uniform
/// below the array's modulus, a shuffle for gather_scatter's permutation
/// — because the corpus arrays are periodic (`i % 7`), which a branch
/// predictor learns and seeded traffic does not repeat; `separator` is
/// what stands between two elements.
fn run_ingest(h: &mut Harness, label: &str, n: usize, random: bool, separator: &str) {
    let mut rng = StdRng::seed_from_u64(1);
    let lines: Vec<String> = corpus()
        .iter()
        .map(|(name, src)| {
            let (mut arrays, scalars) = machine_inputs(name, n);
            if random {
                for (array, data) in arrays.iter_mut() {
                    let modulus = data.iter().max().map_or(1, |&top| top + 1);
                    if array == "idx" {
                        data.shuffle(&mut rng);
                    } else if data.iter().any(|&x| x != data[0]) {
                        data.fill_with(|| rng.gen_range(0..modulus));
                    }
                }
            }
            run_line("bench", src, &arrays, &scalars, 2 * n + 4, separator)
        })
        .collect();
    let bytes: usize = lines.iter().map(String::len).sum();
    h.run("ingest", "parse", label, 1, n, None, false, || {
        for line in &lines {
            let parsed = parse_request(black_box(line));
            assert!(parsed.is_ok(), "corpus line rejected: {parsed:?}");
            black_box(parsed).ok();
        }
    });
    h.per_unit(&[("byte", bytes), ("request", lines.len())]);
}

/// The daemon's large problem size: where executing dominates a request.
const INTERP_N: usize = 16_384;

/// The `interp` and `digest` families: each corpus template's plan on
/// frames bound before the clock starts, so a repeat is `run_sequential`
/// / `run_speculative` and nothing else; then the reply digest over all
/// the templates' arrays.
fn run_interp(h: &mut Harness) {
    let pools = [Pool::new(1), Pool::new(2)];
    let max_iters = 2 * INTERP_N + 4;
    // a stdin request's stop: never raised, no link, no expiry
    let never = CancelFlag::new();
    let mut digested: Vec<Vec<i64>> = Vec::new();
    for (name, src) in corpus() {
        let (_, _, plan) = compile_source(src).expect("corpus compiles");
        let (arrays, scalars) = machine_inputs(name, INTERP_N);
        digested.extend(arrays.iter().map(|(_, data)| data.clone()));
        let mut machine = LoopMachine::default();
        machine.arrays.extend(arrays);
        machine.scalars.extend(scalars);
        register_builtins(&mut machine);
        let bound = machine.bind(&plan);
        let iters = plan
            .run_sequential(&mut bound.clone(), max_iters, &never)
            .expect("corpus runs")
            .iterations;
        let units = [("iter", iters), ("op", iters * plan.ops_per_iter())];

        let mut frames = vec![bound.clone(); h.warmup + h.repeats];
        h.run("interp", "seq", name, 1, INTERP_N, None, false, || {
            let mut frame = frames.pop().expect("one frame per repeat");
            black_box(plan.run_sequential(&mut frame, max_iters, &never)).ok();
        });
        h.per_unit(&units);
        if matches!(plan.schedule(), Schedule::SpeculativeDoall { .. }) {
            let baseline = format!("interp/seq/{name}/p1");
            for pool in &pools {
                let mut frames = vec![bound.clone(); h.warmup + h.repeats];
                h.run(
                    "interp",
                    "spec",
                    name,
                    pool.size(),
                    INTERP_N,
                    Some(&baseline),
                    false,
                    || {
                        let mut frame = frames.pop().expect("one frame per repeat");
                        black_box(plan.run_speculative(&mut frame, pool, max_iters, &never)).ok();
                    },
                );
                h.per_unit(&units);
            }
        }
    }

    let elements: usize = digested.iter().map(Vec::len).sum();
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let wide: Vec<Vec<i64>> = digested
        .iter()
        .map(|data| {
            let xorshift = data.iter().map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state | 1 << 63) as i64
            });
            xorshift.collect()
        })
        .collect();
    for (label, arrays) in [("small", &digested), ("wide", &wide)] {
        h.run("digest", "fnv", label, 1, elements, None, false, || {
            for data in arrays {
                black_box(fnv1a64_i64s(black_box(data)));
            }
        });
        h.per_unit(&[("element", elements)]);
    }
}

/// Programs per `analyze/miss` repeat.
const ANALYZE_PROGRAMS: usize = 64;

/// Corpus template `src` as one group of a generated program: its
/// declarations other than `i` and its body statements other than the
/// `i` update, with every name but `i`, `n`, `g` and the keywords given
/// `suffix`.
fn template_group(src: &str, suffix: &str) -> (String, String) {
    const KEEP: [&str; 7] = ["i", "n", "g", "integer", "while", "exit", "if"];
    let rename = |line: &str| {
        let mut out = String::new();
        let mut word = String::new();
        for ch in line.chars().chain(std::iter::once('\n')) {
            if ch.is_ascii_alphanumeric() || ch == '_' {
                word.push(ch);
                continue;
            }
            if word.starts_with(|c: char| c.is_ascii_alphabetic()) && !KEEP.contains(&&*word) {
                word.push_str(suffix);
            }
            out.push_str(&word);
            word.clear();
            out.push(ch);
        }
        out
    };
    let (mut decls, mut body) = (String::new(), String::new());
    let mut in_body = false;
    for line in src.lines() {
        let t = line.trim();
        if t.starts_with("while") {
            in_body = true;
            continue;
        }
        if t.starts_with("integer i ") || t == "i = i + 1" || t == "}" || t.is_empty() {
            continue;
        }
        if in_body {
            body.push_str("    ");
            body.push_str(&rename(t));
        } else {
            decls.push_str(&rename(t));
        }
    }
    (decls, body)
}

/// A program shaped like the `cold-unique` benchmark workload's: `groups`
/// seeded corpus templates with suffixed names under one induction, and
/// a `salt` declaration that makes every text unique.
fn cold_program(groups: usize, salt: usize, rng: &mut StdRng) -> String {
    let templates = corpus();
    let (mut decls, mut body) = (
        format!("integer i = 1\ninteger salt = {salt}\n"),
        String::new(),
    );
    for k in 0..groups {
        let (_, src) = templates[rng.gen_range(0..templates.len())];
        let (d, b) = template_group(src, &format!("_{k}"));
        decls.push_str(&d);
        body.push_str(&b);
    }
    format!("{decls}while (i < n) {{\n{body}    i = i + 1\n}}")
}

/// The `analyze` family: `compile_source` — parse, lower, the
/// whole-loop certificate and the execution plan lowered under it — over
/// [`ANALYZE_PROGRAMS`] seeded programs of `groups` template groups: one
/// certificate-cache miss each.
fn run_analyze(h: &mut Harness, groups: usize) {
    let mut rng = StdRng::seed_from_u64(groups as u64);
    let programs: Vec<String> = (0..ANALYZE_PROGRAMS)
        .map(|salt| cold_program(groups, salt, &mut rng))
        .collect();
    let stmts: usize = programs
        .iter()
        .map(|src| {
            wlp_ir::parse_loop(src)
                .expect("generated program lowers")
                .len()
        })
        .sum();
    let label = groups.to_string();
    h.run(
        "analyze",
        "miss",
        &label,
        1,
        ANALYZE_PROGRAMS,
        None,
        false,
        || {
            for src in &programs {
                black_box(compile_source(black_box(src)).expect("generated program compiles"));
            }
        },
    );
    h.per_unit(&[("program", ANALYZE_PROGRAMS), ("stmt", stmts)]);
    let e = h.exhibits.last().expect("run pushed the exhibit");
    println!(
        "  {:<40} {:.1} µs/program  {:.2} µs/stmt",
        "",
        e.per_unit[0].ns / 1e3,
        e.per_unit[1].ns / 1e3
    );
}

/// Accesses per `layers/pd` marking repeat: one per shadow element.
const PD_MARK_M: usize = 10_000;

/// Elements per `layers/pd/analyze`, `layers/undo` and `scan` repeat.
const LAYER_N: usize = 100_000;

/// The `layers` family: the shadow marks of the PD test (`Td`), its
/// post-pass (`Ta`), and the checkpoint / time-stamp / undo operations of
/// §4 (`Tb`). Every repeat gets a structure built before the clock
/// starts, so a row times the operation and not the allocation or fill
/// that precedes it.
fn run_layers(h: &mut Harness) {
    let count = h.warmup + h.repeats;

    let m = PD_MARK_M;
    h.run("layers", "pd", "unmarked", 1, m, None, false, || {
        let mut acc = 0usize;
        for e in 0..m {
            acc = acc.wrapping_add(black_box(e));
        }
        black_box(acc);
    });
    h.per_unit(&[("access", m)]);
    let shadows: Vec<Shadow> = (0..2 * count).map(|_| Shadow::new(m)).collect();
    let mut fresh = shadows.iter();
    h.run("layers", "pd", "mark_write", 1, m, None, false, || {
        let sh = fresh.next().expect("one shadow per repeat");
        for e in 0..m {
            sh.iteration(e).mark_write(black_box(e));
        }
        black_box(sh.total_accesses());
    });
    h.per_unit(&[("access", m)]);
    h.run("layers", "pd", "mark_rw", 1, m, None, false, || {
        let sh = fresh.next().expect("one shadow per repeat");
        for e in 0..m {
            let mut mk = sh.iteration(e);
            mk.mark_read(black_box(e));
            mk.mark_write(e);
        }
        black_box(sh.total_accesses());
    });
    h.per_unit(&[("access", 2 * m), ("iter", m)]);

    let n = LAYER_N;
    let marked = Shadow::new(n);
    for e in 0..n {
        let mut mk = marked.iteration(e);
        mk.mark_write(e);
        mk.mark_read(e);
    }
    for p in [1, 2] {
        let pool = Pool::new(p);
        h.run("layers", "pd", "analyze", p, n, None, false, || {
            black_box(marked.analyze(&pool, None, 16).doall);
        });
        h.per_unit(&[("element", n)]);
    }

    let mut inits = vec![(0..n as u64).collect::<Vec<u64>>(); count];
    let mut kept = Vec::with_capacity(count);
    h.run("layers", "undo", "checkpoint", 1, n, None, false, || {
        let init = inits.pop().expect("one vector per repeat");
        kept.push(VersionedArray::new(init));
    });
    h.per_unit(&[("element", n)]);
    drop(kept);
    undo_row(h, "plain_write", false, |arr| {
        for i in 0..n {
            arr.write_direct(i, i as u64);
        }
        black_box(arr.read(n - 1));
    });
    // First writes: each stamp goes from unwritten to its iteration, the
    // RMW path — not the load-and-skip a re-written element takes.
    undo_row(h, "stamped_write", false, |arr| {
        for i in 0..n {
            arr.write(i, i as u64, i);
        }
        black_box(arr.read(n - 1));
    });
    undo_row(h, "undo_half", true, |arr| {
        black_box(arr.undo_past(n / 2));
    });
    undo_row(h, "restore_all", true, |arr| {
        black_box(arr.restore_all());
    });
}

/// One `layers/undo` row: `op` on a fresh `LAYER_N`-element array per
/// repeat — `written`: every element already stamped by its own
/// iteration, the state a finished speculative DOALL leaves behind.
fn undo_row(h: &mut Harness, name: &str, written: bool, op: impl Fn(&VersionedArray<u64>)) {
    let n = LAYER_N;
    let arrays: Vec<VersionedArray<u64>> = (0..h.warmup + h.repeats)
        .map(|_| {
            let arr = VersionedArray::new(vec![0u64; n]);
            if written {
                for i in 0..n {
                    arr.write(i, 1, i);
                }
            }
            arr
        })
        .collect();
    let mut next = arrays.iter();
    h.run("layers", "undo", name, 1, n, None, false, || {
        op(next.next().expect("one array per repeat"));
    });
    h.per_unit(&[("element", n)]);
}

/// The `scan` family: an inclusive prefix sum over `LAYER_N` integers,
/// sequentially and through `parallel_scan_inclusive` per pool size, each
/// repeat on its own copy of the input.
fn run_scan(h: &mut Harness) {
    let n = LAYER_N;
    let base: Vec<i64> = (0..n as i64).collect();
    let count = h.warmup + h.repeats;
    let mut inputs = vec![base.clone(); count];
    let mut next = inputs.iter_mut();
    h.run("scan", "seq", "-", 1, n, None, false, || {
        let xs = next.next().expect("one input per repeat");
        for i in 1..xs.len() {
            xs[i] += xs[i - 1];
        }
        black_box(xs.last().copied());
    });
    for &p in &pool_sizes() {
        let pool = Pool::new(p);
        let mut inputs = vec![base.clone(); count];
        let mut next = inputs.iter_mut();
        h.run(
            "scan",
            "prefix",
            "-",
            p,
            n,
            Some("scan/seq/-/p1"),
            false,
            || {
                let xs = next.next().expect("one input per repeat");
                parallel_scan_inclusive(&pool, xs, |a, b| a + b);
                black_box(xs.last().copied());
            },
        );
    }
}

/// What `--gate` found: the bounds that failed, and the bounds it could
/// not check on this machine.
struct GateReport {
    checked: usize,
    failures: Vec<String>,
    skipped: Vec<String>,
}

/// `--gate`: every gated exhibit at the largest pool size must be within
/// [`GATE_SLOWDOWN`] of its baseline and the deadline-armed pool within
/// [`WATCHDOG_GATE`] of the plain one; abort- and deadline-armed
/// dispatch must be within [`ARMED_GATE`] of plain dispatch at every pool
/// size. A cell
/// wider than the machine (`p > cpus`) is skipped — oversubscription
/// contention is not a regression in the construct — and says so. The
/// single-threaded [`INGEST_GATES`] are absolute and always checked.
fn gate(exhibits: &[Exhibit], cpus: usize) -> GateReport {
    let max_p = pool_sizes().into_iter().max().unwrap_or(1);
    let mut report = GateReport {
        checked: 0,
        failures: Vec::new(),
        skipped: Vec::new(),
    };
    for e in exhibits {
        let (gate, floor, widest_only) = if e.gated {
            ("slowdown", 1.0 / GATE_SLOWDOWN, true)
        } else if e.family == "watchdog" && e.mode == "deadline" {
            ("watchdog", 1.0 / WATCHDOG_GATE, true)
        } else if e.family == "dispatch" && (e.mode == "abort" || e.mode == "deadline") {
            ("armed-dispatch", 1.0 / ARMED_GATE, false)
        } else {
            continue;
        };
        if widest_only && e.p != max_p {
            continue;
        }
        let Some(s) = e.speedup_vs_baseline else {
            continue;
        };
        if e.p > cpus {
            report.skipped.push(format!(
                "{}: {gate} gate skipped, p = {} is wider than this machine's {cpus} cpus",
                e.name, e.p
            ));
            continue;
        }
        report.checked += 1;
        if s < floor {
            report.failures.push(format!(
                "{}: {s:.2}x of {} ({gate} gate allows no less than {floor:.2}x)",
                e.name,
                e.baseline.as_deref().unwrap_or("?"),
            ));
        }
    }
    for (name, bound) in INGEST_GATES {
        let per_byte = exhibits
            .iter()
            .find(|e| e.name == name)
            .and_then(|e| e.per_unit.first());
        let Some(cost) = per_byte else {
            continue;
        };
        report.checked += 1;
        if cost.ns > bound {
            report.failures.push(format!(
                "{name}: {:.2} ns/{} (ingest gate allows no more than {bound})",
                cost.ns, cost.unit
            ));
        }
    }
    report
}

fn main() {
    let mut smoke = false;
    let mut apply_gate = false;
    let mut out = String::from("BENCH_runtime.json");
    let mut trajectory: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--gate" => apply_gate = true,
            "--out" => out = args.next().expect("--out needs a path"),
            "--trajectory" => trajectory = Some(args.next().expect("--trajectory needs a path")),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: wlp-bench [--smoke] [--gate] [--out PATH] [--trajectory PATH]");
                std::process::exit(2);
            }
        }
    }

    let sizes = if smoke { Sizes::smoke() } else { Sizes::full() };
    let (warmup, repeats) = if smoke { (1, 5) } else { (2, 9) };
    let mut h = Harness {
        warmup,
        repeats,
        exhibits: Vec::new(),
    };
    run_all(&mut h, &sizes);

    let machine = Machine {
        os: std::env::consts::OS.to_string(),
        arch: std::env::consts::ARCH.to_string(),
        cpus: std::thread::available_parallelism().map_or(1, |c| c.get()),
    };
    let gates = gate(&h.exhibits, machine.cpus);
    let file = BenchFile {
        schema: "wlp-bench-runtime/v3".to_string(),
        machine,
        config: RunConfig {
            smoke,
            repeats,
            warmup,
        },
        gates_skipped: gates.skipped,
        exhibits: h.exhibits,
    };
    std::fs::write(&out, serde::json::to_string(&file)).expect("write bench file");
    println!("wrote {out}");

    if let Some(path) = &trajectory {
        append_trajectory(path, &file).expect("append trajectory record");
        if let Err(e) = verify_trajectory(path) {
            eprintln!("trajectory verification FAILED: {e}");
            std::process::exit(1);
        }
        println!("appended trajectory record to {path} (headline `{HEADLINE_EXHIBIT}` verified)");
    }

    if apply_gate {
        for s in &file.gates_skipped {
            println!("gate: {s}");
        }
        if !gates.failures.is_empty() {
            eprintln!("gate FAILED:");
            for f in &gates.failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
        println!(
            "gate: {} bounds checked and held, {} skipped",
            gates.checked,
            file.gates_skipped.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_template_group_suffixes_every_name_it_owns() {
        let src = corpus().into_iter().find(|(n, _)| *n == "swap").unwrap().1;
        let (decls, body) = template_group(src, "_2");
        assert_eq!(decls, "integer tmp_2 = 0\n");
        assert_eq!(
            body,
            "    tmp_2 = A_2[2 * i]\n    A_2[2 * i] = A_2[2 * i - 1]\n    A_2[2 * i - 1] = tmp_2\n"
        );
        let src = corpus()
            .into_iter()
            .find(|(n, _)| *n == "guarded_update")
            .unwrap()
            .1;
        let (_, body) = template_group(src, "_0");
        assert_eq!(
            body,
            "    A_0[i] = g(A_0[i])\n    exit if (A_0[i] > limit_0)\n"
        );
    }

    #[test]
    fn cold_programs_lower_with_one_induction() {
        let mut rng = StdRng::seed_from_u64(4);
        for salt in 0..32 {
            let src = cold_program(4, salt, &mut rng);
            let body = wlp_ir::parse_loop(&src).unwrap_or_else(|e| panic!("{src}\n{e:?}"));
            // counted_fill's `s` is the only update a template brings
            let counted = src.matches("integer s_").count();
            assert_eq!(body.updates().count(), 1 + counted, "{src}");
        }
    }
}
