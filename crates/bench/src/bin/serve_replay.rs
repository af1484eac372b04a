//! Traffic replay against an in-process `wlp-serve` [`Service`]: the
//! latency/cache exhibit for the multi-tenant daemon.
//!
//! ```text
//! cargo run -p wlp-bench --release --bin serve-replay                # full run
//! cargo run -p wlp-bench --release --bin serve-replay -- --smoke    # CI-sized
//! cargo run -p wlp-bench --release --bin serve-replay -- --smoke --gate
//! cargo run -p wlp-bench --release --bin serve-replay -- --out /tmp/s.json
//! ```
//!
//! Two arrival disciplines over the `wlp-workloads::sources` corpus
//! (5 distinct programs — a serve working set small enough that the
//! certificate cache should absorb nearly every request):
//!
//! * **closed-loop** — `clients` tenant threads, each issuing its next
//!   request the moment the previous response lands: measures service
//!   capacity under sustained pressure.
//! * **open-loop** — one dispatcher issuing at a fixed arrival interval
//!   regardless of completions: measures latency at a target offered
//!   load, queueing included.
//!
//! The artifact (`BENCH_serve.json`) records per-phase request counts,
//! p50/p99/mean latency, throughput, and the cache hit/miss counters —
//! plus a **cold-vs-warm start comparison**: the corpus replayed against
//! a fresh persistent service (every request a miss) and again against a
//! service warm-restarted from the first one's `--state-dir` (every
//! request should hit recovered certificates without a single analysis).
//! With `--gate`, the run fails (exit 1) if any response is not `ok`,
//! or if the end-to-end cache-hit ratio falls below
//! [`GATE_HIT_RATIO`] — the acceptance bar for a working set this hot.
//! With `--trajectory PATH`, the headline numbers are appended to the
//! shared bench-trajectory scoreboard.

use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wlp_bench::corpus_run_line;
use wlp_serve::{ServeConfig, Service};
use wlp_workloads::sources::corpus;

/// Minimum cache-hit ratio `--gate` accepts: ≥100 requests over ≤10
/// distinct programs must land at least 80% hits.
const GATE_HIT_RATIO: f64 = 0.8;

#[derive(Serialize)]
struct Machine {
    os: String,
    arch: String,
    cpus: usize,
}

#[derive(Serialize)]
struct RunConfig {
    smoke: bool,
    programs: usize,
    problem_n: usize,
    closed_clients: usize,
    closed_requests: usize,
    open_requests: usize,
    open_interarrival_us: u64,
}

#[derive(Serialize)]
struct Phase {
    /// `closed` or `open`.
    name: String,
    requests: usize,
    ok: usize,
    /// Total failed responses (`retriable + fatal`, kept for dashboards
    /// built against the old schema).
    errors: usize,
    /// Rejections that carry `retry_after_ms` — admission pushback
    /// (tenant_busy, overloaded, budget_exhausted, timeout, draining,
    /// tenant_circuit_open). Expected under deliberate overload.
    retriable: usize,
    /// Errors with no retry hint (parse_error, exec_error, bad_request)
    /// — a correctness problem at any load.
    fatal: usize,
    p50_us: u64,
    p99_us: u64,
    mean_us: u64,
    /// Requests per second over the phase's wall time.
    throughput_rps: f64,
}

#[derive(Serialize)]
struct CacheCounters {
    hits: u64,
    misses: u64,
    hit_ratio: f64,
}

/// The cold-vs-warm exhibit: what a `--state-dir` buys a restarting
/// daemon. Cold pays one full analysis per distinct program; warm serves
/// the same corpus from certificates recovered off disk.
#[derive(Serialize)]
struct StartComparison {
    /// Corpus size replayed in each pass.
    programs: usize,
    /// First-pass wall time against the fresh (cold) service, µs.
    cold_first_pass_us: u64,
    /// Cache misses the cold first pass paid (equals `programs`).
    cold_misses: u64,
    /// The cold service's hit ratio on its second (post-warmup) pass —
    /// the bar the warm restart must meet.
    cold_warm_ratio: f64,
    /// First-pass wall time against the warm-restarted service, µs.
    warm_first_pass_us: u64,
    /// Cache hits on the warm service's FIRST pass (recovered state).
    warm_hits: u64,
    /// `warm_hits / programs`.
    warm_hit_ratio: f64,
    /// Certificates the warm service recovered at startup.
    recovered_entries: u64,
    /// Records recovery refused (must be 0 on an undamaged state dir).
    skipped_corrupt: u64,
}

#[derive(Serialize)]
struct BenchFile {
    schema: &'static str,
    machine: Machine,
    config: RunConfig,
    phases: Vec<Phase>,
    cache: CacheCounters,
    start_comparison: Option<StartComparison>,
}

fn percentile(sorted_us: &[u64], pct: usize) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = (sorted_us.len() * pct / 100).min(sorted_us.len() - 1);
    sorted_us[idx]
}

/// Classifies one response line: `Ok`, or failed retriably (the
/// response carries a `retry_after_ms` hint), or failed fatally.
enum Outcome {
    Ok,
    Retriable,
    Fatal,
}

fn classify(resp: &str) -> Outcome {
    if resp.contains("\"ok\":true") {
        Outcome::Ok
    } else if resp.contains("\"retry_after_ms\":") {
        Outcome::Retriable
    } else {
        Outcome::Fatal
    }
}

fn phase_from(
    name: &str,
    latencies_us: &mut [u64],
    ok: usize,
    retriable: usize,
    fatal: usize,
    wall: Duration,
) -> Phase {
    latencies_us.sort_unstable();
    let mean = if latencies_us.is_empty() {
        0
    } else {
        latencies_us.iter().sum::<u64>() / latencies_us.len() as u64
    };
    Phase {
        name: name.to_string(),
        requests: latencies_us.len(),
        ok,
        errors: retriable + fatal,
        retriable,
        fatal,
        p50_us: percentile(latencies_us, 50),
        p99_us: percentile(latencies_us, 99),
        mean_us: mean,
        throughput_rps: latencies_us.len() as f64 / wall.as_secs_f64().max(1e-9),
    }
}

/// Closed loop: `clients` tenants, back-to-back requests, round-robin
/// over the corpus (offset per tenant so misses spread out).
fn closed_loop(service: &Service, clients: usize, total: usize, n: usize) -> Phase {
    let programs = corpus();
    let ok = AtomicU64::new(0);
    let retriable = AtomicU64::new(0);
    let fatal = AtomicU64::new(0);
    let start = Instant::now();
    let mut all: Vec<u64> = Vec::with_capacity(total);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let programs = &programs;
                let ok = &ok;
                let retriable = &retriable;
                let fatal = &fatal;
                scope.spawn(move || {
                    let tenant = format!("client{c}");
                    let share = total / clients + usize::from(c < total % clients);
                    let mut lat = Vec::with_capacity(share);
                    for r in 0..share {
                        let (name, src) = programs[(c + r) % programs.len()];
                        let line = corpus_run_line(&tenant, name, src, n);
                        let t0 = Instant::now();
                        let resp = service.handle_line(&line);
                        lat.push(t0.elapsed().as_micros() as u64);
                        match classify(&resp) {
                            Outcome::Ok => ok.fetch_add(1, Ordering::Relaxed),
                            Outcome::Retriable => retriable.fetch_add(1, Ordering::Relaxed),
                            Outcome::Fatal => fatal.fetch_add(1, Ordering::Relaxed),
                        };
                    }
                    lat
                })
            })
            .collect();
        for h in handles {
            all.extend(h.join().expect("client thread"));
        }
    });
    phase_from(
        "closed",
        &mut all,
        ok.load(Ordering::Relaxed) as usize,
        retriable.load(Ordering::Relaxed) as usize,
        fatal.load(Ordering::Relaxed) as usize,
        start.elapsed(),
    )
}

/// Open loop: fixed interarrival, one tenant per corpus program, latency
/// measured per request (the issuing thread absorbs queueing delay —
/// by the time the corpus is warm every request is a cache hit, so the
/// service keeps up with any sane interval).
fn open_loop(service: &Service, total: usize, interarrival: Duration, n: usize) -> Phase {
    let programs = corpus();
    let mut lat = Vec::with_capacity(total);
    let mut ok = 0usize;
    let mut retriable = 0usize;
    let mut fatal = 0usize;
    let start = Instant::now();
    for r in 0..total {
        let next_arrival = start + interarrival * r as u32;
        if let Some(wait) = next_arrival.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let (name, src) = programs[r % programs.len()];
        let line = corpus_run_line(&format!("open-{name}"), name, src, n);
        let t0 = Instant::now();
        let resp = service.handle_line(&line);
        lat.push(t0.elapsed().as_micros() as u64);
        match classify(&resp) {
            Outcome::Ok => ok += 1,
            Outcome::Retriable => retriable += 1,
            Outcome::Fatal => fatal += 1,
        }
    }
    phase_from("open", &mut lat, ok, retriable, fatal, start.elapsed())
}

/// Replays the corpus once, sequentially; returns wall µs and ok count.
fn one_pass(service: &Service, tenant: &str, n: usize) -> (u64, usize) {
    let start = Instant::now();
    let mut ok = 0usize;
    for (name, src) in corpus() {
        let resp = service.handle_line(&corpus_run_line(tenant, name, src, n));
        if resp.contains("\"ok\":true") {
            ok += 1;
        }
    }
    (start.elapsed().as_micros() as u64, ok)
}

/// The cold-vs-warm start exhibit: build a persistent service, pay the
/// cold misses, restart from its state dir, and measure what recovery
/// saves. In-process, so the numbers exclude process spawn — this
/// isolates exactly the cost the certificate store eliminates.
fn start_comparison(n: usize) -> StartComparison {
    let state_dir = std::env::temp_dir().join(format!("wlp-replay-state-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let pcfg = wlp_serve::persist::PersistConfig::at(&state_dir);
    let persist_config = |pcfg: wlp_serve::persist::PersistConfig| ServeConfig {
        persist: Some(pcfg),
        ..ServeConfig::default()
    };

    let cold = Service::new(persist_config(pcfg.clone()));
    let (cold_us, _) = one_pass(&cold, "cold", n);
    let cold_misses = cold.cache_misses();
    let (_, _) = one_pass(&cold, "cold", n); // post-warmup pass
    let cold_warm_ratio = cold.cache_hit_ratio();
    drop(cold); // release the state-dir LOCK, as a graceful shutdown would

    let warm = Service::new(persist_config(pcfg));
    let store_stats = {
        let store = warm.persist_store().expect("persistence configured");
        (store.loaded(), store.skipped_corrupt())
    };
    let (warm_us, _) = one_pass(&warm, "warm", n);
    let warm_hits = warm.cache_hits();
    drop(warm);
    let _ = std::fs::remove_dir_all(&state_dir);

    let programs = corpus().len();
    StartComparison {
        programs,
        cold_first_pass_us: cold_us,
        cold_misses,
        cold_warm_ratio,
        warm_first_pass_us: warm_us,
        warm_hits,
        warm_hit_ratio: warm_hits as f64 / programs as f64,
        recovered_entries: store_stats.0,
        skipped_corrupt: store_stats.1,
    }
}

fn main() {
    let mut smoke = false;
    let mut apply_gate = false;
    let mut out = "BENCH_serve.json".to_string();
    let mut trajectory: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--gate" => apply_gate = true,
            "--out" => out = args.next().expect("--out needs a path"),
            "--trajectory" => trajectory = Some(args.next().expect("--trajectory needs a path")),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: serve-replay [--smoke] [--gate] [--out PATH] [--trajectory PATH]"
                );
                std::process::exit(2);
            }
        }
    }

    let cpus = std::thread::available_parallelism().map_or(4, |p| p.get());
    let (problem_n, closed_clients, closed_requests, open_requests, interarrival) = if smoke {
        (64, 2, 120, 60, Duration::from_micros(400))
    } else {
        (512, 4, 1000, 400, Duration::from_micros(250))
    };
    let config = ServeConfig {
        workers: cpus.clamp(2, 8),
        lane_width: 2,
        ..ServeConfig::default()
    };
    let service = Arc::new(Service::new(config));

    let phases = vec![
        closed_loop(&service, closed_clients, closed_requests, problem_n),
        open_loop(&service, open_requests, interarrival, problem_n),
    ];

    let cache = CacheCounters {
        hits: service.cache_hits(),
        misses: service.cache_misses(),
        hit_ratio: service.cache_hit_ratio(),
    };
    let comparison = start_comparison(problem_n);
    let file = BenchFile {
        schema: "wlp-bench-serve-v1",
        machine: Machine {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            cpus,
        },
        config: RunConfig {
            smoke,
            programs: corpus().len(),
            problem_n,
            closed_clients,
            closed_requests,
            open_requests,
            open_interarrival_us: interarrival.as_micros() as u64,
        },
        phases,
        cache,
        start_comparison: Some(comparison),
    };
    std::fs::write(&out, serde::json::to_string(&file)).expect("write bench file");
    for p in &file.phases {
        eprintln!(
            "serve-replay {}: {} requests, {} ok ({} retriable, {} fatal), p50 {}us p99 {}us, {:.0} req/s",
            p.name, p.requests, p.ok, p.retriable, p.fatal, p.p50_us, p.p99_us, p.throughput_rps
        );
    }
    eprintln!(
        "serve-replay cache: {} hits / {} misses (ratio {:.3}) -> {}",
        file.cache.hits, file.cache.misses, file.cache.hit_ratio, out
    );
    if let Some(c) = &file.start_comparison {
        eprintln!(
            "serve-replay start: cold {}us ({} misses) vs warm {}us ({} of {} hits, {} recovered)",
            c.cold_first_pass_us,
            c.cold_misses,
            c.warm_first_pass_us,
            c.warm_hits,
            c.programs,
            c.recovered_entries,
        );
    }

    if let Some(path) = &trajectory {
        use wlp_bench::trajectory::{TrajectoryExhibit, TrajectoryRecord};
        let mut exhibits: Vec<TrajectoryExhibit> = file
            .phases
            .iter()
            .map(|p| TrajectoryExhibit {
                name: format!("serve_{}_p50", p.name),
                median_ns: p.p50_us * 1_000,
                value: None,
                speedup_vs_baseline: None,
            })
            .collect();
        exhibits.push(TrajectoryExhibit {
            name: "serve_cache_hit_ratio".into(),
            median_ns: 0,
            value: Some(file.cache.hit_ratio),
            speedup_vs_baseline: None,
        });
        if let Some(c) = &file.start_comparison {
            exhibits.push(TrajectoryExhibit {
                name: "serve_warm_start_first_pass".into(),
                median_ns: c.warm_first_pass_us * 1_000,
                value: Some(c.warm_hit_ratio),
                speedup_vs_baseline: Some(
                    c.cold_first_pass_us as f64 / c.warm_first_pass_us.max(1) as f64,
                ),
            });
        }
        TrajectoryRecord::now("serve-replay", smoke, exhibits)
            .append_to(path)
            .expect("append trajectory record");
        eprintln!("serve-replay: appended trajectory record to {path}");
    }

    if apply_gate {
        let mut failures = Vec::new();
        for p in &file.phases {
            // fatal errors gate; retriable pushback is the admission
            // valves doing their job and only warns
            if p.fatal > 0 {
                failures.push(format!(
                    "{}: {} of {} requests failed fatally",
                    p.name, p.fatal, p.requests
                ));
            }
            if p.retriable > 0 {
                eprintln!(
                    "gate note: {} retriable rejection(s) in phase {}",
                    p.retriable, p.name
                );
            }
            if p.p99_us == 0 {
                failures.push(format!("{}: no latency recorded", p.name));
            }
        }
        let total: usize = file.phases.iter().map(|p| p.requests).sum();
        if total < 100 {
            failures.push(format!("only {total} requests replayed (need >= 100)"));
        }
        if file.cache.hit_ratio < GATE_HIT_RATIO {
            failures.push(format!(
                "cache-hit ratio {:.3} below gate {GATE_HIT_RATIO}",
                file.cache.hit_ratio
            ));
        }
        if let Some(c) = &file.start_comparison {
            // the warm restart must serve the corpus at least as hot as
            // the cold daemon after its warmup, off recovered state alone
            if c.warm_hit_ratio < c.cold_warm_ratio {
                failures.push(format!(
                    "warm-start hit ratio {:.3} below cold post-warmup ratio {:.3}",
                    c.warm_hit_ratio, c.cold_warm_ratio
                ));
            }
            if c.recovered_entries == 0 {
                failures.push("warm start recovered zero certificates".into());
            }
            if c.skipped_corrupt != 0 {
                failures.push(format!(
                    "{} records skipped on an undamaged state dir",
                    c.skipped_corrupt
                ));
            }
        }
        if !failures.is_empty() {
            eprintln!("gate FAILED:");
            for f in &failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
        eprintln!("gate passed");
    }
}
