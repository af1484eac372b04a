//! One benchmark run: set a daemon up, warm it, drive the measured rounds,
//! check everything, and assemble the metrics by name.

use crate::daemon::{self, Daemon};
use crate::gen::{Generator, Workload, MIX_BLOCK, OPEN_RATE};
use crate::layers;
use crate::load::{self, Conn, Round, Sample};
use crate::stats;
use crate::trace::Tracer;
use crate::yardstick::{Reading, Size, Yardstick};
use serde::Value;
use std::path::Path;
use std::time::{Duration, Instant};

/// `run_seconds` in `BENCHMARK.json`: how long one run measures.
pub const RUN_SECONDS: u64 = 24;
/// Daemons per end-to-end run. Each is set up from scratch (`setup_s` is
/// the median of the set-ups) and then serves a third of the measuring
/// time, so no warm daemon is thrown away and nothing particular to one
/// process (heap layout, thread placement) can own a whole run.
const DAEMONS: usize = 3;

/// How one workload is driven. Request counts are fixed, so every round
/// of a workload is the same mix of requests and what the daemon counts
/// per round (cache hits, rungs, parallel commits) repeats exactly; how
/// many rounds fit is decided by the clock, so a run lasts what
/// `--seconds` says on a slow machine too.
struct Plan {
    /// Warm-up requests: enough that set-up lasts about a second and
    /// every tenant's governor has reached its terminal rung (six
    /// fallbacks walk a tenant down to `sequential`, so 7 templates need
    /// at least 56 requests).
    warmup: usize,
    /// Requests per measured round: a whole number of the workload's
    /// cycles (templates × variants, the collision period, the mix
    /// block), so the percentiles of every round cut the same mix at the
    /// same place. Every timing metric is the median over all rounds of
    /// the per-round statistic.
    round: usize,
    /// Lines the traced pass replays.
    traced: usize,
    /// The yardstick measured beside this workload.
    yardstick: Size,
    /// Whether a round's timings are divided by the yardstick's. Not on
    /// the open loop: there the arrival schedule sets what the client
    /// sees (see the README), and the schedule does not slow down with
    /// the machine.
    scaled: bool,
}

fn plan(w: Workload) -> Plan {
    match w {
        // 10 cycles of 7 templates × 4 variants, about 0.2 s
        Workload::HotSmall => Plan {
            warmup: 1_400,
            round: 280,
            traced: 2_000,
            yardstick: Size::Small,
            scaled: true,
        },
        // 8 cycles of 7 templates × 2 variants, of which every 32nd
        // request (3 or 4 a round) collides; about 1.3 s
        Workload::HotLarge => Plan {
            warmup: 56,
            round: 112,
            traced: 200,
            yardstick: Size::Large,
            scaled: true,
        },
        // 70 periods of the 1-in-8 certify, about 0.25 s
        Workload::ColdUnique => Plan {
            warmup: 2_000,
            round: 560,
            traced: 2_000,
            yardstick: Size::Small,
            scaled: true,
        },
        // 11 mix blocks: 1.83 s at the fixed rate
        Workload::OpenMixed => Plan {
            warmup: 1_500,
            round: 11 * MIX_BLOCK as usize,
            traced: 500,
            yardstick: Size::Small,
            scaled: false,
        },
    }
}

/// How a run is cut down for `--smoke`.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub smoke: bool,
}

impl Scale {
    /// A traced run and a `--smoke` run use one daemon. The traced run
    /// spends the rest of its time on the in-process traced pass and the
    /// layer kernels.
    fn daemons(self, traced_run: bool) -> usize {
        if self.smoke || traced_run {
            1
        } else {
            DAEMONS
        }
    }

    /// Measuring time of one daemon: a third of the run, a twelfth for
    /// `--smoke` (one round at least either way).
    fn budget(self, seconds: u64) -> Duration {
        let share = if self.smoke { 4 * DAEMONS } else { DAEMONS };
        Duration::from_secs_f64(seconds as f64 / share as f64)
    }

    fn warmup(self, n: usize) -> usize {
        if self.smoke {
            // still the 56 requests the governors need
            n.min((n / 4).max(56))
        } else {
            n
        }
    }

    fn traced(self, n: usize) -> usize {
        if self.smoke {
            n.min(100)
        } else {
            n
        }
    }

    /// Kernel sizes shrink to a tenth.
    fn kernels(self) -> f64 {
        if self.smoke {
            0.1
        } else {
            1.0
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a client of the daemon sees (`--trace 0`).
pub const END_TO_END: [MetricDef; 5] = [
    lower("latency_p50_us", "us"),
    lower("latency_p95_us", "us"),
    higher("throughput_rps", "1/s"),
    lower("daemon_rss_peak_mb", "MB"),
    lower("setup_s", "s"),
];

/// Single layers (`--trace 1`); the layer is the crate name before the dot.
pub const PER_LAYER: [MetricDef; 38] = [
    // from the TCP rounds
    lower("serve.service_p50_us", "us"),
    lower("serve.transport_p50_us", "us"),
    higher("serve.cache_hit_ratio", "ratio"),
    higher("serve.ran_parallel_share", "ratio"),
    lower("serve.rung_sequential_share", "ratio"),
    lower("serve.rejected", "count"),
    lower("serve.cpu_us_per_req", "us"),
    lower("client.raw_latency_p50_us", "us"),
    lower("client.latency_p99_us", "us"),
    lower("client.sched_lag_p95_us", "us"),
    lower("client.yardstick_p50_us", "us"),
    // from the traced in-process pass
    lower("serve.handle_line_p50_us", "us"),
    lower("serve.proto_parse_ns_per_byte", "ns"),
    lower("serve.cache_hit_lookup_ns", "ns"),
    lower("serve.cache_miss_lookup_us", "us"),
    lower("ir.frontend_us_per_program", "us"),
    lower("analyze.analyze_us_per_program", "us"),
    lower("analyze.analyze_us_per_stmt", "us"),
    lower("analyze.fission_plan_us_per_program", "us"),
    lower("ir.interp_seq_ns_per_iter", "ns"),
    lower("ir.interp_par_ns_per_iter", "ns"),
    lower("ir.interp_par_over_seq", "ratio"),
    lower("serve.self_p50_us", "us"),
    lower("serve.self_share", "ratio"),
    lower("trace.overhead_share", "ratio"),
    // layer kernels
    lower("runtime.region_launch_p1_us", "us"),
    lower("runtime.region_launch_p2_us", "us"),
    lower("runtime.scheduler_acquire_ns", "ns"),
    lower("core.spec_setup_ns_per_elem", "ns"),
    lower("runtime.claim_ns", "ns"),
    lower("core.spec_write_ns", "ns"),
    lower("core.spec_read_ns", "ns"),
    lower("pd.mark_ns", "ns"),
    lower("pd.postpass_ns_per_elem", "ns"),
    lower("core.spec_abort_over_seq", "ratio"),
    lower("runtime.doacross_sync_ns", "ns"),
    lower("workloads.track_par_over_seq_p2", "ratio"),
    lower("workloads.spice_par_over_seq_p2", "ratio"),
];

/// One reported metric: the median of its observations (one per round,
/// or per set-up), their quartiles, and how many samples stand behind it.
#[derive(Debug, Clone)]
pub struct MetricValue {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub samples: u64,
    pub observations: Vec<f64>,
}

fn metric(defs: &[MetricDef], name: &str, observations: Vec<f64>, samples: u64) -> MetricValue {
    let def = defs
        .iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric `{name}` is not in the catalogue"));
    let (q1, value, q3) = stats::quartiles(&observations);
    MetricValue {
        name: def.name,
        unit: def.unit,
        value,
        q1,
        q3,
        samples,
        observations,
    }
}

/// What one invocation measured.
#[derive(Debug)]
pub struct RunOutput {
    pub workload: Workload,
    pub seed: u64,
    pub traced_run: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<MetricValue>,
    /// Why `correct` is false, for the operator (stderr).
    pub problems: Vec<String>,
}

/// Operations attempted and failed so far, and everything else that
/// makes a run incorrect.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn count(&mut self, what: &str, attempted: u64, failed: u64, first_failure: Option<&String>) {
        self.attempted += attempted;
        self.failed += failed;
        if let Some(why) = first_failure {
            self.problems
                .push(format!("{what}: {failed} failed, first: {why}"));
        }
    }

    fn round(&mut self, what: &str, round: &Round) {
        self.count(
            what,
            round.attempted,
            round.failed,
            round.first_failure.as_ref(),
        );
        if round.backlog_growing {
            self.problems
                .push(format!("{what}: the backlog was still growing at its end"));
        }
    }
}

/// A warmed daemon with its client connection and request generator.
struct Ready {
    daemon: Daemon,
    conn: Conn,
    gen: Generator,
    setup_s: f64,
}

/// Daemon spawn → ready `ping` → input generation → end of warm-up.
fn set_up(
    bin: &Path,
    workload: Workload,
    seed: u64,
    warmup: usize,
    tally: &mut Tally,
) -> Result<Ready, String> {
    let t0 = Instant::now();
    let daemon = Daemon::spawn(bin)?;
    daemon.ping()?;
    let mut gen = Generator::new(workload, seed, layers::corpus());
    let reqs = gen.phase(warmup);
    let mut conn = Conn::new(daemon.connect()?)?;
    // count-based and closed-loop on every workload: the warm-up is over
    // when its requests are answered, not when a clock says so
    tally.round("warm-up", &load::closed(&mut conn, &reqs));
    Ok(Ready {
        daemon,
        conn,
        gen,
        setup_s: t0.elapsed().as_secs_f64(),
    })
}

/// Everything the TCP side of a run observed, over all its daemons.
#[derive(Default)]
struct Measured {
    /// Per daemon: its set-up time over the yardstick's (see `speed`).
    setups: Vec<f64>,
    rounds: Vec<Round>,
    /// Per round: the machine's speed while it ran ([`Speed::UNSCALED`]
    /// for every round of a workload that is not scaled).
    speed: Vec<Speed>,
    /// Every yardstick reading's median, µs.
    yardstick_us: Vec<f64>,
    /// Per daemon: its `stats` before its first round and after its last.
    stats: Vec<(Value, Value)>,
    cpu_us: f64,
    /// Per daemon: its `VmHWM` after its last round.
    rss_mb: Vec<f64>,
}

impl Measured {
    fn samples(&self) -> u64 {
        self.rounds.iter().map(|r| r.samples.len() as u64).sum()
    }

    /// How far the daemons' counter `key` moved during the rounds.
    fn delta(&self, key: &str) -> Result<f64, String> {
        let stat = |stats: &Value| {
            stats
                .get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("stats has no `{key}`"))
        };
        self.stats
            .iter()
            .map(|(before, after)| Ok(stat(after)? - stat(before)?))
            .sum()
    }

    fn hit_ratio(&self) -> Result<f64, String> {
        let (hits, misses) = (self.delta("cache_hits")?, self.delta("cache_misses")?);
        Ok(hits / (hits + misses).max(1.0))
    }

    /// One observation per round.
    fn each(&self, f: impl Fn(&Round) -> f64) -> Vec<f64> {
        self.rounds.iter().map(f).collect()
    }

    /// Per round, the `p`-th percentile of what `pick` extracts.
    fn percentile(&self, p: f64, pick: impl Fn(&Sample) -> Option<f64>) -> Vec<f64> {
        self.each(|r| stats::percentile_of(r.samples.iter().filter_map(&pick).collect(), p))
    }

    /// Per round, the share of `run` responses `pick` accepts.
    fn share(&self, pick: impl Fn(&Sample) -> bool) -> Vec<f64> {
        self.each(|r| {
            let runs = r.samples.iter().filter(|s| s.service_us.is_some()).count();
            r.samples.iter().filter(|s| pick(s)).count() as f64 / runs.max(1) as f64
        })
    }

    /// Per-round values, each multiplied by what `factor` makes of the
    /// round's speed.
    fn scaled(&self, values: Vec<f64>, factor: impl Fn(&Speed) -> f64) -> Vec<f64> {
        values
            .iter()
            .zip(&self.speed)
            .map(|(v, speed)| v * factor(speed))
            .collect()
    }
}

/// The machine's speed as the yardstick rounds before and after a set-up
/// or a measured round read it: nominal ÷ measured, so above 1 on a fast
/// day; by the yardstick's median and by its mean.
#[derive(Debug, Clone, Copy)]
struct Speed {
    p50: f64,
    mean: f64,
}

impl Speed {
    const UNSCALED: Speed = Speed {
        p50: 1.0,
        mean: 1.0,
    };

    fn between(size: Size, before: Reading, after: Reading) -> Speed {
        let at = Reading::between(before, after);
        Speed {
            p50: size.nominal_us() / at.p50_us,
            mean: size.nominal_us() / at.mean_us,
        }
    }
}

/// Sets up one daemon after another and drives each for its share of the
/// measuring time. Every daemon gets the same requests: the generator
/// starts over with the seed. A yardstick round runs before and after
/// every set-up and every measured round.
fn measure(
    bin: &Path,
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced_run: bool,
    scale: Scale,
    tally: &mut Tally,
) -> Result<Measured, String> {
    let plan = plan(workload);
    let budget = scale.budget(seconds);
    let mut yardstick = Yardstick::start(plan.yardstick)?;
    let mut m = Measured::default();
    for d in 1..=scale.daemons(traced_run) {
        // a set-up is long beside one yardstick round: two on each side
        let before = [yardstick.round()?, yardstick.round()?];
        let Ready {
            daemon,
            mut conn,
            mut gen,
            setup_s,
        } = set_up(bin, workload, seed, scale.warmup(plan.warmup), tally)?;
        let after = [yardstick.round()?, yardstick.round()?];
        let pair = |two: [Reading; 2]| Reading::between(two[0], two[1]);
        m.setups
            .push(setup_s * Speed::between(plan.yardstick, pair(before), pair(after)).mean);
        m.yardstick_us
            .extend(before.iter().chain(&after).map(|r| r.p50_us));
        // the reading after one round is the reading before the next
        let mut last = after[1];
        let stats_before = daemon.stats()?;
        let cpu_before = daemon.cpu_us()?;
        let started = Instant::now();
        let mut longest = Duration::ZERO;
        for r in 1.. {
            let t0 = Instant::now();
            let reqs = gen.phase(plan.round);
            let round = if workload == Workload::OpenMixed {
                let due = gen.schedule(r, plan.round);
                load::open(&mut conn, &reqs, &due, OPEN_RATE)
            } else {
                load::closed(&mut conn, &reqs)
            };
            tally.round(&format!("daemon {d} round {r}"), &round);
            if round.samples.is_empty() {
                return Err(format!(
                    "daemon {d} round {r} got no correct response: {:?}",
                    tally.problems
                ));
            }
            let before = std::mem::replace(&mut last, yardstick.round()?);
            m.yardstick_us.push(last.p50_us);
            m.speed.push(if plan.scaled {
                Speed::between(plan.yardstick, before, last)
            } else {
                Speed::UNSCALED
            });
            m.rounds.push(round);
            // another round only if one as long as the longest still fits
            longest = longest.max(t0.elapsed());
            if started.elapsed() + longest > budget {
                break;
            }
        }
        m.cpu_us += daemon.cpu_us()? - cpu_before;
        m.stats.push((stats_before, daemon.stats()?));
        m.rss_mb.push(daemon.rss_peak_mb()?);
        // the daemon stops here, before the next one starts
    }
    Ok(m)
}

fn latency(s: &Sample) -> Option<f64> {
    Some(s.latency_us)
}

/// The median latency goes by the yardstick's median; the 95th
/// percentile, the rate and the set-up time, which stalls move, by its
/// mean.
fn end_to_end(m: &Measured) -> Vec<MetricValue> {
    let n = m.samples();
    let e = |name, obs, n| metric(&END_TO_END, name, obs, n);
    vec![
        e(
            "latency_p50_us",
            m.scaled(m.percentile(50.0, latency), |s| s.p50),
            n,
        ),
        e(
            "latency_p95_us",
            m.scaled(m.percentile(95.0, latency), |s| s.mean),
            n,
        ),
        e(
            "throughput_rps",
            m.scaled(m.each(|r| r.samples.len() as f64 / r.wall_s), |s| {
                1.0 / s.mean
            }),
            n,
        ),
        e(
            "daemon_rss_peak_mb",
            m.rss_mb.clone(),
            m.rss_mb.len() as u64,
        ),
        e("setup_s", m.setups.clone(), m.setups.len() as u64),
    ]
}

/// The layer metrics the TCP rounds give: response fields, the `stats`
/// op, `/proc/<pid>/stat`. All as measured: only the end-to-end timings
/// have the machine's speed taken out.
fn tcp_layers(m: &Measured) -> Result<Vec<MetricValue>, String> {
    let n = m.samples();
    let l = |name, obs, n| metric(&PER_LAYER, name, obs, n);
    let lookups = m.delta("cache_hits")? + m.delta("cache_misses")?;
    Ok(vec![
        l(
            "serve.service_p50_us",
            m.percentile(50.0, |s| s.service_us),
            n,
        ),
        l(
            "serve.transport_p50_us",
            m.percentile(50.0, |s| s.service_us.map(|svc| s.latency_us - svc)),
            n,
        ),
        l(
            "serve.cache_hit_ratio",
            vec![m.hit_ratio()?],
            lookups as u64,
        ),
        l("serve.ran_parallel_share", m.share(|s| s.ran_parallel), n),
        l(
            "serve.rung_sequential_share",
            m.share(|s| s.rung_sequential),
            n,
        ),
        l("serve.rejected", vec![m.delta("regions_rejected")?], 1),
        l(
            "serve.cpu_us_per_req",
            vec![m.cpu_us / m.delta("requests")?.max(1.0)],
            1,
        ),
        l("client.raw_latency_p50_us", m.percentile(50.0, latency), n),
        l("client.latency_p99_us", m.percentile(99.0, latency), n),
        // a closed loop has no schedule to be late for: its lag is 0
        l(
            "client.sched_lag_p95_us",
            m.each(|r| stats::percentile_of(r.sched_lag_us.clone(), 95.0)),
            n,
        ),
        l(
            "client.yardstick_p50_us",
            m.yardstick_us.clone(),
            m.yardstick_us.len() as u64,
        ),
    ])
}

/// The traced in-process pass, the same pass untraced, and the kernels.
fn traced_layers(
    root: &Path,
    workload: Workload,
    seed: u64,
    scale: Scale,
    tally: &mut Tally,
) -> Result<Vec<MetricValue>, String> {
    let traced_n = scale.traced(plan(workload).traced);
    let lines = Generator::new(workload, seed, layers::corpus()).phase(traced_n);
    // the untraced replay runs before and after the traced one, so a
    // machine that drifts during the three does not read as overhead
    let untraced_before = layers::untraced_handle_line_p50_us(&lines);
    let mut tracer = Tracer::new(true);
    let traced = layers::traced_pass(&lines, &mut tracer);
    let untraced_after = layers::untraced_handle_line_p50_us(&lines);
    tally.count(
        "traced pass",
        lines.len() as u64,
        traced.failed,
        traced.first_failure.as_ref(),
    );
    if !traced.conserved {
        tally.problems.push(
            "traced pass: conservation check failed (at the median request the children exceed the parent by more than 10 %, or self time is negative)"
                .to_string(),
        );
    }
    let path = root.join(format!("benchmark/out/trace-{}.json", workload.name()));
    tracer.write(&path, workload.name(), seed)?;

    let l = |name, value, n| metric(&PER_LAYER, name, vec![value], n);
    let mut metrics: Vec<MetricValue> = traced
        .metrics
        .into_iter()
        .map(|(name, value)| l(name, value, traced_n as u64))
        .collect();
    metrics.push(l(
        "trace.overhead_share",
        traced.handle_line_p50_us / ((untraced_before + untraced_after) / 2.0) - 1.0,
        traced_n as u64,
    ));
    for (name, value) in layers::kernels(scale.kernels(), seed) {
        metrics.push(l(name, value, 1));
    }
    Ok(metrics)
}

/// Runs `workload` once. `traced_run` selects the per-layer metric set
/// (`--trace 1`); otherwise the end-to-end set comes back.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced_run: bool,
    scale: Scale,
) -> Result<RunOutput, String> {
    let root = daemon::repo_root();
    let bin = daemon::build(&root)?;
    let mut tally = Tally::default();
    let measured = measure(&bin, workload, seed, seconds, traced_run, scale, &mut tally)?;

    let hit_ratio = measured.hit_ratio()?;
    let wrong = match workload {
        Workload::HotSmall | Workload::HotLarge => hit_ratio <= 0.99,
        Workload::ColdUnique => hit_ratio >= 0.01,
        Workload::OpenMixed => false,
    };
    if wrong {
        tally.problems.push(format!(
            "cache hit ratio {hit_ratio:.4} is not what {} is built to give",
            workload.name()
        ));
    }

    let metrics = if traced_run {
        let mut metrics = tcp_layers(&measured)?;
        metrics.extend(traced_layers(&root, workload, seed, scale, &mut tally)?);
        metrics
    } else {
        end_to_end(&measured)
    };
    Ok(RunOutput {
        workload,
        seed,
        traced_run,
        correct: tally.failed == 0 && tally.problems.is_empty(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        problems: tally.problems,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// `BENCHMARK.json` is the contract the driver reads; the catalogue
    /// above is what the benchmark prints. They must name the same
    /// metrics, units, directions, workloads and run length.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = daemon::repo_root().join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let doc = serde::json::parse(&text).expect("BENCHMARK.json parses");
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: BTreeSet<(String, String, String)> = doc
                .get(key)
                .and_then(Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect();
            let ours: BTreeSet<(String, String, String)> = defs
                .iter()
                .map(|d| {
                    let better = match d.better {
                        Better::Lower => "lower",
                        Better::Higher => "higher",
                    };
                    (d.name.into(), d.unit.into(), better.into())
                })
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_u64),
            Some(RUN_SECONDS)
        );
    }

    #[test]
    fn metric_value_is_the_median_of_its_observations() {
        let m = metric(
            &END_TO_END,
            "latency_p50_us",
            vec![5.0, 1.0, 3.0, 2.0, 4.0],
            50,
        );
        assert_eq!((m.q1, m.value, m.q3), (1.5, 3.0, 4.5));
        assert_eq!((m.unit, m.samples), ("us", 50));
    }
}
