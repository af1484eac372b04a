//! The repository benchmark: `wlp-serve` request latency and throughput
//! over loopback TCP on four workloads, with a per-layer trace. See
//! `benchmark/README.md`.
//!
//! ```text
//! wlp-benchmark --workload W --seed N --seconds S --trace 0|1   one run, JSON on the last line
//! wlp-benchmark [--smoke] [--seed N] [--out FILE]               every workload, every metric
//! wlp-benchmark repeat [--smoke] [--seed N]                     the full benchmark twice, compared
//! wlp-benchmark compare A.json B.json                           two result files, by the bounds
//! ```

mod bench;
mod daemon;
mod gen;
mod layers;
mod load;
mod reference;
mod report;
mod stats;
mod trace;
mod yardstick;

use bench::{RunOutput, Scale};
use gen::Workload;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: wlp-benchmark --workload <hot-small|hot-large|cold-unique|open-mixed> --seed N --seconds S --trace 0|1 [--smoke]\n\
         \x20      wlp-benchmark [--smoke] [--seed N] [--seconds S] [--out FILE]\n\
         \x20      wlp-benchmark repeat [--smoke] [--seed N] [--seconds S]\n\
         \x20      wlp-benchmark compare A.json B.json"
    );
    ExitCode::from(2)
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    smoke: bool,
    out: Option<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: bench::RUN_SECONDS,
        trace: None,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&parsed.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

/// Runs both metric sets of every workload: what the driver's per-run
/// invocations do, in one process.
fn full(args: &Args) -> Result<Vec<RunOutput>, String> {
    let scale = Scale { smoke: args.smoke };
    let mut runs = Vec::new();
    for workload in Workload::ALL {
        for traced_run in [false, true] {
            eprintln!(
                "wlp-benchmark: {} ({})",
                workload.name(),
                if traced_run {
                    "per-layer"
                } else {
                    "end-to-end"
                }
            );
            let run = bench::run(workload, args.seed, args.seconds, traced_run, scale)?;
            print!("{}", report::table(&run));
            runs.push(run);
        }
    }
    Ok(runs)
}

/// Whether every run was correct; says why not on stderr.
fn all_correct(runs: &[RunOutput]) -> bool {
    for run in runs.iter().filter(|r| !r.correct) {
        for p in &run.problems {
            eprintln!("wlp-benchmark: {}: {p}", run.workload.name());
        }
    }
    runs.iter().all(|r| r.correct)
}

/// One workload, one metric set: the driver's invocation.
fn one(args: &Args, workload: Workload, traced_run: bool) -> Result<bool, String> {
    let scale = Scale { smoke: args.smoke };
    let run = bench::run(workload, args.seed, args.seconds, traced_run, scale)?;
    eprint!("{}", report::table(&run));
    let ok = all_correct(std::slice::from_ref(&run));
    // the driver reads the last line of standard output
    println!("{}", report::driver_line(&run));
    Ok(ok)
}

fn everything(args: &Args) -> Result<bool, String> {
    let runs = full(args)?;
    let out = args.out.clone().map_or_else(
        || daemon::repo_root().join("benchmark/out/result.json"),
        Into::into,
    );
    report::append_results(&out, &runs)?;
    eprintln!("wlp-benchmark: results appended to {}", out.display());
    Ok(all_correct(&runs))
}

fn repeat(args: &Args) -> Result<bool, String> {
    let first = full(args)?;
    let second = full(args)?;
    print!("{}", report::repeat(&first, &second)?);
    Ok(all_correct(&first) & all_correct(&second))
}

fn compare(files: &[String]) -> Option<Result<bool, String>> {
    let [a, b] = files else { return None };
    Some(report::compare(a, b).map(|text| {
        print!("{text}");
        true
    }))
}

/// `None`: the command line made no sense.
fn dispatch(argv: &[String]) -> Option<Result<bool, String>> {
    let (command, rest) = match argv.first().map(String::as_str) {
        Some("compare") => return compare(&argv[1..]),
        Some("repeat") => ("repeat", &argv[1..]),
        _ => ("run", argv),
    };
    let args = match parse(rest) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("wlp-benchmark: {why}");
            return None;
        }
    };
    match (command, args.workload, args.trace) {
        ("repeat", None, None) => Some(repeat(&args)),
        ("run", None, None) => Some(everything(&args)),
        ("run", Some(workload), Some(traced_run)) => Some(one(&args, workload, traced_run)),
        _ => None,
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        None => usage(),
        Some(Ok(true)) => ExitCode::SUCCESS,
        Some(Ok(false)) => ExitCode::FAILURE,
        Some(Err(why)) => {
            eprintln!("wlp-benchmark: {why}");
            ExitCode::FAILURE
        }
    }
}
