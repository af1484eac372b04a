//! Output: the per-run table, the driver's JSON line, result files, and
//! the `compare` / `repeat` judgements by the bounds in `BENCHMARK.json`.

use crate::bench::{Better, RunOutput, END_TO_END};
use crate::daemon;
use crate::gen::Workload;
use crate::stats;
use serde::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

fn nproc() -> u64 {
    std::thread::available_parallelism().map_or(1, |p| p.get() as u64)
}

/// Every metric of one run, by name, with its unit.
pub fn table(run: &RunOutput) -> String {
    let mut out = format!(
        "## {} seed {} — {} metrics, {} attempted, {} failed{}\n",
        run.workload.name(),
        run.seed,
        if run.traced_run {
            "per-layer"
        } else {
            "end-to-end"
        },
        run.attempted,
        run.failed,
        if run.correct { "" } else { " — INCORRECT" },
    );
    for m in &run.metrics {
        let _ = writeln!(
            out,
            "  {:<38} {:>14.4} {:<6} q1 {:.4} q3 {:.4} ({} samples)",
            m.name, m.value, m.unit, m.q1, m.q3, m.samples
        );
    }
    out
}

fn run_value(run: &RunOutput, full: bool) -> Value {
    let metrics = run
        .metrics
        .iter()
        .map(|m| {
            let mut fields = vec![
                ("value".to_string(), Value::Float(m.value)),
                ("unit".to_string(), Value::Str(m.unit.to_string())),
            ];
            if full {
                fields.extend([
                    ("q1".to_string(), Value::Float(m.q1)),
                    ("q3".to_string(), Value::Float(m.q3)),
                    ("samples".to_string(), Value::UInt(m.samples)),
                    (
                        "observations".to_string(),
                        Value::Array(m.observations.iter().map(|&x| Value::Float(x)).collect()),
                    ),
                ]);
            }
            (m.name.to_string(), Value::Object(fields))
        })
        .collect();
    let mut fields = Vec::new();
    if full {
        fields.extend([
            (
                "workload".to_string(),
                Value::Str(run.workload.name().into()),
            ),
            ("seed".to_string(), Value::UInt(run.seed)),
            ("trace".to_string(), Value::UInt(u64::from(run.traced_run))),
        ]);
    }
    fields.extend([
        ("correct".to_string(), Value::Bool(run.correct)),
        ("attempted".to_string(), Value::UInt(run.attempted)),
        ("failed".to_string(), Value::UInt(run.failed)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    Value::Object(fields)
}

/// The one JSON object the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`, each metric a value as measured and its unit.
pub fn driver_line(run: &RunOutput) -> String {
    run_value(run, false).to_string()
}

fn results_value(runs: Vec<Value>) -> Value {
    Value::Object(vec![
        ("schema".to_string(), Value::Str("wlp-benchmark-v1".into())),
        ("nproc".to_string(), Value::UInt(nproc())),
        ("runs".to_string(), Value::Array(runs)),
    ])
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn load_runs(path: &Path) -> Result<Vec<Value>, String> {
    read_json(path)?
        .get("runs")
        .and_then(Value::as_array)
        .map(<[Value]>::to_vec)
        .ok_or_else(|| format!("{}: no `runs` array", path.display()))
}

/// Adds `runs` to the result file at `path`, keeping the runs already in
/// it: ten invocations with ten seeds give `compare` ten runs a side.
pub fn append_results(path: &Path, runs: &[RunOutput]) -> Result<(), String> {
    let mut all = if path.exists() {
        load_runs(path)?
    } else {
        Vec::new()
    };
    all.extend(runs.iter().map(|r| run_value(r, true)));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, format!("{}\n", results_value(all)))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// `name → bound` of the end-to-end metrics, from the contract file at
/// the repository root.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let doc = read_json(&daemon::repo_root().join("BENCHMARK.json"))?;
    let list = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without name")?;
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("metric without bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// One side of a comparison: per run of `workload` (end-to-end runs
/// only), the metric's value; with a single run, its per-round
/// observations stand in for runs.
fn observations(runs: &[Value], workload: &str, metric: &str) -> Vec<f64> {
    let of: Vec<&Value> = runs
        .iter()
        .filter(|r| r.get("workload").and_then(Value::as_str) == Some(workload))
        .filter_map(|r| r.get("metrics")?.get(metric))
        .collect();
    match of[..] {
        [single] => single
            .get("observations")
            .and_then(Value::as_array)
            .map(|a| a.iter().filter_map(Value::as_f64).collect())
            .unwrap_or_default(),
        _ => of
            .iter()
            .filter_map(|m| m.get("value").and_then(Value::as_f64))
            .collect(),
    }
}

fn failed_share(runs: &[Value], workload: &str) -> (u64, u64) {
    runs.iter()
        .filter(|r| r.get("workload").and_then(Value::as_str) == Some(workload))
        .fold((0, 0), |(f, a), r| {
            let n = |k: &str| r.get(k).and_then(Value::as_u64).unwrap_or(0);
            (f + n("failed"), a + n("attempted"))
        })
}

/// The `choosing-metrics` verdict on one (workload, metric) pairing.
/// `worse` only beyond the bound; `unresolved`, not unchanged, when the
/// run-to-run spread is wider than the bound — unless every run of B
/// reads better than every run of A.
pub fn verdict(a: &[f64], b: &[f64], bound: f64, better: Better) -> (f64, &'static str) {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let spread = stats::spread(a).max(stats::spread(b));
    let every_b_better = match better {
        Better::Lower => b.iter().all(|y| a.iter().all(|x| y < x)),
        Better::Higher => b.iter().all(|y| a.iter().all(|x| y > x)),
    };
    let word = if spread > bound {
        if every_b_better {
            "better (every run)"
        } else {
            "unresolved"
        }
    } else if worse_by > bound {
        "worse"
    } else if worse_by < -bound {
        "better"
    } else {
        "within bound"
    };
    (worse_by, word)
}

fn compare_runs(a: &[Value], b: &[Value]) -> Result<String, String> {
    let bounds = bounds()?;
    let mut out = format!(
        "{:<12} {:<20} {:>12} {:>25} {:>12} {:>25} {:>9} {:>6}  verdict\n",
        "workload",
        "metric",
        "A median",
        "A [q1, q3] (n)",
        "B median",
        "B [q1, q3] (n)",
        "B/A",
        "bound"
    );
    for w in Workload::ALL {
        for def in &END_TO_END {
            let (oa, ob) = (
                observations(a, w.name(), def.name),
                observations(b, w.name(), def.name),
            );
            if oa.is_empty() || ob.is_empty() {
                continue;
            }
            let bound = *bounds
                .get(def.name)
                .ok_or_else(|| format!("BENCHMARK.json does not bound {}", def.name))?;
            let (a1, a2, a3) = stats::quartiles(&oa);
            let (b1, b2, b3) = stats::quartiles(&ob);
            let (_, word) = verdict(&oa, &ob, bound, def.better);
            let _ = writeln!(
                out,
                "{:<12} {:<20} {:>12.3} {:>25} {:>12.3} {:>25} {:>9.4} {:>6.2}  {word}",
                w.name(),
                format!("{} [{}]", def.name, def.unit),
                a2,
                format!("[{a1:.3}, {a3:.3}] ({})", oa.len()),
                b2,
                format!("[{b1:.3}, {b3:.3}] ({})", ob.len()),
                b2 / a2,
                bound,
            );
        }
        let ((fa, na), (fb, nb)) = (failed_share(a, w.name()), failed_share(b, w.name()));
        let _ = writeln!(
            out,
            "{:<12} failed operations: A {fa} of {na}, B {fb} of {nb}",
            w.name()
        );
    }
    out.push_str("B/A is B's median over A's (base A); spread is (q3 - q1) / median\n");
    Ok(out)
}

/// `compare A.json B.json`.
pub fn compare(a: &str, b: &str) -> Result<String, String> {
    compare_runs(&load_runs(Path::new(a))?, &load_runs(Path::new(b))?)
}

/// `repeat`: two full sets from one build, judged like two commits, plus
/// the counts that must repeat exactly.
pub fn repeat(first: &[RunOutput], second: &[RunOutput]) -> Result<String, String> {
    let values = |runs: &[RunOutput]| runs.iter().map(|r| run_value(r, true)).collect::<Vec<_>>();
    let mut out = format!(
        "repeatability on nproc = {}: second set (B) against first (A)\n",
        nproc()
    );
    out.push_str(&compare_runs(&values(first), &values(second))?);
    for name in ["serve.ran_parallel_share", "serve.rung_sequential_share"] {
        for (x, y) in first.iter().zip(second) {
            let find = |r: &RunOutput| r.metrics.iter().find(|m| m.name == name).map(|m| m.value);
            if let (Some(vx), Some(vy)) = (find(x), find(y)) {
                let _ = writeln!(
                    out,
                    "{:<12} {name}: {vx} then {vy} — {}",
                    x.workload.name(),
                    if vx == vy { "identical" } else { "DIFFERENT" }
                );
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_only_beyond_the_bound() {
        let a = [100.0, 101.0, 99.0, 100.0, 100.0];
        let slower = [108.0, 109.0, 107.0, 108.0, 108.0];
        assert_eq!(verdict(&a, &slower, 0.10, Better::Lower).1, "within bound");
        let much_slower = [120.0, 121.0, 119.0, 120.0, 120.0];
        assert_eq!(verdict(&a, &much_slower, 0.10, Better::Lower).1, "worse");
        // the same numbers are good news for a higher-is-better metric
        assert_eq!(verdict(&a, &much_slower, 0.10, Better::Higher).1, "better");
    }

    #[test]
    fn a_wide_spread_is_unresolved_not_unchanged() {
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        let same = [81.0, 99.0, 121.0, 91.0, 109.0];
        assert_eq!(verdict(&noisy, &same, 0.10, Better::Lower).1, "unresolved");
        // ... unless every run of B beats every run of A
        let far_better = [40.0, 50.0, 60.0, 45.0, 55.0];
        assert_eq!(
            verdict(&noisy, &far_better, 0.10, Better::Lower).1,
            "better (every run)"
        );
    }

    #[test]
    fn one_run_is_compared_by_its_rounds_and_several_by_their_values() {
        let run = |w: &str, value: f64, obs: &[f64]| {
            serde::json::parse(&format!(
                r#"{{"workload":"{w}","metrics":{{"latency_p50_us":{{"value":{value},"observations":{obs:?}}}}}}}"#
            ))
            .unwrap()
        };
        let one = [
            run("hot-small", 2.0, &[1.0, 2.0, 3.0]),
            run("hot-large", 9.0, &[9.0]),
        ];
        assert_eq!(
            observations(&one, "hot-small", "latency_p50_us"),
            [1.0, 2.0, 3.0]
        );
        let two = [
            run("hot-small", 2.0, &[1.0, 2.0, 3.0]),
            run("hot-small", 4.0, &[4.0]),
        ];
        assert_eq!(
            observations(&two, "hot-small", "latency_p50_us"),
            [2.0, 4.0]
        );
        assert!(observations(&two, "open-mixed", "latency_p50_us").is_empty());
    }
}
