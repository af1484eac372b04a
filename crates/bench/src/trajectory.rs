//! The bench-trajectory scoreboard: one JSONL history shared by every
//! bench binary.
//!
//! `BENCH_trajectory.jsonl` is the repo's performance memory — one line
//! per bench run, keyed by commit and machine, so a regression shows up
//! as a *trend* across commits instead of a single noisy number. The
//! runtime suite (`wlp-bench`) and the chaos harness (`serve-chaos`)
//! fold their headline medians into the same file through this module;
//! the `source` field says which harness wrote the line.
//!
//! The file is **append-only by design**: it is a history, and a run
//! must never rewrite the runs before it. Consumers group lines by
//! `(machine.os, machine.arch, machine.cpus)` before comparing medians —
//! cross-machine nanoseconds are not comparable — and may compare
//! dimensionless `value` exhibits (hit ratios, recovery counts) across
//! machines freely.

use serde::Serialize;

/// The trajectory schema tag. Additive JSON: `source` and per-exhibit
/// `value` joined after v1 shipped, and absent fields stay absent rather
/// than bumping the version.
pub const TRAJECTORY_SCHEMA: &str = "wlp-bench-trajectory/v1";

/// The host fingerprint consumers group trajectory lines by.
#[derive(Serialize, Clone, Debug)]
pub struct Machine {
    /// `std::env::consts::OS`.
    pub os: String,
    /// `std::env::consts::ARCH`.
    pub arch: String,
    /// Logical CPUs at run time.
    pub cpus: usize,
}

impl Machine {
    /// The current host.
    pub fn detect() -> Machine {
        Machine {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            cpus: std::thread::available_parallelism().map_or(1, |c| c.get()),
        }
    }
}

/// One exhibit's footprint in a trajectory record: just the identity and
/// the headline numbers — enough to plot a bench history across commits
/// without dragging a whole result row along.
#[derive(Serialize, Clone, Debug)]
pub struct TrajectoryExhibit {
    /// Exhibit name, unique within its `source`.
    pub name: String,
    /// Median wall time (0 for exhibits that are not timings).
    pub median_ns: u64,
    /// Dimensionless headline (hit ratio, recovered count, …) for
    /// exhibits whose story is not a duration.
    pub value: Option<f64>,
    /// Speedup against the exhibit's own baseline, when it has one.
    pub speedup_vs_baseline: Option<f64>,
}

/// One line of `BENCH_trajectory.jsonl`: a machine-keyed snapshot of one
/// harness's headline numbers at a commit.
#[derive(Serialize, Clone, Debug)]
pub struct TrajectoryRecord {
    /// [`TRAJECTORY_SCHEMA`].
    pub schema: String,
    /// Which harness wrote the line: `wlp-bench` or `serve-chaos`.
    pub source: String,
    /// The commit under test.
    pub git_sha: String,
    /// UTC calendar date, `YYYY-MM-DD`.
    pub date: String,
    /// Seconds since the Unix epoch, for exact ordering within a day.
    pub unix_time: u64,
    /// The host that produced the numbers.
    pub machine: Machine,
    /// Whether this was a reduced `--smoke` run (smoke medians are not
    /// comparable to full-run medians).
    pub smoke: bool,
    /// The headline numbers.
    pub exhibits: Vec<TrajectoryExhibit>,
}

impl TrajectoryRecord {
    /// A record for `source`'s `exhibits` on this host at this commit,
    /// stamped with the current time.
    pub fn now(source: &str, smoke: bool, exhibits: Vec<TrajectoryExhibit>) -> TrajectoryRecord {
        let unix = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        TrajectoryRecord {
            schema: TRAJECTORY_SCHEMA.to_string(),
            source: source.to_string(),
            git_sha: git_sha(),
            date: utc_date(unix),
            unix_time: unix,
            machine: Machine::detect(),
            smoke,
            exhibits,
        }
    }

    /// Appends this record as one JSON line to `path`, creating the file
    /// on first use. Append-only by design (see the module docs).
    pub fn append_to(&self, path: &str) -> std::io::Result<()> {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        writeln!(f, "{}", serde::json::to_string(self))
    }

    /// Parses one JSONL line back into a record — the read side of
    /// [`append_to`](Self::append_to), used by scoreboard consumers and by the bench
    /// gate's post-append self-check. Unknown fields are ignored
    /// (additive schema); a missing or mistyped required field is an
    /// error naming the field.
    pub fn parse(line: &str) -> Result<TrajectoryRecord, String> {
        let v = serde::json::parse(line).map_err(|e| format!("trajectory line: {e}"))?;
        let text = |node: &serde::Value, key: &str| -> Result<String, String> {
            node.get(key)
                .and_then(|x| x.as_str().map(str::to_string))
                .ok_or_else(|| format!("missing or non-string `{key}`"))
        };
        let schema = text(&v, "schema")?;
        if schema != TRAJECTORY_SCHEMA {
            return Err(format!("unknown schema `{schema}`"));
        }
        let m = v.get("machine").ok_or("missing `machine`")?;
        let machine = Machine {
            os: text(m, "os")?,
            arch: text(m, "arch")?,
            cpus: m
                .get("cpus")
                .and_then(|x| x.as_u64())
                .ok_or("missing or non-integer `machine.cpus`")? as usize,
        };
        let mut exhibits = Vec::new();
        for (k, e) in v
            .get("exhibits")
            .and_then(|x| x.as_array())
            .ok_or("missing or non-array `exhibits`")?
            .iter()
            .enumerate()
        {
            exhibits.push(TrajectoryExhibit {
                name: text(e, "name").map_err(|err| format!("exhibits[{k}]: {err}"))?,
                median_ns: e
                    .get("median_ns")
                    .and_then(|x| x.as_u64())
                    .ok_or_else(|| format!("exhibits[{k}]: missing `median_ns`"))?,
                value: e.get("value").and_then(|x| x.as_f64()),
                speedup_vs_baseline: e.get("speedup_vs_baseline").and_then(|x| x.as_f64()),
            });
        }
        Ok(TrajectoryRecord {
            schema,
            source: text(&v, "source")?,
            git_sha: text(&v, "git_sha")?,
            date: text(&v, "date")?,
            unix_time: v
                .get("unix_time")
                .and_then(|x| x.as_u64())
                .ok_or("missing or non-integer `unix_time`")?,
            machine,
            smoke: v
                .get("smoke")
                .and_then(|x| x.as_bool())
                .ok_or("missing or non-bool `smoke`")?,
            exhibits,
        })
    }
}

/// The commit under test: `GITHUB_SHA` in CI, else `git rev-parse HEAD`
/// in the checkout this binary was built from (whatever the working
/// directory), `unknown` when that is no checkout.
pub fn git_sha() -> String {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        if !sha.is_empty() {
            return sha;
        }
    }
    std::process::Command::new("git")
        .args(["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Civil-from-days (Howard Hinnant's algorithm): epoch seconds to a UTC
/// `YYYY-MM-DD` string, without pulling in a date crate.
pub fn utc_date(unix: u64) -> String {
    let days = (unix / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utc_date_matches_known_days() {
        assert_eq!(utc_date(0), "1970-01-01");
        assert_eq!(utc_date(86_400), "1970-01-02");
        assert_eq!(utc_date(951_868_800), "2000-03-01"); // leap-year pivot
        assert_eq!(utc_date(1_754_006_400), "2025-08-01");
    }

    #[test]
    fn records_serialize_with_schema_source_and_optionals() {
        let rec = TrajectoryRecord::now(
            "wlp-bench",
            true,
            vec![TrajectoryExhibit {
                name: "ingest/parse/large/p1".into(),
                median_ns: 0,
                value: Some(0.73),
                speedup_vs_baseline: None,
            }],
        );
        let line = serde::json::to_string(&rec);
        assert!(
            line.contains("\"schema\":\"wlp-bench-trajectory/v1\""),
            "{line}"
        );
        assert!(line.contains("\"source\":\"wlp-bench\""), "{line}");
        assert!(line.contains("\"value\":0.73"), "{line}");
        assert!(line.contains("\"smoke\":true"), "{line}");
        assert!(!rec.git_sha.is_empty());
    }

    #[test]
    fn parse_round_trips_append_to() {
        let path = std::env::temp_dir().join(format!(
            "wlp-trajectory-roundtrip-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let rec = TrajectoryRecord::now(
            "wlp-bench",
            true,
            vec![
                TrajectoryExhibit {
                    name: "resident_pool".into(),
                    median_ns: 123_456,
                    value: None,
                    speedup_vs_baseline: Some(3.25),
                },
                TrajectoryExhibit {
                    name: "cache_hit_ratio".into(),
                    median_ns: 0,
                    value: Some(0.5),
                    speedup_vs_baseline: None,
                },
            ],
        );
        rec.append_to(path.to_str().unwrap()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let back = TrajectoryRecord::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(back.schema, TRAJECTORY_SCHEMA);
        assert_eq!(back.source, rec.source);
        assert_eq!(back.git_sha, rec.git_sha);
        assert_eq!(back.date, rec.date);
        assert_eq!(back.unix_time, rec.unix_time);
        assert_eq!(back.machine.os, rec.machine.os);
        assert_eq!(back.machine.arch, rec.machine.arch);
        assert_eq!(back.machine.cpus, rec.machine.cpus);
        assert!(back.smoke);
        assert_eq!(back.exhibits.len(), 2);
        assert_eq!(back.exhibits[0].name, "resident_pool");
        assert_eq!(back.exhibits[0].median_ns, 123_456);
        assert_eq!(back.exhibits[0].value, None);
        assert_eq!(back.exhibits[0].speedup_vs_baseline, Some(3.25));
        assert_eq!(back.exhibits[1].value, Some(0.5));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn parse_rejects_garbage_and_wrong_schema() {
        assert!(TrajectoryRecord::parse("not json").is_err());
        assert!(TrajectoryRecord::parse("{}").is_err());
        let wrong = r#"{"schema":"other/v9","source":"x"}"#;
        let err = TrajectoryRecord::parse(wrong).unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn append_to_is_append_only() {
        let path =
            std::env::temp_dir().join(format!("wlp-trajectory-test-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let rec = TrajectoryRecord::now("wlp-bench", false, Vec::new());
        rec.append_to(path.to_str().unwrap()).unwrap();
        rec.append_to(path.to_str().unwrap()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2, "each run adds exactly one line");
        let _ = std::fs::remove_file(&path);
    }
}
