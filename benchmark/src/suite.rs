//! The whole set in one command (`all`), and the comparison of two sets
//! (`agree`).
//!
//! `all` does what the driver does: every run is a fresh child process in
//! driver mode, so `peak_rss_mib` is the run's own and nothing carries over
//! from one run to the next.  Its output keeps the
//! run → workload → rep → metrics shape of Cardamon's scenario → run →
//! iteration → metrics datasets, so a later history tool can ingest it.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::run::out_dir;
use crate::stats::{summarize, Summary};
use crate::workloads::{Workload, ALL};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Options of `all`.
pub struct AllArgs {
    pub seed: u64,
    pub reps: u32,
    pub seconds: f64,
    pub quick: bool,
    pub trace: bool,
    pub out: Option<PathBuf>,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|text| !text.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `YYYY-MM-DD` of a count of days since 1970-01-01 (proleptic Gregorian).
fn civil_date(days: i64) -> String {
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

/// The filesystem `path` lives on, from `/proc/mounts`.
fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    std::fs::read_to_string("/proc/mounts")
        .ok()
        .and_then(|mounts| {
            mounts
                .lines()
                .filter_map(|line| {
                    let mut fields = line.split_whitespace();
                    let (_, mount, kind) = (fields.next()?, fields.next()?, fields.next()?);
                    path.starts_with(mount)
                        .then(|| (mount.len(), kind.to_string()))
                })
                .max_by_key(|(len, _)| *len)
                .map(|(_, kind)| kind)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn meta(args: &AllArgs) -> Json {
    let unix_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        (
            "commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("date", Json::Str(civil_date((unix_s / 86_400) as i64))),
        ("rustc", Json::Str(command_line("rustc", &["--version"]))),
        ("out_filesystem", Json::Str(filesystem_of(&out_dir()))),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("reps", Json::Num(f64::from(args.reps))),
        ("quick", Json::Bool(args.quick)),
    ])
}

/// Run one workload once in a child process and parse its result line.
fn child_run(workload: &Workload, args: &AllArgs, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        command.arg("--quick");
    }
    // `output` waits for the child; its stderr passes through.
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a run of {}: {e}", workload.name))?;
    if !output.status.success() {
        return Err(format!("a run of {} {}", workload.name, output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .rev()
        .find(|line| !line.trim().is_empty())
        .ok_or_else(|| format!("a run of {} printed nothing", workload.name))?;
    let result =
        Json::parse(last).map_err(|e| format!("{}: bad result line: {e}", workload.name))?;
    if result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!(
            "a run of {} failed its correctness checks",
            workload.name
        ));
    }
    Ok(result)
}

fn metric_value(result: &Json, name: &str) -> Result<f64, String> {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("no metric {name} in a result"))
}

fn summary_json(unit: &str, summary: Summary) -> Json {
    Json::obj([
        ("unit", Json::str(unit)),
        ("median", Json::Num(summary.median)),
        ("min", Json::Num(summary.min)),
        ("max", Json::Num(summary.max)),
        ("n", Json::Num(summary.n as f64)),
    ])
}

/// Run every workload `reps` times (plus one traced run with `--trace`),
/// print every metric by name with its unit, and write the set as JSON.
pub fn all(args: &AllArgs) -> Result<(), String> {
    let mut workloads = Vec::new();
    for workload in &ALL {
        println!("== {}: {}", workload.name, workload.why);
        let mut reps = Vec::new();
        for rep in 0..args.reps {
            let result = child_run(workload, args, false)?;
            reps.push(Json::obj([
                ("rep", Json::Num(f64::from(rep))),
                (
                    "attempted",
                    result.get("attempted").cloned().unwrap_or(Json::Null),
                ),
                (
                    "failed",
                    result.get("failed").cloned().unwrap_or(Json::Null),
                ),
                (
                    "metrics",
                    result.get("metrics").cloned().unwrap_or(Json::Null),
                ),
            ]));
        }
        let mut summary = Vec::new();
        for metric in &END_TO_END {
            let values = reps
                .iter()
                .map(|rep| metric_value(rep, metric.name))
                .collect::<Result<Vec<f64>, String>>()?;
            let s = summarize(&values);
            if metric.exact && s.min.to_bits() != s.max.to_bits() {
                return Err(format!(
                    "{} on {} is a count and must repeat exactly for one seed, but ranged {} to {}",
                    metric.name, workload.name, s.min, s.max
                ));
            }
            println!(
                "{:<20} {:>14.6} {:<6} [min {:.6}, max {:.6}, n {}] bound {:.0}% {} is better",
                metric.name,
                s.median,
                metric.unit,
                s.min,
                s.max,
                s.n,
                metric.bound * 100.0,
                metric.better.as_str()
            );
            summary.push((metric.name, summary_json(metric.unit, s)));
        }
        let total = |key: &str| -> f64 {
            reps.iter()
                .filter_map(|rep| rep.get(key).and_then(Json::as_f64))
                .sum()
        };
        let (attempted, failed) = (total("attempted"), total("failed"));
        println!(
            "{:<20} {:>14.6} {:<6} [{failed} failed of {attempted} queries attempted]",
            "failed_share",
            failed / attempted.max(1.0),
            "ratio",
        );
        let mut entry = vec![
            ("name".to_string(), Json::str(workload.name)),
            ("why".to_string(), Json::str(workload.why)),
            ("attempted".to_string(), Json::Num(attempted)),
            ("failed".to_string(), Json::Num(failed)),
            ("summary".to_string(), Json::obj(summary)),
            ("reps".to_string(), Json::Arr(reps)),
        ];
        if args.trace {
            let result = child_run(workload, args, true)?;
            println!("-- layers (one traced run; means per iteration)");
            for layer in &PER_LAYER {
                let value = metric_value(&result, layer.name)?;
                if value != 0.0 {
                    println!("{:<44} {:>16.6} {}", layer.name, value, layer.unit);
                }
            }
            entry.push((
                "layers".to_string(),
                result.get("metrics").cloned().unwrap_or(Json::Null),
            ));
        }
        workloads.push(Json::Obj(entry));
    }
    let document = Json::obj([("meta", meta(args)), ("workloads", Json::Arr(workloads))]);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join(format!("run-seed{}.json", args.seed)));
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
    }
    std::fs::write(&path, document.to_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("written to {}", path.display());
    Ok(())
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let document = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if document
        .get("meta")
        .and_then(|m| m.get("quick"))
        .and_then(Json::as_bool)
        != Some(false)
    {
        return Err(format!(
            "{} is a --quick set (or has no meta block): quick numbers are a smoke test, not a measurement",
            path.display()
        ));
    }
    Ok(document)
}

/// Compare two sets of the same commit and seed: every end-to-end median
/// within its own bound, every count identical.  Returns the disagreements.
pub fn disagreements(a: &Json, b: &Json) -> Result<Vec<String>, String> {
    let workloads = |doc: &Json| {
        doc.get("workloads")
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .ok_or_else(|| "no workloads in a set".to_string())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let seed = |doc: &Json| {
        doc.get("meta")
            .and_then(|m| m.get("seed"))
            .and_then(Json::as_f64)
    };
    let mut found = Vec::new();
    if seed(a) != seed(b) {
        found.push("the sets were run with different seeds".to_string());
    }
    if wa.len() != wb.len() {
        found.push(format!("{} workloads against {}", wa.len(), wb.len()));
    }
    for (x, y) in wa.iter().zip(&wb) {
        let name = x.get("name").and_then(Json::as_str).unwrap_or("?");
        if y.get("name").and_then(Json::as_str) != Some(name) {
            found.push(format!("workload {name} is missing from the second set"));
            continue;
        }
        // `attempted` counts every cycle, and how many cycles fit in a run
        // depends on the host's speed; failures do not.
        if x.get("failed") != y.get("failed") {
            found.push(format!("{name}: failed differs"));
        }
        for metric in &END_TO_END {
            let median = |w: &Json| {
                w.get("summary")
                    .and_then(|s| s.get(metric.name))
                    .and_then(|m| m.get("median"))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{name}: no {} in a set", metric.name))
            };
            let (ma, mb) = (median(x)?, median(y)?);
            if metric.exact {
                if ma.to_bits() != mb.to_bits() {
                    found.push(format!(
                        "{name}: {} is a count but reads {ma} and {mb}",
                        metric.name
                    ));
                }
                continue;
            }
            let worse = match metric.better {
                Better::Lower => ma.max(mb) / ma.min(mb) - 1.0,
                Better::Higher => 1.0 - ma.min(mb) / ma.max(mb),
            };
            if worse > metric.bound && (ma - mb).abs() > metric.slack {
                found.push(format!(
                    "{name}: {} reads {ma} and {mb} {}, {:.1}% apart against a bound of {:.0}%",
                    metric.name,
                    metric.unit,
                    worse * 100.0,
                    metric.bound * 100.0
                ));
            }
        }
        // Count-type layer metrics, where both sets traced.
        if let (Some(la), Some(lb)) = (x.get("layers"), y.get("layers")) {
            for layer in PER_LAYER
                .iter()
                .filter(|l| matches!(l.unit, "count" | "bytes"))
            {
                let value = |l: &Json| l.get(layer.name).and_then(|m| m.get("value")).cloned();
                if value(la) != value(lb) {
                    found.push(format!("{name}: layer count {} differs", layer.name));
                }
            }
        }
    }
    Ok(found)
}

/// `agree A.json B.json`.
pub fn agree(a: &Path, b: &Path) -> Result<(), String> {
    let found = disagreements(&load(a)?, &load(b)?)?;
    if found.is_empty() {
        println!(
            "the two sets agree: every end-to-end metric within its bound, every count identical"
        );
        return Ok(());
    }
    for line in &found {
        eprintln!("{line}");
    }
    Err(format!("{} disagreements", found.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(wall: f64, frames: f64, setup: f64, quick: bool) -> Json {
        let summary = |value: f64| Json::obj([("median", Json::Num(value))]);
        Json::obj([
            (
                "meta",
                Json::obj([("seed", Json::Num(1.0)), ("quick", Json::Bool(quick))]),
            ),
            (
                "workloads",
                Json::Arr(vec![Json::obj([
                    ("name", Json::str("dashcam_gpu")),
                    ("attempted", Json::Num(140.0)),
                    ("failed", Json::Num(0.0)),
                    (
                        "summary",
                        Json::obj([
                            ("wall_s", summary(wall)),
                            ("detector_frames", summary(frames)),
                            ("savings_vs_random", summary(1.25)),
                            ("peak_rss_mib", summary(20.0)),
                            ("setup_s", summary(setup)),
                        ]),
                    ),
                ])]),
            ),
        ])
    }

    #[test]
    fn sets_within_bounds_agree_and_counts_must_be_identical() {
        let base = set(0.70, 7968.0, 0.0004, false);
        assert!(disagreements(&base, &base).unwrap().is_empty());
        // 10 % apart on wall is inside the 15 % bound; sub-millisecond
        // set-up times agree by the absolute slack.
        let close = set(0.77, 7968.0, 0.0009, false);
        assert!(disagreements(&base, &close).unwrap().is_empty());
        let slow = set(0.90, 7968.0, 0.0004, false);
        let found = disagreements(&base, &slow).unwrap();
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("wall_s"));
        let other_frames = set(0.70, 7969.0, 0.0004, false);
        let found = disagreements(&base, &other_frames).unwrap();
        assert!(found.len() == 1 && found[0].contains("detector_frames"));
        let slow_setup = set(0.70, 7968.0, 0.5, false);
        assert_eq!(disagreements(&base, &slow_setup).unwrap().len(), 1);
    }

    #[test]
    fn quick_sets_are_refused() {
        let dir = std::env::temp_dir().join(format!("exsample-agree-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (full, quick) = (dir.join("full.json"), dir.join("quick.json"));
        std::fs::write(&full, set(0.7, 1.0, 0.1, false).to_pretty()).unwrap();
        std::fs::write(&quick, set(0.7, 1.0, 0.1, true).to_pretty()).unwrap();
        let refused = agree(&full, &quick);
        let accepted = agree(&full, &full);
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(refused.unwrap_err().contains("--quick"));
        assert!(accepted.is_ok());
    }

    #[test]
    fn civil_dates() {
        assert_eq!(civil_date(0), "1970-01-01");
        assert_eq!(civil_date(19_782), "2024-02-29");
        assert_eq!(civil_date(20_725), "2026-09-29");
    }
}
