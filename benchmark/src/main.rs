//! Repository benchmark for the ExSample reproduction: time and detector
//! frames to a recall target, five workloads, and a per-layer ledger measured
//! from outside the library.  See `README.md` beside this package.

mod json;
mod metrics;
mod probes;
mod run;
mod stats;
mod suite;
mod trace;
mod workloads;

use json::Json;
use metrics::{END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  exsample-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--verbose]
      one run of one workload; the last line of stdout is the result as JSON
      (--verbose prints every iteration's samples on stderr)
  exsample-benchmark all [--seed N] [--reps N] [--seconds S] [--quick] [--trace] [--out FILE]
      every workload, each run in a fresh process; prints every metric and writes the set as JSON
  exsample-benchmark agree A.json B.json
      exit non-zero unless two sets agree within the benchmark's own bounds
  exsample-benchmark fig5-check [--seed N]
      the shipped fig5_savings_by_query configuration and seed derivation; prints its geometric mean
  exsample-benchmark describe
      print the contents of BENCHMARK.json";

/// Seconds one run measures for; `BENCHMARK.json`'s `run_seconds`.
const RUN_SECONDS: u32 = 15;

/// `--name value` pairs and bare flags after the subcommand.
struct Options(Vec<String>);

impl Options {
    fn flag(&mut self, name: &str) -> bool {
        match self.0.iter().position(|a| a == name) {
            Some(at) => {
                self.0.remove(at);
                true
            }
            None => false,
        }
    }

    fn value<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        let Some(at) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if at + 1 >= self.0.len() {
            return Err(format!("{name} needs a value"));
        }
        let text = self.0.remove(at + 1);
        self.0.remove(at);
        text.parse()
            .map(Some)
            .map_err(|_| format!("bad value for {name}: {text}"))
    }

    fn seconds(&mut self) -> Result<f64, String> {
        match self.value::<f64>("--seconds")? {
            Some(s) if s.is_finite() && s > 0.0 && s <= 3600.0 => Ok(s),
            Some(s) => Err(format!("--seconds must be in (0, 3600], got {s}")),
            None => Ok(f64::from(RUN_SECONDS)),
        }
    }

    fn finish(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument: {extra}")),
        }
    }
}

/// The contents of `BENCHMARK.json`, from the tables the program prints from.
fn describe() -> Result<Json, String> {
    let names = workloads::ALL
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name));
    if let Some(bad) = names.into_iter().find(|name| !stats::valid_name(name)) {
        return Err(format!("{bad} is not a legal name"));
    }
    Ok(Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .map(Json::str)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                workloads::ALL
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]))
}

fn one_run(mut options: Options) -> Result<(), String> {
    let name: String = options
        .value("--workload")?
        .ok_or("--workload is required")?;
    let workload = workloads::find(&name).ok_or_else(|| {
        let known: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; known: {}", known.join(", "))
    })?;
    let trace = match options.value::<u8>("--trace")? {
        None | Some(0) => false,
        Some(1) => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    let args = run::RunArgs {
        workload,
        seed: options.value("--seed")?.unwrap_or(1),
        seconds: options.seconds()?,
        trace,
        quick: options.flag("--quick"),
        verbose: options.flag("--verbose"),
    };
    options.finish()?;
    let result = run::run(&args);
    for (name, value, unit) in &result.metrics {
        println!("{name:<44} {value:>18.6} {unit}");
    }
    println!("{}", result.to_json().to_line());
    Ok(())
}

fn dispatch(mut args: Vec<String>) -> Result<(), String> {
    let Some(first) = args.first().cloned() else {
        return Err(USAGE.to_string());
    };
    if first.starts_with("--") {
        return one_run(Options(args));
    }
    args.remove(0);
    let mut options = Options(args);
    match first.as_str() {
        "all" => {
            let quick = options.flag("--quick");
            let all = suite::AllArgs {
                seed: options.value("--seed")?.unwrap_or(1),
                reps: match options.value::<u32>("--reps")? {
                    Some(0) => return Err("--reps must be at least 1".to_string()),
                    Some(reps) => reps,
                    None if quick => 1,
                    None => 5,
                },
                seconds: options.seconds()?,
                quick,
                trace: options.flag("--trace"),
                out: options.value("--out")?,
            };
            options.finish()?;
            suite::all(&all)
        }
        "agree" => match options.0.as_slice() {
            [a, b] => suite::agree(&PathBuf::from(a), &PathBuf::from(b)),
            _ => Err("agree takes two files".to_string()),
        },
        "fig5-check" => {
            let seed = options.value("--seed")?.unwrap_or(7);
            options.finish()?;
            workloads::fig5_sweep::check(seed)
        }
        "describe" => {
            options.finish()?;
            print!("{}", describe()?.to_pretty());
            Ok(())
        }
        _ => Err(format!("unknown command {first}\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    match dispatch(std::env::args().skip(1).collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
