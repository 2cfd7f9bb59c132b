//! One run of one workload: what the driver's
//! `--workload W --seed N --seconds S --trace 0|1` invocation does.
//!
//! A run is cycles of iterations.  Each iteration of a cycle uses its own seed
//! derived from `--seed`, sets its inputs up afresh and runs the workload's
//! timed region once, so a cycle yields one sample of every metric per
//! iteration and the run reports their medians.  Cycles repeat, with the same
//! derived seeds, while another one fits in `--seconds`.

use crate::json::Json;
use crate::metrics::{EndToEndValues, Ledger, END_TO_END, PER_LAYER};
use crate::stats::{derive_seed, median};
use crate::trace::{At, Probe, Span, Tracer};
use crate::workloads::{CheckError, Ctx, Iteration, Workload};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What to run.
pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Print every iteration's samples on stderr.
    pub verbose: bool,
}

/// The result line of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`: the end-to-end metrics of an untraced run, the
    /// per-layer metrics of a traced one.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    /// The JSON object the driver reads from the last line of stdout.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(name, value, unit)| {
                    (
                        *name,
                        Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
                    )
                })),
            ),
        ])
    }
}

/// The directory the benchmark may write to: `benchmark/out` of the checkout
/// the program runs in (git-ignored), or of the checkout it was built in.
pub fn out_dir() -> PathBuf {
    match std::env::current_dir() {
        Ok(cwd) if cwd.join("benchmark/Cargo.toml").is_file() => cwd.join("benchmark/out"),
        _ => Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    }
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, CheckError> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// A scratch directory inside [`out_dir`], removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn create() -> Result<Scratch, CheckError> {
        let path = out_dir().join(format!("scratch-{}", std::process::id()));
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(Scratch(path))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Best effort: `Drop` must not panic, and the directory is ignored.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn iteration_seed(args: &RunArgs, index: u32) -> u64 {
    derive_seed(args.seed, args.workload.name, u64::from(index))
}

/// What must repeat exactly when the same seed runs again.
fn counts(iteration: &Iteration) -> (u64, u64, u64, u64) {
    (
        iteration.detector_frames,
        iteration.savings_vs_random.to_bits(),
        iteration.attempted,
        iteration.failed,
    )
}

fn same_counts(what: &str, index: u32, a: &Iteration, b: &Iteration) -> Result<(), CheckError> {
    if counts(a) == counts(b) {
        return Ok(());
    }
    Err(format!(
        "iteration {index} is not deterministic: {what} gave {} frames and savings {}, before {} and {}",
        b.detector_frames, b.savings_vs_random, a.detector_frames, a.savings_vs_random
    ))
}

fn untraced(args: &RunArgs, scratch: &Path) -> Result<RunResult, CheckError> {
    let iterations = if args.quick {
        args.workload.quick_iterations
    } else {
        args.workload.iterations
    };
    let started = Instant::now();
    let mut first: Vec<Iteration> = Vec::new();
    // Per iteration, one timing sample per cycle.
    let mut wall: Vec<Vec<f64>> = vec![Vec::new(); iterations as usize];
    let mut setup: Vec<Vec<f64>> = vec![Vec::new(); iterations as usize];
    let (mut attempted, mut failed) = (0, 0);
    loop {
        let cycle = Instant::now();
        for index in 0..iterations {
            let iteration = (args.workload.run)(&Ctx {
                seed: iteration_seed(args, index),
                probe: None,
                scratch,
            })?;
            if args.verbose {
                eprintln!(
                    "iteration {index}: wall {:.6} s, set-up {:.6} s, {} detector frames, savings {:.4}",
                    iteration.wall_s,
                    iteration.setup_s,
                    iteration.detector_frames,
                    iteration.savings_vs_random
                );
            }
            wall[index as usize].push(iteration.wall_s);
            setup[index as usize].push(iteration.setup_s);
            attempted += iteration.attempted;
            failed += iteration.failed;
            match first.get(index as usize) {
                Some(before) => same_counts("a later cycle", index, before, &iteration)?,
                None => first.push(iteration),
            }
        }
        // Another cycle only if it is expected to end within `--seconds`.
        let elapsed = started.elapsed().as_secs_f64();
        if args.quick || elapsed + cycle.elapsed().as_secs_f64() > args.seconds {
            break;
        }
    }
    let frames: Vec<f64> = first.iter().map(|i| i.detector_frames as f64).collect();
    let savings: Vec<f64> = first.iter().map(|i| i.savings_vs_random).collect();
    // An iteration's time is its fastest repeat over the cycles: the repeats
    // have the same inputs and do the same work, so a slower one measures
    // another tenant of the host or its disk, not the program.  The run's
    // time is the median over iterations.
    let over_iterations = |samples: &[Vec<f64>]| {
        let fastest = |repeats: &Vec<f64>| repeats.iter().copied().fold(f64::INFINITY, f64::min);
        median(&samples.iter().map(fastest).collect::<Vec<f64>>())
    };
    let values = EndToEndValues {
        wall_s: over_iterations(&wall),
        detector_frames: median(&frames),
        savings_vs_random: median(&savings),
        peak_rss_mib: peak_rss_mib()?,
        setup_s: over_iterations(&setup),
    };
    Ok(RunResult {
        correct: true,
        attempted,
        failed,
        metrics: END_TO_END
            .iter()
            .zip(values.in_order())
            .map(|(metric, value)| (metric.name, value, metric.unit))
            .collect(),
    })
}

/// The traced run: half a cycle's iterations, each run untraced and then
/// traced on the same inputs, so the ledger and the overhead of tracing come
/// from the same work.
fn traced(args: &RunArgs, scratch: &Path) -> Result<RunResult, CheckError> {
    let iterations = if args.quick {
        args.workload.quick_iterations
    } else {
        args.workload.iterations.div_ceil(2)
    };
    let tracer = Tracer::new();
    let mut total = Ledger::default();
    let (mut attempted, mut failed) = (0, 0);
    for index in 0..iterations {
        let seed = iteration_seed(args, index);
        let plain = (args.workload.run)(&Ctx {
            seed,
            probe: None,
            scratch,
        })?;
        let root = tracer.reserve();
        let start_ns = tracer.now_ns();
        let traced = (args.workload.run)(&Ctx {
            seed,
            probe: Some(Probe {
                tracer: &tracer,
                at: At {
                    parent: root,
                    rep: index,
                },
            }),
            scratch,
        })?;
        let end_ns = tracer.now_ns();
        tracer.record(Span {
            id: root,
            parent: 0,
            rep: index,
            name: "iteration",
            start_ns,
            end_ns,
            count: traced.detector_frames,
            busy_ns: end_ns - start_ns,
        });
        same_counts("the traced repeat", index, &plain, &traced)?;
        attempted += traced.attempted;
        failed += traced.failed;
        let mut ledger = traced.ledger;
        ledger.traced_wall_s = traced.wall_s;
        ledger.untraced_wall_s = plain.wall_s;
        total.absorb(&ledger);
    }
    let path = out_dir().join(format!("trace-{}.jsonl", args.workload.name));
    let spans = tracer
        .write_jsonl(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("{spans} spans written to {}", path.display());
    Ok(RunResult {
        correct: true,
        attempted,
        failed,
        metrics: PER_LAYER
            .iter()
            .zip(total.values())
            .map(|(layer, value)| (layer.name, value, layer.unit))
            .collect(),
    })
}

/// Run the workload; a failed correctness check is reported on stderr and as
/// `correct: false`.
pub fn run(args: &RunArgs) -> RunResult {
    let outcome = Scratch::create().and_then(|scratch| {
        if args.trace {
            traced(args, &scratch.0)
        } else {
            untraced(args, &scratch.0)
        }
    });
    outcome.unwrap_or_else(|error| {
        eprintln!("{}: check failed: {error}", args.workload.name);
        let metrics: Vec<(&'static str, f64, &'static str)> = if args.trace {
            PER_LAYER.iter().map(|l| (l.name, 0.0, l.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, 0.0, m.unit)).collect()
        };
        RunResult {
            correct: false,
            attempted: 1,
            failed: 1,
            metrics,
        }
    })
}
