//! `fig5_sweep`: the `fig5_savings_by_query` query set, ExSample against
//! random sampling on every class of the six dataset analogs.

use super::{found_in_truth, recall_target, CheckError, Ctx, Iteration};
use crate::metrics::Ledger;
use crate::stats::{derive_seed, geometric_mean};
use crate::trace::Probe;
use exsample_core::ExSampleConfig;
use exsample_data::datasets::{all_datasets, DatasetAnalog, DatasetSpec};
use exsample_data::Dataset;
use exsample_detect::ObjectClass;
use exsample_sim::{run_trials, MethodKind, QueryRunner, StopCondition, TrialSet};
use std::time::Instant;

/// Dataset scale of the shipped bin.
pub const SCALE: f64 = 0.2;
/// Both methods run to this recall; every lower level is read off the
/// trajectory.
const TARGET_RECALL: f64 = 0.9;
const RECALLS: [f64; 3] = [0.1, 0.5, 0.9];

/// How a sweep derives its seeds: the workload uses the benchmark's own
/// derivation, `fig5-check` the shipped bin's.
pub trait SweepSeeds: Sync {
    fn dataset(&self, dataset: &str) -> u64;
    fn query(&self, dataset: &str, class: &str, method: &str, trial: u64) -> u64;
}

struct OwnSeeds(u64);

impl SweepSeeds for OwnSeeds {
    fn dataset(&self, dataset: &str) -> u64 {
        derive_seed(self.0, dataset, 0)
    }

    fn query(&self, dataset: &str, class: &str, method: &str, trial: u64) -> u64 {
        let dataset = derive_seed(self.0, dataset, 1);
        derive_seed(derive_seed(dataset, class, 0), method, trial)
    }
}

/// What one sweep over the generated datasets measured.
pub struct Sweep {
    pub wall_s: f64,
    /// Frames processed by all ExSample runs.
    pub exsample_frames: u64,
    pub exsample_s: f64,
    pub random_frames: u64,
    pub random_s: f64,
    /// Geometric mean over query × recall level of median random frames ÷
    /// median ExSample frames: the paper's headline number.
    pub savings: f64,
    pub runs: u64,
    pub failed: u64,
    /// What the ExSample runs tell about the sampler.
    pub sampler: Ledger,
}

/// Generate the six analogs.
pub fn generate(seeds: &dyn SweepSeeds) -> Vec<(DatasetSpec, Dataset)> {
    all_datasets()
        .into_iter()
        .map(|spec| {
            let dataset = DatasetAnalog::new(spec.clone(), seeds.dataset(spec.name))
                .with_scale(SCALE)
                .generate();
            (spec, dataset)
        })
        .collect()
}

/// Run every class query of every dataset with both methods.
pub fn sweep(
    datasets: &[(DatasetSpec, Dataset)],
    trials: usize,
    parallel: bool,
    seeds: &dyn SweepSeeds,
    probe: Option<Probe>,
) -> Result<Sweep, CheckError> {
    let timed = Instant::now();
    let mut out = Sweep {
        wall_s: 0.0,
        exsample_frames: 0,
        exsample_s: 0.0,
        random_frames: 0,
        random_s: 0.0,
        savings: 0.0,
        runs: 0,
        failed: 0,
        sampler: Ledger::default(),
    };
    let mut ratios = Vec::new();
    for (spec, dataset) in datasets {
        let cap = dataset.total_frames();
        for class_spec in &spec.classes {
            let class = ObjectClass::from(class_spec.class);
            let run_method = |method: &'static str, kind: MethodKind| {
                let span_name = match method {
                    "exsample" => "exsample-sim.exsample",
                    _ => "exsample-sim.random",
                };
                let start = Instant::now();
                let set = run_trials(trials, parallel, |trial| {
                    let start_ns = probe.map(|p| p.tracer.now_ns());
                    let result = QueryRunner::new(dataset)
                        .class(class.clone())
                        .stop(StopCondition::Recall(TARGET_RECALL))
                        .frame_cap(cap)
                        .seed(seeds.query(spec.name, class_spec.class, method, trial))
                        .run(kind.clone())?;
                    if let (Some(p), Some(start_ns)) = (probe, start_ns) {
                        let frames = result.frames_processed;
                        p.tracer
                            .push(p.at, span_name, start_ns, p.tracer.now_ns(), frames);
                    }
                    Ok(result)
                })
                .map_err(|e| format!("{method} run on {class} failed: {e}"))?;
                Ok::<(TrialSet, f64), CheckError>((set, start.elapsed().as_secs_f64()))
            };
            let (exsample, exsample_s) =
                run_method("exsample", MethodKind::ExSample(ExSampleConfig::default()))?;
            let (random, random_s) = run_method("random", MethodKind::Random)?;
            out.exsample_s += exsample_s;
            out.random_s += random_s;
            let target = recall_target(dataset, &class, TARGET_RECALL);
            for run in exsample.results.iter().chain(&random.results) {
                out.runs += 1;
                if found_in_truth(dataset, &class, &run.found_instances)? < target {
                    out.failed += 1;
                }
            }
            for run in &exsample.results {
                out.exsample_frames += run.frames_processed;
                out.sampler
                    .add_query(run.frames_processed, &run.trajectory, run.selection);
            }
            out.random_frames += random
                .results
                .iter()
                .map(|r| r.frames_processed)
                .sum::<u64>();
            for recall in RECALLS {
                if let (Some(e), Some(r)) = (
                    exsample.median_frames_to_recall(recall),
                    random.median_frames_to_recall(recall),
                ) {
                    if e > 0.0 {
                        ratios.push(r / e);
                    }
                }
            }
        }
    }
    if ratios.is_empty() {
        return Err("the sweep produced no savings ratio".to_string());
    }
    out.savings = geometric_mean(&ratios);
    out.wall_s = timed.elapsed().as_secs_f64();
    Ok(out)
}

/// One trial per query and method, serial: the sweep as one closed loop.
pub fn run(ctx: &Ctx) -> Result<Iteration, CheckError> {
    let seeds = OwnSeeds(ctx.seed);
    let started = Instant::now();
    let datasets = generate(&seeds);
    let generate_s = started.elapsed().as_secs_f64();
    let sweep = sweep(&datasets, 1, false, &seeds, ctx.probe)?;
    Ok(Iteration {
        setup_s: generate_s,
        wall_s: sweep.wall_s,
        detector_frames: sweep.exsample_frames,
        savings_vs_random: sweep.savings,
        attempted: sweep.runs,
        failed: sweep.failed,
        ledger: Ledger {
            iterations: 1.0,
            generate_s,
            sim_run_s: sweep.exsample_s + sweep.random_s,
            sim_runs: sweep.runs as f64,
            sim_exsample_s: sweep.exsample_s,
            sim_exsample_frames: sweep.exsample_frames as f64,
            sim_random_s: sweep.random_s,
            sim_random_frames: sweep.random_frames as f64,
            ..sweep.sampler
        },
    })
}

/// The shipped `fig5_savings_by_query` bin's seed derivation.
struct BinSeeds(exsample_rand::SeedSequence);

impl SweepSeeds for BinSeeds {
    fn dataset(&self, dataset: &str) -> u64 {
        self.0.derive(dataset).seed()
    }

    fn query(&self, dataset: &str, class: &str, method: &str, trial: u64) -> u64 {
        self.0
            .derive(dataset)
            .derive(class)
            .derive(method)
            .index(trial)
            .seed()
    }
}

/// `fig5-check`: the bin's configuration (3 trials, its seed derivation) run
/// through this benchmark's sweep, so its printed geometric mean can be held
/// against the bin's.
pub fn check(seed: u64) -> Result<(), CheckError> {
    let seeds = BinSeeds(exsample_rand::SeedSequence::new(seed).derive("fig5"));
    let datasets = generate(&seeds);
    let sweep = sweep(&datasets, 3, true, &seeds, None)?;
    println!(
        "fig5-check seed {seed}: geometric mean of savings {:.2}x ({}), {} ExSample frames, {} of {} runs short of recall {TARGET_RECALL}, {:.2} s",
        sweep.savings, sweep.savings, sweep.exsample_frames, sweep.failed, sweep.runs, sweep.wall_s
    );
    if sweep.failed > 0 {
        return Err(format!("{} runs never reached their recall", sweep.failed));
    }
    Ok(())
}
