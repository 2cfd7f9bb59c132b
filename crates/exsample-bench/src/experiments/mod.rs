//! The paper's experiments, one module per `repro` subcommand, and the
//! experiment cells more than one of them runs.
//!
//! Each module's `run` takes the parsed [`ExperimentOptions`] and returns the
//! [`Report`] `repro` prints; a failing run is an [`ExperimentError`], not a
//! process exit.  Every seed is derived from `--seed` exactly as the
//! experiment's module shows, so a run's output is a pure function of its
//! flags.

pub mod ablation_batching;
pub mod ablation_policy;
pub mod ablation_random_plus;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod table1;
pub mod variance_coverage;

use crate::{merge_selection_telemetry, selection_telemetry_line, ExperimentOptions, Report};
use exsample_core::ExSampleConfig;
use exsample_data::grid::GridWorkloadError;
use exsample_data::{Dataset, GridWorkload, SkewLevel};
use exsample_engine::SelectionTelemetry;
use exsample_rand::{SeedSequence, Summary};
use exsample_sim::{
    metrics, run_trials, MethodKind, QueryRunner, SimError, TrajectoryPoint, TrialSet,
};

/// Why an experiment could not finish, with the error's `source()` chain.
pub type ExperimentError = Box<dyn std::error::Error>;

/// One `repro` subcommand.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The subcommand's name.
    pub name: &'static str,
    /// Its banner: the part of the paper it regenerates, and what it measures.
    pub title: &'static str,
    /// The flags it reads besides `--full`, `--seed` and `--csv`.
    pub flags: &'static [&'static str],
    /// Runs it.
    pub run: fn(&ExperimentOptions) -> Result<Report, ExperimentError>,
}

/// Every `repro` subcommand, with the flags it reads besides `--full`,
/// `--seed` and `--csv`.
#[rustfmt::skip]
pub const EXPERIMENTS: [Experiment; 10] = [
    Experiment { name: "fig2", flags: &["--trials"], run: fig2::run,
        title: "Figure 2: estimator validation: Gamma belief vs. empirical R(n+1)" },
    Experiment { name: "fig3", flags: RUNNER_FLAGS, run: fig3::run,
        title: "Figure 3: savings grid: instance skew x mean duration, ExSample vs random" },
    Experiment { name: "fig4", flags: RUNNER_FLAGS, run: fig4::run,
        title: "Figure 4: instances found vs. chunk count (1 chunk == random sampling)" },
    Experiment { name: "fig5", flags: &["--trials", "--scale", "--checkpoint", "--warm-start"],
        run: fig5::run,
        title: "Figure 5: savings ratio (ExSample vs random) per query at recall .1/.5/.9" },
    Experiment { name: "fig6", flags: &["--scale"], run: fig6::run,
        title: "Figure 6: chunk-level instance skew for representative queries" },
    Experiment { name: "table1", flags: &["--scale"], run: table1::run,
        title: "Table I: proxy scan time vs. ExSample time to 10/50/90% of instances" },
    Experiment { name: "variance-coverage", flags: &["--trials", "--scale"],
        run: variance_coverage::run,
        title: "Section III-D check: coverage of the Eq. III.3 variance bound on the BDD MOT analog" },
    Experiment { name: "ablation-batching", flags: &["--trials"], run: ablation_batching::run,
        title: "Ablation (Section III-F): batched sampling: instances found vs. batch size" },
    Experiment { name: "ablation-policy", flags: &["--trials"], run: ablation_policy::run,
        title: "Ablation (Section III-C): chunk-selection policy: Thompson vs Bayes-UCB vs greedy vs uniform" },
    Experiment { name: "ablation-random-plus", flags: RUNNER_FLAGS, run: ablation_random_plus::run,
        title: "Ablation (Section III-F): random+ within-chunk sampling vs. uniform" },
];

/// The flags of an experiment that sweeps `QueryRunner` trials.
const RUNNER_FLAGS: &[&str] = &["--trials", "--checkpoint", "--warm-start"];

/// The skew-1/32 grid of Figure 4 and the ablations: 2000 instances of mean
/// duration 700 frames over `frames` frames in `chunks` chunks.
fn skewed_grid(frames: u64, chunks: u32, seed: u64) -> Result<Dataset, GridWorkloadError> {
    Ok(GridWorkload::builder()
        .frames(frames)
        .instances(2_000)
        .chunks(chunks)
        .mean_duration(700.0)
        .skew(SkewLevel::ThirtySecond)
        .seed(seed)
        .build()?
        .generate())
}

/// Instances found within the first `frames` frames of each run's trajectory.
fn found_at<'a>(runs: impl Iterator<Item = &'a Vec<TrajectoryPoint>>, frames: u64) -> Summary {
    Summary::from_values(runs.map(|t| metrics::found_at(t, frames) as f64).collect())
}

/// `trials` runs of `runner`'s query with `kind`, trial `t` seeded from
/// `seeds.index(t)`: the one place the runner-driven experiments apply the
/// durability flags (`--checkpoint`, `--warm-start`).
fn sweep(
    options: &ExperimentOptions,
    mut runner: QueryRunner<'_>,
    trials: usize,
    seeds: SeedSequence,
    kind: MethodKind,
) -> Result<TrialSet, SimError> {
    if let Some(path) = &options.checkpoint {
        runner = runner.checkpoint(path.clone());
    }
    if let Some(path) = &options.warm_start {
        runner = runner.warm_start(path.clone());
    }
    run_trials(trials, true, |trial| {
        runner
            .clone()
            .seed(seeds.index(trial).seed())
            .run(kind.clone())
    })
}

/// One ExSample-vs-random cell: [`sweep`]s of `runner`'s query with each
/// method, trial `t` of method `m` seeded from `seeds.derive(m).index(t)`.
/// The ExSample runs' selection telemetry is merged into `dedup`.
fn exsample_vs_random(
    options: &ExperimentOptions,
    runner: QueryRunner<'_>,
    trials: usize,
    seeds: &SeedSequence,
    dedup: &mut Option<SelectionTelemetry>,
) -> Result<(TrialSet, TrialSet), SimError> {
    let sweep = |method, kind| sweep(options, runner.clone(), trials, seeds.derive(method), kind);
    let exsample = sweep("exsample", MethodKind::ExSample(ExSampleConfig::default()))?;
    merge_selection_telemetry(dedup, &exsample.results);
    Ok((exsample, sweep("random", MethodKind::Random)?))
}

/// A cell's savings: random sampling's `median` frames to a point over
/// ExSample's, when both methods reached it.
fn savings(cell: &(TrialSet, TrialSet), median: impl Fn(&TrialSet) -> Option<f64>) -> Option<f64> {
    match (median(&cell.0), median(&cell.1)) {
        (Some(e), Some(r)) if e > 0.0 => Some(r / e),
        _ => None,
    }
}
