//! Recall equivalence of the hybrid belief-class fold, end to end.
//!
//! Above 64 chunks every Thompson pick replaces the per-chunk Gamma draws of
//! each large belief class by one exact max-of-k draw — a distributionally
//! equivalent transformation (pinned distribution-level by the chi-square
//! tests in `exsample-core`).  This check runs full queries over a skewed
//! workload with enough chunks to engage the fold (M = 128 >
//! `SMALL_M_CHUNKS`) and asserts the recall the shipped runner achieves
//! matches a reference sampler built on `policy::select_chunk_reference` —
//! the textbook one-draw-per-chunk arg-max — within sampling noise, while the
//! dedup telemetry confirms the fold actually ran.

use exsample_core::policy::select_chunk_reference;
use exsample_core::{ChunkStatsSet, ExSampleConfig};
use exsample_data::{GridWorkload, SkewLevel};
use exsample_engine::SamplingPolicy;
use exsample_sim::{run_trials, MethodKind, QueryRunner, RunResult, StopCondition, TrialSet};
use exsample_track::MatchOutcome;
use exsample_video::{FrameId, FrameSampler, RandomPlusSampler};
use rand::RngCore;

const TRIALS: usize = 12;
const BUDGET: u64 = 6_000;

fn skewed_dataset(chunks: u32) -> exsample_data::Dataset {
    GridWorkload::builder()
        .frames(500_000)
        .instances(1_000)
        .chunks(chunks)
        .mean_duration(200.0)
        .skew(SkewLevel::ThirtySecond)
        .seed(41)
        .build()
        .expect("valid workload")
        .generate()
}

/// Algorithm 1 written against the reference arg-max: per-chunk `(N1, n)`
/// statistics, one Thompson draw per eligible chunk per pick, `random+`
/// within the winning chunk.
struct ReferenceExSample {
    config: ExSampleConfig,
    stats: ChunkStatsSet,
    samplers: Vec<RandomPlusSampler>,
    starts: Vec<u64>,
}

impl ReferenceExSample {
    fn new(dataset: &exsample_data::Dataset) -> Self {
        let chunks = dataset.chunking().chunks();
        ReferenceExSample {
            config: ExSampleConfig::default(),
            stats: ChunkStatsSet::new(chunks.len()),
            samplers: chunks
                .iter()
                .map(|c| RandomPlusSampler::new(c.end() - c.start()))
                .collect(),
            starts: chunks.iter().map(|c| c.start()).collect(),
        }
    }
}

impl SamplingPolicy for ReferenceExSample {
    fn name(&self) -> &'static str {
        "exsample-reference"
    }

    fn next_batch_into(&mut self, rng: &mut dyn RngCore, batch: usize, picks: &mut Vec<FrameId>) {
        picks.clear();
        while picks.len() < batch {
            let eligible: Vec<bool> = self.samplers.iter().map(|s| s.remaining() > 0).collect();
            let Some(chunk) = select_chunk_reference(&self.config, &self.stats, &eligible, rng)
            else {
                break;
            };
            let Some(offset) = self.samplers[chunk].next_frame(rng) else {
                break;
            };
            picks.push(self.starts[chunk] + offset);
        }
    }

    fn record(&mut self, frame: FrameId, outcome: &MatchOutcome) {
        let chunk = self.starts.partition_point(|&start| start <= frame) - 1;
        self.stats.record(chunk, outcome.n1_delta());
    }

    fn remaining(&self) -> Option<u64> {
        None
    }
}

fn sweep(
    dataset: &exsample_data::Dataset,
    run: impl Fn(QueryRunner) -> Result<RunResult, exsample_sim::SimError> + Sync,
) -> TrialSet {
    run_trials(TRIALS, true, |trial| {
        run(QueryRunner::new(dataset)
            .stop(StopCondition::FrameBudget(BUDGET))
            .seed(1_000 + trial))
    })
    .expect("sweep succeeded")
}

fn shipped(dataset: &exsample_data::Dataset) -> TrialSet {
    sweep(dataset, |runner| {
        runner.run(MethodKind::ExSample(ExSampleConfig::default()))
    })
}

fn mean_and_variance(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let variance = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, variance)
}

#[test]
fn class_max_recall_matches_per_chunk_within_noise() {
    let dataset = skewed_dataset(128);
    let hybrid = shipped(&dataset);
    let per_chunk = sweep(&dataset, |runner| {
        runner.run_policy(Box::new(ReferenceExSample::new(&dataset)))
    });

    let recalls = |set: &TrialSet| -> Vec<f64> { set.results.iter().map(|r| r.recall()).collect() };
    let (mean_pc, var_pc) = mean_and_variance(&recalls(&per_chunk));
    let (mean_hy, var_hy) = mean_and_variance(&recalls(&hybrid));

    // Both samplers must actually find things for the comparison to mean
    // anything on this workload.
    assert!(mean_pc > 0.1, "reference recall degenerate: {mean_pc}");
    assert!(mean_hy > 0.1, "hybrid recall degenerate: {mean_hy}");

    // Two-sample z-statistic on the mean recall: distributional equivalence
    // means the gap is pure sampling noise, so it must sit within a few
    // standard errors (4 keeps the fixed-seed test far from flakiness while
    // still catching any systematic bias).
    let std_error = (var_pc / TRIALS as f64 + var_hy / TRIALS as f64).sqrt();
    let gap = (mean_pc - mean_hy).abs();
    assert!(
        gap <= 4.0 * std_error.max(1e-6),
        "recall gap {gap:.4} exceeds noise: reference {mean_pc:.4}, hybrid {mean_hy:.4}, \
         std error {std_error:.4}"
    );
}

#[test]
fn telemetry_attributes_picks_to_the_strategy_that_ran() {
    // 128 chunks start in one all-prior class, so the hybrid fold serves
    // every pick and saves draws from the first one.
    for result in &shipped(&skewed_dataset(128)).results {
        let telemetry = result.selection.expect("ExSample runs carry telemetry");
        assert_eq!(telemetry.class_max_picks, BUDGET, "{telemetry:?}");
        assert_eq!(telemetry.per_chunk_picks, 0, "{telemetry:?}");
        assert!(telemetry.draws_saved > 0, "no draws saved: {telemetry:?}");
        assert!(telemetry.class_count > 0);
    }

    // At 64 chunks the per-chunk path serves every pick.
    for result in &shipped(&skewed_dataset(64)).results {
        let telemetry = result.selection.expect("ExSample runs carry telemetry");
        assert_eq!(telemetry.class_max_picks, 0);
        assert_eq!(telemetry.per_chunk_picks, BUDGET);
        assert_eq!(telemetry.draws_saved, 0);
    }

    // Non-ExSample methods carry no selection telemetry.
    let dataset = skewed_dataset(128);
    let random = QueryRunner::new(&dataset)
        .stop(StopCondition::FrameBudget(500))
        .seed(7)
        .run(MethodKind::Random)
        .expect("query run succeeded");
    assert!(random.selection.is_none());
}
