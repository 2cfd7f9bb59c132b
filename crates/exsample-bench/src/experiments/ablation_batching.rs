//! Section III-F ablation: batched Thompson sampling.
//!
//! On GPUs, detector throughput is higher when frames are processed in batches, so
//! ExSample draws `B` Thompson samples per chunk-selection step and processes the
//! resulting frames together before updating its statistics.  The statistics update
//! is commutative, so batching should cost almost nothing in sample efficiency
//! while unlocking the batched detector's higher throughput.  This ablation
//! measures instances found as a function of frames processed for several batch
//! sizes, plus the wall-clock implication under a batched cost model.
//!
//! Each run is one single-query `exsample-engine` execution whose per-stage
//! batch size is the ablation variable — the hand-written pick→detect→record
//! loop this experiment used to carry is exactly what the engine now provides.

use super::{skewed_grid, ExperimentError, ExperimentOptions, Report};
use exsample_core::ExSampleConfig;
use exsample_data::GridWorkload;
use exsample_detect::PerfectDetector;
use exsample_engine::{ExSamplePolicy, QueryEngine, QuerySpec};
use exsample_rand::{SeedSequence, Summary};
use exsample_sim::Table;
use exsample_video::DecodeCostModel;
use std::sync::Arc;

/// Run the batching ablation; fails on a rejected workload or a failed engine run.
pub fn run(options: &ExperimentOptions) -> Result<Report, ExperimentError> {
    let trials = options.trials_or(5, 15);
    let budget: u64 = if options.full { 30_000 } else { 12_000 };
    let seeds = SeedSequence::new(options.seed).derive("ablation-batching");

    let dataset = skewed_grid(2_000_000, 128, seeds.derive("workload").seed())?;
    let cost = DecodeCostModel::paper();

    let mut table = Table::new(vec![
        "batch size",
        "median found",
        "p25",
        "p75",
        "virtual time (batched GPU)",
    ]);

    for batch in [1, 8, 32, 64] {
        let mut founds = Summary::new();
        for trial in 0..trials {
            let seed = seeds
                .derive("trial")
                .index(batch as u64)
                .index(trial as u64)
                .seed();
            let detector =
                PerfectDetector::new(Arc::clone(dataset.ground_truth()), GridWorkload::class());
            let policy = ExSamplePolicy::new(ExSampleConfig::default(), dataset.chunking());
            let mut engine = QueryEngine::new();
            engine.push(
                QuerySpec::new("batching", Box::new(policy), &detector)
                    .seed(seed)
                    .batch(batch)
                    .frame_budget(budget),
            )?;
            let report = engine.run()?;
            founds.push(report.outcomes[0].distinct_found as f64);
        }
        // Batched inference speedup model: throughput improves with batch size and
        // saturates around 2x (a typical detector batching profile).
        let speedup = 1.0 + (batch as f64).log2().max(0.0) * 0.18;
        let secs = cost.batched_processing_secs(budget, speedup.min(2.0));
        table.push_row(vec![
            format!("{batch}"),
            format!("{:.0}", founds.median()),
            format!("{:.0}", founds.percentile(0.25)),
            format!("{:.0}", founds.percentile(0.75)),
            exsample_sim::format_duration(secs),
        ]);
    }

    Ok(Report {
        before: format!("# workload: 2M frames, 2000 instances, 128 chunks, skew 1/32, budget {budget} frames, {trials} trials\n\n"),
        table,
        after: "
# Expected shape: the median instances found per frame processed is nearly
# independent of the batch size (the statistics updates are additive and the
# Thompson draws are exchangeable within a batch), while the virtual GPU time
# for the same budget drops as batching improves detector throughput.
"
        .to_string(),
    })
}
