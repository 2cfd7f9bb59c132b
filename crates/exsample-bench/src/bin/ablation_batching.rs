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
//! loop this binary used to carry is exactly what the engine now provides.

use exsample_bench::{banner, experiment_engine, ok_or_exit, print_table, ExperimentOptions};
use exsample_core::ExSampleConfig;
use exsample_data::{GridWorkload, SkewLevel};
use exsample_detect::PerfectDetector;
use exsample_engine::{ExSamplePolicy, QuerySpec};
use exsample_rand::{SeedSequence, Summary};
use exsample_sim::Table;
use exsample_video::DecodeCostModel;
use std::sync::Arc;

fn main() {
    let options = ExperimentOptions::from_env();
    banner(
        "Ablation (Section III-F)",
        "batched sampling: instances found vs. batch size",
        &options,
    );
    let trials = options.trials_or(5, 15);
    let budget: u64 = if options.full { 30_000 } else { 12_000 };
    let batch_sizes: &[usize] = &[1, 8, 32, 64];
    let seeds = SeedSequence::new(options.seed).derive("ablation-batching");

    let dataset = GridWorkload::builder()
        .frames(2_000_000)
        .instances(2_000)
        .chunks(128)
        .mean_duration(700.0)
        .skew(SkewLevel::ThirtySecond)
        .seed(seeds.derive("workload").seed())
        .build()
        .expect("valid workload")
        .generate();
    let class = GridWorkload::class();
    let truth = Arc::clone(dataset.ground_truth());
    let cost = DecodeCostModel::paper();

    println!(
        "# workload: 2M frames, 2000 instances, 128 chunks, skew 1/32, budget {budget} frames, {trials} trials, {} worker thread{}\n",
        options.effective_threads(),
        if options.effective_threads() == 1 { "" } else { "s" },
    );

    let mut table = Table::new(vec![
        "batch size",
        "median found",
        "p25",
        "p75",
        "virtual time (batched GPU)",
    ]);

    for &batch in batch_sizes {
        let mut founds = Summary::new();
        for trial in 0..trials {
            let seed = seeds
                .derive("trial")
                .index(batch as u64)
                .index(trial as u64)
                .seed();
            let detector = options.faulty_detector(Box::new(PerfectDetector::new(
                Arc::clone(&truth),
                class.clone(),
            )));
            let policy = ExSamplePolicy::new(ExSampleConfig::default(), dataset.chunking());
            let mut engine = ok_or_exit(experiment_engine(&options));
            engine
                .push(
                    QuerySpec::new("batching", Box::new(policy), detector.as_ref())
                        .seed(seed)
                        .batch(batch)
                        .frame_budget(budget),
                )
                .expect("batch size is non-zero");
            let report = ok_or_exit(engine.run());
            founds.push(report.outcomes[0].distinct_found as f64);
        }
        // Batched inference speedup model: throughput improves with batch size and
        // saturates around 2x (a typical detector batching profile).
        let speedup = 1.0 + (batch as f64).log2().max(0.0) * 0.18;
        let secs = cost.batched_processing_secs(budget, batch.max(1), speedup.min(2.0));
        table.push_row(vec![
            format!("{batch}"),
            format!("{:.0}", founds.median()),
            format!("{:.0}", founds.percentile(0.25)),
            format!("{:.0}", founds.percentile(0.75)),
            exsample_sim::format_duration(secs),
        ]);
    }

    print_table(&options, &table);
    println!();
    println!("# Expected shape: the median instances found per frame processed is nearly");
    println!("# independent of the batch size (the statistics updates are additive and the");
    println!("# Thompson draws are exchangeable within a batch), while the virtual GPU time");
    println!("# for the same budget drops as batching improves detector throughput.");
}
