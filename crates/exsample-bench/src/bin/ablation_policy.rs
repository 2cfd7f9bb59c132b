//! Section III-C ablation: chunk-selection policies.
//!
//! The paper chooses Thompson sampling over the Gamma beliefs and reports that
//! Bayes-UCB gives indistinguishable results, while a greedy point-estimate rule
//! risks locking onto an early lucky chunk.  This ablation compares the four
//! policies implemented in `exsample-core::policy` on the same skewed workload.
//!
//! Each trial runs all four policies as *concurrent queries of one
//! `exsample-engine` engine* over the shared repository: they share every
//! detector invocation their picks have in common (the engine reports the
//! coalescing savings), while each query's private RNG stream keeps its
//! outcome identical to a standalone run.

use exsample_bench::{banner, ok_or_exit, print_table, ExperimentOptions};
use exsample_core::{ChunkSelectionPolicy, ExSampleConfig};
use exsample_data::{GridWorkload, SkewLevel};
use exsample_detect::PerfectDetector;
use exsample_engine::{ExSamplePolicy, QueryEngine, QuerySpec, TrajectoryPoint};
use exsample_rand::{SeedSequence, Summary};
use exsample_sim::{metrics, Table};
use rayon::prelude::*;
use std::sync::Arc;

fn main() {
    let options = ExperimentOptions::from_env();
    banner(
        "Ablation (Section III-C)",
        "chunk-selection policy: Thompson vs Bayes-UCB vs greedy vs uniform",
        &options,
    );
    let trials = options.trials_or(7, 21);
    let budget: u64 = if options.full { 30_000 } else { 10_000 };
    let seeds = SeedSequence::new(options.seed).derive("ablation-policy");

    let dataset = GridWorkload::builder()
        .frames(2_000_000)
        .instances(2_000)
        .chunks(64)
        .mean_duration(700.0)
        .skew(SkewLevel::ThirtySecond)
        .seed(seeds.derive("workload").seed())
        .build()
        .expect("valid workload")
        .generate();
    let truth = Arc::clone(dataset.ground_truth());

    println!("# workload: 2M frames, 2000 instances, 64 chunks, skew 1/32, budget {budget}, {trials} trials");
    println!("# all four policies run as concurrent queries of one engine per trial\n");

    let policies = [
        ("thompson", ChunkSelectionPolicy::ThompsonSampling),
        ("bayes-ucb", ChunkSelectionPolicy::BayesUcb),
        ("greedy", ChunkSelectionPolicy::GreedyMean),
        ("uniform", ChunkSelectionPolicy::UniformChunk),
    ];

    // Trials are independent (per-trial derived seeds, one fresh engine each)
    // and run through an order-preserving parallel map; within a trial the
    // four policies share one engine's stages and detector coalescing.
    let trial_runs: Vec<(Vec<Vec<TrajectoryPoint>>, u64, u64)> = (0..trials as u64)
        .into_par_iter()
        .map(|trial| {
            let detector = PerfectDetector::new(Arc::clone(&truth), GridWorkload::class());
            let mut engine = QueryEngine::new();
            for (label, policy) in policies {
                let config = ExSampleConfig::default().with_policy(policy);
                engine
                    .push(
                        QuerySpec::new(
                            label,
                            Box::new(ExSamplePolicy::new(config, dataset.chunking())),
                            &detector,
                        )
                        .seed(seeds.derive(label).index(trial).seed())
                        .batch(16)
                        .frame_budget(budget),
                    )
                    .expect("valid query spec");
            }
            let report = ok_or_exit(engine.run());
            (
                report.outcomes.into_iter().map(|o| o.trajectory).collect(),
                report.demanded_frames,
                report.detector_frames,
            )
        })
        .collect();

    // trajectories[p][t] = trajectory of policy p in trial t.
    let mut trajectories: Vec<Vec<Vec<TrajectoryPoint>>> = vec![Vec::new(); policies.len()];
    let mut demanded = 0u64;
    let mut detected = 0u64;
    for (trial_trajectories, trial_demanded, trial_detected) in trial_runs {
        demanded += trial_demanded;
        detected += trial_detected;
        for (p, trajectory) in trial_trajectories.into_iter().enumerate() {
            trajectories[p].push(trajectory);
        }
    }

    let mut table = Table::new(vec![
        "policy",
        "found @ n/4 (median)",
        "found @ n (median)",
        "found @ n (p25)",
        "found @ n (p75)",
    ]);

    for ((label, _), trial_trajectories) in policies.iter().zip(&trajectories) {
        let values_at = |frames: u64| -> Summary {
            Summary::from_values(
                trial_trajectories
                    .iter()
                    .map(|t| metrics::found_at(t, frames) as f64)
                    .collect(),
            )
        };
        let mut quarter = values_at(budget / 4);
        let mut full = values_at(budget);
        table.push_row(vec![
            label.to_string(),
            format!("{:.0}", quarter.median()),
            format!("{:.0}", full.median()),
            format!("{:.0}", full.percentile(0.25)),
            format!("{:.0}", full.percentile(0.75)),
        ]);
    }

    print_table(&options, &table);
    println!();
    println!(
        "# engine coalescing: {detected} frames detected for {demanded} demanded ({} shared)",
        demanded - detected
    );
    println!("# Expected shape: Thompson sampling and Bayes-UCB are statistically");
    println!("# indistinguishable (as the paper reports); greedy is competitive in the");
    println!("# median but has a wider spread (it can lock onto an early lucky chunk);");
    println!("# the uniform policy trails all adaptive policies.");
}
