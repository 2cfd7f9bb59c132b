//! Figure 3: simulated savings of ExSample over random sampling, as a function of
//! instance skew (columns) and mean instance duration (rows).
//!
//! For each (skew, duration) cell the paper runs ExSample and random sampling 21
//! times over a 16-million-frame, 2000-instance workload split into 128 chunks, and
//! labels the median savings (random frames / ExSample frames) needed to reach 10,
//! 100 and 1000 distinct results.  The headline shape: savings grow with skew
//! (left→right) and are negligible when there is no skew or when results are so
//! rare that finding the first few dominates.
//!
//! The default (reduced) configuration shrinks the frame count and trial count so
//! the whole grid runs in seconds while preserving that shape; `--full` restores
//! the paper-scale workload.

use exsample_bench::{
    banner, merged_selection_telemetry, ok_or_exit, print_selection_telemetry, print_table,
    ExperimentOptions,
};
use exsample_core::ExSampleConfig;
use exsample_data::{GridWorkload, SkewLevel};
use exsample_engine::SelectionTelemetry;
use exsample_rand::SeedSequence;
use exsample_sim::{run_trials, MethodKind, QueryRunner, StopCondition, Table};

fn main() {
    let options = ExperimentOptions::from_env();
    banner(
        "Figure 3",
        "savings grid: instance skew x mean duration, ExSample vs random",
        &options,
    );

    let (frames, instances, chunks, budget) = if options.full {
        (16_000_000u64, 2_000usize, 128u32, 120_000u64)
    } else {
        (2_000_000, 2_000, 128, 25_000)
    };
    let trials = options.trials_or(5, 21);
    let durations: &[f64] = &[14.0, 100.0, 700.0, 4_900.0];
    let skews = SkewLevel::figure3_columns();
    let targets: &[usize] = &[10, 100, 1_000];

    println!(
        "# workload: {frames} frames, {instances} instances, {chunks} chunks, budget {budget} frames/run, {trials} trials\n"
    );

    let seeds = SeedSequence::new(options.seed).derive("fig3");
    let mut dedup: Option<SelectionTelemetry> = None;
    let mut table = Table::new(vec![
        "mean duration",
        "skew",
        "savings@10",
        "savings@100",
        "savings@1000",
        "exsample found (median)",
        "random found (median)",
    ]);

    for &duration in durations {
        for skew in skews {
            let workload = GridWorkload::builder()
                .frames(frames)
                .instances(instances)
                .chunks(chunks)
                .mean_duration(duration)
                .skew(skew)
                .seed(seeds.derive("workload").index(duration as u64).seed())
                .build()
                .expect("valid workload");
            let dataset = workload.generate();

            let cell_seed = seeds
                .derive("cell")
                .index(duration as u64)
                .derive(&skew.label());
            let exsample = ok_or_exit(run_trials(trials, true, |trial| {
                options
                    .apply_to_runner(QueryRunner::new(&dataset))
                    .stop(StopCondition::FrameBudget(budget))
                    .seed(cell_seed.derive("exsample").index(trial).seed())
                    .run(MethodKind::ExSample(ExSampleConfig::default()))
            }));
            if let Some(cell) = merged_selection_telemetry(&exsample.results) {
                dedup.get_or_insert_with(Default::default).merge(&cell);
            }
            let random = ok_or_exit(run_trials(trials, true, |trial| {
                options
                    .apply_to_runner(QueryRunner::new(&dataset))
                    .stop(StopCondition::FrameBudget(budget))
                    .seed(cell_seed.derive("random").index(trial).seed())
                    .run(MethodKind::Random)
            }));

            let savings: Vec<String> = targets
                .iter()
                .map(|&target| {
                    match (
                        exsample.median_frames_to_count(target),
                        random.median_frames_to_count(target),
                    ) {
                        (Some(e), Some(r)) if e > 0.0 => format!("{:.2}x", r / e),
                        _ => "-".to_string(),
                    }
                })
                .collect();
            let median_found = |set: &exsample_sim::TrialSet| -> f64 {
                let mut s = exsample_rand::Summary::from_values(
                    set.results.iter().map(|r| r.true_found as f64).collect(),
                );
                s.median()
            };
            table.push_row(vec![
                format!("{duration}"),
                skew.label(),
                savings[0].clone(),
                savings[1].clone(),
                savings[2].clone(),
                format!("{:.0}", median_found(&exsample)),
                format!("{:.0}", median_found(&random)),
            ]);
        }
    }

    print_table(&options, &table);
    print_selection_telemetry("exsample", dedup.as_ref());
    println!();
    println!("# Expected shape (paper Figure 3): savings near 1x in the 'none' skew column,");
    println!("# growing to large multiples in the 1/256 column; savings also grow with mean");
    println!("# duration because abundant long-lived results let ExSample's statistics");
    println!("# converge quickly. '-' means the target was not reached within the budget by");
    println!("# one of the methods (typically random sampling in the highly skewed cells).");
}
