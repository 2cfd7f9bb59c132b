//! Figure 5: time-savings ratio of ExSample over random sampling for every query,
//! at recall levels 0.1, 0.5 and 0.9.
//!
//! Both methods process sampled frames at the same rate (the detector dominates),
//! so the time-savings ratio equals the ratio of frames processed to reach the
//! recall level.  The paper reports a maximum of ~6x, a worst case of ~0.75x
//! (amsterdam/boat), and a geometric mean of 1.9x across all queries and recall
//! levels.

use exsample_bench::{
    banner, merged_selection_telemetry, ok_or_exit, print_selection_telemetry, print_table,
    ExperimentOptions,
};
use exsample_core::ExSampleConfig;
use exsample_data::datasets::{all_datasets, DatasetAnalog};
use exsample_engine::SelectionTelemetry;
use exsample_rand::{geometric_mean, SeedSequence, Summary};
use exsample_sim::{run_trials, MethodKind, QueryRunner, StopCondition, Table};

fn main() {
    let options = ExperimentOptions::from_env();
    banner(
        "Figure 5",
        "savings ratio (ExSample vs random) per query at recall .1/.5/.9",
        &options,
    );

    let scale = options.scale_or(0.2);
    let trials = options.trials_or(3, 7);
    let recalls = [0.1, 0.5, 0.9];
    let seeds = SeedSequence::new(options.seed).derive("fig5");

    println!("# dataset scale: {scale}, trials per query: {trials}\n");

    let mut table = Table::new(vec![
        "dataset",
        "category",
        "savings@.1",
        "savings@.5",
        "savings@.9",
    ]);
    let mut all_ratios: Vec<f64> = Vec::new();
    let mut per_recall_ratios: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut dedup: Option<SelectionTelemetry> = None;

    for spec in all_datasets() {
        let dataset = DatasetAnalog::new(spec.clone(), seeds.derive(spec.name).seed())
            .with_scale(scale)
            .generate();
        for class_spec in &spec.classes {
            let class = class_spec.class;
            let query_seed = seeds.derive(spec.name).derive(class);
            // Run both methods to 90% recall (with a cap at the dataset size) and
            // read every recall level off the trajectories.
            let cap = dataset.total_frames();
            let exsample = ok_or_exit(run_trials(trials, true, |trial| {
                options
                    .apply_to_runner(QueryRunner::new(&dataset))
                    .class(class)
                    .stop(StopCondition::Recall(0.9))
                    .frame_cap(cap)
                    .seed(query_seed.derive("exsample").index(trial).seed())
                    .run(MethodKind::ExSample(ExSampleConfig::default()))
            }));
            if let Some(cell) = merged_selection_telemetry(&exsample.results) {
                dedup.get_or_insert_with(Default::default).merge(&cell);
            }
            let random = ok_or_exit(run_trials(trials, true, |trial| {
                options
                    .apply_to_runner(QueryRunner::new(&dataset))
                    .class(class)
                    .stop(StopCondition::Recall(0.9))
                    .frame_cap(cap)
                    .seed(query_seed.derive("random").index(trial).seed())
                    .run(MethodKind::Random)
            }));

            let mut row = vec![spec.name.to_string(), class.to_string()];
            for (i, &recall) in recalls.iter().enumerate() {
                let ratio = match (
                    exsample.median_frames_to_recall(recall),
                    random.median_frames_to_recall(recall),
                ) {
                    (Some(e), Some(r)) if e > 0.0 => Some(r / e),
                    _ => None,
                };
                match ratio {
                    Some(ratio) => {
                        all_ratios.push(ratio);
                        per_recall_ratios[i].push(ratio);
                        row.push(format!("{ratio:.2}x"));
                    }
                    None => row.push("-".to_string()),
                }
            }
            table.push_row(row);
        }
    }

    print_table(&options, &table);
    print_selection_telemetry("exsample", dedup.as_ref());
    println!();
    let mut summary = Summary::from_values(all_ratios.clone());
    println!(
        "# geometric mean of savings across all queries and recall levels: {:.2}x (paper: 1.9x)",
        geometric_mean(&all_ratios)
    );
    println!(
        "# best {:.2}x, worst {:.2}x, 10th percentile {:.2}x, 90th percentile {:.2}x (paper: max ~6x, min ~0.75x, p10 1.2x, p90 3.7x)",
        summary.max(),
        summary.min(),
        summary.percentile(0.1),
        summary.percentile(0.9)
    );
    for (i, &recall) in recalls.iter().enumerate() {
        println!(
            "# geometric mean at recall {recall}: {:.2}x",
            geometric_mean(&per_recall_ratios[i])
        );
    }
}
