//! Figure 5: time-savings ratio of ExSample over random sampling for every query,
//! at recall levels 0.1, 0.5 and 0.9.
//!
//! Both methods process sampled frames at the same rate (the detector dominates),
//! so the time-savings ratio equals the ratio of frames processed to reach the
//! recall level.  The paper reports a maximum of ~6x, a worst case of ~0.75x
//! (amsterdam/boat), and a geometric mean of 1.9x across all queries and recall
//! levels.

use super::{
    exsample_vs_random, savings, selection_telemetry_line, ExperimentError, ExperimentOptions,
    Report,
};
use exsample_data::datasets::{all_datasets, DatasetAnalog};
use exsample_rand::{geometric_mean, SeedSequence, Summary};
use exsample_sim::{QueryRunner, StopCondition, Table};

/// Run Figure 5's per-query savings; fails on a failed run.
pub fn run(options: &ExperimentOptions) -> Result<Report, ExperimentError> {
    let scale = options.scale_or(0.2);
    let trials = options.trials_or(3, 7);
    let recalls = [0.1, 0.5, 0.9];
    let seeds = SeedSequence::new(options.seed).derive("fig5");

    let mut table = Table::new(vec![
        "dataset",
        "category",
        "savings@.1",
        "savings@.5",
        "savings@.9",
    ]);
    let mut all_ratios: Vec<f64> = Vec::new();
    let mut per_recall_ratios: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut dedup = None;

    for spec in all_datasets() {
        let dataset = DatasetAnalog::new(spec.clone(), seeds.derive(spec.name).seed())
            .with_scale(scale)
            .generate();
        for class_spec in &spec.classes {
            let class = class_spec.class;
            // Run both methods to 90% recall (with a cap at the dataset size) and
            // read every recall level off the trajectories.
            let runner = QueryRunner::new(&dataset)
                .class(class)
                .stop(StopCondition::Recall(0.9))
                .frame_cap(dataset.total_frames());
            let query_seed = seeds.derive(spec.name).derive(class);
            let cell = exsample_vs_random(options, runner, trials, &query_seed, &mut dedup)?;

            let mut row = vec![spec.name.to_string(), class.to_string()];
            for (i, &recall) in recalls.iter().enumerate() {
                match savings(&cell, |set| set.median_frames_to_recall(recall)) {
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

    let mut summary = Summary::from_values(all_ratios.clone());
    let mut after = format!(
        "{}\n# geometric mean of savings across all queries and recall levels: {:.2}x (paper: 1.9x)\n\
         # best {:.2}x, worst {:.2}x, 10th percentile {:.2}x, 90th percentile {:.2}x (paper: max ~6x, min ~0.75x, p10 1.2x, p90 3.7x)\n",
        selection_telemetry_line(dedup.as_ref()),
        geometric_mean(&all_ratios),
        summary.max(),
        summary.min(),
        summary.percentile(0.1),
        summary.percentile(0.9)
    );
    for (i, &recall) in recalls.iter().enumerate() {
        after.push_str(&format!(
            "# geometric mean at recall {recall}: {:.2}x\n",
            geometric_mean(&per_recall_ratios[i])
        ));
    }
    Ok(Report {
        before: format!("# dataset scale: {scale}, trials per query: {trials}\n\n"),
        table,
        after,
    })
}
