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

use super::{
    exsample_vs_random, savings, selection_telemetry_line, ExperimentError, ExperimentOptions,
    Report,
};
use exsample_data::{GridWorkload, SkewLevel};
use exsample_rand::{SeedSequence, Summary};
use exsample_sim::{QueryRunner, StopCondition, Table, TrialSet};

/// Run Figure 3's grid; fails on a rejected workload or a failed run.
pub fn run(options: &ExperimentOptions) -> Result<Report, ExperimentError> {
    let (frames, instances, chunks, budget) = if options.full {
        (16_000_000u64, 2_000usize, 128u32, 120_000u64)
    } else {
        (2_000_000, 2_000, 128, 25_000)
    };
    let trials = options.trials_or(5, 21);

    let seeds = SeedSequence::new(options.seed).derive("fig3");
    let mut dedup = None;
    let mut table = Table::new(vec![
        "mean duration",
        "skew",
        "savings@10",
        "savings@100",
        "savings@1000",
        "exsample found (median)",
        "random found (median)",
    ]);

    for duration in [14.0, 100.0, 700.0, 4_900.0] {
        for skew in SkewLevel::figure3_columns() {
            let dataset = GridWorkload::builder()
                .frames(frames)
                .instances(instances)
                .chunks(chunks)
                .mean_duration(duration)
                .skew(skew)
                .seed(seeds.derive("workload").index(duration as u64).seed())
                .build()?
                .generate();

            let cell_seed = seeds
                .derive("cell")
                .index(duration as u64)
                .derive(&skew.label());
            let cell = exsample_vs_random(
                options,
                QueryRunner::new(&dataset).stop(StopCondition::FrameBudget(budget)),
                trials,
                &cell_seed,
                &mut dedup,
            )?;

            let median_found = |set: &TrialSet| -> String {
                let mut s =
                    Summary::from_values(set.results.iter().map(|r| r.true_found as f64).collect());
                format!("{:.0}", s.median())
            };
            let mut row = vec![format!("{duration}"), skew.label()];
            for target in [10, 100, 1_000] {
                let saving = savings(&cell, |set| set.median_frames_to_count(target));
                row.push(saving.map_or("-".to_string(), |s| format!("{s:.2}x")));
            }
            row.extend([median_found(&cell.0), median_found(&cell.1)]);
            table.push_row(row);
        }
    }

    Ok(Report {
        before: format!("# workload: {frames} frames, {instances} instances, {chunks} chunks, budget {budget} frames/run, {trials} trials\n\n"),
        table,
        after: format!(
            "{}
# Expected shape (paper Figure 3): savings near 1x in the 'none' skew column,
# growing to large multiples in the 1/256 column; savings also grow with mean
# duration because abundant long-lived results let ExSample's statistics
# converge quickly. '-' means the target was not reached within the budget by
# one of the methods (typically random sampling in the highly skewed cells).
",
            selection_telemetry_line(dedup.as_ref())
        ),
    })
}
