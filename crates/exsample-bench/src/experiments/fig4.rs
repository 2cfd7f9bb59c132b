//! Figure 4: the effect of the number of chunks on ExSample's performance.
//!
//! The paper fixes the Figure 3 workload at skew 1/32 and mean duration 700 frames
//! and varies the chunk count from 1 to 1024.  One chunk makes ExSample equivalent
//! to random sampling; more chunks let it exploit finer-grained skew, but too many
//! chunks (1024) cost so many exploratory samples that performance drops again —
//! the benefit is non-monotonic.  The dashed reference is the optimal static
//! allocation of Eq. IV.1, computed here with the `exsample-opt` solver.

use super::{found_at, merge_selection_telemetry, selection_telemetry_line, skewed_grid, sweep};
use super::{ExperimentError, ExperimentOptions, Report};
use exsample_core::ExSampleConfig;
use exsample_opt::{optimal_weights, InstanceChunkProbabilities, SolverOptions};
use exsample_rand::SeedSequence;
use exsample_sim::{MethodKind, QueryRunner, StopCondition, Table};

/// Run Figure 4's chunk-count sweep; fails on a rejected workload or a failed run.
pub fn run(options: &ExperimentOptions) -> Result<Report, ExperimentError> {
    let (frames, budget) = if options.full {
        (16_000_000u64, 30_000u64)
    } else {
        (2_000_000, 20_000)
    };
    let trials = options.trials_or(5, 21);

    let seeds = SeedSequence::new(options.seed).derive("fig4");
    let mut dedup = None;
    let mut table = Table::new(vec![
        "chunks",
        "found @ n/8",
        "found @ n/4",
        "found @ n/2",
        "found @ n",
        "optimal @ n",
    ]);

    for chunks in [1, 2, 16, 128, 1024] {
        let dataset = skewed_grid(frames, chunks, seeds.derive("workload").seed())?;

        let runner = QueryRunner::new(&dataset).stop(StopCondition::FrameBudget(budget));
        let seeds = seeds.derive("run").index(u64::from(chunks));
        let exsample = MethodKind::ExSample(ExSampleConfig::default());
        let set = sweep(options, runner, trials, seeds, exsample)?;
        merge_selection_telemetry(&mut dedup, &set.results);

        // Median instances found at each checkpoint across trials.
        let mut row = vec![format!("{chunks}")];
        for checkpoint in [budget / 8, budget / 4, budget / 2, budget] {
            let mut found = found_at(set.results.iter().map(|r| &r.trajectory), checkpoint);
            row.push(format!("{:.0}", found.median()));
        }

        // The Eq. IV.1 optimal static allocation for the full budget.
        let intervals: Vec<(u64, u64)> = dataset
            .ground_truth()
            .instances()
            .iter()
            .map(|i| (i.first_frame(), i.last_frame()))
            .collect();
        let chunk_ranges: Vec<(u64, u64)> = dataset
            .chunking()
            .chunks()
            .iter()
            .map(|c| (c.start(), c.end()))
            .collect();
        let probs = InstanceChunkProbabilities::from_intervals(&intervals, &chunk_ranges);
        let optimal = optimal_weights(&probs, budget, SolverOptions::default());
        row.push(format!("{:.0}", optimal.expected_found));

        table.push_row(row);
    }

    Ok(Report {
        before: format!("# workload: {frames} frames, 2000 instances, skew 1/32, mean duration 700, budget {budget}, {trials} trials\n\n"),
        table,
        after: format!(
            "{}
# Expected shape (paper Figure 4): 1 chunk behaves like random sampling; a
# moderate number of chunks (16-128) finds the most instances; 1024 chunks
# drops back because each chunk must be sampled before its statistics mean
# anything. The optimal column grows with chunk count because perfect prior
# knowledge exploits ever finer skew, which ExSample cannot match at 1024.
",
            selection_telemetry_line(dedup.as_ref())
        ),
    })
}
