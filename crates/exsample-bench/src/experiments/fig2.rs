//! Figure 2: empirical validation of the R̂ estimator and its Gamma belief.
//!
//! The paper draws 1000 skewed per-instance probabilities `p_i`, simulates random
//! frame sampling (each instance appears independently with probability `p_i` per
//! frame), and shows that the Gamma belief `Γ(N1 + 0.1, n + 1)` of Eq. III.4
//! matches the empirical distribution of the true next-frame reward `R(n+1)` once a
//! moderate number of samples has been taken, while being (intentionally) wider
//! early on.
//!
//! This experiment reproduces that comparison quantitatively.  For a set of sample-count
//! checkpoints `n` it records, across many independent trials, the observed `N1`
//! and the true `R(n+1)` (computable in simulation because the `p_i` are known),
//! then compares the empirical quantiles of `R(n+1)` with the quantiles of the
//! Gamma belief built from the *median* observed `N1` at that checkpoint.

use super::{ExperimentError, ExperimentOptions, Report};
use exsample_core::estimator;
use exsample_data::IndependentWorkload;
use exsample_rand::{Gamma, SeedSequence, Summary};
use exsample_sim::Table;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Run Figure 2's comparison; fails on a median `N1` that makes no Gamma belief.
pub fn run(options: &ExperimentOptions) -> Result<Report, ExperimentError> {
    // Reduced mode keeps the run to a few seconds; full mode approaches the paper's
    // configuration (1000 instances, checkpoints up to 180k samples, many trials).
    let trials = options.trials_or(60, 400);
    let checkpoints: &[u64] = if options.full {
        &[100, 1_000, 14_000, 60_000, 180_000]
    } else {
        &[100, 1_000, 5_000, 20_000]
    };

    let seeds = SeedSequence::new(options.seed).derive("fig2");
    let mut workload_rng = SmallRng::seed_from_u64(seeds.derive("workload").seed());
    let workload = IndependentWorkload::paper_figure2(&mut workload_rng);
    let probabilities = workload.probabilities().to_vec();

    // Per checkpoint, collect across trials: observed N1, true R(n+1), and the point
    // estimate N1/n.
    let mut n1_by_checkpoint: Vec<Vec<f64>> = vec![Vec::new(); checkpoints.len()];
    let mut r_by_checkpoint: Vec<Vec<f64>> = vec![Vec::new(); checkpoints.len()];

    for trial in 0..trials {
        let mut rng = SmallRng::seed_from_u64(seeds.derive("trial").index(trial as u64).seed());
        let mut seen_counts = vec![0u32; probabilities.len()];
        let mut n = 0;
        for (i, &checkpoint) in checkpoints.iter().enumerate() {
            for _ in n..checkpoint {
                for idx in workload.sample_frame(&mut rng) {
                    seen_counts[idx] += 1;
                }
            }
            n = checkpoint;
            let n1 = seen_counts.iter().filter(|&&c| c == 1).count() as f64;
            let seen: Vec<bool> = seen_counts.iter().map(|&c| c > 0).collect();
            let r = estimator::realized_r_next(&probabilities, &seen);
            n1_by_checkpoint[i].push(n1);
            r_by_checkpoint[i].push(r);
        }
    }

    let mut table = Table::new(vec![
        "n",
        "median N1",
        "point est N1/n",
        "true R median",
        "true R p25",
        "true R p75",
        "belief mean",
        "belief p25",
        "belief p75",
        "R within belief 5-95%",
    ]);

    for (i, &n) in checkpoints.iter().enumerate() {
        let mut n1_summary = Summary::from_values(n1_by_checkpoint[i].clone());
        let mut r_summary = Summary::from_values(r_by_checkpoint[i].clone());
        let median_n1 = n1_summary.median().round();
        let belief = Gamma::belief(median_n1, n as f64, 0.1, 1.0)?;
        let lo = belief.quantile(0.05);
        let hi = belief.quantile(0.95);
        let coverage = r_by_checkpoint[i]
            .iter()
            .filter(|&&r| r >= lo && r <= hi)
            .count() as f64
            / r_by_checkpoint[i].len() as f64;
        table.push_row(vec![
            format!("{n}"),
            format!("{median_n1:.0}"),
            format!("{:.3e}", median_n1 / n as f64),
            format!("{:.3e}", r_summary.median()),
            format!("{:.3e}", r_summary.percentile(0.25)),
            format!("{:.3e}", r_summary.percentile(0.75)),
            format!("{:.3e}", belief.mean()),
            format!("{:.3e}", belief.quantile(0.25)),
            format!("{:.3e}", belief.quantile(0.75)),
            format!("{:.0}%", coverage * 100.0),
        ]);
    }

    Ok(Report {
        before: format!(
            "# workload: {} instances, mean p = {:.2e}, sigma p = {:.2e}, max p = {:.2e}\n\
             # trials: {trials}\n\n",
            workload.len(),
            workload.mean_p(),
            workload.sigma_p(),
            workload.max_p()
        ),
        table,
        after: "
# Reading the table: at small n the belief is much wider than the empirical
# distribution of R(n+1) (high coverage, conservative); at moderate and large n
# the belief mean tracks the true R median within a small factor, matching the
# paper's Figure 2.
"
        .to_string(),
    })
}
