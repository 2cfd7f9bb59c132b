//! Multi-trial sweeps.
//!
//! The paper repeats every simulated configuration many times (21 trials per
//! Figure 3 cell, 10 000 runs for the Figure 2 validation) and reports medians and
//! percentile bands.  [`run_trials`] executes a configurable number of independent
//! trials — each with a seed derived from the trial index so results are exactly
//! reproducible — optionally spreading them over threads with a rayon-style
//! order-preserving parallel map.
//!
//! Determinism guarantee: each trial's result is a pure function of its trial
//! index (callers derive the trial RNG seed from it), and the parallel map
//! assigns results back to their input slots, so [`run_trials`] returns bitwise
//! identical `TrialSet`s for any thread count, including the sequential path.
//!
//! Trial closures return `Result` (the runner's entry points are fallible),
//! and a zero-trial sweep is a typed [`SimError::NoTrials`] — the sweep layer
//! propagates errors instead of panicking.

use crate::error::SimError;
use crate::runner::RunResult;
use exsample_rand::Summary;
use rayon::prelude::*;

/// A collection of per-trial results for one experimental configuration.
#[derive(Debug, Clone)]
pub struct TrialSet {
    /// Results in trial order.
    pub results: Vec<RunResult>,
}

impl TrialSet {
    /// Number of trials.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// Median frames needed to reach `count` found instances across trials
    /// (trials that never reached the target are excluded).
    pub fn median_frames_to_count(&self, count: usize) -> Option<f64> {
        let mut summary = Summary::new();
        for r in &self.results {
            if let Some(frames) = r.frames_to_count(count) {
                summary.push(frames as f64);
            }
        }
        if summary.is_empty() {
            None
        } else {
            Some(summary.median())
        }
    }

    /// Median frames needed to reach a recall level across trials.
    pub fn median_frames_to_recall(&self, recall: f64) -> Option<f64> {
        let mut summary = Summary::new();
        for r in &self.results {
            if let Some(frames) = r.frames_to_recall(recall) {
                summary.push(frames as f64);
            }
        }
        if summary.is_empty() {
            None
        } else {
            Some(summary.median())
        }
    }
}

/// Run `trials` independent trials of a query configuration.
///
/// `run` receives the trial index and must be deterministic given that index (the
/// usual pattern is to derive the runner's seed from it).  When `parallel` is true
/// the trials are distributed over up to `available_parallelism()` threads via an
/// order-preserving parallel map; results are bitwise identical to the sequential
/// path for any thread count.
///
/// # Errors
/// Returns [`SimError::NoTrials`] for a zero-trial sweep, or the first (in
/// trial order) error any trial produced.
pub fn run_trials<F>(trials: usize, parallel: bool, run: F) -> Result<TrialSet, SimError>
where
    F: Fn(u64) -> Result<RunResult, SimError> + Sync,
{
    if trials == 0 {
        return Err(SimError::NoTrials);
    }
    let results: Vec<Result<RunResult, SimError>> = if !parallel || trials == 1 {
        (0..trials as u64).map(run).collect()
    } else {
        (0..trials as u64).into_par_iter().map(run).collect()
    };
    Ok(TrialSet {
        results: results.into_iter().collect::<Result<Vec<_>, _>>()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{MethodKind, QueryRunner, StopCondition};
    use exsample_data::{Dataset, GridWorkload, SkewLevel};

    fn dataset() -> Dataset {
        GridWorkload::builder()
            .frames(30_000)
            .instances(100)
            .chunks(8)
            .mean_duration(80.0)
            .skew(SkewLevel::Quarter)
            .seed(1)
            .build()
            .unwrap()
            .generate()
    }

    fn run_one(dataset: &Dataset, trial: u64) -> Result<RunResult, SimError> {
        QueryRunner::new(dataset)
            .stop(StopCondition::FrameBudget(300))
            .seed(trial)
            .run(MethodKind::Random)
    }

    #[test]
    fn sequential_and_parallel_give_identical_results() {
        let dataset = dataset();
        let seq = run_trials(6, false, |t| run_one(&dataset, t)).unwrap();
        let par = run_trials(6, true, |t| run_one(&dataset, t)).unwrap();
        assert_eq!(seq.len(), 6);
        assert_eq!(par.len(), 6);
        for (a, b) in seq.results.iter().zip(&par.results) {
            assert_eq!(a.true_found, b.true_found);
            assert_eq!(a.frames_processed, b.frames_processed);
        }
    }

    #[test]
    fn different_trials_use_different_seeds() {
        let dataset = dataset();
        let set = run_trials(4, false, |t| run_one(&dataset, t)).unwrap();
        let founds: Vec<usize> = set.results.iter().map(|r| r.true_found).collect();
        // At least two trials should differ (they use different seeds).
        assert!(founds.windows(2).any(|w| w[0] != w[1]), "founds {founds:?}");
    }

    #[test]
    fn median_frames_to_count_aggregates() {
        let dataset = dataset();
        let set = run_trials(5, false, |t| run_one(&dataset, t)).unwrap();
        let median = set.median_frames_to_count(1);
        assert!(median.is_some());
        assert!(median.unwrap() >= 1.0);
        // An unreachable target yields None.
        assert_eq!(set.median_frames_to_count(10_000), None);
    }

    #[test]
    fn zero_trials_is_a_typed_error() {
        let err = run_trials(0, false, |_| unreachable!()).unwrap_err();
        assert_eq!(err, SimError::NoTrials);
    }

    #[test]
    fn a_failing_trial_propagates_its_error() {
        let dataset = dataset();
        let err = run_trials(3, false, |t| {
            if t == 1 {
                Err(SimError::NoClasses)
            } else {
                run_one(&dataset, t)
            }
        })
        .unwrap_err();
        assert_eq!(err, SimError::NoClasses);
    }
}
