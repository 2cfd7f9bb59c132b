//! Deterministic fault injection for fallible detection.
//!
//! Testing a fault-tolerant execution engine needs faults that are
//! *reproducible*: the same seed must schedule the same failures on the same
//! frames in every run, regardless of thread count or how a stage's frames
//! are cut into batches.  [`FaultInjectingDetector`] wraps any [`Detector`] and injects
//! typed [`DetectError`]s according to a seeded [`FaultPlan`] — never
//! `Math.random`-style nondeterminism.
//!
//! # Determinism contract
//!
//! A frame's fault schedule is a pure function of `(frame, attempt)`, where
//! `attempt` counts how many fallible calls have included that frame so far.
//! Every [`Detector::try_detect_batch`] call charges **one attempt to every
//! frame in the batch**, whether or not the call succeeds and wherever the
//! frame sits in the batch.  Because an engine stage detects each of its
//! frames in exactly one batch, and recovers a failed batch frame by frame in
//! a fixed order, a frame's attempt counter advances identically however the
//! stage's batches are cut over threads — so a fixed seed + plan yields
//! bitwise-identical fault behaviour in every engine configuration (pinned by
//! the engine's fault-determinism matrix).
//!
//! Two fault kinds are scheduled:
//!
//! * **transient** — a frame drawn with probability `transient_rate` fails its
//!   first `transient_attempts` attempts (default 1) with
//!   [`DetectError::Transient`], then succeeds.  At the default, the execution
//!   engine's per-frame try after a failed batch probe recovers it; at more
//!   attempts, it fails the run.
//! * **permanent** — a frame drawn with probability `permanent_rate` fails
//!   *every* attempt with [`DetectError::Permanent`], so it always fails the
//!   run that reaches it.

use crate::class::ObjectClass;
use crate::detection::FrameDetections;
use crate::detector::{DetectError, Detector};
use exsample_rand::SeedSequence;
use exsample_video::FrameId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// What a [`FaultPlan`] schedules for one `(frame, attempt)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    Transient,
    Permanent,
}

/// A seeded, reproducible fault schedule for [`FaultInjectingDetector`].
///
/// All rates default to zero: `FaultPlan::new(seed)` injects nothing until a
/// builder method turns a fault kind on.  The plan is `Copy`-cheap
/// configuration; the wrapper derives its seed stream once at construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    transient_rate: f64,
    transient_attempts: u32,
    permanent_rate: f64,
}

impl FaultPlan {
    /// A plan with the given seed and no faults scheduled.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            transient_rate: 0.0,
            transient_attempts: 1,
            permanent_rate: 0.0,
        }
    }

    /// Probability that a frame is scheduled for transient failures.
    ///
    /// A transient frame fails its first `transient_attempts` attempts (see
    /// [`FaultPlan::transient_attempts`]) and succeeds afterwards.
    pub fn transient_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
        self.transient_rate = rate;
        self
    }

    /// How many leading attempts a transient frame fails before recovering.
    ///
    /// Defaults to 1.  The execution engine spends one batch-level attempt
    /// probing a batch and, if it fails, one single-frame attempt per frame:
    /// at 1 the single-frame attempt recovers the frame, so a default
    /// transient fault is one the engine recovers; at 2 or more the frame
    /// fails the run.
    pub fn transient_attempts(mut self, attempts: u32) -> Self {
        assert!(attempts > 0, "a transient fault must fail at least once");
        self.transient_attempts = attempts;
        self
    }

    /// Probability that a frame is scheduled to fail permanently (every
    /// attempt fails with [`DetectError::Permanent`]).
    pub fn permanent_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
        self.permanent_rate = rate;
        self
    }

    /// The plan's seed.
    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    /// The fault (if any) scheduled for this `(frame, attempt)`.  Pure
    /// function of the arguments.
    fn schedule(&self, seeds: &SeedSequence, frame: FrameId, attempt: u32) -> Option<Fault> {
        if self.transient_rate == 0.0 && self.permanent_rate == 0.0 {
            return None;
        }
        let mut rng = StdRng::seed_from_u64(seeds.index(frame).seed());
        let kind: f64 = rng.gen();
        if kind < self.permanent_rate {
            Some(Fault::Permanent)
        } else if kind < self.permanent_rate + self.transient_rate
            && attempt < self.transient_attempts
        {
            Some(Fault::Transient)
        } else {
            None
        }
    }
}

/// A [`Detector`] wrapper that injects deterministic faults per its
/// [`FaultPlan`].
///
/// The infallible [`Detector::detect`] / [`Detector::detect_batch`] paths
/// delegate straight to the inner detector — faults are only expressible
/// through the fallible [`Detector::try_detect_batch`] entry point, which is
/// the one execution engines use.  Attempt counters are per-frame and
/// independent of each other, so concurrent calls on disjoint frames cannot
/// perturb any frame's schedule (the counter map is mutex-guarded for the
/// `Send + Sync` bound, not for cross-frame ordering).
pub struct FaultInjectingDetector<D> {
    inner: D,
    plan: FaultPlan,
    seeds: SeedSequence,
    attempts: Mutex<HashMap<FrameId, u32>>,
    injected_faults: AtomicU64,
}

impl<D: Detector> FaultInjectingDetector<D> {
    /// Wrap `inner`, injecting faults per `plan`.
    pub fn new(inner: D, plan: FaultPlan) -> Self {
        FaultInjectingDetector {
            inner,
            plan,
            seeds: SeedSequence::new(plan.seed()).derive("fault-plan"),
            attempts: Mutex::new(HashMap::new()),
            injected_faults: AtomicU64::new(0),
        }
    }

    /// Total scheduled faults encountered so far (each faulted frame in each
    /// failing call counts once).
    pub fn injected_faults(&self) -> u64 {
        self.injected_faults.load(Ordering::SeqCst)
    }
}

impl<D: Detector> Detector for FaultInjectingDetector<D> {
    fn detect(&self, frame: FrameId) -> FrameDetections {
        self.inner.detect(frame)
    }

    fn detect_batch(&self, frames: &[FrameId], out: &mut Vec<FrameDetections>) {
        self.inner.detect_batch(frames, out);
    }

    fn try_detect_batch(
        &self,
        frames: &[FrameId],
        out: &mut Vec<FrameDetections>,
    ) -> Result<(), DetectError> {
        // Charge one attempt to every frame in the batch up front, so a
        // frame's schedule depends only on its own attempt count — never on
        // batch composition or on where in the batch a fault sits.
        let mut first_fault: Option<DetectError> = None;
        let mut faults = 0u64;
        {
            let mut attempts = self.attempts.lock().expect("attempt map poisoned");
            for &frame in frames {
                let attempt = attempts.entry(frame).or_insert(0);
                let n = *attempt;
                *attempt += 1;
                if let Some(fault) = self.plan.schedule(&self.seeds, frame, n) {
                    faults += 1;
                    if first_fault.is_none() {
                        first_fault = Some(match fault {
                            Fault::Transient => DetectError::Transient {
                                frame,
                                message: format!("injected transient fault (attempt {n})"),
                            },
                            Fault::Permanent => DetectError::Permanent {
                                frame,
                                message: "injected permanent fault".to_string(),
                            },
                        });
                    }
                }
            }
        }
        if let Some(err) = first_fault {
            self.injected_faults.fetch_add(faults, Ordering::SeqCst);
            return Err(err);
        }
        self.inner.try_detect_batch(frames, out)
    }

    fn class(&self) -> &ObjectClass {
        self.inner.class()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::PerfectDetector;
    use crate::ground_truth::GroundTruth;
    use crate::instance::ObjectInstance;
    use std::sync::Arc;

    fn perfect() -> PerfectDetector {
        let truth = Arc::new(GroundTruth::from_instances(
            10_000,
            vec![ObjectInstance::simple(0, "car", 0, 999)],
        ));
        PerfectDetector::new(truth, ObjectClass::from("car"))
    }

    #[test]
    fn zero_rate_plan_is_transparent() {
        let det = FaultInjectingDetector::new(perfect(), FaultPlan::new(1));
        let frames: Vec<FrameId> = (0..100).collect();
        let mut out = Vec::new();
        det.try_detect_batch(&frames, &mut out).unwrap();
        assert_eq!(out.len(), frames.len());
        assert_eq!(det.injected_faults(), 0);
    }

    #[test]
    fn transient_frames_fail_then_recover() {
        let plan = FaultPlan::new(7).transient_rate(1.0).transient_attempts(2);
        let det = FaultInjectingDetector::new(perfect(), plan);
        let mut out = Vec::new();
        // Attempts 0 and 1 fail transiently; attempt 2 succeeds.
        for attempt in 0..2 {
            let err = det.try_detect_batch(&[42], &mut out).unwrap_err();
            assert!(err.is_transient(), "attempt {attempt}: {err}");
            assert_eq!(err.frame(), 42);
        }
        out.clear();
        det.try_detect_batch(&[42], &mut out).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(det.injected_faults(), 2);
    }

    #[test]
    fn permanent_frames_never_recover() {
        let plan = FaultPlan::new(7).permanent_rate(1.0);
        let det = FaultInjectingDetector::new(perfect(), plan);
        let mut out = Vec::new();
        for _ in 0..5 {
            let err = det.try_detect_batch(&[9], &mut out).unwrap_err();
            assert!(!err.is_transient());
            assert_eq!(err.frame(), 9);
        }
    }

    #[test]
    fn schedule_is_independent_of_batch_composition() {
        // The same frame reaches the same fault decisions whether attempted in
        // a large batch or alone: attempts are charged per frame, per call.
        let plan = FaultPlan::new(23).transient_rate(0.3);
        let solo = FaultInjectingDetector::new(perfect(), plan);
        let batched = FaultInjectingDetector::new(perfect(), plan);
        let frames: Vec<FrameId> = (0..200).collect();
        let mut solo_faulty = Vec::new();
        let mut out = Vec::new();
        for &frame in &frames {
            out.clear();
            if solo.try_detect_batch(&[frame], &mut out).is_err() {
                solo_faulty.push(frame);
            }
        }
        assert!(!solo_faulty.is_empty(), "plan scheduled no faults at 30%");
        // One big batch fails on the first scheduled fault...
        out.clear();
        let err = batched.try_detect_batch(&frames, &mut out).unwrap_err();
        assert_eq!(err.frame(), solo_faulty[0]);
        // ...and after that probe every frame's next attempt matches the solo
        // run's *second* attempt: transient faults with one failing attempt
        // have cleared in both.
        for &frame in &frames {
            out.clear();
            assert!(
                batched.try_detect_batch(&[frame], &mut out).is_ok(),
                "frame {frame} should have recovered"
            );
        }
    }

    #[test]
    fn infallible_paths_bypass_injection() {
        let plan = FaultPlan::new(7).permanent_rate(1.0);
        let det = FaultInjectingDetector::new(perfect(), plan);
        let mut out = Vec::new();
        det.detect_batch(&[1, 2, 3], &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(det.detect(500).frame, 500);
        assert_eq!(det.injected_faults(), 0);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_rate_panics() {
        let _ = FaultPlan::new(1).transient_rate(1.5);
    }
}
