//! A cost-model instrumented detector for measuring batching strategies.
//!
//! Real inference backends have a GPU-shaped cost curve: every invocation pays
//! a fixed dispatch cost (kernel launch, host↔device transfer setup, request
//! framing) plus a per-frame marginal cost.  Batching wins precisely because
//! the fixed cost amortises over the batch — `per_call + per_frame × n` for a
//! batch of `n` frames is much cheaper than `n × (per_call + per_frame)` for
//! `n` singleton calls.
//!
//! [`BatchCostModel`] makes that curve explicit and tunable, and
//! [`BatchingDetector`] wraps any [`Detector`] to *charge* it: every physical
//! invocation increments thread-safe counters for calls, frames and modelled
//! cost, without changing any detection result.  Execution engines can then
//! compare invocation shapes (how a stage's frames are cut into batches) by
//! the number this module produces instead of by wall-clock noise — which is
//! what makes batching gains measurable on a 1-vCPU container.

use crate::class::ObjectClass;
use crate::detection::FrameDetections;
use crate::detector::{DetectError, Detector};
use exsample_video::FrameId;
use std::sync::atomic::{AtomicU64, Ordering};

/// A `per_call + per_frame × n` invocation cost model.
///
/// Costs are in abstract units (the simulator bills them onto its virtual
/// clock; benches report them directly).  The model is intentionally affine —
/// the simplest shape that still rewards batching — and mirrors how the
/// engine's own [`StageStats`] batch tallies are converted to cost:
/// `cost = per_call × calls + per_frame × frames`.
///
/// [`StageStats`]: https://docs.rs/exsample-engine
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchCostModel {
    /// Fixed cost charged per physical invocation, regardless of batch size.
    pub per_call: u64,
    /// Marginal cost charged per frame in the batch.
    pub per_frame: u64,
}

impl BatchCostModel {
    /// Create a cost model with the given fixed and marginal costs.
    pub fn new(per_call: u64, per_frame: u64) -> Self {
        BatchCostModel {
            per_call,
            per_frame,
        }
    }

    /// A GPU-shaped default: dispatch overhead worth 32 frames of marginal
    /// work (`per_call = 32`, `per_frame = 1`).
    ///
    /// With this curve, halving the number of physical calls at a fixed frame
    /// count saves 32 units per call eliminated — large enough that one batch
    /// per detector group visibly beats several smaller ones in the benches,
    /// small enough that per-frame work still dominates for batches of a few
    /// hundred frames.
    pub fn gpu_default() -> Self {
        BatchCostModel::new(32, 1)
    }

    /// The modelled cost of one physical call over `n` frames.
    pub fn call_cost(&self, n: u64) -> u64 {
        self.per_call + self.per_frame * n
    }

    /// The modelled cost of `calls` physical invocations covering `frames`
    /// frames in total.
    pub fn cost(&self, calls: u64, frames: u64) -> u64 {
        self.per_call * calls + self.per_frame * frames
    }
}

impl Default for BatchCostModel {
    fn default() -> Self {
        BatchCostModel::gpu_default()
    }
}

/// A [`Detector`] wrapper that counts physical invocations and charges a
/// [`BatchCostModel`] for each, without altering any detection result.
///
/// Counters are atomics, so one `BatchingDetector` can be shared across
/// concurrent worker lanes (the [`Detector`] thread-safety contract) and the
/// totals stay exact regardless of which thread issued which call.  Relaxed
/// ordering suffices: the counters are independent monotone tallies read only
/// after the run joins its workers.
///
/// A failed [`Detector::try_detect_batch`] probe still counts — the backend
/// was invoked and the dispatch cost was paid even though no detections came
/// back, matching how execution engines account physical calls.
#[derive(Debug)]
pub struct BatchingDetector<D> {
    inner: D,
    model: BatchCostModel,
    physical_calls: AtomicU64,
    physical_frames: AtomicU64,
    modelled_cost: AtomicU64,
}

impl<D: Detector> BatchingDetector<D> {
    /// Wrap `inner`, charging `model` for every physical invocation.
    pub fn new(inner: D, model: BatchCostModel) -> Self {
        BatchingDetector {
            inner,
            model,
            physical_calls: AtomicU64::new(0),
            physical_frames: AtomicU64::new(0),
            modelled_cost: AtomicU64::new(0),
        }
    }

    /// The wrapped detector.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// The cost model being charged.
    pub fn model(&self) -> BatchCostModel {
        self.model
    }

    /// Physical invocations issued so far (single-frame `detect` calls count
    /// as batches of one).
    pub fn physical_calls(&self) -> u64 {
        self.physical_calls.load(Ordering::Relaxed)
    }

    /// Frames submitted across all physical invocations so far.
    pub fn physical_frames(&self) -> u64 {
        self.physical_frames.load(Ordering::Relaxed)
    }

    /// Total modelled cost charged so far
    /// (`per_call × calls + per_frame × frames`).
    pub fn modelled_cost(&self) -> u64 {
        self.modelled_cost.load(Ordering::Relaxed)
    }

    /// Reset all counters to zero (e.g. between bench iterations).
    pub fn reset(&self) {
        self.physical_calls.store(0, Ordering::Relaxed);
        self.physical_frames.store(0, Ordering::Relaxed);
        self.modelled_cost.store(0, Ordering::Relaxed);
    }

    fn charge(&self, frames: u64) {
        self.physical_calls.fetch_add(1, Ordering::Relaxed);
        self.physical_frames.fetch_add(frames, Ordering::Relaxed);
        self.modelled_cost
            .fetch_add(self.model.call_cost(frames), Ordering::Relaxed);
    }
}

impl<D: Detector> Detector for BatchingDetector<D> {
    fn detect(&self, frame: FrameId) -> FrameDetections {
        self.charge(1);
        self.inner.detect(frame)
    }

    fn detect_batch(&self, frames: &[FrameId], out: &mut Vec<FrameDetections>) {
        self.charge(frames.len() as u64);
        self.inner.detect_batch(frames, out);
    }

    fn try_detect_batch(
        &self,
        frames: &[FrameId],
        out: &mut Vec<FrameDetections>,
    ) -> Result<(), DetectError> {
        self.charge(frames.len() as u64);
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

    fn wrapped() -> BatchingDetector<PerfectDetector> {
        let truth = Arc::new(GroundTruth::from_instances(
            1_000,
            vec![ObjectInstance::simple(0, "car", 0, 499)],
        ));
        BatchingDetector::new(
            PerfectDetector::new(truth, ObjectClass::from("car")),
            BatchCostModel::new(10, 2),
        )
    }

    #[test]
    fn cost_model_is_affine_in_calls_and_frames() {
        let model = BatchCostModel::new(10, 2);
        assert_eq!(model.call_cost(0), 10);
        assert_eq!(model.call_cost(5), 20);
        assert_eq!(model.cost(3, 5), 40);
        // One big batch beats the same frames split into singleton calls.
        assert!(model.call_cost(8) < 8 * model.call_cost(1));
        assert_eq!(BatchCostModel::gpu_default(), BatchCostModel::default());
    }

    #[test]
    fn wrapper_preserves_results_and_charges_each_invocation() {
        let det = wrapped();
        let direct = det.inner().detect(100);
        assert_eq!(det.detect(100), direct);
        assert_eq!(det.physical_calls(), 1);
        assert_eq!(det.physical_frames(), 1);
        assert_eq!(det.modelled_cost(), 12);

        let mut out = Vec::new();
        det.detect_batch(&[100, 200, 900], &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], direct);
        assert_eq!(det.physical_calls(), 2);
        assert_eq!(det.physical_frames(), 4);
        assert_eq!(det.modelled_cost(), 12 + 16);

        out.clear();
        det.try_detect_batch(&[300, 400], &mut out).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(det.physical_calls(), 3);
        assert_eq!(det.physical_frames(), 6);
        assert_eq!(det.modelled_cost(), 12 + 16 + 14);
        assert_eq!(det.class().name(), "car");
    }

    #[test]
    fn reset_zeroes_all_counters() {
        let det = wrapped();
        let mut out = Vec::new();
        det.detect_batch(&[1, 2], &mut out);
        assert!(det.physical_calls() > 0);
        det.reset();
        assert_eq!(det.physical_calls(), 0);
        assert_eq!(det.physical_frames(), 0);
        assert_eq!(det.modelled_cost(), 0);
    }

    #[test]
    fn failed_probes_still_charge_the_dispatch_cost() {
        use crate::fault::{FaultInjectingDetector, FaultPlan};
        let truth = Arc::new(GroundTruth::from_instances(
            1_000,
            vec![ObjectInstance::simple(0, "car", 0, 499)],
        ));
        let inner = PerfectDetector::new(truth, ObjectClass::from("car"));
        // A permanent-fault-only plan at rate 1.0 fails every frame.
        let faulty = FaultInjectingDetector::new(inner, FaultPlan::new(7).permanent_rate(1.0));
        let det = BatchingDetector::new(faulty, BatchCostModel::new(10, 2));
        let mut out = Vec::new();
        assert!(det.try_detect_batch(&[5, 6], &mut out).is_err());
        assert_eq!(det.physical_calls(), 1);
        assert_eq!(det.physical_frames(), 2);
        assert_eq!(det.modelled_cost(), 14);
    }
}
