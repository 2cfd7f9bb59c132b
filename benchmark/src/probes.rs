//! Decorators over the engine's public trait seams: the costly detector and
//! the timing wrappers that measure each layer from outside.

use crate::trace::{Probe, Span};
use exsample_detect::{DetectError, Detector, FrameDetections, ObjectClass};
use exsample_engine::{SamplingPolicy, SelectionTelemetry};
use exsample_track::{Discriminator, MatchOutcome};
use exsample_video::FrameId;
use rand::RngCore;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// What one detector invocation costs on top of the wrapped detector:
/// `per_call + per_frame × frames`, the shape of a batched GPU inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectorCost {
    pub per_call: Duration,
    pub per_frame: Duration,
}

impl DetectorCost {
    /// A detector that costs only what the wrapped detector costs.
    pub const FREE: DetectorCost = DetectorCost {
        per_call: Duration::ZERO,
        per_frame: Duration::ZERO,
    };

    /// The costly detector of the `dashcam_gpu` and `requery_cached`
    /// workloads: 0.2 ms per call plus 0.1 ms per frame, 50 to 75 times the
    /// engine's own cost per frame, so DETECT dominates as in the paper.
    pub const GPU: DetectorCost = DetectorCost {
        per_call: Duration::from_micros(200),
        per_frame: Duration::from_micros(100),
    };

    fn of(&self, frames: usize) -> Duration {
        self.per_call + self.per_frame * frames as u32
    }
}

/// A detector that forwards to `inner` and then sleeps for the modelled cost.
///
/// Sleeping, not spinning: it models inference offloaded to an accelerator,
/// so two lanes overlap on two cores without fighting for them.  The same
/// struct is the DETECT timing decorator: it always counts calls and frames,
/// and records spans when a probe is attached.
pub struct SleepingDetector<'t, D: Detector> {
    inner: D,
    cost: DetectorCost,
    probe: Option<Probe<'t>>,
    calls: AtomicU64,
    frames: AtomicU64,
}

impl<'t, D: Detector> SleepingDetector<'t, D> {
    pub fn new(inner: D, cost: DetectorCost, probe: Option<Probe<'t>>) -> Self {
        SleepingDetector {
            inner,
            cost,
            probe,
            calls: AtomicU64::new(0),
            frames: AtomicU64::new(0),
        }
    }

    /// Batched invocations seen so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Frames seen so far.
    pub fn frames(&self) -> u64 {
        self.frames.load(Ordering::Relaxed)
    }

    fn around<T>(&self, frames: usize, call: impl FnOnce() -> T) -> T {
        // Relaxed: the tallies are statistics read after the run has joined
        // its threads.
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.frames.fetch_add(frames as u64, Ordering::Relaxed);
        let start = self.probe.map(|p| p.tracer.now_ns());
        let value = call();
        let inner_end = self.probe.map(|p| p.tracer.now_ns());
        let cost = self.cost.of(frames);
        if !cost.is_zero() {
            std::thread::sleep(cost);
        }
        if let (Some(probe), Some(start), Some(inner_end)) = (self.probe, start, inner_end) {
            let end = probe.tracer.now_ns();
            let call_id =
                probe
                    .tracer
                    .push(probe.at, "exsample-detect.call", start, end, frames as u64);
            probe.tracer.push(
                probe.under(call_id).at,
                "exsample-detect.inner",
                start,
                inner_end,
                frames as u64,
            );
        }
        value
    }
}

impl<D: Detector> Detector for SleepingDetector<'_, D> {
    fn detect(&self, frame: FrameId) -> FrameDetections {
        self.around(1, || self.inner.detect(frame))
    }

    fn detect_batch(&self, frames: &[FrameId], out: &mut Vec<FrameDetections>) {
        self.around(frames.len(), || self.inner.detect_batch(frames, out));
    }

    fn try_detect_batch(
        &self,
        frames: &[FrameId],
        out: &mut Vec<FrameDetections>,
    ) -> Result<(), DetectError> {
        self.around(frames.len(), || self.inner.try_detect_batch(frames, out))
    }

    fn class(&self) -> &ObjectClass {
        self.inner.class()
    }
}

/// Per-frame calls of one query folded into one span per stage.
struct Fold<'t> {
    probe: Probe<'t>,
    name: &'static str,
    epoch: u64,
    start_ns: u64,
    end_ns: u64,
    calls: u64,
    busy_ns: u64,
}

impl<'t> Fold<'t> {
    fn new(probe: Probe<'t>, name: &'static str) -> Self {
        Fold {
            probe,
            name,
            epoch: 0,
            start_ns: 0,
            end_ns: 0,
            calls: 0,
            busy_ns: 0,
        }
    }

    fn flush(&mut self) {
        if self.calls > 0 {
            self.probe.tracer.record(Span {
                id: self.probe.tracer.reserve(),
                parent: self.probe.at.parent,
                rep: self.probe.at.rep,
                name: self.name,
                start_ns: self.start_ns,
                end_ns: self.end_ns,
                count: self.calls,
                busy_ns: self.busy_ns,
            });
            self.calls = 0;
            self.busy_ns = 0;
        }
    }

    fn around<T>(&mut self, call: impl FnOnce() -> T) -> T {
        let epoch = self.probe.tracer.stage_epoch();
        if epoch != self.epoch {
            self.flush();
            self.epoch = epoch;
        }
        let start = self.probe.tracer.now_ns();
        let value = call();
        let end = self.probe.tracer.now_ns();
        if self.calls == 0 {
            self.start_ns = start;
        }
        self.end_ns = end;
        self.calls += 1;
        self.busy_ns += end - start;
        value
    }
}

impl Drop for Fold<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

/// PICK timing decorator: one span per `next_batch_into`, and the per-frame
/// `record` calls folded into one span per stage.
pub struct TimedPolicy<'a, 't> {
    inner: Box<dyn SamplingPolicy + 'a>,
    probe: Probe<'t>,
    records: Fold<'t>,
}

impl<'a, 't> TimedPolicy<'a, 't> {
    pub fn new(inner: Box<dyn SamplingPolicy + 'a>, probe: Probe<'t>) -> Self {
        TimedPolicy {
            inner,
            probe,
            records: Fold::new(probe, "exsample-core.record"),
        }
    }
}

impl SamplingPolicy for TimedPolicy<'_, '_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn upfront_scan_frames(&self) -> u64 {
        self.inner.upfront_scan_frames()
    }

    fn next_batch_into(&mut self, rng: &mut dyn RngCore, batch: usize, picks: &mut Vec<FrameId>) {
        let tracer = self.probe.tracer;
        tracer.bump_stage_epoch();
        let start = tracer.now_ns();
        self.inner.next_batch_into(rng, batch, picks);
        let end = tracer.now_ns();
        tracer.push(
            self.probe.at,
            "exsample-core.pick",
            start,
            end,
            picks.len() as u64,
        );
    }

    fn record(&mut self, frame: FrameId, outcome: &MatchOutcome) {
        let inner = &mut self.inner;
        self.records.around(|| inner.record(frame, outcome));
    }

    fn remaining(&self) -> Option<u64> {
        self.inner.remaining()
    }

    fn selection_telemetry(&self) -> Option<SelectionTelemetry> {
        self.inner.selection_telemetry()
    }
}

/// Discriminator timing decorator: the per-frame `observe` calls folded into
/// one span per stage.
pub struct TimedDiscriminator<'t, X: Discriminator> {
    inner: X,
    observes: Fold<'t>,
}

impl<'t, X: Discriminator> TimedDiscriminator<'t, X> {
    pub fn new(inner: X, probe: Probe<'t>) -> Self {
        TimedDiscriminator {
            inner,
            observes: Fold::new(probe, "exsample-track.observe"),
        }
    }
}

impl<X: Discriminator> Discriminator for TimedDiscriminator<'_, X> {
    fn observe(&mut self, detections: &FrameDetections) -> MatchOutcome {
        let inner = &mut self.inner;
        self.observes.around(|| inner.observe(detections))
    }

    fn distinct_count(&self) -> usize {
        self.inner.distinct_count()
    }

    fn found_instances(&self) -> Vec<exsample_detect::InstanceId> {
        self.inner.found_instances()
    }
}
