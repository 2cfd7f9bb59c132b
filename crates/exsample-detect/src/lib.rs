//! # exsample-detect
//!
//! Object-detection substrate for the ExSample reproduction.
//!
//! ExSample treats the object detector as a *black box with a costly runtime*
//! (Section II-A of the paper): the algorithm hands the detector a decoded frame
//! and receives a set of bounding boxes.  The paper uses Faster-RCNN with a
//! ResNet-50 backbone running at roughly 10 fps on a GPU; this crate replaces that
//! stack with a **simulated detector** driven by ground-truth object instances, so
//! the whole evaluation can run deterministically on a laptop while exercising the
//! exact same interfaces the real pipeline would.
//!
//! The crate provides:
//!
//! * [`bbox`] — axis-aligned bounding boxes in normalised image coordinates with
//!   IoU (intersection over union) arithmetic.
//! * [`class`] — object classes (car, person, traffic light, …).
//! * [`detection`] — a single detection (box + class + confidence) and the set of
//!   detections produced for one frame.
//! * [`instance`] — a ground-truth *object instance*: one physical object visible
//!   over an interval of frames, with one fixed box in every frame where it is
//!   visible.
//! * [`ground_truth`] — a queryable collection of instances with a temporal index.
//! * [`detector`] — the [`detector::Detector`] trait (thread-safe: `Send + Sync`,
//!   so engines can share one instance across concurrent worker lanes) plus
//!   [`detector::PerfectDetector`] and [`detector::SimulatedDetector`]
//!   (configurable miss rate, false positives, localisation noise;
//!   deterministic per frame).  Detection can fail: the fallible
//!   [`detector::Detector::try_detect_batch`] entry point returns typed
//!   [`detector::DetectError`]s (transient vs permanent) instead of panicking.
//! * [`fault`] — deterministic fault injection: a seeded [`fault::FaultPlan`]
//!   schedules transient errors and permanent failures per
//!   `(frame, attempt)`, and [`fault::FaultInjectingDetector`] wraps any
//!   detector with that schedule — reproducible faults for testing
//!   fault-tolerant engines.
//! * [`batching`] — a tunable `per_call + per_frame × n` invocation cost model
//!   ([`batching::BatchCostModel`], the GPU-shaped curve) and
//!   [`batching::BatchingDetector`], a wrapper charging that model per
//!   physical invocation so batching strategies are measurable by modelled
//!   cost instead of wall-clock noise.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod batching;
pub mod bbox;
pub mod class;
pub mod detection;
pub mod detector;
pub mod fault;
pub mod ground_truth;
pub mod instance;

pub use batching::{BatchCostModel, BatchingDetector};
pub use bbox::BBox;
pub use class::ObjectClass;
pub use detection::{Detection, FrameDetections};
pub use detector::{DetectError, Detector, DetectorNoise, PerfectDetector, SimulatedDetector};
pub use fault::{FaultInjectingDetector, FaultPlan};
pub use ground_truth::GroundTruth;
pub use instance::{InstanceId, ObjectInstance};
