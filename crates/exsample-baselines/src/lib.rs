//! # exsample-baselines
//!
//! The frame orders ExSample is evaluated against (Section II-B and Section V
//! of the paper) that are not plain random sampling:
//!
//! * [`sequential::SequentialScan`] — naive execution: process frames in temporal
//!   order (optionally one out of every `k` frames).
//! * [`proxy::ProxyBaseline`] — a BlazeIt-style proxy-score baseline: an upfront
//!   full-dataset scoring scan, then frames processed in descending proxy-score
//!   order with an optional duplicate-avoidance gap.
//!
//! Both are plain frame iterators; `exsample-engine` implements its
//! `SamplingPolicy` trait for them, next to ExSample itself and the
//! whole-repository `random` / `random+` samplers (`FrameSamplerPolicy` over
//! `exsample-video`'s within-range samplers).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod proxy;
pub mod sequential;

pub use proxy::{ProxyBaseline, ProxyConfig};
pub use sequential::SequentialScan;
