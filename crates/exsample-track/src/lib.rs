//! # exsample-track
//!
//! IoU matching, SORT-style multi-object tracking, and the **discriminator** that
//! turns raw detections into *distinct object* results.
//!
//! Distinct-object queries (Section II-B of the paper) require that each returned
//! result correspond to a different physical object: detecting the same traffic
//! light in two frames several seconds apart yields only one result.  The paper
//! resolves this with a discriminator that runs a SORT-like IoU tracker forwards
//! and backwards from each newly found object and discards future detections that
//! match previously observed positions.
//!
//! This crate provides:
//!
//! * [`matcher`] — greedy IoU matching between two sets of boxes, the primitive
//!   both the tracker and the discriminator are built on.
//! * [`tracker`] — a SORT-like tracker that links per-frame detections into tracks;
//!   used to build approximate ground truth by sequential scanning, exactly as the
//!   paper does for its evaluation datasets.
//! * [`ground_truth_builder`] — that sequential-scan ground-truth construction.
//! * [`discriminator`] — the [`discriminator::Discriminator`] trait plus the
//!   [`discriminator::TrackingDiscriminator`] (paper-faithful, IoU against stored
//!   track positions) and [`discriminator::OracleDiscriminator`] (matches on
//!   ground-truth instance ids; used to isolate sampling behaviour from matching
//!   noise in controlled simulations).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod discriminator;
pub mod ground_truth_builder;
pub mod matcher;
pub mod tracker;

pub use discriminator::{Discriminator, MatchOutcome, OracleDiscriminator, TrackingDiscriminator};
pub use ground_truth_builder::{build_ground_truth, GroundTruthBuildConfig};
pub use matcher::{greedy_iou_match, MatchPair};
pub use tracker::{IouTracker, Track, TrackId};
