//! # exsample-track
//!
//! The **discriminator** that turns raw detections into *distinct object*
//! results.
//!
//! Distinct-object queries (Section II-B of the paper) require that each returned
//! result correspond to a different physical object: detecting the same traffic
//! light in two frames several seconds apart yields only one result.  The paper
//! resolves this with a discriminator that runs a SORT-like IoU tracker forwards
//! and backwards from each newly found object and discards future detections that
//! match previously observed positions.
//!
//! [`discriminator`] holds the [`Discriminator`] trait, the
//! [`MatchOutcome`] it reports (`d0` / `d1` of Algorithm 1), and two
//! implementations: [`TrackingDiscriminator`] (paper-faithful, IoU against the
//! positions an ideal tracker would return, read from ground truth) and
//! [`OracleDiscriminator`] (matches on ground-truth instance ids; used to isolate
//! sampling behaviour from matching noise in controlled simulations).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod discriminator;

pub use discriminator::{Discriminator, MatchOutcome, OracleDiscriminator, TrackingDiscriminator};
