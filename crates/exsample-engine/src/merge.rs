//! The per-shard report types, and the one fold that publishes them.
//!
//! Shards are a reporting view (see [`crate::shard`]): the engine attributes
//! every tally to the shard owning the frame it was paid for at the moment it
//! is recorded, and [`crate::QueryEngine::report_sharded`] publishes those
//! tallies as one [`ShardReport`] per shard next to the engine's own global
//! [`EngineReport`].  The global report is the run's report — the same for
//! any router, because no router changes what executes — and the per-shard
//! reports partition it: per-query frames and hits, detected frames and
//! cache activity each sum over the shards to the global figure.
//! `detector_calls` stays *logical* in the global report (one per detector
//! group per stage); the physical invocation count — equal to it for a
//! fault-free serial run, larger where a group was cut at a lane boundary or
//! a failed batch probe tried its frames one by one — is the sum over the
//! shards, [`ShardedReport::physical_detector_calls`], each call attributed
//! to the shard owning its batch's first frame.

use crate::cache::CacheActivity;
use crate::engine::EngineReport;
use std::fmt;

/// Physical batch-size statistics: how many `detect_batch` invocations were
/// issued, how many frames they carried in total, and the smallest/largest
/// single batch.
///
/// These are *physical* tallies — they describe the invocation shapes a
/// backend actually saw, so they vary with the lane count (a detector group
/// is cut where a lane boundary falls inside it) and with which frames
/// shared a failed batch.  That is the point: paired with a per-call +
/// per-frame cost model, they make an execution shape's cost comparable in
/// reports without ever being part of the logical determinism contract.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Physical invocations recorded.
    pub count: u64,
    /// Frames submitted across all recorded invocations.
    pub frames: u64,
    /// Smallest single batch recorded (0 when nothing was recorded).
    pub min: u64,
    /// Largest single batch recorded (0 when nothing was recorded).
    pub max: u64,
}

impl BatchStats {
    /// Record `count` physical invocations of `frames` frames each (e.g. a
    /// burst of per-frame recovery calls).
    pub(crate) fn record_repeat(&mut self, frames: u64, count: u64) {
        if count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = frames;
            self.max = frames;
        } else {
            self.min = self.min.min(frames);
            self.max = self.max.max(frames);
        }
        self.count += count;
        self.frames += frames * count;
    }

    /// Fold another tally into this one.
    pub(crate) fn merge(&mut self, other: &BatchStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.frames += other.frames;
    }

    /// Mean frames per invocation (0.0 when nothing was recorded).
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.frames as f64 / self.count as f64
        }
    }
}

impl fmt::Display for BatchStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} batches ({} frames, min {}, mean {:.1}, max {})",
            self.count,
            self.frames,
            self.min,
            self.mean(),
            self.max
        )
    }
}

/// One query's tallies on one shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardQueryTally {
    /// Frames of this query that this shard owned (and detected or served
    /// from cache).
    pub frames: u64,
    /// Ground-truth instances first found on this shard's frames.
    pub hits: u64,
}

/// One detector's invocation tallies on one shard.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DetectorInvocations {
    /// Engine-assigned detector slot (first-seen order; stable within a run).
    pub detector: u32,
    /// The detector's object class, for display.
    pub class: String,
    /// Frames successfully run through this detector on this shard.
    pub frames: u64,
    /// Physical detect invocations attributed to this shard (batch probes
    /// whose first frame it owns, plus its frames' per-frame tries).
    pub calls: u64,
}

/// Everything attributed to one shard over a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardReport {
    /// The shard's index.
    pub shard: u32,
    /// Frames of this shard run through detectors (post-coalescing,
    /// post-cache).
    pub detector_frames: u64,
    /// Physical `detect_batch` invocations attributed to this shard: batch
    /// probes whose first frame it owns, plus its frames' per-frame tries.
    pub detector_calls: u64,
    /// Batch-size statistics over the physical invocations attributed to this
    /// shard (`batches.count == detector_calls`).  A batch may carry other
    /// shards' frames, so `batches.frames` is *not* constrained to this
    /// shard's `detector_frames`.
    pub batches: BatchStats,
    /// Run-cumulative cache activity on this shard's frames: probe hits and
    /// misses, and the evictions their inserts caused
    /// during the serial commit.
    pub cache: CacheActivity,
    /// Per-query tallies, indexed by query registration order.
    pub per_query: Vec<ShardQueryTally>,
    /// Per-detector invocation tallies, ordered by detector slot.
    pub per_detector: Vec<DetectorInvocations>,
}

/// The global report with its per-shard breakdown.
#[derive(Debug, Clone)]
#[must_use = "a sharded report carries the run's outcomes and cost accounting"]
pub struct ShardedReport {
    /// The global report — the run's [`EngineReport`], identical for any
    /// router.
    pub report: EngineReport,
    /// Per-shard breakdowns, in shard order.
    pub shards: Vec<ShardReport>,
    /// Physical `detect_batch` invocations summed over shards.  Exceeds
    /// `report.detector_calls` (the logical count) only where a stage's
    /// detector group was cut at a lane boundary (at most `lanes − 1` times
    /// per stage) or a failed batch was recovered frame by frame — never
    /// because the group's frames span several shards.
    pub physical_detector_calls: u64,
    /// Batch-size statistics merged over the shards' physical invocations
    /// (`physical_batches.count == physical_detector_calls`).
    pub physical_batches: BatchStats,
}

impl ShardedReport {
    /// Publish `shards` next to the global `report`: every physical call is
    /// attributed to exactly one shard, so the physical totals are the
    /// shards' sums.
    pub(crate) fn new(report: EngineReport, shards: Vec<ShardReport>) -> Self {
        let mut physical_batches = BatchStats::default();
        for shard in &shards {
            physical_batches.merge(&shard.batches);
        }
        ShardedReport {
            report,
            physical_detector_calls: shards.iter().map(|s| s.detector_calls).sum(),
            shards,
            physical_batches,
        }
    }

    /// Detector invocations paid beyond the logical ones: lane cuts and
    /// per-frame recovery tries (zero for a fault-free serial run, whatever
    /// the shard count).
    pub fn shard_overhead_calls(&self) -> u64 {
        self.physical_detector_calls - self.report.detector_calls
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(shard: u32, frames: u64, calls: u64) -> ShardReport {
        let mut batches = BatchStats::default();
        // One batch per call, frames spread as evenly as the helper can
        // (`checked_div` is `None` exactly when there are no calls).
        if let Some(even) = frames.checked_div(calls) {
            batches.record_repeat(even, calls - 1);
            batches.record_repeat(frames - even * (calls - 1), 1);
        }
        ShardReport {
            shard,
            detector_frames: frames,
            detector_calls: calls,
            batches,
            ..ShardReport::default()
        }
    }

    #[test]
    fn consistent_tallies_merge_and_report_overhead() {
        let report = EngineReport {
            outcomes: Vec::new(),
            stages: 3,
            demanded_frames: 16,
            detector_frames: 14,
            detector_calls: 3,
            cache: CacheActivity::default(),
        };
        let merged =
            ShardedReport::new(report, vec![shard(0, 9, 3), shard(1, 5, 2), shard(2, 0, 0)]);
        assert_eq!(merged.physical_detector_calls, 5);
        assert_eq!(merged.shard_overhead_calls(), 2);
        assert_eq!(merged.shards.len(), 3);
        assert_eq!(
            merged.physical_batches.count,
            merged.physical_detector_calls
        );
        assert_eq!(merged.physical_batches.frames, 14);
        assert_eq!(
            (merged.physical_batches.min, merged.physical_batches.max),
            (2, 3)
        );
    }

    #[test]
    fn batch_stats_record_merge_and_mean() {
        let mut stats = BatchStats::default();
        assert_eq!(stats.mean(), 0.0);
        stats.record_repeat(6, 1);
        stats.record_repeat(1, 3);
        assert_eq!(stats.count, 4);
        assert_eq!(stats.frames, 9);
        assert_eq!(stats.min, 1);
        assert_eq!(stats.max, 6);
        assert_eq!(stats.mean(), 2.25);

        let mut other = BatchStats::default();
        other.record_repeat(10, 1);
        other.merge(&stats);
        assert_eq!(other.count, 5);
        assert_eq!(other.frames, 19);
        assert_eq!(other.min, 1);
        assert_eq!(other.max, 10);
        // Merging an empty tally is a no-op (min stays meaningful).
        other.merge(&BatchStats::default());
        assert_eq!(other.min, 1);
        assert!(other.to_string().contains("5 batches"));
    }
}
