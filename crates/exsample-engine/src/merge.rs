//! Combining per-shard reports into a global report.
//!
//! Each shard worker accumulates what *it* paid and saw: frames run through
//! its detectors, physical `detect_batch` invocations, per-detector
//! invocation tallies, and per-query frame/hit counts for the frames it
//! owned.  [`merge_reports`] folds those [`ShardReport`]s into a
//! [`ShardedReport`] whose embedded [`EngineReport`] is **bitwise-identical
//! to an unsharded run** of the same queries (same per-query RNG streams),
//! for any shard count and any shard interleaving:
//!
//! * per-query `frames_processed` is recomputed as the sum of the per-shard
//!   tallies and cross-checked against the coordinator's own count — a
//!   mismatch (a frame observed but never tallied to a shard, or vice versa)
//!   is a typed [`MergeError`], not a silent wrong number;
//! * hit counts are likewise summed and cross-checked against the
//!   discriminators' global `true_found`;
//! * `detector_frames` is the sum of the shards' detected frames (frames
//!   never cross shards, so shard-local deduplication adds up to exactly the
//!   global deduplicated count);
//! * `detector_calls` stays *logical* (one per detector group per stage),
//!   while the physical invocation count — the same for a serial run,
//!   whatever the shard count, and larger where a group was cut at a lane
//!   boundary or a failed batch recovered per frame — is reported separately
//!   as [`ShardedReport::physical_detector_calls`], each call attributed to
//!   the shard owning its first frame;
//! * fault telemetry (retries, exhausted frames, backoff cost, per-query
//!   dropped frames) is summed over the shards in shard order and
//!   cross-checked against the coordinator's totals the same way, so a
//!   degraded run's report is exactly as deterministic as a clean one;
//! * cache telemetry (hits, misses, evictions, admission rejects) is likewise
//!   summed over the shards' run-cumulative tallies and cross-checked against
//!   the coordinator's fold — the striped cache's determinism contract makes
//!   those numbers bitwise-reproducible, so a disagreement is a bug, not
//!   noise.

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
/// per-frame cost model (`exsample_detect::BatchCostModel`), they make an
/// execution shape's cost comparable in reports without ever being part of
/// the logical determinism contract.
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
    /// Record one physical invocation carrying `frames` frames.
    pub fn record(&mut self, frames: u64) {
        self.record_repeat(frames, 1);
    }

    /// Record `count` physical invocations of `frames` frames each (e.g. a
    /// burst of per-frame recovery calls).
    pub fn record_repeat(&mut self, frames: u64, count: u64) {
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
    pub fn merge(&mut self, other: &BatchStats) {
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
    pub fn mean(&self) -> f64 {
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
    /// Picked frames of this query that this shard dropped after their
    /// detection failed terminally (only under
    /// [`crate::FailureMode::DropFrames`] or
    /// [`crate::FailureMode::Quarantine`]).
    pub dropped: u64,
}

/// One detector's invocation tallies on one shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectorInvocations {
    /// Engine-assigned detector slot (first-seen order; stable within a run).
    pub detector: u32,
    /// The detector's object class, for display.
    pub class: String,
    /// Frames successfully run through this detector on this shard.
    pub frames: u64,
    /// Physical detect invocations issued on this shard (batch probes plus
    /// per-frame recovery attempts).
    pub calls: u64,
    /// Frames whose detection by this detector failed terminally on this
    /// shard (retry budget exhausted or permanent error).
    pub failures: u64,
}

/// Everything one shard worker accumulated over a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardReport {
    /// The shard's index.
    pub shard: u32,
    /// Frames run through detectors on this shard (post-coalescing,
    /// post-cache).
    pub detector_frames: u64,
    /// Physical `detect_batch` invocations attributed to this shard: batch
    /// probes whose first frame it owns, plus its frames' recovery tries.
    pub detector_calls: u64,
    /// Detect attempts this shard retried after a transient failure.
    pub retries: u64,
    /// Deterministic backoff cost units this shard charged for its retries.
    pub backoff_cost: u64,
    /// Frames whose detection failed terminally on this shard.
    pub failed_frames: u64,
    /// Batch-size statistics over the physical invocations attributed to this
    /// shard (`batches.count == detector_calls` by construction; checked by
    /// the merge).  A batch is cross-shard: one attributed here may carry
    /// other shards' frames, so `batches.frames` is *not* constrained to this
    /// shard's `detector_frames`.
    pub batches: BatchStats,
    /// Run-cumulative cache activity attributed to this shard: probes its
    /// worker answered (hits/misses) and the evictions/admission-rejects its
    /// commit intents caused during the serial arbitration.
    pub cache: CacheActivity,
    /// Per-query tallies, indexed by query registration order.
    pub per_query: Vec<ShardQueryTally>,
    /// Per-detector invocation tallies, ordered by detector slot.
    pub per_detector: Vec<DetectorInvocations>,
}

/// An inconsistency between the per-shard tallies and the coordinator's
/// global state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// A shard report covers a different number of queries than the global
    /// report.
    QueryCountMismatch {
        /// The offending shard.
        shard: u32,
        /// Queries in the shard report.
        shard_queries: usize,
        /// Queries in the global report.
        report_queries: usize,
    },
    /// The per-shard frame tallies of a query do not add up to its global
    /// count.
    FrameMismatch {
        /// Query registration index.
        query: usize,
        /// Sum of the per-shard tallies.
        merged: u64,
        /// The coordinator's count.
        reported: u64,
    },
    /// The per-shard hit tallies of a query do not add up to its global
    /// count.
    HitMismatch {
        /// Query registration index.
        query: usize,
        /// Sum of the per-shard tallies.
        merged: u64,
        /// The coordinator's count.
        reported: u64,
    },
    /// The shards' detected-frame counts do not add up to the engine total.
    DetectorFrameMismatch {
        /// Sum of the per-shard counts.
        merged: u64,
        /// The coordinator's count.
        reported: u64,
    },
    /// The per-shard dropped-frame tallies of a query do not add up to its
    /// global count.
    DroppedMismatch {
        /// Query registration index.
        query: usize,
        /// Sum of the per-shard tallies.
        merged: u64,
        /// The coordinator's count.
        reported: u64,
    },
    /// A summed per-shard fault or cache tally disagrees with the
    /// coordinator's total.
    FaultTallyMismatch {
        /// Which tally disagreed: `"retries"`, `"backoff_cost"`,
        /// `"failed_frames"`, `"cache_hits"`, `"cache_misses"`,
        /// `"cache_evictions"` or `"cache_admission_rejects"`.
        field: &'static str,
        /// Sum of the per-shard tallies.
        merged: u64,
        /// The coordinator's total.
        reported: u64,
    },
    /// A shard's batch tally covers a different number of invocations than
    /// its physical call count (every physical call must be recorded as
    /// exactly one batch).
    BatchCountMismatch {
        /// The offending shard.
        shard: u32,
        /// Batches the shard recorded.
        batches: u64,
        /// Physical calls the shard tallied.
        calls: u64,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::QueryCountMismatch {
                shard,
                shard_queries,
                report_queries,
            } => write!(
                f,
                "shard {shard} tallies {shard_queries} queries but the report has {report_queries}"
            ),
            MergeError::FrameMismatch {
                query,
                merged,
                reported,
            } => write!(
                f,
                "query {query}: shard frame tallies sum to {merged} but the engine observed {reported}"
            ),
            MergeError::HitMismatch {
                query,
                merged,
                reported,
            } => write!(
                f,
                "query {query}: shard hit tallies sum to {merged} but the engine found {reported}"
            ),
            MergeError::DetectorFrameMismatch { merged, reported } => write!(
                f,
                "shard detector-frame tallies sum to {merged} but the engine paid {reported}"
            ),
            MergeError::DroppedMismatch {
                query,
                merged,
                reported,
            } => write!(
                f,
                "query {query}: shard dropped-frame tallies sum to {merged} but the engine \
                 dropped {reported}"
            ),
            MergeError::FaultTallyMismatch {
                field,
                merged,
                reported,
            } => write!(
                f,
                "shard {field} tallies sum to {merged} but the engine recorded {reported}"
            ),
            MergeError::BatchCountMismatch {
                shard,
                batches,
                calls,
            } => write!(
                f,
                "shard {shard} recorded {batches} batches but tallied {calls} physical calls"
            ),
        }
    }
}

impl std::error::Error for MergeError {}

/// A merged global report with its per-shard breakdown.
#[derive(Debug, Clone)]
#[must_use = "a sharded report carries the run's outcomes and cost accounting"]
pub struct ShardedReport {
    /// The global report — bitwise-identical to an unsharded run of the same
    /// queries (cache off), for any shard count and partitioner.
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
    /// Detector invocations paid beyond the logical ones: lane cuts and
    /// per-frame recovery tries (zero for a fault-free serial run, whatever
    /// the shard count).
    pub fn shard_overhead_calls(&self) -> u64 {
        self.physical_detector_calls - self.report.detector_calls
    }
}

/// Combine per-shard reports into a global [`ShardedReport`].
///
/// `report` is the coordinator's view (outcomes in registration order plus
/// logical cost totals); `shards` are the per-shard tallies.  Per-query frame
/// and hit counts and the global detected-frame total are recomputed from the
/// shard tallies and cross-checked against the coordinator.
///
/// # Errors
/// Returns a [`MergeError`] naming the first inconsistency found.
pub fn merge_reports(
    report: EngineReport,
    shards: Vec<ShardReport>,
) -> Result<ShardedReport, MergeError> {
    let queries = report.outcomes.len();
    for shard in &shards {
        if shard.per_query.len() != queries {
            return Err(MergeError::QueryCountMismatch {
                shard: shard.shard,
                shard_queries: shard.per_query.len(),
                report_queries: queries,
            });
        }
    }
    for (i, outcome) in report.outcomes.iter().enumerate() {
        let merged_frames: u64 = shards.iter().map(|s| s.per_query[i].frames).sum();
        if merged_frames != outcome.frames_processed {
            return Err(MergeError::FrameMismatch {
                query: i,
                merged: merged_frames,
                reported: outcome.frames_processed,
            });
        }
        let merged_hits: u64 = shards.iter().map(|s| s.per_query[i].hits).sum();
        if merged_hits != outcome.true_found as u64 {
            return Err(MergeError::HitMismatch {
                query: i,
                merged: merged_hits,
                reported: outcome.true_found as u64,
            });
        }
        let merged_dropped: u64 = shards.iter().map(|s| s.per_query[i].dropped).sum();
        if merged_dropped != outcome.dropped_frames {
            return Err(MergeError::DroppedMismatch {
                query: i,
                merged: merged_dropped,
                reported: outcome.dropped_frames,
            });
        }
    }
    let merged_detector_frames: u64 = shards.iter().map(|s| s.detector_frames).sum();
    if merged_detector_frames != report.detector_frames {
        return Err(MergeError::DetectorFrameMismatch {
            merged: merged_detector_frames,
            reported: report.detector_frames,
        });
    }
    type ShardTally = fn(&ShardReport) -> u64;
    let fault_tallies: [(&'static str, ShardTally, u64); 7] = [
        ("retries", |s| s.retries, report.detect_retries),
        ("backoff_cost", |s| s.backoff_cost, report.backoff_cost),
        ("failed_frames", |s| s.failed_frames, report.failed_frames),
        ("cache_hits", |s| s.cache.hits, report.cache.hits),
        ("cache_misses", |s| s.cache.misses, report.cache.misses),
        (
            "cache_evictions",
            |s| s.cache.evictions,
            report.cache.evictions,
        ),
        (
            "cache_admission_rejects",
            |s| s.cache.admission_rejects,
            report.cache.admission_rejects,
        ),
    ];
    for (field, shard_tally, reported) in fault_tallies {
        let merged: u64 = shards.iter().map(shard_tally).sum();
        if merged != reported {
            return Err(MergeError::FaultTallyMismatch {
                field,
                merged,
                reported,
            });
        }
    }
    let mut physical_batches = BatchStats::default();
    for shard in &shards {
        if shard.batches.count != shard.detector_calls {
            return Err(MergeError::BatchCountMismatch {
                shard: shard.shard,
                batches: shard.batches.count,
                calls: shard.detector_calls,
            });
        }
        physical_batches.merge(&shard.batches);
    }
    let physical_detector_calls = shards.iter().map(|s| s.detector_calls).sum();
    Ok(ShardedReport {
        report,
        shards,
        physical_detector_calls,
        physical_batches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::QueryReport;

    fn report(frames: &[u64], hits: &[usize], detector_frames: u64) -> EngineReport {
        EngineReport {
            outcomes: frames
                .iter()
                .zip(hits)
                .enumerate()
                .map(|(i, (&frames_processed, &true_found))| QueryReport {
                    label: format!("q{i}"),
                    policy: "test".to_string(),
                    frames_processed,
                    distinct_found: true_found,
                    true_found,
                    found_instances: Vec::new(),
                    trajectory: Vec::new(),
                    upfront_scan_frames: 0,
                    dropped_frames: 0,
                    selection: None,
                    stop_reason: None,
                })
                .collect(),
            stages: 3,
            demanded_frames: frames.iter().sum(),
            detector_frames,
            detector_calls: 3,
            detect_retries: 0,
            failed_frames: 0,
            backoff_cost: 0,
            cache: CacheActivity::default(),
            quarantined_detectors: Vec::new(),
        }
    }

    fn shard(shard: u32, per_query: &[(u64, u64)], frames: u64, calls: u64) -> ShardReport {
        let mut batches = BatchStats::default();
        // One batch per call, frames spread as evenly as the helper can
        // (`checked_div` is `None` exactly when there are no calls).
        if let Some(even) = frames.checked_div(calls) {
            batches.record_repeat(even, calls - 1);
            batches.record(frames - even * (calls - 1));
        }
        ShardReport {
            shard,
            detector_frames: frames,
            detector_calls: calls,
            retries: 0,
            backoff_cost: 0,
            failed_frames: 0,
            batches,
            cache: CacheActivity::default(),
            per_query: per_query
                .iter()
                .map(|&(frames, hits)| ShardQueryTally {
                    frames,
                    hits,
                    dropped: 0,
                })
                .collect(),
            per_detector: Vec::new(),
        }
    }

    #[test]
    fn consistent_tallies_merge_and_report_overhead() {
        let global = report(&[10, 6], &[3, 1], 14);
        let merged = merge_reports(
            global,
            vec![
                shard(0, &[(7, 2), (2, 0)], 9, 3),
                shard(1, &[(3, 1), (4, 1)], 5, 2),
            ],
        )
        .unwrap();
        assert_eq!(merged.physical_detector_calls, 5);
        assert_eq!(merged.shard_overhead_calls(), 2);
        assert_eq!(merged.shards.len(), 2);
        assert_eq!(merged.report.outcomes[0].frames_processed, 10);
    }

    #[test]
    fn frame_mismatch_is_detected() {
        let global = report(&[10], &[0], 10);
        let err = merge_reports(global, vec![shard(0, &[(9, 0)], 10, 1)]).unwrap_err();
        assert!(matches!(
            err,
            MergeError::FrameMismatch {
                query: 0,
                merged: 9,
                reported: 10
            }
        ));
        assert!(err.to_string().contains("sum to 9"));
    }

    #[test]
    fn hit_and_detector_frame_mismatches_are_detected() {
        let global = report(&[4], &[2], 4);
        let err = merge_reports(global.clone(), vec![shard(0, &[(4, 1)], 4, 1)]).unwrap_err();
        assert!(matches!(err, MergeError::HitMismatch { .. }));
        let err = merge_reports(global, vec![shard(0, &[(4, 2)], 3, 1)]).unwrap_err();
        assert!(matches!(err, MergeError::DetectorFrameMismatch { .. }));
    }

    #[test]
    fn fault_tallies_merge_and_mismatches_are_detected() {
        // A degraded run: 2 retries, backoff 12, one failed frame, one
        // dropped pick on query 0 — split across two shards.
        let mut global = report(&[10, 6], &[3, 1], 14);
        global.detect_retries = 2;
        global.backoff_cost = 12;
        global.failed_frames = 1;
        global.outcomes[0].dropped_frames = 1;
        let mut a = shard(0, &[(7, 2), (2, 0)], 9, 3);
        a.retries = 2;
        a.backoff_cost = 12;
        a.failed_frames = 1;
        a.per_query[0].dropped = 1;
        let b = shard(1, &[(3, 1), (4, 1)], 5, 2);
        let merged = merge_reports(global.clone(), vec![a.clone(), b.clone()]).unwrap();
        assert_eq!(merged.report.detect_retries, 2);
        assert_eq!(merged.report.failed_frames, 1);

        // Shard retry tallies that don't add up are a typed error…
        let mut bad = a.clone();
        bad.retries = 1;
        let err = merge_reports(global.clone(), vec![bad, b.clone()]).unwrap_err();
        assert!(matches!(
            err,
            MergeError::FaultTallyMismatch {
                field: "retries",
                merged: 1,
                reported: 2
            }
        ));
        assert!(err.to_string().contains("retries"));

        // …and so are per-query dropped tallies.
        let mut bad = a;
        bad.per_query[0].dropped = 0;
        let err = merge_reports(global, vec![bad, b]).unwrap_err();
        assert!(matches!(
            err,
            MergeError::DroppedMismatch {
                query: 0,
                merged: 0,
                reported: 1
            }
        ));
    }

    #[test]
    fn cache_tallies_merge_and_mismatches_are_detected() {
        // A cached run: 5 hits, 9 misses, 2 evictions, 1 admission reject,
        // split across two shards (the arbitration charges evictions and
        // rejects to the shard whose insert caused them).
        let mut global = report(&[10, 6], &[3, 1], 14);
        global.cache = CacheActivity {
            hits: 5,
            misses: 9,
            evictions: 2,
            admission_rejects: 1,
        };
        let mut a = shard(0, &[(7, 2), (2, 0)], 9, 3);
        a.cache = CacheActivity {
            hits: 2,
            misses: 7,
            evictions: 2,
            admission_rejects: 0,
        };
        let mut b = shard(1, &[(3, 1), (4, 1)], 5, 2);
        b.cache = CacheActivity {
            hits: 3,
            misses: 2,
            evictions: 0,
            admission_rejects: 1,
        };
        let merged = merge_reports(global.clone(), vec![a.clone(), b.clone()]).unwrap();
        assert_eq!(merged.report.cache.hits, 5);
        assert_eq!(merged.report.cache.admission_rejects, 1);

        let mut bad = a.clone();
        bad.cache.hits = 1;
        let err = merge_reports(global.clone(), vec![bad, b.clone()]).unwrap_err();
        assert!(matches!(
            err,
            MergeError::FaultTallyMismatch {
                field: "cache_hits",
                merged: 4,
                reported: 5
            }
        ));
        assert!(err.to_string().contains("cache_hits"));

        let mut bad = a;
        bad.cache.evictions = 1;
        let err = merge_reports(global, vec![bad, b]).unwrap_err();
        assert!(matches!(
            err,
            MergeError::FaultTallyMismatch {
                field: "cache_evictions",
                merged: 1,
                reported: 2
            }
        ));
    }

    #[test]
    fn batch_stats_record_merge_and_mean() {
        let mut stats = BatchStats::default();
        assert_eq!(stats.mean(), 0.0);
        stats.record(6);
        stats.record_repeat(1, 3);
        assert_eq!(stats.count, 4);
        assert_eq!(stats.frames, 9);
        assert_eq!(stats.min, 1);
        assert_eq!(stats.max, 6);
        assert_eq!(stats.mean(), 2.25);

        let mut other = BatchStats::default();
        other.record(10);
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

    #[test]
    fn merged_batches_cover_all_shards_and_count_mismatch_is_detected() {
        let global = report(&[10, 6], &[3, 1], 14);
        let merged = merge_reports(
            global.clone(),
            vec![
                shard(0, &[(7, 2), (2, 0)], 9, 3),
                shard(1, &[(3, 1), (4, 1)], 5, 2),
            ],
        )
        .unwrap();
        assert_eq!(
            merged.physical_batches.count,
            merged.physical_detector_calls
        );
        assert_eq!(merged.physical_batches.frames, 14);

        // A batch count that disagrees with the call tally is a typed error.
        let mut bad = shard(0, &[(10, 3), (6, 1)], 14, 3);
        bad.batches.count = 2;
        let err = merge_reports(global, vec![bad]).unwrap_err();
        assert!(matches!(
            err,
            MergeError::BatchCountMismatch {
                shard: 0,
                batches: 2,
                calls: 3
            }
        ));
        assert!(err.to_string().contains("2 batches"));
    }

    #[test]
    fn query_count_mismatch_is_detected() {
        let global = report(&[4, 4], &[0, 0], 8);
        let err = merge_reports(global, vec![shard(1, &[(8, 0)], 8, 1)]).unwrap_err();
        assert!(matches!(
            err,
            MergeError::QueryCountMismatch { shard: 1, .. }
        ));
    }
}
