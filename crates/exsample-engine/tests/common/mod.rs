//! What the determinism, fault and batching suites share: the split of a
//! sharded report into its *logical* half — bitwise-identical across the
//! whole execution matrix — and its *physical* half, which follows the lane
//! count by the shape law checked here.

#![allow(dead_code)]

use exsample_engine::{BatchStats, ShardReport, ShardedReport};

/// The per-shard breakdowns with every physical tally zeroed: what is left
/// (frames, retries, backoff, failures, cache activity, per-query and
/// per-detector frames) must not depend on how DETECT was cut into batches.
pub fn logical_shards(report: &ShardedReport) -> Vec<ShardReport> {
    report
        .shards
        .iter()
        .cloned()
        .map(|mut shard| {
            shard.detector_calls = 0;
            shard.batches = BatchStats::default();
            for detector in &mut shard.per_detector {
                detector.calls = 0;
            }
            shard
        })
        .collect()
}

/// The physical-shape law of a fault-free run on `lanes` lanes: every
/// logical call is one cross-shard batch, cut only where one of the
/// `lanes - 1` lane boundaries of its stage falls inside it — so a serial run
/// issues exactly the logical calls, whatever the shard count — and each
/// physical call is attributed to exactly one shard.
pub fn assert_physical_shape(report: &ShardedReport, lanes: usize, context: &str) {
    let logical = report.report.detector_calls;
    let physical = report.physical_detector_calls;
    let ceiling = logical + report.report.stages * (lanes as u64 - 1);
    assert!(
        (logical..=ceiling).contains(&physical),
        "{context}: {physical} physical calls outside {logical}..={ceiling}"
    );
    let attributed: u64 = report.shards.iter().map(|s| s.detector_calls).sum();
    assert_eq!(attributed, physical, "{context}: per-shard physical calls");
    assert_eq!(
        report.physical_batches.count, physical,
        "{context}: batch statistics track the calls"
    );
    assert_eq!(
        report.physical_batches.frames, report.report.detector_frames,
        "{context}: every detected frame rode exactly one batch"
    );
}

/// The closed-form cut of one stage: `sizes[g]` frames of detector demand per
/// logical group, laid end to end in group order and dealt to
/// `min(lanes, total)` lanes as evenly as possible (the first lanes take the
/// odd frames).  Returns the `(group, frames)` of every physical batch, in
/// order: a new batch starts wherever the group or the lane changes.
pub fn cut_batches(sizes: &[usize], lanes: usize) -> Vec<(usize, usize)> {
    let total: usize = sizes.iter().sum();
    let spans = lanes.min(total);
    let lane_of: Vec<usize> = (0..spans)
        .flat_map(|lane| {
            let quota = total / spans + usize::from(lane < total % spans);
            std::iter::repeat_n(lane, quota)
        })
        .collect();
    let mut batches: Vec<(usize, usize, usize)> = Vec::new();
    let groups = sizes
        .iter()
        .enumerate()
        .flat_map(|(group, &size)| std::iter::repeat_n(group, size));
    for (group, &lane) in groups.zip(&lane_of) {
        match batches.last_mut() {
            Some((g, l, frames)) if (*g, *l) == (group, lane) => *frames += 1,
            _ => batches.push((group, lane, 1)),
        }
    }
    batches
        .into_iter()
        .map(|(group, _, frames)| (group, frames))
        .collect()
}
