//! `GroundTruth`'s per-class index against brute force.
//!
//! Every class query must answer exactly what a scan over all instances
//! answers, in push order — the simulated detector draws its per-frame RNG
//! once per visible instance in that order, so a reordering would change
//! every noisy detection after it.  Truths are random and multi-class, with
//! classes interleaved in push order, instance ids that do not follow push
//! order, instances spanning many index buckets and ones starting or ending
//! exactly on a bucket edge, and a lookup half-way through the pushes; frames
//! include 0, the last frame and frames past the end.

use exsample_detect::{GroundTruth, InstanceId, ObjectClass, ObjectInstance};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Mirrors the index's private bucket width.
const BUCKET: u64 = 4096;
/// Instances are drawn from the first three; "boat" never appears.
const CLASSES: [&str; 4] = ["car", "bus", "person", "boat"];

/// One instance's `[first, last]` interval inside `total` frames.
fn interval(rng: &mut StdRng, total: u64) -> (u64, u64) {
    let edges = total.div_ceil(BUCKET);
    match rng.gen_range(0..4) {
        // Short-lived, mostly inside one bucket.
        0 => {
            let first = rng.gen_range(0..total);
            (first, (first + rng.gen_range(0..600)).min(total - 1))
        }
        // Long-lived, typically spanning many buckets.
        1 => {
            let first = rng.gen_range(0..total);
            (first, rng.gen_range(first..total))
        }
        // Ending exactly on a bucket edge (the last frame of a bucket or the
        // first of the next).
        2 => {
            let edge = rng.gen_range(1..=edges) * BUCKET - 1 + rng.gen_range(0..2u64);
            let last = edge.min(total - 1);
            (last - rng.gen_range(0..=last.min(3 * BUCKET)), last)
        }
        // Starting exactly on a bucket edge.
        _ => {
            let first = (rng.gen_range(0..edges) * BUCKET).min(total - 1);
            (first, (first + rng.gen_range(0..2 * BUCKET)).min(total - 1))
        }
    }
}

fn random_truth(seed: u64, instances: usize) -> GroundTruth {
    let mut rng = StdRng::seed_from_u64(seed);
    // Between one and seven buckets, sometimes ending exactly on an edge.
    let short_by = rng.gen_range(0..2u64) * rng.gen_range(1..BUCKET);
    let total = rng.gen_range(1..8u64) * BUCKET - short_by;
    let mut truth = GroundTruth::new(total);
    for i in 0..instances {
        let class = CLASSES[rng.gen_range(0..3)];
        let (first, last) = interval(&mut rng, total);
        let id = 7 * (instances - i) as u64;
        truth.push(ObjectInstance::simple(id, class, first, last));
        if i == instances / 2 {
            // Look up half-way, so the index is built once and must be
            // rebuilt for the pushes after it.
            let _ = truth.visible_of_class_at(first, &ObjectClass::from(class));
        }
    }
    truth
}

/// The frames every property is checked at.
fn probe_frames(truth: &GroundTruth, seed: u64) -> Vec<u64> {
    let total = truth.total_frames();
    let mut frames = vec![0, total - 1, total, total + 3 * BUCKET];
    for edge in 1..=total.div_ceil(BUCKET) + 1 {
        frames.extend([edge * BUCKET - 1, edge * BUCKET]);
    }
    for inst in truth.instances() {
        let (first, last) = (inst.first_frame(), inst.last_frame());
        frames.extend([first.saturating_sub(1), first, last, last + 1]);
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    frames.extend((0..50).map(|_| rng.gen_range(0..total + BUCKET)));
    frames
}

/// Brute force: the ids of the instances of `class` that `keep`, in push order.
fn brute(
    truth: &GroundTruth,
    class: &ObjectClass,
    keep: impl Fn(&ObjectInstance) -> bool,
) -> Vec<InstanceId> {
    truth
        .instances()
        .iter()
        .filter(|inst| inst.class() == class && keep(inst))
        .map(ObjectInstance::id)
        .collect()
}

fn ids<'a>(instances: impl Iterator<Item = &'a ObjectInstance>) -> Vec<InstanceId> {
    instances.map(ObjectInstance::id).collect()
}

proptest! {
    #[test]
    fn class_queries_match_brute_force_in_push_order(
        seed in 0u64..u64::MAX,
        instances in 0usize..120,
    ) {
        let truth = random_truth(seed, instances);
        let frames = probe_frames(&truth, seed);
        let total = truth.total_frames();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc1a55);

        let mut first_seen: Vec<ObjectClass> = Vec::new();
        for inst in truth.instances() {
            if !first_seen.contains(inst.class()) {
                first_seen.push(inst.class().clone());
            }
        }
        prop_assert_eq!(truth.classes(), first_seen);

        for &frame in &frames {
            let all: Vec<InstanceId> = truth
                .instances()
                .iter()
                .filter(|inst| inst.visible_at(frame))
                .map(ObjectInstance::id)
                .collect();
            prop_assert_eq!(ids(truth.visible_at(frame).into_iter()), all);
        }

        for class in CLASSES.map(ObjectClass::from) {
            for &frame in &frames {
                let got = ids(truth.visible_of_class_at(frame, &class));
                let want = brute(&truth, &class, |inst| inst.visible_at(frame));
                prop_assert!(got == want, "{class} at frame {frame}: {got:?} != {want:?}");
            }
            let members = brute(&truth, &class, |_| true);
            prop_assert_eq!(ids(truth.of_class(&class)), members.clone());
            prop_assert_eq!(truth.count_of_class(&class), members.len());
            let probabilities: Vec<f64> = truth
                .instances()
                .iter()
                .filter(|inst| inst.class() == &class)
                .map(|inst| inst.hit_probability(total))
                .collect();
            prop_assert_eq!(truth.hit_probabilities(&class), probabilities);

            let mut ranges = vec![(0, total), (0, 0), (total, total + BUCKET), (BUCKET, 1)];
            ranges.extend(
                (0..20).map(|_| (rng.gen_range(0..=total), rng.gen_range(0..total + BUCKET))),
            );
            for (start, end) in ranges {
                let overlapping = brute(&truth, &class, |inst| {
                    inst.first_frame() < end && inst.last_frame() >= start
                });
                let got = truth.count_in_range(&class, start, end);
                prop_assert!(
                    got == overlapping.len(),
                    "{class} in [{start}, {end}): {got} != {}",
                    overlapping.len()
                );
            }
        }
    }
}
