//! A queryable collection of ground-truth object instances.
//!
//! In the paper's free-detector simulation, DETECT on one frame *is* a
//! ground-truth lookup — "which instances of class c are visible in frame f?" —
//! asked once per processed frame, millions of times per experiment, over up to
//! tens of thousands of instances of up to nine classes.  Bucketed interval
//! indexes keep it cheap without a full interval tree: an instance is registered
//! in every fixed-width bucket its interval overlaps, and a lookup scans only the
//! bucket holding the frame.  There are two:
//!
//! * the **per-class index** — each class's own buckets — answers
//!   [`GroundTruth::visible_of_class_at`] (the simulated detectors);
//! * the **all-class index** answers [`GroundTruth::visible_at`] (the tracking
//!   discriminator).
//!
//! The per-class index exists because a class lookup through the all-class
//! bucket reads every other class's instances too: a frame shows a handful of
//! boxes of the query class, its all-class bucket holds hundreds of instances.
//! On the six fig5 analogs at scale 0.2 (50k random frames each, cycling through
//! every class; 2-core x86-64 host) `PerfectDetector::detect` cost 102 / 325 /
//! 325 / 360 / 788 / 775 ns per frame through the all-class bucket on dashcam /
//! BDD 1k / amsterdam / night street / archie / BDD MOT, and costs 31 / 44 / 56
//! / 61 / 107 / 58 ns through the class's own.
//!
//! Both indexes are built together, in one counting and one filling pass, on the
//! first lookup after the last [`GroundTruth::push`], and stored as compressed
//! rows.  Registering every instance in per-class buckets push by push instead
//! cost a full-scale dashcam analog's generation ~20 % (0.70 → 0.86 ms); pushes
//! now only append to the class's instance list, which every class query
//! ([`GroundTruth::of_class`], the counts, the hit probabilities) reads.
//!
//! Every list holds instance indices in ascending order, so every lookup yields
//! instances in push order: the order the noisy detector draws its per-frame
//! randomness in.

use crate::class::ObjectClass;
use crate::instance::{InstanceId, ObjectInstance};
use exsample_video::FrameId;
use std::collections::HashSet;
use std::ops::RangeInclusive;
use std::sync::OnceLock;

/// Width of an index bucket in frames, in both indexes.
///
/// 4096 frames (~2.3 minutes of 30 fps video) keeps buckets small relative to chunk
/// sizes while bounding the per-instance registration cost for long-lived objects.
/// A class's own bucket holds only that class's instances near the frame, so a
/// lookup reads a few entries at this width.  A 512-frame width made lookups at
/// most ~20 % faster on the fig5 analogs: too small a share of a frame's cost
/// to pay for the extra registrations.
const BUCKET_FRAMES: u64 = 4096;

fn bucket_of(frame: FrameId) -> usize {
    (frame / BUCKET_FRAMES) as usize
}

/// Instance indices bucketed by frame, in compressed rows: bucket `b` lists
/// `entries[starts[b]..starts[b + 1]]`, in ascending order.
#[derive(Debug, Clone)]
struct Buckets {
    starts: Vec<u32>,
    entries: Vec<u32>,
}

impl Buckets {
    /// Register each of `members` (ascending) in every bucket its interval
    /// overlaps: one counting pass, one filling pass.
    fn build(
        buckets: usize,
        members: &[u32],
        spans: impl Fn(u32) -> RangeInclusive<usize>,
    ) -> Self {
        let mut starts = vec![0u32; buckets + 1];
        for &i in members {
            for b in spans(i) {
                starts[b + 1] += 1;
            }
        }
        let mut total = 0;
        for start in &mut starts {
            total += *start;
            *start = total;
        }
        let mut next = starts.clone();
        let mut entries = vec![0; total as usize];
        for &i in members {
            for b in spans(i) {
                entries[next[b] as usize] = i;
                next[b] += 1;
            }
        }
        Buckets { starts, entries }
    }

    /// The bucket holding `frame`; empty past the last one.
    fn at(&self, frame: FrameId) -> &[u32] {
        let b = bucket_of(frame);
        match (self.starts.get(b), self.starts.get(b + 1)) {
            (Some(&start), Some(&end)) => &self.entries[start as usize..end as usize],
            _ => &[],
        }
    }
}

/// Both frame indexes.
#[derive(Debug, Clone)]
struct Index {
    /// Every instance.
    all: Buckets,
    /// Each class's instances, in class-list order.
    by_class: Vec<Buckets>,
}

/// The set of ground-truth object instances for a repository.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    instances: Vec<ObjectInstance>,
    ids: HashSet<InstanceId>,
    /// One entry per class, in first-appearance order, with the indices of
    /// its instances, ascending.
    classes: Vec<(ObjectClass, Vec<u32>)>,
    /// Built on the first lookup after a push.
    index: OnceLock<Index>,
    total_frames: u64,
}

impl GroundTruth {
    /// Create an empty ground truth for a repository of `total_frames` frames.
    pub fn new(total_frames: u64) -> Self {
        GroundTruth {
            total_frames,
            ..GroundTruth::default()
        }
    }

    /// Build a ground truth from a list of instances.
    ///
    /// # Panics
    /// Panics if any instance extends beyond `total_frames` or reuses an id.
    pub fn from_instances(total_frames: u64, instances: Vec<ObjectInstance>) -> Self {
        let mut gt = GroundTruth::new(total_frames);
        for inst in instances {
            gt.push(inst);
        }
        gt
    }

    /// Add one instance.
    ///
    /// # Panics
    /// Panics if the instance extends beyond the repository or its id is already
    /// registered.
    pub fn push(&mut self, instance: ObjectInstance) {
        assert!(
            instance.last_frame() < self.total_frames,
            "instance {} ends at frame {} but the repository has only {} frames",
            instance.id(),
            instance.last_frame(),
            self.total_frames
        );
        assert!(
            self.ids.insert(instance.id()),
            "duplicate instance id {}",
            instance.id()
        );
        let index = self.instances.len();
        match self.class_position(instance.class()) {
            Some(position) => self.classes[position].1.push(index as u32),
            None => self
                .classes
                .push((instance.class().clone(), vec![index as u32])),
        }
        self.instances.push(instance);
        self.index = OnceLock::new();
    }

    fn class_position(&self, class: &ObjectClass) -> Option<usize> {
        self.classes.iter().position(|(known, _)| known == class)
    }

    /// Indices of the instances of `class`, ascending.
    fn members(&self, class: &ObjectClass) -> &[u32] {
        self.class_position(class)
            .map_or(&[], |position| &self.classes[position].1)
    }

    fn index(&self) -> &Index {
        self.index.get_or_init(|| {
            let buckets = bucket_of(self.total_frames) + 1;
            let spans = |i: u32| {
                let inst = &self.instances[i as usize];
                bucket_of(inst.first_frame())..=bucket_of(inst.last_frame())
            };
            let all: Vec<u32> = (0..self.instances.len() as u32).collect();
            Index {
                all: Buckets::build(buckets, &all, spans),
                by_class: self
                    .classes
                    .iter()
                    .map(|(_, members)| Buckets::build(buckets, members, spans))
                    .collect(),
            }
        })
    }

    /// Total frames in the underlying repository.
    pub fn total_frames(&self) -> u64 {
        self.total_frames
    }

    /// Number of instances (across all classes).
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Whether there are no instances.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// All instances.
    pub fn instances(&self) -> &[ObjectInstance] {
        &self.instances
    }

    /// Instances of a particular class, in push order.
    pub fn of_class<'a>(
        &'a self,
        class: &ObjectClass,
    ) -> impl Iterator<Item = &'a ObjectInstance> + 'a {
        self.members(class)
            .iter()
            .map(|&i| &self.instances[i as usize])
    }

    /// Number of instances of a particular class.
    pub fn count_of_class(&self, class: &ObjectClass) -> usize {
        self.members(class).len()
    }

    /// The distinct classes present, in first-appearance order.
    pub fn classes(&self) -> Vec<ObjectClass> {
        self.classes
            .iter()
            .map(|(class, _)| class.clone())
            .collect()
    }

    /// Instances visible in `frame` (any class), in push order.
    pub fn visible_at(&self, frame: FrameId) -> Vec<&ObjectInstance> {
        self.visible_in(self.index().all.at(frame), frame).collect()
    }

    /// Instances of `class` visible in `frame`, in push order.
    pub fn visible_of_class_at<'a>(
        &'a self,
        frame: FrameId,
        class: &ObjectClass,
    ) -> impl Iterator<Item = &'a ObjectInstance> + 'a {
        let bucket = self.class_position(class).map_or(&[][..], |position| {
            self.index().by_class[position].at(frame)
        });
        self.visible_in(bucket, frame)
    }

    /// The instances listed in `bucket` that are visible in `frame`.
    fn visible_in<'a>(
        &'a self,
        bucket: &'a [u32],
        frame: FrameId,
    ) -> impl Iterator<Item = &'a ObjectInstance> + 'a {
        bucket
            .iter()
            .map(|&i| &self.instances[i as usize])
            .filter(move |inst| inst.visible_at(frame))
    }

    /// The per-instance hit probabilities `p_i` for instances of `class`, each equal
    /// to the instance duration divided by the total number of frames.
    pub fn hit_probabilities(&self, class: &ObjectClass) -> Vec<f64> {
        self.of_class(class)
            .map(|i| i.hit_probability(self.total_frames))
            .collect()
    }

    /// Count how many instances of `class` have at least one visible frame within
    /// the global frame range `[start, end)`.
    pub fn count_in_range(&self, class: &ObjectClass, start: FrameId, end: FrameId) -> usize {
        self.of_class(class)
            .filter(|i| i.first_frame() < end && i.last_frame() >= start)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::ObjectInstance;

    fn gt() -> GroundTruth {
        GroundTruth::from_instances(
            100_000,
            vec![
                ObjectInstance::simple(0, "car", 0, 99),
                ObjectInstance::simple(1, "car", 50, 149),
                ObjectInstance::simple(2, "bus", 5_000, 5_999),
                ObjectInstance::simple(3, "car", 90_000, 99_999),
            ],
        )
    }

    #[test]
    fn visible_at_returns_overlapping_instances() {
        let gt = gt();
        let at_75: Vec<u64> = gt.visible_at(75).iter().map(|i| i.id().0).collect();
        assert_eq!(at_75, vec![0, 1]);
        assert!(gt.visible_at(200).is_empty());
        assert_eq!(gt.visible_at(5_500).len(), 1);
        assert_eq!(gt.visible_at(99_999).len(), 1);
    }

    #[test]
    fn visible_of_class_filters_class() {
        let gt = gt();
        let car = ObjectClass::from("car");
        let bus = ObjectClass::from("bus");
        assert_eq!(gt.visible_of_class_at(75, &car).count(), 2);
        assert_eq!(gt.visible_of_class_at(75, &bus).count(), 0);
        assert_eq!(gt.visible_of_class_at(5_500, &bus).count(), 1);
    }

    #[test]
    fn class_counting_and_lookup() {
        let gt = gt();
        let car = ObjectClass::from("car");
        assert_eq!(gt.count_of_class(&car), 3);
        assert_eq!(gt.len(), 4);
        assert_eq!(gt.classes().len(), 2);
    }

    #[test]
    fn hit_probabilities_scale_with_duration() {
        let gt = gt();
        let car = ObjectClass::from("car");
        let probs = gt.hit_probabilities(&car);
        assert_eq!(probs.len(), 3);
        assert!((probs[0] - 100.0 / 100_000.0).abs() < 1e-12);
        assert!((probs[2] - 10_000.0 / 100_000.0).abs() < 1e-12);
    }

    #[test]
    fn count_in_range_counts_overlaps() {
        let gt = gt();
        let car = ObjectClass::from("car");
        assert_eq!(gt.count_in_range(&car, 0, 100), 2);
        assert_eq!(gt.count_in_range(&car, 140, 200), 1);
        assert_eq!(gt.count_in_range(&car, 200, 80_000), 0);
        assert_eq!(gt.count_in_range(&car, 0, 100_000), 3);
    }

    #[test]
    fn instances_spanning_many_buckets_are_found_everywhere() {
        let mut gt = GroundTruth::new(1_000_000);
        gt.push(ObjectInstance::simple(7, "truck", 10_000, 500_000));
        for &frame in &[10_000u64, 123_456, 250_000, 499_999] {
            assert_eq!(gt.visible_at(frame).len(), 1, "frame {frame}");
        }
        assert!(gt.visible_at(500_001).is_empty());
        assert!(gt.visible_at(9_999).is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate instance id")]
    fn duplicate_id_panics() {
        let mut gt = GroundTruth::new(1000);
        gt.push(ObjectInstance::simple(1, "car", 0, 10));
        gt.push(ObjectInstance::simple(1, "bus", 20, 30));
    }

    #[test]
    #[should_panic(expected = "ends at frame")]
    fn out_of_range_instance_panics() {
        let mut gt = GroundTruth::new(1000);
        gt.push(ObjectInstance::simple(1, "car", 990, 1_000));
    }

    #[test]
    fn empty_ground_truth() {
        let gt = GroundTruth::new(500);
        assert!(gt.is_empty());
        assert!(gt.visible_at(100).is_empty());
        assert!(gt.classes().is_empty());
    }
}
