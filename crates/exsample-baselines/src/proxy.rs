//! A BlazeIt-style proxy-score baseline.
//!
//! Proxy-based systems (BlazeIt being the paper's representative) train a cheap
//! model per query, run it over **every frame** of the dataset to obtain a score,
//! and then process frames through the expensive detector in descending score
//! order.  Two properties matter for the comparison with ExSample:
//!
//! 1. the *upfront cost*: every frame must be decoded and scored before the first
//!    result can be produced (the paper measures ~100 fps for this scan, and
//!    Table I shows the scan alone often exceeds ExSample's total time);
//! 2. the *ordering quality*: a good proxy puts frames containing the object first,
//!    but not necessarily frames containing *new* objects — so even a perfect proxy
//!    keeps returning the same long-lived object.  BlazeIt mitigates this with a
//!    duplicate-avoidance heuristic (do not process frames too close to already
//!    processed ones), which is also modelled here.
//!
//! The simulated proxy scores a frame as (number of query-class instances visible)
//! plus Gaussian noise whose magnitude controls the proxy's quality.

use exsample_detect::{GroundTruth, ObjectClass};
use exsample_rand::SeedSequence;
use exsample_video::FrameId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Configuration of the simulated proxy baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProxyConfig {
    /// Standard deviation of the Gaussian noise added to the presence signal.
    /// `0.0` is a perfect proxy; around `0.5` is a realistic cheap model.
    pub score_noise: f64,
    /// Duplicate-avoidance gap in frames: frames within this distance of an
    /// already-processed frame are skipped.  `0` disables the heuristic.
    pub dedup_gap: u64,
    /// Seed for the proxy's score noise.
    pub seed: u64,
}

impl Default for ProxyConfig {
    fn default() -> Self {
        ProxyConfig {
            score_noise: 0.25,
            dedup_gap: 0,
            seed: 0,
        }
    }
}

/// The proxy-ordered sampling method.
#[derive(Debug, Clone)]
pub struct ProxyBaseline {
    /// Frame ids sorted by descending proxy score.
    order: Vec<FrameId>,
    /// Position of the next candidate in `order`.
    cursor: usize,
    /// Frames already emitted (for the duplicate-avoidance heuristic).
    emitted: BTreeSet<FrameId>,
    dedup_gap: u64,
}

impl ProxyBaseline {
    /// Build the proxy baseline for one query.
    ///
    /// Scoring every frame is exactly the upfront scan the real system performs;
    /// here it costs a pass over the ground-truth intervals plus a sort.
    pub fn new(truth: &GroundTruth, class: &ObjectClass, config: ProxyConfig) -> Self {
        let total_frames = truth.total_frames();
        assert!(
            total_frames > 0,
            "cannot build a proxy over an empty repository"
        );
        let mut scores = vec![0.0f32; total_frames as usize];
        for inst in truth.of_class(class) {
            for frame in inst.first_frame()..=inst.last_frame() {
                scores[frame as usize] += 1.0;
            }
        }
        if config.score_noise > 0.0 {
            let seed = SeedSequence::new(config.seed).derive("proxy-scores").seed();
            let mut rng = StdRng::seed_from_u64(seed);
            for s in &mut scores {
                // A cheap triangular approximation of Gaussian noise is plenty here
                // and avoids a per-frame Box-Muller in the scoring loop.
                let noise = (rng.gen::<f64>() + rng.gen::<f64>() - 1.0) * config.score_noise * 1.7;
                *s += noise as f32;
            }
        }
        let mut order: Vec<FrameId> = (0..total_frames).collect();
        order.sort_by(|&a, &b| {
            scores[b as usize]
                .partial_cmp(&scores[a as usize])
                .expect("scores are never NaN")
        });
        ProxyBaseline {
            order,
            cursor: 0,
            emitted: BTreeSet::new(),
            dedup_gap: config.dedup_gap,
        }
    }

    /// Whether a frame is within the duplicate-avoidance gap of an emitted frame.
    fn is_blocked(&self, frame: FrameId) -> bool {
        if self.dedup_gap == 0 {
            return false;
        }
        let lo = frame.saturating_sub(self.dedup_gap);
        let hi = frame.saturating_add(self.dedup_gap);
        self.emitted.range(lo..=hi).next().is_some()
    }

    /// Frames the upfront scoring scan decodes before the first pick: the
    /// whole repository (Section V-B).
    pub fn upfront_scan_frames(&self) -> u64 {
        self.order.len() as u64
    }

    /// The highest-scored frame not yet emitted (and not blocked by the
    /// duplicate-avoidance gap), or `None` once the order is exhausted.
    pub fn next_frame(&mut self) -> Option<FrameId> {
        while self.cursor < self.order.len() {
            let frame = self.order[self.cursor];
            self.cursor += 1;
            if self.is_blocked(frame) {
                continue;
            }
            self.emitted.insert(frame);
            return Some(frame);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exsample_detect::ObjectInstance;
    use std::collections::HashSet;

    fn truth() -> GroundTruth {
        GroundTruth::from_instances(
            10_000,
            vec![
                ObjectInstance::simple(0, "car", 1_000, 1_499),
                ObjectInstance::simple(1, "car", 7_000, 7_099),
                ObjectInstance::simple(2, "bus", 3_000, 3_999),
            ],
        )
    }

    #[test]
    fn perfect_proxy_visits_object_frames_first() {
        let truth = truth();
        let proxy = ProxyBaseline::new(
            &truth,
            &ObjectClass::from("car"),
            ProxyConfig {
                score_noise: 0.0,
                dedup_gap: 0,
                seed: 0,
            },
        );
        let mut proxy = proxy;
        // The 600 car frames should be emitted before any non-car frame.
        let mut emitted = Vec::new();
        for _ in 0..600 {
            emitted.push(proxy.next_frame().unwrap());
        }
        assert!(emitted
            .iter()
            .all(|&f| (1_000..1_500).contains(&f) || (7_000..7_100).contains(&f)));
    }

    #[test]
    fn upfront_cost_is_the_full_dataset() {
        let truth = truth();
        let proxy = ProxyBaseline::new(&truth, &ObjectClass::from("car"), ProxyConfig::default());
        assert_eq!(proxy.upfront_scan_frames(), 10_000);
    }

    #[test]
    fn noisy_proxy_still_prioritises_object_frames_on_average() {
        let truth = truth();
        let mut proxy = ProxyBaseline::new(
            &truth,
            &ObjectClass::from("car"),
            ProxyConfig {
                score_noise: 0.4,
                dedup_gap: 0,
                seed: 3,
            },
        );
        let first_thousand: Vec<FrameId> =
            (0..1_000).map(|_| proxy.next_frame().unwrap()).collect();
        let car_frames = first_thousand
            .iter()
            .filter(|&&f| (1_000..1_500).contains(&f) || (7_000..7_100).contains(&f))
            .count();
        // 600 of 10_000 frames contain cars; random order would put ~60 of them in
        // the first 1000. A noisy-but-useful proxy puts far more.
        assert!(
            car_frames > 300,
            "car frames in first 1000 picks: {car_frames}"
        );
    }

    #[test]
    fn dedup_gap_spreads_out_emitted_frames() {
        let truth = truth();
        let mut proxy = ProxyBaseline::new(
            &truth,
            &ObjectClass::from("car"),
            ProxyConfig {
                score_noise: 0.0,
                dedup_gap: 100,
                seed: 0,
            },
        );
        let picks: Vec<FrameId> = (0..10).map(|_| proxy.next_frame().unwrap()).collect();
        for (i, &a) in picks.iter().enumerate() {
            for &b in &picks[i + 1..] {
                assert!(a.abs_diff(b) > 100, "picks too close: {a} and {b}");
            }
        }
    }

    #[test]
    fn exhausts_every_frame_exactly_once_without_dedup() {
        let truth =
            GroundTruth::from_instances(500, vec![ObjectInstance::simple(0, "car", 10, 40)]);
        let mut proxy =
            ProxyBaseline::new(&truth, &ObjectClass::from("car"), ProxyConfig::default());
        let mut seen = HashSet::new();
        while let Some(f) = proxy.next_frame() {
            assert!(seen.insert(f));
        }
        assert_eq!(seen.len(), 500);
    }

    #[test]
    #[should_panic(expected = "empty repository")]
    fn empty_repository_panics() {
        let truth = GroundTruth::new(0);
        let _ = ProxyBaseline::new(&truth, &ObjectClass::from("car"), ProxyConfig::default());
    }
}
