//! Golden digest of the simulated DETECT layer on the six fig5 analogs.
//!
//! How `GroundTruth` indexes its instances is a pure performance decision:
//! whatever the index, `PerfectDetector` and `SimulatedDetector` must report
//! the same detections in the same order — the noisy detector draws its RNG
//! once per visible instance, in lookup order, so an order change would move
//! every later box and score — and every `QueryRunner` outcome built on them
//! must stay bitwise unchanged.  The constants below were captured from this
//! test before the ground truth grew its per-class index.

use exsample_core::ExSampleConfig;
use exsample_data::datasets::all_datasets;
use exsample_data::{Dataset, DatasetAnalog};
use exsample_detect::{
    Detector, DetectorNoise, FrameDetections, InstanceId, ObjectClass, PerfectDetector,
    SimulatedDetector,
};
use exsample_sim::{MethodKind, QueryRunner, StopCondition};
use std::sync::Arc;

const SCALE: f64 = 0.2;
const DATASET_SEED: u64 = 2_026;
const DETECTOR_SEED: u64 = 17;
const SAMPLED_FRAMES: usize = 2_000;

/// Per analog: FNV-1a over the perfect and the noisy detector's output for
/// every class, then ExSample's and random's frames to recall 0.5 on the
/// analog's first class and an FNV-1a over each run's found instances.
const GOLDEN: [(&str, u64, u64, u64, u64, u64, u64); 6] = [
    (
        "BDD 1k",
        0x455e_be5a_103d_91c1,
        0x2518_a8a3_8d9e_0044,
        1661,
        0x3fd6_d9bb_f60f_5ba1,
        1759,
        0x9d30_8865_fff3_29f0,
    ),
    (
        "BDD MOT",
        0x846a_6174_db06_8448,
        0x8489_1eb2_a592_7499,
        900,
        0xca3a_bcf3_85f1_9dd1,
        1467,
        0xab12_89fc_70ff_b452,
    ),
    (
        "amsterdam",
        0x64d1_0bab_5ae2_5577,
        0xed5f_8af2_a1b7_fdd8,
        1286,
        0xe9b7_343f_4c53_e7ce,
        1322,
        0xcd1e_550d_efc5_0119,
    ),
    (
        "archie",
        0x770e_ba45_b08f_c697,
        0xa15e_2b24_3246_d1db,
        1392,
        0xbefb_4964_8976_5e7a,
        1759,
        0x32cc_33eb_0ade_ea2d,
    ),
    (
        "dashcam",
        0x7728_d0d6_eab0_f70b,
        0x23f0_d147_44ed_67bc,
        552,
        0x5bf3_246a_a41e_a53a,
        982,
        0xc663_ec5e_8f3f_5504,
    ),
    (
        "night street",
        0xff08_ac90_c3e5_7bbd,
        0x0a3c_44f0_516c_e544,
        1238,
        0x5597_666f_ae44_6cd7,
        1061,
        0x6c98_eb3e_c425_6494,
    ),
];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fold(digest: u64, value: u64) -> u64 {
    value.to_le_bytes().into_iter().fold(digest, |d, byte| {
        (d ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Frame, detection count, then per detection: truth id (`u64::MAX` for a
/// false positive), the box's four coordinates and the score, as bits.
fn fold_detections(digest: u64, out: &FrameDetections) -> u64 {
    let mut digest = fold(fold(digest, out.frame), out.len() as u64);
    for d in &out.detections {
        digest = fold(digest, d.truth.map_or(u64::MAX, |id| id.0));
        for value in [d.bbox.x, d.bbox.y, d.bbox.w, d.bbox.h, d.score] {
            digest = fold(digest, value.to_bits());
        }
    }
    digest
}

/// A fixed pseudo-random frame sample (SplitMix64) plus the edges: the first
/// and last frame, and two frames past the end of the repository.
fn sample_frames(total: u64) -> Vec<u64> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ total;
    let mut frames: Vec<u64> = (0..SAMPLED_FRAMES)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % total
        })
        .collect();
    frames.extend([0, total - 1, total, total + 10_000]);
    frames
}

fn detector_digests(dataset: &Dataset) -> (u64, u64) {
    let truth = Arc::clone(dataset.ground_truth());
    let frames = sample_frames(dataset.total_frames());
    let (mut perfect_digest, mut noisy_digest) = (FNV_OFFSET, FNV_OFFSET);
    for class in dataset.classes() {
        let perfect = PerfectDetector::new(Arc::clone(&truth), class.clone());
        let noisy = SimulatedDetector::new(
            Arc::clone(&truth),
            class,
            DetectorNoise::default(),
            DETECTOR_SEED,
        );
        for &frame in &frames {
            perfect_digest = fold_detections(perfect_digest, &perfect.detect(frame));
            noisy_digest = fold_detections(noisy_digest, &noisy.detect(frame));
        }
    }
    (perfect_digest, noisy_digest)
}

fn run_digest(dataset: &Dataset, class: &ObjectClass, kind: MethodKind) -> (u64, u64) {
    let result = QueryRunner::new(dataset)
        .class(class.clone())
        .stop(StopCondition::Recall(0.5))
        .frame_cap(dataset.total_frames())
        .seed(DATASET_SEED)
        .run(kind)
        .expect("query run succeeds");
    let found = result
        .found_instances
        .iter()
        .fold(FNV_OFFSET, |d, &InstanceId(id)| fold(d, id));
    (result.frames_processed, found)
}

#[test]
fn simulated_detect_on_the_fig5_analogs_matches_the_golden_digest() {
    let mut measured = Vec::new();
    for spec in all_datasets() {
        let name = spec.name;
        let first_class = ObjectClass::from(spec.classes[0].class);
        let dataset = DatasetAnalog::new(spec, DATASET_SEED)
            .with_scale(SCALE)
            .generate();
        let (perfect, noisy) = detector_digests(&dataset);
        let exsample = ExSampleConfig::default();
        let (ex_frames, ex_found) =
            run_digest(&dataset, &first_class, MethodKind::ExSample(exsample));
        let (random_frames, random_found) = run_digest(&dataset, &first_class, MethodKind::Random);
        measured.push((
            name,
            perfect,
            noisy,
            ex_frames,
            ex_found,
            random_frames,
            random_found,
        ));
    }
    assert_eq!(measured.len(), GOLDEN.len());
    for (got, want) in measured.iter().zip(GOLDEN.iter()) {
        assert_eq!(
            got, want,
            "simulated DETECT changed on {}: {got:x?}",
            want.0
        );
    }
}
