//! Criterion benchmarks of the end-to-end simulated pipeline.
//!
//! These measure one full query-runner step (detector + discriminator + statistics
//! update) and a short end-to-end query for ExSample vs. random sampling on a
//! skewed workload, documenting the simulation throughput that the experiment
//! binaries rely on.
//!
//! `simulated_detector_detect` looks frames up in a single-class grid truth;
//! `simulated_detector_detect_archie` does the same on the archie analog at
//! scale 0.2, cycling through its six classes, which is the multi-class
//! lookup the fig5 sweep and the repository benchmark's detector layer pay
//! for on every processed frame.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use exsample_core::ExSampleConfig;
use exsample_data::datasets::{archie, DatasetAnalog};
use exsample_data::{GridWorkload, SkewLevel};
use exsample_detect::{Detector, PerfectDetector};
use exsample_sim::{MethodKind, QueryRunner, StopCondition};
use exsample_track::{Discriminator, OracleDiscriminator};
use std::sync::Arc;

fn dataset() -> exsample_data::Dataset {
    GridWorkload::builder()
        .frames(500_000)
        .instances(800)
        .chunks(64)
        .mean_duration(300.0)
        .skew(SkewLevel::ThirtySecond)
        .seed(99)
        .build()
        .expect("valid workload")
        .generate()
}

fn bench_detector_and_discriminator(c: &mut Criterion) {
    let dataset = dataset();
    let truth = Arc::clone(dataset.ground_truth());
    let detector = PerfectDetector::new(Arc::clone(&truth), GridWorkload::class());
    c.bench_function("simulated_detector_detect", |b| {
        let mut frame = 0u64;
        b.iter(|| {
            frame = (frame + 9_973) % dataset.total_frames();
            black_box(detector.detect(frame))
        });
    });
    let archie = DatasetAnalog::new(archie(), 99).with_scale(0.2).generate();
    let detectors: Vec<PerfectDetector> = archie
        .classes()
        .into_iter()
        .map(|class| PerfectDetector::new(Arc::clone(archie.ground_truth()), class))
        .collect();
    c.bench_function("simulated_detector_detect_archie", |b| {
        let mut frame = 0u64;
        let mut class = 0;
        b.iter(|| {
            frame = (frame + 9_973) % archie.total_frames();
            class = (class + 1) % detectors.len();
            black_box(detectors[class].detect(frame))
        });
    });
    c.bench_function("oracle_discriminator_observe", |b| {
        let mut discriminator = OracleDiscriminator::new();
        let detections = detector.detect(250_000);
        b.iter(|| black_box(discriminator.observe(&detections)));
    });
}

fn bench_short_queries(c: &mut Criterion) {
    let dataset = dataset();
    let mut group = c.benchmark_group("query_500_frames");
    group.sample_size(20);
    group.bench_function("exsample", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(
                QueryRunner::new(&dataset)
                    .stop(StopCondition::FrameBudget(500))
                    .seed(seed)
                    .run(MethodKind::ExSample(ExSampleConfig::default()))
                    .expect("query run succeeded"),
            )
        });
    });
    group.bench_function("random", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(
                QueryRunner::new(&dataset)
                    .stop(StopCondition::FrameBudget(500))
                    .seed(seed)
                    .run(MethodKind::Random)
                    .expect("query run succeeded"),
            )
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_detector_and_discriminator,
    bench_short_queries
);
criterion_main!(benches);
