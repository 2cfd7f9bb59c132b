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
//!
//! `engine_batch1/{random,exsample}` run one batch-1 `QueryEngine` query per
//! archie class on a free detector and report ns per frame, the row that
//! predicts the repository benchmark's `exsample-sim.*_us_per_frame`.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use exsample_core::ExSampleConfig;
use exsample_data::datasets::{archie, DatasetAnalog};
use exsample_data::{GridWorkload, SkewLevel};
use exsample_detect::{Detector, PerfectDetector};
use exsample_engine::{ExSamplePolicy, FrameSamplerPolicy, QueryEngine, QuerySpec, SamplingPolicy};
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
    let (archie, detectors) = archie_analog();
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

/// The archie analog at scale 0.2, with a free detector per class.
fn archie_analog() -> (exsample_data::Dataset, Vec<PerfectDetector>) {
    let archie = DatasetAnalog::new(archie(), 99).with_scale(0.2).generate();
    let detectors = archie
        .classes()
        .into_iter()
        .map(|class| PerfectDetector::new(Arc::clone(archie.ground_truth()), class))
        .collect();
    (archie, detectors)
}

/// Frames each class's query runs per `engine_batch1` iteration.
const ENGINE_BATCH1_FRAMES: u64 = 2_000;

fn bench_engine_batch1(c: &mut Criterion) {
    let (archie, detectors) = archie_analog();
    let frames = ENGINE_BATCH1_FRAMES * detectors.len() as u64;
    let mut group = c.benchmark_group("engine_batch1");
    group
        .sample_size(20)
        .throughput(Throughput::Elements(frames));
    for method in ["random", "exsample"] {
        group.bench_function(method, |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                for detector in &detectors {
                    let policy: Box<dyn SamplingPolicy> = if method == "random" {
                        Box::new(FrameSamplerPolicy::uniform(archie.total_frames()))
                    } else {
                        Box::new(ExSamplePolicy::new(
                            ExSampleConfig::default(),
                            archie.chunking(),
                        ))
                    };
                    let spec = QuerySpec::new(method, policy, detector).seed(seed);
                    let mut engine = QueryEngine::new();
                    engine
                        .push(spec.frame_budget(ENGINE_BATCH1_FRAMES))
                        .expect("batch 1 is valid");
                    black_box(engine.run().expect("a free detector never fails").stages);
                }
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_detector_and_discriminator,
    bench_short_queries,
    bench_engine_batch1
);
criterion_main!(benches);
