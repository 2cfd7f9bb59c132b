//! Criterion benchmarks of the simulated pipeline's layers.
//!
//! Every row predicts one per-layer metric of the repository benchmark
//! (`benchmark/`), the end-to-end ledger: a row whose metric does not move
//! there is not a result.
//!
//! `simulated_detector_detect_archie` looks frames up in the archie analog
//! at scale 0.2, cycling through its six classes: the multi-class lookup the
//! fig5 sweep and the benchmark's detector layer pay for on every processed
//! frame.  `oracle_discriminator_observe` is the discriminator's per-frame
//! bookkeeping on one frame of a single-class grid workload.
//! `engine_batch1/{random,exsample}` run one batch-1 `QueryEngine` query per
//! archie class on a free detector and report ns per frame.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use exsample_core::ExSampleConfig;
use exsample_data::datasets::{archie, DatasetAnalog};
use exsample_data::{GridWorkload, SkewLevel};
use exsample_detect::{Detector, PerfectDetector};
use exsample_engine::{ExSamplePolicy, FrameSamplerPolicy, QueryEngine, QuerySpec, SamplingPolicy};
use exsample_track::{Discriminator, OracleDiscriminator};
use std::sync::Arc;

fn grid() -> exsample_data::Dataset {
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
    let (archie, detectors) = archie_analog();
    // Predicts `exsample-detect.inner_s`.
    c.bench_function("simulated_detector_detect_archie", |b| {
        let mut frame = 0u64;
        let mut class = 0;
        b.iter(|| {
            frame = (frame + 9_973) % archie.total_frames();
            class = (class + 1) % detectors.len();
            black_box(detectors[class].detect(frame))
        });
    });
    let grid = grid();
    let detections = PerfectDetector::new(Arc::clone(grid.ground_truth()), GridWorkload::class())
        .detect(250_000);
    // Predicts `exsample-track.observe_s`.
    c.bench_function("oracle_discriminator_observe", |b| {
        let mut discriminator = OracleDiscriminator::new();
        b.iter(|| black_box(discriminator.observe(&detections)));
    });
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
    // Predicts `exsample-sim.{random,exsample}_us_per_frame`.
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
    bench_engine_batch1
);
criterion_main!(benches);
