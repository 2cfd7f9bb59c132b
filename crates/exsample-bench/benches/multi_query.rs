//! Multi-query engine throughput: 1, 8 and 64 concurrent queries over one
//! shared repository.
//!
//! Each iteration executes a full `QueryEngine` run: every query is an
//! ExSample policy with its own RNG stream and frame budget, all targeting the
//! same detector over the same repository.  What sharing detector work across
//! queries buys is the gap between the frames the queries demanded and the
//! frames the engine detected; the detector here is the cheap simulated one,
//! so wall-clock time *understates* the real saving (each shared frame avoids
//! a full decode + GPU inference in production) — which is why the bench also
//! reports the invocation counts that determine the real-world bill.
//!
//! `BENCH_QUICK=1` (the CI smoke configuration) shrinks the per-query budget.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use exsample_core::ExSampleConfig;
use exsample_data::{Dataset, GridWorkload, SkewLevel};
use exsample_detect::PerfectDetector;
use exsample_engine::{EngineReport, ExSamplePolicy, QueryEngine, QuerySpec};
use std::sync::Arc;

const QUERY_COUNTS: [usize; 3] = [1, 8, 64];

fn budget() -> u64 {
    if std::env::var("BENCH_QUICK").is_ok_and(|v| v == "1") {
        150
    } else {
        600
    }
}

fn dataset() -> Dataset {
    GridWorkload::builder()
        .frames(200_000)
        .instances(400)
        .chunks(32)
        .mean_duration(150.0)
        .skew(SkewLevel::ThirtySecond)
        .seed(31)
        .build()
        .expect("valid workload")
        .generate()
}

fn run_engine(
    dataset: &Dataset,
    detector: &PerfectDetector,
    queries: usize,
    budget: u64,
) -> EngineReport {
    let mut engine = QueryEngine::new();
    for q in 0..queries {
        let policy = ExSamplePolicy::new(ExSampleConfig::default(), dataset.chunking());
        engine
            .push(
                QuerySpec::new(format!("q{q}"), Box::new(policy), detector)
                    .seed(1000 + q as u64)
                    .batch(16)
                    .frame_budget(budget),
            )
            .expect("valid query spec");
    }
    engine.run().expect("queries registered")
}

fn bench_multi_query(c: &mut Criterion) {
    let dataset = dataset();
    let detector = PerfectDetector::new(Arc::clone(dataset.ground_truth()), GridWorkload::class());
    let budget = budget();
    let mut group = c.benchmark_group("multi_query");
    group.sample_size(10);
    for &queries in &QUERY_COUNTS {
        group.bench_with_input(
            BenchmarkId::new("coalesced", queries),
            &queries,
            |b, &queries| {
                b.iter(|| black_box(run_engine(&dataset, &detector, queries, budget)));
            },
        );
    }
    group.finish();

    // The acceptance-relevant numbers: batched detector invocations actually
    // issued vs. what the queries demanded, per concurrency level.
    println!("\n# multi-query detector invocation counts (per-query budget {budget} frames)");
    println!("# queries | demanded | detected | shared");
    for &queries in &QUERY_COUNTS {
        let report = run_engine(&dataset, &detector, queries, budget);
        println!(
            "# {:>7} | {:>8} | {:>8} | {:>6}",
            queries,
            report.demanded_frames,
            report.detector_frames,
            report.coalesced_savings()
        );
    }
}

criterion_group!(benches, bench_multi_query);
criterion_main!(benches);
