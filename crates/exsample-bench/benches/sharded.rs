//! Engine throughput under 1, 2 and 8-shard report views × 1 and 8 concurrent
//! queries over one repository, a parallel-execution axis (`parallel_detect`:
//! serial vs 2 and 4 worker threads of the persistent per-run worker pool at
//! 2 and 8 shards), a batching axis (`batched_detect`) running the engine's
//! batches against a cost-model instrumented detector — plus the cost of
//! publishing the per-shard report measured separately.  (The `parallel_detect_scoped`
//! rows still in `BENCH_sharded.json` are the last capture of the per-stage
//! scoped spawn this pool replaced, and its `batched_detect/*/per_shard` rows
//! the last capture of per-shard batching — one physical call per detector
//! group *per shard* — kept as the recorded baselines; both designs are
//! gone.)
//!
//! Each iteration executes a full `QueryEngine` run whose report view groups
//! tallies by a contiguous-range shard router.  Shards are a view, so
//! outcomes are bitwise-identical across shard counts, execution modes and
//! thread counts — the determinism suite enforces that — and what this
//! benchmark tracks is pure execution overhead: gathering the lanes' misses
//! into one `detect_batch` per detector group and scattering the results
//! back, attributing each tally to its shard, and handing DETECT's slices to
//! the run's pool.  The printed table reports the
//! physical-vs-logical invocation counts: equal when serial, at most one
//! extra call per lane boundary per stage otherwise.
//!
//! The parallel axis measures *overhead*, not speedup: the simulated detector
//! is microseconds-cheap, so thread dispatch can only cost time here.  With
//! a real (milliseconds) detector the same axis is where the speedup shows
//! up; treat the committed baseline's parallel rows as a dispatch overhead
//! bound.
//!
//! The `cache_contention` axis runs full warm-heavy 8-query engine runs with
//! the detections cache at 1/2/4 worker threads, plus the uncached serial
//! baseline: the engine-level cost of probing and committing serially around
//! the dispatched lanes, with count-invariance asserted across every row.
//! (Its `trace/*` rows still in `BENCH_sharded.json` are the last capture of
//! the lock-striped cache and the legacy serial LRU it was pinned against;
//! both are gone.  The `engine_8q_striped/*` rows there are
//! `engine_8q_cached/*` under their old name.)
//!
//! `BENCH_QUICK=1` (the CI smoke configuration) shrinks the per-query budget.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use exsample_core::ExSampleConfig;
use exsample_data::{Dataset, GridWorkload, SkewLevel};
use exsample_detect::{
    BatchCostModel, BatchingDetector, Detector, FaultInjectingDetector, FaultPlan, GroundTruth,
    PerfectDetector,
};
use exsample_engine::{
    ExSamplePolicy, ExecutionMode, FailureMode, QueryEngine, QuerySpec, RetryPolicy, ShardRouter,
    ShardedReport,
};
use std::sync::Arc;

const SHARD_COUNTS: [u32; 3] = [1, 2, 8];
const QUERY_COUNTS: [usize; 2] = [1, 8];
/// The parallel axis: worker threads (0 = serial) × shard counts.
const THREAD_COUNTS: [usize; 3] = [0, 2, 4];
const PARALLEL_SHARD_COUNTS: [u32; 2] = [2, 8];

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
        .seed(47)
        .build()
        .expect("valid workload")
        .generate()
}

/// A fresh engine whose report view groups tallies into `shards`
/// contiguous-range shards, with each stage's DETECT cut over `parallel`
/// lanes (0 or 1 = serial).
fn engine<'a>(dataset: &Dataset, shards: u32, parallel: usize) -> QueryEngine<'a> {
    let engine = QueryEngine::new().sharded(ShardRouter::contiguous(dataset.chunking(), shards));
    if parallel > 1 {
        return engine
            .execution(ExecutionMode::Parallel(parallel))
            .expect("the bench thread counts are valid execution modes");
    }
    engine
}

fn run_engine(
    dataset: &Dataset,
    detector: &PerfectDetector,
    shards: u32,
    parallel: usize,
    queries: usize,
    budget: u64,
) -> ShardedReport {
    let mut engine = engine(dataset, shards, parallel);
    for q in 0..queries {
        let policy = ExSamplePolicy::new(ExSampleConfig::default(), dataset.chunking());
        engine
            .push(
                QuerySpec::new(format!("q{q}"), Box::new(policy), detector)
                    .seed(2000 + q as u64)
                    .batch(16)
                    .frame_budget(budget),
            )
            .expect("valid query spec");
    }
    let _ = engine.run().expect("queries registered");
    engine.report_sharded()
}

/// A full engine run with the fault-tolerance machinery fully armed — the
/// detector wrapped in a zero-rate fault injector, retries and drop-frame
/// degradation enabled — but nothing ever failing.  The `faulty_detect` axis
/// compares this against the plain `sharded_run` rows: the failure path must
/// cost nothing (be within noise) when nothing fails.
fn run_engine_guarded(
    dataset: &Dataset,
    truth: &Arc<GroundTruth>,
    shards: u32,
    queries: usize,
    budget: u64,
) -> ShardedReport {
    // Fresh wrapper per run: its per-frame attempt counters are run-local.
    let detector = FaultInjectingDetector::new(
        Box::new(PerfectDetector::new(
            Arc::clone(truth),
            GridWorkload::class(),
        )) as Box<dyn Detector>,
        FaultPlan::new(4_747),
    );
    let mut engine = engine(dataset, shards, 0)
        .retry_policy(RetryPolicy::new(3).backoff_cost(1))
        .failure_mode(FailureMode::DropFrames);
    for q in 0..queries {
        let policy = ExSamplePolicy::new(ExSampleConfig::default(), dataset.chunking());
        engine
            .push(
                QuerySpec::new(format!("q{q}"), Box::new(policy), &detector)
                    .seed(2000 + q as u64)
                    .batch(16)
                    .frame_budget(budget),
            )
            .expect("valid query spec");
    }
    let _ = engine.run().expect("queries registered");
    engine.report_sharded()
}

/// A full engine run against a cost-model instrumented detector
/// ([`BatchingDetector`]).  Returns the report plus the physical
/// (calls, frames, modelled cost) the detector actually charged — the
/// numbers the `batched_detect` axis reports, since on a 1-vCPU container
/// the batching win is a dispatch-cost win, not a wall-clock one.
fn run_engine_batched(
    dataset: &Dataset,
    truth: &Arc<GroundTruth>,
    shards: u32,
    queries: usize,
    budget: u64,
) -> (ShardedReport, u64, u64, u64) {
    // Fresh wrapper per run: its counters are run-local tallies.
    let detector = BatchingDetector::new(
        PerfectDetector::new(Arc::clone(truth), GridWorkload::class()),
        BatchCostModel::gpu_default(),
    );
    let mut engine = engine(dataset, shards, 0);
    for q in 0..queries {
        let policy = ExSamplePolicy::new(ExSampleConfig::default(), dataset.chunking());
        engine
            .push(
                QuerySpec::new(format!("q{q}"), Box::new(policy), &detector)
                    .seed(2000 + q as u64)
                    .batch(16)
                    .frame_budget(budget),
            )
            .expect("valid query spec");
    }
    let _ = engine.run().expect("queries registered");
    (
        engine.report_sharded(),
        detector.physical_calls(),
        detector.physical_frames(),
        detector.modelled_cost(),
    )
}

/// A small, dense workload for the cache axis: 8 queries over few enough
/// frames that they keep re-demanding each other's picks across stages —
/// the warm-heavy shape where the cache actually earns its keep.
fn warm_dataset() -> Dataset {
    GridWorkload::builder()
        .frames(4_000)
        .instances(40)
        .chunks(32)
        .mean_duration(50.0)
        .skew(SkewLevel::ThirtySecond)
        .seed(53)
        .build()
        .expect("valid workload")
        .generate()
}

/// A warm-heavy 8-query engine run with the detections cache (capacity sized to
/// hold the whole working set, so every cross-query revisit is a hit), or
/// uncached when `cache` is 0.
fn run_engine_warm(
    dataset: &Dataset,
    detector: &PerfectDetector,
    parallel: usize,
    cache: usize,
    budget: u64,
) -> ShardedReport {
    let mut engine = engine(dataset, 2, parallel);
    if cache > 0 {
        engine = engine.cache_capacity(cache);
    }
    for q in 0..8usize {
        let policy = ExSamplePolicy::new(ExSampleConfig::default(), dataset.chunking());
        engine
            .push(
                QuerySpec::new(format!("q{q}"), Box::new(policy), detector)
                    .seed(2000 + q as u64)
                    .batch(16)
                    .frame_budget(budget),
            )
            .expect("valid query spec");
    }
    let _ = engine.run().expect("queries registered");
    engine.report_sharded()
}

/// Per-query outcome equality (labels, demand, finds, stop reasons) — what
/// "the cache never changes results" means at the bench level.
fn assert_same_outcomes(context: &str, a: &ShardedReport, b: &ShardedReport) {
    assert_eq!(
        a.report.outcomes.len(),
        b.report.outcomes.len(),
        "{context}: query count"
    );
    for (qa, qb) in a.report.outcomes.iter().zip(&b.report.outcomes) {
        assert_eq!(qa.label, qb.label, "{context}: query order");
        assert_eq!(
            qa.frames_processed, qb.frames_processed,
            "{context}: {} frames",
            qa.label
        );
        assert_eq!(
            qa.found_instances, qb.found_instances,
            "{context}: {} instances",
            qa.label
        );
        assert_eq!(
            qa.stop_reason, qb.stop_reason,
            "{context}: {} stop reason",
            qa.label
        );
    }
}

fn bench_sharded(c: &mut Criterion) {
    let dataset = dataset();
    let detector = PerfectDetector::new(Arc::clone(dataset.ground_truth()), GridWorkload::class());
    let budget = budget();

    let mut group = c.benchmark_group("sharded_run");
    group.sample_size(10);
    for &queries in &QUERY_COUNTS {
        for &shards in &SHARD_COUNTS {
            group.bench_with_input(
                BenchmarkId::new(&format!("{queries}q"), shards),
                &shards,
                |b, &shards| {
                    b.iter(|| {
                        black_box(run_engine(&dataset, &detector, shards, 0, queries, budget))
                    });
                },
            );
        }
    }
    group.finish();

    // The fault-tolerance overhead axis: the same runs with the failure path
    // armed end to end (zero-rate fault injector, retries + drop-frame mode
    // on) but never exercised.  Compare against the matching `sharded_run`
    // rows — the delta is the standing cost of fault tolerance when nothing
    // fails, which must stay within noise.
    let truth = Arc::clone(dataset.ground_truth());
    let mut faulty_group = c.benchmark_group("faulty_detect");
    faulty_group.sample_size(10);
    for &shards in &SHARD_COUNTS {
        faulty_group.bench_with_input(BenchmarkId::new("8q", shards), &shards, |b, &shards| {
            b.iter(|| black_box(run_engine_guarded(&dataset, &truth, shards, 8, budget)));
        });
    }
    faulty_group.finish();

    // The parallel axis: serial vs 2/4 pooled worker threads at 2/8 shards,
    // 8 concurrent queries.  Same work, different thread placement — the
    // determinism suite guarantees identical outputs, so the delta is pure
    // execution-mode overhead (or, with an expensive detector, speedup).
    // Threads are the run's persistent worker pool, spawned once per run,
    // not per stage.
    let mut parallel_group = c.benchmark_group("parallel_detect");
    parallel_group.sample_size(10);
    for &shards in &PARALLEL_SHARD_COUNTS {
        for &threads in &THREAD_COUNTS {
            parallel_group.bench_with_input(
                BenchmarkId::new(&format!("{shards}s_8q"), threads),
                &threads,
                |b, &threads| {
                    b.iter(|| {
                        black_box(run_engine(&dataset, &detector, shards, threads, 8, budget))
                    });
                },
            );
        }
    }
    parallel_group.finish();

    // The batching axis: the same 8-query run against a cost-model
    // instrumented detector.  A detector group is one batch, so the
    // wall-clock here is the gather/scatter bookkeeping; the modelled
    // dispatch cost is printed (and asserted shard-count-invariant) below.
    // The committed `per_shard` rows are the deleted per-shard design.
    let mut batched_group = c.benchmark_group("batched_detect");
    batched_group.sample_size(10);
    for &shards in &PARALLEL_SHARD_COUNTS {
        batched_group.bench_with_input(
            BenchmarkId::new(&format!("{shards}s_8q"), "aggregated"),
            &shards,
            |b, &shards| {
                b.iter(|| black_box(run_engine_batched(&dataset, &truth, shards, 8, budget)));
            },
        );
    }
    batched_group.finish();

    // The cache-contention axis: full 8-query warm-heavy runs, cached at
    // 1/2/4 worker threads plus the uncached serial baseline, measuring the
    // end-to-end cost of probing and committing serially around the
    // dispatched lanes.
    let warm = warm_dataset();
    let warm_detector =
        PerfectDetector::new(Arc::clone(warm.ground_truth()), GridWorkload::class());
    let mut cache_group = c.benchmark_group("cache_contention");
    cache_group.sample_size(10);
    cache_group.bench_with_input(BenchmarkId::new("engine_8q", "uncached"), &(), |b, _| {
        b.iter(|| black_box(run_engine_warm(&warm, &warm_detector, 0, 0, budget)));
    });
    for &threads in &THREAD_COUNTS {
        cache_group.bench_with_input(
            BenchmarkId::new("engine_8q_cached", threads.max(1)),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    black_box(run_engine_warm(
                        &warm,
                        &warm_detector,
                        threads,
                        4_096,
                        budget,
                    ))
                });
            },
        );
    }
    cache_group.finish();

    // Publishing overhead, separately: building the per-shard report on an
    // already-completed engine.  This measures report_sharded() end to end —
    // global report construction (per-query clones and sorts) plus copying
    // out the view's per-shard tallies — which is the cost a caller actually
    // pays per report.
    let mut merge_group = c.benchmark_group("report_sharded");
    merge_group.sample_size(10);
    for &shards in &SHARD_COUNTS {
        let mut engine = engine(&dataset, shards, 0);
        for q in 0..8usize {
            let policy = ExSamplePolicy::new(ExSampleConfig::default(), dataset.chunking());
            engine
                .push(
                    QuerySpec::new(format!("q{q}"), Box::new(policy), &detector)
                        .seed(3000 + q as u64)
                        .batch(16)
                        .frame_budget(budget),
                )
                .expect("valid query spec");
        }
        let _ = engine.run().expect("queries registered");
        merge_group.bench_with_input(BenchmarkId::new("8q", shards), &shards, |b, _| {
            b.iter(|| black_box(engine.report_sharded()));
        });
    }
    merge_group.finish();

    // The acceptance-relevant numbers: the shard view changes neither
    // outcomes nor invocation counts, logical or physical — and parallel
    // execution only cuts a stage's batches at its lane boundaries.
    println!("\n# sharded engine invocation counts (per-query budget {budget} frames)");
    println!("# queries | shards | threads | detector frames | logical calls | physical calls | overhead");
    for &queries in &QUERY_COUNTS {
        let baseline = run_engine(&dataset, &detector, 1, 0, queries, budget);
        for &shards in &SHARD_COUNTS {
            let serial = run_engine(&dataset, &detector, shards, 0, queries, budget);
            assert_eq!(
                serial.report.detector_frames,
                baseline.report.detector_frames
            );
            assert_eq!(serial.report.detector_calls, baseline.report.detector_calls);
            for &threads in &THREAD_COUNTS {
                let merged = run_engine(&dataset, &detector, shards, threads, queries, budget);
                // Parallel runs are logically identical to the serial run;
                // physically they add at most one call per extra lane per
                // stage.
                assert_eq!(merged.report.detector_frames, serial.report.detector_frames);
                assert_eq!(merged.report.detector_calls, serial.report.detector_calls);
                assert_eq!(serial.shard_overhead_calls(), 0);
                assert!(
                    merged.shard_overhead_calls()
                        <= merged.report.stages * threads.saturating_sub(1) as u64
                );
                println!(
                    "# {:>7} | {:>6} | {:>7} | {:>15} | {:>13} | {:>14} | {:>8}",
                    queries,
                    shards,
                    threads.max(1),
                    merged.report.detector_frames,
                    merged.report.detector_calls,
                    merged.physical_detector_calls,
                    merged.shard_overhead_calls()
                );
            }
        }
    }

    // The batching acceptance numbers: a detector group is one physical call
    // however many shards its frames span, so the affine
    // `per_call + per_frame × n` model bills every layout the same.  (Under
    // per-shard batching — the `per_shard` rows of `BENCH_sharded.json` — the
    // bill grew with the shard count: 3534 modelled units at 8 shards against
    // 1518 here.)
    println!(
        "\n# batched_detect modelled cost (GPU-shaped model: per_call 32, per_frame 1; 8 queries)"
    );
    println!("# shards | physical calls | physical frames | modelled cost");
    let (_, unsharded_calls, unsharded_frames, unsharded_cost) =
        run_engine_batched(&dataset, &truth, 1, 8, budget);
    for &shards in &SHARD_COUNTS {
        let (merged, calls, frames, cost) = run_engine_batched(&dataset, &truth, shards, 8, budget);
        assert_eq!(calls, merged.physical_detector_calls);
        assert_eq!(calls, merged.report.detector_calls);
        assert_eq!(
            (calls, frames, cost),
            (unsharded_calls, unsharded_frames, unsharded_cost),
            "{shards} shards: the physical bill must not depend on the layout"
        );
        println!("# {shards:>6} | {calls:>14} | {frames:>15} | {cost:>13}");
    }

    // Fault machinery is bitwise-invisible when nothing fails: the guarded
    // run matches the plain run frame for frame, with zero fault counters.
    for &shards in &SHARD_COUNTS {
        let plain = run_engine(&dataset, &detector, shards, 0, 8, budget);
        let guarded = run_engine_guarded(&dataset, &truth, shards, 8, budget);
        assert_eq!(guarded.report.detector_frames, plain.report.detector_frames);
        assert_eq!(guarded.report.detector_calls, plain.report.detector_calls);
        assert_eq!(
            guarded.physical_detector_calls,
            plain.physical_detector_calls
        );
        assert_eq!(guarded.report.detect_retries, 0);
        assert_eq!(guarded.report.failed_frames, 0);
    }

    // Cache count-invariance: cached engine runs are logically identical
    // across worker-thread counts (report and cache accounting alike), and
    // the cache changes only the detector bill — never any query's outcome.
    let uncached = run_engine_warm(&warm, &warm_detector, 0, 0, budget);
    let cached_serial = run_engine_warm(&warm, &warm_detector, 0, 4_096, budget);
    assert!(cached_serial.report.cache.hits > 0, "warm runs must hit");
    assert!(
        cached_serial.report.cache.misses > 0,
        "cold fills must miss"
    );
    assert_same_outcomes("cached vs uncached", &cached_serial, &uncached);
    assert!(
        cached_serial.report.detector_frames < uncached.report.detector_frames,
        "cache hits must shrink the detector bill"
    );
    for threads in [2usize, 4] {
        let parallel = run_engine_warm(&warm, &warm_detector, threads, 4_096, budget);
        assert_same_outcomes(
            &format!("cached, {threads} threads"),
            &parallel,
            &cached_serial,
        );
        assert_eq!(
            parallel.report.cache, cached_serial.report.cache,
            "{threads} threads: cache accounting"
        );
        assert_eq!(
            parallel.report.detector_frames,
            cached_serial.report.detector_frames
        );
        assert_eq!(
            parallel.report.detector_calls,
            cached_serial.report.detector_calls
        );
    }
    println!("\n# cache_contention telemetry (8 warm queries, cache capacity 4096)");
    println!(
        "# cached: hits {} | misses {} | evictions {} | detector frames {} (uncached {})",
        cached_serial.report.cache.hits,
        cached_serial.report.cache.misses,
        cached_serial.report.cache.evictions,
        cached_serial.report.detector_frames,
        uncached.report.detector_frames,
    );
}

criterion_group!(benches, bench_sharded);
criterion_main!(benches);
