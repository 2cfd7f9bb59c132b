//! Engine quickstart: run several concurrent distinct-object queries over one
//! shared video repository with the batched multi-query engine.
//!
//! ```bash
//! cargo run --release --example engine_quickstart
//! ```
//!
//! Three queries — ExSample, uniform random, and `random+` — execute together
//! in staged pick → detect → fan-out pipelines.  Frames that several queries
//! request in the same stage are run through the detector once and the result
//! is shared (coalescing), which is where a multi-query deployment saves real
//! detector time.  The same run is then repeated with a 2-shard report view —
//! the chunk axis split into two contiguous ranges — to show that a shard
//! router only says *whose* detector work it was (the per-shard breakdown),
//! changing neither a query outcome nor the number of detector invocations,
//! and once more with each stage's batches cut over two lanes of the run's
//! worker pool (`ExecutionMode::Parallel`), which changes nothing but where
//! the batches are cut.

use exsample::core::ExSampleConfig;
use exsample::data::{Dataset, GridWorkload, SkewLevel};
use exsample::detect::PerfectDetector;
use exsample::engine::{
    ExSamplePolicy, ExecutionMode, FrameSamplerPolicy, QueryEngine, QuerySpec, ShardRouter,
};
use exsample::video::ShardSpec;
use std::sync::Arc;

/// Register the example's three concurrent queries on `engine`.
fn push_queries<'a>(
    engine: &mut QueryEngine<'a>,
    dataset: &'a Dataset,
    detector: &'a PerfectDetector,
    limit: usize,
    budget: u64,
) {
    engine
        .push(
            QuerySpec::new(
                "exsample",
                Box::new(ExSamplePolicy::new(
                    ExSampleConfig::default(),
                    dataset.chunking(),
                )),
                detector,
            )
            .seed(7)
            .batch(16)
            .result_limit(limit)
            .frame_budget(budget),
        )
        .expect("valid spec");
    engine
        .push(
            QuerySpec::new(
                "random",
                Box::new(FrameSamplerPolicy::uniform(dataset.total_frames())),
                detector,
            )
            .seed(8)
            .batch(16)
            .result_limit(limit)
            .frame_budget(budget),
        )
        .expect("valid spec");
    engine
        .push(
            QuerySpec::new(
                "random+",
                Box::new(FrameSamplerPolicy::random_plus(dataset.total_frames())),
                detector,
            )
            .seed(9)
            .batch(16)
            .result_limit(limit)
            .frame_budget(budget),
        )
        .expect("valid spec");
}

fn main() {
    // 1. A synthetic repository: 60k frames, 16 chunks, instances skewed
    //    toward one part of the dataset.
    let dataset = GridWorkload::builder()
        .frames(60_000)
        .instances(200)
        .chunks(16)
        .mean_duration(120.0)
        .skew(SkewLevel::ThirtySecond)
        .seed(42)
        .build()
        .expect("valid workload")
        .generate();
    let detector = PerfectDetector::new(Arc::clone(dataset.ground_truth()), GridWorkload::class());
    println!(
        "repository: {} frames, {} chunks, {} instances of `{}`",
        dataset.total_frames(),
        dataset.chunking().len(),
        dataset.instance_count(&GridWorkload::class()),
        GridWorkload::class()
    );

    // 2. Three concurrent queries, each with its own sampling policy, budget
    //    and private RNG stream, all sharing the repository and detector.
    let budget = 2_000u64;
    let limit = 40usize;
    let mut engine = QueryEngine::new();
    push_queries(&mut engine, &dataset, &detector, limit, budget);

    // 3. One run executes all queries to completion in shared stages.
    let report = engine.run().expect("queries registered");

    println!("\nquery: find {limit} distinct objects (budget {budget} frames each)");
    for q in &report.outcomes {
        println!(
            "  {:<9} processed {:>5} frames, found {:>3} distinct objects ({:?})",
            q.label,
            q.frames_processed,
            q.distinct_found,
            q.stop_reason.expect("run completed")
        );
    }
    println!(
        "\nengine: {} stages, {} frames demanded, {} run through the detector \
         ({} shared across queries by coalescing)",
        report.stages,
        report.demanded_frames,
        report.detector_frames,
        report.coalesced_savings()
    );

    // 4. The same three queries with a 2-shard report view: the chunk axis is
    //    split into two contiguous ranges, and every tally is added to the
    //    shard owning the frame it was paid for.  The view changes nothing
    //    that runs, so the report is bitwise-identical to the unsharded run
    //    and no extra detector invocation is paid — only the per-shard
    //    breakdown is new.
    let spec = ShardSpec::contiguous(dataset.chunking().len(), 2);
    let router = ShardRouter::new(dataset.chunking(), &spec).expect("spec matches chunking");
    let mut sharded = QueryEngine::new().sharded(router);
    push_queries(&mut sharded, &dataset, &detector, limit, budget);
    let _ = sharded.run().expect("queries registered");
    let merged = sharded.report_sharded();

    println!("\n2-shard run (contiguous chunk ranges):");
    for (a, b) in merged.report.outcomes.iter().zip(&report.outcomes) {
        assert_eq!(a.frames_processed, b.frames_processed);
        assert_eq!(a.found_instances, b.found_instances);
        assert_eq!(a.stop_reason, b.stop_reason);
    }
    assert_eq!(merged.report.detector_frames, report.detector_frames);
    println!("  every query outcome is bitwise-identical to the unsharded run");
    for shard in &merged.shards {
        println!(
            "  shard {}: {} detector frames, first frame of {} batched invocations",
            shard.shard, shard.detector_frames, shard.detector_calls
        );
    }
    assert_eq!(merged.shard_overhead_calls(), 0);
    println!(
        "  {} physical invocations for {} logical ones: a shard view costs no detector calls",
        merged.physical_detector_calls, merged.report.detector_calls,
    );

    // 5. The same 2-shard run with every stage's batches cut evenly over two
    //    lanes of the run's persistent worker pool.  Parallel execution
    //    reorders *work*, never results: the report — outcomes and per-shard
    //    frames alike — is bitwise-identical to the serial run; a batch cut
    //    at the lane boundary is the one physical difference.
    println!("\n2-shard run with 2 DETECT lanes:");
    let router = ShardRouter::new(dataset.chunking(), &spec).expect("spec matches chunking");
    let mut parallel = QueryEngine::new()
        .sharded(router)
        .execution(ExecutionMode::Parallel(2))
        .expect("a positive thread count is valid");
    push_queries(&mut parallel, &dataset, &detector, limit, budget);
    let _ = parallel.run().expect("queries registered");
    let parallel_merged = parallel.report_sharded();

    for (a, b) in parallel_merged
        .report
        .outcomes
        .iter()
        .zip(&merged.report.outcomes)
    {
        assert_eq!(a.frames_processed, b.frames_processed);
        assert_eq!(a.found_instances, b.found_instances);
        assert_eq!(a.trajectory, b.trajectory);
        assert_eq!(a.stop_reason, b.stop_reason);
    }
    for (a, b) in parallel_merged.shards.iter().zip(&merged.shards) {
        assert_eq!(a.detector_frames, b.detector_frames);
        assert_eq!(a.per_query, b.per_query);
    }
    assert!(
        parallel.pooled_stage_dispatches() > 0,
        "parallel stages run on the persistent pool"
    );
    println!(
        "  bitwise-identical to the serial run, down to the per-shard frames \
         ({} extra physical invocations from cutting batches at the lane boundary)",
        parallel_merged.shard_overhead_calls()
    );
}
