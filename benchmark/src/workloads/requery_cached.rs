//! `requery_cached`: many queries re-demanding one detector's frames through
//! a cache smaller than their working set.

use super::engine_case::{
    check_outcomes, finish, random_baseline, run_case, same_outcomes, QueryPlan, Shape, Stop,
};
use super::{CheckError, Ctx, Iteration};
use crate::probes::DetectorCost;
use crate::stats::derive_seed;
use exsample_data::{GridWorkload, SkewLevel};
use std::time::Instant;

const FRAMES: u64 = 20_000;
const QUERIES: u64 = 8;
/// Eight budgets of 2500 frames demand the repository's 20 000 frames once
/// over, so queries keep asking for frames another query already paid for.
const BUDGET: u64 = 2_500;
const SHAPE: Shape = Shape {
    shards: 2,
    threads: 1,
    cache: 8_192,
    batch: 16,
};

pub fn run(ctx: &Ctx) -> Result<Iteration, CheckError> {
    let generate = Instant::now();
    let dataset = GridWorkload::builder()
        .frames(FRAMES)
        .instances(100)
        .chunks(32)
        .mean_duration(40.0)
        .skew(SkewLevel::ThirtySecond)
        .seed(derive_seed(ctx.seed, "dataset", 0))
        .build()
        .map_err(|e| format!("grid workload refused: {e}"))?
        .generate();
    let generate_s = generate.elapsed().as_secs_f64();
    let class = GridWorkload::class();
    let plans: Vec<QueryPlan> = (0..QUERIES)
        .map(|i| QueryPlan {
            class: class.clone(),
            detector: 0,
            seed: derive_seed(ctx.seed, "query", i),
            stop: Stop::Budget(BUDGET),
        })
        .collect();
    let classes = [class];

    let run = run_case(
        &dataset,
        &plans,
        &classes,
        DetectorCost::GPU,
        SHAPE,
        ctx.probe,
    )?;
    let report = run.report();
    let failed = check_outcomes(&dataset, &plans, report)?;
    // The cache may only save detector work: outcomes equal the cache-off
    // run, and every frame that survives coalescing is probed exactly once.
    let uncached = run_case(
        &dataset,
        &plans,
        &classes,
        DetectorCost::FREE,
        Shape { cache: 0, ..SHAPE },
        None,
    )?;
    same_outcomes("cache-off run", report, uncached.report())?;
    let probed = report.cache.hits + report.cache.misses;
    if probed != uncached.report().detector_frames || report.cache.misses != report.detector_frames
    {
        return Err(format!(
            "cache accounting: {} hits + {} misses against {} frames after coalescing, {} detected",
            report.cache.hits,
            report.cache.misses,
            uncached.report().detector_frames,
            report.detector_frames
        ));
    }
    let baseline = random_baseline(&dataset, &plans, report, ctx.seed, ctx.probe)?;

    Ok(finish(ctx, generate_s, &run, failed, &baseline))
}
