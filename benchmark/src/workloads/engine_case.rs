//! What the three `QueryEngine` workloads share: building and running a
//! multi-query engine behind the timing decorators, the correctness checks on
//! its report, the random-sampling baseline and the ledger read from spans.

use super::{found_in_truth, recall_target, CheckError, Ctx, Iteration};
use crate::metrics::Ledger;
use crate::probes::{DetectorCost, SleepingDetector, TimedDiscriminator, TimedPolicy};
use crate::stats::{derive_seed, geometric_mean};
use crate::trace::{self_time_ns, Probe, Span, SpanStats};
use exsample_core::ExSampleConfig;
use exsample_data::datasets::{DatasetAnalog, DatasetSpec};
use exsample_data::Dataset;
use exsample_detect::{ObjectClass, PerfectDetector};
use exsample_engine::{
    EngineReport, ExSamplePolicy, ExecutionMode, QueryEngine, QueryReport, QuerySpec,
    SamplingPolicy, ShardRouter, ShardedReport, StopReason,
};
use exsample_sim::{MethodKind, QueryRunner, StopCondition};
use exsample_track::OracleDiscriminator;
use std::sync::Arc;
use std::time::Instant;

/// When a query is done.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// After finding this many distinct ground-truth instances.
    Found(usize),
    /// After paying for this many frames.
    Budget(u64),
}

/// One query of a case.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    pub class: ObjectClass,
    /// Index into the case's detector classes; queries naming the same index
    /// share one detector instance and so coalesce.
    pub detector: usize,
    pub seed: u64,
    pub stop: Stop,
}

/// The engine configuration of a case.  Every engine knob not named here
/// stays at its default, so a change of a default moves the numbers.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub shards: u32,
    /// Engine threads; 1 is the engine's default serial execution.
    pub threads: usize,
    /// Detections-cache capacity; 0 leaves the cache off.
    pub cache: usize,
    pub batch: usize,
}

impl Shape {
    /// The unsharded, serial, uncached engine: the reference every other
    /// configuration must agree with.
    pub fn reference(batch: usize) -> Shape {
        Shape {
            shards: 1,
            threads: 1,
            cache: 0,
            batch,
        }
    }
}

/// One finished engine run.
pub struct CaseRun {
    /// Detector, router, engine and query construction.
    pub construct_s: f64,
    /// First query registered to merged report in hand.
    pub wall_s: f64,
    pub merge_s: f64,
    pub sharded: ShardedReport,
}

impl CaseRun {
    pub fn report(&self) -> &EngineReport {
        &self.sharded.report
    }
}

fn engine_error(error: impl std::fmt::Display) -> CheckError {
    format!("engine refused the workload: {error}")
}

/// Build and run one engine over `dataset`.  With a probe, every seam is
/// wrapped in its timing decorator and the run is recorded as an
/// `exsample-engine.run` span with the layers' spans beneath it.
pub fn run_case(
    dataset: &Dataset,
    plans: &[QueryPlan],
    detector_classes: &[ObjectClass],
    cost: DetectorCost,
    shape: Shape,
    probe: Option<Probe>,
) -> Result<CaseRun, CheckError> {
    let construct = Instant::now();
    let run_id = probe.map(|p| p.tracer.reserve());
    let inside = probe.zip(run_id).map(|(p, id)| p.under(id));

    let detectors: Vec<SleepingDetector<PerfectDetector>> = detector_classes
        .iter()
        .map(|class| {
            let truth = Arc::clone(dataset.ground_truth());
            SleepingDetector::new(PerfectDetector::new(truth, class.clone()), cost, inside)
        })
        .collect();
    let mut engine = QueryEngine::new();
    if shape.shards > 1 {
        engine = engine.sharded(ShardRouter::contiguous(dataset.chunking(), shape.shards));
    }
    if shape.threads > 1 {
        engine = engine
            .execution(ExecutionMode::Parallel(shape.threads))
            .map_err(engine_error)?;
    }
    if shape.cache > 0 {
        engine = engine.cache_capacity(shape.cache);
    }
    let specs: Vec<QuerySpec> = plans
        .iter()
        .map(|plan| {
            let policy: Box<dyn SamplingPolicy> = Box::new(ExSamplePolicy::new(
                ExSampleConfig::default(),
                dataset.chunking(),
            ));
            let policy: Box<dyn SamplingPolicy> = match inside {
                Some(p) => Box::new(TimedPolicy::new(policy, p)),
                None => policy,
            };
            let mut spec = QuerySpec::new(plan.class.name(), policy, &detectors[plan.detector])
                .seed(plan.seed)
                .batch(shape.batch);
            if let Some(p) = inside {
                // The engine's default discriminator, wrapped.
                spec = spec.discriminator(Box::new(TimedDiscriminator::new(
                    OracleDiscriminator::new(),
                    p,
                )));
            }
            match plan.stop {
                Stop::Found(count) => spec.true_limit(count),
                Stop::Budget(frames) => spec.frame_budget(frames),
            }
        })
        .collect();
    let construct_s = construct.elapsed().as_secs_f64();

    let timed = Instant::now();
    let run_start = probe.map(|p| p.tracer.now_ns());
    for spec in specs {
        engine.push(spec).map_err(engine_error)?;
    }
    let report = engine.run().map_err(engine_error)?;
    if let (Some(p), Some(id), Some(start)) = (probe, run_id, run_start) {
        let end = p.tracer.now_ns();
        p.tracer.record(Span {
            id,
            parent: p.at.parent,
            rep: p.at.rep,
            name: "exsample-engine.run",
            start_ns: start,
            end_ns: end,
            count: report.stages,
            busy_ns: end - start,
        });
    }
    let merge = Instant::now();
    let merge_start = probe.map(|p| p.tracer.now_ns());
    let sharded = engine.report_sharded();
    if let (Some(p), Some(start)) = (probe, merge_start) {
        p.tracer.push(
            p.at,
            "exsample-engine.merge",
            start,
            p.tracer.now_ns(),
            sharded.shards.len() as u64,
        );
    }
    let merge_s = merge.elapsed().as_secs_f64();
    let wall_s = timed.elapsed().as_secs_f64();
    // Dropping the engine drops the query decorators, which flushes their
    // last folded spans.
    drop(engine);

    // The decorators' own tallies must agree with what the engine reports.
    let seen_frames: u64 = detectors.iter().map(SleepingDetector::frames).sum();
    let seen_calls: u64 = detectors.iter().map(SleepingDetector::calls).sum();
    if seen_frames != sharded.report.detector_frames
        || report.detector_frames != sharded.report.detector_frames
    {
        return Err(format!(
            "detectors saw {seen_frames} frames, the run reports {}, the merged report {}",
            report.detector_frames, sharded.report.detector_frames
        ));
    }
    if seen_calls != sharded.physical_detector_calls {
        return Err(format!(
            "detectors saw {seen_calls} calls, the merged report says {}",
            sharded.physical_detector_calls
        ));
    }
    Ok(CaseRun {
        construct_s,
        wall_s,
        merge_s,
        sharded,
    })
}

/// Check every query's outcome against its plan and the ground truth, and
/// return how many queries stopped for another reason than reaching their
/// target.
pub fn check_outcomes(
    dataset: &Dataset,
    plans: &[QueryPlan],
    report: &EngineReport,
) -> Result<u64, CheckError> {
    if report.outcomes.len() != plans.len() {
        return Err(format!(
            "{} queries registered, {} reported",
            plans.len(),
            report.outcomes.len()
        ));
    }
    let mut failed = 0;
    for (plan, outcome) in plans.iter().zip(&report.outcomes) {
        let found = found_in_truth(dataset, &plan.class, &outcome.found_instances)?;
        if found != outcome.true_found {
            return Err(format!(
                "query {}: {} instances listed, {found} reported found",
                outcome.label, outcome.true_found
            ));
        }
        let reached = match plan.stop {
            Stop::Found(count) => {
                outcome.stop_reason == Some(StopReason::ResultLimitReached)
                    && outcome.true_found >= count
            }
            Stop::Budget(frames) => {
                outcome.stop_reason == Some(StopReason::FrameBudgetExhausted)
                    && outcome.frames_processed == frames
            }
        };
        if !reached {
            failed += 1;
        }
    }
    Ok(failed)
}

/// Require two runs of the same plans to have found the same things in the
/// same number of frames: execution configuration must never change outcomes.
pub fn same_outcomes(what: &str, a: &EngineReport, b: &EngineReport) -> Result<(), CheckError> {
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        if x.frames_processed != y.frames_processed || x.found_instances != y.found_instances {
            return Err(format!(
                "query {} differs from the {what}: {} frames and {} instances against {} and {}",
                x.label, x.frames_processed, x.true_found, y.frames_processed, y.true_found
            ));
        }
    }
    Ok(())
}

/// Frames `outcome` had paid for when it found its `count`-th instance.
fn frames_to_count(outcome: &QueryReport, count: usize) -> Option<u64> {
    outcome
        .trajectory
        .iter()
        .find(|point| point.found >= count)
        .map(|point| point.frames)
}

/// The recall at which a budgeted query is compared with random sampling.
/// The budgets of `requery_cached` nearly exhaust the class, which leaves the
/// last few instances to luck for both samplers, and the first few are found
/// in a handful of frames; in between, at 0.8, the ratio of one dataset
/// spreads by 9 % where at 0.5 or 0.95 it spreads by 25 %.
const BUDGETED_COMPARISON_RECALL: f64 = 0.8;

/// The random-sampling baseline of a finished case.
pub struct Baseline {
    /// Geometric mean over queries of random frames ÷ ExSample frames to the
    /// same number of found instances.
    pub savings: f64,
    pub random_s: f64,
    pub random_frames: u64,
}

/// Run uniform random sampling (batch 1, free detector) for every query of
/// the case until it has found as many instances as the query's target (for a
/// budgeted query: [`BUDGETED_COMPARISON_RECALL`] of the class, or what ExSample
/// found if that is less), and compare frames.
pub fn random_baseline(
    dataset: &Dataset,
    plans: &[QueryPlan],
    report: &EngineReport,
    seed: u64,
    probe: Option<Probe>,
) -> Result<Baseline, CheckError> {
    let mut ratios = Vec::new();
    let mut random_s = 0.0;
    let mut random_frames = 0;
    for (index, (plan, outcome)) in plans.iter().zip(&report.outcomes).enumerate() {
        let count = match plan.stop {
            Stop::Found(count) => count,
            Stop::Budget(_) => outcome.true_found.min(recall_target(
                dataset,
                &plan.class,
                BUDGETED_COMPARISON_RECALL,
            )),
        };
        let Some(exsample_frames) = frames_to_count(outcome, count).filter(|_| count > 0) else {
            continue;
        };
        let start = Instant::now();
        let start_ns = probe.map(|p| p.tracer.now_ns());
        let random = QueryRunner::new(dataset)
            .class(plan.class.clone())
            .stop(StopCondition::DistinctResults(count))
            .frame_cap(dataset.total_frames())
            .seed(derive_seed(seed, "random", index as u64))
            .run(MethodKind::Random)
            .map_err(|e| format!("random baseline failed: {e}"))?;
        random_s += start.elapsed().as_secs_f64();
        if let (Some(p), Some(start_ns)) = (probe, start_ns) {
            p.tracer.push(
                p.at,
                "exsample-sim.random",
                start_ns,
                p.tracer.now_ns(),
                random.frames_processed,
            );
        }
        random_frames += random.frames_processed;
        let frames = random
            .frames_to_count(count)
            .ok_or_else(|| format!("random sampling never found {count} of {}", plan.class))?;
        ratios.push(frames as f64 / exsample_frames as f64);
    }
    if ratios.is_empty() {
        return Err("no query found anything to compare with random sampling".to_string());
    }
    Ok(Baseline {
        savings: geometric_mean(&ratios),
        random_s,
        random_frames,
    })
}

/// Assemble the iteration's measurements from its timed run, its checks and
/// its baseline.
pub fn finish(
    ctx: &Ctx,
    generate_s: f64,
    run: &CaseRun,
    failed: u64,
    baseline: &Baseline,
) -> Iteration {
    let mut ledger = count_ledger(run);
    ledger.generate_s = generate_s;
    ledger.sim_random_s = baseline.random_s;
    ledger.sim_random_frames = baseline.random_frames as f64;
    if let Some(probe) = ctx.probe {
        add_span_times(&mut ledger, &probe.tracer.spans_of(probe.at.rep));
    }
    Iteration {
        setup_s: generate_s + run.construct_s,
        wall_s: run.wall_s,
        detector_frames: run.report().detector_frames,
        savings_vs_random: baseline.savings,
        attempted: run.report().outcomes.len() as u64,
        failed,
        ledger,
    }
}

/// What the two dataset-analog workloads share: every class of the analog is
/// one query to `recall`, with a detector of its own, all concurrent in one
/// engine of 4 shards and 2 lanes at batch 16.
pub struct AnalogCase {
    pub spec: fn() -> DatasetSpec,
    pub scale: f64,
    pub recall: f64,
    pub cost: DetectorCost,
    /// Also run the plans on the serial, unsharded, free-detector engine and
    /// require the same outcomes.
    pub check_reference: bool,
}

const ANALOG_SHAPE: Shape = Shape {
    shards: 4,
    threads: 2,
    cache: 0,
    batch: 16,
};

pub fn run_analog(ctx: &Ctx, case: &AnalogCase) -> Result<Iteration, CheckError> {
    let generate = Instant::now();
    let dataset = DatasetAnalog::new((case.spec)(), derive_seed(ctx.seed, "dataset", 0))
        .with_scale(case.scale)
        .generate();
    let generate_s = generate.elapsed().as_secs_f64();
    let classes = dataset.classes();
    let plans: Vec<QueryPlan> = classes
        .iter()
        .enumerate()
        .map(|(i, class)| QueryPlan {
            class: class.clone(),
            detector: i,
            seed: derive_seed(ctx.seed, "query", i as u64),
            stop: Stop::Found(recall_target(&dataset, class, case.recall)),
        })
        .collect();

    let run = run_case(
        &dataset,
        &plans,
        &classes,
        case.cost,
        ANALOG_SHAPE,
        ctx.probe,
    )?;
    let failed = check_outcomes(&dataset, &plans, run.report())?;
    if case.check_reference {
        // Sharding, lanes and the detector's cost may change when work
        // happens, never what a query finds.
        let reference = run_case(
            &dataset,
            &plans,
            &classes,
            DetectorCost::FREE,
            Shape::reference(ANALOG_SHAPE.batch),
            None,
        )?;
        same_outcomes(
            "serial unsharded free-detector reference",
            run.report(),
            reference.report(),
        )?;
    }
    let baseline = random_baseline(&dataset, &plans, run.report(), ctx.seed, ctx.probe)?;
    Ok(finish(ctx, generate_s, &run, failed, &baseline))
}

/// Counts every engine iteration knows without tracing.
fn count_ledger(run: &CaseRun) -> Ledger {
    let report = run.report();
    let mut ledger = Ledger {
        iterations: 1.0,
        stages: report.stages as f64,
        demanded_frames: report.demanded_frames as f64,
        engine_detector_frames: report.detector_frames as f64,
        detect_frames: report.detector_frames as f64,
        logical_calls: report.detector_calls as f64,
        physical_calls: run.sharded.physical_detector_calls as f64,
        detect_calls: run.sharded.physical_detector_calls as f64,
        cache_hits: report.cache.hits as f64,
        cache_misses: report.cache.misses as f64,
        cache_evictions: report.cache.evictions as f64,
        merge_s: run.merge_s,
        ..Ledger::default()
    };
    for outcome in &report.outcomes {
        ledger.add_query(
            outcome.frames_processed,
            &outcome.trajectory,
            outcome.selection,
        );
    }
    ledger
}

/// Add the times read from the spans of a traced engine iteration.
fn add_span_times(ledger: &mut Ledger, spans: &[Span]) {
    let stats = SpanStats(spans);
    ledger.pick_s = stats.busy_s("exsample-core.pick");
    ledger.pick_calls = stats.spans("exsample-core.pick") as f64;
    ledger.picked_frames = stats.count("exsample-core.pick") as f64;
    ledger.record_s = stats.busy_s("exsample-core.record");
    ledger.observe_s = stats.busy_s("exsample-track.observe");
    ledger.observe_calls = stats.count("exsample-track.observe") as f64;
    ledger.detect_busy_s = stats.busy_s("exsample-detect.call");
    ledger.detect_union_s = stats.union_s("exsample-detect.call");
    ledger.detect_inner_s = stats.busy_s("exsample-detect.inner");
    if let Some(run) = spans.iter().find(|s| s.name == "exsample-engine.run") {
        // PICK and DETECT spans are subtracted as intervals (two lanes in
        // flight count once).  `record` and `observe` are folded per stage,
        // so their covered time is their busy time; they run on the
        // coordinator during fan-out and never overlap PICK or DETECT.
        let mut children = stats.intervals("exsample-core.pick");
        children.extend(stats.intervals("exsample-detect.call"));
        let outside_seams = self_time_ns((run.start_ns, run.end_ns), &children) as f64 / 1e9;
        ledger.engine_run_s = run.busy_ns as f64 / 1e9;
        ledger.engine_self_s = (outside_seams - ledger.record_s - ledger.observe_s).max(0.0);
    }
}
