//! `durable_requery`: a checkpointed cold run, a recovery, and a run
//! warm-started from what the cold run persisted.

use super::{found_in_truth, recall_target, CheckError, Ctx, Iteration};
use crate::metrics::Ledger;
use crate::stats::{derive_seed, geometric_mean};
use exsample_core::ExSampleConfig;
use exsample_data::datasets::{dashcam, DatasetAnalog};
use exsample_data::Dataset;
use exsample_detect::ObjectClass;
use exsample_sim::{MethodKind, QueryRunner, RunResult, StopCondition};
use exsample_store::BeliefStore;
use std::path::Path;
use std::time::Instant;

const CLASS: &str = "traffic light";
const RECALL: f64 = 0.5;

fn runner<'a>(dataset: &'a Dataset, seed: u64) -> QueryRunner<'a> {
    QueryRunner::new(dataset)
        .class(CLASS)
        .stop(StopCondition::Recall(RECALL))
        .seed(seed)
}

fn exsample(runner: QueryRunner, what: &str) -> Result<RunResult, CheckError> {
    runner
        .run(MethodKind::ExSample(ExSampleConfig::default()))
        .map_err(|e| format!("{what} run failed: {e}"))
}

fn file_len(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}

pub fn run(ctx: &Ctx) -> Result<Iteration, CheckError> {
    let generate = Instant::now();
    let dataset = DatasetAnalog::new(dashcam(), derive_seed(ctx.seed, "dataset", 0)).generate();
    let generate_s = generate.elapsed().as_secs_f64();
    let dir = ctx.scratch.join("belief-store");
    if dir.exists() {
        std::fs::remove_dir_all(&dir)
            .map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    let cold_seed = derive_seed(ctx.seed, "cold", 0);
    let warm_seed = derive_seed(ctx.seed, "warm", 0);
    let span = |name: &'static str, start_ns: Option<u64>, count: u64| {
        if let (Some(p), Some(start_ns)) = (ctx.probe, start_ns) {
            p.tracer
                .push(p.at, name, start_ns, p.tracer.now_ns(), count);
        }
    };
    let now_ns = || ctx.probe.map(|p| p.tracer.now_ns());

    let timed = Instant::now();
    let start_ns = now_ns();
    let cold = exsample(runner(&dataset, cold_seed).checkpoint(&dir), "cold")?;
    let cold_s = timed.elapsed().as_secs_f64();
    span("exsample-sim.exsample", start_ns, cold.frames_processed);

    let recover = Instant::now();
    let start_ns = now_ns();
    let (store, recovery) =
        BeliefStore::open_dir(&dir).map_err(|e| format!("recovery failed: {e}"))?;
    let recover_s = recover.elapsed().as_secs_f64();
    span(
        "exsample-store.open_dir",
        start_ns,
        recovery.records_replayed,
    );
    // The single-writer store must be closed before the warm run reopens it.
    drop(store);

    let warm_started = Instant::now();
    let start_ns = now_ns();
    let warm = exsample(
        runner(&dataset, warm_seed)
            .checkpoint(&dir)
            .warm_start(&dir),
        "warm",
    )?;
    let warm_s = warm_started.elapsed().as_secs_f64();
    span("exsample-sim.exsample", start_ns, warm.frames_processed);
    let wall_s = timed.elapsed().as_secs_f64();

    let class = ObjectClass::from(CLASS);
    let target = recall_target(&dataset, &class, RECALL);
    let mut failed = 0;
    let mut sampler = Ledger::default();
    for run in [&cold, &warm] {
        if found_in_truth(&dataset, &class, &run.found_instances)? < target {
            failed += 1;
        }
        sampler.add_query(run.frames_processed, &run.trajectory, run.selection);
    }
    // Everything both runs observed must be in the reopened store.
    let observations = cold.frames_processed + warm.frames_processed;
    let (store, _) = BeliefStore::open_dir(&dir).map_err(|e| format!("reopen failed: {e}"))?;
    let stored: u64 = store
        .state()
        .class_id(CLASS)
        .map(|class| {
            store
                .state()
                .beliefs_for(class)
                .map(|(_, cell)| cell.samples)
                .sum()
        })
        .unwrap_or(0);
    drop(store);
    if stored != observations {
        return Err(format!(
            "the reopened store holds {stored} samples, the runs observed {observations}"
        ));
    }
    let log_bytes = file_len(&dir.join("log"));
    let snapshot_bytes = file_len(&dir.join("snapshot"));
    std::fs::remove_dir_all(&dir).map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;

    // Untimed: random sampling to the same target, and (traced only) the
    // cold run again without a checkpoint, which is the store's whole cost.
    let mut ratios = Vec::new();
    let mut random_s = 0.0;
    let mut random_frames = 0;
    for (run, label) in [(&cold, "random-cold"), (&warm, "random-warm")] {
        let start = Instant::now();
        let start_ns = now_ns();
        let random = runner(&dataset, derive_seed(ctx.seed, label, 0))
            .frame_cap(dataset.total_frames())
            .run(MethodKind::Random)
            .map_err(|e| format!("random baseline failed: {e}"))?;
        random_s += start.elapsed().as_secs_f64();
        span("exsample-sim.random", start_ns, random.frames_processed);
        random_frames += random.frames_processed;
        match (
            random.frames_to_recall(RECALL),
            run.frames_to_recall(RECALL),
        ) {
            (Some(r), Some(e)) if e > 0 => ratios.push(r as f64 / e as f64),
            _ => return Err("a run never reached the recall target".to_string()),
        }
    }
    let (mut checkpointed_run_s, mut checkpoint_overhead_s) = (0.0, 0.0);
    if ctx.probe.is_some() {
        let start = Instant::now();
        let plain = exsample(runner(&dataset, cold_seed), "un-checkpointed cold")?;
        let plain_s = start.elapsed().as_secs_f64();
        if plain.frames_processed != cold.frames_processed
            || plain.found_instances != cold.found_instances
        {
            return Err("checkpointing changed what the cold run found".to_string());
        }
        checkpointed_run_s = cold_s;
        checkpoint_overhead_s = (cold_s - plain_s).max(0.0);
    }

    let compactions = [&cold, &warm]
        .iter()
        .filter_map(|run| run.store)
        .map(|health| health.snapshot_compactions)
        .sum::<u64>();
    Ok(Iteration {
        setup_s: generate_s,
        wall_s,
        detector_frames: observations,
        savings_vs_random: geometric_mean(&ratios),
        attempted: 2,
        failed,
        ledger: Ledger {
            iterations: 1.0,
            generate_s,
            checkpointed_run_s,
            checkpoint_overhead_s,
            // Batch 1: one stage, and one commit, per frame.
            checkpointed_stages: if ctx.probe.is_some() {
                cold.frames_processed as f64
            } else {
                0.0
            },
            recover_s,
            records_replayed: recovery.records_replayed as f64,
            compactions: compactions as f64,
            log_bytes,
            snapshot_bytes,
            observations: observations as f64,
            sim_run_s: cold_s + warm_s,
            sim_runs: 2.0,
            sim_exsample_s: cold_s + warm_s,
            sim_exsample_frames: observations as f64,
            sim_random_s: random_s,
            sim_random_frames: random_frames as f64,
            ..sampler
        },
    })
}
