//! The five workloads.  Each is one function that, given a seed, builds its
//! inputs (set-up), runs its timed region as a closed loop (one client thread,
//! every query registered up front), checks the outputs and returns the
//! iteration's measurements.

mod bdd1k_multi;
mod dashcam_gpu;
mod durable_requery;
mod engine_case;
pub mod fig5_sweep;
mod requery_cached;

use crate::metrics::Ledger;
use crate::trace::Probe;
use exsample_data::Dataset;
use exsample_detect::{InstanceId, ObjectClass};
use exsample_engine::{SelectionTelemetry, TrajectoryPoint};
use std::collections::HashSet;
use std::path::Path;

/// What one iteration is given.
pub struct Ctx<'a> {
    /// Seed of this iteration; every dataset and query seed derives from it.
    pub seed: u64,
    /// Where to record spans, when the iteration is traced.  Spans hang under
    /// the iteration's root span.
    pub probe: Option<Probe<'a>>,
    /// A directory inside the checkout that the iteration may write to.
    pub scratch: &'a Path,
}

/// What one iteration measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Iteration {
    /// Dataset generation plus detector, router, engine and query
    /// construction, before the timed region.
    pub setup_s: f64,
    /// The timed region: first query registered to last query at its stop
    /// condition.
    pub wall_s: f64,
    /// Frames run through detectors in the timed region.
    pub detector_frames: u64,
    /// Geometric mean over queries of the frames random sampling needs to
    /// find what ExSample found, divided by the frames ExSample needed.
    pub savings_vs_random: f64,
    /// Queries attempted in the timed region.
    pub attempted: u64,
    /// Queries that stopped for any reason other than reaching their target.
    pub failed: u64,
    /// Layer measurements; only the counts are filled in when untraced.
    pub ledger: Ledger,
}

/// A failed correctness check: fails the run, not just a metric.
pub type CheckError = String;

/// The recall target of `class` on `dataset`, counted independently of the
/// engine from the ground truth.
fn recall_target(dataset: &Dataset, class: &ObjectClass, recall: f64) -> usize {
    (recall * dataset.instance_count(class) as f64).ceil() as usize
}

/// Check that `found` are distinct members of the class's ground truth, and
/// return how many they are.
fn found_in_truth(
    dataset: &Dataset,
    class: &ObjectClass,
    found: &[InstanceId],
) -> Result<usize, CheckError> {
    let truth: HashSet<InstanceId> = dataset
        .ground_truth()
        .of_class(class)
        .map(|instance| instance.id())
        .collect();
    let distinct: HashSet<InstanceId> = found.iter().copied().collect();
    if distinct.len() != found.len() || !distinct.is_subset(&truth) {
        return Err(format!(
            "query {class}: found instances are not distinct members of the class's ground truth"
        ));
    }
    Ok(distinct.len())
}

impl Ledger {
    /// Add what one finished ExSample query tells about the sampler.
    fn add_query(
        &mut self,
        frames_processed: u64,
        trajectory: &[TrajectoryPoint],
        selection: Option<SelectionTelemetry>,
    ) {
        self.processed_frames += frames_processed as f64;
        // One trajectory point per new instance: the frames that yielded at
        // least one are the distinct frame counts among them.
        let mut hit_frames: Vec<u64> = trajectory.iter().map(|p| p.frames).collect();
        hit_frames.dedup();
        self.hit_frames += hit_frames.len() as f64;
        if let Some(selection) = selection {
            self.class_max_picks += selection.class_max_picks as f64;
            self.selection_picks += (selection.class_max_picks + selection.per_chunk_picks) as f64;
        }
    }
}

/// One benchmark workload.
pub struct Workload {
    pub name: &'static str,
    /// One line on why the workload exists.
    pub why: &'static str,
    /// Iterations (derived seeds) in one cycle of a run.  Sized so that a
    /// cycle takes 11 to 13 s on the 2-core reference host and so that the
    /// median over the cycle is steady from one `--seed` to the next.
    pub iterations: u32,
    /// Iterations per cycle under `--quick`.
    pub quick_iterations: u32,
    pub run: fn(&Ctx) -> Result<Iteration, CheckError>,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const ALL: [Workload; 5] = [
    Workload {
        name: "fig5_sweep",
        why: "The shipped reproduction path: 43 class queries x {ExSample, random} at batch 1 via QueryRunner, free detector. CPU-bound: PICK, exsample-sim and per-stage engine overhead do all the work.",
        iterations: 5,
        quick_iterations: 1,
        run: fig5_sweep::run,
    },
    Workload {
        name: "dashcam_gpu",
        why: "The paper's regime: 7 concurrent queries, 4 shards, 2 lanes, detector sleeping 0.2 ms/call + 0.1 ms/frame. DETECT is >95% of wall: only fewer frames or calls, or more overlap, can move it.",
        iterations: 20,
        quick_iterations: 2,
        run: dashcam_gpu::run,
    },
    Workload {
        name: "bdd1k_multi",
        why: "Same pool, router and fan-out as dashcam_gpu, but 1000 chunks and a free detector: PICK and per-stage dispatch dominate, so a change that taxes cheap stages shows here.",
        iterations: 12,
        quick_iterations: 2,
        run: bdd1k_multi::run,
    },
    Workload {
        name: "requery_cached",
        why: "8 queries re-demand one detector's frames; working set larger than the 8192-entry cache. The only workload where coalescing, cache probe/commit and eviction decide frames and wall.",
        iterations: 8,
        quick_iterations: 2,
        run: requery_cached::run,
    },
    Workload {
        name: "durable_requery",
        why: "Writes beside reads: checkpointed cold run, recovery, warm-started run. One fsynced commit per frame makes exsample-store ~99% of wall; shows whether warm start pays in frames.",
        // Few seeds, repeated over several cycles: frames to recall barely
        // vary here, the disk's fsync latency does.
        iterations: 4,
        quick_iterations: 2,
        run: durable_requery::run,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}
