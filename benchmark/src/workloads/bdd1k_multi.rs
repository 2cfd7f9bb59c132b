//! `bdd1k_multi`: the engine's own cost per frame, with a detector that is
//! nearly free.

use super::engine_case::{run_analog, AnalogCase};
use super::{CheckError, Ctx, Iteration};
use crate::probes::DetectorCost;
use exsample_data::datasets::bdd1k;

/// The BDD-1k analog at full scale (1000 chunks) and its eight class queries.
/// No reference run: it would double a CPU-bound iteration, and `dashcam_gpu`
/// already holds the same engine shape to the reference.
pub fn run(ctx: &Ctx) -> Result<Iteration, CheckError> {
    run_analog(
        ctx,
        &AnalogCase {
            spec: bdd1k,
            scale: 1.0,
            recall: 0.5,
            cost: DetectorCost::FREE,
            check_reference: false,
        },
    )
}
