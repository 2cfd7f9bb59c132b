//! `dashcam_gpu`: the paper's regime, a detector that costs real time.

use super::engine_case::{run_analog, AnalogCase};
use super::{CheckError, Ctx, Iteration};
use crate::probes::DetectorCost;
use exsample_data::datasets::dashcam;

/// The dashcam analog's seven class queries, each with its own sleeping
/// detector.
pub fn run(ctx: &Ctx) -> Result<Iteration, CheckError> {
    run_analog(
        ctx,
        &AnalogCase {
            spec: dashcam,
            scale: 0.2,
            recall: 0.5,
            cost: DetectorCost::GPU,
            check_reference: true,
        },
    )
}
