//! Virtual time accounting.
//!
//! The paper's time numbers are derived from two measured throughputs (Section
//! V-B): scanning/scoring at ~100 fps (io + decode bound) and sampled processing at
//! ~20 fps (object-detector bound).  `VirtualClock` charges those costs as a run
//! progresses so that "frames processed" can be reported as wall-clock/GPU time the
//! way Table I and Figure 5 do.

use exsample_video::DecodeCostModel;

/// Accumulates virtual seconds spent scanning and processing sampled frames.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct VirtualClock {
    cost: DecodeCostModel,
    scan_secs: f64,
    sample_secs: f64,
}

impl VirtualClock {
    /// A clock using the paper's measured throughputs.
    pub(crate) fn paper() -> Self {
        VirtualClock {
            cost: DecodeCostModel::paper(),
            scan_secs: 0.0,
            sample_secs: 0.0,
        }
    }

    /// Charge a sequential scan / proxy-scoring pass over `frames` frames.
    pub(crate) fn charge_scan(&mut self, frames: u64) {
        self.scan_secs += self.cost.scan_secs(frames);
    }

    /// Charge the full sampled-processing cost (random-access decode + detector)
    /// for `frames` frames.
    pub(crate) fn charge_sampled(&mut self, frames: u64) {
        self.sample_secs += self.cost.sampled_processing_secs(frames);
    }

    /// Seconds spent scanning so far.
    pub(crate) fn scan_secs(&self) -> f64 {
        self.scan_secs
    }

    /// Seconds spent on sampled processing so far.
    pub(crate) fn sample_secs(&self) -> f64 {
        self.sample_secs
    }
}

/// Format a duration in seconds the way the paper's Table I does: `"18s"`,
/// `"1m37s"`, `"2h58m"`, `"9h50m"`.
pub fn format_duration(secs: f64) -> String {
    if !secs.is_finite() || secs < 0.0 {
        return "-".to_string();
    }
    let total = secs.round() as u64;
    let hours = total / 3600;
    let minutes = (total % 3600) / 60;
    let seconds = total % 60;
    if hours > 0 {
        format!("{hours}h{minutes}m")
    } else if minutes > 0 {
        format!("{minutes}m{seconds}s")
    } else {
        format!("{seconds}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_match_cost_model() {
        let mut clock = VirtualClock::paper();
        clock.charge_scan(1_000);
        clock.charge_sampled(100);
        assert!((clock.scan_secs() - 10.0).abs() < 1e-9);
        assert!((clock.sample_secs() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn scan_of_a_twenty_hour_dataset_takes_hours() {
        // 20 hours of 30 fps video = 2.16M frames; at 100 fps the scan is six hours,
        // the same order as Table I's 9h50m for amsterdam (which also includes
        // per-frame scoring overheads we fold into the single scan rate).
        let mut clock = VirtualClock::paper();
        clock.charge_scan(2_160_000);
        assert!(clock.scan_secs() / 3600.0 > 5.0);
    }

    #[test]
    fn duration_formatting_matches_paper_style() {
        assert_eq!(format_duration(18.0), "18s");
        assert_eq!(format_duration(97.0), "1m37s");
        assert_eq!(format_duration(54.0 * 60.0), "54m0s");
        assert_eq!(format_duration(2.0 * 3600.0 + 58.0 * 60.0), "2h58m");
        assert_eq!(format_duration(9.0 * 3600.0 + 50.0 * 60.0), "9h50m");
        assert_eq!(format_duration(0.4), "0s");
    }

    #[test]
    fn non_finite_durations_render_as_dash() {
        assert_eq!(format_duration(f64::NAN), "-");
        assert_eq!(format_duration(f64::INFINITY), "-");
        assert_eq!(format_duration(-5.0), "-");
    }
}
