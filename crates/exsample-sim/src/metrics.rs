//! Recall-trajectory lookups.
//!
//! The evaluation compares methods by the frames each needs to reach a given
//! number of results or recall level (Figures 3 and 5); these are the
//! trajectory lookups that comparison is built from.

use crate::runner::TrajectoryPoint;

/// Frames needed by a trajectory to reach `count` found instances, or `None`.
pub fn frames_to_count(trajectory: &[TrajectoryPoint], count: usize) -> Option<u64> {
    if count == 0 {
        return Some(0);
    }
    trajectory
        .iter()
        .find(|p| p.found >= count)
        .map(|p| p.frames)
}

/// The number of instances a trajectory had found after `frames` samples.
pub fn found_at(trajectory: &[TrajectoryPoint], frames: u64) -> usize {
    trajectory
        .iter()
        .take_while(|p| p.frames <= frames)
        .last()
        .map_or(0, |p| p.found)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trajectory(points: &[(u64, usize)]) -> Vec<TrajectoryPoint> {
        points
            .iter()
            .map(|&(frames, found)| TrajectoryPoint { frames, found })
            .collect()
    }

    #[test]
    fn frames_to_count_finds_first_crossing() {
        let t = trajectory(&[(5, 1), (20, 2), (100, 3)]);
        assert_eq!(frames_to_count(&t, 0), Some(0));
        assert_eq!(frames_to_count(&t, 1), Some(5));
        assert_eq!(frames_to_count(&t, 3), Some(100));
        assert_eq!(frames_to_count(&t, 4), None);
    }

    #[test]
    fn found_at_interpolates_step_function() {
        let t = trajectory(&[(5, 1), (20, 2)]);
        assert_eq!(found_at(&t, 4), 0);
        assert_eq!(found_at(&t, 5), 1);
        assert_eq!(found_at(&t, 19), 1);
        assert_eq!(found_at(&t, 1_000), 2);
    }
}
