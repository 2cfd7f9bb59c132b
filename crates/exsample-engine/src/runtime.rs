//! The persistent worker-pool execution runtime — the engine's one way of
//! running a stage's DETECT on more than one thread.
//!
//! Parallel runs use a `WorkerPool` of long-lived helper threads created
//! **once per engine run** and reused by every stage of that run; a serial
//! run never spawns one (its stage loop detects inline).  The pool is kept,
//! and kept this small, on one end-to-end measurement: 10 alternating pairs
//! of the repository benchmark (seeds 1–10, `--seconds 6`, 2-core host,
//! `detector_frames` equal in every pair) of each variant of this module
//! against the pool before it lost its completion channel, disengage
//! heuristic and thread counters.  A ratio above 1 means the variant was
//! slower; the count is the pairs in which it was faster.
//!
//! | variant | `bdd1k_multi` | `dashcam_gpu` |
//! |---|---|---|
//! | per-stage `std::thread::scope` | 1.364 (0/10) | 1.036 (0/10) |
//! | persistent pool, `mpsc` job channels, no reclaim | 1.223 (1/10) | 0.993 (8/10) |
//! | pool minus disengage/re-engage only | 0.968 (6/10) | 0.998 (6/10) |
//! | one turnstile per helper (this module) | 0.998 (5/10) | 0.996 (6/10) |
//!
//! So the persistent pool and the coordinator's reclaim both pay, on
//! `bdd1k_multi`'s cheap 528-stage runs; nothing else did.
//!
//! * **The job is a slice, not a shard.**  What crosses a thread boundary is
//!   a `Slice`: one lane's equal share of the stage's gathered detector
//!   demand — frame ids and detector references in, per-batch outcomes out.
//!   The lanes (frames, results, tallies) never leave the coordinator.
//! * **One turnstile per helper.**  [`crate::QueryEngine::run_with`] opens
//!   one `std::thread::scope` around the whole stage loop and spawns `n - 1`
//!   helpers into it; the calling thread is the `n`-th lane.  Each helper
//!   owns one `Mutex<LaneState>` + `Condvar` — the only synchronisation in
//!   the pool — and parks on the condvar between stages.
//! * **One call per stage.**  `WorkerPool::run_stage` queues slices `1..`
//!   on the helpers, runs slice 0 inline, then walks the helpers in lane
//!   order: a slice still `Ready` is reclaimed and run inline, a `Done` one
//!   is taken, a `Running` one is waited for.  Slices come back in lane
//!   order by construction.  Which side runs a slice affects wall-clock
//!   placement only, never results.
//! * **Serial on both sides.**  The cache probe and the gather that build
//!   the slices, and the scatter, the cache commit and the registration-order
//!   fan-out that consume them, all run on the coordinator in canonical
//!   order; a slice's outcome is a pure function of its frames and detectors,
//!   so pooled execution stays bitwise-identical to serial (the determinism
//!   suite pins threads {1, 2, 4}).
//! * **Clean shutdown, typed panics.**  Helpers exit when the pool is
//!   dropped — the engine guarantees this happens before the scope closes,
//!   even if a stage errors or a caller hook panics — and the scope joins
//!   every helper before `run` returns.  A detector panic inside any lane
//!   (helper *or* inline) is caught outside every lock, the slice is
//!   returned to the engine, and the stage surfaces
//!   [`EngineError::WorkerPanicked`] for the first panic in lane order.

use crate::error::EngineError;
use crate::shard::Slice;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::Scope;

/// Render a caught panic payload as the message carried by
/// [`EngineError::WorkerPanicked`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(message) => (*message).to_string(),
            Err(_) => "worker panicked with a non-string payload".to_string(),
        },
    }
}

/// Run one lane's slice, catching panics so a poisoned detector can never
/// strand the coordinator (the lane always reports back).  Typed detect
/// failures are *not* errors here: they are outcomes recorded in the slice,
/// and the engine inspects them when it scatters the stage.
fn run_slice(slice: &mut Slice<'_>) -> Option<String> {
    catch_unwind(AssertUnwindSafe(|| slice.run()))
        .err()
        .map(panic_message)
}

/// State of one helper's turnstile.  Every write is one whole-value
/// assignment, so the state is valid at every step.
enum LaneState<'a> {
    /// No slice queued; the helper is (or will be) parked on the condvar.
    Idle,
    /// A slice is queued and goes to whichever side locks the lane first:
    /// the helper runs it, or the coordinator reclaims it and runs it inline.
    Ready(Slice<'a>),
    /// The helper took the slice and is detecting; the coordinator waits.
    Running,
    /// The helper ran the slice (the panic message, if its detect pass
    /// panicked); the coordinator takes it back.
    Done(Slice<'a>, Option<String>),
    /// The pool is shutting down; the helper exits on observing this.
    Shutdown,
}

/// One helper's turnstile: its [`LaneState`] and the condvar that both the
/// helper (waiting for work) and the coordinator (waiting for a `Running`
/// slice) park on — hence `notify_all`.
struct Lane<'a> {
    state: Mutex<LaneState<'a>>,
    turnstile: Condvar,
}

impl<'a> Lane<'a> {
    /// Lock the lane.  A poisoned lock is recovered rather than propagated:
    /// the state is valid at every step, and detector panics — the only
    /// panics a run expects — are caught outside the lock, so a failure
    /// elsewhere must not also cost the run its clean shutdown.
    fn lock(&self) -> MutexGuard<'_, LaneState<'a>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Park on the turnstile until notified.
    fn wait<'g>(&self, state: MutexGuard<'g, LaneState<'a>>) -> MutexGuard<'g, LaneState<'a>> {
        self.turnstile
            .wait(state)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Set the state and wake whoever is parked on the lane.
    fn set(&self, state: LaneState<'a>) {
        *self.lock() = state;
        self.turnstile.notify_all();
    }
}

/// A persistent pool of DETECT helper threads, spawned once per engine run
/// into the run's `std::thread::scope` and reused by every parallel stage.
///
/// Dropping the pool flips every lane to [`LaneState::Shutdown`] and wakes
/// its helper, which exits and is joined by the enclosing scope.  The engine
/// drops its pool before the scope closes on every path — normal completion,
/// stage error, or a panicking caller hook — so shutdown can never hang.
pub(crate) struct WorkerPool<'a> {
    /// One turnstile per helper thread; helper `i` serves slice `i + 1` of
    /// each stage (slice 0 runs inline on the coordinator).
    lanes: Vec<Arc<Lane<'a>>>,
}

impl Drop for WorkerPool<'_> {
    fn drop(&mut self) {
        for lane in &self.lanes {
            lane.set(LaneState::Shutdown);
        }
    }
}

impl<'a> WorkerPool<'a> {
    /// Spawn `helpers` long-lived worker threads into `scope`.
    ///
    /// The pool supports stages of up to `helpers + 1` slices: the calling
    /// thread always runs the first slice inline, so an engine running
    /// `n`-way parallel stages spawns `n - 1` helpers.
    pub(crate) fn spawn<'scope, 'env>(
        scope: &'scope Scope<'scope, 'env>,
        helpers: usize,
    ) -> WorkerPool<'a>
    where
        'a: 'scope,
    {
        let lanes = (0..helpers)
            .map(|index| {
                let lane = Arc::new(Lane {
                    state: Mutex::new(LaneState::Idle),
                    turnstile: Condvar::new(),
                });
                let helper_lane = Arc::clone(&lane);
                std::thread::Builder::new()
                    .name(format!("exsample-detect-{index}"))
                    .spawn_scoped(scope, move || helper_loop(&helper_lane))
                    .expect("spawn DETECT pool worker thread");
                lane
            })
            .collect();
        WorkerPool { lanes }
    }

    /// Lanes a stage's demand is cut over: the helpers plus the coordinator.
    pub(crate) fn lanes(&self) -> usize {
        self.lanes.len() + 1
    }

    /// Run one stage's slices: queue slices `1..` on the helpers, run slice
    /// 0 inline, then take every queued slice back in lane order —
    /// reclaiming and running inline any a helper has not started, waiting
    /// for any it is running.  Every slice is run, exactly as the serial
    /// loop runs it, so pooled execution is observably identical to it.
    ///
    /// # Errors
    /// Returns [`EngineError::WorkerPanicked`] if any lane's detect pass
    /// panicked (the first panic in lane order wins).  All slices are
    /// reassembled into `slices` even on error.
    pub(crate) fn run_stage(&mut self, slices: &mut Vec<Slice<'a>>) -> Result<(), EngineError> {
        debug_assert!(
            (1..=self.lanes()).contains(&slices.len()),
            "a stage has one slice per lane at most, and at least one"
        );
        let queued = slices.len() - 1;
        for (lane, slice) in self.lanes.iter().zip(slices.drain(1..)) {
            debug_assert!(
                matches!(*lane.lock(), LaneState::Idle),
                "the previous stage took every queued slice back"
            );
            lane.set(LaneState::Ready(slice));
        }

        // The coordinator is the first lane: run slice 0 inline instead of
        // sleeping until the helpers finish.
        let mut panic = run_slice(&mut slices[0]);
        for lane in &self.lanes[..queued] {
            let taken = {
                let mut state = lane.lock();
                while matches!(*state, LaneState::Running) {
                    state = lane.wait(state);
                }
                std::mem::replace(&mut *state, LaneState::Idle)
            };
            let (slice, lane_panic) = match taken {
                LaneState::Ready(mut slice) => {
                    let lane_panic = run_slice(&mut slice);
                    (slice, lane_panic)
                }
                LaneState::Done(slice, lane_panic) => (slice, lane_panic),
                _ => unreachable!("a queued lane holds its slice until the coordinator takes it"),
            };
            panic = panic.or(lane_panic);
            slices.push(slice);
        }
        match panic {
            Some(message) => Err(EngineError::WorkerPanicked { message }),
            None => Ok(()),
        }
    }
}

/// A helper thread's lifetime: park on the turnstile until a slice is queued
/// (or shutdown is signalled), run it, hand it back as `Done`, repeat.
fn helper_loop(lane: &Lane<'_>) {
    let mut state = lane.lock();
    loop {
        match std::mem::replace(&mut *state, LaneState::Idle) {
            // Won the race against a coordinator reclaim.
            LaneState::Ready(mut slice) => {
                *state = LaneState::Running;
                drop(state);
                let panic = run_slice(&mut slice);
                state = lane.lock();
                if matches!(*state, LaneState::Shutdown) {
                    return;
                }
                *state = LaneState::Done(slice, panic);
                lane.turnstile.notify_all();
            }
            LaneState::Shutdown => return,
            // Idle, or Done and not yet taken (spurious or own wakeups).
            other => {
                *state = other;
                state = lane.wait(state);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{
        gather_slices, scatter_slices, DetectPolicy, Lanes, ShardRouter, ShardView,
    };
    use exsample_detect::{Detector, FrameDetections, ObjectClass};
    use exsample_video::FrameId;

    struct NoopDetector(ObjectClass);

    impl Detector for NoopDetector {
        fn detect(&self, frame: FrameId) -> FrameDetections {
            FrameDetections::empty(frame)
        }

        fn class(&self) -> &ObjectClass {
            &self.0
        }
    }

    struct BombDetector(ObjectClass);

    impl Detector for BombDetector {
        fn detect(&self, frame: FrameId) -> FrameDetections {
            panic!("bomb detector refuses frame {frame}")
        }

        fn class(&self) -> &ObjectClass {
            &self.0
        }
    }

    /// One stage of `lanes`: `demand[g]` in group `g`, probed without a cache
    /// (every frame is a miss) and gathered over `count` lanes into `slices`
    /// (recycling whatever it held).
    fn gather_stage<'a>(
        lanes: &mut Lanes,
        view: &mut ShardView,
        detectors: &[&'a dyn Detector],
        demand: &[&[FrameId]],
        count: usize,
        slices: &mut Vec<Slice<'a>>,
    ) {
        let slots: Vec<u32> = (0..detectors.len() as u32).collect();
        lanes.begin_stage(detectors.len());
        for (group, frames) in demand.iter().enumerate() {
            lanes.push_frames(group, frames);
        }
        lanes.probe(&slots, None, view);
        gather_slices(lanes, detectors, count, DetectPolicy::infallible(), slices);
    }

    #[test]
    fn pool_round_trips_workers_and_recycles_buffers() {
        let detector = NoopDetector(ObjectClass::from("car"));
        std::thread::scope(|scope| {
            let mut pool = WorkerPool::spawn(scope, 2);
            assert_eq!(pool.lanes(), 3);
            // One set of lanes and slices for every stage, as in the engine:
            // each gather recycles the slices the pool handed back.
            let mut lanes = Lanes::default();
            let mut view = ShardView::new(ShardRouter::single());
            let mut slices = Vec::new();
            for stage in 0..4u64 {
                let frames: Vec<FrameId> = (stage * 10..stage * 10 + 7).collect();
                gather_stage(
                    &mut lanes,
                    &mut view,
                    &[&detector],
                    &[&frames],
                    pool.lanes(),
                    &mut slices,
                );
                assert_eq!(slices.len(), 3);
                pool.run_stage(&mut slices).expect("no panics");
                assert_eq!(slices.len(), 3);
                // Lane order was restored: the scatter walks the slices in
                // gather order and finds every frame.
                scatter_slices(&mut lanes, &mut view, &[0], &mut slices);
                for &frame in &frames {
                    let found = lanes.result(0, frame).map(|d| d.frame);
                    assert_eq!(found, Some(frame));
                }
                assert_eq!(lanes.detected_frames(), 7);
                // 7 frames over 3 lanes: one batch each.
                assert_eq!(lanes.batches.count, 3);
            }
            drop(pool);
        });
    }

    #[test]
    fn helper_lane_panic_is_typed_and_workers_come_back() {
        let noop = NoopDetector(ObjectClass::from("car"));
        let bomb = BombDetector(ObjectClass::from("car"));
        std::thread::scope(|scope| {
            let mut pool = WorkerPool::spawn(scope, 1);
            // Two one-frame groups over two lanes: slice 0 (inline) is the
            // noop's, slice 1 (the helper's, or reclaimed) the bomb's.
            let mut slices = Vec::new();
            gather_stage(
                &mut Lanes::default(),
                &mut ShardView::new(ShardRouter::single()),
                &[&noop, &bomb],
                &[&[1], &[2]],
                pool.lanes(),
                &mut slices,
            );
            let err = pool.run_stage(&mut slices).unwrap_err();
            match err {
                EngineError::WorkerPanicked { message } => {
                    assert!(message.contains("bomb detector"), "message: {message}")
                }
                other => panic!("expected WorkerPanicked, got {other:?}"),
            }
            // Both slices were reassembled despite the panic, and the pool's
            // worker thread exits with it.
            assert_eq!(slices.len(), 2);
            drop(pool);
        });
    }

    #[test]
    fn inline_lane_panic_is_typed_too() {
        let bomb = BombDetector(ObjectClass::from("car"));
        std::thread::scope(|scope| {
            let mut pool = WorkerPool::spawn(scope, 1);
            let mut slices = Vec::new();
            gather_stage(
                &mut Lanes::default(),
                &mut ShardView::new(ShardRouter::single()),
                &[&bomb],
                &[&[7, 8]],
                pool.lanes(),
                &mut slices,
            );
            let err = pool.run_stage(&mut slices).unwrap_err();
            assert!(matches!(err, EngineError::WorkerPanicked { .. }));
            drop(pool);
        });
    }
}
