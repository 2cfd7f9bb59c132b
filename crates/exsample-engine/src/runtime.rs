//! The persistent worker-pool execution runtime — the engine's one way of
//! running a stage's DETECT on more than one thread.
//!
//! Spawning and joining threads inside every stage costs more than a cheap
//! detector does (the capture that introduced this pool measured ~+28 % over
//! serial for per-stage spawns at 2 shards / 8 queries / 2 threads, against
//! +1.2 % for the pool; the `parallel_detect_scoped` rows of
//! `BENCH_sharded.json` are the last capture of that deleted design), so
//! parallel runs use a `WorkerPool` of long-lived helper threads created
//! **once per engine run** and reused by every stage of that run.  A serial
//! run never spawns one: its stage loop runs the stage's single slice inline.
//!
//! * **The job is a slice, not a shard.**  What crosses a thread boundary is
//!   a `Slice`: one lane's equal share of the stage's gathered detector
//!   demand — frame ids and detector references in, per-batch outcomes out.
//!   The lanes (frames, result maps, tallies) never leave the coordinator,
//!   so parallelism is independent of how skewed the picks are.
//! * **Spawn once, dispatch many.**  [`crate::QueryEngine::run_with`] (and
//!   [`crate::QueryEngine::run`]) open one `std::thread::scope` around the
//!   whole stage loop and spawn `n - 1` helper threads into it (the calling
//!   thread itself is the `n`-th lane — it runs the first slice inline
//!   instead of sleeping on a channel).  Each stage then queues slices on the
//!   already-running helpers' Mutex+Condvar **turnstiles** — a condvar wake,
//!   not a thread spawn.  No busy-waiting anywhere: idle helpers are parked
//!   in `Condvar::wait`.
//! * **Two halves.**  `WorkerPool::dispatch_stage` queues the helpers'
//!   slices and returns; `WorkerPool::join_stage` runs the coordinator's own
//!   slice, collects the rest and puts them back in lane order.  The engine's
//!   stage loop calls them as its `launch` and `land` phases; whatever it
//!   does in between (under [`crate::QueryEngine::overlap`]: planning the
//!   next stage) runs alongside the helpers' DETECT.
//! * **Help-first reclaim.**  After running its own slice, the coordinator
//!   *reclaims* any queued slice whose helper has not started it and runs it
//!   inline.  On a saturated or single-vCPU host — where a helper wake could
//!   only add scheduling latency — the whole handoff therefore collapses to
//!   two uncontended mutex operations and the stage never blocks; on idle
//!   multicore hardware the helpers win the race and the slices execute
//!   genuinely in parallel.  Which side runs a slice affects wall-clock
//!   placement only, never results.
//! * **Serial on both sides.**  The cache probe and the gather that builds
//!   the slices, and the scatter, the commit arbitration
//!   ([`crate::cache::CacheTxn`]) and the registration-order fan-out that
//!   consume them, all run on the coordinator in canonical order; a slice's
//!   outcome is a pure function of its frames and detectors.  That is why
//!   pooled execution stays bitwise-identical to serial (the determinism
//!   suite pins threads {1, 2, 4}).
//! * **Clean shutdown, typed panics.**  Helpers exit when the pool is
//!   dropped — the engine guarantees this happens before the scope closes,
//!   even if a stage errors or a caller hook panics, so a run can never leak
//!   or deadlock its threads, and the scope joins every helper before `run`
//!   returns.  A detector panic inside any lane (helper *or* the
//!   coordinator's inline lane) is caught outside every lock, the slice is
//!   returned to the engine, and the stage surfaces
//!   [`EngineError::WorkerPanicked`] instead of unwinding or hanging.
//! * **No global state.**  Helper-thread lifecycle counts live in a
//!   `PoolCounters` handle owned by the engine (and shared with the pools
//!   it spawns), read through [`crate::QueryEngine::live_helper_threads`] /
//!   [`crate::QueryEngine::spawned_helper_threads`] — concurrent engines
//!   never see each other's threads.

use crate::error::EngineError;
use crate::shard::Slice;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::Scope;

/// Helper-thread lifecycle counters of one engine: how many of its pool
/// helpers are alive right now, and how many it has ever spawned.
///
/// Owned by the engine and shared with every pool it spawns (and, through
/// [`LiveGuard`], with each helper thread), so the counts are per engine —
/// tests asserting "no leaked threads" cannot be perturbed by another
/// engine's pool running concurrently in the same process.
#[derive(Debug, Default)]
pub(crate) struct PoolCounters {
    live: AtomicUsize,
    spawned: AtomicUsize,
}

impl PoolCounters {
    /// Helper threads currently alive.  Pools live only for the duration of
    /// an engine run, so outside [`crate::QueryEngine::run`] this is zero.
    pub(crate) fn live(&self) -> usize {
        self.live.load(Ordering::SeqCst)
    }

    /// Helper threads ever spawned: an `n`-way parallel run grows this by
    /// exactly `n - 1`, however many stages it executes.
    pub(crate) fn spawned(&self) -> usize {
        self.spawned.load(Ordering::SeqCst)
    }
}

/// RAII tally of a helper thread's lifetime in its [`PoolCounters`].
struct LiveGuard(Arc<PoolCounters>);

impl LiveGuard {
    fn new(counters: Arc<PoolCounters>) -> Self {
        counters.live.fetch_add(1, Ordering::SeqCst);
        counters.spawned.fetch_add(1, Ordering::SeqCst);
        LiveGuard(counters)
    }
}

impl Drop for LiveGuard {
    fn drop(&mut self) {
        self.0.live.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One stage's work for one helper lane: the slice it owns this stage (by
/// value — ownership transfer is what makes the handoff safe without locks).
struct Job<'a> {
    /// Index of this slice among the stage's slices (slice 0 is the
    /// coordinator's inline lane and never crosses a channel).
    lane: usize,
    slice: Slice<'a>,
}

/// A lane's completed stage work, sent back to the coordinator.
struct Done<'a> {
    lane: usize,
    /// The slice, returned even when the lane panicked (its buffers are
    /// recycled into the next stage; the run is erroring out anyway).
    slice: Slice<'a>,
    /// The panic message, if the lane's detect pass panicked.
    panic: Option<String>,
}

/// An in-flight dispatched stage: the handle [`WorkerPool::dispatch_stage`]
/// returns and exactly one [`WorkerPool::join_stage`] call consumes.  Between
/// the two calls, slices `1..` of the stage sit on (or run from) the helper
/// turnstiles while slice 0 still lives in the engine's slice vector — which
/// is what lets the coordinator interleave other work (the next stage's PICK)
/// with the helpers' DETECT.
pub(crate) struct StageDispatch {
    slices: usize,
}

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

/// One helper lane's handoff turnstile: a `Mutex`-guarded job slot plus the
/// `Condvar` its helper thread blocks on between stages.
///
/// The turnstile — rather than a plain channel — exists for one reason: the
/// coordinator can **reclaim** a job the helper has not started yet
/// ([`LaneState::Ready`] → taken back) and run it inline.  On a saturated or
/// single-vCPU host the helper often is not scheduled before the coordinator
/// finishes its own slice, so reclaiming collapses the entire per-stage
/// handoff (wake, block, wake) into two uncontended mutex operations; on real
/// hardware the helper wins the race, marks the lane [`LaneState::Running`],
/// and the slices genuinely execute in parallel.  Either way the same slice
/// is run to the same outcomes, so the race affects wall-clock only — never
/// results.
struct LaneSlot<'a> {
    state: Mutex<LaneState<'a>>,
    turnstile: Condvar,
}

impl<'a> LaneSlot<'a> {
    /// Lock the turnstile.  A poisoned lock is recovered rather than
    /// propagated: every write to the [`LaneState`] is one whole-value
    /// assignment, so the state is valid at every step, and detector panics —
    /// the only panics a run expects — are caught outside the lock, so a
    /// failure elsewhere must not also cost the run its clean shutdown.
    fn lock(&self) -> MutexGuard<'_, LaneState<'a>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// State of one lane's turnstile.
enum LaneState<'a> {
    /// No job queued; the helper is (or will be) blocked on the condvar.
    Idle,
    /// A job is queued and may be taken by the helper *or* reclaimed by the
    /// coordinator — whichever locks the slot first.
    Ready(Job<'a>),
    /// The helper took the job and is detecting; the coordinator must await
    /// its [`Done`] on the completion channel.
    Running,
    /// The pool is shutting down; the helper exits on observing this.
    Shutdown,
}

/// A persistent pool of DETECT helper threads, spawned once per engine run
/// into the run's `std::thread::scope` and reused by every parallel stage.
///
/// The pool owns one [`LaneSlot`] per helper plus the shared completion
/// channel.  Dropping the pool flips every slot to [`LaneState::Shutdown`]
/// and wakes its helper, which exits and is joined by the enclosing scope.
/// The engine drops its pool before the scope closes on every path — normal
/// completion, stage error, or a panicking caller hook — so shutdown can
/// never hang.
pub(crate) struct WorkerPool<'a> {
    /// One turnstile per helper thread; helper `i` serves slice `i + 1` of
    /// each dispatched stage (slice 0 runs inline on the coordinator).
    lanes: Vec<Arc<LaneSlot<'a>>>,
    /// Consecutive slices of each helper reclaimed by the coordinator — the
    /// wake-stickiness state: a helper at or past [`DISENGAGE_AFTER`] misses
    /// is not woken per stage, its queued slices are simply reclaimed.
    consecutive_misses: Vec<u32>,
    /// Stages dispatched so far (drives periodic re-engagement).
    dispatched_stages: u64,
    /// Per-stage panic scratch, indexed by lane (lane 0 is the inline lane),
    /// so the reported panic is the first in *lane* order no matter in which
    /// order helper completions arrive.
    lane_panics: Vec<Option<String>>,
    /// Completion channel shared by all helpers (used only for jobs a helper
    /// actually ran; reclaimed jobs never touch it).
    done_rx: Receiver<Done<'a>>,
    /// Per-stage reassembly scratch, indexed by lane.
    returned: Vec<Option<Slice<'a>>>,
}

/// Disengage a helper after this many *consecutive* reclaimed slices.
///
/// One lost race must not cost a multicore host its parallelism — a helper
/// can lose a single race to a transient OS stall — so a helper is only
/// stopped being woken once the coordinator has reclaimed its slice this
/// many stages in a row (the pattern of a host that is not scheduling it at
/// all, e.g. one vCPU).  Any slice the helper does run resets its count.
const DISENGAGE_AFTER: u32 = 2;

/// Wake disengaged helpers every this many dispatched stages.
///
/// A helper whose last [`DISENGAGE_AFTER`] slices were all reclaimed is
/// probably not getting scheduled (the host is saturated, or has one vCPU);
/// waking it again every stage would buy a context switch and nothing else,
/// so its queued slices go un-notified — still reclaimable — until the next
/// re-engagement stage offers it work again.  On an idle multicore host a
/// helper re-engages within one period of a (multi-stage) stall — and with a
/// detector expensive enough for parallelism to matter, helpers win their
/// races and never disengage in the first place; on a 1-vCPU host the
/// steady state is one wake per helper per period instead of per stage.
const REENGAGE_PERIOD: u64 = 32;

impl Drop for WorkerPool<'_> {
    fn drop(&mut self) {
        for lane in &self.lanes {
            *lane.lock() = LaneState::Shutdown;
            lane.turnstile.notify_one();
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
        counters: &Arc<PoolCounters>,
    ) -> WorkerPool<'a>
    where
        'a: 'scope,
    {
        let (done_tx, done_rx) = channel::<Done<'a>>();
        let lanes = (0..helpers)
            .map(|lane| {
                let slot = Arc::new(LaneSlot {
                    state: Mutex::new(LaneState::Idle),
                    turnstile: Condvar::new(),
                });
                let helper_slot = Arc::clone(&slot);
                let done_tx = done_tx.clone();
                let counters = Arc::clone(counters);
                std::thread::Builder::new()
                    .name(format!("exsample-detect-{lane}"))
                    .spawn_scoped(scope, move || helper_loop(&helper_slot, &done_tx, counters))
                    .expect("spawn DETECT pool worker thread");
                slot
            })
            .collect();
        WorkerPool {
            consecutive_misses: vec![0; helpers],
            lanes,
            dispatched_stages: 0,
            lane_panics: Vec::new(),
            done_rx,
            returned: Vec::new(),
        }
    }

    /// Lanes a stage's demand is cut over: the helpers plus the coordinator.
    pub(crate) fn lanes(&self) -> usize {
        self.lanes.len() + 1
    }

    /// First half of a stage's detect pass: queue slices `1..` on the helper
    /// turnstiles and return the in-flight stage handle.  Slice 0 stays in
    /// `slices`; it is run by [`WorkerPool::join_stage`], which must be
    /// called exactly once with the returned handle (the coordinator may do
    /// other work — the next stage's planning — in between).
    pub(crate) fn dispatch_stage(&mut self, slices: &mut Vec<Slice<'a>>) -> StageDispatch {
        debug_assert!(
            (1..=self.lanes()).contains(&slices.len()),
            "a dispatched stage has one slice per lane at most, and at least one"
        );
        self.dispatched_stages += 1;
        let reengage = self.dispatched_stages.is_multiple_of(REENGAGE_PERIOD);
        let dispatch = StageDispatch {
            slices: slices.len(),
        };
        // Every queued lane was left Idle by the previous stage (its Done
        // was collected, or the coordinator reclaimed it).
        for (helper, slice) in slices.drain(1..).enumerate() {
            let slot = &self.lanes[helper];
            {
                let mut state = slot.lock();
                debug_assert!(matches!(*state, LaneState::Idle));
                *state = LaneState::Ready(Job {
                    lane: helper + 1,
                    slice,
                });
            }
            // Wake the helper — with the mutex released, so it never stalls
            // on a lock the coordinator still holds.  Disengaged helpers
            // (their last DISENGAGE_AFTER slices were all reclaimed, so
            // waking them only buys a context switch on a host that isn't
            // scheduling them anyway) are left parked except on
            // re-engagement stages; their queued slice is picked up by the
            // reclaim pass in [`WorkerPool::join_stage`].
            if self.consecutive_misses[helper] < DISENGAGE_AFTER || reengage {
                slot.turnstile.notify_one();
            }
        }
        dispatch
    }

    /// Second half of a stage's detect pass: run slice 0 inline, reclaim
    /// queued slices whose helpers have not started, await the rest, and
    /// reassemble `slices` in lane order — every slice run, exactly what the
    /// serial loop produces, so pooled dispatch is observably identical to
    /// it.
    ///
    /// # Errors
    /// Returns [`EngineError::WorkerPanicked`] if any lane's detect pass
    /// panicked (the first panic in lane order wins).  All slices are
    /// reassembled into `slices` even on error.
    pub(crate) fn join_stage(
        &mut self,
        slices: &mut Vec<Slice<'a>>,
        dispatch: StageDispatch,
    ) -> Result<(), EngineError> {
        let count = dispatch.slices;

        // The coordinator is the first lane: run slice 0 inline instead of
        // sleeping until the helpers finish.  Panics are caught exactly like
        // a helper's, so a poisoned detector surfaces as a typed error no
        // matter which lane its frames fell into.
        self.lane_panics.clear();
        self.lane_panics.resize_with(count, || None);
        self.lane_panics[0] = run_slice(&mut slices[0]);

        // Reclaim pass: any queued slice whose helper has not started yet is
        // taken back and run right here.  On a busy or single-vCPU host this
        // is the common case — the handoff collapses to two mutex operations
        // and the stage never blocks — while on idle multicore hardware the
        // helpers have already flipped their lanes to Running and the slices
        // are executing concurrently.
        self.returned.clear();
        self.returned.resize_with(count, || None);
        let mut outstanding = 0usize;
        for lane in 1..count {
            let reclaimed = {
                let mut state = self.lanes[lane - 1].lock();
                match std::mem::replace(&mut *state, LaneState::Idle) {
                    LaneState::Ready(job) => Some(job),
                    other => {
                        *state = other;
                        None
                    }
                }
            };
            match reclaimed {
                Some(mut job) => {
                    self.consecutive_misses[lane - 1] =
                        self.consecutive_misses[lane - 1].saturating_add(1);
                    self.lane_panics[job.lane] = run_slice(&mut job.slice);
                    self.returned[job.lane] = Some(job.slice);
                }
                None => {
                    self.consecutive_misses[lane - 1] = 0;
                    outstanding += 1;
                }
            }
        }

        // Await the slices a helper genuinely ran, then put everything back
        // in lane order.
        for _ in 0..outstanding {
            let done = self
                .done_rx
                .recv()
                .expect("every running lane reports back, panicked or not");
            self.lane_panics[done.lane] = done.panic;
            self.returned[done.lane] = Some(done.slice);
        }
        slices.extend(
            self.returned[1..]
                .iter_mut()
                .map(|slot| slot.take().expect("every slice was collected")),
        );

        // Completion order is scheduler-dependent, lane order is not: the
        // reported panic is deterministically the first in lane order.
        match self.lane_panics.iter_mut().find_map(Option::take) {
            Some(message) => Err(EngineError::WorkerPanicked { message }),
            None => Ok(()),
        }
    }
}

/// A helper thread's lifetime: block on the turnstile until a job is queued
/// (or shutdown is signalled), run it, report the result, repeat.
fn helper_loop<'a>(slot: &LaneSlot<'a>, done_tx: &Sender<Done<'a>>, counters: Arc<PoolCounters>) {
    let _live = LiveGuard::new(counters);
    loop {
        let Job { lane, mut slice } = {
            let mut state = slot.lock();
            loop {
                match std::mem::replace(&mut *state, LaneState::Idle) {
                    // Won the race against a coordinator reclaim: mark the
                    // lane Running so the coordinator awaits our Done.
                    LaneState::Ready(job) => {
                        *state = LaneState::Running;
                        break job;
                    }
                    LaneState::Shutdown => {
                        *state = LaneState::Shutdown;
                        return;
                    }
                    // Idle (including spurious wakeups and reclaimed jobs):
                    // park on the turnstile — a condvar block, no busy-wait.
                    LaneState::Idle | LaneState::Running => {
                        state = slot
                            .turnstile
                            .wait(state)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                }
            }
        };
        let panic = run_slice(&mut slice);
        {
            let mut state = slot.lock();
            if !matches!(*state, LaneState::Shutdown) {
                *state = LaneState::Idle;
            }
        }
        if done_tx.send(Done { lane, slice, panic }).is_err() {
            // Coordinator gone (it only drops the completion receiver with
            // the whole pool).
            return;
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
            for &frame in *frames {
                lanes.push_frame(group, frame);
            }
        }
        lanes.probe(&slots, true, None, view);
        gather_slices(lanes, detectors, count, DetectPolicy::infallible(), slices);
    }

    #[test]
    fn pool_round_trips_workers_and_recycles_buffers() {
        let detector = NoopDetector(ObjectClass::from("car"));
        let counters = Arc::new(PoolCounters::default());
        std::thread::scope(|scope| {
            let mut pool = WorkerPool::spawn(scope, 2, &counters);
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
                let dispatch = pool.dispatch_stage(&mut slices);
                assert_eq!(slices.len(), 1, "slice 0 stays with the coordinator");
                pool.join_stage(&mut slices, dispatch).expect("no panics");
                assert_eq!(slices.len(), 3);
                // Lane order was restored: the scatter walks the slices in
                // gather order and finds every frame.
                scatter_slices(&mut lanes, &mut view, &[0], false, &mut slices);
                for &frame in &frames {
                    assert_eq!(lanes.result(0, frame).map(|d| d.frame), Some(frame));
                }
                assert_eq!(lanes.detected_frames(), 7);
                // 7 frames over 3 lanes: one batch each.
                assert_eq!(lanes.batches.count, 3);
            }
            drop(pool);
        });
        assert_eq!(counters.live(), 0);
        assert_eq!(counters.spawned(), 2, "helpers spawn once, not per stage");
    }

    #[test]
    fn helper_lane_panic_is_typed_and_workers_come_back() {
        let noop = NoopDetector(ObjectClass::from("car"));
        let bomb = BombDetector(ObjectClass::from("car"));
        let counters = Arc::new(PoolCounters::default());
        std::thread::scope(|scope| {
            let mut pool = WorkerPool::spawn(scope, 1, &counters);
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
            let dispatch = pool.dispatch_stage(&mut slices);
            let err = pool.join_stage(&mut slices, dispatch).unwrap_err();
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
        assert_eq!(counters.live(), 0);
    }

    #[test]
    fn inline_lane_panic_is_typed_too() {
        let bomb = BombDetector(ObjectClass::from("car"));
        let counters = Arc::new(PoolCounters::default());
        std::thread::scope(|scope| {
            let mut pool = WorkerPool::spawn(scope, 1, &counters);
            let mut slices = Vec::new();
            gather_stage(
                &mut Lanes::default(),
                &mut ShardView::new(ShardRouter::single()),
                &[&bomb],
                &[&[7, 8]],
                pool.lanes(),
                &mut slices,
            );
            let dispatch = pool.dispatch_stage(&mut slices);
            let err = pool.join_stage(&mut slices, dispatch).unwrap_err();
            assert!(matches!(err, EngineError::WorkerPanicked { .. }));
            drop(pool);
        });
        assert_eq!(counters.live(), 0);
    }
}
