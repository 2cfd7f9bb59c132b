//! The persistent worker-pool execution runtime — the engine's one way of
//! running a stage's PICK and DETECT on more than one thread.
//!
//! Parallel runs use a `WorkerPool` of long-lived helper threads created
//! **once per engine run** and reused by every stage of that run; a serial
//! run never spawns one (its stage loop picks and detects inline).  The pool
//! is kept, and kept this small, on one end-to-end measurement: 10
//! alternating pairs of the repository benchmark (seeds 1–10, `--seconds 6`,
//! 2-core host, `detector_frames` equal in every pair) of each variant of
//! this module against the pool before it lost its completion channel,
//! disengage heuristic and thread counters.  A ratio above 1 means the
//! variant was slower; the count is the pairs in which it was faster.
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
//! * **Two job kinds.**  What crosses a thread boundary is one lane's job.
//!   A DETECT `Slice` is the lane's equal share of the stage's gathered
//!   detector demand: frame ids and detector references in, per-batch
//!   outcomes out.  A PICK batch holds one `PickJob` per live query the lane
//!   picks for — query `i` on lane `i mod n` — each owning its query's
//!   policy, RNG stream, PICK size and pick buffer for the trip there and
//!   back.  The lanes (frames, results, tallies) and every other part of a
//!   query never leave the coordinator.
//! * **One turnstile per helper.**  [`crate::QueryEngine::run_with`] opens
//!   one `std::thread::scope` around the whole stage loop and spawns `n - 1`
//!   helpers into it; the calling thread is the `n`-th lane.  Each helper
//!   owns one `Mutex` + `Condvar` — the only synchronisation in the pool,
//!   beside a hand-over counter that a polling thread reads without the
//!   lock.
//! * **One call per stage and job kind.**  `WorkerPool::run_picks` and
//!   `WorkerPool::run_stage` queue jobs `1..` on the helpers, run job 0
//!   inline, then walk the helpers in lane order: a job still `Ready` is
//!   reclaimed and run inline, a `Done` one is taken, a `Running` one is
//!   polled for and then waited for.  Jobs come back in lane order by
//!   construction.  Which side runs a job affects wall-clock placement
//!   only, never results.  A stage with picks on fewer than two lanes
//!   runs them all inline: there is nothing to overlap.  Nor is there when
//!   `std::thread::available_parallelism` reports one CPU (say, under
//!   `taskset -c 0`): then PICK always runs inline and neither side polls,
//!   so the pool is the one before pooled PICK.
//! * **The handoff** is chosen by measurement, because where the kernel
//!   places a woken thread decides it.  A helper woken by a plain condvar
//!   notify may be placed on the coordinator's CPU and run its whole PICK
//!   share there while the other CPU idles.  A helper that polls its lane
//!   before parking is already running when the next job comes, but after
//!   it wakes a coordinator parked on a sleeping detector, that coordinator
//!   may be placed on the CPU the helper is polling on.  So both sides poll
//!   for at most `POLL` = 200 µs, yielding the CPU between looks, before
//!   they park, and a helper whose hand-back woke a parked coordinator
//!   parks at once.  Median `wall_s` ratio of each variant to the pool
//!   before pooled PICK (serial PICK on the coordinator), the two run in
//!   turn on each of seeds 21–26 (`--seconds 3`, 2-vCPU host,
//!   `detector_frames` and `savings_vs_random` equal in every run), with
//!   the seeds on which the variant was faster; "pinned" runs the
//!   benchmark process under `taskset -c 0`:
//!
//! | handoff | `bdd1k_multi` | pinned | `dashcam_gpu` | pinned |
//! |---|---|---|---|---|
//! | plain condvar | 0.822 (6/6) | 1.031 (1/6) | 0.993 (3/6) | 0.949 (4/6) |
//! | helper spins 200 µs before parking | 0.767 (6/6) | 1.476 (0/6) | 1.087 (1/6) | 1.074 (1/6) |
//! | bounded yielding poll, skipped after waking a parked coordinator (this module) | 0.675 (6/6) | 0.999 (3/6) | 0.998 (3/6) | 0.992 (3/6) |
//!
//! * **A fixed lane per query.**  Query `i` picks on lane `i mod n` even
//!   after other queries stop.  A prototype that rebalanced the live
//!   queries over the lanes every stage was no faster and raised
//!   `bdd1k_multi`'s `peak_rss_mib` by 8–22 %.  glibc keeps one malloc
//!   arena per thread, and a pick then allocated (a chunk's `random+`
//!   sampler built new segment lists every round): a query that picked on
//!   both threads grew buffers in one arena and freed them into the other,
//!   and both kept the space (`MALLOC_ARENA_MAX=1` took the rise away).
//!   `random+` now reuses its round buffers, so a warmed-up pick allocates
//!   only when one of them doubles, and the 5–9 % rise the fixed lane still
//!   showed is gone; rebalancing has not been measured since.  Moving
//!   picks less cost more: against the pool before pooled
//!   PICK on a busy host, never reclaiming a batch nor inlining a lone
//!   busy lane read `wall_s` 0.903 and `peak_rss_mib` 1.031 where this
//!   module read 0.870 and 1.073 (seeds 51–56, `--seconds 5`), and lost
//!   pairs by up to 1.6×; queueing a lone busy lane on its helper (reclaim
//!   kept) read `peak_rss_mib` 1.04–1.16 over seven 15-second pairs.
//! * **Serial on both sides.**  Stop checks and PICK sizes, grouping, the
//!   cache probe and the gather that build the jobs, and the scatter, the
//!   cache commit and the registration-order fan-out that consume them,
//!   all run on the coordinator in canonical order.  A pick reads only its
//!   own query's policy and RNG stream, and a slice's outcome is a pure
//!   function of its frames and detectors, so pooled execution stays
//!   bitwise-identical to serial (the determinism suite pins threads {1, 2,
//!   4}).
//! * **Clean shutdown, typed panics.**  Helpers exit when the pool is
//!   dropped — the engine guarantees this happens before the scope closes,
//!   even if a stage errors or a caller hook panics — and the scope joins
//!   every helper before `run` returns.  A policy or detector panic inside
//!   any lane (helper *or* inline) is caught outside every lock, the job is
//!   returned to the engine — every policy goes back to its query — and
//!   the stage surfaces [`EngineError::WorkerPanicked`] for the first panic
//!   in lane order.

use crate::error::EngineError;
use crate::policy::SamplingPolicy;
use crate::shard::Slice;
use exsample_video::FrameId;
use rand::rngs::StdRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::Scope;
use std::time::{Duration, Instant};

/// How long a thread that finds its lane not yet handed over polls the lane
/// before it parks on the condvar, yielding its CPU between looks.  Twice
/// the serial part of a `bdd1k_multi` stage (about 0.1 ms: its traced
/// `trace.wall_s` less `exsample-core.pick_s`, over 528 stages), so a helper
/// between two PICK jobs rarely parks; short enough that a pool idling
/// between sleeping detector calls costs nothing measurable (module doc's
/// table).
const POLL: Duration = Duration::from_micros(200);

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

/// Run one lane's job, catching panics so a poisoned detector or policy can
/// never strand the coordinator (the lane always reports back).  Typed
/// detect failures are *not* errors here: they are outcomes recorded in the
/// slice, and the engine inspects them when it scatters the stage.
fn caught(job: impl FnOnce()) -> Option<String> {
    catch_unwind(AssertUnwindSafe(job)).err().map(panic_message)
}

/// The first panic in lane order as the stage's result.
fn outcome(panic: Option<String>) -> Result<(), EngineError> {
    match panic {
        Some(message) => Err(EngineError::WorkerPanicked { message }),
        None => Ok(()),
    }
}

/// One live query's PICK, owned for the trip to a lane and back: the query's
/// policy and RNG stream go in, the picks come out, and the engine hands all
/// three back to query `query` — on every path, a panicked batch's included.
pub(crate) struct PickJob<'a> {
    /// The query's registration index.
    pub(crate) query: usize,
    pub(crate) policy: Box<dyn SamplingPolicy + 'a>,
    pub(crate) rng: StdRng,
    /// The query's batch, clamped to what is left of its frame budget.
    pub(crate) want: usize,
    pub(crate) picks: Vec<FrameId>,
}

/// One lane's share of a stage's PICK: its queries' jobs, in registration
/// order.
pub(crate) type PickBatch<'a> = Vec<PickJob<'a>>;

/// Run a batch's picks in order.  A panic stops the batch; every job, run or
/// not, stays in it.
fn run_batch(batch: &mut PickBatch<'_>) -> Option<String> {
    caught(|| {
        for job in batch.iter_mut() {
            job.policy
                .next_batch_into(&mut job.rng, job.want, &mut job.picks);
        }
    })
}

/// The two kinds of work a lane runs.
enum Job<'a> {
    Detect(Slice<'a>),
    Pick(PickBatch<'a>),
}

impl Job<'_> {
    fn run(&mut self) -> Option<String> {
        match self {
            Job::Detect(slice) => caught(|| slice.run()),
            Job::Pick(batch) => run_batch(batch),
        }
    }
}

/// Where a helper's job is.  Every write is one whole-value assignment, so
/// the state is valid at every step.
enum LaneState<'a> {
    /// No job queued; the helper polls or parks.
    Idle,
    /// A job is queued and goes to whichever side locks the lane first: the
    /// helper runs it, or the coordinator reclaims it and runs it inline.
    Ready(Job<'a>),
    /// The helper took the job and is running it; the coordinator waits.
    Running,
    /// The helper ran the job (the panic message, if it panicked); the
    /// coordinator takes it back.
    Done(Job<'a>, Option<String>),
    /// The pool is shutting down; the helper exits on observing this.
    Shutdown,
}

/// What the lane's lock guards: the state and who is parked on it.  One flag
/// per side: a side that was notified but is not yet back on the lock still
/// counts as parked while the other side parks, so a shared flag could be
/// cleared under a parked helper and lose its wake-up.
struct Turnstile<'a> {
    state: LaneState<'a>,
    /// The helper is parked, waiting for a job.
    helper_parked: bool,
    /// The coordinator is parked, waiting for a `Running` job.
    coordinator_parked: bool,
}

/// One helper's turnstile, and the condvar whichever side is parked waits
/// on.
struct Lane<'a> {
    turnstile: Mutex<Turnstile<'a>>,
    wake: Condvar,
    /// Hand-overs so far, bumped under the lock by every state change the
    /// other side waits for; a polling thread reads it without the lock.
    handovers: AtomicU64,
    /// [`POLL`], or zero when the pool is confined to one CPU.
    poll_for: Duration,
}

impl<'a> Lane<'a> {
    /// Lock the lane.  A poisoned lock is recovered rather than propagated:
    /// the state is valid at every step, and job panics — the only panics a
    /// run expects — are caught outside the lock, so a failure elsewhere must
    /// not also cost the run its clean shutdown.
    fn lock(&self) -> MutexGuard<'_, Turnstile<'a>> {
        self.turnstile
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Park on the condvar until notified.
    fn wait<'g>(&self, guard: MutexGuard<'g, Turnstile<'a>>) -> MutexGuard<'g, Turnstile<'a>> {
        self.wake
            .wait(guard)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Set the state for the other side: publish the hand-over to a polling
    /// thread and wake a parked one.  Returns whether it woke a thread.
    fn hand_over(&self, turnstile: &mut Turnstile<'a>, state: LaneState<'a>) -> bool {
        turnstile.state = state;
        self.handovers.fetch_add(1, Ordering::Release);
        let parked = turnstile.helper_parked || turnstile.coordinator_parked;
        if parked {
            self.wake.notify_all();
        }
        parked
    }

    /// Poll for a hand-over after `seen` for at most [`POLL`], yielding the
    /// CPU between looks, so a thread the kernel placed on the poller's CPU
    /// runs instead of queueing behind the poll.
    fn poll(&self, seen: u64) {
        let deadline = Instant::now() + self.poll_for;
        while self.handovers.load(Ordering::Acquire) == seen && Instant::now() < deadline {
            std::thread::yield_now();
        }
    }

    /// Queue a job for the helper.
    fn post(&self, job: Job<'a>) {
        let mut turnstile = self.lock();
        debug_assert!(
            matches!(turnstile.state, LaneState::Idle),
            "the previous stage took every queued job back"
        );
        self.hand_over(&mut turnstile, LaneState::Ready(job));
    }

    /// Take the lane's job back, with its panic message: a `Ready` one is
    /// reclaimed and run inline, a `Running` one polled for and then waited
    /// for.  `None` when nothing was queued.
    fn take_back(&self) -> Option<(Job<'a>, Option<String>)> {
        let mut turnstile = self.lock();
        if matches!(turnstile.state, LaneState::Running) {
            let seen = self.handovers.load(Ordering::Relaxed);
            drop(turnstile);
            self.poll(seen);
            turnstile = self.lock();
            while matches!(turnstile.state, LaneState::Running) {
                turnstile.coordinator_parked = true;
                turnstile = self.wait(turnstile);
                turnstile.coordinator_parked = false;
            }
        }
        match std::mem::replace(&mut turnstile.state, LaneState::Idle) {
            LaneState::Idle => None,
            LaneState::Ready(mut job) => {
                drop(turnstile);
                let panic = job.run();
                Some((job, panic))
            }
            LaneState::Done(job, panic) => Some((job, panic)),
            _ => unreachable!("a lane holds its job until the coordinator takes it"),
        }
    }
}

/// A persistent pool of helper threads, spawned once per engine run into the
/// run's `std::thread::scope` and reused by every parallel stage, for PICK
/// and DETECT alike.
///
/// Dropping the pool flips every lane to [`LaneState::Shutdown`] and wakes
/// its helper, which exits and is joined by the enclosing scope.  The engine
/// drops its pool before the scope closes on every path — normal completion,
/// stage error, or a panicking caller hook — so shutdown can never hang.
pub(crate) struct WorkerPool<'a> {
    /// One turnstile per helper thread; helper `i` serves lane `i + 1` of
    /// each stage (lane 0 runs inline on the coordinator).
    lanes: Vec<Arc<Lane<'a>>>,
    /// Whether the process may run on more than one CPU.  On one, the
    /// threads take turns: CPU-bound PICK has nothing to overlap, and a
    /// polling thread only steals the other's time.
    multicore: bool,
}

impl Drop for WorkerPool<'_> {
    fn drop(&mut self) {
        for lane in &self.lanes {
            lane.hand_over(&mut lane.lock(), LaneState::Shutdown);
        }
    }
}

impl<'a> WorkerPool<'a> {
    /// Spawn `helpers` long-lived worker threads into `scope`.
    ///
    /// The pool supports stages of up to `helpers + 1` lanes: the calling
    /// thread always runs the first lane's job inline, so an engine running
    /// `n`-way parallel stages spawns `n - 1` helpers.
    pub(crate) fn spawn<'scope, 'env>(
        scope: &'scope Scope<'scope, 'env>,
        helpers: usize,
    ) -> WorkerPool<'a>
    where
        'a: 'scope,
    {
        let multicore = std::thread::available_parallelism().map_or(true, |n| n.get() > 1);
        let lanes = (0..helpers)
            .map(|index| {
                let lane = Arc::new(Lane {
                    turnstile: Mutex::new(Turnstile {
                        state: LaneState::Idle,
                        helper_parked: false,
                        coordinator_parked: false,
                    }),
                    wake: Condvar::new(),
                    handovers: AtomicU64::new(0),
                    poll_for: if multicore { POLL } else { Duration::ZERO },
                });
                let helper_lane = Arc::clone(&lane);
                std::thread::Builder::new()
                    .name(format!("exsample-lane-{}", index + 1))
                    .spawn_scoped(scope, move || helper_loop(&helper_lane))
                    .expect("spawn engine pool worker thread");
                lane
            })
            .collect();
        WorkerPool { lanes, multicore }
    }

    /// Lanes a stage's work is cut over: the helpers plus the coordinator.
    pub(crate) fn lanes(&self) -> usize {
        self.lanes.len() + 1
    }

    /// Run one stage's DETECT slices: queue slices `1..` on the helpers, run
    /// slice 0 inline, then take every queued slice back in lane order.
    /// Every slice is run, exactly as the serial loop runs it, so pooled
    /// execution is observably identical to it.
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
            lane.post(Job::Detect(slice));
        }
        // The coordinator is the first lane: run slice 0 inline instead of
        // sleeping until the helpers finish.
        let mut panic = caught(|| slices[0].run());
        for lane in &self.lanes[..queued] {
            match lane.take_back() {
                Some((Job::Detect(slice), lane_panic)) => {
                    panic = panic.or(lane_panic);
                    slices.push(slice);
                }
                _ => unreachable!("a queued lane gives back the slice it was handed"),
            }
        }
        outcome(panic)
    }

    /// Run one stage's PICK: `batches[l]` is lane `l`'s.  With fewer than two
    /// non-empty batches, or one CPU, there is nothing to overlap, and every
    /// batch runs inline; otherwise batches `1..` are queued on their helpers, batch 0
    /// runs inline, and every queued batch is taken back in lane order.
    /// Each query's picks read only its own policy and RNG stream, so where
    /// a batch runs never changes a pick.
    ///
    /// # Errors
    /// Returns [`EngineError::WorkerPanicked`] if a policy panicked on any
    /// lane, inline ones included (the first panic in lane order wins).
    /// Every job is back in `batches` even on error.
    pub(crate) fn run_picks(&mut self, batches: &mut [PickBatch<'a>]) -> Result<(), EngineError> {
        debug_assert_eq!(batches.len(), self.lanes(), "one PICK batch per lane");
        let busy = batches.iter().filter(|batch| !batch.is_empty()).count();
        let [own, queued @ ..] = batches else {
            return Ok(());
        };
        if busy < 2 || !self.multicore {
            let panic = run_batch(own);
            return outcome(queued.iter_mut().map(run_batch).fold(panic, Option::or));
        }
        for (lane, batch) in self.lanes.iter().zip(queued.iter_mut()) {
            if !batch.is_empty() {
                lane.post(Job::Pick(std::mem::take(batch)));
            }
        }
        let mut panic = run_batch(own);
        for (lane, batch) in self.lanes.iter().zip(queued) {
            match lane.take_back() {
                None => {}
                Some((Job::Pick(jobs), lane_panic)) => {
                    panic = panic.or(lane_panic);
                    *batch = jobs;
                }
                Some(_) => unreachable!("a queued lane gives back the batch it was handed"),
            }
        }
        outcome(panic)
    }
}

/// A helper thread's lifetime: take a queued job (or observe shutdown), run
/// it, hand it back as `Done`, repeat.  Between jobs it first polls the lane
/// for [`POLL`], so a stage's next hand-over finds it running instead of
/// costing a wake-up — unless its own hand-over just woke a parked
/// coordinator, which the kernel may have placed on this CPU: then it parks
/// at once rather than poll against it.
fn helper_loop(lane: &Lane<'_>) {
    let mut poll = true;
    let mut turnstile = lane.lock();
    loop {
        match std::mem::replace(&mut turnstile.state, LaneState::Idle) {
            // Won the race against a coordinator reclaim.
            LaneState::Ready(mut job) => {
                turnstile.state = LaneState::Running;
                drop(turnstile);
                let panic = job.run();
                turnstile = lane.lock();
                if matches!(turnstile.state, LaneState::Shutdown) {
                    return;
                }
                poll = !lane.hand_over(&mut turnstile, LaneState::Done(job, panic));
            }
            LaneState::Shutdown => return,
            // Idle, or Done and not yet taken back.
            other => {
                turnstile.state = other;
                if poll {
                    poll = false;
                    let seen = lane.handovers.load(Ordering::Relaxed);
                    drop(turnstile);
                    lane.poll(seen);
                    turnstile = lane.lock();
                } else {
                    turnstile.helper_parked = true;
                    turnstile = lane.wait(turnstile);
                    turnstile.helper_parked = false;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{gather_slices, scatter_slices, Lanes, ShardRouter, ShardView};
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
        gather_slices(lanes, detectors, count, slices);
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
