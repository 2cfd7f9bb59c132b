//! The persistent worker-pool execution runtime — the engine's one way of
//! running a stage's DETECT on more than one thread.
//!
//! Spawning and joining threads inside every stage costs more than a cheap
//! detector does (the capture that introduced this pool measured ~+28 % over
//! serial for per-stage spawns at 2 shards / 8 queries / 2 threads, against
//! +1.2 % for the pool; the `parallel_detect_scoped` rows of
//! `BENCH_sharded.json` are the last capture of that deleted design), so
//! parallel runs use a [`WorkerPool`] of long-lived helper threads created
//! **once per engine run** and reused by every stage of that run.  A serial run is simply the pool with zero helpers: the engine never
//! spawns one and its stage loop detects every worker inline.
//!
//! * **Spawn once, dispatch many.**  [`crate::QueryEngine::run_with`] (and
//!   [`crate::QueryEngine::run`]) open one `std::thread::scope` around the
//!   whole stage loop and spawn `n - 1` helper threads into it (the calling
//!   thread itself is the `n`-th lane — it detects the first worker chunk
//!   inline instead of sleeping on a channel).  Each stage then queues work
//!   on the already-running helpers' Mutex+Condvar **turnstiles** — a condvar
//!   wake, not a thread spawn.  No busy-waiting anywhere: idle helpers are
//!   parked in `Condvar::wait`.
//! * **Two halves.**  `WorkerPool::dispatch_stage` queues the helpers'
//!   chunks and returns; `WorkerPool::join_stage` detects the coordinator's
//!   own chunk, collects the rest and reassembles the workers.  The engine's
//!   stage loop calls them as its `launch` and `land` phases; whatever it
//!   does in between (under [`crate::QueryEngine::overlap`]: planning the
//!   next stage) runs alongside the helpers' DETECT.
//! * **Help-first reclaim.**  After detecting its own chunk, the coordinator
//!   *reclaims* any queued chunk whose helper has not started it and runs it
//!   inline.  On a saturated or single-vCPU host — where a helper wake could
//!   only add scheduling latency — the whole handoff therefore collapses to
//!   two uncontended mutex operations and the stage never blocks; on idle
//!   multicore hardware the helpers win the race and the chunks execute
//!   genuinely in parallel.  Which side runs a chunk affects wall-clock
//!   placement only, never results.
//! * **Worker-resident lanes.**  The per-shard [`ShardWorker`]s — lanes,
//!   result maps, detect scratch — are *moved* into the stage's jobs and
//!   moved back with the results, so every allocation they carry is recycled
//!   across stages and across runs; nothing is rebuilt per stage, and no
//!   `unsafe` is needed to share them (ownership transfer, not aliasing).
//!   The chunk buffers that carry workers through the channels are recycled
//!   by the pool itself ([`WorkerPool::spare`]).
//! * **Phase structure preserved.**  The per-worker *probe* and *detect*
//!   phases are dispatched (each lane probes the lock-striped cache for its
//!   own workers — membership reads and commutative tallies only); the
//!   serial commit arbitration ([`crate::cache::CacheTxn`]) and the
//!   registration-order fan-out run on the coordinator exactly as in serial
//!   mode, which is why pooled execution stays bitwise-identical to serial
//!   (the determinism suite pins threads {1, 2, 4} × shards {1, 3, 7} × both
//!   partitioners).
//! * **Clean shutdown, typed panics.**  Helpers exit when the pool is
//!   dropped — the engine guarantees this happens before the scope closes,
//!   even if a stage errors or a caller hook panics, so a run can never leak
//!   or deadlock its threads, and the scope joins every helper before `run`
//!   returns.  A detector panic inside any lane (helper *or* the
//!   coordinator's inline lane) is caught, the affected workers are returned
//!   to the engine, and the stage surfaces [`EngineError::WorkerPanicked`]
//!   instead of unwinding or hanging.
//! * **No global state.**  Helper-thread lifecycle counts live in a
//!   `PoolCounters` handle owned by the engine (and shared with the pools
//!   it spawns), read through [`crate::QueryEngine::live_helper_threads`] /
//!   [`crate::QueryEngine::spawned_helper_threads`] — concurrent engines
//!   never see each other's threads.

use crate::cache::StripedDetectionCache;
use crate::error::EngineError;
use crate::shard::{aggregate_detect, DetectPolicy, ShardWorker};
use exsample_detect::Detector;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
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

/// The immutable per-stage context every lane needs to run its probe and
/// detect phases: the stage's logical detector groups, their registry slots,
/// whether same-slot lanes share results (cache on, coalescing off), the
/// stage's fault-handling policy, and the shared striped cache (probed from
/// the lane thread itself — stripe reads and commutative tallies only, so
/// which thread probes never affects accounting).  Shared across lanes
/// behind one `Arc` per stage.
pub(crate) struct StageCtx<'a> {
    pub(crate) detectors: Vec<&'a dyn Detector>,
    pub(crate) slots: Vec<u32>,
    pub(crate) share_lanes: bool,
    pub(crate) policy: DetectPolicy,
    /// The shared cross-stage cache, when enabled: each lane probes its own
    /// workers before detecting them.
    pub(crate) cache: Option<Arc<StripedDetectionCache>>,
    /// Whether lanes coalesce (sort + dedup) their frames before probing.
    pub(crate) coalesce: bool,
    /// When set, a chunk's workers are detected together by cross-shard
    /// batch aggregation ([`aggregate_detect`]) with this flush limit,
    /// instead of each worker running its own per-shard lanes.  Aggregated
    /// stages ship *all* workers as one chunk — the aggregated batch is the
    /// cross-shard batch, so there is nothing left to split across lanes.
    pub(crate) aggregate: Option<usize>,
}

/// One stage's work for one helper lane: the contiguous chunk of shard
/// workers it owns this stage (by value — ownership transfer is what makes
/// the handoff safe without locks) plus the shared stage context.
struct Job<'a> {
    /// Index of this chunk in the stage's worker partition (chunk 0 is the
    /// coordinator's inline lane and never crosses a channel).
    chunk: usize,
    ctx: Arc<StageCtx<'a>>,
    workers: Vec<ShardWorker>,
}

/// A lane's completed stage work, sent back to the coordinator.
struct Done {
    chunk: usize,
    /// The chunk's workers, returned even when the lane panicked (their
    /// buffers are recycled into the next stage; a panicked stage's tallies
    /// are unspecified, but the run is erroring out anyway).
    workers: Vec<ShardWorker>,
    /// The panic message, if the lane's detect pass panicked.
    panic: Option<String>,
}

/// An in-flight dispatched stage: the handle [`WorkerPool::dispatch_stage`]
/// returns and exactly one [`WorkerPool::join_stage`] call consumes.  Between the two calls, chunks
/// `1..` of the stage sit on (or run from) the helper turnstiles while chunk
/// 0 still lives in the engine's worker vector — which is what lets the
/// coordinator interleave other work (the next stage's PICK) with the
/// helpers' DETECT.
pub(crate) struct StageDispatch<'a> {
    chunks: usize,
    ctx: Arc<StageCtx<'a>>,
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

/// Run one lane's probe + detect pass, catching panics so a poisoned
/// detector can never strand the coordinator (the lane always reports back).
/// The cache probe runs here — on the lane's own thread, as the first half
/// of the dispatched work — rather than as a serial coordinator pass; see
/// the cache module docs for why probe placement cannot affect accounting.
/// Each worker is probed exactly once per stage (the engine never
/// pre-probes dispatched workers).  Typed detect failures are *not* errors
/// here: they land on the workers themselves (tallies and
/// [`ShardWorker::fatal`]) and the engine inspects them when it settles the
/// stage.
fn detect_chunk(workers: &mut [ShardWorker], ctx: &StageCtx<'_>) -> Option<String> {
    catch_unwind(AssertUnwindSafe(|| {
        for worker in workers.iter_mut() {
            worker.probe(&ctx.slots, ctx.coalesce, ctx.cache.as_deref());
        }
        run_detect(
            workers,
            &ctx.detectors,
            &ctx.slots,
            ctx.share_lanes,
            ctx.policy,
            ctx.aggregate,
        )
    }))
    .err()
    .map(panic_message)
}

/// The detect half of a lane (after every worker in it has probed): one
/// cross-shard [`aggregate_detect`] over the lane's workers when `aggregate`
/// carries a flush limit, otherwise each worker's own per-shard lanes.  Also
/// what a helper-less (serial) stage runs inline over all workers.
pub(crate) fn run_detect(
    workers: &mut [ShardWorker],
    detectors: &[&dyn Detector],
    slots: &[u32],
    share_lanes: bool,
    policy: DetectPolicy,
    aggregate: Option<usize>,
) {
    match aggregate {
        Some(max_batch) => {
            aggregate_detect(workers, detectors, slots, share_lanes, policy, max_batch)
        }
        None => {
            for worker in workers.iter_mut() {
                worker.detect(detectors, slots, share_lanes, policy);
            }
        }
    }
}

/// One helper lane's handoff turnstile: a `Mutex`-guarded job slot plus the
/// `Condvar` its helper thread blocks on between stages.
///
/// The turnstile — rather than a plain channel — exists for one reason: the
/// coordinator can **reclaim** a job the helper has not started yet
/// ([`LaneState::Ready`] → taken back) and run it inline.  On a saturated or
/// single-vCPU host the helper often is not scheduled before the coordinator
/// finishes its own chunk, so reclaiming collapses the entire per-stage
/// handoff (wake, block, wake) into two uncontended mutex operations; on real
/// hardware the helper wins the race, marks the lane [`LaneState::Running`],
/// and the chunks genuinely execute in parallel.  Either way the same chunk
/// is detected with the same worker-resident state, so the race affects
/// wall-clock only — never results.
struct LaneSlot<'a> {
    state: Mutex<LaneState<'a>>,
    turnstile: Condvar,
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
    /// One turnstile per helper thread; helper `i` serves chunk `i + 1` of
    /// each dispatched stage (chunk 0 runs inline on the coordinator).
    lanes: Vec<Arc<LaneSlot<'a>>>,
    /// Consecutive chunks of each helper reclaimed by the coordinator — the
    /// wake-stickiness state: a helper at or past [`DISENGAGE_AFTER`] misses
    /// is not woken per stage, its queued chunks are simply reclaimed.
    consecutive_misses: Vec<u32>,
    /// Stages dispatched so far (drives periodic re-engagement).
    dispatched_stages: u64,
    /// Per-stage panic scratch, indexed by chunk (chunk 0 is the inline
    /// lane), so the reported panic is the first in *chunk* order no matter
    /// in which order helper completions arrive.
    lane_panics: Vec<Option<String>>,
    /// Completion channel shared by all helpers (used only for jobs a helper
    /// actually ran; reclaimed jobs never touch it).
    done_rx: Receiver<Done>,
    /// Recycled chunk buffers: the `Vec<ShardWorker>`s that carry workers
    /// through the turnstiles, reused across stages so steady-state dispatch
    /// allocates nothing but one `Arc<StageCtx>` per stage.
    spare: Vec<Vec<ShardWorker>>,
    /// Per-stage reassembly scratch, indexed by chunk.
    returned: Vec<Option<Vec<ShardWorker>>>,
}

/// Disengage a helper after this many *consecutive* reclaimed chunks.
///
/// One lost race must not cost a multicore host its parallelism — a helper
/// can lose a single race to a transient OS stall — so a helper is only
/// stopped being woken once the coordinator has reclaimed its chunk this
/// many stages in a row (the pattern of a host that is not scheduling it at
/// all, e.g. one vCPU).  Any chunk the helper does run resets its count.
const DISENGAGE_AFTER: u32 = 2;

/// Wake disengaged helpers every this many dispatched stages.
///
/// A helper whose last [`DISENGAGE_AFTER`] chunks were all reclaimed is
/// probably not getting scheduled (the host is saturated, or has one vCPU);
/// waking it again every stage would buy a context switch and nothing else,
/// so its queued chunks go un-notified — still reclaimable — until the next
/// re-engagement stage offers it work again.  On an idle multicore host a
/// helper re-engages within one period of a (multi-stage) stall — and with a
/// detector expensive enough for parallelism to matter, helpers win their
/// races and never disengage in the first place; on a 1-vCPU host the
/// steady state is one wake per helper per period instead of per stage.
const REENGAGE_PERIOD: u64 = 32;

impl Drop for WorkerPool<'_> {
    fn drop(&mut self) {
        for lane in &self.lanes {
            {
                let mut state = lane.state.lock().expect("lane mutex is never poisoned");
                *state = LaneState::Shutdown;
            }
            lane.turnstile.notify_one();
        }
    }
}

impl<'a> WorkerPool<'a> {
    /// Spawn `helpers` long-lived worker threads into `scope`.
    ///
    /// The pool supports stages of up to `helpers + 1` lanes: the calling
    /// thread always executes the first chunk inline, so an engine running
    /// `n`-way parallel stages spawns `n - 1` helpers.
    pub(crate) fn spawn<'scope, 'env>(
        scope: &'scope Scope<'scope, 'env>,
        helpers: usize,
        counters: &Arc<PoolCounters>,
    ) -> WorkerPool<'a>
    where
        'a: 'scope,
    {
        let (done_tx, done_rx) = channel::<Done>();
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
            spare: Vec::new(),
            returned: Vec::new(),
        }
    }

    /// First half of a stage's detect pass: partition `workers` into one
    /// contiguous chunk per lane (helpers + the coordinator), queue chunks
    /// `1..` on the helper turnstiles and return the in-flight stage handle.
    /// Chunk 0 stays in `workers`; it is detected by
    /// [`WorkerPool::join_stage`], which must be called exactly once with the
    /// returned handle (the coordinator may do other work — the next stage's
    /// planning — in between).
    ///
    /// An *aggregated* stage (`ctx.aggregate` set) is one serialised
    /// cross-shard gather/scatter, so there is no partition to spread over
    /// lanes: every worker ships as one job (chunk 1) to the first helper and
    /// the coordinator's chunk 0 is empty — which still lets the coordinator
    /// plan the next stage concurrently under overlap.  The job remains
    /// reclaimable exactly like any queued chunk: on a saturated host
    /// [`WorkerPool::join_stage`] takes it back and runs it inline, same two
    /// mutex operations as ever.
    pub(crate) fn dispatch_stage(
        &mut self,
        workers: &mut Vec<ShardWorker>,
        ctx: StageCtx<'a>,
    ) -> StageDispatch<'a> {
        debug_assert!(
            !self.lanes.is_empty(),
            "dispatching a stage needs at least one helper"
        );
        let ctx = Arc::new(ctx);
        self.dispatched_stages += 1;
        if ctx.aggregate.is_some() {
            let mut buf = self.spare.pop().unwrap_or_default();
            buf.append(workers);
            self.queue_chunk(1, buf, &ctx);
            return StageDispatch { chunks: 2, ctx };
        }
        let total = workers.len();
        let per_chunk = total.div_ceil(self.lanes.len() + 1);
        let chunks = total.div_ceil(per_chunk);
        // Carve chunks 1.. off the tail (cheap: draining a suffix shifts
        // nothing) and queue them on their helper turnstiles; chunk 0 stays
        // in `workers`.  Every queued lane was left Idle by the previous
        // stage (its Done was collected, or the coordinator reclaimed it).
        for chunk in (1..chunks).rev() {
            let mut buf = self.spare.pop().unwrap_or_default();
            buf.extend(workers.drain(chunk * per_chunk..));
            self.queue_chunk(chunk, buf, &ctx);
        }
        StageDispatch { chunks, ctx }
    }

    /// Queue one chunk on its helper's turnstile and wake the helper if it
    /// is engaged.
    fn queue_chunk(&mut self, chunk: usize, buf: Vec<ShardWorker>, ctx: &Arc<StageCtx<'a>>) {
        let reengage = self.dispatched_stages.is_multiple_of(REENGAGE_PERIOD);
        let slot = &self.lanes[chunk - 1];
        {
            let mut state = slot.state.lock().expect("lane mutex is never poisoned");
            debug_assert!(matches!(*state, LaneState::Idle));
            *state = LaneState::Ready(Job {
                chunk,
                ctx: Arc::clone(ctx),
                workers: buf,
            });
        }
        // Wake the helper — with the mutex released, so it never stalls
        // on a lock the coordinator still holds.  Disengaged helpers
        // (their last DISENGAGE_AFTER chunks were all reclaimed, so
        // waking them only buys a context switch on a host that isn't
        // scheduling them anyway) are left parked except on
        // re-engagement stages; their queued chunk is picked up by the
        // reclaim pass in [`WorkerPool::join_stage`].
        if self.consecutive_misses[chunk - 1] < DISENGAGE_AFTER || reengage {
            slot.turnstile.notify_one();
        }
    }

    /// Second half of a stage's detect pass: detect chunk 0 inline, reclaim
    /// queued chunks whose helpers have not started, await the rest, and
    /// reassemble `workers` in shard order — every worker's detect pass
    /// executed, exactly what the serial loop produces, so pooled dispatch is
    /// observably identical to it.
    ///
    /// # Errors
    /// Returns [`EngineError::WorkerPanicked`] if any lane's detect pass
    /// panicked (the first panic in chunk order wins).  All workers are
    /// reassembled into `workers` even on error.
    pub(crate) fn join_stage(
        &mut self,
        workers: &mut Vec<ShardWorker>,
        dispatch: StageDispatch<'a>,
    ) -> Result<(), EngineError> {
        let StageDispatch { chunks, ctx } = dispatch;

        // The coordinator is the first lane: detect chunk 0 inline instead of
        // sleeping until the helpers finish.  Panics are caught exactly like
        // a helper's, so a poisoned detector surfaces as a typed error no
        // matter which shard it lives on.
        self.lane_panics.clear();
        self.lane_panics.resize_with(chunks, || None);
        self.lane_panics[0] = detect_chunk(workers, &ctx);

        // Reclaim pass: any queued chunk whose helper has not started yet is
        // taken back and detected right here.  On a busy or single-vCPU host
        // this is the common case — the handoff collapses to two mutex
        // operations and the stage never blocks — while on idle multicore
        // hardware the helpers have already flipped their lanes to Running
        // and the chunks are executing concurrently.
        self.returned.clear();
        self.returned.resize_with(chunks, || None);
        let mut outstanding = 0usize;
        for chunk in 1..chunks {
            let slot = &self.lanes[chunk - 1];
            let reclaimed = {
                let mut state = slot.state.lock().expect("lane mutex is never poisoned");
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
                    self.consecutive_misses[chunk - 1] =
                        self.consecutive_misses[chunk - 1].saturating_add(1);
                    self.lane_panics[job.chunk] = detect_chunk(&mut job.workers, &job.ctx);
                    self.returned[job.chunk] = Some(job.workers);
                }
                None => {
                    self.consecutive_misses[chunk - 1] = 0;
                    outstanding += 1;
                }
            }
        }

        // Await the chunks a helper genuinely ran, then splice everything
        // back in shard order.
        for _ in 0..outstanding {
            let done = self
                .done_rx
                .recv()
                .expect("every running lane reports back, panicked or not");
            self.lane_panics[done.chunk] = done.panic;
            self.returned[done.chunk] = Some(done.workers);
        }
        for slot in &mut self.returned[1..] {
            let mut buf = slot.take().expect("every chunk was collected");
            workers.append(&mut buf);
            self.spare.push(buf);
        }

        // Completion order is scheduler-dependent, chunk order is not: the
        // reported panic is deterministically the first in chunk order.
        match self.lane_panics.iter_mut().find_map(Option::take) {
            Some(message) => Err(EngineError::WorkerPanicked { message }),
            None => Ok(()),
        }
    }
}

/// A helper thread's lifetime: block on the turnstile until a job is queued
/// (or shutdown is signalled), run it, report the result, repeat.
fn helper_loop(slot: &LaneSlot<'_>, done_tx: &Sender<Done>, counters: Arc<PoolCounters>) {
    let _live = LiveGuard::new(counters);
    loop {
        let Job {
            chunk,
            ctx,
            mut workers,
        } = {
            let mut state = slot.state.lock().expect("lane mutex is never poisoned");
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
                            .expect("lane mutex is never poisoned");
                    }
                }
            }
        };
        let panic = detect_chunk(&mut workers, &ctx);
        {
            let mut state = slot.state.lock().expect("lane mutex is never poisoned");
            if !matches!(*state, LaneState::Shutdown) {
                *state = LaneState::Idle;
            }
        }
        if done_tx
            .send(Done {
                chunk,
                workers,
                panic,
            })
            .is_err()
        {
            // Coordinator gone (it only drops the completion receiver with
            // the whole pool).
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exsample_detect::{FrameDetections, ObjectClass};
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

    /// One stage's dispatch + join, back to back.
    fn run_stage<'a>(
        pool: &mut WorkerPool<'a>,
        workers: &mut Vec<ShardWorker>,
        ctx: StageCtx<'a>,
    ) -> Result<(), EngineError> {
        let dispatch = pool.dispatch_stage(workers, ctx);
        pool.join_stage(workers, dispatch)
    }

    /// A worker with `frames` routed into one lane of group 0, ready for a
    /// dispatched probe + detect pass (`detect_chunk` probes; pre-probing
    /// here would double the miss lists).
    fn loaded_worker(shard: u32, frames: &[FrameId]) -> ShardWorker {
        let mut worker = ShardWorker::new(shard);
        worker.begin_stage(1, 1);
        for &frame in frames {
            worker.push_frame(0, frame);
        }
        worker
    }

    #[test]
    fn pool_round_trips_workers_and_recycles_buffers() {
        let detector = NoopDetector(ObjectClass::from("car"));
        let counters = Arc::new(PoolCounters::default());
        std::thread::scope(|scope| {
            let mut pool = WorkerPool::spawn(scope, 2, &counters);
            assert_eq!(pool.lanes.len(), 2);
            let mut workers: Vec<ShardWorker> = (0..3)
                .map(|s| loaded_worker(s, &[s as u64, 10 + s as u64]))
                .collect();
            for _stage in 0..4 {
                let ctx = StageCtx {
                    detectors: vec![&detector, &detector, &detector],
                    slots: vec![0, 0, 0],
                    share_lanes: false,
                    policy: DetectPolicy::infallible(),
                    aggregate: None,
                    cache: None,
                    coalesce: true,
                };
                run_stage(&mut pool, &mut workers, ctx).expect("no panics");
                // Shard order is restored exactly.
                let shards: Vec<u32> = workers.iter().map(ShardWorker::shard).collect();
                assert_eq!(shards, vec![0, 1, 2]);
                for worker in &mut workers {
                    let shard = worker.shard();
                    worker.begin_stage(1, 1);
                    worker.push_frame(0, shard as u64);
                }
            }
            // Chunk buffers were recycled, not re-allocated per stage.
            assert!(pool.spare.len() <= 2);
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
            // Chunk 0 (inline) uses the noop detector; chunk 1 (helper) gets
            // the bomb via its own worker's lane.
            let mut workers = vec![loaded_worker(0, &[1]), loaded_worker(1, &[2])];
            let ctx = StageCtx {
                detectors: vec![&noop as &dyn Detector, &bomb],
                slots: vec![0, 1],
                share_lanes: false,
                policy: DetectPolicy::infallible(),
                aggregate: None,
                cache: None,
                coalesce: true,
            };
            // Shard 1's frames went to group 0's lane above; re-load shard 1
            // so its lane belongs to the bomb's group instead.
            workers[1] = {
                let mut worker = ShardWorker::new(1);
                worker.begin_stage(2, 1);
                worker.push_frame(1, 2);
                worker
            };
            let err = run_stage(&mut pool, &mut workers, ctx).unwrap_err();
            match err {
                EngineError::WorkerPanicked { message } => {
                    assert!(message.contains("bomb detector"), "message: {message}")
                }
                other => panic!("expected WorkerPanicked, got {other:?}"),
            }
            // Both workers were reassembled despite the panic.
            assert_eq!(workers.len(), 2);
            assert_eq!(workers[0].shard(), 0);
            assert_eq!(workers[1].shard(), 1);
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
            let mut workers = vec![loaded_worker(0, &[7]), loaded_worker(1, &[8])];
            let ctx = StageCtx {
                detectors: vec![&bomb as &dyn Detector],
                slots: vec![0],
                share_lanes: false,
                policy: DetectPolicy::infallible(),
                aggregate: None,
                cache: None,
                coalesce: true,
            };
            let err = run_stage(&mut pool, &mut workers, ctx).unwrap_err();
            assert!(matches!(err, EngineError::WorkerPanicked { .. }));
            drop(pool);
        });
        assert_eq!(counters.live(), 0);
    }
}
