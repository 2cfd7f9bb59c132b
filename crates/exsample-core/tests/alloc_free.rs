//! Proof that the chunk-selection hot path performs no heap allocations in
//! steady state.
//!
//! Uses a counting wrapper around the system allocator.  The selection
//! functions (`select_chunk` / `select_batch_into`) are pinned to exactly zero
//! allocations.  The full pick loop (`next_frame` and `next_batch_into`) is
//! pinned after warm-up for both within-chunk samplers: under `Uniform`, whose
//! sparse Fisher–Yates maps keep growing, to fewer than one allocation per two
//! picks; under the default `random+`, whose round buffers are reused and grow
//! only by doubling as its rounds grow, to fewer than one per fifty.

use exsample_core::{policy, ExSample, ExSampleConfig, WithinChunkSampling};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: delegates directly to the system allocator; the counter is atomic.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// The allocation counter is process-global, so tests that read it must not
/// run concurrently with each other.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn selection_is_allocation_free_after_warmup() {
    let _guard = SERIAL.lock().unwrap();
    let config = ExSampleConfig::default().with_within_chunk(WithinChunkSampling::Uniform);
    let mut sampler = ExSample::new(config, &[100_000u64; 512]);
    let mut rng = StdRng::seed_from_u64(1);

    // Warm up: seed some statistics (cache refreshes happen in place), run a
    // first batched call so the scratch buffers exist, and let the ziggurat
    // tables initialise.
    for j in 0..512 {
        let pick = sampler.next_frame(&mut rng).expect("frames remain");
        sampler.record(pick.chunk, i64::from(j % 3 == 0));
    }
    let mut picks = Vec::with_capacity(64);
    sampler.next_batch_into(&mut rng, 64, &mut picks);

    // Single picks: the selection layer must not allocate at all; what remains
    // is the 512 within-chunk samplers' sparse Fisher–Yates maps growing
    // amortisedly.  The pre-refactor pick allocated >= 2 vectors per pick
    // (eligibility mask + select_batch result) on top of that, so anything well
    // under 1 allocation per pick demonstrates the selection layer is clean.
    let before = allocations();
    let picks_taken = 2_000;
    for _ in 0..picks_taken {
        let pick = sampler.next_frame(&mut rng).expect("frames remain");
        sampler.record(pick.chunk, 0);
    }
    let single_allocs = allocations() - before;
    assert!(
        single_allocs < picks_taken / 2,
        "expected only amortised within-chunk allocations (pre-refactor: >= {} just for selection), got {single_allocs}",
        2 * picks_taken
    );

    // Batched picks through the warm buffers: same bound per pick.
    let before = allocations();
    let mut batched_taken = 0usize;
    for _ in 0..50 {
        sampler.next_batch_into(&mut rng, 64, &mut picks);
        batched_taken += picks.len();
        for p in &picks {
            sampler.record(p.chunk, 0);
        }
    }
    let batch_allocs = allocations() - before;
    assert!(
        batch_allocs < batched_taken / 2,
        "expected only amortised within-chunk allocations, got {batch_allocs} for {batched_taken} picks"
    );
}

#[test]
fn random_plus_pick_loop_is_allocation_free_after_warmup() {
    let _guard = SERIAL.lock().unwrap();
    // Default config: `random+` inside every chunk.  Warm-up runs 512 picks
    // per chunk on average, so the samplers have grown their round buffers
    // through about nine rounds; later rounds need more room only at doublings.
    let mut sampler = ExSample::new(ExSampleConfig::default(), &[100_000u64; 512]);
    let mut rng = StdRng::seed_from_u64(4);
    let mut picks = Vec::with_capacity(64);
    for _ in 0..512 {
        sampler.next_batch_into(&mut rng, 512, &mut picks);
        for (j, p) in picks.iter().enumerate() {
            sampler.record(p.chunk, i64::from(j % 7 == 0));
        }
    }

    // Before its round buffers were reused, `random+` allocated a fresh round
    // vector per round and two `taken` vectors per split: on this test, 794
    // allocations in the single burst and 13,553 in the batched one.
    let before = allocations();
    let picks_taken = 2_000;
    for _ in 0..picks_taken {
        let pick = sampler.next_frame(&mut rng).expect("frames remain");
        sampler.record(pick.chunk, 0);
    }
    let single_allocs = allocations() - before;
    assert!(
        single_allocs < picks_taken / 50,
        "random+ single picks: {single_allocs} allocations for {picks_taken} picks"
    );

    let before = allocations();
    let mut batched_taken = 0usize;
    for _ in 0..200 {
        sampler.next_batch_into(&mut rng, 64, &mut picks);
        batched_taken += picks.len();
        for p in &picks {
            sampler.record(p.chunk, 0);
        }
    }
    let batch_allocs = allocations() - before;
    assert!(
        batch_allocs < batched_taken / 50,
        "random+ batched picks: {batch_allocs} allocations for {batched_taken} picks"
    );
}

#[test]
fn policy_selection_allocates_exactly_zero() {
    let _guard = SERIAL.lock().unwrap();
    // Pin the selection functions themselves (no within-chunk sampling at all)
    // to exactly zero allocations.
    let config = ExSampleConfig::default();
    let mut stats = exsample_core::ChunkStatsSet::new(1_024);
    let mut rng = StdRng::seed_from_u64(2);
    for j in 0..1_024 {
        stats.record(j, i64::from(j % 5 == 0));
    }
    let eligible = vec![true; 1_024];
    let mut out = Vec::new();
    let mut scratch = Vec::new();
    // Warm-up (ziggurat tables, scratch buffers).
    let _ = policy::select_chunk(&config, &stats, &eligible, &mut rng);
    policy::select_batch_into(
        &config,
        &stats,
        &eligible,
        32,
        &mut rng,
        &mut out,
        &mut scratch,
    );

    // The counter is process-global, so one-time lazy initialisation inside
    // the standard library (e.g. libtest's mpmc channel context installing its
    // thread-local during the window) can land in a measurement interval.
    // Such init happens at most once per thread, so re-running the window
    // separates it from the selection layer: the assertion demands a *clean*
    // window, which only exists if selection itself never allocates.
    let mut window_allocs = usize::MAX;
    for _attempt in 0..3 {
        let before = allocations();
        for _ in 0..1_000 {
            let j = policy::select_chunk(&config, &stats, &eligible, &mut rng).unwrap();
            assert!(j < 1_024);
        }
        for _ in 0..20 {
            policy::select_batch_into(
                &config,
                &stats,
                &eligible,
                32,
                &mut rng,
                &mut out,
                &mut scratch,
            );
            assert_eq!(out.len(), 32);
        }
        window_allocs = allocations() - before;
        if window_allocs == 0 {
            break;
        }
    }
    assert_eq!(
        window_allocs, 0,
        "chunk selection must perform zero heap allocations"
    );
}

#[test]
fn class_max_selection_allocates_exactly_zero() {
    let _guard = SERIAL.lock().unwrap();
    // Same zero-allocation pin for the hybrid belief-class fold at M = 1000,
    // single and batched, on a posterior that exercises both of its arms: two
    // large classes ((1, 1) and (0, 1)) that draw their maximum and 24
    // singletons that draw per chunk.
    let config = ExSampleConfig::default();
    let mut stats = exsample_core::ChunkStatsSet::new(1_000);
    let mut rng = StdRng::seed_from_u64(3);
    for j in 0..1_000 {
        stats.record(j, i64::from(j % 5 == 0));
    }
    for j in 0..24 {
        stats.seed_chunk(j * 40, 0, 2 + j as u64);
    }
    assert_eq!(stats.class_count(), 26);
    // Partial eligibility exercises the filtered resolution path too.
    let mut eligible = vec![true; 1_000];
    for j in (0..1_000).step_by(3) {
        eligible[j] = false;
    }
    let mut out = Vec::new();
    let mut scratch = Vec::new();
    let _ = policy::select_chunk(&config, &stats, &eligible, &mut rng);
    policy::select_batch_into(
        &config,
        &stats,
        &eligible,
        32,
        &mut rng,
        &mut out,
        &mut scratch,
    );

    let mut window_allocs = usize::MAX;
    for _attempt in 0..3 {
        let before = allocations();
        for _ in 0..1_000 {
            let j = policy::select_chunk(&config, &stats, &eligible, &mut rng).unwrap();
            assert!(eligible[j]);
        }
        for _ in 0..20 {
            policy::select_batch_into(
                &config,
                &stats,
                &eligible,
                32,
                &mut rng,
                &mut out,
                &mut scratch,
            );
            assert_eq!(out.len(), 32);
        }
        window_allocs = allocations() - before;
        if window_allocs == 0 {
            break;
        }
    }
    assert_eq!(
        window_allocs, 0,
        "the hybrid fold must perform zero heap allocations"
    );
}
