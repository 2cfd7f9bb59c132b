//! Deterministic storage fault injection.
//!
//! [`FaultInjectingStorage`] wraps any [`Storage`] and injects short writes,
//! transient I/O errors and crash points according to a seeded
//! [`StoragePlan`] — the storage twin of the detector stack's
//! `FaultInjectingDetector`, and under the same determinism contract: never
//! `Math.random`-style nondeterminism.
//!
//! # Determinism contract
//!
//! A fault draw is a pure function of `(op, attempt)`, where `op` counts
//! *logical* operations (the store calls [`Storage::begin_op`] once before
//! each durable write it attempts, including compaction steps) and `attempt`
//! counts the physical calls made while retrying that logical operation.
//! Retrying a flaky append therefore re-rolls the schedule at the same `op`
//! with a higher `attempt`, exactly as a retried detector frame does.
//!
//! Three fault kinds are scheduled:
//!
//! * **transient I/O error** — with probability `transient_rate` a logical
//!   operation fails its first `transient_attempts` attempts with an
//!   `ErrorKind::Interrupted` [`StoreError::Io`], then succeeds.  This is
//!   the shape the store's truncate-and-retry machinery exists for.
//! * **short write** — with probability `short_write_rate` an append/write
//!   attempt persists only a prefix of its bytes and reports the short
//!   count, clearing after the same `transient_attempts` budget.  The
//!   prefix length is drawn from the same per-op stream, so it too is
//!   reproducible.
//! * **crash** — [`StoragePlan::crash_at`] names one *mutating physical
//!   call*; that call applies a partial effect (appends and writes persist a
//!   prefix — a torn tail; renames and truncates do nothing), then the
//!   backend behaves like a dead process: every subsequent call fails with
//!   [`StoreError::Crashed`].  The crash-matrix test sweeps `crash_at` over
//!   every mutating call index of a run.

use crate::error::StoreError;
use crate::storage::Storage;
use exsample_rand::SeedSequence;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A seeded, reproducible fault schedule for [`FaultInjectingStorage`].
///
/// All rates default to zero: `StoragePlan::new(seed)` injects nothing until
/// a builder method turns a fault kind on.  The plan is `Copy`-cheap
/// configuration; the wrapper derives its seed stream once at construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoragePlan {
    seed: u64,
    transient_rate: f64,
    transient_attempts: u32,
    short_write_rate: f64,
    crash_at: Option<u64>,
}

impl StoragePlan {
    /// A plan that injects nothing (until builder methods say otherwise).
    pub fn new(seed: u64) -> Self {
        StoragePlan {
            seed,
            transient_rate: 0.0,
            transient_attempts: 2,
            short_write_rate: 0.0,
            crash_at: None,
        }
    }

    /// Probability a logical operation draws transient I/O errors.
    pub fn transient_rate(mut self, rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "transient_rate must be a probability, got {rate}"
        );
        self.transient_rate = rate;
        self
    }

    /// How many attempts a transient operation fails before succeeding.
    pub fn transient_attempts(mut self, attempts: u32) -> Self {
        self.transient_attempts = attempts;
        self
    }

    /// Probability an append/write attempt persists only a prefix.
    pub fn short_write_rate(mut self, rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "short_write_rate must be a probability, got {rate}"
        );
        self.short_write_rate = rate;
        self
    }

    /// Crash at the `op`-th mutating physical call (0-based), then fail
    /// every subsequent call.
    pub fn crash_at(mut self, op: u64) -> Self {
        self.crash_at = Some(op);
        self
    }

    /// The plan's seed.
    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    /// Pure fault draw for one `(op, attempt)`: whether a transient error
    /// fires, whether a short write fires, and the fraction of bytes a
    /// partial write persists.
    fn draw(&self, seeds: &SeedSequence, op: u64, attempt: u32) -> (bool, bool, f64) {
        let mut rng = StdRng::seed_from_u64(seeds.index(op).seed());
        let transient_roll: f64 = rng.gen();
        let short_roll: f64 = rng.gen();
        let cut: f64 = rng.gen();
        let transient = transient_roll < self.transient_rate && attempt < self.transient_attempts;
        // Short writes clear after the same attempt budget as transients:
        // the injector models a flaky disk that heals under retry, which is
        // the shape the store's truncate-and-retry machinery exists for.
        let short = short_roll < self.short_write_rate && attempt < self.transient_attempts;
        (transient, short, cut)
    }
}

/// Shared fault counters, readable from outside after the wrapper has been
/// handed (boxed) to a store — clone a [`StorageFaultMonitor`] before that.
#[derive(Debug, Default)]
struct Counters {
    /// Logical operation counter (advanced by `begin_op`).
    logical_op: AtomicU64,
    /// Physical attempts within the current logical operation.
    attempt: AtomicU64,
    /// Total mutating physical calls — the `crash_at` axis.
    mutations: AtomicU64,
    crashed: AtomicBool,
    injected_transients: AtomicU64,
    injected_short_writes: AtomicU64,
}

/// Read-only handle onto a [`FaultInjectingStorage`]'s counters that stays
/// valid after the wrapper is boxed into a [`BeliefStore`](crate::BeliefStore).
#[derive(Debug, Clone)]
pub struct StorageFaultMonitor {
    counters: Arc<Counters>,
}

impl StorageFaultMonitor {
    /// Total mutating physical calls so far (the size of the crash matrix
    /// for a run that used this wrapper with no crash armed).
    pub fn mutations(&self) -> u64 {
        self.counters.mutations.load(Ordering::Relaxed)
    }

    /// How many transient I/O errors were injected.
    pub fn injected_transients(&self) -> u64 {
        self.counters.injected_transients.load(Ordering::Relaxed)
    }

    /// How many short writes were injected.
    pub fn injected_short_writes(&self) -> u64 {
        self.counters.injected_short_writes.load(Ordering::Relaxed)
    }

    /// Whether the simulated crash has fired.
    pub fn has_crashed(&self) -> bool {
        self.counters.crashed.load(Ordering::Relaxed)
    }
}

/// A [`Storage`] wrapper that injects the faults a [`StoragePlan`]
/// schedules.  See the module docs for the determinism contract.
#[derive(Debug)]
pub struct FaultInjectingStorage<S> {
    inner: S,
    plan: StoragePlan,
    seeds: SeedSequence,
    counters: Arc<Counters>,
}

impl<S: Storage> FaultInjectingStorage<S> {
    /// Wrap `inner` with the faults `plan` schedules.
    pub fn new(inner: S, plan: StoragePlan) -> Self {
        let seeds = SeedSequence::new(plan.seed()).derive("storage-fault-plan");
        FaultInjectingStorage {
            inner,
            plan,
            seeds,
            counters: Arc::default(),
        }
    }

    /// A counter handle that outlives handing this wrapper to a store.
    pub fn monitor(&self) -> StorageFaultMonitor {
        StorageFaultMonitor {
            counters: Arc::clone(&self.counters),
        }
    }

    fn check_alive(&self) -> Result<(), StoreError> {
        if self.counters.crashed.load(Ordering::Relaxed) {
            return Err(self.crashed());
        }
        Ok(())
    }

    /// Account one mutating physical call; `true` if this is the crash
    /// point (the caller applies the partial effect first where one exists).
    fn mutation_fires_crash(&self) -> bool {
        let index = self.counters.mutations.fetch_add(1, Ordering::Relaxed);
        if Some(index) == self.plan.crash_at {
            self.counters.crashed.store(true, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// The `(transient, short, cut)` draw for the current `(op, attempt)`,
    /// advancing the attempt counter.
    fn next_draw(&self) -> (bool, bool, f64) {
        let op = self.counters.logical_op.load(Ordering::Relaxed);
        let attempt = self.counters.attempt.fetch_add(1, Ordering::Relaxed) as u32;
        self.plan.draw(&self.seeds, op, attempt)
    }

    fn transient_error(&self, op: &'static str, name: &str) -> StoreError {
        self.counters
            .injected_transients
            .fetch_add(1, Ordering::Relaxed);
        StoreError::Io {
            op,
            file: name.to_string(),
            kind: std::io::ErrorKind::Interrupted,
            message: "injected transient i/o fault".to_string(),
        }
    }

    fn crashed(&self) -> StoreError {
        StoreError::Crashed {
            op: self.plan.crash_at.unwrap_or(0),
        }
    }

    /// The shared front of every mutation with no partial effect: a crash
    /// leaves the call undone, a transient fault fails it.
    fn gate(&self, op: &'static str, name: &str) -> Result<(), StoreError> {
        self.check_alive()?;
        let (transient, _, _) = self.next_draw();
        if self.mutation_fires_crash() {
            return Err(self.crashed());
        }
        if transient {
            return Err(self.transient_error(op, name));
        }
        Ok(())
    }

    /// An append or whole-file write (`inner_put`) under the fault schedule.
    fn put(
        &mut self,
        op: &'static str,
        name: &str,
        bytes: &[u8],
        inner_put: fn(&mut S, &str, &[u8]) -> Result<usize, StoreError>,
    ) -> Result<usize, StoreError> {
        self.check_alive()?;
        let (transient, short, cut) = self.next_draw();
        let partial = Self::cut_len(bytes.len(), cut);
        if self.mutation_fires_crash() {
            // The kill lands mid-write: a prefix reaches the disk, then the
            // process is gone.  This is the torn tail recovery must absorb.
            inner_put(&mut self.inner, name, &bytes[..partial])?;
            return Err(self.crashed());
        }
        if transient {
            return Err(self.transient_error(op, name));
        }
        if short {
            self.counters
                .injected_short_writes
                .fetch_add(1, Ordering::Relaxed);
            inner_put(&mut self.inner, name, &bytes[..partial])?;
            return Ok(partial);
        }
        inner_put(&mut self.inner, name, bytes)
    }

    /// Partial byte count for a torn write of `len` bytes: at least 0, at
    /// most `len - 1`.
    fn cut_len(len: usize, cut: f64) -> usize {
        if len == 0 {
            return 0;
        }
        ((len as f64 * cut) as usize).min(len - 1)
    }
}

impl<S: Storage> Storage for FaultInjectingStorage<S> {
    fn begin_op(&mut self) {
        self.counters.logical_op.fetch_add(1, Ordering::Relaxed);
        self.counters.attempt.store(0, Ordering::Relaxed);
    }

    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StoreError> {
        self.check_alive()?;
        self.inner.read(name)
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<usize, StoreError> {
        self.put("append", name, bytes, S::append)
    }

    fn write(&mut self, name: &str, bytes: &[u8]) -> Result<usize, StoreError> {
        self.put("write", name, bytes, S::write)
    }

    fn sync(&mut self, name: &str) -> Result<(), StoreError> {
        // A crash at fsync: the data written before it may or may not be
        // durable; we model the pessimistic half by keeping whatever the
        // backend already holds (the preceding writes) and dying here.
        self.gate("sync", name)?;
        self.inner.sync(name)
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), StoreError> {
        // Rename is atomic: a crash leaves it entirely undone.
        self.gate("rename", from)?;
        self.inner.rename(from, to)
    }

    fn remove(&mut self, name: &str) -> Result<(), StoreError> {
        self.gate("remove", name)?;
        self.inner.remove(name)
    }

    fn truncate(&mut self, name: &str, len: u64) -> Result<(), StoreError> {
        // Truncate either happened or it did not; model "did not".
        self.gate("truncate", name)?;
        self.inner.truncate(name, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    fn flaky_plan() -> StoragePlan {
        StoragePlan::new(7)
            .transient_rate(0.5)
            .transient_attempts(1)
            .short_write_rate(0.3)
    }

    /// Drive a fixed script of operations, recording each outcome's shape.
    fn script(storage: &mut FaultInjectingStorage<MemStorage>) -> Vec<String> {
        let mut outcomes = Vec::new();
        for i in 0..32u64 {
            storage.begin_op();
            let payload = vec![b'x'; 16 + (i as usize % 7)];
            let mut attempt = 0;
            loop {
                match storage.append("log", &payload) {
                    Ok(n) if n == payload.len() => {
                        outcomes.push(format!("op{i}:ok@{attempt}"));
                        break;
                    }
                    Ok(n) => outcomes.push(format!("op{i}:short{n}@{attempt}")),
                    Err(e) if e.is_transient() => outcomes.push(format!("op{i}:tr@{attempt}")),
                    Err(e) => panic!("unexpected error {e}"),
                }
                attempt += 1;
                assert!(attempt < 10, "operation never succeeded");
            }
        }
        outcomes
    }

    #[test]
    fn fault_schedule_is_reproducible() {
        let mut a = FaultInjectingStorage::new(MemStorage::new(), flaky_plan());
        let mut b = FaultInjectingStorage::new(MemStorage::new(), flaky_plan());
        let left = script(&mut a);
        let right = script(&mut b);
        assert_eq!(left, right);
        let (a, b) = (a.monitor(), b.monitor());
        assert!(
            a.injected_transients() > 0 && a.injected_short_writes() > 0,
            "the flaky plan should actually inject ({} transients, {} shorts)",
            a.injected_transients(),
            a.injected_short_writes()
        );
        assert_eq!(a.injected_transients(), b.injected_transients());
        assert_eq!(a.injected_short_writes(), b.injected_short_writes());
    }

    #[test]
    fn transient_faults_clear_after_the_configured_attempts() {
        let plan = StoragePlan::new(11)
            .transient_rate(1.0)
            .transient_attempts(2);
        let mut storage = FaultInjectingStorage::new(MemStorage::new(), plan);
        storage.begin_op();
        assert!(storage.append("log", b"abcd").unwrap_err().is_transient());
        assert!(storage.append("log", b"abcd").unwrap_err().is_transient());
        assert_eq!(storage.append("log", b"abcd").unwrap(), 4);
        // A fresh logical op starts a fresh attempt counter.
        storage.begin_op();
        assert!(storage.append("log", b"abcd").unwrap_err().is_transient());
    }

    #[test]
    fn crash_applies_a_partial_write_then_kills_everything() {
        let plan = StoragePlan::new(3).crash_at(1);
        let mut storage = FaultInjectingStorage::new(MemStorage::new(), plan);
        storage.begin_op();
        assert_eq!(storage.append("log", b"0123456789").unwrap(), 10);
        storage.begin_op();
        let err = storage.append("log", b"0123456789").unwrap_err();
        assert_eq!(err, StoreError::Crashed { op: 1 });
        assert!(storage.monitor().has_crashed());
        // Dead means dead: reads and writes all fail now.
        assert!(storage.read("log").is_err());
        assert!(storage.append("log", b"x").is_err());
        assert!(storage.truncate("log", 0).is_err());
        // The torn tail survived: more than the first append, less than both.
        let survived = storage.inner.read("log").unwrap().unwrap();
        assert!(
            survived.len() >= 10 && survived.len() < 20,
            "{}",
            survived.len()
        );
    }

    #[test]
    fn zero_rate_plan_is_transparent() {
        let mut storage = FaultInjectingStorage::new(MemStorage::new(), StoragePlan::new(5));
        for _ in 0..8 {
            storage.begin_op();
            assert_eq!(storage.append("log", b"abc").unwrap(), 3);
        }
        storage.begin_op();
        storage.sync("log").unwrap();
        let monitor = storage.monitor();
        assert_eq!(monitor.mutations(), 9);
        assert_eq!(monitor.injected_transients(), 0);
        assert_eq!(monitor.injected_short_writes(), 0);
        assert_eq!(storage.inner.read("log").unwrap().unwrap().len(), 24);
    }
}
