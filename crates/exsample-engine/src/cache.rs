//! Bounded frame→detections caches.
//!
//! The engine already shares detector results across queries *within* a stage
//! (coalescing); this module is the cross-stage landing point the ROADMAP
//! calls for: a long-running service keeps the detections of
//! recently-processed frames so queries arriving later (or re-issued queries)
//! pay zero detector cost for warm frames.  Entries are keyed by
//! `(detector, frame)` — the detector component matters because two detectors
//! (different object classes) produce different detections for the same
//! frame — and stored as `Arc<FrameDetections>`: a warm hit costs the worker
//! lane one `Arc::clone` (a reference-count bump), never a deep copy of the
//! detection list.
//!
//! Two implementations live here:
//!
//! * [`DetectionCache`] — the original single-threaded LRU, retained as the
//!   behavioural reference: the striped cache's eviction order is pinned
//!   against it by a scripted-trace test below.
//! * [`StripedDetectionCache`] — the concurrent cache the engine uses.  The
//!   key space is hashed across `N` lock stripes (per-stripe `Mutex`es), so
//!   callers on different threads can probe concurrently and only contend
//!   when their frames land on the same stripe.  (The engine itself probes
//!   from the coordinator — a stage's gather needs every lane's misses
//!   before any DETECT can start — so there the stripe locks are
//!   uncontended.)  Recency and eviction are *not* decided under the stripe
//!   locks: the engine records commit intents (its per-lane hit and miss
//!   lists) as it probes, and a serial commit pass —
//!   [`StripedDetectionCache::begin`] returning a [`CacheTxn`] — applies all
//!   recency touches, then all admissions/evictions, each kind sorted into
//!   canonical `(slot, frame)` order.  Because membership never changes
//!   between a stage's probes and its arbitration, probe outcomes are a pure
//!   function of the membership set, hit/miss tallies are commutative sums,
//!   and the order log the arbitration replays is identical no matter how
//!   many threads (or stripes) carried the probes.  Cache accounting —
//!   hit/miss/eviction/admission-reject tallies and which entries survive —
//!   is therefore bitwise-identical across every thread count × overlap
//!   setting, and
//!   bitwise-identical to the legacy serial LRU's eviction sequence.
//!
//! Off by default: caching changes the engine's detector cost accounting
//! (hits bypass `detect_batch`), so a cached run's detector cost is only
//! comparable to another cached run's.  Query *outcomes* are unaffected either way, because
//! detectors are pure functions of the frame id.  A stage whose every frame
//! is already resident also skips worker-thread dispatch entirely (its
//! probe, which runs before anything is handed out, leaves no detector
//! demand to gather) — no turnstile hand-off, no pool wake — so a warm
//! engine pays nothing for having parallel execution enabled (pinned by the
//! runtime lifecycle tests).
//!
//! The LRU order uses lazy deletion: every touch pushes a `(key, tick)`
//! entry onto a queue, and eviction pops queue entries until one matches its
//! key's current tick (stale entries — keys touched again later, or already
//! evicted — are discarded).  This keeps both hit and insert O(1) amortised
//! without an intrusive list.  In the striped cache the per-key recency
//! ticks live *beside* the order log in `LruState`, not in the stripes:
//! ticks are only ever read or written under the serial transaction, so a
//! recency touch never takes a stripe lock at all and a warm hit costs one
//! stripe lookup (the probe) plus one transaction-local map write — cheap
//! enough that the single-threaded probe/commit protocol benches at parity
//! with the legacy serial LRU.  Both internal maps hash with the same
//! deterministic SplitMix64 mixer used for stripe selection instead of the
//! standard library's SipHash, which is measurably faster on these small
//! fixed-width keys and keeps every internal decision reproducible across
//! processes.
//!
//! An optional frequency-sketch admission policy
//! ([`AdmissionPolicy::Frequency`], off by default) fronts the LRU with a
//! hand-rolled count-min sketch: a brand-new key arriving while the cache is
//! full is admitted only if its estimated access frequency is at least the
//! eviction candidate's, so a one-pass churning scan cannot flush a hot
//! working set.  The sketch is only ever updated during serial arbitration,
//! so admission decisions are as deterministic as the rest of the
//! accounting.

use exsample_detect::FrameDetections;
use exsample_video::FrameId;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};

/// Identifier of a distinct detector instance (assigned by the engine in
/// first-seen order; see `QueryEngine`'s detector registry).
pub type DetectorSlot = u32;

/// Cache key: one detector's view of one frame.
type Key = (DetectorSlot, FrameId);

/// Cache hit/miss/eviction counters.
///
/// Hits and misses are counted at probe time, evictions and admission
/// rejects at commit arbitration.  With coalescing *off*, two same-stage
/// lanes sharing a detector dedupe at probe time: the second lane reuses the
/// first lane's probe outcome directly (sharing its result or joining its
/// miss) without touching the cache, so a frame they have in common counts
/// once — matching the single physical detection it costs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the detector.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Inserts refused by the admission policy (always zero under
    /// [`AdmissionPolicy::Always`] and for the legacy serial LRU).
    pub admission_rejects: u64,
    /// Entries currently resident.
    pub len: usize,
}

/// Cache activity attributed to one scope (a stage, a shard, or a whole
/// run): the flow counters of [`CacheStats`] without the resident-size
/// snapshot.
///
/// The engine tallies probe and commit outcomes into these where they
/// happen — per stage, per run, and per shard of its report view — so
/// summing every shard's activity reproduces the run's totals exactly
/// (pinned by the determinism suite's shard-view test).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheActivity {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the detector.
    pub misses: u64,
    /// Evictions triggered by this scope's inserts.
    pub evictions: u64,
    /// Inserts refused by the admission policy.
    pub admission_rejects: u64,
}

impl CacheActivity {
    /// Fold another tally into this one.
    pub fn absorb(&mut self, other: CacheActivity) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.admission_rejects += other.admission_rejects;
    }
}

/// How the striped cache decides whether a brand-new key may displace a
/// resident entry when the cache is full.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Every insert is admitted; the least-recently-used entry is evicted to
    /// make room.  This matches the legacy serial LRU exactly.
    #[default]
    Always,
    /// TinyLFU-style frequency gate: a count-min sketch tracks access
    /// frequency, and a new key arriving at capacity is admitted only if its
    /// estimated frequency is at least the LRU victim's.  Protects a hot
    /// working set from one-pass scans at the cost of slower adaptation.
    Frequency,
}

/// Configuration for a [`StripedDetectionCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    pub(crate) capacity: usize,
    pub(crate) stripes: usize,
    pub(crate) admission: AdmissionPolicy,
}

/// Default lock-stripe count; enough to keep 4-way parallel probes from
/// serialising while staying cheap to fold for `stats()`.
const DEFAULT_STRIPES: usize = 8;

impl CacheConfig {
    /// A cache holding at most `capacity` frame entries, with the default
    /// stripe count and admission policy (admit always, like the legacy
    /// LRU).
    pub fn new(capacity: usize) -> Self {
        CacheConfig {
            capacity,
            stripes: DEFAULT_STRIPES,
            admission: AdmissionPolicy::Always,
        }
    }

    /// Set the lock-stripe count (rounded up to a power of two, capped at
    /// 1024).  Stripe count affects only contention, never accounting.
    pub fn stripes(mut self, stripes: usize) -> Self {
        self.stripes = stripes;
        self
    }

    /// Set the admission policy.
    pub fn admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }

    /// Maximum number of resident entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Requested lock-stripe count (before power-of-two rounding).
    pub fn stripe_count(&self) -> usize {
        self.stripes
    }
}

struct CacheEntry {
    detections: Arc<FrameDetections>,
    /// Tick of the entry's most recent touch; queue entries with an older
    /// tick are stale.
    tick: u64,
}

/// A bounded LRU map from `(detector, frame)` to detections.
pub struct DetectionCache {
    capacity: usize,
    map: HashMap<Key, CacheEntry>,
    /// Touch log for lazy-deletion LRU: front = least recent candidate.
    order: VecDeque<(Key, u64)>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl DetectionCache {
    /// Create a cache holding at most `capacity` frame entries.
    ///
    /// # Panics
    /// Panics if `capacity` is zero (use "no cache" instead of an empty one).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        DetectionCache {
            capacity,
            map: HashMap::with_capacity(capacity),
            order: VecDeque::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Maximum number of resident entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            admission_rejects: 0,
            len: self.map.len(),
        }
    }

    /// Look up a frame's detections, refreshing its recency on a hit.
    ///
    /// Returns the shared handle so callers keep the detections with an
    /// `Arc::clone` — a pointer bump, never a deep copy.
    pub fn get(&mut self, detector: DetectorSlot, frame: FrameId) -> Option<&Arc<FrameDetections>> {
        self.compact_if_bloated();
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(&(detector, frame)) {
            Some(entry) => {
                entry.tick = tick;
                self.order.push_back(((detector, frame), tick));
                self.hits += 1;
                Some(&entry.detections)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert a frame's detections, evicting the least-recently-used entry if
    /// the cache is full.  Inserting an already-resident key refreshes it.
    pub fn insert(
        &mut self,
        detector: DetectorSlot,
        frame: FrameId,
        detections: Arc<FrameDetections>,
    ) {
        self.tick += 1;
        let tick = self.tick;
        if self
            .map
            .insert((detector, frame), CacheEntry { detections, tick })
            .is_none()
            && self.map.len() > self.capacity
        {
            self.evict_one();
        }
        self.order.push_back(((detector, frame), tick));
        self.compact_if_bloated();
    }

    /// Drop stale touch-log entries once the log outgrows the live map.
    ///
    /// The lazy-deletion scheme only pops the log on evictions, so a fully
    /// warm, hit-dominated cache (the long-running-service shape) would
    /// otherwise grow the log by one entry per lookup forever.  Each retained
    /// entry's tick matches its key's current tick, so exactly one live log
    /// entry per resident key survives; the O(len) sweep is amortised by the
    /// 2× growth threshold.
    fn compact_if_bloated(&mut self) {
        if self.order.len() <= self.capacity.max(self.map.len()) * 2 {
            return;
        }
        let map = &self.map;
        self.order
            .retain(|(key, tick)| map.get(key).is_some_and(|entry| entry.tick == *tick));
    }

    /// Pop stale touch-log entries until one names the genuinely
    /// least-recently-used resident entry, and evict it.
    fn evict_one(&mut self) {
        while let Some((key, tick)) = self.order.pop_front() {
            let current = match self.map.get(&key) {
                Some(entry) => entry.tick,
                None => continue, // already evicted under a newer touch
            };
            if current != tick {
                continue; // touched again later; a fresher log entry exists
            }
            self.map.remove(&key);
            self.evictions += 1;
            return;
        }
        unreachable!("an over-capacity cache always has an evictable entry");
    }
}

impl std::fmt::Debug for DetectionCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DetectionCache")
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

/// SplitMix64 finalizer: a cheap, statistically strong bit mixer.  Used for
/// stripe selection and the sketch's row hashes so neither depends on the
/// standard library's randomised `HashMap` state — cache accounting must be
/// reproducible across processes.
fn mix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^= h >> 33;
    h
}

/// Deterministic key hash seeding stripe selection and the sketch rows.
fn key_hash((slot, frame): Key, seed: u64) -> u64 {
    mix64(frame ^ u64::from(slot).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed)
}

/// Fixed seed for stripe selection (any constant works; determinism is the
/// point).
const STRIPE_SEED: u64 = 0xE55A_171E_5EED;

/// Deterministic [`std::hash::Hasher`] over the [`mix64`] finalizer, used by
/// the striped cache's internal maps instead of the standard library's
/// SipHash: the keys are small fixed-width integers an adversary never
/// controls, SipHash costs several times more per lookup, and a
/// process-independent hash keeps every internal decision reproducible.
#[derive(Default)]
struct Mix64Hasher(u64);

impl std::hash::Hasher for Mix64Hasher {
    fn finish(&self) -> u64 {
        mix64(self.0)
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (unused by the `(u32, u64)` keys): FNV-style fold.
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = self.0.rotate_left(31) ^ u64::from(n);
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = self.0.rotate_left(31) ^ n;
    }
}

type Mix64Build = std::hash::BuildHasherDefault<Mix64Hasher>;

/// Per-row seeds for the count-min sketch.
const SKETCH_ROW_SEEDS: [u64; 4] = [
    0x9E37_79B9_7F4A_7C15,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0xFF51_AFD7_ED55_8CCD,
];

/// Hand-rolled count-min sketch approximating per-key access frequency for
/// the [`AdmissionPolicy::Frequency`] gate.
///
/// Four rows of saturating 4-bit-equivalent counters (stored as `u32`, halved
/// wholesale every `sample_period` additions so stale popularity decays).
/// Only ever mutated during serial commit arbitration, so estimates are
/// deterministic.
struct CountMinSketch {
    /// Row width minus one (width is a power of two).
    width_mask: u64,
    /// Four rows stored flat: `rows[row * width + column]`.
    rows: Vec<u32>,
    additions: u64,
    sample_period: u64,
}

impl CountMinSketch {
    fn new(capacity: usize) -> Self {
        let width = capacity.next_power_of_two().max(64);
        CountMinSketch {
            width_mask: (width - 1) as u64,
            rows: vec![0; width * SKETCH_ROW_SEEDS.len()],
            additions: 0,
            sample_period: (capacity as u64 * 16).max(1024),
        }
    }

    fn record(&mut self, key: Key) {
        let width = (self.width_mask + 1) as usize;
        for (row, seed) in SKETCH_ROW_SEEDS.iter().enumerate() {
            let column = (key_hash(key, *seed) & self.width_mask) as usize;
            let cell = &mut self.rows[row * width + column];
            *cell = cell.saturating_add(1);
        }
        self.additions += 1;
        if self.additions >= self.sample_period {
            for cell in &mut self.rows {
                *cell /= 2;
            }
            self.additions = 0;
        }
    }

    fn estimate(&self, key: Key) -> u32 {
        let width = (self.width_mask + 1) as usize;
        SKETCH_ROW_SEEDS
            .iter()
            .enumerate()
            .map(|(row, seed)| {
                let column = (key_hash(key, *seed) & self.width_mask) as usize;
                self.rows[row * width + column]
            })
            .min()
            .unwrap_or(0)
    }
}

/// One lock stripe: a slice of the key space plus the probe tallies for keys
/// that hash here.  Stripes hold only membership and payloads — recency
/// lives in `LruState`, so probes and touches never contend on the same
/// lock.
#[derive(Default)]
struct Stripe {
    map: HashMap<Key, Arc<FrameDetections>, Mix64Build>,
    hits: u64,
    misses: u64,
    evictions: u64,
    admission_rejects: u64,
}

/// Global recency/eviction state, touched only under serial arbitration.
struct LruState {
    /// Touch log for lazy-deletion LRU: front = least recent candidate.
    order: VecDeque<(Key, u64)>,
    tick: u64,
    /// Current tick of every resident key — the staleness authority for the
    /// order log.  Kept here rather than in the stripe entries so recency
    /// replay is transaction-local: a touch is one map write under the LRU
    /// lock the transaction already holds, no stripe lock.  Its length is
    /// the total resident count across all stripes.
    ticks: HashMap<Key, u64, Mix64Build>,
    sketch: Option<CountMinSketch>,
}

/// A lock-striped, key-sharded concurrent LRU map from `(detector, frame)`
/// to detections.
///
/// Membership and probe tallies live in per-stripe `Mutex`es (probes from
/// different threads contend only when their keys share a stripe); recency
/// and eviction live in a single `LruState` that is only ever mutated
/// through a [`CacheTxn`] during the engine's serial commit arbitration.
/// See the module docs for the determinism argument.
pub struct StripedDetectionCache {
    capacity: usize,
    admission: AdmissionPolicy,
    /// Stripe index mask (stripe count is a power of two).
    mask: u64,
    stripes: Box<[Mutex<Stripe>]>,
    lru: Mutex<LruState>,
}

impl StripedDetectionCache {
    /// Create a striped cache from a validated configuration.
    ///
    /// # Panics
    /// Panics if the configured capacity or stripe count is zero (the engine
    /// surfaces these as a typed error before construction).
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.capacity > 0, "cache capacity must be positive");
        assert!(config.stripes > 0, "cache stripe count must be positive");
        let stripes = config.stripes.next_power_of_two().min(1024);
        let sketch = match config.admission {
            AdmissionPolicy::Always => None,
            AdmissionPolicy::Frequency => Some(CountMinSketch::new(config.capacity)),
        };
        StripedDetectionCache {
            capacity: config.capacity,
            admission: config.admission,
            mask: (stripes - 1) as u64,
            stripes: (0..stripes)
                .map(|_| Mutex::new(Stripe::default()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            lru: Mutex::new(LruState {
                order: VecDeque::new(),
                tick: 0,
                ticks: HashMap::default(),
                sketch,
            }),
        }
    }

    /// Maximum number of resident entries (across all stripes).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of lock stripes (after power-of-two rounding).
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    /// Configured admission policy.
    pub fn admission(&self) -> AdmissionPolicy {
        self.admission
    }

    fn stripe_of(&self, key: Key) -> usize {
        (key_hash(key, STRIPE_SEED) & self.mask) as usize
    }

    fn stripe(&self, key: Key) -> MutexGuard<'_, Stripe> {
        self.stripes[self.stripe_of(key)]
            .lock()
            .expect("cache stripe poisoned")
    }

    /// Look up a frame's detections, tallying a hit or miss on the key's
    /// stripe.  Safe to call from any worker thread; recency is *not*
    /// refreshed here — the worker records the hit and the arbitration pass
    /// replays it as a [`CacheTxn::touch`] in deterministic order.
    ///
    /// Public so benchmarks and external harnesses can drive the same
    /// probe/commit protocol the engine uses; production callers go through
    /// [`crate::QueryEngine`].
    pub fn probe(&self, detector: DetectorSlot, frame: FrameId) -> Option<Arc<FrameDetections>> {
        let mut stripe = self.stripe((detector, frame));
        match stripe.map.get(&(detector, frame)) {
            Some(detections) => {
                let detections = Arc::clone(detections);
                stripe.hits += 1;
                Some(detections)
            }
            None => {
                stripe.misses += 1;
                None
            }
        }
    }

    /// Tally-free membership check for this module's tests (a probe would
    /// perturb the counters they assert on).
    #[cfg(test)]
    fn contains(&self, detector: DetectorSlot, frame: FrameId) -> bool {
        self.stripe((detector, frame))
            .map
            .contains_key(&(detector, frame))
    }

    /// Aggregate hit/miss/eviction counters across all stripes.
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats::default();
        for stripe in self.stripes.iter() {
            let stripe = stripe.lock().expect("cache stripe poisoned");
            stats.hits += stripe.hits;
            stats.misses += stripe.misses;
            stats.evictions += stripe.evictions;
            stats.admission_rejects += stripe.admission_rejects;
            stats.len += stripe.map.len();
        }
        stats
    }

    /// Per-stripe counters, in stripe order (for contention diagnostics).
    pub fn stripe_stats(&self) -> Vec<CacheStats> {
        self.stripes
            .iter()
            .map(|stripe| {
                let stripe = stripe.lock().expect("cache stripe poisoned");
                CacheStats {
                    hits: stripe.hits,
                    misses: stripe.misses,
                    evictions: stripe.evictions,
                    admission_rejects: stripe.admission_rejects,
                    len: stripe.map.len(),
                }
            })
            .collect()
    }

    /// Open the serial arbitration transaction.  The caller (the engine's
    /// commit boundary) holds the only handle that can change recency or
    /// membership-with-eviction, and applies workers' published intents in
    /// canonical `(slot, frame)` order.
    pub fn begin(&self) -> CacheTxn<'_> {
        CacheTxn {
            cache: self,
            lru: self.lru.lock().expect("cache LRU state poisoned"),
        }
    }
}

impl std::fmt::Debug for StripedDetectionCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StripedDetectionCache")
            .field("capacity", &self.capacity)
            .field("stripes", &self.stripes.len())
            .field("admission", &self.admission)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Outcome of one arbitration insert: how many entries it displaced and
/// whether the admission policy refused it.
#[derive(Debug, Clone, Copy, Default)]
pub struct CommitOutcome {
    /// Entries evicted to make room for this insert (0 or 1).
    pub evicted: u64,
    /// Whether the frequency-admission gate refused the insert.
    pub rejected: bool,
}

/// Serial arbitration handle over the striped cache's recency and eviction
/// state.
///
/// Exactly one transaction exists per commit boundary; while it lives, the
/// order log, tick counter, and admission sketch are mutated in the
/// canonical deterministic replay order (all hit touches, then all miss
/// inserts, each kind sorted by `(slot, frame)` — an order that depends
/// only on the frames involved, never on thread placement).
pub struct CacheTxn<'c> {
    cache: &'c StripedDetectionCache,
    lru: MutexGuard<'c, LruState>,
}

impl CacheTxn<'_> {
    /// Replay one probe hit: refresh the key's recency (and feed the
    /// admission sketch).  A key evicted since its probe is skipped — this
    /// cannot happen within one stage (touches precede inserts), but the
    /// guard keeps the log free of dangling entries regardless.
    pub fn touch(&mut self, detector: DetectorSlot, frame: FrameId) {
        let key = (detector, frame);
        if let Some(sketch) = self.lru.sketch.as_mut() {
            sketch.record(key);
        }
        self.compact_if_bloated();
        let lru = &mut *self.lru;
        lru.tick += 1;
        let tick = lru.tick;
        if let Some(current) = lru.ticks.get_mut(&key) {
            *current = tick;
            lru.order.push_back((key, tick));
        }
    }

    /// Replay one probe miss's fill: admit (or reject) the detections,
    /// evicting the least-recently-used entry if the cache is over capacity.
    /// Inserting an already-resident key refreshes it.
    pub fn insert(
        &mut self,
        detector: DetectorSlot,
        frame: FrameId,
        detections: Arc<FrameDetections>,
    ) -> CommitOutcome {
        let key = (detector, frame);
        if let Some(sketch) = self.lru.sketch.as_mut() {
            sketch.record(key);
        }
        let mut outcome = CommitOutcome::default();
        if self.lru.sketch.is_some() && self.lru.ticks.len() >= self.cache.capacity {
            let resident = self.lru.ticks.contains_key(&key);
            if !resident {
                if let Some(victim) = self.peek_victim() {
                    let sketch = self.lru.sketch.as_ref().expect("sketch checked above");
                    if sketch.estimate(key) < sketch.estimate(victim) {
                        self.cache.stripe(key).admission_rejects += 1;
                        outcome.rejected = true;
                        return outcome;
                    }
                }
            }
        }
        self.lru.tick += 1;
        let tick = self.lru.tick;
        self.cache.stripe(key).map.insert(key, detections);
        let was_new = self.lru.ticks.insert(key, tick).is_none();
        if was_new && self.lru.ticks.len() > self.cache.capacity {
            self.evict_one();
            outcome.evicted = 1;
        }
        self.lru.order.push_back((key, tick));
        self.compact_if_bloated();
        outcome
    }

    /// Find (without removing) the key the next eviction would claim,
    /// discarding stale log entries along the way.
    fn peek_victim(&mut self) -> Option<Key> {
        let lru = &mut *self.lru;
        while let Some((key, tick)) = lru.order.front().copied() {
            if lru.ticks.get(&key) == Some(&tick) {
                return Some(key);
            }
            lru.order.pop_front();
        }
        None
    }

    /// Pop stale touch-log entries until one names the genuinely
    /// least-recently-used resident entry, and evict it from its stripe.
    fn evict_one(&mut self) {
        let cache = self.cache;
        let lru = &mut *self.lru;
        while let Some((key, tick)) = lru.order.pop_front() {
            // Stale entries — keys already evicted, or touched again under a
            // newer tick — are discarded without a stripe lock.
            if lru.ticks.get(&key) != Some(&tick) {
                continue;
            }
            lru.ticks.remove(&key);
            let mut stripe = cache.stripe(key);
            stripe.map.remove(&key);
            stripe.evictions += 1;
            return;
        }
        unreachable!("an over-capacity cache always has an evictable entry");
    }

    /// Drop stale touch-log entries once the log outgrows the live map (same
    /// amortisation argument as the legacy cache).
    fn compact_if_bloated(&mut self) {
        let capacity = self.cache.capacity;
        let LruState { order, ticks, .. } = &mut *self.lru;
        if order.len() <= capacity.max(ticks.len()) * 2 {
            return;
        }
        order.retain(|(key, tick)| ticks.get(key) == Some(tick));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detections(frame: FrameId) -> Arc<FrameDetections> {
        // Only identity matters for these tests; an empty per-frame detection
        // list is enough.
        Arc::new(FrameDetections::empty(frame))
    }

    #[test]
    fn warm_hit_shares_the_entry_instead_of_deep_copying() {
        let mut cache = DetectionCache::new(4);
        let original = detections(9);
        cache.insert(0, 9, Arc::clone(&original));
        assert_eq!(Arc::strong_count(&original), 2, "cache holds one handle");
        // A hit hands back the same allocation; keeping it is a pointer bump.
        let held = Arc::clone(cache.get(0, 9).expect("warm hit"));
        assert!(
            Arc::ptr_eq(&held, &original),
            "hit must share the inserted allocation"
        );
        assert_eq!(
            Arc::strong_count(&original),
            3,
            "hit cloned the handle, not the detections"
        );
        drop(held);
        assert_eq!(Arc::strong_count(&original), 2);
    }

    #[test]
    fn hit_after_insert_and_miss_before() {
        let mut cache = DetectionCache::new(4);
        assert!(cache.get(0, 7).is_none());
        cache.insert(0, 7, detections(1));
        assert!(cache.get(0, 7).is_some());
        // Same frame under a different detector is a distinct key.
        assert!(cache.get(1, 7).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (1, 2, 1));
    }

    #[test]
    fn capacity_is_enforced_with_lru_eviction() {
        let mut cache = DetectionCache::new(2);
        cache.insert(0, 1, detections(1));
        cache.insert(0, 2, detections(2));
        // Touch frame 1 so frame 2 is now least recently used.
        assert!(cache.get(0, 1).is_some());
        cache.insert(0, 3, detections(3));
        assert!(cache.get(0, 2).is_none(), "LRU entry should be evicted");
        assert!(cache.get(0, 1).is_some());
        assert!(cache.get(0, 3).is_some());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.len, 2);
    }

    #[test]
    fn reinserting_a_resident_key_refreshes_without_eviction() {
        let mut cache = DetectionCache::new(2);
        cache.insert(0, 1, detections(1));
        cache.insert(0, 2, detections(2));
        cache.insert(0, 1, detections(1));
        assert_eq!(cache.stats().evictions, 0);
        // Frame 2 is now the LRU entry.
        cache.insert(0, 3, detections(3));
        assert!(cache.get(0, 2).is_none());
        assert!(cache.get(0, 1).is_some());
    }

    #[test]
    fn touch_log_stays_bounded_under_hit_dominated_load() {
        // A fully warm cache never evicts, so without compaction the touch
        // log would grow by one entry per hit forever.
        let mut cache = DetectionCache::new(8);
        for frame in 0..8u64 {
            cache.insert(0, frame, detections(frame));
        }
        for round in 0..10_000u64 {
            assert!(cache.get(0, round % 8).is_some());
        }
        assert!(
            cache.order.len() <= cache.capacity * 2 + 1,
            "touch log grew to {} entries",
            cache.order.len()
        );
        assert_eq!(cache.stats().hits, 10_000);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = DetectionCache::new(0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn striped_zero_capacity_panics() {
        let _ = StripedDetectionCache::new(CacheConfig::new(0));
    }

    #[test]
    #[should_panic(expected = "stripe count must be positive")]
    fn striped_zero_stripes_panics() {
        let _ = StripedDetectionCache::new(CacheConfig::new(4).stripes(0));
    }

    #[test]
    fn stripe_count_rounds_to_power_of_two() {
        let cache = StripedDetectionCache::new(CacheConfig::new(4).stripes(3));
        assert_eq!(cache.stripe_count(), 4);
        let cache = StripedDetectionCache::new(CacheConfig::new(4).stripes(8));
        assert_eq!(cache.stripe_count(), 8);
    }

    #[test]
    fn striped_probe_commit_round_trip() {
        let cache = StripedDetectionCache::new(CacheConfig::new(4));
        assert!(cache.probe(0, 7).is_none());
        let original = detections(7);
        {
            let mut txn = cache.begin();
            let outcome = txn.insert(0, 7, Arc::clone(&original));
            assert_eq!(outcome.evicted, 0);
            assert!(!outcome.rejected);
        }
        let held = cache.probe(0, 7).expect("warm hit");
        assert!(Arc::ptr_eq(&held, &original), "hit shares the allocation");
        assert!(cache.probe(1, 7).is_none(), "detector is part of the key");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (1, 2, 1));
        assert!(cache.contains(0, 7));
        // `contains` must not perturb the tallies.
        assert_eq!(cache.stats(), stats);
    }

    /// Satellite: the striped cache's eviction sequence is pinned against
    /// the legacy serial LRU for a scripted probe/commit trace, at two
    /// different stripe counts.  Each "stage" of the script probes a batch
    /// of keys and then commits the misses, exactly as the engine drives
    /// both implementations; after every stage the two caches must agree on
    /// stats, membership, and therefore on which entry each eviction
    /// claimed.
    #[test]
    fn striped_eviction_sequence_matches_legacy_serial_lru() {
        // Overlapping windows over a small key space with capacity 4 force
        // repeated evictions whose victims depend on exact LRU order.
        let script: &[&[(DetectorSlot, FrameId)]] = &[
            &[(0, 1), (0, 2), (0, 3), (0, 4)],
            &[(0, 3), (0, 4), (0, 5), (0, 6)], // evicts 1, 2
            &[(0, 1), (0, 5), (1, 1)],         // evicts 3, 4 (1 re-enters)
            &[(0, 6), (0, 2), (0, 5)],         // evicts the re-entered (0,1)
            &[(1, 1), (0, 3), (0, 6), (0, 2)],
            &[(0, 5), (0, 5), (0, 4)], // duplicate probe within a stage
        ];
        let universe: Vec<Key> = (0..2u32)
            .flat_map(|d| (0..8u64).map(move |f| (d, f)))
            .collect();

        for stripes in [1usize, 4] {
            let mut legacy = DetectionCache::new(4);
            let striped = StripedDetectionCache::new(CacheConfig::new(4).stripes(stripes));
            for (stage, batch) in script.iter().enumerate() {
                // Probe phase: legacy touches on hit; striped records the
                // outcome for arbitration replay.
                let mut hits = Vec::new();
                let mut misses = Vec::new();
                for &(slot, frame) in *batch {
                    let legacy_hit = legacy.get(slot, frame).is_some();
                    let striped_hit = striped.probe(slot, frame).is_some();
                    assert_eq!(
                        legacy_hit, striped_hit,
                        "stage {stage}: probe ({slot},{frame}) outcome diverged"
                    );
                    if striped_hit {
                        hits.push((slot, frame));
                    } else {
                        misses.push((slot, frame));
                    }
                }
                // Commit phase: replay touches in probe order, then fill
                // misses in order — the engine's arbitration sequence.
                {
                    let mut txn = striped.begin();
                    for &(slot, frame) in &hits {
                        txn.touch(slot, frame);
                    }
                    for &(slot, frame) in &misses {
                        txn.insert(slot, frame, detections(frame));
                    }
                }
                for &(slot, frame) in &misses {
                    legacy.insert(slot, frame, detections(frame));
                }
                // The caches must agree on every counter and on exactly
                // which keys survived — i.e. the eviction sequences match.
                let legacy_stats = legacy.stats();
                let striped_stats = striped.stats();
                assert_eq!(
                    (legacy_stats.evictions, legacy_stats.len),
                    (striped_stats.evictions, striped_stats.len),
                    "stage {stage} (stripes {stripes}): eviction accounting diverged"
                );
                for &(slot, frame) in &universe {
                    assert_eq!(
                        legacy.map.contains_key(&(slot, frame)),
                        striped.contains(slot, frame),
                        "stage {stage} (stripes {stripes}): membership of ({slot},{frame}) diverged"
                    );
                }
            }
            // The script's duplicate probes make hit/miss totals differ from
            // a naive per-key count; they must still match the reference.
            assert_eq!(legacy.stats().hits, striped.stats().hits);
            assert_eq!(legacy.stats().misses, striped.stats().misses);
            assert!(
                striped.stats().evictions > 0,
                "script must exercise eviction"
            );
        }
    }

    #[test]
    fn striped_accounting_is_stripe_count_invariant() {
        let mut reference: Option<CacheStats> = None;
        for stripes in [1usize, 2, 8, 64] {
            let cache = StripedDetectionCache::new(CacheConfig::new(8).stripes(stripes));
            for frame in 0..32u64 {
                let hit = cache.probe(0, frame % 12).is_some();
                let mut txn = cache.begin();
                if hit {
                    txn.touch(0, frame % 12);
                } else {
                    txn.insert(0, frame % 12, detections(frame % 12));
                }
            }
            let stats = cache.stats();
            match &reference {
                Some(expected) => assert_eq!(stats, *expected, "stripes {stripes} diverged"),
                None => reference = Some(stats),
            }
            // Per-stripe telemetry folds back to the aggregate view.
            let folded = cache
                .stripe_stats()
                .iter()
                .fold(CacheStats::default(), |mut acc, s| {
                    acc.hits += s.hits;
                    acc.misses += s.misses;
                    acc.evictions += s.evictions;
                    acc.admission_rejects += s.admission_rejects;
                    acc.len += s.len;
                    acc
                });
            assert_eq!(folded, stats);
        }
    }

    #[test]
    fn frequency_admission_shields_a_hot_working_set_from_a_scan() {
        let cache =
            StripedDetectionCache::new(CacheConfig::new(4).admission(AdmissionPolicy::Frequency));
        // Warm a hot working set and touch it repeatedly so the sketch
        // learns its frequency.
        for frame in 0..4u64 {
            cache.begin().insert(0, frame, detections(frame));
        }
        for _ in 0..4 {
            for frame in 0..4u64 {
                assert!(cache.probe(0, frame).is_some());
                cache.begin().touch(0, frame);
            }
        }
        // A one-pass cold scan: every candidate has sketch frequency 1 vs
        // the victims' 5, so none is admitted and the working set survives.
        for frame in 100..116u64 {
            assert!(cache.probe(0, frame).is_none());
            let outcome = cache.begin().insert(0, frame, detections(frame));
            assert!(outcome.rejected, "cold scan frame {frame} was admitted");
        }
        for frame in 0..4u64 {
            assert!(cache.contains(0, frame), "hot frame {frame} was evicted");
        }
        let stats = cache.stats();
        assert_eq!(stats.admission_rejects, 16);
        assert_eq!(stats.evictions, 0);
        // A candidate that earns frequency eventually displaces the coldest
        // resident entry: each insert attempt records it in the sketch, so
        // it is rejected while its count trails the victims' 5 (one insert
        // plus four touches each) and admitted on the attempt that ties.
        for attempt in 1..=4 {
            assert!(
                cache.probe(0, 200).is_none(),
                "newcomer admitted after only {attempt} attempts"
            );
            let outcome = cache.begin().insert(0, 200, detections(200));
            assert!(outcome.rejected);
        }
        let outcome = cache.begin().insert(0, 200, detections(200));
        assert!(!outcome.rejected, "tying the victim's count must admit");
        assert!(cache.contains(0, 200), "hot newcomer must be admitted");
    }

    #[test]
    fn always_admission_never_rejects() {
        let cache = StripedDetectionCache::new(CacheConfig::new(2));
        for frame in 0..16u64 {
            let outcome = cache.begin().insert(0, frame, detections(frame));
            assert!(!outcome.rejected);
        }
        let stats = cache.stats();
        assert_eq!(stats.admission_rejects, 0);
        assert_eq!(stats.evictions, 14);
        assert_eq!(stats.len, 2);
    }

    #[test]
    fn striped_touch_log_stays_bounded_under_hit_dominated_load() {
        let cache = StripedDetectionCache::new(CacheConfig::new(8).stripes(2));
        for frame in 0..8u64 {
            cache.begin().insert(0, frame, detections(frame));
        }
        for round in 0..10_000u64 {
            assert!(cache.probe(0, round % 8).is_some());
            cache.begin().touch(0, round % 8);
        }
        let order_len = cache.lru.lock().unwrap().order.len();
        assert!(
            order_len <= cache.capacity() * 2 + 1,
            "touch log grew to {order_len} entries"
        );
        assert_eq!(cache.stats().hits, 10_000);
        assert_eq!(cache.stats().evictions, 0);
    }
}
