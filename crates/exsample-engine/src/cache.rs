//! The bounded cross-stage `(detector, frame)` → detections cache, off by
//! default.  A hit is an `Arc` bump instead of a detector call, so a cached
//! run's detector cost is only comparable to another cached run's; query
//! outcomes never change, because detectors are pure functions of the frame.
//!
//! The engine owns the cache and drives it from the coordinator (see
//! [`crate::shard`]): the *probe*, before the gather, tallies a hit or a miss
//! per frame without changing recency or membership; the *commit*, after the
//! scatter, replays every hit as a touch and every fresh result as an
//! insert, each kind in canonical `(slot, frame)` order, touches first.  So
//! every tally and surviving entry is bitwise-identical across thread
//! counts.  Recency is a lazy-deletion LRU: every touch logs a
//! `(key, tick)`, and eviction pops the log until an entry matches its key's
//! current tick.

use exsample_detect::FrameDetections;
use exsample_video::FrameId;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Identifier of a distinct detector instance (assigned by the engine in
/// first-seen order; see `QueryEngine`'s detector registry).
pub(crate) type DetectorSlot = u32;

/// Cache key: one detector's view of one frame.
pub(crate) type Key = (DetectorSlot, FrameId);

/// Cache hit/miss/eviction counters.  Hits and misses are counted at probe
/// time, evictions and admission rejects at commit; a frame two same-stage
/// lanes share under one detector is probed — and counted — once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the detector.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Inserts refused by the admission policy (always zero under
    /// [`AdmissionPolicy::Always`]).
    pub admission_rejects: u64,
    /// Entries currently resident.
    pub len: usize,
}

/// The flow counters of [`CacheStats`] attributed to one scope — a stage, a
/// shard, a run, or one insert; shards sum to the run's totals exactly.
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

/// How the cache decides whether a brand-new key may displace a resident
/// entry when the cache is full.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Every insert is admitted; the least-recently-used entry is evicted to
    /// make room.
    #[default]
    Always,
    /// TinyLFU-style gate: a new key arriving at capacity is admitted only
    /// if a count-min sketch estimates it at least as frequent as the LRU
    /// victim, so a one-pass scan cannot flush a hot working set.
    Frequency,
}

/// Configuration of the engine's detections cache (see
/// `QueryEngine::cache_config`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    pub(crate) capacity: usize,
    pub(crate) admission: AdmissionPolicy,
}

impl CacheConfig {
    /// A cache holding at most `capacity` frame entries, admitting every
    /// insert (plain LRU).
    pub fn new(capacity: usize) -> Self {
        CacheConfig {
            capacity,
            admission: AdmissionPolicy::Always,
        }
    }

    /// Set the admission policy.
    pub fn admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }
}

/// SplitMix64 finalizer: a cheap, strong bit mixer that keeps the map and the
/// sketch independent of the standard library's randomised hashing.
fn mix64(h: u64) -> u64 {
    let h = (h ^ h >> 33).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    let h = (h ^ h >> 33).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ h >> 33
}

/// The map's [`std::hash::Hasher`]: [`mix64`] instead of SipHash, which
/// costs several times more per lookup on these small fixed-width keys.
#[derive(Default)]
struct Mix64Hasher(u64);

impl std::hash::Hasher for Mix64Hasher {
    fn finish(&self) -> u64 {
        mix64(self.0)
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = self.0.rotate_left(31) ^ n;
    }
}

/// Per-row seeds for the count-min sketch.
const SKETCH_ROW_SEEDS: [u64; 4] = [
    0x9E37_79B9_7F4A_7C15,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0xFF51_AFD7_ED55_8CCD,
];

/// Count-min sketch of per-key access frequency for the frequency gate:
/// four rows of saturating counters, halved every `sample_period` additions
/// so stale popularity decays.
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

    /// The flat index of `key`'s counter in each row.
    fn cells(&self, (slot, frame): Key) -> [usize; 4] {
        let hash = frame ^ u64::from(slot).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let width = self.width_mask as usize + 1;
        std::array::from_fn(|row| {
            row * width + (mix64(hash ^ SKETCH_ROW_SEEDS[row]) & self.width_mask) as usize
        })
    }

    fn record(&mut self, key: Key) {
        for cell in self.cells(key) {
            self.rows[cell] = self.rows[cell].saturating_add(1);
        }
        self.additions += 1;
        if self.additions >= self.sample_period {
            self.rows.iter_mut().for_each(|cell| *cell /= 2);
            self.additions = 0;
        }
    }

    fn estimate(&self, key: Key) -> u32 {
        let [a, b, c, d] = self.cells(key).map(|cell| self.rows[cell]);
        a.min(b).min(c).min(d)
    }
}

/// A resident entry; log entries older than its `tick` are stale.
struct Entry {
    detections: Arc<FrameDetections>,
    tick: u64,
}

type Map = HashMap<Key, Entry, std::hash::BuildHasherDefault<Mix64Hasher>>;

/// The engine's bounded LRU, mutated only by the coordinator (module docs).
pub(crate) struct DetectionCache {
    capacity: usize,
    map: Map,
    /// Touch log for lazy-deletion LRU: front = least recent candidate.
    order: VecDeque<(Key, u64)>,
    tick: u64,
    sketch: Option<CountMinSketch>,
    /// Every counter but `len`, which is read off the map.
    tally: CacheStats,
}

impl DetectionCache {
    /// Panics on a zero capacity (the engine builds no cache instead).
    pub(crate) fn new(config: CacheConfig) -> Self {
        assert!(config.capacity > 0, "cache capacity must be positive");
        let frequency = config.admission == AdmissionPolicy::Frequency;
        DetectionCache {
            capacity: config.capacity,
            map: Map::default(),
            order: VecDeque::new(),
            tick: 0,
            sketch: frequency.then(|| CountMinSketch::new(config.capacity)),
            tally: CacheStats::default(),
        }
    }

    /// Look up `key`'s detections, tallying a hit or a miss.  Recency is not
    /// refreshed: the commit replays the hit as a [`DetectionCache::touch`].
    pub(crate) fn probe(&mut self, key: Key) -> Option<Arc<FrameDetections>> {
        let entry = self.map.get(&key);
        self.tally.hits += u64::from(entry.is_some());
        self.tally.misses += u64::from(entry.is_none());
        entry.map(|entry| Arc::clone(&entry.detections))
    }

    pub(crate) fn stats(&self) -> CacheStats {
        let len = self.map.len();
        CacheStats { len, ..self.tally }
    }

    /// Replay one probe hit: refresh `key`'s recency and feed the sketch (a
    /// key that is no longer resident keeps no recency).
    pub(crate) fn touch(&mut self, key: Key) {
        if let Some(sketch) = self.sketch.as_mut() {
            sketch.record(key);
        }
        self.compact_if_bloated();
        self.tick += 1;
        if let Some(entry) = self.map.get_mut(&key) {
            entry.tick = self.tick;
            self.order.push_back((key, self.tick));
        }
    }

    /// Replay one probe miss's fill — admit (or refresh) the detections,
    /// evicting the LRU entry past capacity — and report what it caused.
    pub(crate) fn insert(&mut self, key: Key, detections: Arc<FrameDetections>) -> CacheActivity {
        let mut outcome = CacheActivity::default();
        if !self.admits(key) {
            outcome.admission_rejects = 1;
        } else {
            self.tick += 1;
            let tick = self.tick;
            let new = self.map.insert(key, Entry { detections, tick }).is_none();
            if new && self.map.len() > self.capacity {
                if let Some(victim) = lru_key(&mut self.order, &self.map) {
                    self.order.pop_front();
                    self.map.remove(&victim);
                    outcome.evictions = 1;
                }
            }
            self.order.push_back((key, tick));
            self.compact_if_bloated();
        }
        self.tally.evictions += outcome.evictions;
        self.tally.admission_rejects += outcome.admission_rejects;
        outcome
    }

    /// Record `key` in the sketch, if any: it enters unless the cache is full,
    /// it is new, and its estimated frequency trails the LRU victim's.
    fn admits(&mut self, key: Key) -> bool {
        let Some(sketch) = self.sketch.as_mut() else {
            return true;
        };
        sketch.record(key);
        if self.map.len() < self.capacity || self.map.contains_key(&key) {
            return true;
        }
        lru_key(&mut self.order, &self.map)
            .is_none_or(|victim| sketch.estimate(key) >= sketch.estimate(victim))
    }

    /// Drop stale log entries once the log outgrows twice the live map, so a
    /// warm, hit-dominated cache — which never evicts — cannot grow the log
    /// by one entry per touch forever.
    fn compact_if_bloated(&mut self) {
        if self.order.len() > self.capacity.max(self.map.len()) * 2 {
            let map = &self.map;
            self.order
                .retain(|(key, tick)| map.get(key).is_some_and(|entry| entry.tick == *tick));
        }
    }
}

/// Discard stale entries from the front of the touch log until it names the
/// least-recently-used resident key — the next eviction's victim.
fn lru_key(order: &mut VecDeque<(Key, u64)>, map: &Map) -> Option<Key> {
    while let Some(&(key, tick)) = order.front() {
        if map.get(&key).is_some_and(|entry| entry.tick == tick) {
            return Some(key);
        }
        order.pop_front();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lru(capacity: usize) -> DetectionCache {
        DetectionCache::new(CacheConfig::new(capacity))
    }

    /// Insert `key`'s (empty) detections.
    fn put(cache: &mut DetectionCache, key: Key) -> CacheActivity {
        cache.insert(key, Arc::new(FrameDetections::empty(key.1)))
    }

    /// A probe whose hit is committed straight away: one stage of one frame.
    fn get(cache: &mut DetectionCache, frame: FrameId) -> bool {
        let hit = cache.probe((0, frame)).is_some();
        if hit {
            cache.touch((0, frame));
        }
        hit
    }

    #[test]
    fn warm_hit_shares_the_entry_instead_of_deep_copying() {
        let mut cache = lru(4);
        let original = Arc::new(FrameDetections::empty(9));
        cache.insert((0, 9), Arc::clone(&original));
        assert_eq!(Arc::strong_count(&original), 2, "cache holds one handle");
        let held = cache.probe((0, 9)).expect("warm hit");
        assert!(Arc::ptr_eq(&held, &original), "hit shares the allocation");
        assert_eq!(Arc::strong_count(&original), 3, "hit cloned the handle");
    }

    #[test]
    fn hit_after_insert_and_miss_before() {
        let mut cache = lru(4);
        assert!(!get(&mut cache, 7));
        assert_eq!(put(&mut cache, (0, 7)), CacheActivity::default());
        assert!(get(&mut cache, 7));
        assert!(cache.probe((1, 7)).is_none(), "the detector is in the key");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (1, 2, 1));
    }

    #[test]
    fn capacity_is_enforced_with_lru_eviction() {
        let mut cache = lru(2);
        (1..=2).for_each(|frame| _ = put(&mut cache, (0, frame)));
        assert!(get(&mut cache, 1), "frame 2 is now least recently used");
        assert_eq!(put(&mut cache, (0, 3)).evictions, 1);
        assert!(!get(&mut cache, 2) && get(&mut cache, 1) && get(&mut cache, 3));
        assert_eq!((cache.stats().evictions, cache.stats().len), (1, 2));
    }

    #[test]
    fn reinserting_a_resident_key_refreshes_without_eviction() {
        let mut cache = lru(2);
        (1..=2).for_each(|frame| _ = put(&mut cache, (0, frame)));
        assert_eq!(put(&mut cache, (0, 1)).evictions, 0);
        put(&mut cache, (0, 3));
        assert!(!get(&mut cache, 2), "frame 2 was the LRU entry");
        assert!(get(&mut cache, 1));
    }

    #[test]
    fn touch_log_stays_bounded_under_hit_dominated_load() {
        let mut cache = lru(8);
        (0..8).for_each(|frame| _ = put(&mut cache, (0, frame)));
        assert!((0..10_000).all(|round| get(&mut cache, round % 8)));
        let log = cache.order.len();
        assert!(log <= cache.capacity * 2 + 1, "touch log grew to {log}");
        assert_eq!((cache.stats().hits, cache.stats().evictions), (10_000, 0));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = lru(0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn striped_zero_capacity_panics() {
        let config = CacheConfig::new(0).admission(AdmissionPolicy::Frequency);
        let _ = DetectionCache::new(config);
    }

    #[test]
    fn striped_probe_commit_round_trip() {
        let mut cache = lru(2);
        assert!(cache.probe((0, 7)).is_none());
        let original = Arc::new(FrameDetections::empty(7));
        assert_eq!(
            cache.insert((0, 7), Arc::clone(&original)),
            CacheActivity::default()
        );
        let held = cache.probe((0, 7)).expect("warm hit");
        assert!(Arc::ptr_eq(&held, &original), "hit shares the allocation");
        assert!(cache.probe((1, 7)).is_none(), "detector is part of the key");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (1, 2, 1));
        // A probe alone leaves recency alone: frame 7 stays the LRU entry
        // until its hit is committed as a touch.
        put(&mut cache, (0, 8));
        assert!(cache.probe((0, 7)).is_some());
        assert_eq!(put(&mut cache, (0, 9)).evictions, 1);
        assert!(cache.probe((0, 7)).is_none(), "uncommitted hit was evicted");
        assert!(cache.probe((0, 8)).is_some());
        cache.touch((0, 8));
        assert_eq!(put(&mut cache, (0, 10)).evictions, 1);
        assert!(cache.probe((0, 8)).is_some(), "committed hit survived");
        assert!(cache.probe((0, 9)).is_none());
    }

    #[test]
    fn striped_touch_log_stays_bounded_under_hit_dominated_load() {
        // Under frequency admission every touch also feeds the sketch, and a
        // touch of a key that is not resident must not grow the log either.
        let config = CacheConfig::new(8).admission(AdmissionPolicy::Frequency);
        let mut cache = DetectionCache::new(config);
        (0..8).for_each(|frame| _ = put(&mut cache, (0, frame)));
        for round in 0..10_000 {
            assert!(get(&mut cache, round % 8));
            cache.touch((0, 100 + round % 8));
        }
        let log = cache.order.len();
        assert!(log <= cache.capacity * 2 + 1, "touch log grew to {log}");
        let s = cache.stats();
        assert_eq!((s.hits, s.evictions, s.len), (10_000, 0, 8));
    }

    #[test]
    fn frequency_admission_shields_a_hot_working_set_from_a_scan() {
        let config = CacheConfig::new(4).admission(AdmissionPolicy::Frequency);
        let mut cache = DetectionCache::new(config);
        // Insert a hot working set, then touch it four times over.
        for frame in (0..4).chain((0..16).map(|i| i % 4)) {
            if !get(&mut cache, frame) {
                put(&mut cache, (0, frame));
            }
        }
        // A one-pass cold scan: each candidate's sketch count is 1 against
        // the victims' 5, so none is admitted and nothing is evicted.
        assert!((100..116).all(|frame| put(&mut cache, (0, frame)).admission_rejects == 1));
        assert!((0..4).all(|frame| cache.map.contains_key(&(0, frame))));
        assert_eq!(cache.stats().evictions, 0);
        // Every attempt records the newcomer, so it is rejected while its
        // count trails the victims' 5 and admitted on the attempt that ties.
        let rejects = [0; 5].map(|_| put(&mut cache, (0, 200)).admission_rejects);
        assert_eq!(rejects, [1, 1, 1, 1, 0]);
        assert!(cache.map.contains_key(&(0, 200)));
    }

    #[test]
    fn always_admission_never_rejects() {
        let mut cache = lru(2);
        (0..16).for_each(|frame| _ = put(&mut cache, (0, frame)));
        let s = cache.stats();
        assert_eq!((s.evictions, s.admission_rejects, s.len), (14, 0, 2));
    }

    /// Insert or refresh `key` in a naive LRU of capacity 256 — keys in
    /// recency order, found by linear search — returning the key it evicted.
    fn naive_insert(lru: &mut Vec<Key>, key: Key) -> Option<Key> {
        let resident = lru.iter().position(|&k| k == key).map(|at| lru.remove(at));
        lru.push(key);
        (resident.is_none() && lru.len() > 256).then(|| lru.remove(0))
    }

    /// Drive a seeded trace as `Lanes::commit` does — 1000 stages of 1–40 keys
    /// over 2 × 700 (duplicates included), probed, then hits touched and
    /// misses inserted in sorted order — into FNV-1a digests of every stage's
    /// stats and of the evicted keys.  `Always` is checked against the naive.
    fn replay_golden(admission: AdmissionPolicy) -> [u64; 2] {
        let mut cache = DetectionCache::new(CacheConfig::new(256).admission(admission));
        let mut naive = Vec::new();
        let mut digests = [0xCBF2_9CE4_8422_2325u64; 2];
        let mut digest = |which: usize, words: &[u64]| {
            for byte in words.iter().flat_map(|word| word.to_le_bytes()) {
                digests[which] = (digests[which] ^ u64::from(byte)).wrapping_mul(0x100_0000_01B3);
            }
        };
        let mut state = 0x601D_E17A_CE5Eu64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            mix64(state)
        };
        for stage in 0..1000 {
            let (mut touches, mut inserts): (Vec<Key>, Vec<Key>) = (0..1 + next() % 40)
                .map(|_| next())
                .map(|r| ((r & 1) as DetectorSlot, (r >> 8) % 700))
                .partition(|&key| cache.probe(key).is_some());
            touches.sort_unstable();
            inserts.sort_unstable();
            touches.iter().for_each(|&key| cache.touch(key));
            let mut evicted = Vec::new();
            for &key in &inserts {
                // The LRU key before the insert is the one it evicts, if any.
                let victim = lru_key(&mut cache.order, &cache.map);
                if put(&mut cache, key).evictions > 0 {
                    evicted.extend(victim);
                }
            }
            if admission == AdmissionPolicy::Always {
                assert!(touches.iter().all(|k| naive.contains(k)), "{stage}");
                assert!(!inserts.iter().any(|k| naive.contains(k)), "{stage}");
                let mut naive_evicted = Vec::new();
                for key in touches.into_iter().chain(inserts) {
                    naive_evicted.extend(naive_insert(&mut naive, key));
                }
                assert_eq!(evicted, naive_evicted, "stage {stage}");
            }
            let s = cache.stats();
            digest(0, &[s.hits, s.misses]);
            digest(0, &[s.evictions, s.admission_rejects, s.len as u64]);
            for &(slot, frame) in &evicted {
                digest(1, &[u64::from(slot), frame]);
            }
        }
        digests
    }

    /// Digests captured from the lock-striped cache this one replaced (3752
    /// hits, 16544 evictions; `Frequency`: 1119 evictions, 15543 rejects).
    #[test]
    fn golden_eviction_trace_is_pinned() {
        let always = replay_golden(AdmissionPolicy::Always);
        assert_eq!(always, [0x813d_b8ce_bbe1_733f, 0x7c48_8383_e4b4_44ea]);
        let frequency = replay_golden(AdmissionPolicy::Frequency);
        assert_eq!(frequency, [0x72dc_c936_6527_a5d5, 0xe206_212b_d9a9_aa4e]);
    }
}
