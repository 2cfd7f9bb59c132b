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
/// time, evictions at commit; a frame two same-stage lanes share under one
/// detector is probed — and counted — once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the detector.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
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
}

impl CacheActivity {
    /// Fold another tally into this one.
    pub(crate) fn absorb(&mut self, other: CacheActivity) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
    }
}

/// SplitMix64 finalizer: a cheap, strong bit mixer that keeps the map
/// independent of the standard library's randomised hashing.
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
    /// Every counter but `len`, which is read off the map.
    tally: CacheStats,
}

impl DetectionCache {
    /// Panics on a zero capacity (the engine builds no cache instead).
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        DetectionCache {
            capacity,
            map: Map::default(),
            order: VecDeque::new(),
            tick: 0,
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

    /// Replay one probe hit: refresh `key`'s recency (a key that is no
    /// longer resident keeps no recency).
    pub(crate) fn touch(&mut self, key: Key) {
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
        self.tally.evictions += outcome.evictions;
        outcome
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
        DetectionCache::new(capacity)
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
    fn striped_touch_log_stays_bounded_under_hit_dominated_load() {
        // A touch of a key that is not resident must not grow the log either.
        let mut cache = lru(8);
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
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = lru(0);
    }

    #[test]
    fn probe_hit_keeps_no_recency_until_committed() {
        let mut cache = lru(2);
        (7..=8).for_each(|frame| _ = put(&mut cache, (0, frame)));
        // Frame 7 stays the LRU entry until its hit is committed as a touch.
        assert!(cache.probe((0, 7)).is_some());
        assert_eq!(put(&mut cache, (0, 9)).evictions, 1);
        assert!(cache.probe((0, 7)).is_none(), "uncommitted hit was evicted");
        assert!(cache.probe((0, 8)).is_some());
        cache.touch((0, 8));
        assert_eq!(put(&mut cache, (0, 10)).evictions, 1);
        assert!(cache.probe((0, 8)).is_some(), "committed hit survived");
        assert!(cache.probe((0, 9)).is_none());
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
    /// stats and of the evicted keys, checking each stage against the naive.
    fn replay_golden() -> [u64; 2] {
        let mut cache = lru(256);
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
            assert!(touches.iter().all(|k| naive.contains(k)), "{stage}");
            assert!(!inserts.iter().any(|k| naive.contains(k)), "{stage}");
            let mut naive_evicted = Vec::new();
            for key in touches.into_iter().chain(inserts) {
                naive_evicted.extend(naive_insert(&mut naive, key));
            }
            assert_eq!(evicted, naive_evicted, "stage {stage}");
            let s = cache.stats();
            digest(0, &[s.hits, s.misses]);
            digest(0, &[s.evictions, s.len as u64]);
            for &(slot, frame) in &evicted {
                digest(1, &[u64::from(slot), frame]);
            }
        }
        digests
    }

    /// The eviction-order digest (second word) was captured from the
    /// lock-striped cache this one replaced (3752 hits, 16544 evictions).
    /// The stats digest (first word) was re-measured on the same trace once
    /// the always-zero admission-rejects counter left each stage's words.
    #[test]
    fn golden_eviction_trace_is_pinned() {
        assert_eq!(
            replay_golden(),
            [0x5102_9c0e_2162_bf5f, 0x7c48_8383_e4b4_44ea]
        );
    }
}
