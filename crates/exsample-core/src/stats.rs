//! Per-chunk sampling statistics and belief distributions.
//!
//! # The belief cache
//!
//! Thompson sampling draws one value from every chunk's Gamma belief on every
//! pick, so belief construction sits directly on the hot path.  To avoid
//! rebuilding `M` distributions per pick, [`ChunkStatsSet`] maintains a
//! struct-of-arrays cache of the Marsaglia–Tsang sampling constants of each
//! chunk's belief `Γ(N1_j + α₀, n_j + β₀)`:
//!
//! * `cache_d[j]`, `cache_c[j]` — the squeeze constants `d = s − 1/3`,
//!   `c = 1/√(9d)` for the (boosted) shape `s`;
//! * `cache_boost_inv_shape[j]` — `1/shape` when `shape < 1`, else `0.0`;
//! * `cache_rate[j]` — `n_j + β₀`.
//!
//! **Invalidation rule:** the cached constants of chunk `j` depend only on that
//! chunk's `(N1_j, n_j)` pair and the priors fixed at construction, so they are
//! refreshed exactly when `(N1_j, n_j)` changes — i.e. inside
//! [`ChunkStatsSet::record`] and [`ChunkStatsSet::adjust_n1`] — and nowhere
//! else.  The selection loop reads the cache through `&self` and never
//! touches it, which keeps it read-only and allocation-free.
//!
//! The cache is built for the priors passed to `ChunkStatsSet::with_priors`
//! ([`ChunkStatsSet::new`] uses the paper defaults `α₀ = 0.1`, `β₀ = 1`).
//! Callers that score the same statistics under *different* priors (the policy
//! layer supports this for ablations) must fall back to the uncached path —
//! see `ChunkStatsSet::priors`.
//!
//! # The belief-class index
//!
//! Two chunks with the same clamped `(N1, n)` pair have *identical* beliefs, so
//! under Thompson sampling they are exchangeable: the maximum of a class's `k`
//! iid draws is one exact order-statistic draw
//! ([`exsample_rand::GammaTail::max_of_k`]) and its carrier is uniform among
//! them.  A real posterior is a few big classes and a scatter of singletons
//! (the BDD 1k analog averages 13.6 live classes, 4.7 of them holding all but
//! 32 chunks), which is what the hybrid fold in [`crate::policy`] exploits.
//!
//! [`ChunkStatsSet`] therefore maintains an incremental index of those classes:
//! every chunk belongs to exactly one class slot (`class_of`/`class_pos`), each
//! slot stores its key and member list, and a hash map resolves keys to slots.
//! Membership moves in O(1) (`swap_remove` + push) at the *same invalidation
//! seam as the SoA cache* — a chunk's class can only change when its `(N1, n)`
//! pair changes, i.e. inside [`ChunkStatsSet::record`] /
//! [`ChunkStatsSet::adjust_n1`].  Maintenance is RNG-free and always on, so it
//! never perturbs pick sequences; the fold merely *reads* the index
//! (`ChunkStatsSet::class_members`, `ChunkStatsSet::class_tail`).
//!
//! The max-of-k draw needs `ln Γ(N1 + α₀)`, which costs more than the rest of
//! the draw and depends on `N1` alone, so the set keeps one prepared
//! [`GammaTail`] per `N1` it has seen (grown at the same seam, nothing global).

use crate::config::ExSampleConfig;
use crate::estimator;
use exsample_rand::gamma::mt_constants;
use exsample_rand::{Gamma, GammaTail};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Sentinel for "chunk not yet assigned to a class slot" during construction.
const NO_CLASS: u32 = u32::MAX;

/// Largest `N1` (exclusive) whose [`GammaTail`] is kept.  `N1` stays in the
/// tens, but a warm start may seed anything: beyond the cap the tail is
/// prepared per draw instead of letting the table grow with `N1`.
const MAX_CACHED_TAILS: u64 = 1024;

/// One belief class: the shared clamped `(N1, n)` key and the chunks that
/// currently carry it.  Freed slots keep their member capacity for reuse.
#[derive(Debug, Clone)]
struct ClassEntry {
    key: (u64, u64),
    members: Vec<u32>,
}

/// The `(N1, n)` statistics ExSample keeps for one chunk.
///
/// `N1` is stored as a signed integer: Algorithm 1 updates it by `|d0| − |d1|`, and
/// when an object first found in chunk *j* is later re-seen from a frame of chunk
/// *k ≠ j*, chunk *k* receives a `−1` without ever having received the `+1`, so the
/// raw counter can go (slightly) negative.  The belief distribution clamps it at
/// zero, which is the adjustment the paper's technical report describes for
/// instances spanning multiple chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChunkStats {
    n1: i64,
    n: u64,
}

impl ChunkStats {
    /// Fresh statistics (no samples, no results).
    pub(crate) fn new() -> Self {
        ChunkStats::default()
    }

    /// Number of frames sampled from this chunk.
    pub fn samples(&self) -> u64 {
        self.n
    }

    /// `N1` clamped at zero, as used in the estimator and the belief.
    pub(crate) fn n1(&self) -> u64 {
        self.n1.max(0) as u64
    }

    /// Record one sampled frame whose discriminator outcome changed `N1` by
    /// `n1_delta` (`|d0| − |d1|`).
    pub(crate) fn record(&mut self, n1_delta: i64) {
        self.n1 += n1_delta;
        self.n += 1;
    }

    /// Record a change to `N1` *without* a sample being taken from this chunk.
    ///
    /// Used when an object originally found in this chunk is re-seen from a frame
    /// belonging to a different chunk: that sighting decrements this chunk's `N1`
    /// but increments the other chunk's `n`.
    pub fn adjust_n1(&mut self, n1_delta: i64) {
        self.n1 += n1_delta;
    }

    /// The point estimate `R̂ = N1 / n` (Eq. III.1) over the clamped `N1`;
    /// `None` before the first sample (see [`estimator::point_estimate`]).
    pub(crate) fn point_estimate(&self) -> Option<f64> {
        estimator::point_estimate(self.n1(), self.n)
    }

    /// The Gamma belief distribution `Γ(N1 + α₀, n + β₀)` of Eq. III.4.
    pub fn belief(&self, config: &ExSampleConfig) -> Gamma {
        Gamma::new(
            self.n1() as f64 + config.alpha0,
            self.n as f64 + config.beta0,
        )
        .expect("priors validated to be positive")
    }
}

/// The statistics of every chunk, plus aggregate bookkeeping and the
/// struct-of-arrays belief cache (see the module docs).
#[derive(Debug, Clone)]
pub struct ChunkStatsSet {
    stats: Vec<ChunkStats>,
    total_samples: u64,
    alpha0: f64,
    beta0: f64,
    cache_d: Vec<f64>,
    cache_c: Vec<f64>,
    cache_boost_inv_shape: Vec<f64>,
    cache_rate: Vec<f64>,
    // Belief-class index (see the module docs): chunk → slot, chunk → position
    // in that slot's member list, the slots themselves, key → slot lookup, and
    // emptied slots kept for reuse.
    class_of: Vec<u32>,
    class_pos: Vec<u32>,
    classes: Vec<ClassEntry>,
    class_lookup: HashMap<(u64, u64), u32>,
    free_class_slots: Vec<u32>,
    /// `tails[n1]` is the prepared upper tail of shape `n1 + α₀`.
    tails: Vec<GammaTail>,
}

impl ChunkStatsSet {
    /// Create statistics for `chunks` chunks, caching beliefs for the paper's
    /// default priors (`α₀ = 0.1`, `β₀ = 1`).
    pub fn new(chunks: usize) -> Self {
        ChunkStatsSet::with_priors(chunks, 0.1, 1.0)
    }

    /// Create statistics for `chunks` chunks, caching beliefs for the given
    /// Gamma priors.
    pub(crate) fn with_priors(chunks: usize, alpha0: f64, beta0: f64) -> Self {
        assert!(chunks > 0, "ExSample needs at least one chunk");
        assert!(
            alpha0 > 0.0 && beta0 > 0.0,
            "belief priors must be positive (got alpha0 = {alpha0}, beta0 = {beta0})"
        );
        assert!(
            chunks < NO_CLASS as usize,
            "the class index stores chunk ids as u32"
        );
        let mut set = ChunkStatsSet {
            stats: vec![ChunkStats::new(); chunks],
            total_samples: 0,
            alpha0,
            beta0,
            cache_d: vec![0.0; chunks],
            cache_c: vec![0.0; chunks],
            cache_boost_inv_shape: vec![0.0; chunks],
            cache_rate: vec![0.0; chunks],
            class_of: vec![NO_CLASS; chunks],
            class_pos: vec![0; chunks],
            classes: Vec::new(),
            class_lookup: HashMap::new(),
            free_class_slots: Vec::new(),
            tails: Vec::new(),
        };
        for j in 0..chunks {
            set.refresh_cache(j);
        }
        set
    }

    /// The priors the belief cache is built for.
    pub(crate) fn priors(&self) -> (f64, f64) {
        (self.alpha0, self.beta0)
    }

    /// Recompute chunk `j`'s cached belief constants from its `(N1, n)` pair
    /// and move it to the matching belief class.  This is the single
    /// invalidation seam for both the SoA cache and the class index.
    fn refresh_cache(&mut self, j: usize) {
        let s = &self.stats[j];
        let shape = s.n1() as f64 + self.alpha0;
        let (d, c, boost_inv_shape) = mt_constants(shape);
        self.cache_d[j] = d;
        self.cache_c[j] = c;
        self.cache_boost_inv_shape[j] = boost_inv_shape;
        self.cache_rate[j] = s.samples() as f64 + self.beta0;
        self.update_class(j);
    }

    /// Move chunk `j` into the class slot matching its current clamped
    /// `(N1, n)` key, creating (or reusing) a slot if the key is new.  O(1).
    fn update_class(&mut self, j: usize) {
        let key = (self.stats[j].n1(), self.stats[j].samples());
        let current = self.class_of[j];
        if current != NO_CLASS {
            if self.classes[current as usize].key == key {
                return;
            }
            self.remove_from_class(j, current);
        }
        let slot = match self.class_lookup.entry(key) {
            Entry::Occupied(occupied) => *occupied.get(),
            Entry::Vacant(vacant) => {
                while (self.tails.len() as u64) <= key.0.min(MAX_CACHED_TAILS - 1) {
                    let shape = self.tails.len() as f64 + self.alpha0;
                    self.tails.push(GammaTail::new(shape));
                }
                let slot = if let Some(freed) = self.free_class_slots.pop() {
                    self.classes[freed as usize].key = key;
                    freed
                } else {
                    let fresh = self.classes.len() as u32;
                    self.classes.push(ClassEntry {
                        key,
                        members: Vec::new(),
                    });
                    fresh
                };
                *vacant.insert(slot)
            }
        };
        let entry = &mut self.classes[slot as usize];
        self.class_pos[j] = entry.members.len() as u32;
        entry.members.push(j as u32);
        self.class_of[j] = slot;
    }

    /// Unlink chunk `j` from class slot `slot`, recycling the slot when it
    /// empties.  The member that backfills `j`'s position has its stored
    /// position fixed up, keeping every removal O(1).
    fn remove_from_class(&mut self, j: usize, slot: u32) {
        let pos = self.class_pos[j] as usize;
        let entry = &mut self.classes[slot as usize];
        entry.members.swap_remove(pos);
        if let Some(&moved) = entry.members.get(pos) {
            self.class_pos[moved as usize] = pos as u32;
        }
        if entry.members.is_empty() {
            self.class_lookup.remove(&entry.key);
            self.free_class_slots.push(slot);
        }
    }

    /// Number of distinct belief classes currently occupied.
    #[inline]
    pub fn class_count(&self) -> usize {
        self.class_lookup.len()
    }

    /// Number of class *slots* ever allocated (occupied plus recycled).  The
    /// hybrid fold iterates slots and skips empty ones, so this bounds its
    /// scan; it never exceeds the chunk count.
    #[inline]
    pub(crate) fn class_slot_count(&self) -> usize {
        self.classes.len()
    }

    /// The chunks currently in class slot `slot` (empty for recycled slots).
    #[inline]
    pub(crate) fn class_members(&self, slot: usize) -> &[u32] {
        &self.classes[slot].members
    }

    /// The prepared upper tail and the rate of the belief shared by every
    /// chunk in class slot `slot`: what one max-of-k draw over the class needs.
    #[inline]
    pub(crate) fn class_tail(&self, slot: usize) -> (GammaTail, f64) {
        let (n1, n) = self.classes[slot].key;
        let tail = match self.tails.get(n1 as usize) {
            Some(&tail) => tail,
            None => GammaTail::new(n1 as f64 + self.alpha0),
        };
        (tail, n as f64 + self.beta0)
    }

    /// The cached Marsaglia–Tsang constants `(d, c, boost_inv_shape, rate)` of
    /// chunk `j`'s belief.  Exposed for the selection hot path in
    /// [`crate::policy`], which needs the raw constants to prune losing draws.
    #[inline]
    pub(crate) fn belief_constants(&self, j: usize) -> (f64, f64, f64, f64) {
        (
            self.cache_d[j],
            self.cache_c[j],
            self.cache_boost_inv_shape[j],
            self.cache_rate[j],
        )
    }

    /// The whole struct-of-arrays belief cache as parallel slices
    /// `(d, c, boost_inv_shape, rate)`, one entry per chunk.
    ///
    /// The selection hot path iterates these zipped, which lets the compiler
    /// elide per-chunk bounds checks.
    #[inline]
    pub(crate) fn belief_soa(&self) -> (&[f64], &[f64], &[f64], &[f64]) {
        (
            &self.cache_d,
            &self.cache_c,
            &self.cache_boost_inv_shape,
            &self.cache_rate,
        )
    }

    /// Number of chunks.
    pub(crate) fn len(&self) -> usize {
        self.stats.len()
    }

    /// Statistics of chunk `j`.
    pub fn chunk(&self, j: usize) -> &ChunkStats {
        &self.stats[j]
    }

    /// All chunk statistics.
    pub fn all(&self) -> &[ChunkStats] {
        &self.stats
    }

    /// Total frames sampled across all chunks.
    pub(crate) fn total_samples(&self) -> u64 {
        self.total_samples
    }

    /// Record a sample of chunk `j` with the given `N1` change.
    pub fn record(&mut self, j: usize, n1_delta: i64) {
        self.stats[j].record(n1_delta);
        self.total_samples += 1;
        self.refresh_cache(j);
    }

    /// Apply an `N1`-only adjustment to chunk `j` (no sample charged).
    pub fn adjust_n1(&mut self, j: usize, n1_delta: i64) {
        self.stats[j].adjust_n1(n1_delta);
        self.refresh_cache(j);
    }

    /// Seed chunk `j` with the accumulated history of a previous run: a net
    /// `N1` change and a sample count, applied in one step.
    ///
    /// This is the warm-start seam — a recovered belief store replays each
    /// chunk's totals into a fresh sampler so it resumes with the posterior
    /// the crashed (or completed) run had earned, instead of the prior.
    /// Seeding chunk `j` with the `(Σ n1_delta, Σ samples)` of a run's
    /// records leaves the posterior identical to having called
    /// [`ChunkStatsSet::record`] once per original sample.
    pub fn seed_chunk(&mut self, j: usize, n1_delta: i64, samples_delta: u64) {
        self.stats[j].n1 += n1_delta;
        self.stats[j].n += samples_delta;
        self.total_samples += samples_delta;
        self.refresh_cache(j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exsample_rand::Sampler;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn record_updates_counters() {
        let mut s = ChunkStats::new();
        assert_eq!(s.point_estimate(), None);
        s.record(2);
        s.record(0);
        s.record(-1);
        assert_eq!(s.samples(), 3);
        assert_eq!(s.n1, 1);
        assert_eq!(s.n1(), 1);
        assert!((s.point_estimate().unwrap() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn negative_raw_n1_is_clamped_in_estimate_and_belief() {
        let mut s = ChunkStats::new();
        s.record(-1);
        s.record(-1);
        assert_eq!(s.n1, -2);
        assert_eq!(s.n1(), 0);
        assert_eq!(s.point_estimate(), Some(0.0));
        let belief = s.belief(&ExSampleConfig::default());
        assert!((belief.shape() - 0.1).abs() < 1e-12);
        assert!((belief.rate() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn belief_matches_eq_iii_4() {
        let mut s = ChunkStats::new();
        for _ in 0..100 {
            s.record(0);
        }
        for _ in 0..5 {
            s.record(1);
        }
        let config = ExSampleConfig::default();
        let belief = s.belief(&config);
        assert!((belief.shape() - 5.1).abs() < 1e-12);
        assert!((belief.rate() - 106.0).abs() < 1e-12);
        // Mean ≈ N1/n and variance obeys the Eq. III.3-style bound mean/n.
        assert!((belief.mean() - 5.1 / 106.0).abs() < 1e-12);
        assert!(belief.variance() <= belief.mean() / 105.0 + 1e-12);
    }

    #[test]
    fn fresh_chunk_belief_is_prior_only_and_samplable() {
        let s = ChunkStats::new();
        let belief = s.belief(&ExSampleConfig::default());
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            assert!(belief.sample(&mut rng) > 0.0);
        }
    }

    #[test]
    fn stats_set_tracks_totals_and_allocation() {
        let mut set = ChunkStatsSet::new(4);
        assert_eq!(set.total_samples(), 0);
        set.record(0, 1);
        set.record(0, 0);
        set.record(2, 1);
        set.record(3, 0);
        assert_eq!(set.total_samples(), 4);
        assert_eq!(set.chunk(0).samples(), 2);
        assert_eq!(set.chunk(1).samples(), 0);
        // The empirical allocation `w_j = n_j / n` of Section IV-A sums to one.
        let allocated: u64 = (0..4).map(|j| set.chunk(j).samples()).sum();
        assert_eq!(allocated, set.total_samples());
    }

    #[test]
    fn cross_chunk_adjustment_changes_n1_but_not_samples() {
        let mut set = ChunkStatsSet::new(2);
        set.record(0, 1);
        set.adjust_n1(0, -1);
        assert_eq!(set.chunk(0).samples(), 1);
        assert_eq!(set.chunk(0).n1(), 0);
        assert_eq!(set.total_samples(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one chunk")]
    fn zero_chunks_panics() {
        let _ = ChunkStatsSet::new(0);
    }

    #[test]
    #[should_panic(expected = "priors must be positive")]
    fn invalid_priors_panic() {
        let _ = ChunkStatsSet::with_priors(2, 0.0, 1.0);
    }

    #[test]
    fn cache_tracks_record_and_adjust() {
        use exsample_rand::gamma::mt_constants;
        let config = ExSampleConfig::default();
        let mut set = ChunkStatsSet::new(3);
        assert_eq!(set.priors(), (config.alpha0, config.beta0));
        // Mutate the statistics through both update paths and check the cached
        // constants always match a fresh computation from the belief.
        set.record(0, 1);
        set.record(0, 1);
        set.record(2, 0);
        set.adjust_n1(0, -1);
        set.adjust_n1(1, -5); // clamped at zero in the belief
        for j in 0..3 {
            let belief = set.chunk(j).belief(&config);
            let (ed, ec, eb) = mt_constants(belief.shape());
            let (d, c, b, rate) = set.belief_constants(j);
            assert_eq!(d.to_bits(), ed.to_bits(), "chunk {j} d");
            assert_eq!(c.to_bits(), ec.to_bits(), "chunk {j} c");
            assert_eq!(b.to_bits(), eb.to_bits(), "chunk {j} boost");
            assert_eq!(rate.to_bits(), belief.rate().to_bits(), "chunk {j} rate");
        }
    }

    #[test]
    fn cached_belief_draw_matches_uncached_bitwise() {
        let config = ExSampleConfig::default();
        let mut set = ChunkStatsSet::new(2);
        for _ in 0..40 {
            set.record(0, 0);
        }
        for _ in 0..10 {
            set.record(1, 1);
        }
        for j in 0..2 {
            let belief = set.chunk(j).belief(&config);
            let mut rng_a = StdRng::seed_from_u64(99);
            let mut rng_b = StdRng::seed_from_u64(99);
            for i in 0..2_000 {
                let a = set.cached_belief_draw(j, &mut rng_a);
                let b = belief.sample(&mut rng_b);
                assert_eq!(a.to_bits(), b.to_bits(), "chunk {j} draw {i}");
            }
        }
    }

    /// Cross-check the incremental class index against a from-scratch grouping
    /// of the chunks by their clamped `(N1, n)` keys.
    fn assert_class_index_consistent(set: &ChunkStatsSet) {
        use std::collections::HashMap;
        let mut expected: HashMap<(u64, u64), Vec<u32>> = HashMap::new();
        for (j, s) in set.all().iter().enumerate() {
            expected
                .entry((s.n1(), s.samples()))
                .or_default()
                .push(j as u32);
        }
        assert_eq!(set.class_count(), expected.len());
        assert!(set.class_slot_count() <= set.len());
        let mut seen = 0;
        for slot in 0..set.class_slot_count() {
            let members = set.class_members(slot);
            if members.is_empty() {
                continue;
            }
            let key = set.class_key(slot);
            let mut sorted: Vec<u32> = members.to_vec();
            sorted.sort_unstable();
            let mut want = expected
                .remove(&key)
                .unwrap_or_else(|| panic!("slot {slot} holds unexpected key {key:?}"));
            want.sort_unstable();
            assert_eq!(sorted, want, "slot {slot} membership for key {key:?}");
            for &m in members {
                assert_eq!(set.chunk_class(m as usize), slot, "chunk {m} back-pointer");
            }
            let (tail, rate) = set.class_tail(slot);
            let (alpha0, beta0) = set.priors();
            assert_eq!(tail, GammaTail::new(key.0 as f64 + alpha0));
            assert_eq!(rate.to_bits(), (key.1 as f64 + beta0).to_bits());
            seen += 1;
        }
        assert_eq!(seen, set.class_count());
        assert!(
            expected.is_empty(),
            "classes missing from index: {expected:?}"
        );
    }

    #[test]
    fn fresh_set_is_one_all_prior_class() {
        let set = ChunkStatsSet::new(10);
        assert_eq!(set.class_count(), 1);
        assert_eq!(set.class_members(set.chunk_class(0)).len(), 10);
        assert_eq!(set.class_key(set.chunk_class(0)), (0, 0));
        assert_class_index_consistent(&set);
    }

    #[test]
    fn class_index_tracks_record_and_adjust() {
        let mut set = ChunkStatsSet::new(6);
        set.record(0, 1); // (1, 1)
        assert_class_index_consistent(&set);
        set.record(1, 1); // joins (1, 1)
        assert_class_index_consistent(&set);
        assert_eq!(set.chunk_class(0), set.chunk_class(1));
        assert_eq!(set.class_count(), 2);
        set.record(2, 0); // (0, 1)
        set.record(3, 0); // joins (0, 1)
        assert_class_index_consistent(&set);
        assert_eq!(set.class_count(), 3);
        // Negative raw N1 clamps into the same class as a plain miss.
        set.record(4, -1);
        assert_class_index_consistent(&set);
        assert_eq!(set.chunk_class(4), set.chunk_class(2));
        // An N1-only adjustment moves classes without charging a sample.
        set.adjust_n1(1, -1); // (1,1) → (0,1)
        assert_class_index_consistent(&set);
        assert_eq!(set.chunk_class(1), set.chunk_class(2));
        // A no-op key change (already-clamped chunk adjusted further down)
        // leaves the index untouched.
        set.adjust_n1(4, -3);
        assert_class_index_consistent(&set);
    }

    #[test]
    fn class_tails_follow_n1_past_the_cached_range() {
        // A warm start may seed any N1; beyond the cap the tail is prepared
        // on the spot and the table does not grow with it.
        let mut set = ChunkStatsSet::new(2);
        set.seed_chunk(1, 5_000_000, 3);
        assert_class_index_consistent(&set);
        assert!(set.tails.len() as u64 <= MAX_CACHED_TAILS);
        set.seed_chunk(0, MAX_CACHED_TAILS as i64 - 1, 1);
        assert_class_index_consistent(&set);
        assert_eq!(set.tails.len() as u64, MAX_CACHED_TAILS);
    }

    #[test]
    fn emptied_class_slots_are_recycled() {
        let mut set = ChunkStatsSet::new(3);
        set.record(0, 1); // new slot for (1, 1)
        let slot = set.chunk_class(0);
        set.record(0, 0); // (1, 2): (1, 1) empties, slot freed
        assert!(set.class_members(slot).is_empty() || set.chunk_class(0) == slot);
        assert_class_index_consistent(&set);
        set.record(1, 1); // (1, 1) again: must reuse a freed slot, not grow
        assert_class_index_consistent(&set);
        assert!(set.class_slot_count() <= 3);
        // Slot count never exceeds the chunk count even under heavy churn.
        let mut rng_state = 0x9e3779b97f4a7c15u64;
        for step in 0..500 {
            rng_state = rng_state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (rng_state >> 33) as usize % 3;
            if step % 3 == 0 {
                set.adjust_n1(j, if step % 2 == 0 { -1 } else { 1 });
            } else {
                set.record(j, (step % 2) as i64);
            }
        }
        assert_class_index_consistent(&set);
        assert!(set.class_slot_count() <= 3);
    }

    #[test]
    fn seeding_a_chunk_is_equivalent_to_replaying_its_records() {
        // A warm start replays each chunk's (Σ n1_delta, Σ samples) in one
        // seed_chunk call; the posterior — raw counters, cached belief
        // constants, class index — must match a chunk that lived through the
        // individual records.
        let mut lived = ChunkStatsSet::new(3);
        let deltas = [1i64, -1, 0, 1, 1, -1, 0, 1];
        for (i, &d) in deltas.iter().enumerate() {
            lived.record(i % 3, d);
        }

        let mut seeded = ChunkStatsSet::new(3);
        for j in 0..3 {
            let n1: i64 = deltas
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 3 == j)
                .map(|(_, &d)| d)
                .sum();
            let samples = deltas
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 3 == j)
                .count() as u64;
            seeded.seed_chunk(j, n1, samples);
        }

        assert_eq!(lived.all(), seeded.all());
        assert_eq!(lived.total_samples(), seeded.total_samples());
        for j in 0..3 {
            assert_eq!(lived.belief_constants(j), seeded.belief_constants(j));
        }
        let mut rng_a = StdRng::seed_from_u64(11);
        let mut rng_b = StdRng::seed_from_u64(11);
        for j in 0..3 {
            assert_eq!(
                lived.cached_belief_draw(j, &mut rng_a).to_bits(),
                seeded.cached_belief_draw(j, &mut rng_b).to_bits()
            );
        }
    }

    #[test]
    fn non_default_priors_are_cached_for_those_priors() {
        let config = ExSampleConfig::default().with_priors(0.5, 2.0);
        let mut set = ChunkStatsSet::with_priors(4, 0.5, 2.0);
        set.record(3, 2);
        let belief = set.chunk(3).belief(&config);
        let mut rng_a = StdRng::seed_from_u64(7);
        let mut rng_b = StdRng::seed_from_u64(7);
        for _ in 0..500 {
            assert_eq!(
                set.cached_belief_draw(3, &mut rng_a).to_bits(),
                belief.sample(&mut rng_b).to_bits()
            );
        }
    }

    /// Views of the class index and the belief cache that the tests check against
    /// the per-chunk statistics.
    impl ChunkStatsSet {
        /// The class slot chunk `j` currently belongs to.
        pub(crate) fn chunk_class(&self, j: usize) -> usize {
            self.class_of[j] as usize
        }

        /// The clamped `(N1, n)` key of class slot `slot`.
        pub(crate) fn class_key(&self, slot: usize) -> (u64, u64) {
            self.classes[slot].key
        }

        /// Draw one value from chunk `j`'s belief using the cached constants.
        ///
        /// Bitwise identical to `self.chunk(j).belief(config).sample(rng)` under
        /// the same RNG state, provided `config`'s priors match [`Self::priors`] —
        /// without constructing a distribution.
        pub(crate) fn cached_belief_draw<R: rand::Rng + ?Sized>(
            &self,
            j: usize,
            rng: &mut R,
        ) -> f64 {
            exsample_rand::gamma::gamma_draw(
                rng,
                self.cache_d[j],
                self.cache_c[j],
                self.cache_boost_inv_shape[j],
                self.cache_rate[j],
            )
        }
    }
}
