//! Assigning the chunk axis to shards.
//!
//! Every chunk of a [`Chunking`](crate::Chunking) is owned by exactly one
//! shard.  Two deterministic partitioners cover the common layouts:
//!
//! * [`ShardPartitioner::RoundRobin`] — chunk `j` goes to shard `j mod S`.
//!   Spreads temporally adjacent chunks (which tend to have correlated load)
//!   across shards.
//! * [`ShardPartitioner::Contiguous`] — the chunk axis is cut into `S`
//!   contiguous ranges of near-equal chunk count.  Keeps each shard's frames
//!   contiguous, which is what a deployment that stores video by time range
//!   wants.
//!
//! A [`ShardSpec`] is the pure chunk→shard mapping.  Nothing in the workspace
//! executes per shard: the engine's `ShardRouter` pairs a spec with a chunking
//! to decide which shard of its per-shard report view each frame's tallies
//! are attributed to.

/// How chunks are assigned to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPartitioner {
    /// Chunk `j` belongs to shard `j mod S`.
    RoundRobin,
    /// The chunk axis is split into `S` contiguous ranges of near-equal size
    /// (the same remainder-spreading rule [`crate::ChunkingPolicy::FixedCount`]
    /// uses for frames).
    Contiguous,
}

/// A complete assignment of chunks to shards.
///
/// The spec is pure bookkeeping over chunk *indices* — it knows nothing about
/// frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// `assignment[j]` = shard owning chunk `j`.
    assignment: Vec<u32>,
    shards: u32,
}

impl ShardSpec {
    /// Assign `chunks` chunks round-robin over `shards` shards.
    ///
    /// # Panics
    /// Panics if `chunks` or `shards` is zero.
    pub fn round_robin(chunks: usize, shards: u32) -> Self {
        Self::build(chunks, shards, |j, s| (j % s as usize) as u32)
    }

    /// Split `chunks` chunks into `shards` contiguous ranges whose sizes
    /// differ by at most one (the `floor(s * chunks / shards)` start rule —
    /// the same rule [`crate::ChunkingPolicy::FixedCount`] applies to frames
    /// — which lands the remainder chunks on the *later* shards).
    ///
    /// # Panics
    /// Panics if `chunks` or `shards` is zero.
    pub fn contiguous(chunks: usize, shards: u32) -> Self {
        let s = shards as usize;
        Self::build(chunks, shards, |j, _| {
            // Inverse of the range starts `start_s = s * chunks / shards`.
            let mut shard = j * s / chunks;
            while (shard + 1) * chunks / s <= j {
                shard += 1;
            }
            shard as u32
        })
    }

    /// Build a spec for the given partitioner.
    ///
    /// # Panics
    /// Panics if `chunks` or `shards` is zero.
    pub fn new(partitioner: ShardPartitioner, chunks: usize, shards: u32) -> Self {
        match partitioner {
            ShardPartitioner::RoundRobin => Self::round_robin(chunks, shards),
            ShardPartitioner::Contiguous => Self::contiguous(chunks, shards),
        }
    }

    fn build(chunks: usize, shards: u32, shard_of: impl Fn(usize, u32) -> u32) -> Self {
        assert!(chunks > 0, "cannot shard an empty chunking");
        assert!(shards > 0, "shard count must be positive");
        let assignment: Vec<u32> = (0..chunks).map(|j| shard_of(j, shards)).collect();
        debug_assert!(
            assignment.iter().all(|&s| s < shards),
            "partitioner produced an out-of-range shard"
        );
        ShardSpec { assignment, shards }
    }

    /// Number of chunks covered by the spec.
    pub fn chunk_count(&self) -> usize {
        self.assignment.len()
    }

    /// Number of shards (some may own zero chunks when there are more shards
    /// than chunks).
    pub fn shard_count(&self) -> u32 {
        self.shards
    }

    /// `assignment` as a slice: `shard_assignment()[j]` is the shard owning
    /// chunk `j`.
    pub fn shard_assignment(&self) -> &[u32] {
        &self.assignment
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_assignment_and_remapping() {
        let spec = ShardSpec::round_robin(7, 3);
        assert_eq!(spec.shard_assignment(), &[0, 1, 2, 0, 1, 2, 0]);
        assert_eq!(spec, ShardSpec::new(ShardPartitioner::RoundRobin, 7, 3));
        assert_eq!((spec.chunk_count(), spec.shard_count()), (7, 3));
    }

    #[test]
    fn contiguous_assignment_is_ordered_and_balanced() {
        let spec = ShardSpec::contiguous(10, 3);
        // Shards own contiguous, near-equal ranges covering every chunk once:
        // the assignment never decreases and never skips a shard.
        let assignment = spec.shard_assignment();
        assert!(assignment
            .windows(2)
            .all(|w| w[1] == w[0] || w[1] == w[0] + 1));
        assert_eq!((assignment[0], assignment[9]), (0, 2));
        let sizes: Vec<usize> = (0..spec.shard_count())
            .map(|s| assignment.iter().filter(|&&a| a == s).count())
            .collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn more_shards_than_chunks_leaves_empty_shards() {
        let spec = ShardSpec::round_robin(2, 5);
        assert_eq!(spec.shard_count(), 5);
        assert_eq!(spec.shard_assignment(), &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "shard count must be positive")]
    fn zero_shards_panics() {
        let _ = ShardSpec::round_robin(4, 0);
    }
}
