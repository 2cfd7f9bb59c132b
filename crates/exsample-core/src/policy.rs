//! Chunk-selection policies.
//!
//! Given the per-chunk statistics, a policy decides which chunk to sample from
//! next.  The paper's policy is Thompson sampling over the Gamma beliefs of
//! Eq. III.4; it also reports experimenting with Bayes-UCB and finding no
//! difference.  The greedy point-estimate policy and the uniform policy are
//! included as ablations: greedy demonstrates the "stuck on an early lucky chunk"
//! failure mode motivating Thompson sampling, and uniform reduces ExSample to the
//! random baseline.
//!
//! # The hot path
//!
//! Thompson sampling must draw from *every* eligible chunk's belief on every
//! pick, so this module is the per-pick cost centre.  Which arg-max runs is
//! decided by what the code can see — the chunk count and whether the
//! statistics' cached priors match the config (`ChunkStatsSet::priors`) —
//! never by a knob:
//!
//! * at or below `SMALL_M_CHUNKS` chunks, a plain loop over the cached
//!   per-chunk Marsaglia–Tsang constants, one full RNG schedule per eligible
//!   chunk (one pruned pass maintaining `batch` running arg-maxes when
//!   batched);
//! * above it, the **hybrid belief-class fold** described below;
//! * the **reference path** ([`select_chunk_reference`], also taken when the
//!   cached priors do not match): constructs each chunk's belief distribution
//!   per draw, exactly as a from-the-paper implementation would.
//!
//! At or below `SMALL_M_CHUNKS` the cached and reference paths consume
//! identical RNG streams, so they select identical chunk sequences under the
//! same seed (asserted draw for draw); above it they agree in distribution
//! (asserted by chi-square tests).
//!
//! NaN handling: arg-max folding uses a *total* "beats" relation in which any
//! non-NaN draw beats any NaN draw and NaN beats nothing.  A belief degenerate
//! enough to produce NaN draws (e.g. priors at the edge of the float range)
//! therefore can no longer mask every later chunk, which the previous
//! `draw > best` comparison allowed.
//!
//! # The hybrid belief-class fold
//!
//! All chunks sharing a clamped `(N1, n)` posterior draw from the *same* Gamma,
//! so the maximum of a class's `k` iid draws is one exact order-statistic draw
//! ([`exsample_rand::GammaTail::max_of_k`]), and the chunk carrying it is
//! uniform among the class's eligible members (exchangeable draws).  That draw
//! costs about 0.3 µs — twenty cached per-chunk draws — so it pays for a big
//! class and loses badly on a singleton, and a real posterior holds both: a
//! few big classes (the all-prior chunks, the chunks sampled a few times
//! without a hit) and a scatter of small ones.  The fold therefore walks the
//! belief-class index once and lets every class choose: fewer than
//! `HYBRID_MIN` eligible members draw per chunk through the cached constants
//! and the prune, a larger class contributes one max-of-k draw and, if it
//! wins, resolves to a uniformly chosen eligible member.  All-singleton
//! posteriors degenerate to the per-chunk fold, all-prior ones to a single
//! draw, and nothing in between needs a gate.  The fold is distributionally
//! exact but has its own RNG schedule, which is why it starts above
//! `SMALL_M_CHUNKS`: smaller repositories keep their pick sequences.
//!
//! Most large-class draws lose to the running best (60–75 % on the BDD
//! analogs), and a draw that loses is only compared and thrown away.  So a
//! large class passes its slot's best as a floor
//! ([`exsample_rand::GammaTail::max_of_k_above`]).  The draw spends its
//! uniform `U` first, as always.  It skips the inversion when its tail level
//! `q = −expm1(ln U / k)` is no smaller than `Q(a, best·rate)`, the tail
//! probability of the best: `Q` falls strictly, so the inverted draw would be
//! `≤ best`.  The test tries a closed-form bound on `Q` first (one `ln`), then
//! `ln Q` itself.  It skips only when `ln q` clears the tested `ln Q` by 1e-9,
//! 1000× the inversion's residual, so every skipped draw would have lost
//! after inversion too.  The RNG stream is untouched (one uniform either
//! way), and a draw that is not skipped comes back bit for bit.  Every pick
//! is therefore exactly what the ungated fold picks.  An unset or NaN best
//! is passed as a floor of 0, which is never tested.

use crate::config::{ChunkSelectionPolicy, ExSampleConfig};
use crate::stats::ChunkStatsSet;
use exsample_rand::gamma::mt_draw_unit;
use exsample_rand::ziggurat::fast_exponential;
use rand::Rng;

/// Chunk count at or below which selection stays on the per-chunk paths.
///
/// At small M the arg-max scan is pick-overhead-bound: the zipped
/// struct-of-arrays walk and the prune's gate branch cost more than the handful
/// of `exp`s they avoid (the prune only pays off once a scan skips ~`ln M`
/// boost exponentials, and the video pipeline's typical chunk counts sit well
/// below that break-even).  The single pick is a plain indexed loop that
/// consumes every chunk's *full* RNG schedule — the same stream as a textbook
/// per-chunk Thompson draw, which the equivalence tests exploit — and skips
/// only the boost's `exp` for a chunk whose unboosted draw already trails the
/// best (see `thompson_pick_small`).  Above it the hybrid belief-class fold
/// takes over.
pub(crate) const SMALL_M_CHUNKS: usize = 64;

/// Eligible members at which a belief class stops drawing per chunk and
/// contributes one max-of-k draw.
///
/// Break-even is the cost of that draw in cached per-chunk draws: 0.30–0.45 µs
/// against ~16 ns each (less where the prune skips the boost), so about 20.
/// End to end the choice is flat around it — the BDD 1k analog's fig5 queries
/// (1000 chunks, ~16 live classes) cost 3.05 / 2.84 / 3.28 / 3.14 µs per
/// ExSample frame at 8 / 16 / 32 / 64 on this host (17.6 before the fold), and
/// `fig5_sweep/wall_s` reads 1.07 / 0.80 / 0.77 / 0.82 / 0.81 / 0.82 / 0.90 s
/// at 4 / 8 / 12 / 16 / 24 / 32 / 64 — because a real posterior has almost
/// nothing between its singletons and its classes of hundreds.
///
/// Since the floor test (module docs), a max-of-k draw that loses costs
/// 64–70 ns when the closed-form bound settles it and 81–142 ns when `ln Q`
/// does, against 0.28–0.38 µs inverted (`max_of_k_gated` rows), so the
/// break-even for losers sits nearer 4–9 per-chunk draws.  The constant
/// stays: which classes draw per chunk decides the fold's RNG schedule, so
/// moving it would move every pick above 64 chunks, and by the sweep above
/// the end-to-end choice is flat anyway.
const HYBRID_MIN: usize = 16;

/// How a selection was served, for the sampler's telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Served {
    /// One draw per eligible chunk: every path but the hybrid fold.
    PerChunk,
    /// The hybrid fold, issuing `draws` Gamma draws per pick: one per large
    /// class plus one per eligible member of every small class.
    Hybrid { draws: usize },
}

/// Total-order arg-max comparison: does `candidate` strictly beat `incumbent`?
///
/// Any non-NaN value beats any NaN value; NaN beats nothing; otherwise plain
/// `>`.  Ties (and NaN vs NaN) keep the incumbent, matching the first-wins
/// behaviour of the sequential fold.
#[inline]
pub(crate) fn beats(candidate: f64, incumbent: f64) -> bool {
    if candidate.is_nan() {
        false
    } else if incumbent.is_nan() {
        true
    } else {
        candidate > incumbent
    }
}

fn assert_mask(stats: &ChunkStatsSet, eligible: &[bool]) {
    assert_eq!(
        eligible.len(),
        stats.len(),
        "eligibility mask must cover every chunk"
    );
}

/// Whether the statistics' belief cache was built for `config`'s priors.
#[inline]
fn cache_matches(config: &ExSampleConfig, stats: &ChunkStatsSet) -> bool {
    stats.priors() == (config.alpha0, config.beta0)
}

/// Score every *eligible* chunk under the configured policy and return the index of
/// the winner.
///
/// `eligible` marks chunks that still have frames left to sample; ineligible chunks
/// are never selected.  Returns `None` if no chunk is eligible.
///
/// This is the direct single-pick hot path: it performs no heap allocation and,
/// for Thompson sampling with matching cached priors, no belief construction.
pub fn select_chunk<R: Rng + ?Sized>(
    config: &ExSampleConfig,
    stats: &ChunkStatsSet,
    eligible: &[bool],
    rng: &mut R,
) -> Option<usize> {
    select_chunk_known(config, stats, eligible, None, rng).0
}

/// [`select_chunk`] for a caller that maintains the mask incrementally and so
/// knows whether it is all `true` (`None`: scan for it if the answer is
/// needed).  Also reports how the pick was served.
pub(crate) fn select_chunk_known<R: Rng + ?Sized>(
    config: &ExSampleConfig,
    stats: &ChunkStatsSet,
    eligible: &[bool],
    all_eligible: Option<bool>,
    rng: &mut R,
) -> (Option<usize>, Served) {
    assert_mask(stats, eligible);
    let pick = match config.policy {
        ChunkSelectionPolicy::ThompsonSampling => {
            match (stats.len() > SMALL_M_CHUNKS, cache_matches(config, stats)) {
                (true, true) => {
                    let mut winner = [UNSET];
                    let mut best = [f64::NEG_INFINITY];
                    let draws = thompson_fold_hybrid(
                        stats,
                        eligible,
                        all_eligible,
                        rng,
                        &mut winner,
                        &mut best,
                    );
                    let pick = (winner[0] != UNSET).then_some(winner[0]);
                    return (pick, Served::Hybrid { draws });
                }
                (true, false) => thompson_pick_uncached(config, stats, eligible, rng),
                (false, true) => thompson_pick_small(eligible, rng, |j| stats.belief_constants(j)),
                (false, false) => {
                    thompson_pick_small(eligible, rng, |j| uncached_constants(config, stats, j))
                }
            }
        }
        ChunkSelectionPolicy::BayesUcb => bayes_ucb_pick(config, stats, eligible),
        ChunkSelectionPolicy::GreedyMean => greedy_pick(stats, eligible, rng),
        ChunkSelectionPolicy::UniformChunk => uniform_pick(eligible, rng),
    };
    (pick, Served::PerChunk)
}

/// The textbook reference implementation of [`select_chunk`]: every Thompson
/// draw constructs the chunk's belief distribution from scratch and every
/// eligible chunk draws.
///
/// Exists so tests (and benchmarks) can prove the optimised paths equivalent.
/// Up to `SMALL_M_CHUNKS` chunks both functions consume the same random
/// stream, compute the same draw values, and return the same chunk — draw for
/// draw; above it the hybrid fold matches this function in distribution.
pub fn select_chunk_reference<R: Rng + ?Sized>(
    config: &ExSampleConfig,
    stats: &ChunkStatsSet,
    eligible: &[bool],
    rng: &mut R,
) -> Option<usize> {
    assert_mask(stats, eligible);
    match config.policy {
        ChunkSelectionPolicy::ThompsonSampling => {
            // Full draws at small M (the cached path's schedule), the pruned
            // fold above.
            if stats.len() <= SMALL_M_CHUNKS {
                thompson_pick_small(eligible, rng, |j| uncached_constants(config, stats, j))
            } else {
                thompson_pick_uncached(config, stats, eligible, rng)
            }
        }
        _ => select_chunk(config, stats, eligible, rng),
    }
}

/// Select `batch` chunk indices (with repetition allowed) under the configured
/// policy, as used by the batched-sampling optimisation of Section III-F.
///
/// For Thompson sampling this draws `batch` independent samples per chunk belief —
/// so the returned indices follow the same distribution as `batch` sequential
/// (un-updated) picks.  Deterministic policies (Bayes-UCB, greedy) return the same
/// index `batch` times, which is also their correct batched behaviour in the
/// absence of state updates.
///
/// Allocates the result vector; the hot-path variant is [`select_batch_into`].
pub fn select_batch<R: Rng + ?Sized>(
    config: &ExSampleConfig,
    stats: &ChunkStatsSet,
    eligible: &[bool],
    batch: usize,
    rng: &mut R,
) -> Vec<usize> {
    let mut out = Vec::new();
    let mut scratch = Vec::new();
    select_batch_into(config, stats, eligible, batch, rng, &mut out, &mut scratch);
    out
}

/// Allocation-free batched selection: fills `out` with up to `batch` chunk
/// indices, reusing `out` and the caller-provided `scratch_draws` buffer.
///
/// `out` is left empty when no chunk is eligible or `batch == 0`.  For Thompson
/// sampling with matching cached priors, the selection runs as a *single pass*
/// over the chunk cache (or its belief classes) maintaining `batch` running
/// arg-maxes rather than `batch` full scans, which keeps every chunk's cached
/// constants in registers across its `batch` draws.
pub fn select_batch_into<R: Rng + ?Sized>(
    config: &ExSampleConfig,
    stats: &ChunkStatsSet,
    eligible: &[bool],
    batch: usize,
    rng: &mut R,
    out: &mut Vec<usize>,
    scratch_draws: &mut Vec<f64>,
) {
    assert_mask(stats, eligible);
    out.clear();
    if batch > 0 && eligible.iter().any(|&e| e) {
        select_batch_known(
            config,
            stats,
            eligible,
            None,
            batch,
            rng,
            out,
            scratch_draws,
        );
    }
}

/// [`select_batch_into`] for a caller that already knows `batch > 0`, that
/// some chunk is eligible, and whether all are (see [`select_chunk_known`]).
/// Reports how the batch was served.
#[allow(clippy::too_many_arguments)]
pub(crate) fn select_batch_known<R: Rng + ?Sized>(
    config: &ExSampleConfig,
    stats: &ChunkStatsSet,
    eligible: &[bool],
    all_eligible: Option<bool>,
    batch: usize,
    rng: &mut R,
    out: &mut Vec<usize>,
    scratch_draws: &mut Vec<f64>,
) -> Served {
    assert_mask(stats, eligible);
    out.clear();
    match config.policy {
        ChunkSelectionPolicy::ThompsonSampling => {
            if cache_matches(config, stats) {
                out.resize(batch, UNSET);
                scratch_draws.clear();
                scratch_draws.resize(batch, f64::NEG_INFINITY);
                if stats.len() > SMALL_M_CHUNKS {
                    let draws = thompson_fold_hybrid(
                        stats,
                        eligible,
                        all_eligible,
                        rng,
                        out,
                        scratch_draws,
                    );
                    debug_assert!(out.iter().all(|&j| j != UNSET));
                    return Served::Hybrid { draws };
                }
                thompson_batch_cached(stats, eligible, rng, out, scratch_draws);
            } else {
                for _ in 0..batch {
                    let pick = thompson_pick_uncached(config, stats, eligible, rng)
                        .expect("an eligible chunk exists");
                    out.push(pick);
                }
            }
        }
        ChunkSelectionPolicy::BayesUcb => {
            let pick = bayes_ucb_pick(config, stats, eligible).expect("an eligible chunk exists");
            out.extend(std::iter::repeat_n(pick, batch));
        }
        ChunkSelectionPolicy::GreedyMean => {
            let pick = greedy_pick(stats, eligible, rng).expect("an eligible chunk exists");
            out.extend(std::iter::repeat_n(pick, batch));
        }
        ChunkSelectionPolicy::UniformChunk => {
            for _ in 0..batch {
                let pick = uniform_pick(eligible, rng).expect("an eligible chunk exists");
                out.push(pick);
            }
        }
    }
    Served::PerChunk
}

/// Fold one Thompson draw for a chunk into a running arg-max, given the raw
/// Marsaglia–Tsang value `t0 = d·v³` of the chunk's (boosted) belief.
///
/// The chunk's final draw is `raw / rate` with `raw ≤ t0`, because the
/// `shape < 1` boost factor `exp(−E/shape)` is ≤ 1.  A multiply-compare
/// (`t0 > best·rate`) therefore prunes chunks that cannot win *before* the
/// exponential variate, the `exp` and the division are paid — only candidates
/// that might take the lead (about `ln M` per scan, plus near-misses) do the
/// full work.  A NaN incumbent is treated as always beatable so a degenerate
/// draw can never mask later chunks (see [`beats`]).
///
/// Exactness: the prune never changes which chunk wins the arg-max, up to a
/// ≤ 1-ulp boundary (the gate compares `t0` against the *rounded* product
/// `best·rate` instead of dividing), which is far below the noise floor of the
/// draws themselves.  The hybrid fold's small classes, the small-M batched
/// pass and the uncached reference all use this same fold; distribution
/// equivalence against a textbook full-draw arg-max is asserted by a
/// chi-square test.
///
/// Returns the new best draw value if the chunk took the lead.
#[inline(always)]
fn fold_thompson_draw<R: Rng + ?Sized>(
    rng: &mut R,
    t0: f64,
    boost_inv_shape: f64,
    rate: f64,
    best: f64,
    first: bool,
) -> Option<f64> {
    if !(first || t0 > best * rate || best.is_nan()) {
        return None;
    }
    let raw = if boost_inv_shape > 0.0 {
        let e = fast_exponential(rng);
        t0 * (-e * boost_inv_shape).exp()
    } else {
        t0
    };
    let draw = raw / rate;
    if first || beats(draw, best) {
        Some(draw)
    } else {
        None
    }
}

/// Count the eligible members of a class, or all of them when the caller has
/// already established full eligibility.
#[inline]
fn eligible_in_class(members: &[u32], eligible: &[bool], all_eligible: bool) -> usize {
    if all_eligible {
        members.len()
    } else {
        members.iter().filter(|&&m| eligible[m as usize]).count()
    }
}

/// Resolve a winning class to a concrete chunk: uniform among its eligible
/// members.  Exchangeability of iid draws makes every eligible member equally
/// likely to carry the class maximum, so this is the exact conditional
/// distribution of the per-chunk arg-max given that this class won.
#[inline]
fn resolve_class_winner<R: Rng + ?Sized>(
    members: &[u32],
    eligible: &[bool],
    all_eligible: bool,
    rng: &mut R,
) -> usize {
    if all_eligible {
        members[rng.gen_range(0..members.len())] as usize
    } else {
        let count = eligible_in_class(members, eligible, false);
        let target = rng.gen_range(0..count);
        members
            .iter()
            .filter(|&&m| eligible[m as usize])
            .nth(target)
            .map(|&m| m as usize)
            .expect("winning class has an eligible member")
    }
}

/// "No candidate yet" in a running arg-max slot.
const UNSET: usize = usize::MAX;

/// Marks a running arg-max slot as holding a class slot, still to be resolved
/// to a member, rather than a chunk.  Chunk ids and class slots both fit in a
/// `u32`, so the top bit is free (and [`UNSET`] is never resolved).
const CLASS_TAG: usize = 1 << (usize::BITS - 1);

/// The hybrid belief-class Thompson fold (see the module docs): one walk over
/// the class index folding into `winners.len()` independent running arg-maxes
/// (`bests` their draw values; both pre-filled with [`UNSET`] / `−∞`), then a
/// pass resolving every slot won by a large class to one of its eligible
/// members.  A single pick is a batch of one.  Class-outer / slot-inner keeps
/// a class's constants in registers across the batch.  Allocation-free.
///
/// Slots stay [`UNSET`] only if no chunk is eligible.  Returns the Gamma draws
/// issued per slot.
fn thompson_fold_hybrid<R: Rng + ?Sized>(
    stats: &ChunkStatsSet,
    eligible: &[bool],
    all_eligible: Option<bool>,
    rng: &mut R,
    winners: &mut [usize],
    bests: &mut [f64],
) -> usize {
    let all_eligible = all_eligible.unwrap_or_else(|| eligible.iter().all(|&e| e));
    let mut draws = 0;
    for slot in 0..stats.class_slot_count() {
        let members = stats.class_members(slot);
        let k = eligible_in_class(members, eligible, all_eligible);
        if k == 0 {
            continue;
        }
        if k < HYBRID_MIN {
            draws += k;
            let (d, c, boost, rate) = stats.belief_constants(members[0] as usize);
            for &member in members {
                let j = member as usize;
                if !(all_eligible || eligible[j]) {
                    continue;
                }
                for (winner, best) in winners.iter_mut().zip(bests.iter_mut()) {
                    let t0 = mt_draw_unit(rng, d, c);
                    if let Some(draw) =
                        fold_thompson_draw(rng, t0, boost, rate, *best, *winner == UNSET)
                    {
                        *winner = j;
                        *best = draw;
                    }
                }
            }
        } else {
            draws += 1;
            let (tail, rate) = stats.class_tail(slot);
            for (winner, best) in winners.iter_mut().zip(bests.iter_mut()) {
                // A draw at or below the running best cannot take the lead,
                // so it is not inverted (see the module docs).
                let floor = if *winner == UNSET || best.is_nan() {
                    0.0
                } else {
                    *best
                };
                if let Some(draw) = tail.max_of_k_above(rng, rate, k as u64, floor) {
                    if *winner == UNSET || beats(draw, *best) {
                        *winner = CLASS_TAG | slot;
                        *best = draw;
                    }
                }
            }
        }
    }
    for winner in winners.iter_mut() {
        if *winner != UNSET && *winner & CLASS_TAG != 0 {
            let members = stats.class_members(*winner ^ CLASS_TAG);
            *winner = resolve_class_winner(members, eligible, all_eligible, rng);
        }
    }
    draws
}

/// The small-M fast path: a plain loop drawing every eligible chunk's belief
/// from its `(d, c, boost_inv_shape, rate)` constants — `constants` reads them
/// from the belief cache or rebuilds them from the statistics.  Every chunk
/// consumes the full [`exsample_rand::gamma::gamma_draw`] schedule (the
/// Marsaglia–Tsang body, then the boost exponential below shape 1), so each
/// pick is draw-for-draw identical to a textbook per-chunk Thompson arg-max
/// under the same RNG state.  Only the boost's `exp` and multiply are skipped, when the unboosted
/// `t0/rate` is already `≤ best`: the factor `exp(−E/shape)` lies in
/// `[0, 1]` and floating-point multiply and divide are monotone, so the full
/// draw could not have won either.  Allocation-free.
#[inline]
fn thompson_pick_small<R: Rng + ?Sized>(
    eligible: &[bool],
    rng: &mut R,
    constants: impl Fn(usize) -> (f64, f64, f64, f64),
) -> Option<usize> {
    let mut best_j: Option<usize> = None;
    // Starts at −∞, which no `t0/rate` is at or below.
    let mut best = f64::NEG_INFINITY;
    for (j, &elig) in eligible.iter().enumerate() {
        if !elig {
            continue;
        }
        let (d, c, boost_inv_shape, rate) = constants(j);
        let t0 = mt_draw_unit(rng, d, c);
        let draw = if boost_inv_shape > 0.0 {
            let e = fast_exponential(rng);
            if t0 / rate <= best {
                continue;
            }
            t0 * (-e * boost_inv_shape).exp() / rate
        } else {
            t0 / rate
        };
        if best_j.is_none() || beats(draw, best) {
            best_j = Some(j);
            best = draw;
        }
    }
    best_j
}

/// Chunk `j`'s sampling constants rebuilt from its statistics under
/// `config`'s priors: what the belief cache holds when the priors match.
#[inline]
fn uncached_constants(
    config: &ExSampleConfig,
    stats: &ChunkStatsSet,
    j: usize,
) -> (f64, f64, f64, f64) {
    let belief = stats.chunk(j).belief(config);
    let (d, c, boost_inv_shape) = exsample_rand::gamma::mt_constants(belief.shape());
    (d, c, boost_inv_shape, belief.rate())
}

/// One-pass batched Thompson sampling at small M: for each eligible chunk,
/// draw `out.len()` values and fold them into that many independent running
/// arg-maxes (`out` / `best` pre-filled with [`UNSET`] / `−∞`).  Iterates the
/// struct-of-arrays cache zipped so the loop carries no bounds checks.
fn thompson_batch_cached<R: Rng + ?Sized>(
    stats: &ChunkStatsSet,
    eligible: &[bool],
    rng: &mut R,
    out: &mut [usize],
    best: &mut [f64],
) {
    let (ds, cs, boosts, rates) = stats.belief_soa();
    for (j, ((((&elig, &d), &c), &boost), &rate)) in eligible
        .iter()
        .zip(ds)
        .zip(cs)
        .zip(boosts)
        .zip(rates)
        .enumerate()
    {
        if !elig {
            continue;
        }
        for (slot, slot_best) in out.iter_mut().zip(best.iter_mut()) {
            let t0 = mt_draw_unit(rng, d, c);
            if let Some(draw) = fold_thompson_draw(rng, t0, boost, rate, *slot_best, *slot == UNSET)
            {
                *slot = j;
                *slot_best = draw;
            }
        }
    }
    debug_assert!(out.iter().all(|&j| j != UNSET));
}

/// Uncached per-chunk Thompson sampling with the prune: every eligible chunk
/// draws, in chunk order, its belief constants rebuilt from the statistics on
/// every draw.  The large-M reference, and the path for statistics cached
/// under other priors than the config's.
fn thompson_pick_uncached<R: Rng + ?Sized>(
    config: &ExSampleConfig,
    stats: &ChunkStatsSet,
    eligible: &[bool],
    rng: &mut R,
) -> Option<usize> {
    let mut best_j: Option<usize> = None;
    let mut best = f64::NEG_INFINITY;
    for (j, &elig) in eligible.iter().enumerate() {
        if !elig {
            continue;
        }
        let (d, c, boost, rate) = uncached_constants(config, stats, j);
        let t0 = mt_draw_unit(rng, d, c);
        if let Some(draw) = fold_thompson_draw(rng, t0, boost, rate, best, best_j.is_none()) {
            best_j = Some(j);
            best = draw;
        }
    }
    best_j
}

/// Bayes-UCB: rank chunks by the `1 − 1/(t+1)` quantile of their belief, where `t`
/// is the total number of samples taken so far (Kaufmann's index policy).
fn bayes_ucb_pick(
    config: &ExSampleConfig,
    stats: &ChunkStatsSet,
    eligible: &[bool],
) -> Option<usize> {
    let t = stats.total_samples() as f64;
    let level = 1.0 - 1.0 / (t + 2.0);
    let mut best_j: Option<usize> = None;
    let mut best = f64::NEG_INFINITY;
    for (j, chunk) in stats.all().iter().enumerate() {
        if !eligible[j] {
            continue;
        }
        let index = chunk.belief(config).quantile(level);
        if best_j.is_none() || beats(index, best) {
            best_j = Some(j);
            best = index;
        }
    }
    best_j
}

/// Greedy: arg-max of the point estimate, random among unsampled chunks / ties.
fn greedy_pick<R: Rng + ?Sized>(
    stats: &ChunkStatsSet,
    eligible: &[bool],
    rng: &mut R,
) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    let mut ties = 0u32;
    for (j, chunk) in stats.all().iter().enumerate() {
        if !eligible[j] {
            continue;
        }
        // Unsampled chunks get a tiny optimistic default so they are explored
        // before chunks that have produced nothing.
        let estimate = chunk.point_estimate().unwrap_or(f64::MIN_POSITIVE);
        match best {
            None => {
                best = Some((j, estimate));
                ties = 1;
            }
            Some((_, b)) if beats(estimate, b) => {
                best = Some((j, estimate));
                ties = 1;
            }
            Some((_, b)) if estimate == b => {
                // Reservoir-style uniform tie breaking.
                ties += 1;
                if rng.gen_range(0..ties) == 0 {
                    best = Some((j, estimate));
                }
            }
            _ => {}
        }
    }
    best.map(|(j, _)| j)
}

/// Uniform: ignore statistics, pick an eligible chunk uniformly at random.
fn uniform_pick<R: Rng + ?Sized>(eligible: &[bool], rng: &mut R) -> Option<usize> {
    let count = eligible.iter().filter(|&&e| e).count();
    if count == 0 {
        return None;
    }
    let target = rng.gen_range(0..count);
    eligible
        .iter()
        .enumerate()
        .filter(|(_, &e)| e)
        .nth(target)
        .map(|(j, _)| j)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn skewed_stats() -> ChunkStatsSet {
        // Chunk 1 has produced results; chunks 0 and 2 have produced nothing.
        let mut stats = ChunkStatsSet::new(3);
        for _ in 0..30 {
            stats.record(0, 0);
            stats.record(2, 0);
        }
        for _ in 0..30 {
            stats.record(1, 1);
        }
        stats
    }

    /// Per-chunk counts of `trials` picks through `pick`.
    fn counts(chunks: usize, trials: usize, mut pick: impl FnMut() -> usize) -> Vec<usize> {
        let mut counts = vec![0usize; chunks];
        for _ in 0..trials {
            counts[pick()] += 1;
        }
        counts
    }

    fn pick_counts(config: &ExSampleConfig, stats: &ChunkStatsSet, trials: usize) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(17);
        let eligible = vec![true; stats.len()];
        counts(stats.len(), trials, || {
            select_chunk(config, stats, &eligible, &mut rng).unwrap()
        })
    }

    /// Two-sample chi-square statistic over per-chunk pick counts.
    fn chi_square(a: &[usize], b: &[usize]) -> f64 {
        a.iter()
            .zip(b)
            .filter(|(&a, &b)| a + b > 0)
            .map(|(&a, &b)| {
                let diff = a as f64 - b as f64;
                diff * diff / (a + b) as f64
            })
            .sum()
    }

    #[test]
    fn thompson_prefers_productive_chunk() {
        let stats = skewed_stats();
        let counts = pick_counts(&ExSampleConfig::default(), &stats, 2_000);
        assert!(counts[1] > 1_800, "counts {counts:?}");
    }

    #[test]
    fn thompson_still_explores_under_weak_evidence() {
        // With only a handful of samples per chunk the beliefs are wide, so the
        // unproductive chunks must still receive a non-trivial share of picks —
        // this is exactly the behaviour that prevents getting stuck on an early
        // lucky chunk (Section III-B).
        let mut stats = ChunkStatsSet::new(3);
        for _ in 0..5 {
            stats.record(0, 0);
            stats.record(2, 0);
        }
        for _ in 0..5 {
            stats.record(1, 1);
        }
        let counts = pick_counts(&ExSampleConfig::default(), &stats, 2_000);
        assert!(
            counts[1] > counts[0] && counts[1] > counts[2],
            "counts {counts:?}"
        );
        assert!(
            counts[0] + counts[2] > 0,
            "exploration collapsed: {counts:?}"
        );
    }

    #[test]
    fn bayes_ucb_prefers_productive_chunk() {
        let stats = skewed_stats();
        let config = ExSampleConfig::default().with_policy(ChunkSelectionPolicy::BayesUcb);
        let counts = pick_counts(&config, &stats, 50);
        assert_eq!(
            counts[1], 50,
            "Bayes-UCB is deterministic given fixed stats: {counts:?}"
        );
    }

    #[test]
    fn greedy_picks_best_point_estimate() {
        let stats = skewed_stats();
        let config = ExSampleConfig::default().with_policy(ChunkSelectionPolicy::GreedyMean);
        let counts = pick_counts(&config, &stats, 50);
        assert_eq!(counts[1], 50, "counts {counts:?}");
    }

    #[test]
    fn uniform_ignores_statistics() {
        let stats = skewed_stats();
        let config = ExSampleConfig::default().with_policy(ChunkSelectionPolicy::UniformChunk);
        let counts = pick_counts(&config, &stats, 3_000);
        for &c in &counts {
            assert!((c as f64 - 1_000.0).abs() < 150.0, "counts {counts:?}");
        }
    }

    #[test]
    fn fresh_statistics_give_uniform_thompson_choices() {
        // "During the first execution of the while loop all the belief distributions
        // are identical, but Thompson sampling effectively breaks ties at random."
        let stats = ChunkStatsSet::new(4);
        let counts = pick_counts(&ExSampleConfig::default(), &stats, 4_000);
        for &c in &counts {
            assert!((c as f64 - 1_000.0).abs() < 200.0, "counts {counts:?}");
        }
    }

    #[test]
    fn ineligible_chunks_are_never_selected() {
        let stats = skewed_stats();
        let mut rng = StdRng::seed_from_u64(3);
        let eligible = vec![true, false, true];
        for _ in 0..200 {
            let j = select_chunk(&ExSampleConfig::default(), &stats, &eligible, &mut rng).unwrap();
            assert_ne!(j, 1);
        }
    }

    #[test]
    fn no_eligible_chunk_returns_none() {
        let stats = ChunkStatsSet::new(2);
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(
            select_chunk(
                &ExSampleConfig::default(),
                &stats,
                &[false, false],
                &mut rng
            ),
            None
        );
    }

    #[test]
    fn batch_selection_length_and_distribution() {
        let stats = skewed_stats();
        let mut rng = StdRng::seed_from_u64(19);
        let eligible = vec![true; 3];
        let picks = select_batch(&ExSampleConfig::default(), &stats, &eligible, 64, &mut rng);
        assert_eq!(picks.len(), 64);
        let to_best = picks.iter().filter(|&&j| j == 1).count();
        assert!(
            to_best > 48,
            "batched Thompson picks should favour chunk 1: {to_best}"
        );
    }

    #[test]
    fn batch_of_zero_is_empty() {
        let stats = skewed_stats();
        let mut rng = StdRng::seed_from_u64(19);
        assert!(
            select_batch(&ExSampleConfig::default(), &stats, &[true; 3], 0, &mut rng).is_empty()
        );
    }

    #[test]
    #[should_panic(expected = "eligibility mask")]
    fn mismatched_mask_panics() {
        let stats = ChunkStatsSet::new(3);
        let mut rng = StdRng::seed_from_u64(1);
        let _ = select_chunk(&ExSampleConfig::default(), &stats, &[true; 2], &mut rng);
    }

    #[test]
    fn cached_and_reference_paths_agree_draw_for_draw() {
        // Same seed => the cached hot path and the per-draw-construction
        // reference path must select identical chunk sequences, across both
        // evolving statistics and partial eligibility.
        let config = ExSampleConfig::default();
        let mut stats = skewed_stats();
        let mut rng_a = StdRng::seed_from_u64(23);
        let mut rng_b = StdRng::seed_from_u64(23);
        let eligible = [true, true, true];
        for i in 0..3_000 {
            let a = select_chunk(&config, &stats, &eligible, &mut rng_a).unwrap();
            let b = select_chunk_reference(&config, &stats, &eligible, &mut rng_b).unwrap();
            assert_eq!(a, b, "pick {i} diverged");
            // Keep the statistics moving so shapes cross the boost boundary.
            stats.record(a, i64::from(i % 7 == 0) - i64::from(i % 11 == 0));
        }
        let partial = [true, false, true];
        for i in 0..500 {
            let a = select_chunk(&config, &stats, &partial, &mut rng_a).unwrap();
            let b = select_chunk_reference(&config, &stats, &partial, &mut rng_b).unwrap();
            assert_eq!(a, b, "partial-eligibility pick {i} diverged");
            assert_ne!(a, 1);
        }
    }

    #[test]
    fn mismatched_priors_fall_back_to_uncached_path() {
        // Statistics cached for the default priors, scored under different
        // priors: select_chunk must agree with the reference path (which always
        // constructs beliefs from the config's priors).
        let config = ExSampleConfig::default().with_priors(0.7, 3.0);
        let stats = skewed_stats();
        let eligible = [true; 3];
        let mut rng_a = StdRng::seed_from_u64(29);
        let mut rng_b = StdRng::seed_from_u64(29);
        for _ in 0..500 {
            let a = select_chunk(&config, &stats, &eligible, &mut rng_a).unwrap();
            let b = select_chunk_reference(&config, &stats, &eligible, &mut rng_b).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn beats_is_total_under_nan() {
        assert!(beats(1.0, f64::NAN));
        assert!(!beats(f64::NAN, 1.0));
        assert!(!beats(f64::NAN, f64::NAN));
        assert!(beats(2.0, 1.0));
        assert!(!beats(1.0, 1.0));
        assert!(beats(f64::INFINITY, 1.0));
        assert!(beats(0.0, f64::NEG_INFINITY));
    }

    #[test]
    fn degenerate_priors_still_yield_valid_eligible_picks() {
        // alpha0 = beta0 = f64::MAX makes every belief's shape and rate overflow
        // to infinity, so every Thompson draw is inf/inf = NaN.  The selection
        // must still return an eligible chunk rather than dropping chunks or
        // panicking (regression test for the non-total `draw > best` fold).
        let config = ExSampleConfig::default().with_priors(f64::MAX, f64::MAX);
        let stats = ChunkStatsSet::with_priors(3, f64::MAX, f64::MAX);
        let mut rng = StdRng::seed_from_u64(31);
        let eligible = [false, true, true];
        for _ in 0..100 {
            let j = select_chunk(&config, &stats, &eligible, &mut rng).unwrap();
            assert!(j == 1 || j == 2, "picked ineligible chunk {j}");
        }
        let batch = select_batch(&config, &stats, &eligible, 16, &mut rng);
        assert_eq!(batch.len(), 16);
        assert!(batch.iter().all(|&j| j == 1 || j == 2), "batch {batch:?}");
    }

    #[test]
    fn nan_draw_does_not_mask_later_finite_draws() {
        // Direct regression test on the fold: a NaN incumbent must lose to any
        // later finite draw, and an all-NaN scan must still return a pick.
        let fold = |draws: &[f64]| -> usize {
            let mut best_j: Option<usize> = None;
            let mut best = f64::NEG_INFINITY;
            for (j, &draw) in draws.iter().enumerate() {
                if best_j.is_none() || beats(draw, best) {
                    best_j = Some(j);
                    best = draw;
                }
            }
            best_j.unwrap()
        };
        assert_eq!(fold(&[f64::NAN, 0.25, 0.5]), 2);
        assert_eq!(fold(&[f64::NAN, 0.5, 0.25]), 1);
        assert_eq!(fold(&[0.5, f64::NAN, 0.25]), 0);
        assert_eq!(fold(&[f64::NAN, f64::NAN]), 0);
    }

    #[test]
    fn select_batch_into_reuses_buffers() {
        let stats = skewed_stats();
        let config = ExSampleConfig::default();
        let eligible = vec![true; 3];
        let mut rng = StdRng::seed_from_u64(37);
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        select_batch_into(
            &config,
            &stats,
            &eligible,
            32,
            &mut rng,
            &mut out,
            &mut scratch,
        );
        assert_eq!(out.len(), 32);
        let cap_out = out.capacity();
        let cap_scratch = scratch.capacity();
        for _ in 0..50 {
            select_batch_into(
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
        assert_eq!(
            out.capacity(),
            cap_out,
            "out buffer must not be reallocated"
        );
        assert_eq!(
            scratch.capacity(),
            cap_scratch,
            "scratch buffer must not be reallocated"
        );
    }

    #[test]
    fn pruned_argmax_matches_textbook_full_draw_argmax_in_distribution() {
        // The large-M folds prune chunks whose draw provably cannot win
        // before paying for the boost exponential and the division.  Validate
        // the prune against a textbook Thompson arg-max that always computes
        // every chunk's full draw: per-chunk selection frequencies must agree
        // (two-sample chi-square).  The pruned per-chunk fold is invoked
        // directly because `select_chunk` routes this small a chunk count to
        // the prune-free fast path.
        use exsample_rand::Sampler;
        let config = ExSampleConfig::default();
        let mut stats = ChunkStatsSet::new(6);
        for _ in 0..8 {
            stats.record(1, 1);
            stats.record(4, 0);
            stats.record(5, 1);
        }
        let eligible = vec![true; 6];
        let mut rng = StdRng::seed_from_u64(43);
        let pruned_counts = counts(6, 6_000, || {
            thompson_pick_uncached(&config, &stats, &eligible, &mut rng).unwrap()
        });
        let full_counts = counts(6, 6_000, || {
            let mut best_j = 0usize;
            let mut best = f64::NEG_INFINITY;
            for (j, chunk) in stats.all().iter().enumerate() {
                let draw = chunk.belief(&config).sample(&mut rng);
                if j == 0 || beats(draw, best) {
                    best_j = j;
                    best = draw;
                }
            }
            best_j
        });
        // df = 5, 99.99 % quantile = 25.7; fixed seeds make this deterministic.
        let chi = chi_square(&pruned_counts, &full_counts);
        assert!(
            chi < 25.7,
            "chi-square {chi:.2}: pruned {pruned_counts:?} vs full {full_counts:?}"
        );
    }

    #[test]
    fn small_m_fast_path_is_draw_for_draw_a_textbook_argmax() {
        // At M ≤ SMALL_M_CHUNKS, `select_chunk` consumes every eligible
        // chunk's full RNG schedule — that of `belief.sample()` —
        // so it must agree with a textbook per-chunk Thompson arg-max not just
        // in distribution but pick for pick under the same seed.
        use exsample_rand::Sampler;
        let config = ExSampleConfig::default();
        let mut stats = skewed_stats();
        let eligible = [true, true, true];
        let mut rng_a = StdRng::seed_from_u64(47);
        let mut rng_b = StdRng::seed_from_u64(47);
        for i in 0..2_000 {
            let fast = select_chunk(&config, &stats, &eligible, &mut rng_a).unwrap();
            let mut best_j = 0usize;
            let mut best = f64::NEG_INFINITY;
            for (j, chunk) in stats.all().iter().enumerate() {
                let draw = chunk.belief(&config).sample(&mut rng_b);
                if j == 0 || beats(draw, best) {
                    best_j = j;
                    best = draw;
                }
            }
            assert_eq!(fast, best_j, "pick {i} diverged from the textbook arg-max");
            stats.record(fast, i64::from(i % 5 == 0));
        }
    }

    #[test]
    fn large_m_cached_and_reference_paths_agree_draw_for_draw() {
        // Up to SMALL_M_CHUNKS the cached path and the reference consume one
        // RNG stream and must select identical chunks under the same seed;
        // one chunk more and the hybrid fold takes over, with its own RNG
        // schedule, so agreement becomes distributional (chi-square).
        let config = ExSampleConfig::default();
        let seeded = |chunks: usize| {
            let mut stats = ChunkStatsSet::new(chunks);
            for j in 0..chunks {
                stats.record(j, i64::from(j % 3 == 0));
            }
            stats
        };
        let mut stats = seeded(SMALL_M_CHUNKS);
        let eligible = vec![true; SMALL_M_CHUNKS];
        let mut rng_a = StdRng::seed_from_u64(53);
        let mut rng_b = StdRng::seed_from_u64(53);
        for i in 0..500 {
            let a = select_chunk(&config, &stats, &eligible, &mut rng_a).unwrap();
            let b = select_chunk_reference(&config, &stats, &eligible, &mut rng_b).unwrap();
            assert_eq!(a, b, "pick {i} diverged");
            stats.record(a, i64::from(i % 7 == 0));
        }

        const M: usize = SMALL_M_CHUNKS + 1;
        let stats = seeded(M);
        let eligible = vec![true; M];
        let hybrid = counts(M, 20_000, || {
            select_chunk(&config, &stats, &eligible, &mut rng_a).unwrap()
        });
        let reference = counts(M, 20_000, || {
            select_chunk_reference(&config, &stats, &eligible, &mut rng_b).unwrap()
        });
        // df = 64, 99.99 % quantile ≈ 115.
        let chi = chi_square(&hybrid, &reference);
        assert!(chi < 115.0, "chi-square {chi:.1} at M = {M}");
    }

    /// A skewed large-M statistics set with three belief classes: two "hot"
    /// chunks at (1, 1), four "warm" chunks at (0, 1), the rest all-prior —
    /// two small classes that draw per chunk and one large one that draws its
    /// maximum.
    fn classed_stats(chunks: usize) -> ChunkStatsSet {
        let mut stats = ChunkStatsSet::new(chunks);
        stats.record(0, 1);
        stats.record(1, 1);
        for j in 2..6 {
            stats.record(j, 0);
        }
        stats
    }

    /// How `select_chunk_known` reports serving one pick over `stats`.
    fn served(config: &ExSampleConfig, stats: &ChunkStatsSet) -> Served {
        let eligible = vec![true; stats.len()];
        let mut rng = StdRng::seed_from_u64(59);
        select_chunk_known(config, stats, &eligible, Some(true), &mut rng).1
    }

    #[test]
    fn hybrid_fold_requires_large_m_thompson_and_matching_priors() {
        let config = ExSampleConfig::default();
        // 122 all-prior chunks draw once, the 2 + 4 others per chunk.
        assert_eq!(
            served(&config, &classed_stats(128)),
            Served::Hybrid { draws: 7 }
        );
        // Small M.
        assert_eq!(
            served(&config, &classed_stats(SMALL_M_CHUNKS)),
            Served::PerChunk
        );
        // Non-Thompson policy.
        assert_eq!(
            served(
                &config.with_policy(ChunkSelectionPolicy::GreedyMean),
                &classed_stats(128)
            ),
            Served::PerChunk
        );
        // Priors mismatch: the cache (and the class keys' beliefs) are built
        // for other priors, so the fold must not engage.
        assert_eq!(
            served(&config.with_priors(0.7, 3.0), &classed_stats(128)),
            Served::PerChunk
        );
        // Diverse classes are no obstacle: with every chunk in a class of its
        // own the fold is the per-chunk fold, one draw per chunk.
        let mut diverse = ChunkStatsSet::new(128);
        for j in 0..128 {
            diverse.seed_chunk(j, 0, j as u64);
        }
        assert_eq!(diverse.class_count(), 128);
        assert_eq!(served(&config, &diverse), Served::Hybrid { draws: 128 });
    }

    /// Counts of `trials` reference picks over `classed_stats(128)`.
    fn classed_reference_counts(trials: usize, seed: u64) -> Vec<usize> {
        let (config, stats) = (ExSampleConfig::default(), classed_stats(128));
        let eligible = vec![true; 128];
        let mut rng = StdRng::seed_from_u64(seed);
        counts(128, trials, || {
            select_chunk_reference(&config, &stats, &eligible, &mut rng).unwrap()
        })
    }

    #[test]
    fn class_max_matches_per_chunk_in_distribution() {
        // Two-sample chi-square over all 128 chunks: the hybrid fold and the
        // per-chunk reference must allocate picks identically — this checks
        // both the cross-class shares (hot vs warm vs cold) and the uniform
        // within-class resolution in one statistic.
        const TRIALS: usize = 40_000;
        let class_counts = pick_counts(&ExSampleConfig::default(), &classed_stats(128), TRIALS);
        let chunk_counts = classed_reference_counts(TRIALS, 67);
        // df = 127, 99.99 % quantile ≈ 195 (Wilson–Hilferty); fixed seeds make
        // this deterministic.
        let chi = chi_square(&class_counts, &chunk_counts);
        assert!(
            chi < 195.0,
            "chi-square {chi:.1}: hybrid hot {:?} vs per-chunk hot {:?}",
            &class_counts[..6],
            &chunk_counts[..6]
        );
    }

    #[test]
    fn class_max_batch_matches_per_chunk_batch_in_distribution() {
        const ROUNDS: usize = 700;
        const BATCH: usize = 32;
        let (config, stats) = (ExSampleConfig::default(), classed_stats(128));
        let eligible = vec![true; 128];
        let mut rng = StdRng::seed_from_u64(71);
        let mut class_counts = vec![0usize; 128];
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        for _ in 0..ROUNDS {
            select_batch_into(
                &config,
                &stats,
                &eligible,
                BATCH,
                &mut rng,
                &mut out,
                &mut scratch,
            );
            assert_eq!(out.len(), BATCH);
            for &j in &out {
                class_counts[j] += 1;
            }
        }
        // df = 127, 99.99 % quantile ≈ 195.
        let chi = chi_square(&class_counts, &classed_reference_counts(ROUNDS * BATCH, 73));
        assert!(chi < 195.0, "chi-square {chi:.1}");
    }

    #[test]
    fn class_max_resolution_is_uniform_within_the_all_prior_class() {
        // A fresh statistics set is one big class, so every pick exercises the
        // within-class resolution alone: picks must spread uniformly.
        const M: usize = 128;
        const TRIALS: usize = 25_600; // 200 expected picks per chunk
        let stats = ChunkStatsSet::new(M);
        assert_eq!(stats.class_count(), 1);
        let counts = pick_counts(&ExSampleConfig::default(), &stats, TRIALS);
        let expected = TRIALS as f64 / M as f64;
        let chi: f64 = counts
            .iter()
            .map(|&c| {
                let diff = c as f64 - expected;
                diff * diff / expected
            })
            .sum();
        // df = 127, 99.99 % quantile ≈ 195.
        assert!(
            chi < 195.0,
            "chi-square {chi:.1}, counts head {:?}",
            &counts[..8]
        );
    }

    #[test]
    fn class_max_below_small_m_falls_back_pick_for_pick() {
        // At M ≤ SMALL_M_CHUNKS the class index is never consulted, however
        // dense its classes: single and batched picks stay the per-chunk
        // schedule, identical to the reference under identical seeds.
        let config = ExSampleConfig::default();
        let mut stats = ChunkStatsSet::new(SMALL_M_CHUNKS);
        for j in 0..SMALL_M_CHUNKS {
            stats.record(j % 7, i64::from(j % 5 == 0));
        }
        assert!(stats.class_count() < 8);
        let eligible = vec![true; SMALL_M_CHUNKS];
        let mut rng_a = StdRng::seed_from_u64(83);
        let mut rng_b = StdRng::seed_from_u64(83);
        for i in 0..1_000 {
            let a = select_chunk(&config, &stats, &eligible, &mut rng_a).unwrap();
            let b = select_chunk_reference(&config, &stats, &eligible, &mut rng_b).unwrap();
            assert_eq!(a, b, "pick {i} diverged");
        }
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        let served = select_batch_known(
            &config,
            &stats,
            &eligible,
            Some(true),
            16,
            &mut rng_a,
            &mut out,
            &mut scratch,
        );
        assert_eq!(served, Served::PerChunk);
        assert_eq!(out.len(), 16);
    }

    #[test]
    fn class_max_respects_eligibility() {
        const M: usize = 128;
        let stats = classed_stats(M);
        let config = ExSampleConfig::default();
        // Knock out one hot chunk, one warm chunk, and half the cold class.
        let mut eligible = vec![true; M];
        eligible[0] = false;
        eligible[2] = false;
        for j in (6..M).step_by(2) {
            eligible[j] = false;
        }
        let mut rng = StdRng::seed_from_u64(97);
        let mut seen_hot = false;
        let mut seen_cold = false;
        for _ in 0..2_000 {
            let j = select_chunk(&config, &stats, &eligible, &mut rng).unwrap();
            assert!(eligible[j], "picked ineligible chunk {j}");
            seen_hot |= j == 1;
            seen_cold |= j >= 6;
        }
        assert!(
            seen_hot && seen_cold,
            "partial eligibility collapsed the mix"
        );
        // Batch path under the same mask.
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        select_batch_into(
            &config,
            &stats,
            &eligible,
            64,
            &mut rng,
            &mut out,
            &mut scratch,
        );
        assert_eq!(out.len(), 64);
        assert!(out.iter().all(|&j| eligible[j]));
        // A fully ineligible mask returns no pick.
        assert_eq!(select_chunk(&config, &stats, &[false; M], &mut rng), None);
    }

    #[test]
    fn batched_and_sequential_thompson_share_a_distribution() {
        // Coarse agreement check here (the rigorous chi-square test lives in
        // the workspace-level properties suite): batched picks and repeated
        // un-updated single picks should allocate similar shares to the
        // productive chunk.
        let stats = skewed_stats();
        let config = ExSampleConfig::default();
        let eligible = vec![true; 3];
        let mut rng = StdRng::seed_from_u64(41);
        let batched = select_batch(&config, &stats, &eligible, 4_000, &mut rng);
        let batched_share =
            batched.iter().filter(|&&j| j == 1).count() as f64 / batched.len() as f64;
        let mut sequential_hits = 0usize;
        for _ in 0..4_000 {
            if select_chunk(&config, &stats, &eligible, &mut rng).unwrap() == 1 {
                sequential_hits += 1;
            }
        }
        let sequential_share = sequential_hits as f64 / 4_000.0;
        assert!(
            (batched_share - sequential_share).abs() < 0.03,
            "batched {batched_share} vs sequential {sequential_share}"
        );
    }
}
