//! The hybrid belief-class fold against the textbook per-chunk arg-max.
//!
//! Above `SMALL_M_CHUNKS` every Thompson pick walks the belief-class index:
//! small classes draw per chunk, large classes draw one exact max-of-k.  That
//! changes the RNG schedule, so equivalence with
//! `policy::select_chunk_reference` (one draw per eligible chunk) is
//! distributional: two-sample chi-square tests over M ∈ {65, 128, 1000},
//! single and batched picks, and the four posteriors that bracket the fold —
//! one class, one giant class among singletons, singletons only, and a large
//! class with half its members ineligible.  The draw counts the fold reports
//! are pinned exactly, and a 60-chunk run is pinned bit for bit to the
//! sequence the per-chunk path produced before the fold existed.

use exsample_core::policy::{select_batch_into, select_chunk, select_chunk_reference};
use exsample_core::{ChunkStatsSet, ExSample, ExSampleConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A posterior and the eligibility mask it is picked under.
struct Case {
    name: &'static str,
    stats: ChunkStatsSet,
    eligible: Vec<bool>,
}

/// Singletons given to the "giant class" posterior: distinct `(N1, n)` keys,
/// so each is a class of its own.
fn singletons(chunks: usize) -> usize {
    (chunks / 3).min(24)
}

fn cases(chunks: usize) -> Vec<Case> {
    let all = vec![true; chunks];

    let mut giant = ChunkStatsSet::new(chunks);
    let lone = singletons(chunks);
    for j in 0..lone {
        giant.seed_chunk(j, (j % 3) as i64, 1 + j as u64);
    }
    // A five-member class: shared belief, but too small for a max-of-k draw.
    for j in lone..lone + 5 {
        giant.record(j, 0);
    }

    let mut lonely = ChunkStatsSet::new(chunks);
    for j in 0..chunks {
        lonely.seed_chunk(j, 0, j as u64);
    }
    assert_eq!(lonely.class_count(), chunks);

    let mut halved = ChunkStatsSet::new(chunks);
    halved.record(1, 1);
    halved.record(2, 0);
    let mut every_other = vec![false; chunks];
    for j in (0..chunks).step_by(2) {
        every_other[j] = true;
    }
    every_other[1] = true;

    vec![
        Case {
            name: "all-prior",
            stats: ChunkStatsSet::new(chunks),
            eligible: all.clone(),
        },
        Case {
            name: "giant class + singletons",
            stats: giant,
            eligible: all.clone(),
        },
        Case {
            name: "all singletons",
            stats: lonely,
            eligible: all,
        },
        Case {
            name: "large class half ineligible",
            stats: halved,
            eligible: every_other,
        },
    ]
}

/// Chi-square cells: chunk `j` counts towards cell `j % CELLS`.  Every case
/// puts its distinguished chunks at the low indices, one per cell, so both the
/// cross-class shares and the within-class spread move the statistic.
const CELLS: usize = 64;

/// 99.99 % quantile of chi-square with 63 degrees of freedom
/// (Wilson–Hilferty); fixed seeds make every comparison deterministic.
const CHI_SQUARE_LIMIT: f64 = 114.0;

fn chi_square(a: &[usize; CELLS], b: &[usize; CELLS]) -> f64 {
    a.iter()
        .zip(b)
        .filter(|(&a, &b)| a + b > 0)
        .map(|(&a, &b)| {
            let diff = a as f64 - b as f64;
            diff * diff / (a + b) as f64
        })
        .sum()
}

fn trials(chunks: usize) -> usize {
    // ~300 expected picks per cell at small M; fewer at M = 1000, where one
    // reference pick is a thousand draws (debug builds run this too).
    if chunks >= 1_000 {
        6_400
    } else {
        19_200
    }
}

fn reference_counts(case: &Case, picks: usize, seed: u64) -> [usize; CELLS] {
    let config = ExSampleConfig::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut counts = [0usize; CELLS];
    for _ in 0..picks {
        let j = select_chunk_reference(&config, &case.stats, &case.eligible, &mut rng).unwrap();
        assert!(case.eligible[j]);
        counts[j % CELLS] += 1;
    }
    counts
}

#[test]
fn hybrid_fold_matches_the_reference_in_distribution() {
    let config = ExSampleConfig::default();
    for chunks in [65usize, 128, 1_000] {
        let picks = trials(chunks);
        for (i, case) in cases(chunks).iter().enumerate() {
            let seed = (chunks * 10 + i) as u64;
            let reference = reference_counts(case, picks, seed);

            let mut rng = StdRng::seed_from_u64(seed + 5);
            let mut single = [0usize; CELLS];
            for _ in 0..picks {
                let j = select_chunk(&config, &case.stats, &case.eligible, &mut rng).unwrap();
                assert!(case.eligible[j], "{}: picked ineligible {j}", case.name);
                single[j % CELLS] += 1;
            }
            let chi = chi_square(&single, &reference);
            assert!(
                chi < CHI_SQUARE_LIMIT,
                "M = {chunks}, {}, single picks: chi-square {chi:.1}",
                case.name
            );

            const BATCH: usize = 32;
            let mut rng = StdRng::seed_from_u64(seed + 7);
            let mut batched = [0usize; CELLS];
            let (mut out, mut scratch) = (Vec::new(), Vec::new());
            for _ in 0..picks / BATCH {
                select_batch_into(
                    &config,
                    &case.stats,
                    &case.eligible,
                    BATCH,
                    &mut rng,
                    &mut out,
                    &mut scratch,
                );
                assert_eq!(out.len(), BATCH);
                for &j in &out {
                    assert!(
                        case.eligible[j],
                        "{}: batch picked ineligible {j}",
                        case.name
                    );
                    batched[j % CELLS] += 1;
                }
            }
            let chi = chi_square(&batched, &reference);
            assert!(
                chi < CHI_SQUARE_LIMIT,
                "M = {chunks}, {}, batched picks: chi-square {chi:.1}",
                case.name
            );
        }
    }
}

/// One single pick and one batch of 8 from `sampler`; returns the Gamma draws
/// the fold issued per pick, recovered from the telemetry
/// (`draws_saved = picks × (eligible − draws)`).
fn draws_per_pick(mut sampler: ExSample, eligible: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(99);
    sampler.next_frame(&mut rng).expect("frames remain");
    let single = sampler.selection_telemetry();
    assert_eq!((single.class_max_picks, single.per_chunk_picks), (1, 0));
    let draws = eligible - single.draws_saved;
    assert_eq!(sampler.next_batch(&mut rng, 8).len(), 8);
    let both = sampler.selection_telemetry();
    assert_eq!((both.class_max_picks, both.per_chunk_picks), (9, 0));
    assert_eq!(
        both.draws_saved,
        9 * single.draws_saved,
        "no record in between: the batch issues the single pick's draws per slot"
    );
    draws
}

#[test]
fn hybrid_fold_issues_one_draw_per_large_class_and_per_small_class_member() {
    for chunks in [65usize, 128, 1_000] {
        let m = chunks as u64;
        let fresh = || ExSample::new(ExSampleConfig::default(), &vec![10_000u64; chunks]);

        // All-prior: one class, one draw.
        assert_eq!(draws_per_pick(fresh(), m), 1);

        // All singletons: the per-chunk fold's M draws, exactly.
        let mut lonely = fresh();
        for j in 0..chunks {
            lonely.apply_prior(j, 0, j as u64);
        }
        assert_eq!(draws_per_pick(lonely, m), m);

        // A giant class, singletons and a five-member class: one draw for
        // the giant, one per member of everything else.
        let mut giant = fresh();
        let lone = singletons(chunks);
        for j in 0..lone {
            giant.apply_prior(j, (j % 3) as i64, 1 + j as u64);
        }
        for j in lone..lone + 5 {
            giant.record(j, 0);
        }
        assert_eq!(draws_per_pick(giant, m), 1 + lone as u64 + 5);

        // Half the chunks empty: the all-prior class draws once over its
        // eligible half, and the savings count eligible chunks only.
        let lengths: Vec<u64> = (0..chunks).map(|j| 10_000 * (j % 2 == 0) as u64).collect();
        let halved = ExSample::new(ExSampleConfig::default(), &lengths);
        assert_eq!(draws_per_pick(halved, m.div_ceil(2)), 1);
    }
}

/// FNV-1a over a run's `(chunk, offset)` picks.
fn fold_pick(digest: u64, chunk: usize, offset: u64) -> u64 {
    let mut digest = digest;
    for byte in (chunk as u64)
        .to_le_bytes()
        .into_iter()
        .chain(offset.to_le_bytes())
    {
        digest = (digest ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    digest
}

#[test]
fn sixty_chunk_run_is_bitwise_the_per_chunk_sequence() {
    // Captured from this run at the commit before the hybrid fold (837d5d3):
    // up to 64 chunks nothing about selection may change, bit for bit —
    // which is every repository benchmark workload except the BDD analogs.
    const GOLDEN: u64 = 0xfcd5_7910_432b_610f;

    let lengths: Vec<u64> = (0..60).map(|j| 4_000 + 37 * j).collect();
    let mut sampler = ExSample::new(ExSampleConfig::default(), &lengths);
    let mut rng = StdRng::seed_from_u64(2_026);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for step in 0..3_000u64 {
        let pick = sampler.next_frame(&mut rng).expect("frames remain");
        digest = fold_pick(digest, pick.chunk, pick.offset);
        let delta = i64::from(pick.chunk % 7 == 3 && step % 3 == 0) - i64::from(step % 41 == 0);
        sampler.record(pick.chunk, delta);
    }
    for round in 0..100u64 {
        for pick in sampler.next_batch(&mut rng, 16) {
            digest = fold_pick(digest, pick.chunk, pick.offset);
            sampler.record(pick.chunk, i64::from((pick.offset + round) % 13 == 0));
        }
    }
    let telemetry = sampler.selection_telemetry();
    assert_eq!(telemetry.class_max_picks, 0);
    assert_eq!(telemetry.per_chunk_picks, 3_000 + 1_600);
    assert_eq!(
        digest, GOLDEN,
        "60-chunk pick sequence changed: {digest:#x}"
    );
}

/// The scripted reward of the above-64-chunk pin: every 97th chunk is hot
/// (a hit on a third of its picks, a second sighting on every 53rd step),
/// every 13th chunk is warm (a rare hit), the rest never yield.  Untouched
/// chunks stay all-prior and unproductive ones pile up into big `(0, n)`
/// classes, while the hot and warm ones scatter into singletons — the shape
/// of a BDD posterior.
fn scripted_reward(chunk: usize, step: u64) -> i64 {
    if chunk % 97 == 5 {
        i64::from(step.is_multiple_of(3)) - i64::from(step.is_multiple_of(53))
    } else if chunk.is_multiple_of(13) {
        i64::from(step.is_multiple_of(29))
    } else {
        0
    }
}

/// FNV-1a over `picks` picks of an `M`-chunk sampler in batches of `batch`,
/// under [`scripted_reward`].  Every 50th chunk holds only 8 frames, so
/// eligibility turns partial mid-run.
fn hybrid_digest(chunks: usize, batch: usize, picks: u64) -> u64 {
    let lengths: Vec<u64> = (0..chunks)
        .map(|j| if j % 50 == 7 { 8 } else { 10_000 })
        .collect();
    let mut sampler = ExSample::new(ExSampleConfig::default(), &lengths);
    let mut rng = StdRng::seed_from_u64(2_027 + chunks as u64);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut step = 0u64;
    while step < picks {
        let round = if batch == 1 {
            vec![sampler.next_frame(&mut rng).expect("frames remain")]
        } else {
            sampler.next_batch(&mut rng, batch)
        };
        for pick in round {
            digest = fold_pick(digest, pick.chunk, pick.offset);
            sampler.record(pick.chunk, scripted_reward(pick.chunk, step));
            step += 1;
        }
    }
    let telemetry = sampler.selection_telemetry();
    assert_eq!(telemetry.per_chunk_picks, 0, "M = {chunks} is the fold's");
    digest
}

#[test]
fn hybrid_fold_pick_sequences_are_pinned_above_sixty_four_chunks() {
    // Captured at f022f3f, before the max-of-k draw learned to skip the
    // inversion of a draw that cannot beat the running best: that gate must
    // leave every pick where it was, bit for bit.
    const GOLDEN: [(usize, usize, u64); 4] = [
        (1_000, 1, 0xc0b2_14e6_97ce_886d),
        (1_000, 16, 0x6547_c722_8503_c0c4),
        (1_600, 1, 0xfd24_e084_0825_a1a8),
        (1_600, 16, 0xd32d_b84e_a0e6_3fe6),
    ];
    let digests =
        GOLDEN.map(|(chunks, batch, _)| (chunks, batch, hybrid_digest(chunks, batch, 20_000)));
    assert_eq!(
        digests.map(|(chunks, batch, digest)| format!("M = {chunks}, batch {batch}: {digest:#x}")),
        GOLDEN.map(|(chunks, batch, digest)| format!("M = {chunks}, batch {batch}: {digest:#x}")),
        "hybrid-fold pick sequences changed"
    );
}
