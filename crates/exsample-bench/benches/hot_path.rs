//! Hot-path benchmarks for the chunk-selection overhaul.
//!
//! Measures picks/sec of the optimised sampler (`exsample_core::ExSample` with
//! the belief cache, incremental eligibility and one-pass batched Thompson
//! draws) against a faithful replica of the pre-refactor implementation at
//! M ∈ {60, 1 000, 10 000} chunks, plus the two axes that predict the
//! repository benchmark's `exsample-core.pick_s`: `hybrid` (the hybrid
//! belief-class fold vs the per-chunk reference fold at M ∈ {1k, 10k} under
//! all-prior and ~16-class posteriors), `max_of_k` (the fold's large-class
//! draw at the shapes and class sizes the BDD analogs produce) and
//! `max_of_k_gated` (that draw behind the fold's floor test, losing far,
//! losing near and winning), and the parallel-vs-sequential sweep throughput
//! of `exsample_sim::run_trials`.
//!
//! The `reference` module reproduces the seed implementation line-for-line:
//! eligibility mask allocated per pick, the single pick routed through a
//! batch-select vector, one belief distribution constructed per chunk per
//! draw, and the polar-method standard normal plus `powf` boost inside the
//! Gamma sampler.  Run with `BENCH_JSON=BENCH_hot_path.json` to refresh the
//! committed baseline.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use exsample_core::policy::select_chunk_reference;
use exsample_core::{ExSample, ExSampleConfig};
use exsample_data::{GridWorkload, SkewLevel};
use exsample_rand::GammaTail;
use exsample_sim::{run_trials, MethodKind, QueryRunner, StopCondition};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Faithful replica of the pre-refactor (seed) selection hot path, kept as the
/// benchmark baseline.  Copied from the seed implementation; do not "optimise".
mod reference {
    use exsample_core::config::WithinChunkSampling;
    use exsample_core::{ChunkStatsSet, ExSampleConfig};
    use exsample_rand::{Sampler, StandardNormal};
    use exsample_video::{FrameSampler, RandomPlusSampler, UniformSampler};
    use rand::Rng;

    /// The seed's within-chunk sampler enum, mirrored so the per-pick
    /// eligibility scan walks the same enum-sized elements the seed walked.
    enum WithinSampler {
        Uniform(UniformSampler),
        RandomPlus(RandomPlusSampler),
    }

    impl WithinSampler {
        fn new(strategy: WithinChunkSampling, len: u64) -> Self {
            match strategy {
                WithinChunkSampling::Uniform => WithinSampler::Uniform(UniformSampler::new(len)),
                WithinChunkSampling::RandomPlus => {
                    WithinSampler::RandomPlus(RandomPlusSampler::new(len))
                }
            }
        }

        fn next_frame<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<u64> {
            match self {
                WithinSampler::Uniform(s) => s.next_frame(rng),
                WithinSampler::RandomPlus(s) => s.next_frame(rng),
            }
        }

        fn remaining(&self) -> u64 {
            match self {
                WithinSampler::Uniform(s) => s.remaining(),
                WithinSampler::RandomPlus(s) => s.remaining(),
            }
        }
    }

    fn uniform_open01<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        loop {
            let u: f64 = rng.gen();
            if u > 0.0 {
                return u;
            }
        }
    }

    /// The seed's Marsaglia–Tsang body: polar-method normal, constants
    /// recomputed per call.
    fn marsaglia_tsang<R: Rng + ?Sized>(rng: &mut R, shape: f64) -> f64 {
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = StandardNormal.sample(rng);
            let v = 1.0 + c * x;
            if v <= 0.0 {
                continue;
            }
            let v3 = v * v * v;
            let u = uniform_open01(rng);
            if u < 1.0 - 0.0331 * x.powi(4) {
                return d * v3;
            }
            if u.ln() < 0.5 * x * x + d * (1.0 - v3 + v3.ln()) {
                return d * v3;
            }
        }
    }

    /// The seed's Gamma sampler: `powf` boost for shape < 1.
    fn gamma_sample<R: Rng + ?Sized>(rng: &mut R, shape: f64, rate: f64) -> f64 {
        let raw = if shape < 1.0 {
            let x = marsaglia_tsang(rng, shape + 1.0);
            let u = uniform_open01(rng);
            x * u.powf(1.0 / shape)
        } else {
            marsaglia_tsang(rng, shape)
        };
        raw / rate
    }

    fn thompson_pick<R: Rng + ?Sized>(
        config: &ExSampleConfig,
        stats: &ChunkStatsSet,
        eligible: &[bool],
        rng: &mut R,
    ) -> usize {
        let mut best: Option<(usize, f64)> = None;
        for (j, chunk) in stats.all().iter().enumerate() {
            if !eligible[j] {
                continue;
            }
            // One belief construction per chunk per draw, as in the seed.
            let belief = chunk.belief(config);
            let draw = gamma_sample(rng, belief.shape(), belief.rate());
            if best.is_none_or(|(_, b)| draw > b) {
                best = Some((j, draw));
            }
        }
        best.expect("at least one eligible chunk").0
    }

    fn select_batch<R: Rng + ?Sized>(
        config: &ExSampleConfig,
        stats: &ChunkStatsSet,
        eligible: &[bool],
        batch: usize,
        rng: &mut R,
    ) -> Vec<usize> {
        if !eligible.iter().any(|&e| e) || batch == 0 {
            return Vec::new();
        }
        (0..batch)
            .map(|_| thompson_pick(config, stats, eligible, rng))
            .collect()
    }

    /// Replica of the pre-refactor `ExSample`: per-pick eligibility allocation,
    /// single picks routed through `select_batch`.
    pub struct SeedSampler {
        config: ExSampleConfig,
        stats: ChunkStatsSet,
        samplers: Vec<WithinSampler>,
    }

    impl SeedSampler {
        pub fn new(config: ExSampleConfig, chunk_lengths: &[u64]) -> Self {
            SeedSampler {
                config,
                stats: ChunkStatsSet::new(chunk_lengths.len()),
                samplers: chunk_lengths
                    .iter()
                    .map(|&l| WithinSampler::new(config.within_chunk, l))
                    .collect(),
            }
        }

        fn eligibility(&self) -> Vec<bool> {
            self.samplers.iter().map(|s| s.remaining() > 0).collect()
        }

        pub fn next_frame<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<(usize, u64)> {
            let eligible = self.eligibility();
            let chunk = select_batch(&self.config, &self.stats, &eligible, 1, rng)
                .into_iter()
                .next()?;
            let offset = self.samplers[chunk]
                .next_frame(rng)
                .expect("eligible chunk");
            Some((chunk, offset))
        }

        pub fn next_batch<R: Rng + ?Sized>(
            &mut self,
            rng: &mut R,
            batch: usize,
        ) -> Vec<(usize, u64)> {
            let mut picks = Vec::with_capacity(batch);
            while picks.len() < batch {
                let eligible = self.eligibility();
                let want = batch - picks.len();
                let chunks = select_batch(&self.config, &self.stats, &eligible, want, rng);
                if chunks.is_empty() {
                    break;
                }
                let mut made_progress = false;
                for chunk in chunks {
                    if let Some(offset) = self.samplers[chunk].next_frame(rng) {
                        picks.push((chunk, offset));
                        made_progress = true;
                        if picks.len() == batch {
                            break;
                        }
                    }
                }
                if !made_progress {
                    break;
                }
            }
            picks
        }

        pub fn record(&mut self, chunk: usize, n1_delta: i64) {
            self.stats.record(chunk, n1_delta);
        }
    }
}

const CHUNK_COUNTS: [usize; 3] = [60, 1_000, 10_000];
const BATCH: usize = 64;

/// Mixed-history seeding shared by every arm: every third chunk has produced
/// one object (shape 1.1, plain branch), the rest none (shape 0.1, boost
/// branch) — the composition a sparse search settles into.
fn seed_history(record: &mut dyn FnMut(usize, i64), chunks: usize) {
    for j in 0..chunks {
        record(j, i64::from(j % 3 == 0));
    }
}

fn optimized_sampler(chunks: usize) -> ExSample {
    // Paper-default configuration (Thompson + random+ within chunks).
    let mut sampler = ExSample::new(ExSampleConfig::default(), &vec![1_000_000u64; chunks]);
    seed_history(&mut |j, d| sampler.record(j, d), chunks);
    sampler
}

fn reference_sampler(chunks: usize) -> reference::SeedSampler {
    let mut sampler =
        reference::SeedSampler::new(ExSampleConfig::default(), &vec![1_000_000u64; chunks]);
    seed_history(&mut |j, d| sampler.record(j, d), chunks);
    sampler
}

fn bench_single_pick(c: &mut Criterion) {
    let mut group = c.benchmark_group("single_pick");
    for &chunks in &CHUNK_COUNTS {
        group.bench_with_input(
            BenchmarkId::new("optimized", chunks),
            &chunks,
            |b, &chunks| {
                let mut sampler = optimized_sampler(chunks);
                let mut rng = StdRng::seed_from_u64(11);
                b.iter(|| {
                    let pick = sampler.next_frame(&mut rng).expect("frames remain");
                    sampler.record(pick.chunk, 0);
                    black_box(pick)
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("reference", chunks),
            &chunks,
            |b, &chunks| {
                let mut sampler = reference_sampler(chunks);
                let mut rng = StdRng::seed_from_u64(11);
                b.iter(|| {
                    let pick = sampler.next_frame(&mut rng).expect("frames remain");
                    sampler.record(pick.0, 0);
                    black_box(pick)
                });
            },
        );
    }
    group.finish();
}

fn bench_batched_pick(c: &mut Criterion) {
    // One iteration = one batch of BATCH picks; divide by BATCH for per-pick cost.
    let mut group = c.benchmark_group("batched_pick_64");
    for &chunks in &CHUNK_COUNTS {
        group.bench_with_input(
            BenchmarkId::new("optimized", chunks),
            &chunks,
            |b, &chunks| {
                let mut sampler = optimized_sampler(chunks);
                let mut rng = StdRng::seed_from_u64(13);
                let mut picks = Vec::with_capacity(BATCH);
                b.iter(|| {
                    sampler.next_batch_into(&mut rng, BATCH, &mut picks);
                    for p in &picks {
                        sampler.record(p.chunk, 0);
                    }
                    black_box(picks.len())
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("reference", chunks),
            &chunks,
            |b, &chunks| {
                let mut sampler = reference_sampler(chunks);
                let mut rng = StdRng::seed_from_u64(13);
                b.iter(|| {
                    let picks = sampler.next_batch(&mut rng, BATCH);
                    for p in &picks {
                        sampler.record(p.0, 0);
                    }
                    black_box(picks.len())
                });
            },
        );
    }
    group.finish();
}

/// Belief-state regimes for the `hybrid` axis.  The posterior is pinned (no
/// recording inside the measurement loop) so each arm measures one fixed
/// class structure instead of drifting through many.
#[derive(Clone, Copy)]
enum Regime {
    /// Fresh statistics: every chunk still holds the prior, one single class —
    /// the best case for the fold (one max-of-M draw plus a uniform pick).
    AllPrior,
    /// A skewed posterior: every chunk visited once, a third with a hit, plus
    /// a 16-chunk hot head with 1–8 extra hits each — two big classes and
    /// about a dozen singletons, the composition a skewed search settles into.
    Skewed,
}

impl Regime {
    fn label(self) -> &'static str {
        match self {
            Regime::AllPrior => "all_prior",
            Regime::Skewed => "skewed",
        }
    }

    fn sampler(self, chunks: usize) -> ExSample {
        let mut sampler = ExSample::new(ExSampleConfig::default(), &vec![1_000_000u64; chunks]);
        if let Regime::Skewed = self {
            seed_history(&mut |j, d| sampler.record(j, d), chunks);
            for (i, j) in (0..chunks).step_by(chunks / 16).take(16).enumerate() {
                for _ in 0..=(i % 8) {
                    sampler.record(j, 1);
                }
            }
        }
        sampler
    }
}

/// The `hybrid` axis: single-pick cost of the hybrid belief-class fold (what
/// every Thompson pick above 64 chunks runs) vs the per-chunk reference fold
/// over the same statistics, at the chunk counts of the BDD analogs and 10×
/// that.  Nothing is recorded inside the loop, so the class structure (and
/// therefore the measured regime) stays fixed.
fn bench_hybrid(c: &mut Criterion) {
    let mut group = c.benchmark_group("hybrid");
    for &chunks in &[1_000usize, 10_000] {
        for regime in [Regime::AllPrior, Regime::Skewed] {
            group.bench_with_input(
                BenchmarkId::new(&format!("hybrid_{}", regime.label()), chunks),
                &chunks,
                |b, &chunks| {
                    let mut sampler = regime.sampler(chunks);
                    let mut rng = StdRng::seed_from_u64(17);
                    b.iter(|| black_box(sampler.next_frame(&mut rng).expect("frames remain")));
                },
            );
            group.bench_with_input(
                BenchmarkId::new(&format!("reference_{}", regime.label()), chunks),
                &chunks,
                |b, &chunks| {
                    let sampler = regime.sampler(chunks);
                    let eligible = vec![true; chunks];
                    let mut rng = StdRng::seed_from_u64(17);
                    b.iter(|| {
                        black_box(select_chunk_reference(
                            sampler.config(),
                            sampler.stats(),
                            &eligible,
                            &mut rng,
                        ))
                    });
                },
            );
        }
    }
    group.finish();
}

/// The `max_of_k` axis: one exact max-of-k draw from a prepared tail, at the
/// prior shape and the one-hit shape, for class sizes from the fold's
/// threshold to a whole BDD analog.  Its cost in per-chunk draws (~16 ns each)
/// is what places `HYBRID_MIN`.
fn bench_max_of_k(c: &mut Criterion) {
    let mut group = c.benchmark_group("max_of_k");
    for shape in [0.1, 1.1] {
        for k in [16u64, 100, 900] {
            group.bench_with_input(
                BenchmarkId::new(&format!("shape_{shape}"), k),
                &k,
                |b, &k| {
                    let tail = GammaTail::new(shape);
                    let mut rng = StdRng::seed_from_u64(19);
                    b.iter(|| black_box(tail.max_of_k(&mut rng, 2.0, black_box(k))));
                },
            );
        }
    }
    group.finish();
}

/// An RNG whose every uniform variate is `mantissa · 2⁻⁵³`.
struct FixedUniform(u64);

impl RngCore for FixedUniform {
    fn next_u64(&mut self) -> u64 {
        self.0 << 11
    }
}

/// The `max_of_k_gated` axis: the same draws behind the floor test the fold
/// applies, over a ring of 64 fixed uniforms whose ungated draws `x` are known,
/// with each draw's floor placed where the test decides it one way:
/// `lose_far` at `2x` (the closed-form bound settles it), `lose_near` at
/// `x·(1 + 1e-4)` (`ln Q` settles it) and `win` at `x·(1 − 1e-4)` (tested,
/// then inverted); `ungated` passes a floor of 0, which is never tested, and
/// is the `max_of_k` axis on this ring.  Together they give the per-draw cost
/// of a loser and the test's overhead on a winner, which with the share of
/// large-class draws that lose predict `exsample-core.pick_s`.
fn bench_max_of_k_gated(c: &mut Criterion) {
    const RING: usize = 64;
    const RATE: f64 = 2.0;
    let mut group = c.benchmark_group("max_of_k_gated");
    let mut seeds = StdRng::seed_from_u64(23);
    let mantissas: Vec<u64> = (0..RING).map(|_| (seeds.next_u64() >> 11).max(1)).collect();
    for (regime, scale) in [
        ("ungated", 0.0),
        ("lose_far", 2.0),
        ("lose_near", 1.0 + 1e-4),
        ("win", 1.0 - 1e-4),
    ] {
        for shape in [0.1, 1.1] {
            for k in [16u64, 100, 900] {
                let tail = GammaTail::new(shape);
                let floors: Vec<f64> = mantissas
                    .iter()
                    .map(|&m| scale * tail.max_of_k(&mut FixedUniform(m), RATE, k))
                    .collect();
                group.bench_with_input(
                    BenchmarkId::new(&format!("{regime}/shape_{shape}"), k),
                    &k,
                    |b, &k| {
                        let mut i = 0;
                        b.iter(|| {
                            i = (i + 1) % RING;
                            let mut rng = FixedUniform(mantissas[i]);
                            black_box(tail.max_of_k_above(&mut rng, RATE, black_box(k), floors[i]))
                        });
                    },
                );
            }
        }
    }
    group.finish();
}

fn bench_sweep_throughput(c: &mut Criterion) {
    let dataset = GridWorkload::builder()
        .frames(60_000)
        .instances(120)
        .chunks(16)
        .mean_duration(90.0)
        .skew(SkewLevel::Quarter)
        .seed(21)
        .build()
        .expect("valid workload")
        .generate();
    let run_one = |trial: u64| {
        QueryRunner::new(&dataset)
            .stop(StopCondition::FrameBudget(400))
            .seed(trial)
            .run(MethodKind::ExSample(ExSampleConfig::default()))
    };
    let mut group = c.benchmark_group("sweep_16_trials");
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        b.iter(|| {
            black_box(
                run_trials(16, false, run_one)
                    .expect("sweep succeeded")
                    .len(),
            )
        })
    });
    group.bench_function("parallel", |b| {
        b.iter(|| {
            black_box(
                run_trials(16, true, run_one)
                    .expect("sweep succeeded")
                    .len(),
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_single_pick,
    bench_batched_pick,
    bench_hybrid,
    bench_max_of_k,
    bench_max_of_k_gated,
    bench_sweep_throughput
);
criterion_main!(benches);
