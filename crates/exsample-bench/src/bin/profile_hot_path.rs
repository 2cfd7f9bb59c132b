//! Component-level timing of the chunk-selection hot path.
//!
//! A developer tool, not an experiment binary: prints ns/op for each primitive
//! the Thompson selection loop is built from.  Useful when tuning the hot
//! path; whole picks (the hybrid belief-class fold against the per-chunk
//! reference, at 1k and 10k chunks) are the `hybrid` axis of
//! `benches/hot_path.rs`, which also holds the sanctioned baseline numbers.

use exsample_rand::gamma::{gamma_draw, mt_constants, mt_draw_unit};
use exsample_rand::quantile::{gamma_max_of_k, gamma_quantile, GammaTail};
use exsample_rand::ziggurat::{fast_exponential, fast_standard_normal};
use exsample_rand::Sampler;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

fn time<F: FnMut() -> f64>(name: &str, n: usize, mut f: F) {
    let start = Instant::now();
    let mut acc = 0.0;
    for _ in 0..n {
        acc += f();
    }
    black_box(acc);
    let ns = start.elapsed().as_secs_f64() * 1e9 / n as f64;
    println!("{name:<40} {ns:>8.2} ns/op");
}

fn main() {
    let mut rng = StdRng::seed_from_u64(1);
    time("next_u64", 10_000_000, || rng.next_u64() as f64);
    time("gen::<f64>", 10_000_000, || rng.gen::<f64>());
    time("fast_standard_normal (ziggurat)", 10_000_000, || {
        fast_standard_normal(&mut rng)
    });
    time("fast_exponential (ziggurat)", 10_000_000, || {
        fast_exponential(&mut rng)
    });
    time("StandardNormal (polar)", 10_000_000, || {
        exsample_rand::StandardNormal.sample(&mut rng)
    });
    let (d_plain, c_plain, _) = mt_constants(1.1);
    let (d_boost, c_boost, b_boost) = mt_constants(0.1);
    time("mt_draw_unit (shape 1.1)", 10_000_000, || {
        mt_draw_unit(&mut rng, d_plain, c_plain)
    });
    time("gamma_draw plain (shape 1.1)", 10_000_000, || {
        gamma_draw(&mut rng, d_plain, c_plain, 0.0, 2.0)
    });
    time("gamma_draw boost (shape 0.1)", 10_000_000, || {
        gamma_draw(&mut rng, d_boost, c_boost, b_boost, 2.0)
    });
    time("gamma_quantile (shape 1.1)", 1_000_000, || {
        gamma_quantile(1.1, rng.gen::<f64>())
    });
    time("gamma_max_of_k (shape 1.1, k = 10k)", 1_000_000, || {
        gamma_max_of_k(&mut rng, 1.1, 2.0, 10_000)
    });
    let prior = GammaTail::new(0.1);
    for k in [16, 100, 900] {
        time(
            &format!("GammaTail::max_of_k (shape 0.1, k = {k})"),
            1_000_000,
            || prior.max_of_k(&mut rng, 2.0, k),
        );
    }
    time("exp()", 10_000_000, || (-rng.gen::<f64>()).exp());
    time("powf (seed boost path)", 10_000_000, || {
        rng.gen::<f64>().powf(9.99)
    });
}
