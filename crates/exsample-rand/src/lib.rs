//! # exsample-rand
//!
//! From-scratch implementations of the non-uniform random distributions used by the
//! ExSample reproduction.
//!
//! The ExSample algorithm (Moll et al., ICDE 2022) relies on sampling from a
//! [`Gamma`] belief distribution for Thompson sampling (Eq. III.4 of the paper),
//! and its evaluation workloads are generated from [`LogNormal`] duration models
//! and [`Normal`] temporal placement models.  The
//! crates.io distribution crates are deliberately not used: every sampler here is
//! implemented directly on top of a uniform [`rand::Rng`] source so the whole
//! pipeline is auditable and reproducible from first principles.
//!
//! ## Modules
//!
//! * [`normal`] — standard / parameterised Normal via the Marsaglia polar method.
//! * [`gamma`] — Gamma via the Marsaglia–Tsang squeeze method (with the shape < 1
//!   boost), the core of ExSample's Thompson sampling step; includes the
//!   cached-constant API ([`gamma::mt_constants`], [`gamma::gamma_draw`]) that
//!   the chunk-selection hot path builds on.
//! * [`quantile`] — Gamma quantile (Wilson–Hilferty seed + Halley refinement on
//!   the regularized incomplete gamma) and [`quantile::gamma_max_of_k`], the
//!   exact max-of-k order-statistic draw behind belief-class deduplicated
//!   Thompson sampling.
//! * [`ziggurat`] — fast table-based standard Normal / Exponential samplers
//!   backing the Gamma hot path.
//! * [`lognormal`] — LogNormal durations, parameterisable by target mean/sigma.
//! * [`seeding`] — deterministic hierarchical seed derivation for multi-trial
//!   experiments.
//! * [`summary`] — summary statistics (mean, variance, percentiles, geometric
//!   mean) used when aggregating experiment trials.
//!
//! ## Example
//!
//! ```
//! use exsample_rand::{Gamma, Sampler};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! // The ExSample belief distribution for a chunk with N1 = 3, n = 100:
//! let belief = Gamma::new(3.0 + 0.1, 100.0 + 1.0).unwrap();
//! let draw = belief.sample(&mut rng);
//! assert!(draw > 0.0);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod error;
pub mod gamma;
pub mod lognormal;
pub mod normal;
pub mod quantile;
pub mod seeding;
pub mod summary;
pub mod ziggurat;
mod ziggurat_tables;

pub use gamma::Gamma;
pub use lognormal::LogNormal;
pub use normal::{Normal, StandardNormal};
pub use quantile::{gamma_max_of_k, gamma_quantile, GammaTail};
pub use seeding::SeedSequence;
pub use summary::{geometric_mean, Summary};

use rand::Rng;

/// A distribution from which values can be sampled given a uniform RNG.
///
/// This mirrors `rand::distributions::Distribution` but is defined locally so the
/// whole sampling stack (and its error handling) lives in this workspace.
pub trait Sampler<T> {
    /// Draw one value from the distribution.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;

    /// Draw `count` values from the distribution into a fresh vector.
    fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, count: usize) -> Vec<T> {
        (0..count).map(|_| self.sample(rng)).collect()
    }
}

/// Draw a uniform value in `(0, 1)` that is guaranteed to be strictly positive.
///
/// Several rejection samplers take `ln(u)` of a uniform draw; a literal zero would
/// produce `-inf` and poison downstream arithmetic, so we redraw in that
/// (astronomically unlikely) case.
pub(crate) fn uniform_open01<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen();
        if u > 0.0 {
            return u;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_open01_is_in_open_interval() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let u = uniform_open01(&mut rng);
            assert!(u > 0.0 && u < 1.0);
        }
    }

    #[test]
    fn sample_n_has_requested_length() {
        let mut rng = StdRng::seed_from_u64(2);
        let d = Gamma::new(1.5, 2.0).unwrap();
        assert_eq!(d.sample_n(&mut rng, 37).len(), 37);
    }
}
