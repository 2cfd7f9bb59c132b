//! Configuration of the ExSample sampler.

/// Which rule converts per-chunk beliefs into a chunk choice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChunkSelectionPolicy {
    /// Thompson sampling: draw one value from each chunk's Gamma belief and pick
    /// the arg-max (the paper's method, Section III-C).
    ThompsonSampling,
    /// Bayes-UCB: rank chunks by an upper quantile of the belief distribution.
    /// The quantile level grows with the total number of samples as `1 - 1/(t+1)`,
    /// following Kaufmann's Bayes-UCB index policy (the paper reports results are
    /// indistinguishable from Thompson sampling).
    BayesUcb,
    /// Greedy: pick the chunk with the largest point estimate `N1/n`, breaking ties
    /// randomly.  Included as an ablation: the paper explains this gets stuck on
    /// early lucky chunks.
    GreedyMean,
    /// Ignore the statistics entirely and cycle through chunks uniformly at random.
    /// Equivalent to the `random`/`random+` baselines; included so the ablation
    /// harness can isolate the effect of the policy alone.
    UniformChunk,
}

/// How frames are sampled *within* the selected chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WithinChunkSampling {
    /// Uniformly at random without replacement.
    Uniform,
    /// The `random+` hierarchical sampler (Section III-F), which avoids sampling
    /// temporally close to previous samples.  This is the paper's default for
    /// ExSample's within-chunk sampling.
    RandomPlus,
}

/// Full configuration of an [`crate::ExSample`] sampler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExSampleConfig {
    /// Prior pseudo-count added to `N1` in the Gamma belief (`α₀` in Eq. III.4).
    pub alpha0: f64,
    /// Prior pseudo-count added to `n` in the Gamma belief (`β₀` in Eq. III.4).
    pub beta0: f64,
    /// Chunk-selection policy.
    pub policy: ChunkSelectionPolicy,
    /// Within-chunk frame sampling strategy.
    pub within_chunk: WithinChunkSampling,
}

impl Default for ExSampleConfig {
    /// The paper's configuration: `α₀ = 0.1`, `β₀ = 1`, Thompson sampling, and
    /// `random+` within chunks.
    fn default() -> Self {
        ExSampleConfig {
            alpha0: 0.1,
            beta0: 1.0,
            policy: ChunkSelectionPolicy::ThompsonSampling,
            within_chunk: WithinChunkSampling::RandomPlus,
        }
    }
}

impl ExSampleConfig {
    /// Validate the configuration, panicking with a descriptive message if the
    /// priors are not usable.
    ///
    /// `α₀` and `β₀` must be strictly positive because the Gamma distribution is
    /// undefined at zero — this is precisely why the paper adds them.
    pub(crate) fn validate(&self) {
        assert!(
            self.alpha0 > 0.0 && self.alpha0.is_finite(),
            "alpha0 must be a positive finite number, got {}",
            self.alpha0
        );
        assert!(
            self.beta0 > 0.0 && self.beta0.is_finite(),
            "beta0 must be a positive finite number, got {}",
            self.beta0
        );
    }

    /// Builder-style setter for the chunk-selection policy.
    pub fn with_policy(mut self, policy: ChunkSelectionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Builder-style setter for the within-chunk sampling strategy.
    pub fn with_within_chunk(mut self, within: WithinChunkSampling) -> Self {
        self.within_chunk = within;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        // Spelled as a literal so that a fifth settable value cannot appear
        // unnoticed: how the arg-max is evaluated is not one of them.
        let c = ExSampleConfig {
            alpha0: 0.1,
            beta0: 1.0,
            policy: ChunkSelectionPolicy::ThompsonSampling,
            within_chunk: WithinChunkSampling::RandomPlus,
        };
        assert_eq!(ExSampleConfig::default(), c);
        c.validate();
    }

    #[test]
    fn builder_setters() {
        let c = ExSampleConfig::default()
            .with_policy(ChunkSelectionPolicy::BayesUcb)
            .with_within_chunk(WithinChunkSampling::Uniform)
            .with_priors(0.5, 2.0);
        assert_eq!(c.policy, ChunkSelectionPolicy::BayesUcb);
        assert_eq!(c.within_chunk, WithinChunkSampling::Uniform);
        assert_eq!(c.alpha0, 0.5);
        assert_eq!(c.beta0, 2.0);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "alpha0")]
    fn zero_alpha0_rejected() {
        ExSampleConfig::default().with_priors(0.0, 1.0).validate();
    }

    #[test]
    #[should_panic(expected = "beta0")]
    fn negative_beta0_rejected() {
        ExSampleConfig::default().with_priors(0.1, -1.0).validate();
    }

    /// The prior setter the tests use to leave the paper's `α₀ = 0.1, β₀ = 1`.
    impl ExSampleConfig {
        /// Builder-style setter for the Gamma priors.
        pub(crate) fn with_priors(mut self, alpha0: f64, beta0: f64) -> Self {
            self.alpha0 = alpha0;
            self.beta0 = beta0;
            self
        }
    }
}
