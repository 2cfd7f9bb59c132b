//! Small statistics and seed helpers owned by the benchmark, so that no
//! library change can move how inputs are derived or how samples are summarised.

/// Median, minimum, maximum and sample count of one metric over repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN: both mean a measurement was lost.
pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// Summarise `values`.
///
/// # Panics
/// Panics on an empty slice or a NaN: both mean a measurement was lost.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "no samples to summarise");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let n = sorted.len();
    let median = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    };
    Summary {
        median,
        min: sorted[0],
        max: sorted[n - 1],
        n,
    }
}

/// Geometric mean of strictly positive values; 0 for an empty slice.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Whether `name` is a legal metric or workload name: 1 to 64 characters of
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    let bytes = name.as_bytes();
    (1..=64).contains(&bytes.len())
        && bytes[0].is_ascii_alphanumeric()
        && bytes
            .iter()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive a child seed from `seed`, a label and an index.  Every dataset and
/// query seed of every workload comes from the run's `--seed` through this
/// function only.
pub fn derive_seed(seed: u64, label: &str, index: u64) -> u64 {
    let mut state = splitmix64(seed);
    for byte in label.bytes() {
        state = splitmix64(state ^ u64::from(byte));
    }
    splitmix64(state ^ index.wrapping_mul(0xC4CE_B9FE_1A85_EC53))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max_of_odd_and_even_counts() {
        let odd = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((odd.median, odd.min, odd.max, odd.n), (2.0, 1.0, 3.0, 3));
        let even = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(
            (even.median, even.min, even.max, even.n),
            (2.5, 1.0, 4.0, 4)
        );
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_sample_is_a_bug() {
        summarize(&[]);
    }

    #[test]
    fn geometric_mean_of_ratios() {
        assert!((geometric_mean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 0.0);
    }

    #[test]
    fn metric_name_rule() {
        for good in [
            "wall_s",
            "exsample-engine.cache.hit_rate",
            "fig5_sweep",
            "9lives",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let too_long = "x".repeat(65);
        for bad in ["", "-dash", ".dot", "has space", "slash/y", &too_long] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        assert_eq!(derive_seed(1, "data", 0), derive_seed(1, "data", 0));
        let seeds = [
            derive_seed(1, "data", 0),
            derive_seed(1, "data", 1),
            derive_seed(1, "query", 0),
            derive_seed(2, "data", 0),
        ];
        for (i, a) in seeds.iter().enumerate() {
            for b in &seeds[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
