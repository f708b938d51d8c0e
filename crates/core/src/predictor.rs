//! Transition distributions for the REORGANIZER (§IV-C, Theorem IV.2).
//!
//! When the current state's counter fills, the algorithm jumps to another
//! active state. Uniform jumps give the classic `2H(n)` ratio; a predictor
//! that biases jumps toward states likely to serve the coming queries well
//! provably improves the ratio (`O(log_{1/(1−β)} n)` when the predictor
//! lands in the top-β fraction of ranks in expectation), and Theorem IV.2
//! holds for any predictor.
//!
//! This module holds only the distribution: jump with probability
//! `w^γ / Σ w^γ`, where `w ∈ [0, 1]` is a state's weight; `γ = 0` recovers
//! the uniform distribution. The weights come from the caller through
//! [`crate::Dumts::set_weight`]: OREO's is each state's skipped fraction on
//! the admission sample, and the simulator's MTS Optimal uses each state's
//! skipped fraction over the last completed phase.

use rand::Rng;

/// How the reorganizer picks the next state among active candidates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TransitionPolicy {
    /// Uniform over active states (the classic BLS algorithm).
    Uniform,
    /// Weight states by `w^γ` where `w` is the state's jump weight, a
    /// skipped fraction (§IV-C). `gamma = 0.0` degenerates to `Uniform`.
    SkippedWeighted {
        /// The weighting exponent; higher values favor historically
        /// well-skipping states more aggressively.
        gamma: f64,
    },
}

impl TransitionPolicy {
    /// Paper default: γ = 1.
    pub fn default_biased() -> Self {
        TransitionPolicy::SkippedWeighted { gamma: 1.0 }
    }

    /// Sample an index into `candidates` given their weights.
    ///
    /// `weights[i]` is the jump weight of `candidates[i]` (in `[0, 1]`).
    /// Degenerate weight vectors (all zero, NaN…) fall back to uniform.
    pub fn sample(&self, weights: &[f64], rng: &mut impl Rng) -> usize {
        assert!(!weights.is_empty(), "no candidates to transition to");
        match self {
            TransitionPolicy::Uniform => rng.random_range(0..weights.len()),
            TransitionPolicy::SkippedWeighted { gamma } => {
                if *gamma == 0.0 {
                    return rng.random_range(0..weights.len());
                }
                let powered: Vec<f64> = weights
                    .iter()
                    .map(|w| {
                        let w = w.clamp(0.0, 1.0);
                        w.powf(*gamma)
                    })
                    .collect();
                let total: f64 = powered.iter().sum();
                if total <= 0.0 || total.is_nan() || total.is_infinite() {
                    return rng.random_range(0..weights.len());
                }
                let mut draw = rng.random::<f64>() * total;
                for (i, p) in powered.iter().enumerate() {
                    draw -= p;
                    if draw <= 0.0 {
                        return i;
                    }
                }
                powered.len() - 1 // numerical tail
            }
        }
    }
}

/// Median of a slice (used to seed the counters of states admitted
/// mid-phase, §IV-C). Returns `default` for an empty slice.
pub(crate) fn median_or(values: &[f64], default: f64) -> f64 {
    if values.is_empty() {
        return default;
    }
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn frequencies(policy: TransitionPolicy, weights: &[f64], draws: usize) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(42);
        let mut counts = vec![0usize; weights.len()];
        for _ in 0..draws {
            counts[policy.sample(weights, &mut rng)] += 1;
        }
        counts.iter().map(|&c| c as f64 / draws as f64).collect()
    }

    #[test]
    fn uniform_is_roughly_flat() {
        let f = frequencies(TransitionPolicy::Uniform, &[0.9, 0.1, 0.5], 30_000);
        for p in f {
            assert!((p - 1.0 / 3.0).abs() < 0.02, "p = {p}");
        }
    }

    #[test]
    fn gamma_zero_equals_uniform() {
        let f = frequencies(
            TransitionPolicy::SkippedWeighted { gamma: 0.0 },
            &[0.9, 0.1],
            30_000,
        );
        assert!((f[0] - 0.5).abs() < 0.02);
    }

    #[test]
    fn gamma_one_is_proportional() {
        let f = frequencies(
            TransitionPolicy::SkippedWeighted { gamma: 1.0 },
            &[0.8, 0.2],
            40_000,
        );
        assert!((f[0] - 0.8).abs() < 0.02, "f0 = {}", f[0]);
        assert!((f[1] - 0.2).abs() < 0.02, "f1 = {}", f[1]);
    }

    #[test]
    fn larger_gamma_sharpens() {
        let f1 = frequencies(
            TransitionPolicy::SkippedWeighted { gamma: 1.0 },
            &[0.6, 0.4],
            40_000,
        );
        let f3 = frequencies(
            TransitionPolicy::SkippedWeighted { gamma: 3.0 },
            &[0.6, 0.4],
            40_000,
        );
        assert!(f3[0] > f1[0], "γ=3 should favor the better state more");
    }

    #[test]
    fn all_zero_weights_fall_back_to_uniform() {
        let f = frequencies(
            TransitionPolicy::SkippedWeighted { gamma: 2.0 },
            &[0.0, 0.0, 0.0],
            30_000,
        );
        for p in f {
            assert!((p - 1.0 / 3.0).abs() < 0.02);
        }
    }

    #[test]
    fn median_cases() {
        assert_eq!(median_or(&[], 0.7), 0.7);
        assert_eq!(median_or(&[3.0], 0.0), 3.0);
        assert_eq!(median_or(&[1.0, 3.0], 0.0), 2.0);
        assert_eq!(median_or(&[5.0, 1.0, 3.0], 0.0), 3.0);
    }

    #[test]
    #[should_panic(expected = "no candidates")]
    fn empty_candidates_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        TransitionPolicy::Uniform.sample(&[], &mut rng);
    }
}
