//! Framework-level configuration. Defaults reproduce the paper's §VI-A3
//! experimental setup. The §IV choices the paper always makes are fixed,
//! not configured: D-UMTS stays in its state on a phase reset (§IV-A),
//! admits mid-phase states into the running phase, and draws jumps from
//! the sample predictor (§IV-C).

use crate::dumts::DumtsConfig;
use crate::layout_manager::{CandidateSource, ManagerConfig};
use crate::predictor::TransitionPolicy;
use serde::{Deserialize, Serialize};

/// All OREO knobs in one place.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct OreoConfig {
    /// Relative reorganization cost α (default 80 — the paper's measured
    /// default; Table I measures 60–100× on our substrate too).
    pub alpha: f64,
    /// Admission distance threshold ε (default 0.08).
    pub epsilon: f64,
    /// Transition-bias exponent γ (default 1; 0 = uniform).
    pub gamma: f64,
    /// Sliding-window length (default 200 queries).
    pub window: usize,
    /// Candidate generation period in queries (default = window).
    pub generation_interval: u64,
    /// Target partition count per layout.
    pub partitions: usize,
    /// Rows in the data sample used for layout generation (the paper uses
    /// 0.1–1% of the table).
    pub data_sample_rows: usize,
    /// Workload-sample source for candidate generation (SW/RS/Both).
    pub candidate_source: CandidateSource,
    /// Master RNG seed.
    pub seed: u64,
}

impl Default for OreoConfig {
    fn default() -> Self {
        Self {
            alpha: 80.0,
            epsilon: 0.08,
            gamma: 1.0,
            window: 200,
            generation_interval: 200,
            partitions: 32,
            data_sample_rows: 2000,
            candidate_source: CandidateSource::SlidingWindow,
            seed: 0,
        }
    }
}

impl OreoConfig {
    /// The transition policy implied by γ.
    pub fn transition_policy(&self) -> TransitionPolicy {
        if self.gamma == 0.0 {
            TransitionPolicy::Uniform
        } else {
            TransitionPolicy::SkippedWeighted { gamma: self.gamma }
        }
    }

    /// Derive the reorganizer slice of the configuration.
    pub fn dumts_config(&self) -> DumtsConfig {
        DumtsConfig {
            alpha: self.alpha,
            transition: self.transition_policy(),
            seed: self.seed,
        }
    }

    /// Derive the layout-manager slice of the configuration.
    pub fn manager_config(&self) -> ManagerConfig {
        ManagerConfig {
            epsilon: self.epsilon,
            window: self.window,
            generation_interval: self.generation_interval,
            reservoir_capacity: self.window,
            source: self.candidate_source,
            // decorrelate manager sampling from reorganizer transitions
            seed: self.seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1),
        }
    }

    /// Sets the relative reorganization cost α.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Sets the admission threshold ε.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout_manager::{RTBS_CAPACITY, RTBS_LAMBDA};

    #[test]
    fn defaults_match_paper() {
        let c = OreoConfig::default();
        assert_eq!(c.alpha, 80.0);
        assert_eq!(c.epsilon, 0.08);
        assert_eq!(c.gamma, 1.0);
        assert_eq!(c.window, 200);
        assert_eq!(c.candidate_source, CandidateSource::SlidingWindow);
        assert_eq!(RTBS_CAPACITY, 64);
        assert_eq!(RTBS_LAMBDA, 0.005);
    }

    #[test]
    fn gamma_zero_is_uniform_policy() {
        let c = OreoConfig {
            gamma: 0.0,
            ..OreoConfig::default()
        };
        assert_eq!(c.transition_policy(), TransitionPolicy::Uniform);
    }

    #[test]
    fn builders_chain() {
        let c = OreoConfig::default().with_alpha(10.0).with_epsilon(0.2);
        assert_eq!(c.alpha, 10.0);
        assert_eq!(c.epsilon, 0.2);
        assert_eq!(c.gamma, OreoConfig::default().gamma, "the rest untouched");
    }

    #[test]
    fn manager_seed_decorrelated() {
        let c = OreoConfig {
            seed: 5,
            ..OreoConfig::default()
        };
        assert_ne!(c.manager_config().seed, 5);
    }
}
