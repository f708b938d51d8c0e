//! Multi-copy layouts (the Appendix D direction, §VIII).
//!
//! OREO normally keeps a single materialized copy of the data; every switch
//! pays the full reorganization cost α. With extra storage budget the system
//! can *cache* the last `m` materialized layouts: switching back to a cached
//! layout is a near-free pointer swap (cost β ≪ α), only evictions force a
//! full rebuild. This module provides the cache-and-charge policy that a
//! multi-copy variant of Algorithm 4 plugs into, plus cost accounting.

use oreo_core::StateId;
use std::collections::VecDeque;

/// LRU cache of materialized layouts with swap-vs-rebuild charging.
#[derive(Clone, Debug)]
pub struct MultiCopyCache {
    /// Max simultaneously materialized layouts (≥ 1; the active one counts).
    capacity: usize,
    /// Full reorganization cost (cache miss).
    alpha: f64,
    /// Swap cost for switching to an already-materialized layout.
    beta: f64,
    /// Most-recently-used first.
    lru: VecDeque<StateId>,
    hits: u64,
    misses: u64,
}

impl MultiCopyCache {
    /// # Panics
    /// Panics when `capacity == 0` or `beta > alpha`.
    pub fn new(capacity: usize, alpha: f64, beta: f64, initial: StateId) -> Self {
        assert!(capacity >= 1, "need room for the active layout");
        assert!(beta <= alpha, "a swap cannot cost more than a rebuild");
        let mut lru = VecDeque::with_capacity(capacity);
        lru.push_front(initial);
        Self {
            capacity,
            alpha,
            beta,
            lru,
            hits: 0,
            misses: 0,
        }
    }

    /// Charge a switch to `target`: β on a cache hit, α on a miss (evicting
    /// the least-recently-used copy if full). Returns the cost.
    pub fn charge_switch(&mut self, target: StateId) -> f64 {
        if let Some(pos) = self.lru.iter().position(|&s| s == target) {
            let s = self.lru.remove(pos).expect("position valid");
            self.lru.push_front(s);
            self.hits += 1;
            self.beta
        } else {
            if self.lru.len() == self.capacity {
                self.lru.pop_back();
            }
            self.lru.push_front(target);
            self.misses += 1;
            self.alpha
        }
    }

    /// Drop a layout from the cache (e.g. when the manager prunes it).
    pub fn invalidate(&mut self, state: StateId) {
        self.lru.retain(|&s| s != state);
    }

    /// Materialized layouts, most recent first.
    pub fn cached(&self) -> impl Iterator<Item = StateId> + '_ {
        self.lru.iter().copied()
    }

    /// Whether `state` is currently materialized.
    pub fn is_cached(&self, state: StateId) -> bool {
        self.lru.contains(&state)
    }

    /// Switches that found the target layout already materialized.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Switches that had to materialize the target layout.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oreo_core::{Dumts, DumtsConfig, TransitionPolicy};

    #[test]
    fn hit_costs_beta_miss_costs_alpha() {
        let mut c = MultiCopyCache::new(2, 80.0, 2.0, 0);
        assert_eq!(c.charge_switch(1), 80.0); // miss: {1, 0}
        assert_eq!(c.charge_switch(0), 2.0); // hit:  {0, 1}
        assert_eq!(c.charge_switch(2), 80.0); // miss, evicts 1: {2, 0}
        assert!(!c.is_cached(1));
        assert_eq!(c.charge_switch(1), 80.0); // miss again
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 3);
    }

    #[test]
    fn capacity_one_degenerates_to_plain_alpha() {
        let mut c = MultiCopyCache::new(1, 80.0, 2.0, 0);
        for target in [1u64, 0, 1, 0] {
            assert_eq!(c.charge_switch(target), 80.0);
        }
        assert_eq!(c.hits(), 0);
    }

    #[test]
    fn invalidate_removes_copies() {
        let mut c = MultiCopyCache::new(3, 10.0, 1.0, 0);
        c.charge_switch(1);
        c.charge_switch(2);
        c.invalidate(1);
        assert!(!c.is_cached(1));
        assert_eq!(c.charge_switch(1), 10.0, "rebuild after invalidation");
    }

    /// On an oscillating workload, a 2-copy cache slashes reorganization
    /// cost versus the single-copy accounting of the same D-UMTS run.
    #[test]
    fn oscillating_workload_benefits_from_cache() {
        let alpha = 10.0;
        let mut d = Dumts::new(
            &[0, 1],
            DumtsConfig {
                alpha,
                transition: TransitionPolicy::Uniform,
                stay_on_reset: true,
                mid_phase_admission: false,
                seed: 4,
            },
        )
        .with_initial_state(0);
        let mut single = 0.0;
        let mut cache = MultiCopyCache::new(2, alpha, 0.5, 0);
        let mut multi = 0.0;
        for t in 0..2_000 {
            let cheap = (t / 100) % 2; // workload flips every 100 queries
            let o = d.observe_query(|s| if s == cheap { 0.02 } else { 0.9 });
            if let Some(target) = o.switched_to {
                single += alpha;
                multi += cache.charge_switch(target);
            }
        }
        assert!(d.switches() >= 4, "workload must induce switching");
        assert!(
            multi < single / 2.0,
            "cache should at least halve reorg cost: multi {multi} vs single {single}"
        );
        assert!(cache.hits() > 0);
    }

    #[test]
    #[should_panic(expected = "swap cannot cost more")]
    fn beta_above_alpha_rejected() {
        MultiCopyCache::new(2, 1.0, 2.0, 0);
    }
}
