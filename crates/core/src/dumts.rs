//! D-UMTS: the dynamic uniform metrical task system solver (Algorithm 4).
//!
//! This is the paper's core algorithmic contribution. It extends the classic
//! Borodin–Linial–Saks counter algorithm (Algorithms 1–3; Borodin, Linial &
//! Saks, JACM 1992) with *state update queries* that add and remove states
//! mid-stream while preserving a tight competitive ratio of `2·H(|S_max|)`
//! (Theorem IV.1). With no add/remove events and
//! [`TransitionPolicy::Uniform`] it is the classic algorithm over a fixed
//! state space, save that a new phase keeps the current state (below).
//!
//! * every state carries a counter accumulating its service costs; a counter
//!   is **full** at `α` (the uniform switching cost);
//! * each query costs only the *active* states (counter not full): a full
//!   counter cannot change before the phase ends, so an inactive state's
//!   cost is never asked for;
//! * when the current state's counter fills, the system jumps to a random
//!   active state — uniformly, or biased by the jump weights the caller
//!   sets with [`Dumts::set_weight`] (§IV-C, [`TransitionPolicy`]; a state
//!   never given a weight draws with weight 0);
//! * when all counters are full the **phase** ends: counters reset and all
//!   states become active again;
//! * a state added mid-phase joins the running phase with its counter at
//!   the median of the active counters (§IV-C), so a fresh layout can be
//!   jumped to at once; a removal mid-phase drops the victim (and forces a
//!   jump if it was current).
//!
//! The paper's stay-in-place optimization (§IV-A) is always on: a new phase
//! keeps the current state instead of paying for a random move; this does
//! not change the asymptotic ratio but measurably cuts reorganizations.

use crate::predictor::{median_or, TransitionPolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// Identifier of a system state (for OREO: a data layout id).
pub type StateId = u64;

/// Reorganizer tuning knobs.
#[derive(Clone, Debug)]
pub struct DumtsConfig {
    /// Relative cost of switching states (the paper's α; ≥ 1).
    pub alpha: f64,
    /// Jump distribution when the current counter fills.
    pub transition: TransitionPolicy,
    /// RNG seed (the adversary must not see these bits — §III-A).
    pub seed: u64,
}

impl Default for DumtsConfig {
    fn default() -> Self {
        Self {
            alpha: 80.0,
            transition: TransitionPolicy::default_biased(),
            seed: 0,
        }
    }
}

#[derive(Clone, Debug)]
struct StateEntry {
    /// Accumulated service cost this phase (full at α).
    counter: f64,
    /// In the active set `S_A` (counter not full, participating this phase)?
    active: bool,
    /// Jump weight `p(s, S_A)` of §IV-C, as the caller last set it.
    weight: f64,
}

/// What a step did, so callers can account costs.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StepOutcome {
    /// `Some(new_state)` when the system moved (a reorganization: cost α).
    pub switched_to: Option<StateId>,
    /// A phase ended and counters were reset during this step.
    pub phase_reset: bool,
}

/// The Algorithm 4 engine.
///
/// # Example
///
/// ```
/// use oreo_core::{Dumts, DumtsConfig};
///
/// let mut d = Dumts::new(
///     &[0, 1, 2],
///     DumtsConfig {
///         alpha: 4.0,
///         seed: 7,
///         ..Default::default()
///     },
/// );
/// for _ in 0..200 {
///     // state 1 is consistently cheap, the others expensive
///     d.observe_query(|s| if s == 1 { 0.1 } else { 0.9 });
/// }
/// assert!(d.states().contains(&d.current()));
/// assert!(d.switches() > 0 && d.phases() > 0);
///
/// // the "D" in D-UMTS: the state space changes mid-stream
/// d.add_state(3);
/// let _ = d.remove_state(0);
/// assert_eq!(d.states().len(), 3);
/// assert!(d.max_states_seen() >= 3);
/// ```
#[derive(Clone, Debug)]
pub struct Dumts {
    config: DumtsConfig,
    /// Deterministic iteration (BTreeMap) keeps runs reproducible.
    states: BTreeMap<StateId, StateEntry>,
    current: StateId,
    rng: StdRng,
    phases: u64,
    switches: u64,
    queries: u64,
    /// Largest |S| ever (the `|S_max|` of Theorem IV.1).
    peak_states: usize,
}

impl Dumts {
    /// Start with a non-empty initial state set; the initial state is drawn
    /// uniformly (Algorithm 1 line 2) unless the caller pins it via
    /// [`Dumts::with_initial_state`].
    pub fn new(initial_states: &[StateId], config: DumtsConfig) -> Self {
        assert!(!initial_states.is_empty(), "need at least one state");
        assert!(config.alpha >= 1.0, "alpha must be >= 1");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut states = BTreeMap::new();
        for &s in initial_states {
            states.insert(
                s,
                StateEntry {
                    counter: 0.0,
                    active: true,
                    weight: 0.0,
                },
            );
        }
        let ids: Vec<StateId> = states.keys().copied().collect();
        let current = ids[rand::Rng::random_range(&mut rng, 0..ids.len())];
        let peak_states = states.len();
        Self {
            config,
            states,
            current,
            rng,
            phases: 1,
            switches: 0,
            queries: 0,
            peak_states,
        }
    }

    /// Pin the starting state (used when the system boots on a known default
    /// layout rather than a random one).
    pub fn with_initial_state(mut self, s: StateId) -> Self {
        assert!(self.states.contains_key(&s), "unknown initial state");
        self.current = s;
        self
    }

    /// The state D-UMTS currently occupies.
    pub fn current(&self) -> StateId {
        self.current
    }

    /// The reorganization cost α this instance was built with.
    pub fn alpha(&self) -> f64 {
        self.config.alpha
    }

    /// All states currently in `S`.
    pub fn states(&self) -> Vec<StateId> {
        self.states.keys().copied().collect()
    }

    /// States in the active set `S_A`.
    pub fn active_states(&self) -> Vec<StateId> {
        self.states
            .iter()
            .filter(|(_, e)| e.active)
            .map(|(&s, _)| s)
            .collect()
    }

    /// Counter of a state, if present.
    pub fn counter(&self, s: StateId) -> Option<f64> {
        self.states.get(&s).map(|e| e.counter)
    }

    /// Completed + current phase count.
    pub fn phases(&self) -> u64 {
        self.phases
    }

    /// Number of state switches so far (each costs α).
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Queries observed.
    pub fn queries(&self) -> u64 {
        self.queries
    }

    /// Largest state-set size seen (|S_max| in Theorem IV.1).
    pub fn max_states_seen(&self) -> usize {
        self.peak_states
    }

    /// Add a state (Algorithm 4 lines 12–13). The state joins the running
    /// phase with its counter initialized to the median of the active
    /// counters (§IV-C). Its jump weight is 0 until the caller sets one.
    pub fn add_state(&mut self, s: StateId) {
        if self.states.contains_key(&s) {
            return;
        }
        let active_counters: Vec<f64> = self
            .states
            .values()
            .filter(|e| e.active)
            .map(|e| e.counter)
            .collect();
        let counter = median_or(&active_counters, 0.0);
        self.states.insert(
            s,
            StateEntry {
                counter,
                active: counter < self.config.alpha,
                weight: 0.0,
            },
        );
        self.peak_states = self.peak_states.max(self.states.len());
    }

    /// Set the jump weight of state `s` — the caller-supplied `p(s, S_A)`
    /// of §IV-C, in `[0, 1]`: OREO's is the fraction of data `s` skips on
    /// its admission sample. Draws use the weights as last set; a state not
    /// in `S` is ignored.
    pub fn set_weight(&mut self, s: StateId, weight: f64) {
        if let Some(entry) = self.states.get_mut(&s) {
            entry.weight = weight;
        }
    }

    /// Remove a state (Algorithm 4 lines 5–11). Returns the outcome: the
    /// removal may force a phase reset and/or a jump (cost α) when the
    /// current state is deleted.
    ///
    /// # Panics
    /// Panics when removing the last remaining state — the system must
    /// always have somewhere to be.
    pub fn remove_state(&mut self, s: StateId) -> StepOutcome {
        let mut outcome = StepOutcome::default();
        if self.states.remove(&s).is_none() {
            return outcome;
        }
        assert!(
            !self.states.is_empty(),
            "cannot remove the last remaining state"
        );
        if self.no_active_states() {
            self.reset_states();
            outcome.phase_reset = true;
        }
        if s == self.current {
            // forced move: uniform over active states (the victim has no
            // meaningful predictor standing here)
            let active = self.active_states();
            let idx = rand::Rng::random_range(&mut self.rng, 0..active.len());
            self.current = active[idx];
            self.switches += 1;
            outcome.switched_to = Some(self.current);
        }
        outcome
    }

    /// Process one service query (Algorithm 3 within Algorithm 4 line 15).
    /// `cost(s)` must return `c(s, q) ∈ [0, 1]`; it is called once for each
    /// state active before the step, and for no other.
    pub fn observe_query(&mut self, cost: impl Fn(StateId) -> f64) -> StepOutcome {
        self.queries += 1;
        let alpha = self.config.alpha;

        for (&s, entry) in self.states.iter_mut().filter(|(_, e)| e.active) {
            entry.counter += cost(s).clamp(0.0, 1.0);
            if entry.counter >= alpha {
                entry.active = false;
            }
        }

        let mut outcome = StepOutcome::default();
        let current_active = self.states.get(&self.current).is_some_and(|e| e.active);
        if current_active {
            return outcome;
        }

        if self.no_active_states() {
            // Phase over: reset counters and stay put (§IV-A).
            self.reset_states();
            outcome.phase_reset = true;
            return outcome;
        }

        // Jump to an active state via the transition distribution.
        let next = self.draw_next_state();
        debug_assert_ne!(next, self.current, "current is inactive here");
        self.current = next;
        self.switches += 1;
        outcome.switched_to = Some(next);
        outcome
    }

    fn no_active_states(&self) -> bool {
        !self.states.values().any(|e| e.active)
    }

    /// Reset: start a new phase with all states active, counters at 0
    /// (Algorithm 2).
    fn reset_states(&mut self) {
        for entry in self.states.values_mut() {
            entry.counter = 0.0;
            entry.active = true;
        }
        self.phases += 1;
    }

    /// Draw the next state among active states per the transition policy.
    fn draw_next_state(&mut self) -> StateId {
        let (candidates, weights): (Vec<StateId>, Vec<f64>) = (self.states.iter())
            .filter(|(_, e)| e.active)
            .map(|(&s, e)| (s, e.weight))
            .unzip();
        assert!(!candidates.is_empty(), "no active state to jump to");
        let idx = self.config.transition.sample(&weights, &mut self.rng);
        candidates[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn uniform_config(alpha: f64, seed: u64) -> DumtsConfig {
        DumtsConfig {
            alpha,
            transition: TransitionPolicy::Uniform,
            seed,
        }
    }

    #[test]
    fn stays_put_while_counter_below_alpha() {
        let mut d = Dumts::new(&[1, 2], uniform_config(5.0, 0)).with_initial_state(1);
        for _ in 0..4 {
            let o = d.observe_query(|s| if s == 1 { 1.0 } else { 0.0 });
            assert_eq!(o.switched_to, None);
        }
        assert_eq!(d.current(), 1);
        // 5th unit fills the counter → must switch to state 2
        let o = d.observe_query(|s| if s == 1 { 1.0 } else { 0.0 });
        assert_eq!(o.switched_to, Some(2));
        assert_eq!(d.current(), 2);
        assert_eq!(d.switches(), 1);
    }

    #[test]
    fn phase_resets_when_all_counters_full() {
        let mut d = Dumts::new(&[1, 2], uniform_config(3.0, 1)).with_initial_state(1);
        // both states cost 1 per query → both counters fill on query 3
        let mut resets = 0;
        for _ in 0..3 {
            let o = d.observe_query(|_| 1.0);
            if o.phase_reset {
                resets += 1;
            }
        }
        assert_eq!(resets, 1);
        assert_eq!(d.phases(), 2);
        // stay-on-reset: no switch happened
        assert_eq!(d.switches(), 0);
        assert_eq!(d.current(), 1);
        // counters are back to zero and everyone is active
        assert_eq!(d.counter(1), Some(0.0));
        assert_eq!(d.active_states(), vec![1, 2]);
    }

    #[test]
    fn added_state_joins_running_phase_at_median() {
        let mut d = Dumts::new(&[1, 2, 3], uniform_config(4.0, 2)).with_initial_state(1);
        d.observe_query(|s| [0.0, 0.5, 1.0, 3.0][s as usize]);
        // active counters 0.5, 1.0, 3.0 → the newcomer starts at 1.0
        d.add_state(4);
        assert_eq!(d.counter(4), Some(1.0));
        assert_eq!(d.active_states(), vec![1, 2, 3, 4]);
        assert_eq!(d.max_states_seen(), 4);
        // it runs with the phase: it fills on the query that fills state 2
        for _ in 0..3 {
            d.observe_query(|_| 1.0);
        }
        assert_eq!(d.active_states(), vec![1]);
        d.observe_query(|_| 1.0);
        assert_eq!(d.phases(), 2);
        assert_eq!(d.active_states(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn removing_noncurrent_state_is_quiet() {
        let mut d = Dumts::new(&[1, 2, 3], uniform_config(10.0, 3)).with_initial_state(1);
        let o = d.remove_state(2);
        assert_eq!(o, StepOutcome::default());
        assert_eq!(d.states(), vec![1, 3]);
        assert_eq!(d.current(), 1);
    }

    #[test]
    fn removing_current_state_forces_jump() {
        let mut d = Dumts::new(&[1, 2, 3], uniform_config(10.0, 4)).with_initial_state(2);
        let o = d.remove_state(2);
        let new = o.switched_to.expect("must jump");
        assert_ne!(new, 2);
        assert_eq!(d.current(), new);
        assert_eq!(d.switches(), 1);
    }

    #[test]
    fn removal_that_empties_active_set_resets_phase() {
        let mut d = Dumts::new(&[1, 2], uniform_config(2.0, 5)).with_initial_state(1);
        // fill state 2's counter only
        d.observe_query(|s| if s == 2 { 1.0 } else { 0.0 });
        d.observe_query(|s| if s == 2 { 1.0 } else { 0.0 });
        assert_eq!(d.active_states(), vec![1]);
        // removing state 1 (current) leaves no active state → reset, then jump
        let o = d.remove_state(1);
        assert!(o.phase_reset);
        assert_eq!(o.switched_to, Some(2));
        assert_eq!(d.current(), 2);
        assert_eq!(d.active_states(), vec![2]);
    }

    #[test]
    #[should_panic(expected = "last remaining state")]
    fn cannot_remove_last_state() {
        let mut d = Dumts::new(&[1], uniform_config(5.0, 6));
        d.remove_state(1);
    }

    #[test]
    fn add_existing_state_is_noop() {
        let mut d = Dumts::new(&[1, 2], uniform_config(5.0, 7));
        d.observe_query(|_| 0.5);
        let c = d.counter(1).unwrap();
        d.add_state(1);
        assert_eq!(d.counter(1), Some(c));
        assert_eq!(d.states().len(), 2);
    }

    #[test]
    fn costs_are_clamped_to_unit_interval() {
        let mut d = Dumts::new(&[1, 2], uniform_config(3.0, 8)).with_initial_state(1);
        // a buggy cost fn returning 100 must not blow past α in one step
        // beyond saturation semantics (counter fills, state deactivates)
        d.observe_query(|_| 100.0);
        assert!(d.counter(1).unwrap() <= 3.0 + 1.0);
        assert_eq!(d.phases(), 1);
    }

    /// A step asks `cost` once for each state active before it and for no
    /// other: an inactive state's counter is full until the phase ends.
    #[test]
    fn observe_query_costs_only_active_states() {
        let mut d = Dumts::new(&[1, 2, 3, 4], uniform_config(2.0, 9)).with_initial_state(1);
        for _ in 0..2 {
            d.observe_query(|s| if s >= 3 { 1.0 } else { 0.0 });
        }
        let active = d.active_states();
        assert_eq!(active, vec![1, 2]);
        let costed = std::cell::RefCell::new(Vec::new());
        d.observe_query(|s| {
            costed.borrow_mut().push(s);
            0.5
        });
        assert_eq!(costed.into_inner(), active);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut d = Dumts::new(&[1, 2, 3, 4], uniform_config(4.0, seed));
            let mut trace = Vec::new();
            for i in 0..200u64 {
                let o = d.observe_query(|s| ((s + i) % 3) as f64 / 2.0);
                trace.push((d.current(), o.switched_to, o.phase_reset));
            }
            trace
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12), "different seeds should diverge");
    }

    /// The counter interpretation from the Theorem IV.1 proof: at any time,
    /// every *inactive* state accumulated at least α during this phase, and
    /// active counters are below α.
    #[test]
    fn counter_invariant_holds_under_random_stream() {
        let mut rng = StdRng::seed_from_u64(99);
        let mut d = Dumts::new(&[1, 2, 3, 4, 5], uniform_config(6.0, 100));
        for step in 0..2000 {
            // occasional dynamic updates
            if step % 97 == 0 {
                d.add_state(100 + step as StateId);
            }
            if step % 131 == 0 {
                let victims: Vec<StateId> = d
                    .states()
                    .into_iter()
                    .filter(|&s| s >= 100 && s != d.current())
                    .collect();
                if let Some(&v) = victims.first() {
                    d.remove_state(v);
                }
            }
            let costs: Vec<f64> = (0..200).map(|_| rng.random::<f64>()).collect();
            d.observe_query(|s| costs[(s % 200) as usize]);
            for s in d.states() {
                let e = d.counter(s).unwrap();
                let active = d.active_states().contains(&s);
                if active {
                    assert!(e < 6.0, "active counter >= alpha");
                }
            }
            // the current state is always a member of S
            assert!(d.states().contains(&d.current()));
        }
        assert!(d.max_states_seen() >= 5);
    }

    /// Theorem IV.1's per-phase argument: against any *oblivious* input
    /// (costs fixed before seeing the algorithm's random choices), the
    /// expected algorithm cost per phase is at most `2·α·H(n)`.
    ///
    /// The adversary here pre-commits a harsh random stream; the algorithm's
    /// measured per-phase cost (service + α per move), averaged over seeds,
    /// must respect the bound.
    #[test]
    fn oblivious_stream_phase_cost_bound() {
        let n = 8usize;
        let alpha = 10.0;
        let states: Vec<StateId> = (0..n as u64).collect();
        // Pre-commit the cost stream: per query, every state gets a cost
        // in [0.5, 1.0] — high pressure, but independent of our state.
        let mut adv = StdRng::seed_from_u64(7777);
        let stream: Vec<Vec<f64>> = (0..8_000)
            .map(|_| (0..n).map(|_| 0.5 + 0.5 * adv.random::<f64>()).collect())
            .collect();

        let trials = 30;
        let mut total_cost = 0.0;
        let mut total_phases = 0u64;
        for seed in 0..trials {
            let mut d = Dumts::new(&states, uniform_config(alpha, seed));
            let mut cost = 0.0;
            for q in &stream {
                let o = d.observe_query(|s| q[s as usize]);
                cost += q[d.current() as usize];
                if o.switched_to.is_some() {
                    cost += alpha;
                }
            }
            total_cost += cost;
            total_phases += d.phases();
        }
        let avg_cost_per_phase = total_cost / total_phases as f64;
        let h_n: f64 = (1..=n).map(|i| 1.0 / i as f64).sum();
        let bound = 2.0 * alpha * h_n;
        assert!(
            avg_cost_per_phase <= bound,
            "avg per-phase cost {avg_cost_per_phase:.1} exceeds 2αH(n) = {bound:.1}"
        );
    }

    /// With i.i.d. random costs the algorithm should switch rarely relative
    /// to the query count (each phase lasts ≥ α queries by construction:
    /// counters grow at most 1 per query).
    #[test]
    fn phases_last_at_least_alpha_queries() {
        let alpha = 25.0;
        let states: Vec<StateId> = (0..5).collect();
        let mut d = Dumts::new(&states, uniform_config(alpha, 3));
        let mut rng = StdRng::seed_from_u64(17);
        let mut queries_in_phase = 0u64;
        for _ in 0..5000 {
            let costs: Vec<f64> = (0..5).map(|_| rng.random::<f64>()).collect();
            let o = d.observe_query(|s| costs[s as usize]);
            queries_in_phase += 1;
            if o.phase_reset {
                assert!(
                    queries_in_phase as f64 >= alpha,
                    "phase ended after only {queries_in_phase} queries"
                );
                queries_in_phase = 0;
            }
        }
    }
}
