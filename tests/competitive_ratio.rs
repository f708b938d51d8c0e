//! Empirical verification of Theorem IV.1: D-UMTS's expected total cost is
//! within `2·H(|S_max|)` of the true offline optimum (computed by dynamic
//! programming) plus an O(α) additive term, on oblivious inputs — including
//! inputs that add and remove states mid-stream.

use oreo::core::{Dumts, DumtsConfig, TransitionPolicy};
use oreo::sim::offline_optimum;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn harmonic(n: usize) -> f64 {
    (1..=n).map(|i| 1.0 / i as f64).sum()
}

/// Drift-structured oblivious cost stream: one state is cheap per block.
fn block_stream(n_states: usize, queries: usize, block: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cheap = 0usize;
    (0..queries)
        .map(|t| {
            if t % block == 0 {
                cheap = rng.random_range(0..n_states);
            }
            (0..n_states)
                .map(|s| {
                    if s == cheap {
                        0.1 * rng.random::<f64>()
                    } else {
                        0.4 + 0.6 * rng.random::<f64>()
                    }
                })
                .collect()
        })
        .collect()
}

fn run_dumts(costs: &[Vec<f64>], alpha: f64, seed: u64) -> f64 {
    let states: Vec<u64> = (0..costs[0].len() as u64).collect();
    let mut d = Dumts::new(
        &states,
        DumtsConfig {
            alpha,
            transition: TransitionPolicy::Uniform,
            seed,
        },
    );
    let mut total = 0.0;
    for row in costs {
        let o = d.observe_query(|s| row[s as usize]);
        total += row[d.current() as usize];
        if o.switched_to.is_some() {
            total += alpha;
        }
    }
    total
}

#[test]
fn fixed_state_space_respects_theorem_bound() {
    let n = 8;
    let alpha = 10.0;
    let costs = block_stream(n, 3_000, 250, 99);
    let opt = offline_optimum(&costs, alpha);
    assert!(opt.total_cost > 0.0);

    let trials = 12;
    let mean: f64 = (0..trials)
        .map(|s| run_dumts(&costs, alpha, s))
        .sum::<f64>()
        / trials as f64;

    let bound = 2.0 * harmonic(n) * opt.total_cost + 4.0 * alpha;
    assert!(
        mean <= bound,
        "mean {mean:.1} exceeds 2H({n})·OPT + 4α = {bound:.1} (OPT {:.1})",
        opt.total_cost
    );
    assert!(mean >= opt.total_cost - 1e-9, "online beat offline?!");
}

#[test]
fn dynamic_state_space_respects_theorem_bound() {
    // States are added and removed mid-stream; the benchmark is the DP
    // optimum over the FULL state set (an upper bound on the D-UMTS
    // adversary's power, hence a conservative test).
    let n_max = 6;
    let alpha = 8.0;
    let queries = 2_400;
    let costs = block_stream(n_max, queries, 200, 7);
    let opt = offline_optimum(&costs, alpha);

    let trials = 12;
    let mut total = 0.0;
    for seed in 0..trials {
        let mut d = Dumts::new(
            &[0, 1],
            DumtsConfig {
                alpha,
                transition: TransitionPolicy::Uniform,
                seed,
            },
        );
        let mut live = 2u64;
        let mut cost = 0.0;
        for (t, row) in costs.iter().enumerate() {
            // grow the space to n_max over the first quarter, then churn
            if t % 100 == 0 && (live as usize) < n_max {
                d.add_state(live);
                live += 1;
            }
            let o = d.observe_query(|s| row[s as usize % n_max]);
            cost += row[d.current() as usize % n_max];
            if o.switched_to.is_some() {
                cost += alpha;
            }
        }
        assert!(d.max_states_seen() <= n_max);
        total += cost;
    }
    let mean = total / trials as f64;
    let bound = 2.0 * harmonic(n_max) * opt.total_cost + 4.0 * alpha;
    assert!(
        mean <= bound,
        "dynamic mean {mean:.1} exceeds 2H({n_max})·OPT + 4α = {bound:.1}"
    );
}

#[test]
fn biased_transitions_do_not_break_the_bound() {
    // Theorem IV.2: a predictor can only improve the expected ratio when it
    // favors good states; verify the γ-biased variant stays within the
    // uniform bound on the same stream. The predictor is the kind OREO
    // runs: every `window` queries, each state's weight becomes its skipped
    // fraction (1 − mean cost) over the last `window` rows, as OREO scores
    // states on its admission sample at each generation boundary.
    let n = 8;
    let alpha = 10.0;
    let window = 50;
    let costs = block_stream(n, 3_000, 250, 42);
    let opt = offline_optimum(&costs, alpha);

    let trials = 12;
    let mut total = 0.0;
    for seed in 0..trials {
        let states: Vec<u64> = (0..n as u64).collect();
        let mut d = Dumts::new(
            &states,
            DumtsConfig {
                alpha,
                transition: TransitionPolicy::SkippedWeighted { gamma: 1.0 },
                seed,
            },
        );
        let mut cost = 0.0;
        for (t, row) in costs.iter().enumerate() {
            if t > 0 && t % window == 0 {
                let recent = &costs[t - window..t];
                for s in 0..n {
                    let mean = recent.iter().map(|r| r[s]).sum::<f64>() / window as f64;
                    d.set_weight(s as u64, 1.0 - mean);
                }
            }
            let o = d.observe_query(|s| row[s as usize]);
            cost += row[d.current() as usize];
            if o.switched_to.is_some() {
                cost += alpha;
            }
        }
        total += cost;
    }
    let mean = total / trials as f64;
    let bound = 2.0 * harmonic(n) * opt.total_cost + 4.0 * alpha;
    assert!(mean <= bound, "biased mean {mean:.1} > bound {bound:.1}");
}

#[test]
fn dp_optimum_agrees_with_brute_force_on_tiny_instances() {
    // exhaustive check over all state schedules for a 2-state, 6-query case
    let mut rng = StdRng::seed_from_u64(13);
    for _ in 0..20 {
        let costs: Vec<Vec<f64>> = (0..6)
            .map(|_| (0..2).map(|_| rng.random::<f64>()).collect())
            .collect();
        let alpha = 0.7;
        let opt = offline_optimum(&costs, alpha);
        // brute force: 2^6 schedules
        let mut best = f64::INFINITY;
        for mask in 0u32..64 {
            let mut cost = 0.0;
            let mut prev: Option<usize> = None;
            for (t, row) in costs.iter().enumerate() {
                let s = ((mask >> t) & 1) as usize;
                if let Some(p) = prev {
                    if p != s {
                        cost += alpha;
                    }
                }
                cost += row[s];
                prev = Some(s);
            }
            best = best.min(cost);
        }
        assert!(
            (opt.total_cost - best).abs() < 1e-9,
            "DP {} vs brute force {best}",
            opt.total_cost
        );
    }
}
