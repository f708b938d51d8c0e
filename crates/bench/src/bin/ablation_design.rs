//! **Extension ablation** (not a paper figure): quantifies the design
//! choices DESIGN.md calls out, by toggling each off against the default
//! configuration on the TPC-H stream:
//!
//! * `stay_on_reset` — §IV-A: keep the current state at phase starts
//!   instead of the classic random re-draw;
//! * `mid_phase_admission` — §IV-C: median-initialized counters admit new
//!   layouts into the current phase instead of deferring a full phase;
//! * `sample_predictor` — §IV-C: jump draws biased by skipped fractions on
//!   the manager's R-TBS sample instead of last-phase weights only;
//! * `multi-copy cache` — Appendix D direction: keeping the last m
//!   materialized layouts turns cache-hit switches into cheap swaps.

use oreo_bench::common::{banner, check_args, default_config, make_stream, Scale};
use oreo_bench::multi_copy::MultiCopyCache;
use oreo_sim::{fmt_f, fmt_pct_change, run_policy, AsciiTable, PolicySetup, Technique};
use oreo_workload::tpch_bundle;

fn main() {
    check_args(&["--quick"]);
    let scale = Scale::from_args();
    banner("Design-choice ablations (TPC-H, Qd-tree)", scale);

    let bundle = tpch_bundle(scale.rows(), 1);
    let stream = make_stream(&bundle, scale, 2);

    let run = |label: &str, mutate: &dyn Fn(&mut oreo_core::OreoConfig)| {
        let mut config = default_config(3);
        mutate(&mut config);
        let setup = PolicySetup::new(bundle.clone(), Technique::QdTree, config);
        let mut oreo = setup.oreo();
        let r = run_policy(&mut oreo, &stream.queries, 0);
        (label.to_string(), r)
    };

    let variants: Vec<(String, oreo_sim::RunResult)> = vec![
        run("default *", &|_| {}),
        run("no stay_on_reset", &|c| c.stay_on_reset = false),
        run("no mid_phase_admission", &|c| c.mid_phase_admission = false),
        run("no sample_predictor", &|c| c.sample_predictor = false),
        run("classic Alg.4 (all off)", &|c| {
            c.stay_on_reset = false;
            c.mid_phase_admission = false;
            c.sample_predictor = false;
        }),
    ];

    let base = variants[0].1.total();
    let mut table = AsciiTable::new([
        "variant",
        "query cost",
        "reorg cost",
        "total",
        "vs default",
        "switches",
    ]);
    for (label, r) in &variants {
        table.row([
            label.clone(),
            fmt_f(r.ledger.query_cost, 0),
            fmt_f(r.ledger.reorg_cost, 0),
            fmt_f(r.total(), 0),
            fmt_pct_change(base, r.total()),
            r.switches.to_string(),
        ]);
    }
    println!("{}", table.render());

    // Multi-copy cache: replay the default run's switch sequence through
    // LRU caches of increasing capacity (β = α/40 swap cost).
    println!("--- multi-copy layout cache (Appendix D direction) ---");
    let mut config = default_config(3);
    config.max_states = None;
    let setup = PolicySetup::new(bundle.clone(), Technique::QdTree, config.clone());
    let mut oreo = setup.oreo();
    let mut switch_targets = Vec::new();
    for q in &stream.queries {
        let step = oreo.framework_observe(q);
        if let Some(t) = step {
            switch_targets.push(t);
        }
    }
    let alpha = config.alpha;
    let beta = alpha / 40.0;
    let mut table = AsciiTable::new(["copies m", "reorg cost", "hits", "rebuilds", "vs m=1"]);
    let single = switch_targets.len() as f64 * alpha;
    for m in [1usize, 2, 3, 4] {
        let mut cache = MultiCopyCache::new(m, alpha, beta, 0);
        let cost: f64 = switch_targets.iter().map(|&t| cache.charge_switch(t)).sum();
        table.row([
            m.to_string(),
            fmt_f(cost, 0),
            cache.hits().to_string(),
            cache.misses().to_string(),
            fmt_pct_change(single, cost),
        ]);
    }
    println!("{}", table.render());
}

/// Tiny adapter: expose switch decisions from the framework run.
trait FrameworkObserve {
    fn framework_observe(&mut self, q: &oreo_query::Query) -> Option<u64>;
}

impl FrameworkObserve for oreo_sim::OreoPolicy {
    fn framework_observe(&mut self, q: &oreo_query::Query) -> Option<u64> {
        use oreo_sim::ReorgPolicy;
        let before = self.switches();
        let _ = self.observe(q);
        if self.switches() > before {
            Some(self.framework().logical_layout())
        } else {
            None
        }
    }
}
