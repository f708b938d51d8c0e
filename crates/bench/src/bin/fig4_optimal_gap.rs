//! **Fig. 4** — Gap to optimal algorithms: cumulative total cost over the
//! query stream for Offline Optimal, OREO, MTS Optimal, and Static on
//! TPC-H and TPC-DS (logical costs; Qd-tree layouts).
//!
//! The paper reports: OREO's query costs within 14–17% of MTS Optimal
//! (which gets a precomputed per-template state space), and 74%/44% larger
//! than Offline Optimal's; Offline Optimal makes one layout change per
//! template switch, OREO 22–29, MTS Optimal 27–30.

use oreo_bench::common::{banner, check_args, default_config, make_stream, Scale};
use oreo_sim::{fmt_f, fmt_pct_change, run_policy, AsciiTable, PolicySetup, Technique};
use oreo_workload::{tpcds_bundle, tpch_bundle};

fn main() {
    check_args(&["--quick"]);
    let scale = Scale::from_args();
    banner("Fig. 4: gap to optimal algorithms (logical costs)", scale);

    for bundle in [tpch_bundle(scale.rows(), 1), tpcds_bundle(scale.rows(), 1)] {
        let stream = make_stream(&bundle, scale, 2);
        let config = default_config(3);
        let setup = PolicySetup::new(bundle.clone(), Technique::QdTree, config);
        let layouts = setup.template_layouts(&stream);

        let sample_every = (scale.total_queries() / 10).max(1);
        let mut static_p = setup.static_policy(&stream.queries);
        let mut oreo = setup.oreo();
        let mut mts = setup.mts_optimal(&layouts);
        let mut offline = setup.offline_optimal(&layouts, &stream.segments);

        let r_static = run_policy(&mut static_p, &stream.queries, sample_every);
        let r_oreo = run_policy(&mut oreo, &stream.queries, sample_every);
        let r_mts = run_policy(&mut mts, &stream.queries, sample_every);
        let r_off = run_policy(&mut offline, &stream.queries, sample_every);

        println!("--- {} ---", bundle.name);
        println!(
            "template switch points: {:?}",
            stream.switch_points().iter().take(24).collect::<Vec<_>>()
        );

        // cumulative-cost series (the figure's four lines)
        let mut series = AsciiTable::new([
            "queries",
            "Offline Optimal",
            "OREO",
            "MTS Optimal",
            "Static",
        ]);
        for i in 0..r_oreo.trajectory.len() {
            series.row([
                r_oreo.trajectory[i].0.to_string(),
                fmt_f(r_off.trajectory[i].1, 0),
                fmt_f(r_oreo.trajectory[i].1, 0),
                fmt_f(r_mts.trajectory[i].1, 0),
                fmt_f(r_static.trajectory[i].1, 0),
            ]);
        }
        println!("{}", series.render());

        let mut summary = AsciiTable::new([
            "method",
            "query cost",
            "reorg cost",
            "total",
            "layout changes",
            "query vs MTS-Opt",
            "query vs Offline",
        ]);
        for r in [&r_off, &r_oreo, &r_mts, &r_static] {
            summary.row([
                r.name.clone(),
                fmt_f(r.ledger.query_cost, 0),
                fmt_f(r.ledger.reorg_cost, 0),
                fmt_f(r.total(), 0),
                r.switches.to_string(),
                fmt_pct_change(r_mts.ledger.query_cost, r.ledger.query_cost),
                fmt_pct_change(r_off.ledger.query_cost, r.ledger.query_cost),
            ]);
        }
        println!("{}", summary.render());
    }

    println!("(paper: OREO query costs within 14%/17% of MTS Optimal and 74%/44%");
    println!(" above Offline Optimal on TPC-H/TPC-DS; both far below the worst-case");
    println!(" O(log k) bound.)");
}
