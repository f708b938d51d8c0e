//! **Fig. 6** — Impact of the distance threshold ε for admitting new
//! layouts (TPC-H, Qd-tree, logical costs).
//!
//! The paper reports: as ε grows the dynamic state space shrinks and query
//! cost rises slightly, but overall performance is not very sensitive to ε
//! — defaults are easy to pick.

use oreo_bench::common::{banner, check_args, default_config, make_stream, Scale};
use oreo_sim::{fmt_f, run_policy, AsciiTable, PolicySetup, Technique};
use oreo_workload::tpch_bundle;

fn main() {
    check_args(&["--quick"]);
    let scale = Scale::from_args();
    banner(
        "Fig. 6: impact of admission threshold ε (TPC-H, Qd-tree)",
        scale,
    );

    let bundle = tpch_bundle(scale.rows(), 1);
    let stream = make_stream(&bundle, scale, 2);

    let epsilons = [0.0, 0.02, 0.04, 0.08, 0.16, 0.32];
    let mut table = AsciiTable::new([
        "epsilon",
        "peak |S|",
        "admitted",
        "rejected",
        "query cost",
        "reorg cost",
        "total cost",
        "# switches",
    ]);
    for &epsilon in &epsilons {
        let config = default_config(3).with_epsilon(epsilon);
        let setup = PolicySetup::new(bundle.clone(), Technique::QdTree, config);
        let mut oreo = setup.oreo();
        let r = run_policy(&mut oreo, &stream.queries, 0);
        let stats = oreo.framework().manager_stats();
        table.row([
            fmt_f(epsilon, 2),
            oreo.framework().max_states_seen().to_string(),
            stats.admitted.to_string(),
            stats.rejected.to_string(),
            fmt_f(r.ledger.query_cost, 0),
            fmt_f(r.ledger.reorg_cost, 0),
            fmt_f(r.total(), 0),
            r.switches.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("(paper: larger ε shrinks the state space with a slight query-cost");
    println!(" increase; the framework is not very sensitive to the choice of ε.)");
}
