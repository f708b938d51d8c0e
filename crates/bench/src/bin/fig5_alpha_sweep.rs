//! **Fig. 5** — Impact of the relative reorganization cost α on the
//! overall performance (TPC-H, Qd-tree, logical costs).
//!
//! The paper reports: total gains from dynamic reorganization shrink as
//! reorganization gets more expensive; the number of layout changes falls
//! (35 at α=10 → 18 at α=300) with noticeable drops around α ≈ 80 and 170,
//! which also makes the total cost non-monotone in α.

use oreo_bench::common::{banner, check_args, default_config, make_stream, Scale};
use oreo_sim::{fmt_f, run_policy, AsciiTable, PolicySetup, Technique};
use oreo_workload::tpch_bundle;

fn main() {
    check_args(&["--quick"]);
    let scale = Scale::from_args();
    banner(
        "Fig. 5: impact of reorganization cost α (TPC-H, Qd-tree)",
        scale,
    );

    let bundle = tpch_bundle(scale.rows(), 1);
    let stream = make_stream(&bundle, scale, 2);

    let alphas = [10.0, 50.0, 80.0, 100.0, 150.0, 170.0, 200.0, 250.0, 300.0];
    let mut table = AsciiTable::new([
        "alpha",
        "query cost",
        "reorg cost",
        "total cost",
        "# switches",
    ]);
    for &alpha in &alphas {
        let config = default_config(3).with_alpha(alpha);
        let setup = PolicySetup::new(bundle.clone(), Technique::QdTree, config);
        let mut oreo = setup.oreo();
        let r = run_policy(&mut oreo, &stream.queries, 0);
        table.row([
            fmt_f(alpha, 0),
            fmt_f(r.ledger.query_cost, 0),
            fmt_f(r.ledger.reorg_cost, 0),
            fmt_f(r.total(), 0),
            r.switches.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("(paper: switches decrease as α grows — 35 at α=10 down to 18 at α=300 —");
    println!(" and the total does not increase monotonically because the algorithm");
    println!(" adapts its strategy at certain thresholds.)");
}
