//! **Table II** — Ablations in logical simulation costs (×10³), all three
//! datasets, Qd-tree layouts:
//!
//! * transition distribution γ ∈ {0, 1, 2, 3} — the paper finds biased
//!   transitions (γ > 0) cut reorganization cost by 17–28% at equal query
//!   cost;
//! * candidate-generation source: sliding window (SW) vs reservoir sample
//!   (RS) vs both — SW wins (RS/-RS+SW raise query and/or reorg costs);
//! * reorganization delay Δ ∈ {0, 40, 80} queries — delay leaves reorg cost
//!   unchanged but raises query cost ~7–12% at Δ = α.
//!
//! Rows in **bold** in the paper are the defaults (γ=1, SW, Δ=0); here the
//! default row is marked with `*`.

use oreo_bench::common::{banner, check_args, default_config, make_stream, Scale};
use oreo_core::CandidateSource;
use oreo_sim::{fmt_f, fmt_pct_change, run_policy, AsciiTable, PolicySetup, Schedule, Technique};
use oreo_workload::all_bundles;

struct Cell {
    query: f64,
    reorg: f64,
}

fn run_variant(
    bundle: &oreo_workload::DatasetBundle,
    stream: &oreo_workload::QueryStream,
    delay: u64,
    mutate: impl FnOnce(&mut oreo_core::OreoConfig),
) -> Cell {
    let mut config = default_config(3);
    mutate(&mut config);
    let setup = PolicySetup::new(bundle.clone(), Technique::QdTree, config);
    let mut oreo = setup.scheduled(Schedule::Configured(delay));
    let r = run_policy(&mut oreo, &stream.queries, 0);
    Cell {
        query: r.ledger.query_cost,
        reorg: r.ledger.reorg_cost,
    }
}

fn main() {
    check_args(&["--quick"]);
    let scale = Scale::from_args();
    banner(
        "Table II: γ / SW-vs-RS / reorganization-delay ablations",
        scale,
    );

    let bundles = all_bundles(scale.rows(), 1);
    let streams: Vec<_> = bundles.iter().map(|b| make_stream(b, scale, 2)).collect();
    let names: Vec<&str> = bundles.iter().map(|b| b.name).collect();

    let k3 = |v: f64| fmt_f(v / 1000.0, 2);

    // --------------------------------------------------------------- γ --
    let mut rows: Vec<(String, Vec<Cell>)> = Vec::new();
    for gamma in [1.0, 0.0, 2.0, 3.0] {
        let cells: Vec<Cell> = bundles
            .iter()
            .zip(&streams)
            .map(|(b, s)| run_variant(b, s, 0, |c| c.gamma = gamma))
            .collect();
        let tag = if gamma == 1.0 { "*" } else { "" };
        rows.push((format!("γ={gamma:.0} {tag}").trim().to_string(), cells));
    }
    print_block("Transition distribution (γ)", &names, &rows, k3);

    // ------------------------------------------------------- SW vs RS --
    let mut rows: Vec<(String, Vec<Cell>)> = Vec::new();
    for (label, source) in [
        ("SW *", CandidateSource::SlidingWindow),
        ("RS", CandidateSource::Reservoir),
        ("SW+RS", CandidateSource::Both),
    ] {
        let cells: Vec<Cell> = bundles
            .iter()
            .zip(&streams)
            .map(|(b, s)| run_variant(b, s, 0, |c| c.candidate_source = source))
            .collect();
        rows.push((label.to_string(), cells));
    }
    print_block(
        "Candidate source (sliding window vs reservoir)",
        &names,
        &rows,
        k3,
    );

    // ----------------------------------------------------------- Δ --
    let mut rows: Vec<(String, Vec<Cell>)> = Vec::new();
    for delta in [0u64, 40, 80] {
        let cells: Vec<Cell> = bundles
            .iter()
            .zip(&streams)
            .map(|(b, s)| run_variant(b, s, delta, |_| {}))
            .collect();
        let tag = if delta == 0 { "*" } else { "" };
        rows.push((format!("Δ={delta} {tag}").trim().to_string(), cells));
    }
    print_block(
        "Reorganization delay (Δ queries on the outdated layout)",
        &names,
        &rows,
        k3,
    );

    println!("(paper: γ>0 cuts reorg cost 17–28% at similar query cost; RS raises");
    println!(" query costs up to 22% and reorg costs up to 47%; Δ=α raises query");
    println!(" costs 7–12% while reorg cost is unchanged.)");
}

fn print_block(
    title: &str,
    names: &[&str],
    rows: &[(String, Vec<Cell>)],
    k3: impl Fn(f64) -> String,
) {
    println!("--- {title} ---");
    let mut headers = vec!["variant".to_string()];
    for n in names {
        headers.push(format!("{n} query"));
    }
    for n in names {
        headers.push(format!("{n} reorg"));
    }
    let mut table = AsciiTable::new(headers);
    let base = &rows[0].1;
    for (label, cells) in rows {
        let mut row = vec![label.clone()];
        for (i, c) in cells.iter().enumerate() {
            let delta = fmt_pct_change(base[i].query, c.query);
            row.push(format!("{} ({delta})", k3(c.query)));
        }
        for (i, c) in cells.iter().enumerate() {
            let delta = fmt_pct_change(base[i].reorg, c.reorg);
            row.push(format!("{} ({delta})", k3(c.reorg)));
        }
        table.row(row);
    }
    println!("{}", table.render());
}
