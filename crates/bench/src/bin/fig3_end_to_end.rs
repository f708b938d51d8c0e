//! **Fig. 3** — Comparison of total query and reorganization time enabled
//! by OREO with baselines, for {Static, OREO, Greedy, Regret} ×
//! {Qd-tree, Z-Order} × {TPC-H, TPC-DS, Telemetry}.
//!
//! Like the paper's end-to-end experiment, logical costs drive every
//! decision (α = 80) and the reported numbers are *times*: we measure the
//! substrate's full-scan and reorganization wall-times once per dataset
//! (Table I's methodology) and convert — query time = fraction-read ×
//! full-scan time, reorganization time = measured physical rewrite time.
//!
//! The paper's headline: dynamic reorganization with OREO beats a single
//! optimized static layout by up to 32% in combined time.

use oreo_bench::common::{
    banner, check_args, default_config, fig3_grid, json_path_arg, make_stream, run_fig3_policies,
    write_json_report, Json, Scale,
};
use oreo_sim::{default_spec, fmt_f, fmt_pct_change, AsciiTable, PolicySetup};
use oreo_storage::{TableSnapshot, TieredStore};
use std::time::Instant;

/// Measure (full-scan seconds, reorganization seconds) on a physical copy
/// of the bundle's table: a `TieredStore` generation under the default
/// layout, read back by `TieredStore::full_scan`, then rewritten into two
/// halves the way the engine rewrites (regroup + generation publish).
fn measure_substrate(bundle: &oreo_workload::DatasetBundle, k: usize, seed: u64) -> (f64, f64) {
    let root = std::env::temp_dir().join(format!("oreo-fig3-{}-{}", std::process::id(), seed));
    let table = &bundle.table;
    let assignment = default_spec(bundle, k, seed).assign(table);
    let mut initial = TableSnapshot::build(table, &assignment, k, 0, "default");
    let (store, _) = TieredStore::create(&root, &mut initial).expect("create store");

    let t0 = Instant::now();
    store.full_scan().expect("scan");
    let scan = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let mid = table.num_rows() as u32 / 2;
    let halves: Vec<u32> = (0..table.num_rows() as u32)
        .map(|row| u32::from(row >= mid))
        .collect();
    let mut next = TableSnapshot::build(table, &halves, 2, 1, "halves");
    store.publish(&mut next).expect("reorg");
    let reorg = t0.elapsed().as_secs_f64();

    drop((initial, next, store));
    let _ = std::fs::remove_dir_all(&root);
    (scan, reorg)
}

fn main() {
    check_args(&["--quick", "--json <path>"]);
    let scale = Scale::from_args();
    let json_path = json_path_arg();
    banner("Fig. 3: end-to-end query + reorganization time", scale);

    let seed = 3;
    let mut json_rows: Vec<Json> = Vec::new();
    let mut table = AsciiTable::new([
        "dataset",
        "technique",
        "method",
        "query(s)",
        "reorg(s)",
        "total(s)",
        "vs Static",
        "switches",
    ]);

    for (bundle, technique) in fig3_grid(scale, 1) {
        let stream = make_stream(&bundle, scale, 2);
        let config = default_config(seed);
        let (scan_s, reorg_s) = measure_substrate(&bundle, config.partitions, seed);
        let setup = PolicySetup::new(bundle.clone(), technique, config);
        let results = run_fig3_policies(&setup, &stream);
        let static_total =
            results[0].ledger.query_cost * scan_s + results[0].switches as f64 * reorg_s;
        for r in &results {
            let query_s = r.ledger.query_cost * scan_s;
            let reorg_time = r.switches as f64 * reorg_s;
            let total = query_s + reorg_time;
            table.row([
                bundle.name.to_string(),
                technique.label().to_string(),
                r.name.clone(),
                fmt_f(query_s, 1),
                fmt_f(reorg_time, 1),
                fmt_f(total, 1),
                fmt_pct_change(static_total, total),
                r.switches.to_string(),
            ]);
            json_rows.push(Json::obj([
                ("dataset", Json::from(bundle.name)),
                ("technique", Json::from(technique.label())),
                ("method", Json::from(r.name.clone())),
                ("query_s", Json::from(query_s)),
                ("reorg_s", Json::from(reorg_time)),
                ("total_s", Json::from(total)),
                ("query_cost", Json::from(r.ledger.query_cost)),
                ("reorg_cost", Json::from(r.ledger.reorg_cost)),
                ("switches", Json::from(r.switches)),
                ("scan_s", Json::from(scan_s)),
                ("physical_reorg_s", Json::from(reorg_s)),
            ]));
        }
        println!(
            "[{} / {}] substrate: full scan = {:.2}s, physical reorg = {:.2}s (α_measured ≈ {:.0})",
            bundle.name,
            technique.label(),
            scan_s,
            reorg_s,
            reorg_s / scan_s
        );
    }

    println!();
    println!("{}", table.render());
    println!("(paper: OREO improves on Static by up to 32% in combined time; Greedy");
    println!(" reorganizes most aggressively, Regret most conservatively.)");

    if let Some(path) = json_path {
        let doc = Json::obj([
            ("benchmark", Json::from("fig3_end_to_end")),
            ("scale", Json::from(scale.label())),
            ("total_queries", Json::from(scale.total_queries())),
            ("rows", Json::from(scale.rows())),
            ("cells", Json::Arr(json_rows)),
        ]);
        write_json_report(&path, &doc);
    }
}
