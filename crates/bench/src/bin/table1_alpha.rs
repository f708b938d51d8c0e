//! **Table I** — Relative cost of reorganization over query (α), measured
//! physically on the storage substrate.
//!
//! The paper measures, for Parquet files of 16 MB – 4 GB on local disk, the
//! time of a full-scan query versus a reorganization (read partitions,
//! update the BID column, repartition by BID, compress + write), finding
//! α ∈ [60×, 100×] — the basis of the α = 80 default.
//!
//! We do the same on the store the serving engine uses: tables sized to hit
//! target on-disk footprints, persisted as a `TieredStore` generation,
//! scanned in full by `TieredStore::full_scan` (no buffer pool; every
//! partition read, validated and decoded), and reorganized by the engine's
//! own rewrite — re-route + regroup in memory, then a generation publish
//! (encode + write + fsync + atomic rename into `gen-N/`). That makes this
//! offline α and the engine's in-vivo empirical α
//! (`serve_throughput --tiered`) the same experiment; the table is
//! resident for the engine, so the rewrite has no initial disk read.
//! Absolute times differ from the paper's Spark setup; the point is the
//! *ratio* and its rough stability across file sizes. Default sweeps
//! 16–256 MB; pass `--max-mb 1024` (or more) to extend.
//!
//! Flags: `--max-mb <n>`, `--json <path>`. Every row asserts α finite and
//! above 1 and a measured write time.

use oreo_bench::common::{arg_value, check_args, json_path_arg, write_json_report, Json};
use oreo_sim::{fmt_f, AsciiTable};
use oreo_storage::{Table, TableSnapshot, TieredStore};
use oreo_workload::tpch;
use rand::SeedableRng;
use std::time::Instant;

fn parse_max_mb() -> u64 {
    arg_value("--max-mb")
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

/// Estimate encoded bytes per row from a small probe table.
fn bytes_per_row() -> f64 {
    let probe = tpch::tpch_table(20_000, 7);
    let bytes = oreo_storage::format::encode_partition(&probe).len();
    bytes as f64 / probe.num_rows() as f64
}

/// The Z-order target layout of the rewrite (shipdate × quantity × price —
/// what a real `OPTIMIZE ZORDER BY` does).
fn zorder_spec(table: &Table, k: usize) -> oreo_layout::ZOrderLayout {
    let s = table.schema();
    let zcols = [
        s.col("l_shipdate").expect("shipdate"),
        s.col("l_quantity").expect("qty"),
        s.col("l_extendedprice").expect("price"),
    ];
    oreo_layout::ZOrderLayout::from_sample(
        &table.sample(&mut rand::rngs::StdRng::seed_from_u64(5), 10_000),
        &zcols,
        8,
        k,
    )
}

/// The initial layout the rewrite starts *from*: arrival order (row-id
/// ranges), `k` equal partitions.
fn arrival_assignment(table: &Table, k: usize) -> Vec<u32> {
    let n = table.num_rows() as u32;
    let per = n.div_ceil(k as u32).max(1);
    (0..n).map(|r| (r / per).min(k as u32 - 1)).collect()
}

/// One measurement row: scan and reorganization seconds plus byte volumes.
struct Measurement {
    scan: f64,
    reorg: f64,
    /// Disk-write portion of the rewrite (part of `reorg`).
    write: f64,
    bytes: u64,
}

/// Table I on the serving path: the rewrite is a `TieredStore` generation
/// publish (the engine's aside-rewrite code path), the scan reads the
/// committed generation back from disk.
fn measure(table: &Table, k: usize, runs: usize) -> Measurement {
    let assignment = arrival_assignment(table, k);
    let root = std::env::temp_dir().join(format!(
        "oreo-table1-{}-{}",
        std::process::id(),
        table.num_rows()
    ));
    let mut initial = TableSnapshot::build(table, &assignment, k, 0, "arrival");
    let (store, _receipt) = TieredStore::create(&root, &mut initial).expect("create");
    // Partition-blob bytes only (`total_bytes` is the sum of the committed
    // blobs' sizes after create) — the segment's row ids and index and the
    // manifest are rewrite overhead, not table data.
    let bytes = initial.total_bytes();

    // full-scan timing against the committed generation's segment
    let mut scan = 0.0;
    for _ in 0..runs {
        let t0 = Instant::now();
        let read = store.full_scan().expect("scan");
        assert_eq!(read.bytes, bytes, "the scan read every blob");
        scan += t0.elapsed().as_secs_f64();
    }
    scan /= runs as f64;

    // the engine's rewrite: re-route + regroup (materialize) + publish
    // (encode + write + fsync + atomic rename)
    let zorder = zorder_spec(table, k);
    let t0 = Instant::now();
    let mut assignment2 = Vec::with_capacity(table.num_rows());
    for row in 0..table.num_rows() {
        assignment2.push(oreo_layout::LayoutSpec::route(&zorder, table, row));
    }
    let mut next = TableSnapshot::build(table, &assignment2, k, 1, "zorder");
    let receipt = store.publish(&mut next).expect("publish");
    let reorg = t0.elapsed().as_secs_f64();

    drop(initial);
    drop(next);
    drop(store);
    let _ = std::fs::remove_dir_all(&root);
    Measurement {
        scan,
        reorg,
        write: receipt.wall.as_secs_f64(),
        bytes,
    }
}

fn main() {
    check_args(&["--max-mb <n>", "--json <path>"]);
    let max_mb = parse_max_mb();
    let json_path = json_path_arg();
    println!("== Table I: measured relative reorganization cost α ==");
    let bpr = bytes_per_row();
    println!(
        "substrate: TPC-H-shaped table, ~{bpr:.0} encoded bytes/row, rewrite path: \
         TieredStore generation publish (the serving engine's)\n"
    );

    let sizes_mb: Vec<u64> = [16u64, 64, 256, 1024, 4096]
        .into_iter()
        .filter(|&s| s <= max_mb)
        .collect();

    let mut table = AsciiTable::new([
        "target size",
        "actual size",
        "rows",
        "query (s)",
        "reorg (s)",
        "write (s)",
        "alpha",
    ]);
    let mut json_rows = Vec::new();
    for &mb in &sizes_mb {
        let rows = ((mb * 1024 * 1024) as f64 / bpr) as usize;
        let data = tpch::tpch_table(rows, 11);
        let k = 8;
        let runs = if mb <= 64 { 3 } else { 1 };
        let m = measure(&data, k, runs);
        let alpha = m.reorg / m.scan;
        // A rewrite cheaper than a scan, or one that wrote nothing
        // measurable, means the experiment measured something else.
        assert!(
            alpha.is_finite() && alpha > 1.0 && m.write > 0.0,
            "{mb} MB: α = {alpha}, write {} s",
            m.write
        );
        table.row([
            format!("{mb} MB"),
            format!("{:.0} MB", m.bytes as f64 / 1024.0 / 1024.0),
            rows.to_string(),
            fmt_f(m.scan, 2),
            fmt_f(m.reorg, 2),
            fmt_f(m.write, 2),
            fmt_f(alpha, 1),
        ]);
        json_rows.push(Json::obj([
            ("target_mb", Json::from(mb)),
            ("actual_bytes", Json::from(m.bytes)),
            ("rows", Json::from(rows)),
            ("scan_s", Json::from(m.scan)),
            ("reorg_s", Json::from(m.reorg)),
            ("write_s", Json::from(m.write)),
            ("alpha", Json::from(alpha)),
        ]));
    }
    println!("{}", table.render());
    println!("(paper: α ranged from 60× to 100× across 16 MB – 4 GB files; our");
    println!(" substrate trades Spark's JVM overheads for tighter I/O, so absolute");
    println!(" times differ but the reorganization-to-scan ratio is the quantity");
    println!(" that feeds the cost model.)");
    println!("(the rewrite is the engine's generation publish — the table is");
    println!(" memory-resident for the serving path, so no initial disk read;");
    println!(" compare with serve_throughput --tiered, which measures the same");
    println!(" publish under live queries.)");

    if let Some(path) = json_path {
        let doc = Json::obj([
            ("benchmark", Json::from("table1_alpha")),
            ("max_mb", Json::from(max_mb)),
            ("bytes_per_row", Json::from(bpr)),
            ("rows", Json::Arr(json_rows)),
        ]);
        write_json_report(&path, &doc);
    }
}
