//! Vectorized scan-kernel microbenchmark: chunked selection-vector
//! evaluation ([`oreo_storage::kernel`]) vs a row-at-a-time interpreter
//! kept here as the baseline ([`rowwise_scan`]), on the in-memory and
//! buffer-pooled scan paths.
//!
//! Variants (all over the same TPC-H lineitem table, round-robin layout):
//!
//! With the Q6-style multi-atom predicate, whose result is tiny, so the
//! time is predicate evaluation:
//!
//! * `memory_rowwise` / `memory_vectorized` — memory-resident snapshot.
//! * `pooled_warm_rowwise` / `pooled_warm_vectorized` — disk-backed
//!   generation through a buffer pool large enough to hold the predicate's
//!   column payloads (every page a pool hit after the warmup scan).
//! * `pooled_cold_vectorized` — a fresh (empty) pool per scan: decode and
//!   page-fetch cost dominates, bounding what kernel speedups can buy.
//!
//! With one wide `l_quantity` range keeping ~40 % of the rows — the
//! matches ÷ rows-read ratio of the benchmark's dashboard streams — so the
//! time is the output stage (late materialization and assembling the
//! interleaved per-partition runs into one ascending result):
//!
//! * `memory_rowwise_wide` / `memory_vectorized_wide` /
//!   `pooled_warm_vectorized_wide`.
//!
//! The same wide range over a *range layout on `l_quantity`*, the layout
//! that serves it: the partitions that survive pruning lie inside the range
//! but for the one it cuts, so the scan answers them from their metadata
//! and the time is what is left — page reads and checksums (pooled), row-id
//! copies and run assembly:
//!
//! * `memory_vectorized_covered` / `pooled_warm_vectorized_covered`.
//!
//! On the round-robin layout no partition is ever covered, so the variants
//! above are this pair's bypass.
//!
//! `--json <path>` writes a machine-readable report (rows/sec per variant
//! plus vectorized-over-interpreted speedups) and then asserts the gates:
//! all ten variants ran, the memory speedup is ≥ 2× and the pool-warm
//! speedup ≥ 1.5×.

use criterion::{criterion_group, criterion_main, Criterion};
use oreo_bench::common::{json_path_arg, write_json_report, Json};
use oreo_query::{Predicate, QueryBuilder};
use oreo_storage::{
    atom_matches_ref, BufferPool, BufferPoolConfig, Column, TableSnapshot, TieredStore,
};
use oreo_workload::tpch;
use std::hint::black_box;
use std::time::Instant;

/// Partitions in the benchmark layout (round-robin, so nothing prunes and
/// every scan pays full predicate-evaluation cost).
const PARTITIONS: u32 = 16;

/// One measured variant: name, sustained throughput, mean per-scan time.
struct Measurement {
    name: &'static str,
    rows_per_sec: f64,
    mean_scan_us: f64,
}

/// The row-at-a-time baseline the kernels are measured against: prune a
/// partition by its metadata, take its predicate columns — resident, or
/// with `pool` fetched through the buffer pool, verified when the read
/// touched disk, and decoded — test every atom on every row with
/// [`atom_matches_ref`] on [`Column::get`], and sort the matches.
fn rowwise_scan(snap: &TableSnapshot, pred: &Predicate, pool: Option<&BufferPool>) -> Vec<u32> {
    let columns = pred.columns();
    // Each atom's position in `columns`, resolved once per scan.
    let slots: Vec<usize> = pred
        .atoms()
        .iter()
        .map(|a| {
            columns
                .iter()
                .position(|&c| c == a.col())
                .expect("atom column")
        })
        .collect();
    let mut out = Vec::new();
    for (index, part) in snap.partitions().iter().enumerate() {
        if !part.meta.may_match(pred) {
            continue;
        }
        let decoded: Vec<Column>;
        let cols: Vec<&Column> = match pool {
            None => columns.iter().map(|&c| part.data.column(c)).collect(),
            Some(pool) => {
                let generation = snap.generation().expect("a tiered snapshot");
                let extents = part.extents.as_ref().expect("a page index");
                let fetch = |c: usize| {
                    let extent = extents[c];
                    let (payload, io) = pool
                        .read_blob(generation, index as u32, extent.offset, extent.len)
                        .expect("pooled read");
                    if io.cold_bytes > 0 {
                        extent.verify(&payload, c).expect("payload checksum");
                    }
                    let nrows = part.rows().len();
                    extent
                        .decode_trusted(&payload, nrows, c)
                        .expect("payload decode")
                };
                decoded = columns.iter().map(|&c| fetch(c)).collect();
                decoded.iter().collect()
            }
        };
        let atoms = pred.atoms().iter().zip(&slots);
        for (local, &row) in part.rows().iter().enumerate() {
            if atoms
                .clone()
                .all(|(a, &slot)| atom_matches_ref(a, cols[slot].get(local)))
            {
                out.push(row);
            }
        }
    }
    out.sort_unstable();
    out
}

/// Time `iters` runs of `scan`, verifying each run returns `expected`
/// matches, and convert to rows/sec over the full (unpruned) table.
fn measure(
    name: &'static str,
    rows: usize,
    iters: usize,
    expected: &[u32],
    mut scan: impl FnMut() -> Vec<u32>,
) -> Measurement {
    // Warmup run, doubling as the correctness check.
    let first = scan();
    assert_eq!(
        first, expected,
        "{name}: scan disagrees with the baseline row set"
    );
    let start = Instant::now();
    for _ in 0..iters {
        black_box(scan());
    }
    let elapsed = start.elapsed().as_secs_f64();
    let m = Measurement {
        name,
        rows_per_sec: (rows * iters) as f64 / elapsed,
        mean_scan_us: elapsed / iters as f64 * 1e6,
    };
    println!(
        "{:<28} {:>12.0} rows/sec  ({:>8.1} µs/scan, {} matches)",
        m.name,
        m.rows_per_sec,
        m.mean_scan_us,
        expected.len()
    );
    m
}

/// The Q6-style benchmark predicate: int range + float range + int bound +
/// string set — one kernel per physical column representation.
fn bench_predicate(table: &oreo_storage::Table) -> Predicate {
    QueryBuilder::new(table.schema())
        .between("l_shipdate", 1000, 1365)
        .between("l_discount", 0.02, 0.07)
        .lt("l_quantity", 24)
        .in_set("l_shipmode", ["AIR", "TRUCK", "MAIL"])
        .build_predicate()
}

/// The wide predicate: one int range keeping 20 of `l_quantity`'s 50
/// equally likely values.
fn wide_predicate(table: &oreo_storage::Table) -> Predicate {
    QueryBuilder::new(table.schema())
        .between("l_quantity", 1, 20)
        .build_predicate()
}

/// A range layout on `l_quantity`: rows in the column's order (ties in row
/// order), cut into [`PARTITIONS`] equal runs.
fn quantity_range_assignment(table: &oreo_storage::Table) -> Vec<u32> {
    let col = table.schema().col("l_quantity").expect("lineitem column");
    let oreo_storage::Column::Int(quantity) = table.column(col) else {
        unreachable!("l_quantity is an int column")
    };
    let rows = quantity.len();
    let mut order: Vec<usize> = (0..rows).collect();
    order.sort_by_key(|&r| quantity[r]);
    let mut assignment = vec![0u32; rows];
    for (rank, &row) in order.iter().enumerate() {
        assignment[row] = (rank * PARTITIONS as usize / rows) as u32;
    }
    assignment
}

fn scan_kernels(c: &mut Criterion) {
    let quick = std::env::args().any(|a| a == "--quick");
    let rows: usize = if quick { 60_000 } else { 200_000 };
    let iters = if quick { 20 } else { 30 };

    let table = tpch::tpch_table(rows, 1);
    let pred = bench_predicate(&table);
    let assignment: Vec<u32> = (0..rows).map(|i| i as u32 % PARTITIONS).collect();
    let snap = TableSnapshot::build(&table, &assignment, PARTITIONS as usize, 0, "bench");
    let expected = rowwise_scan(&snap, &pred, None);
    let wide = wide_predicate(&table);
    let expected_wide = rowwise_scan(&snap, &wide, None);

    println!(
        "== scan_kernels: {rows} rows, {PARTITIONS} partitions, 4-atom predicate \
         ({} matches), wide 1-atom predicate ({} matches) ==",
        expected.len(),
        expected_wide.len()
    );

    // Criterion latency lines for the two memory variants.
    c.bench_function("scan_memory_rowwise", |b| {
        b.iter(|| black_box(rowwise_scan(&snap, &pred, None)))
    });
    c.bench_function("scan_memory_vectorized", |b| {
        b.iter(|| black_box(snap.scan(&pred)))
    });

    let mem_rowwise = measure("memory_rowwise", rows, iters, &expected, || {
        rowwise_scan(&snap, &pred, None)
    });
    let mem_vectorized = measure("memory_vectorized", rows, iters, &expected, || {
        snap.scan(&pred).matches
    });
    let mem_rowwise_wide = measure("memory_rowwise_wide", rows, iters, &expected_wide, || {
        rowwise_scan(&snap, &wide, None)
    });
    let mem_vectorized_wide = measure(
        "memory_vectorized_wide",
        rows,
        iters,
        &expected_wide,
        || snap.scan(&wide).matches,
    );

    let by_quantity = quantity_range_assignment(&table);
    let mut covered_snap =
        TableSnapshot::build(&table, &by_quantity, PARTITIONS as usize, 1, "bench-range");
    let mem_vectorized_covered = measure(
        "memory_vectorized_covered",
        rows,
        iters,
        &expected_wide,
        || covered_snap.scan(&wide).matches,
    );

    // Disk-backed snapshot for the pooled variants.
    let root = std::env::temp_dir().join(format!(
        "oreo-scan-kernels-{}-{}",
        std::process::id(),
        rand::random::<u64>()
    ));
    let mut tiered_snap =
        TableSnapshot::build(&table, &assignment, PARTITIONS as usize, 0, "bench");
    let (store, _) = TieredStore::create(&root, &mut tiered_snap).expect("create tiered store");
    let warm_pool = BufferPool::new(BufferPoolConfig::default());

    let warm_rowwise = measure("pooled_warm_rowwise", rows, iters, &expected, || {
        rowwise_scan(&tiered_snap, &pred, Some(&warm_pool))
    });
    let warm_vectorized = measure("pooled_warm_vectorized", rows, iters, &expected, || {
        tiered_snap
            .scan_pooled(&pred, &warm_pool)
            .expect("pooled scan")
            .matches
    });
    let warm_vectorized_wide = measure(
        "pooled_warm_vectorized_wide",
        rows,
        iters,
        &expected_wide,
        || {
            tiered_snap
                .scan_pooled(&wide, &warm_pool)
                .expect("pooled scan")
                .matches
        },
    );
    let covered_root = root.with_extension("range");
    let (covered_store, _) =
        TieredStore::create(&covered_root, &mut covered_snap).expect("create tiered store");
    // a pool of its own: page keys name a generation, not a root
    let covered_pool = BufferPool::new(BufferPoolConfig::default());
    let warm_vectorized_covered = measure(
        "pooled_warm_vectorized_covered",
        rows,
        iters,
        &expected_wide,
        || {
            covered_snap
                .scan_pooled(&wide, &covered_pool)
                .expect("pooled scan")
                .matches
        },
    );
    let covered_scan = covered_snap
        .scan_pooled(&wide, &covered_pool)
        .expect("pooled scan");
    let cold_iters = if quick { 3 } else { 5 };
    let cold_vectorized = measure(
        "pooled_cold_vectorized",
        rows,
        cold_iters,
        &expected,
        || {
            let cold_pool = BufferPool::new(BufferPoolConfig::default());
            tiered_snap
                .scan_pooled(&pred, &cold_pool)
                .expect("pooled scan")
                .matches
        },
    );

    let kernel_scan = snap.scan(&pred);
    let speedup_memory = mem_vectorized.rows_per_sec / mem_rowwise.rows_per_sec;
    let speedup_pooled_warm = warm_vectorized.rows_per_sec / warm_rowwise.rows_per_sec;
    let speedup_memory_wide = mem_vectorized_wide.rows_per_sec / mem_rowwise_wide.rows_per_sec;
    println!(
        "vectorized speedup: {speedup_memory:.2}x memory, {speedup_pooled_warm:.2}x pool-warm, \
         {speedup_memory_wide:.2}x memory wide \
         ({} chunks, {} rows short-circuited per scan)",
        kernel_scan.chunks_evaluated, kernel_scan.rows_short_circuited
    );
    println!(
        "range layout on l_quantity, wide predicate: {} of {} partitions read answered from \
         metadata, {} columns decoded, {} chunks",
        covered_scan.partitions_covered,
        covered_scan.partitions_read,
        covered_scan.columns_decoded,
        covered_scan.chunks_evaluated
    );

    if let Some(path) = json_path_arg() {
        let variants = [
            &mem_rowwise,
            &mem_vectorized,
            &warm_rowwise,
            &warm_vectorized,
            &cold_vectorized,
            &mem_rowwise_wide,
            &mem_vectorized_wide,
            &warm_vectorized_wide,
            &mem_vectorized_covered,
            &warm_vectorized_covered,
        ];
        let doc = Json::obj([
            ("benchmark", Json::from("scan_kernels")),
            ("rows", Json::from(rows)),
            ("partitions", Json::from(PARTITIONS as u64)),
            ("predicate_atoms", Json::from(4u64)),
            ("matches", Json::from(expected.len())),
            ("matches_wide", Json::from(expected_wide.len())),
            (
                "variants",
                Json::Arr(
                    variants
                        .iter()
                        .map(|m| {
                            Json::obj([
                                ("name", Json::from(m.name)),
                                ("rows_per_sec", Json::from(m.rows_per_sec)),
                                ("mean_scan_us", Json::from(m.mean_scan_us)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("speedup_memory", Json::from(speedup_memory)),
            ("speedup_pooled_warm", Json::from(speedup_pooled_warm)),
            ("speedup_memory_wide", Json::from(speedup_memory_wide)),
            (
                "partitions_covered",
                Json::from(covered_scan.partitions_covered),
            ),
            (
                "partitions_read_covered_layout",
                Json::from(covered_scan.partitions_read),
            ),
            ("chunks_evaluated", Json::from(kernel_scan.chunks_evaluated)),
            (
                "rows_short_circuited",
                Json::from(kernel_scan.rows_short_circuited),
            ),
        ]);
        write_json_report(&path, &doc);

        let names: Vec<&str> = variants.iter().map(|m| m.name).collect();
        assert_eq!(
            names,
            [
                "memory_rowwise",
                "memory_vectorized",
                "pooled_warm_rowwise",
                "pooled_warm_vectorized",
                "pooled_cold_vectorized",
                "memory_rowwise_wide",
                "memory_vectorized_wide",
                "pooled_warm_vectorized_wide",
                "memory_vectorized_covered",
                "pooled_warm_vectorized_covered",
            ],
            "the report's variants"
        );
        // The kernel layer's reason to exist: the vectorized path at least
        // doubles interpreted throughput on resident data and keeps 1.5x on
        // pool-warm data, where decode shares the time (~2.1x quick on a
        // 1-vCPU box; the memory gate has several times that headroom).
        assert!(
            speedup_memory >= 2.0,
            "memory speedup {speedup_memory:.2} < 2"
        );
        assert!(
            speedup_pooled_warm >= 1.5,
            "pool-warm speedup {speedup_pooled_warm:.2} < 1.5"
        );
    }

    drop(store);
    drop(tiered_snap);
    let _ = std::fs::remove_dir_all(&root);
    drop(covered_store);
    drop(covered_snap);
    let _ = std::fs::remove_dir_all(&covered_root);
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = scan_kernels
);
criterion_main!(benches);
