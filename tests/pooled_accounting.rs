//! Answering a covered partition from its metadata changes what a pooled
//! scan *computes*, never what it *reads*: `scan_fraction`, α̂ and the
//! pool's hit rate are built on `bytes_scanned` and the pool's counters, so
//! those must come out of a stream of scans exactly as they did before the
//! scan learned to skip decodes. The literals below were produced by the
//! commit before it (b42ed9c) running this same file.

use oreo::layout::{LayoutSpec, QdTreeBuilder};
use oreo::storage::{BufferPool, BufferPoolConfig, TableSnapshot, TieredStore};
use oreo::workload::{telemetry_bundle, Scenario, ScenarioConfig};

/// What one pass of the stream through one pool adds up to:
/// `[bytes_scanned, io_cold_bytes, io_cached_bytes, matches, hits, misses,
/// evictions, pool cold_bytes, pool cached_bytes]`.
type Totals = [u64; 9];

#[test]
fn pooled_accounting_is_unchanged() {
    let bundle = telemetry_bundle(60_000, 11);
    let table = &bundle.table;
    let stream = Scenario::RotatingPredicates.generate(
        table.schema(),
        ScenarioConfig {
            total_queries: 300,
            seed: 5,
        },
    );
    assert_eq!(stream.queries.len(), 300);
    // A qd-tree fitted to the stream it serves: about a fifth of the
    // partitions a query reads lie wholly inside its predicate.
    let tree = QdTreeBuilder::new(64).build(table, &stream.queries);
    let mut snap = TableSnapshot::build(table, &tree.assign(table), tree.k(), 1, tree.describe());
    let root = std::env::temp_dir().join(format!(
        "oreo-pooled-accounting-{}-{}",
        std::process::id(),
        rand::random::<u64>()
    ));
    let (store, _) = TieredStore::create(&root, &mut snap).unwrap();

    // a pool that holds everything, one of 32 pages and one of 32 small
    // pages, both thrashing
    let geometries: [(u64, usize, Totals); 3] = [
        (
            64 << 20,
            64 << 10,
            [
                58_330_952, 443_070, 57_887_882, 1_122_025, 4_956, 35, 0, 443_070, 57_887_882,
            ],
        ),
        (
            128 << 10,
            4 << 10,
            [
                28_094_464, 15_413_248, 12_681_216, 1_122_025, 3_096, 3_763, 3_731, 15_413_248,
                12_681_216,
            ],
        ),
        (
            16 << 10,
            512,
            [
                9_482_240, 7_619_584, 1_862_656, 1_122_025, 3_638, 14_882, 14_850, 7_619_584,
                1_862_656,
            ],
        ),
    ];
    let (mut read, mut covered, mut decoded) = (0, 0, 0);
    for (capacity_bytes, page_bytes, want) in geometries {
        let pool = BufferPool::new(BufferPoolConfig {
            capacity_bytes,
            page_bytes,
        });
        let mut got: Totals = [0; 9];
        for query in &stream.queries {
            let scan = snap.scan_pooled(&query.predicate, &pool).unwrap();
            got[0] += scan.bytes_scanned;
            got[1] += scan.io_cold_bytes;
            got[2] += scan.io_cached_bytes;
            got[3] += scan.matches.len() as u64;
            read += scan.partitions_read;
            covered += scan.partitions_covered;
            decoded += scan.columns_decoded;
        }
        let stats = pool.stats();
        got[4..].copy_from_slice(&[
            stats.hits,
            stats.misses,
            stats.evictions,
            stats.cold_bytes,
            stats.cached_bytes,
        ]);
        assert_eq!(
            got, want,
            "pool of {capacity_bytes} B in {page_bytes} B pages"
        );
    }
    // the stream does exercise what the literals guard
    assert!(
        covered * 6 >= read,
        "{covered} of {read} partitions covered"
    );
    assert!(decoded > 0);
    drop(store);
    drop(snap);
    std::fs::remove_dir_all(&root).unwrap();
}
