//! A partitioned on-disk table store.
//!
//! This is our stand-in for the paper's Spark + Parquet setup: partitions are
//! the unit of I/O, a query reads only the partitions its predicate cannot
//! skip, and *reorganization* re-routes every row to a new partition and
//! rewrites all files (read → update BID → repartition → compress + write,
//! exactly the four steps measured for Table I).

use crate::column::Column;
use crate::column::DictBuilder;
use crate::error::{Result, StorageError};
use crate::format::{read_partition, read_partition_footer, write_partition_with_meta};
use crate::partition::{build_metadata, PartitionMetadata};
use crate::snapshot::RowwiseEvaluator;
use crate::table::Table;
use oreo_query::{Query, Schema};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Handle to one on-disk partition.
#[derive(Clone, Debug)]
pub struct PartitionHandle {
    /// Location of the partition file on disk.
    pub path: PathBuf,
    /// Number of rows stored.
    pub rows: u64,
    /// Encoded size in bytes.
    pub bytes: u64,
}

/// Statistics from a scan, used both for correctness checks and for the
/// physical-time measurements in the benchmark harnesses.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ScanStats {
    /// Partitions actually decoded and scanned.
    pub partitions_read: usize,
    /// Partitions pruned by metadata before reading.
    pub partitions_skipped: usize,
    /// Rows decoded from read partitions.
    pub rows_read: u64,
    /// Rows satisfying the predicate.
    pub rows_matched: u64,
    /// Bytes read from disk.
    pub bytes_read: u64,
}

/// A partitioned table persisted to a directory, one file per partition.
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
    schema: Arc<Schema>,
    partitions: Vec<PartitionHandle>,
    metadata: Vec<PartitionMetadata>,
}

impl DiskStore {
    /// Partition `table` by `assignment` (row → BID, BIDs in `0..k`) and
    /// write one compressed file per partition under `dir`.
    pub fn create(dir: &Path, table: &Table, assignment: &[u32], k: usize) -> Result<Self> {
        assert_eq!(assignment.len(), table.num_rows(), "assignment length");
        fs::create_dir_all(dir)?;

        // Group row ids by partition.
        let mut groups: Vec<Vec<u32>> = vec![Vec::new(); k];
        for (row, &bid) in assignment.iter().enumerate() {
            groups[bid as usize].push(row as u32);
        }

        let metadata = build_metadata(table, assignment, k);
        let mut partitions = Vec::with_capacity(k);
        for ((bid, rows), meta) in groups.iter().enumerate().zip(&metadata) {
            let part = table.project_rows(rows);
            let path = dir.join(format!("part-{bid:05}.oreo"));
            let (bytes, _footer) = write_partition_with_meta(&path, &part, meta)?;
            partitions.push(PartitionHandle {
                path,
                rows: rows.len() as u64,
                bytes,
            });
        }

        Ok(Self {
            dir: dir.to_owned(),
            schema: Arc::clone(table.schema()),
            partitions,
            metadata,
        })
    }

    /// Open an existing partition directory (one written by
    /// [`DiskStore::create`]): list the
    /// partition files, verify their indices are contiguous from zero, and
    /// rebuild row counts plus pruning metadata **from the file footers** —
    /// no column data is read or decoded, so opening a multi-GB store costs
    /// a few small reads per file. A file that is truncated, lacks the
    /// footer, or disagrees with `schema` fails with
    /// [`StorageError::Corrupt`].
    ///
    /// A missing middle partition (say `part-00001.oreo` deleted out of
    /// three) is a hole in the table, not a smaller table: it fails with
    /// [`StorageError::Corrupt`] instead of silently serving partial data.
    pub fn open(dir: &Path, schema: &Arc<Schema>) -> Result<Self> {
        let mut indexed: Vec<(usize, PathBuf)> = Vec::new();
        for entry in fs::read_dir(dir)?.flatten() {
            let path = entry.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let Some(stem) = name
                .strip_prefix("part-")
                .and_then(|n| n.strip_suffix(".oreo"))
            else {
                continue;
            };
            let index: usize = stem.parse().map_err(|_| {
                StorageError::Corrupt(format!("unexpected partition file name {name}"))
            })?;
            indexed.push((index, path));
        }
        indexed.sort_unstable_by_key(|&(index, _)| index);
        if indexed.is_empty() {
            return Err(StorageError::Corrupt(format!(
                "no partition files under {}",
                dir.display()
            )));
        }
        for (expected, (index, path)) in indexed.iter().enumerate() {
            if *index != expected {
                return Err(StorageError::Corrupt(format!(
                    "partition files not contiguous: expected part-{expected:05}.oreo, \
                     found {}",
                    path.display()
                )));
            }
        }
        let mut partitions = Vec::with_capacity(indexed.len());
        let mut metadata = Vec::with_capacity(indexed.len());
        for (_, path) in indexed {
            let footer = read_partition_footer(&path, schema)?;
            let bytes = fs::metadata(&path)?.len();
            metadata.push(footer.meta);
            partitions.push(PartitionHandle {
                bytes,
                path,
                rows: footer.nrows,
            });
        }
        Ok(Self {
            dir: dir.to_owned(),
            schema: Arc::clone(schema),
            partitions,
            metadata,
        })
    }

    /// The directory the store writes partitions under.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The schema of the stored table.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of partitions in the current layout.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Handles of the stored partition files.
    pub fn partitions(&self) -> &[PartitionHandle] {
        &self.partitions
    }

    /// Skipping metadata for each partition.
    pub fn metadata(&self) -> &[PartitionMetadata] {
        &self.metadata
    }

    /// Total on-disk footprint in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.partitions.iter().map(|p| p.bytes).sum()
    }

    /// Total rows across partitions.
    pub fn total_rows(&self) -> u64 {
        self.partitions.iter().map(|p| p.rows).sum()
    }

    /// Read every partition (the paper's "full table scan" used as the
    /// denominator of α): all bytes are read from disk and one column — the
    /// aggregate's input — is decoded, the way a columnar engine executes
    /// `SELECT agg(col) FROM t`.
    pub fn full_scan(&self) -> Result<ScanStats> {
        self.scan(&Query::full_scan())
    }

    /// Metadata-pruned, column-projected scan: read only partitions the
    /// predicate may match (the `BID IN (...)` rewrite of the paper's
    /// shallow Spark integration), decode only the predicate's columns, and
    /// evaluate through the snapshot scans' row-at-a-time reference
    /// evaluator. An empty predicate decodes column 0 as the stand-in
    /// aggregate input.
    pub fn scan(&self, query: &Query) -> Result<ScanStats> {
        let mut cols = query.predicate.columns();
        if cols.is_empty() {
            cols.push(0);
        }
        let rowwise = RowwiseEvaluator::new(&query.predicate);
        let mut stats = ScanStats::default();
        for (handle, meta) in self.partitions.iter().zip(&self.metadata) {
            if !meta.may_match(&query.predicate) {
                stats.partitions_skipped += 1;
                continue;
            }
            let (nrows, decoded) =
                crate::format::read_partition_projected(&handle.path, &self.schema, &cols)?;
            stats.partitions_read += 1;
            stats.rows_read += nrows as u64;
            stats.bytes_read += handle.bytes;
            // Projected columns come back in file order; the evaluator
            // wants the predicate's first-use order.
            let by_use: Vec<&Column> = cols
                .iter()
                .map(|col| {
                    let (_, column) = decoded
                        .iter()
                        .find(|(c, _)| c == col)
                        .expect("projected column present");
                    column
                })
                .collect();
            rowwise.for_each_match(&by_use, nrows, |_| stats.rows_matched += 1);
        }
        Ok(stats)
    }

    /// Load the full table back into memory, concatenating all partitions
    /// (row order is partition-major, which is fine: layouts route by value,
    /// not by position).
    pub fn load_table(&self) -> Result<Table> {
        let mut parts = Vec::with_capacity(self.partitions.len());
        for handle in &self.partitions {
            parts.push(read_partition(&handle.path, &self.schema)?);
        }
        concat_tables(&self.schema, &parts)
    }

    /// Physical reorganization into `new_dir`: read all partitions, compute
    /// each row's new BID with `route`, regroup, and compress + write the new
    /// partition files. Returns the new store (the old directory is left
    /// untouched; callers delete it after the atomic "swap", as the paper's
    /// background reorganization does).
    pub fn reorganize(
        &self,
        new_dir: &Path,
        k: usize,
        mut route: impl FnMut(&Table, usize) -> u32,
    ) -> Result<DiskStore> {
        let table = self.load_table()?;
        let mut assignment = Vec::with_capacity(table.num_rows());
        for row in 0..table.num_rows() {
            let bid = route(&table, row);
            if bid as usize >= k {
                return Err(StorageError::Corrupt(format!(
                    "router produced BID {bid} >= k = {k}"
                )));
            }
            assignment.push(bid);
        }
        DiskStore::create(new_dir, &table, &assignment, k)
    }

    /// Remove all partition files and the directory.
    pub fn destroy(self) -> Result<()> {
        fs::remove_dir_all(&self.dir)?;
        Ok(())
    }
}

/// Concatenate tables sharing a schema. Dictionary columns are re-interned
/// because each file carries its own dictionary.
pub fn concat_tables(schema: &Arc<Schema>, parts: &[Table]) -> Result<Table> {
    let ncols = schema.len();
    let total: usize = parts.iter().map(Table::num_rows).sum();
    let mut columns = Vec::with_capacity(ncols);
    for col in 0..ncols {
        let mut ints: Option<Vec<i64>> = None;
        let mut floats: Option<Vec<f64>> = None;
        let mut dict: Option<DictBuilder> = None;
        for part in parts {
            if part.schema().as_ref() != schema.as_ref() {
                return Err(StorageError::Corrupt("schema mismatch in concat".into()));
            }
            match part.column(col) {
                Column::Int(v) => ints
                    .get_or_insert_with(|| Vec::with_capacity(total))
                    .extend(v),
                Column::Float(v) => floats
                    .get_or_insert_with(|| Vec::with_capacity(total))
                    .extend(v),
                Column::Str(d) => {
                    let b = dict.get_or_insert_with(DictBuilder::new);
                    for row in 0..d.len() {
                        b.push(d.get(row));
                    }
                }
            }
        }
        let column = if let Some(v) = ints {
            Column::Int(v)
        } else if let Some(v) = floats {
            Column::Float(v)
        } else if let Some(b) = dict {
            Column::Str(b.finish())
        } else {
            // no parts at all: produce an empty column of the schema's type
            Column::empty(schema.column_type(col))
        };
        columns.push(column);
    }
    Ok(Table::new(Arc::clone(schema), columns))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;
    use oreo_query::{ColumnType, QueryBuilder, Scalar};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "oreo-store-{}-{}-{}",
            tag,
            std::process::id(),
            rand::random::<u32>()
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn table(n: i64) -> Table {
        let s = Arc::new(Schema::from_pairs([
            ("ts", ColumnType::Timestamp),
            ("v", ColumnType::Int),
            ("tag", ColumnType::Str),
        ]));
        let mut b = TableBuilder::new(Arc::clone(&s));
        for i in 0..n {
            b.push_row(&[
                Scalar::Int(i),
                Scalar::Int(i % 100),
                Scalar::from(["a", "b", "c", "d"][(i % 4) as usize]),
            ]);
        }
        b.finish()
    }

    #[test]
    fn create_and_full_scan() {
        let t = table(1000);
        let assignment: Vec<u32> = (0..1000).map(|i| (i / 250) as u32).collect();
        let dir = tmpdir("scan");
        let store = DiskStore::create(&dir, &t, &assignment, 4).unwrap();
        assert_eq!(store.num_partitions(), 4);
        assert_eq!(store.total_rows(), 1000);
        let stats = store.full_scan().unwrap();
        assert_eq!(stats.partitions_read, 4);
        assert_eq!(stats.rows_read, 1000);
        assert_eq!(stats.rows_matched, 1000);
        store.destroy().unwrap();
    }

    #[test]
    fn filtered_scan_skips_partitions() {
        let t = table(1000);
        // partition by ts quartile → ts ranges are disjoint
        let assignment: Vec<u32> = (0..1000).map(|i| (i / 250) as u32).collect();
        let dir = tmpdir("filter");
        let store = DiskStore::create(&dir, &t, &assignment, 4).unwrap();
        let q = QueryBuilder::new(t.schema()).between("ts", 0, 249).build();
        let stats = store.scan(&q).unwrap();
        assert_eq!(stats.partitions_read, 1);
        assert_eq!(stats.partitions_skipped, 3);
        assert_eq!(stats.rows_matched, 250);
        store.destroy().unwrap();
    }

    #[test]
    fn load_table_round_trips_all_rows() {
        let t = table(500);
        let assignment: Vec<u32> = (0..500).map(|i| (i % 3) as u32).collect();
        let dir = tmpdir("load");
        let store = DiskStore::create(&dir, &t, &assignment, 3).unwrap();
        let back = store.load_table().unwrap();
        assert_eq!(back.num_rows(), 500);
        // every original ts value appears exactly once
        let mut seen: Vec<i64> = (0..back.num_rows())
            .map(|r| back.scalar(r, 0).as_int().unwrap())
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..500).collect::<Vec<_>>());
        store.destroy().unwrap();
    }

    #[test]
    fn reorganize_rewrites_by_new_routing() {
        let t = table(800);
        let by_time: Vec<u32> = (0..800).map(|i| (i / 200) as u32).collect();
        let dir = tmpdir("reorg-src");
        let store = DiskStore::create(&dir, &t, &by_time, 4).unwrap();

        // new layout: partition by v quartile instead of time
        let dir2 = tmpdir("reorg-dst");
        let store2 = store
            .reorganize(&dir2, 4, |table, row| {
                (table.scalar(row, 1).as_int().unwrap() / 25) as u32
            })
            .unwrap();
        assert_eq!(store2.total_rows(), 800);
        // a v-point query now skips partitions in the new store
        let q = QueryBuilder::new(t.schema()).eq("v", 8).build();
        let new_stats = store2.scan(&q).unwrap();
        assert_eq!(new_stats.partitions_read, 1, "v=8 lives in BID 0 only");
        assert_eq!(new_stats.rows_matched, 8);
        store.destroy().unwrap();
        store2.destroy().unwrap();
    }

    #[test]
    fn router_out_of_range_is_an_error() {
        let t = table(10);
        let dir = tmpdir("badroute");
        let store = DiskStore::create(&dir, &t, &[0; 10], 1).unwrap();
        let dir2 = tmpdir("badroute-dst");
        let err = store.reorganize(&dir2, 2, |_, _| 7).unwrap_err();
        assert!(err.to_string().contains("BID 7"));
        store.destroy().unwrap();
        let _ = fs::remove_dir_all(dir2);
    }

    /// The headline-satellite regression test: opening a written store
    /// rebuilds row counts and pruning metadata from file footers alone —
    /// zero partition decodes — and the store still scans and prunes.
    #[test]
    fn open_is_footer_only_no_decode() {
        let t = table(2_000);
        let assignment: Vec<u32> = (0..2_000).map(|i| (i / 500) as u32).collect();
        let dir = tmpdir("footeropen");
        let store = DiskStore::create(&dir, &t, &assignment, 4).unwrap();
        let total_bytes = store.total_bytes();
        drop(store);

        let before = crate::format::thread_partition_decodes();
        let reopened = DiskStore::open(&dir, t.schema()).unwrap();
        assert_eq!(
            crate::format::thread_partition_decodes(),
            before,
            "open must not decode any partition payload"
        );
        assert_eq!(reopened.num_partitions(), 4);
        assert_eq!(reopened.total_rows(), 2_000);
        assert_eq!(reopened.total_bytes(), total_bytes);
        // recovered metadata prunes exactly like freshly built metadata
        let q = QueryBuilder::new(t.schema()).between("ts", 0, 499).build();
        let stats = reopened.scan(&q).unwrap();
        assert_eq!(stats.partitions_read, 1);
        assert_eq!(stats.partitions_skipped, 3);
        assert_eq!(stats.rows_matched, 500);
        reopened.destroy().unwrap();
    }

    /// A deleted middle partition is a hole in the table, not a smaller
    /// table: `open` must refuse instead of silently serving partial data.
    #[test]
    fn open_detects_missing_middle_partition() {
        let t = table(900);
        let assignment: Vec<u32> = (0..900).map(|i| (i / 300) as u32).collect();
        let dir = tmpdir("hole");
        let store = DiskStore::create(&dir, &t, &assignment, 3).unwrap();
        drop(store);
        fs::remove_file(dir.join("part-00001.oreo")).unwrap();
        let err = DiskStore::open(&dir, t.schema()).unwrap_err();
        assert!(
            err.to_string().contains("not contiguous"),
            "expected contiguity error, got: {err}"
        );
        // an unparseable partition file name is rejected too
        fs::write(dir.join("part-bogus.oreo"), b"junk").unwrap();
        let err = DiskStore::open(&dir, t.schema()).unwrap_err();
        assert!(err.to_string().contains("unexpected partition file name"));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A partition file cut short or missing its footer is damage, not an
    /// older format: `open` refuses it instead of guessing.
    #[test]
    fn open_rejects_truncated_and_footerless_files() {
        let t = table(600);
        let assignment: Vec<u32> = (0..600).map(|i| (i / 300) as u32).collect();
        let dir = tmpdir("footerless");
        drop(DiskStore::create(&dir, &t, &assignment, 2).unwrap());
        let victim = dir.join("part-00001.oreo");
        let whole = fs::read(&victim).unwrap();
        // any truncation loses the trailing footer magic
        for cut in [whole.len() - 1, whole.len() / 2, 0] {
            fs::write(&victim, &whole[..cut]).unwrap();
            let err = DiskStore::open(&dir, t.schema()).unwrap_err();
            assert!(matches!(err, StorageError::Corrupt(_)), "cut {cut}: {err}");
        }
        fs::write(&victim, &whole).unwrap();
        assert_eq!(DiskStore::open(&dir, t.schema()).unwrap().total_rows(), 600);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concat_reinterns_dictionaries() {
        let s = Arc::new(Schema::from_pairs([("tag", ColumnType::Str)]));
        let mut b1 = TableBuilder::new(Arc::clone(&s));
        b1.push_row(&[Scalar::from("x")]);
        b1.push_row(&[Scalar::from("y")]);
        let mut b2 = TableBuilder::new(Arc::clone(&s));
        b2.push_row(&[Scalar::from("y")]);
        b2.push_row(&[Scalar::from("z")]);
        let t = concat_tables(&s, &[b1.finish(), b2.finish()]).unwrap();
        assert_eq!(t.num_rows(), 4);
        assert_eq!(t.scalar(1, 0), Scalar::from("y"));
        assert_eq!(t.scalar(2, 0), Scalar::from("y"));
        assert_eq!(t.scalar(3, 0), Scalar::from("z"));
    }

    #[test]
    fn empty_partitions_are_valid() {
        let t = table(100);
        let dir = tmpdir("empty");
        // everything to BID 0; BIDs 1..4 empty
        let store = DiskStore::create(&dir, &t, &vec![0; 100], 4).unwrap();
        assert_eq!(store.num_partitions(), 4);
        let stats = store.full_scan().unwrap();
        assert_eq!(stats.rows_read, 100);
        store.destroy().unwrap();
    }
}
