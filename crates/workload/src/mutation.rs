//! Deterministic mutation streams for the live-ingestion evaluation.
//!
//! The paper's workloads are read-only; PR 9's write path needs the
//! read-side drift *interleaved with writes*. [`mutation_stream`] produces
//! a seeded schedule of [`IngestOp`] batches pinned to stream positions
//! ("apply this batch after query `after_query`"), mirroring the engine's
//! id assignment so every `Update`/`Delete` targets a row that is live at
//! that point — appends take the next global id in op order, updates
//! tombstone their target and re-append under a fresh id.
//!
//! Everything is a pure function of `(schema, base_rows, config)`, so the
//! engine run and the sim's mutable oracle replay byte-identical op
//! sequences.

use oreo_query::{ColumnType, Scalar, Schema};
use oreo_storage::IngestOp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape of a generated mutation schedule.
#[derive(Clone, Copy, Debug)]
pub struct MutationConfig {
    /// Number of op batches spread over the stream.
    pub batches: usize,
    /// Appends per batch.
    pub appends_per_batch: usize,
    /// Updates per batch (skipped while no row is live).
    pub updates_per_batch: usize,
    /// Deletes per batch (skipped while no row is live).
    pub deletes_per_batch: usize,
    /// Read-stream length the batches are spread over.
    pub total_queries: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MutationConfig {
    fn default() -> Self {
        Self {
            batches: 20,
            appends_per_batch: 50,
            updates_per_batch: 5,
            deletes_per_batch: 5,
            total_queries: 1_000,
            seed: 0,
        }
    }
}

/// One op batch pinned to a stream position.
#[derive(Clone, Debug, PartialEq)]
pub struct MutationBatch {
    /// Apply after this many stream queries have been served.
    pub after_query: usize,
    /// The ops, in apply order.
    pub ops: Vec<IngestOp>,
}

/// A generated mutation schedule plus its bookkeeping totals.
#[derive(Clone, Debug, PartialEq)]
pub struct MutationStream {
    /// Batches in stream order (non-decreasing `after_query`).
    pub batches: Vec<MutationBatch>,
    /// Rows appended across all batches (updates count their re-append).
    pub appended: u64,
    /// Rows tombstoned across all batches (updates count their tombstone).
    pub deleted: u64,
    /// Live rows after every batch lands on a `base_rows`-row table.
    pub expected_live: u64,
}

/// Draw one row of cell values for `schema`. Ints land in a fresh
/// six-digit band so ingested rows are distinguishable from typical base
/// domains; strings draw from a small tag pool (dictionary-friendly).
fn draw_row(schema: &Schema, rng: &mut StdRng) -> Vec<Scalar> {
    (0..schema.len())
        .map(|col| match schema.column_type(col) {
            ColumnType::Int | ColumnType::Timestamp => {
                Scalar::Int(rng.random_range(100_000..200_000))
            }
            ColumnType::Float => Scalar::Float(rng.random::<f64>() * 1e5),
            ColumnType::Str => Scalar::Str(format!("ingest-{}", rng.random_range(0..8u32))),
        })
        .collect()
}

/// Generate a deterministic mutation schedule over a `base_rows`-row table
/// of `schema`. Batches are evenly spaced over `config.total_queries`;
/// update/delete targets are drawn uniformly from the rows live at that
/// point of the schedule (ids tracked exactly as the engine assigns them).
pub fn mutation_stream(schema: &Schema, base_rows: u64, config: MutationConfig) -> MutationStream {
    assert!(config.batches > 0, "need at least one batch");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut live: Vec<u32> = (0..base_rows as u32).collect();
    let mut next_row = base_rows as u32;
    let mut batches = Vec::with_capacity(config.batches);
    let mut appended = 0u64;
    let mut deleted = 0u64;

    for i in 0..config.batches {
        let after_query = (i + 1) * config.total_queries / (config.batches + 1);
        let mut ops = Vec::with_capacity(
            config.appends_per_batch + config.updates_per_batch + config.deletes_per_batch,
        );
        for _ in 0..config.appends_per_batch {
            ops.push(IngestOp::Append {
                values: draw_row(schema, &mut rng),
            });
            live.push(next_row);
            next_row += 1;
            appended += 1;
        }
        for _ in 0..config.updates_per_batch {
            if live.is_empty() {
                break;
            }
            let victim = live.swap_remove(rng.random_range(0..live.len()));
            ops.push(IngestOp::Update {
                row: victim,
                values: draw_row(schema, &mut rng),
            });
            live.push(next_row);
            next_row += 1;
            appended += 1;
            deleted += 1;
        }
        for _ in 0..config.deletes_per_batch {
            if live.is_empty() {
                break;
            }
            let victim = live.swap_remove(rng.random_range(0..live.len()));
            ops.push(IngestOp::Delete { row: victim });
            deleted += 1;
        }
        batches.push(MutationBatch { after_query, ops });
    }

    MutationStream {
        batches,
        appended,
        deleted,
        expected_live: base_rows + appended - deleted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::from_pairs([
            ("ts", ColumnType::Int),
            ("v", ColumnType::Float),
            ("tag", ColumnType::Str),
        ])
    }

    #[test]
    fn schedule_is_deterministic_and_balanced() {
        let cfg = MutationConfig {
            batches: 10,
            appends_per_batch: 8,
            updates_per_batch: 2,
            deletes_per_batch: 3,
            total_queries: 500,
            seed: 7,
        };
        let s = schema();
        let a = mutation_stream(&s, 100, cfg);
        let b = mutation_stream(&s, 100, cfg);
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(a.batches.len(), 10);
        assert_eq!(a.appended, 10 * (8 + 2));
        assert_eq!(a.deleted, 10 * (2 + 3));
        assert_eq!(a.expected_live, 100 + 100 - 50);
        let ops: usize = a.batches.iter().map(|b| b.ops.len()).sum();
        assert_eq!(ops, 10 * (8 + 2 + 3));
        // positions spread monotonically over the stream
        let positions: Vec<usize> = a.batches.iter().map(|b| b.after_query).collect();
        assert!(positions.windows(2).all(|w| w[0] <= w[1]));
        assert!(*positions.last().unwrap() < 500);
    }

    #[test]
    fn targets_are_always_live_and_rows_match_schema() {
        let s = schema();
        let stream = mutation_stream(
            &s,
            50,
            MutationConfig {
                batches: 30,
                appends_per_batch: 1,
                updates_per_batch: 2,
                deletes_per_batch: 2,
                total_queries: 300,
                seed: 3,
            },
        );
        // replay the id assignment; every update/delete must name a live id
        let mut live: Vec<u32> = (0..50).collect();
        let mut next = 50u32;
        for batch in &stream.batches {
            for op in &batch.ops {
                match op {
                    IngestOp::Append { values } => {
                        assert_eq!(values.len(), s.len());
                        live.push(next);
                        next += 1;
                    }
                    IngestOp::Update { row, values } => {
                        assert_eq!(values.len(), s.len());
                        let pos = live.iter().position(|r| r == row).expect("live target");
                        live.swap_remove(pos);
                        live.push(next);
                        next += 1;
                    }
                    IngestOp::Delete { row } => {
                        let pos = live.iter().position(|r| r == row).expect("live target");
                        live.swap_remove(pos);
                    }
                }
            }
        }
        assert_eq!(live.len() as u64, stream.expected_live);
    }

    #[test]
    fn drains_gracefully_when_everything_dies() {
        let s = schema();
        let stream = mutation_stream(
            &s,
            2,
            MutationConfig {
                batches: 4,
                appends_per_batch: 0,
                updates_per_batch: 0,
                deletes_per_batch: 5,
                total_queries: 100,
                seed: 1,
            },
        );
        assert_eq!(stream.deleted, 2, "only live rows can die");
        assert_eq!(stream.expected_live, 0);
    }
}
