//! The four workloads and their inputs.
//!
//! Everything the engine sees — table, query stream, mutation schedule —
//! is generated here; the engine receives only generated inputs. `--seed`
//! drives the table's contents and the mutation schedule. The query
//! stream's scenario seed and the policy RNG seed are part of a workload's
//! definition, like its row count: a zoo stream's cost hangs on a handful
//! of draws (which phase anchors, which collector goes hot), so seeding it
//! moved `cost_per_kq` by more than any bound could hold (see `NOISE.md`).

use oreo_core::OreoConfig;
use oreo_layout::SharedSpec;
use oreo_query::Query;
use oreo_sim::default_spec;
use oreo_storage::Table;
use oreo_workload::{
    mutation_stream, telemetry_bundle, DatasetBundle, MutationConfig, MutationStream, Scenario,
    ScenarioConfig,
};
use std::sync::Arc;

/// Closed-loop shape shared by every workload: one generator thread keeps
/// this many tracked queries outstanding…
pub const INFLIGHT: usize = 2;
/// …against this many engine scan workers (≤ nproc on the reference box).
pub const WORKERS: usize = 2;
/// Every this-many-th query's match count is checked against the row-wise
/// oracle, outside the timed phase.
pub const CHECK_EVERY: usize = 50;
/// Policy RNG seed: engine configuration, not an input, so it is the same
/// for every `--seed`.
const POLICY_SEED: u64 = 7;
/// Scenario seed of every query stream (see the module docs).
const STREAM_SEED: u64 = 7;
/// Rows of the data sample the policy costs candidate layouts on.
const DATA_SAMPLE_ROWS: usize = 1_500;

/// Writes interleaved with the reads of `ingest-mixed`.
#[derive(Clone, Copy, Debug)]
pub struct IngestShape {
    /// One batch is issued inline by the generator every this many queries.
    pub every_queries: usize,
    /// Rows appended per batch.
    pub appends: usize,
    /// Rows updated (tombstone + re-append) per batch.
    pub updates: usize,
    /// Rows deleted per batch.
    pub deletes: usize,
}

/// One benchmark workload: a fixed set of input sizes plus the reason it
/// exists (mirrored in `BENCHMARK.json` and the README).
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Final name; later issues cite it.
    pub name: &'static str,
    /// Why the workload exists, in one line.
    pub why: &'static str,
    /// Telemetry rows in the base table.
    pub rows: usize,
    /// Queries served per repetition.
    pub queries: usize,
    /// Zoo scenario generating the stream.
    pub scenario: Scenario,
    /// Serve through the disk tier with a buffer pool of this many bytes.
    pub pool_bytes: Option<u64>,
    /// Mutation schedule, when the workload writes.
    pub ingest: Option<IngestShape>,
    /// Partitions per layout.
    pub partitions: usize,
}

impl Workload {
    /// Whether the workload serves through `TieredStore` + `BufferPool`.
    pub fn tiered(&self) -> bool {
        self.pool_bytes.is_some()
    }
}

/// The benchmark's workloads, in round-robin order. Sizes are the issue's
/// starting points shrunk (rows first, then queries to the 8 000 floor) so
/// that five repetitions fit the driver's per-run budget; the small tables
/// use 32 partitions, which halves the qd-tree builds that dominate them.
/// The README gives the reasons, the table-vs-pool sizes and the timings.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "drift-small",
        why: "tiny table, so wall time is policy bookkeeping under the core mutex; bypass for scan work",
        rows: 20_000,
        queries: 8_000,
        scenario: Scenario::CorrelatedColumns,
        pool_bytes: None,
        ingest: None,
        partitions: 32,
    },
    Workload {
        name: "scan-large",
        why: "large resident table, so wall time is multi-partition kernel scans; bypass for policy and pool work",
        rows: 300_000,
        queries: 8_000,
        scenario: Scenario::RotatingPredicates,
        pool_bytes: None,
        ingest: None,
        partitions: 64,
    },
    Workload {
        name: "tiered-cold",
        why: "disk tier with a pool of about 1/9 of the table: misses, decode and publish dominate; scan-large is its bypass",
        rows: 300_000,
        queries: 8_000,
        scenario: Scenario::RotatingPredicates,
        pool_bytes: Some(512 << 10),
        ingest: None,
        partitions: 64,
    },
    Workload {
        name: "ingest-mixed",
        why: "writes beside reads on a pool that fits: WAL acks, delta overlay on every scan, folds",
        rows: 60_000,
        queries: 8_000,
        scenario: Scenario::RotatingPredicates,
        pool_bytes: Some(256 << 20),
        ingest: Some(IngestShape {
            every_queries: 50,
            appends: 200,
            updates: 20,
            deletes: 20,
        }),
        partitions: 32,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Everything one repetition (or the traced replay) is fed.
pub struct Inputs {
    /// The base table, its templates and default sort column.
    pub bundle: DatasetBundle,
    /// The query stream, `seq` = position.
    pub queries: Vec<Query>,
    /// The write schedule (`ingest-mixed` only).
    pub mutations: Option<MutationStream>,
    /// Fixed policy configuration.
    pub config: OreoConfig,
}

impl Inputs {
    /// The base table.
    pub fn table(&self) -> &Arc<Table> {
        &self.bundle.table
    }

    /// The default (range on arrival time) layout every run starts from —
    /// the same spec `oreo_sim::PolicySetup::oreo` starts from, so the
    /// traced replay's ledger is comparable bit for bit.
    pub fn initial_spec(&self) -> SharedSpec {
        default_spec(&self.bundle, self.config.partitions, self.config.seed)
    }
}

/// The zoo configuration (§VI-A3 ratio: α = 80 against ~1 500-query
/// phases) with the candidate cadence the scenario suite uses.
fn policy_config(w: &Workload) -> OreoConfig {
    OreoConfig {
        alpha: 80.0,
        window: 100,
        generation_interval: 100,
        partitions: w.partitions,
        data_sample_rows: DATA_SAMPLE_ROWS,
        seed: POLICY_SEED,
        ..Default::default()
    }
}

/// Generate a workload's inputs: the same seed gives the same table and
/// mutation schedule, and every seed gets the workload's one stream.
pub fn generate(w: &Workload, seed: u64) -> Inputs {
    let bundle = telemetry_bundle(w.rows, seed);
    let stream = w.scenario.generate(
        bundle.table.schema(),
        ScenarioConfig {
            total_queries: w.queries,
            seed: STREAM_SEED,
        },
    );
    let mutations = w.ingest.map(|shape| {
        mutation_stream(
            bundle.table.schema(),
            w.rows as u64,
            MutationConfig {
                batches: w.queries / shape.every_queries,
                appends_per_batch: shape.appends,
                updates_per_batch: shape.updates,
                deletes_per_batch: shape.deletes,
                total_queries: w.queries,
                seed: seed ^ 0x1A6E_57ED,
            },
        )
    });
    Inputs {
        bundle,
        queries: stream.queries,
        mutations,
        config: policy_config(w),
    }
}
