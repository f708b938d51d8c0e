//! Criterion microbenchmarks of OREO's hot paths: Morton encoding, Qd-tree
//! construction, metadata-based cost evaluation, D-UMTS steps, Algorithm 5
//! admission distances, and the on-disk codec.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use oreo_core::{Dumts, DumtsConfig, LayoutManager, ManagerConfig, TransitionPolicy};
use oreo_layout::{
    build_exact_model, build_model, morton_encode, LayoutSpec, QdTreeBuilder, QdTreeGenerator,
    RangeLayout, ZOrderLayout,
};
use oreo_query::QueryBuilder;
use oreo_sim::offline_optimum;
use oreo_storage::{cost_vector_distance, TableSnapshot, TieredStore};
use oreo_workload::{telemetry, tpch, Scenario, ScenarioConfig, StreamConfig};
use std::hint::black_box;
use std::sync::Arc;

fn bench_morton(c: &mut Criterion) {
    c.bench_function("morton_encode_3d_8bit", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(97);
            black_box(morton_encode(
                &[i & 0xff, (i >> 8) & 0xff, (i >> 3) & 0xff],
                8,
            ))
        })
    });
}

fn bench_qdtree_build(c: &mut Criterion) {
    let table = tpch::tpch_table(4_000, 1);
    let templates = tpch::tpch_templates(table.schema());
    let stream = oreo_workload::generate_stream(
        &templates,
        StreamConfig {
            total_queries: 200,
            segments: 2,
            seed: 3,
            ..Default::default()
        },
    );
    c.bench_function("qdtree_build_4k_sample_200q_k32", |b| {
        b.iter(|| black_box(QdTreeBuilder::new(32).build(&table, &stream.queries)))
    });

    // The build a generation boundary of the benchmark's `drift-small`
    // makes: a 1 500-row sample of the telemetry table and one 100-query
    // window of the zoo's `correlated` stream, whose literals rarely repeat
    // (~600 candidate cuts where the TPC-H templates above give a few
    // dozen) — milliseconds, not microseconds.
    use rand::SeedableRng;
    let table = telemetry::telemetry_table(20_000, 7);
    let sample = table.sample(&mut rand::rngs::StdRng::seed_from_u64(5), 1_500);
    let sample = sample.prepared();
    let stream = Scenario::CorrelatedColumns.generate(
        table.schema(),
        ScenarioConfig {
            total_queries: 8_000,
            seed: 7,
        },
    );
    let window = &stream.queries[4_000..4_100];
    c.bench_function("qdtree_build_1500_sample_100q_k32_correlated", |b| {
        b.iter(|| black_box(QdTreeBuilder::new(32).build(&sample, window)))
    });
}

/// The whole-table passes of a rewrite (`oreo_engine::materialize`, then a
/// tiered publish): route every row through a 64-leaf tree, regroup with
/// pruning metadata, persist the generation.
fn bench_rewrite_passes(c: &mut Criterion) {
    use rand::SeedableRng;
    let table = telemetry::telemetry_table(300_000, 1);
    let templates = telemetry::telemetry_templates(table.schema());
    let stream = oreo_workload::generate_stream(
        &templates,
        StreamConfig {
            total_queries: 100,
            segments: 2,
            seed: 3,
            ..Default::default()
        },
    );
    let sample = table.sample(&mut rand::rngs::StdRng::seed_from_u64(5), 1_500);
    let tree = QdTreeBuilder::new(64).build(&sample, &stream.queries);
    c.bench_function("qdtree_assign_300k_k64", |b| {
        b.iter(|| black_box(LayoutSpec::assign(&tree, &table)))
    });
    // The exact model of that layout, as the simulator prices every query
    // it serves with: route the whole table, compile the model.
    c.bench_function("build_exact_model_300k_k64", |b| {
        b.iter(|| black_box(build_exact_model(&tree, 0, &table)))
    });
    let assignment = LayoutSpec::assign(&tree, &table);
    // The reorganization window's two halves on the same rewrite: regroup
    // + metadata in memory, then encode + write + fsync + rename. The
    // publish timing includes removing the generation it supersedes.
    c.bench_function("snapshot_build_300k_k64", |b| {
        b.iter(|| black_box(TableSnapshot::build(&table, &assignment, tree.k(), 1, "qd")))
    });
    let root = std::env::temp_dir().join(format!("oreo-microbench-{}", std::process::id()));
    let mut built = TableSnapshot::build(&table, &assignment, tree.k(), 1, "qd");
    let (store, first) = TieredStore::create(&root, &mut built).expect("create tiered store");
    println!(
        "publish_generation_300k_k64: {} files, {} bytes per publish",
        first.files, first.bytes_written
    );
    c.bench_function("publish_generation_300k_k64", |b| {
        b.iter_batched(
            || built.clone(),
            |mut next| store.publish(&mut next).expect("publish"),
            BatchSize::LargeInput,
        )
    });
    drop((store, built));
    let _ = std::fs::remove_dir_all(&root);
}

fn bench_cost_eval(c: &mut Criterion) {
    let table = tpch::tpch_table(20_000, 1);
    let templates = tpch::tpch_templates(table.schema());
    let stream = oreo_workload::generate_stream(
        &templates,
        StreamConfig {
            total_queries: 100,
            segments: 2,
            seed: 3,
            ..Default::default()
        },
    );
    let tree = QdTreeBuilder::new(64).build(&table, &stream.queries);
    let model = build_exact_model(&tree, 0, &table);
    let q = &stream.queries[0];
    c.bench_function("layout_cost_eval_k64", |b| {
        b.iter(|| black_box(model.cost(q)))
    });
    let sample = &stream.queries[..64.min(stream.queries.len())];
    c.bench_function("cost_vector_64q_k64", |b| {
        b.iter(|| black_box(model.cost_vector(sample)))
    });

    // What `drift-small` costs on every query, once per live state: a
    // qd-tree's sample model (1 500 rows over 32 leaves, ~47 rows each, so
    // even the wide int columns keep exact distinct sets) against the
    // `correlated` stream's two-int-BETWEEN queries; and what each
    // generation boundary costs per state and candidate, one vector over
    // a 64-query admission sample.
    use rand::SeedableRng;
    let table = telemetry::telemetry_table(20_000, 7);
    let data_sample = table.sample(&mut rand::rngs::StdRng::seed_from_u64(5), 1_500);
    let data_sample = data_sample.prepared();
    let stream = Scenario::CorrelatedColumns.generate(
        table.schema(),
        ScenarioConfig {
            total_queries: 8_000,
            seed: 7,
        },
    );
    let tree = QdTreeBuilder::new(32).build(&data_sample, &stream.queries[4_000..4_100]);
    // The other half of a candidate's construction, after the tree: route
    // the sample and compile its model from the sample's columns.
    c.bench_function("build_model_1500_sample_k32_correlated", |b| {
        b.iter(|| black_box(build_model(&tree, 0, &data_sample, table.num_rows() as f64)))
    });
    let model = build_model(&tree, 0, &data_sample, table.num_rows() as f64);
    let q = &stream.queries[4_100];
    c.bench_function("layout_cost_eval_k32_sample_correlated", |b| {
        b.iter(|| black_box(model.cost(q)))
    });
    let admission = &stream.queries[4_100..4_164];
    c.bench_function("cost_vector_64q_k32_sample_correlated", |b| {
        b.iter(|| black_box(model.cost_vector(admission)))
    });

    // The whole construct step of that boundary (`CandidateTask::build`),
    // as a layout manager captures it: grow the window's tree on the
    // manager's prepared sample, compile its sample model, and cost it and
    // the 3 states live at capture over the admission sample.
    let full_rows = table.num_rows() as f64;
    let initial = Arc::new(RangeLayout::from_sample(&data_sample, 0, 32));
    let config = ManagerConfig {
        window: 100,
        generation_interval: 100,
        ..Default::default()
    };
    let generator = Arc::new(QdTreeGenerator::new());
    let (mut manager, initial) = LayoutManager::new(
        data_sample.clone(),
        full_rows,
        generator,
        32,
        initial,
        config,
    );
    let mut live = vec![(initial.id(), Arc::new(initial))];
    for (id, window) in [(1, 3_800..3_900), (2, 3_900..4_000)] {
        let tree = QdTreeBuilder::new(32).build(&data_sample, &stream.queries[window]);
        live.push((
            id,
            Arc::new(build_model(&tree, id, &data_sample, full_rows)),
        ));
    }
    let task = (stream.queries[4_000..4_100].iter())
        .find_map(|q| manager.capture(q, live.iter().map(|(id, m)| (*id, m))))
        .expect("the window's last query is a boundary");
    c.bench_function("candidate_task_build_1500_sample_k32_correlated", |b| {
        b.iter_batched(|| task.clone(), |task| task.build(), BatchSize::SmallInput)
    });
}

fn bench_zorder_route(c: &mut Criterion) {
    let table = tpch::tpch_table(20_000, 1);
    let shipdate = table.schema().col("l_shipdate").unwrap();
    let qty = table.schema().col("l_quantity").unwrap();
    let layout = ZOrderLayout::from_sample(&table, &[shipdate, qty], 8, 64);
    c.bench_function("zorder_assign_20k_rows", |b| {
        b.iter(|| black_box(LayoutSpec::assign(&layout, &table)))
    });
}

fn bench_dumts_step(c: &mut Criterion) {
    c.bench_function("dumts_observe_query_24_states", |b| {
        let states: Vec<u64> = (0..24).collect();
        b.iter_batched(
            || {
                let mut d = Dumts::new(
                    &states,
                    DumtsConfig {
                        alpha: 80.0,
                        transition: TransitionPolicy::default_biased(),
                        seed: 1,
                    },
                );
                // jump weights as OREO sets them: a skipped fraction per state
                for &s in &states {
                    d.set_weight(s, ((s * 37) % 24) as f64 / 24.0);
                }
                d
            },
            |mut d| {
                for i in 0..100u64 {
                    d.observe_query(|s| ((s * 31 + i) % 97) as f64 / 97.0);
                }
                black_box(d.switches())
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_admission_distance(c: &mut Criterion) {
    let a: Vec<f64> = (0..64).map(|i| (i % 7) as f64 / 7.0).collect();
    let bvec: Vec<f64> = (0..64).map(|i| (i % 5) as f64 / 5.0).collect();
    c.bench_function("admission_l1_distance_64", |b| {
        b.iter(|| black_box(cost_vector_distance(&a, &bvec)))
    });
}

fn bench_codec(c: &mut Criterion) {
    let table = tpch::tpch_table(10_000, 1);
    c.bench_function("encode_partition_10k_rows", |b| {
        b.iter(|| black_box(oreo_storage::format::encode_partition(&table)))
    });
    let bytes = oreo_storage::format::encode_partition(&table);
    let schema = table.schema().clone();
    c.bench_function("decode_partition_10k_rows", |b| {
        b.iter(|| black_box(oreo_storage::format::decode_partition(&schema, &bytes).unwrap()))
    });

    // One integer column payload at the tiered-cold partition size
    // (300k rows / k=64): the unit a pooled scan decodes per column read.
    // `random34bit` is a key-like column no layout narrows; `clustered` is
    // what a good layout leaves in a partition — a 12-bit band.
    use oreo_storage::encode::{checksum, decode_i64_block, encode_i64_block};
    use rand::{Rng, SeedableRng};
    const ROWS: usize = 4687;
    let mut rng = rand::rngs::StdRng::seed_from_u64(20);
    let random: Vec<i64> = (0..ROWS)
        .map(|_| (rng.random::<u64>() >> 30) as i64)
        .collect();
    let clustered: Vec<i64> = (0..ROWS)
        .map(|_| 1_000_000 + (rng.random::<u64>() >> 52) as i64)
        .collect();
    for (name, values) in [("random34bit", &random), ("clustered", &clustered)] {
        let mut payload = Vec::new();
        encode_i64_block(&mut payload, values);
        c.bench_function(&format!("decode_int_payload_{ROWS}_{name}"), |b| {
            b.iter(|| black_box(decode_i64_block(&mut black_box(&payload[..]), ROWS).unwrap()))
        });
    }
    // The same payloads as a pooled scan reads them: the frame headers
    // walked, then one range keeping half of the values' band evaluated on
    // the packed frames — no `Vec<i64>` is built.
    use oreo_storage::encode::IntFrames;
    use oreo_storage::kernel::{scan_partition, ColumnInput, ScanScratch};
    use oreo_storage::KernelCounters;
    let rows: Vec<u32> = (0..ROWS as u32).collect();
    for (name, values, band) in [
        ("random34bit", &random, (0, 1i64 << 34)),
        (
            "clustered",
            &clustered,
            (1_000_000, 1_000_000 + (1i64 << 12)),
        ),
    ] {
        let mut payload = Vec::new();
        encode_i64_block(&mut payload, values);
        let half = QueryBuilder::new(&std::sync::Arc::new(oreo_query::Schema::from_pairs([(
            "v",
            oreo_query::ColumnType::Int,
        )])))
        .between("v", band.0, (band.0 + band.1) / 2 - 1)
        .build_predicate();
        let compiled = oreo_query::CompiledPredicate::compile(&half);
        let plan = compiled.columns()[0].plan();
        let mut scratch = ScanScratch::default();
        let mut matches = Vec::with_capacity(ROWS);
        c.bench_function(&format!("eval_int_payload_{ROWS}_{name}"), |b| {
            b.iter_batched(
                || payload.clone(),
                |payload| {
                    let frames = IntFrames::new(payload, ROWS).unwrap();
                    matches.clear();
                    let mut counters = KernelCounters::default();
                    scan_partition(
                        &[(plan, ColumnInput::Packed(&frames))],
                        &rows,
                        &mut scratch,
                        &mut matches,
                        &mut counters,
                    );
                    matches.len()
                },
                BatchSize::SmallInput,
            )
        });
    }
    c.bench_function(&format!("encode_int_payload_{ROWS}_random34bit"), |b| {
        b.iter(|| {
            let mut payload = Vec::with_capacity(8 * ROWS);
            encode_i64_block(&mut payload, black_box(&random));
            black_box(payload)
        })
    });
    let page: Vec<u8> = (0..16 * 1024).map(|i| (i * 31 % 251) as u8).collect();
    c.bench_function("checksum_16k", |b| {
        b.iter(|| black_box(checksum(black_box(&page))))
    });
}

/// A fold's concatenation of dictionary columns: the string columns of a
/// 70 k-row telemetry base and two 2.5 k-row delta runs, each part with
/// its own dictionary.
fn bench_concat(c: &mut Criterion) {
    use oreo_query::{ColumnType, Schema};
    use oreo_storage::{concat_tables, Table};
    use std::sync::Arc;
    let parts: Vec<Table> = [(70_000, 1), (2_500, 2), (2_500, 3)]
        .into_iter()
        .map(|(rows, seed)| {
            let t = telemetry::telemetry_table(rows, seed);
            let cols = t.schema().columns_of_type(ColumnType::Str);
            let defs = cols.iter().map(|&c| t.schema().column(c).clone());
            let schema = Arc::new(Schema::new(defs.collect()));
            Table::new(schema, cols.iter().map(|&c| t.column(c).clone()).collect())
        })
        .collect();
    let schema = Arc::clone(parts[0].schema());
    c.bench_function("concat_str_columns_fold_75k", |b| {
        b.iter(|| black_box(concat_tables(&schema, &parts).unwrap()))
    });
}

fn bench_offline_dp(c: &mut Criterion) {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let costs: Vec<Vec<f64>> = (0..2_000)
        .map(|_| (0..20).map(|_| rng.random::<f64>()).collect())
        .collect();
    c.bench_function("offline_dp_2000q_20_states", |b| {
        b.iter(|| black_box(offline_optimum(&costs, 80.0).total_cost))
    });
}

fn bench_queries(c: &mut Criterion) {
    let table = tpch::tpch_table(50_000, 1);
    let q = QueryBuilder::new(table.schema())
        .between("l_shipdate", 1000, 1365)
        .lt("l_quantity", 24)
        .build();
    c.bench_function("row_predicate_eval_50k_rows", |b| {
        b.iter(|| black_box(table.selectivity(&q.predicate)))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_morton,
        bench_qdtree_build,
        bench_rewrite_passes,
        bench_cost_eval,
        bench_zorder_route,
        bench_dumts_step,
        bench_admission_distance,
        bench_codec,
        bench_concat,
        bench_offline_dp,
        bench_queries
);
criterion_main!(benches);
