//! TPC-H-shaped dataset and workload (§VI-A2).
//!
//! The paper denormalizes all TPC-H tables against `lineitem` (SF 100, one
//! 40M-row primary-key slice) and uses the 13 lineitem-touching query
//! templates. We reproduce the *shape*: a denormalized lineitem-like table
//! whose columns, value domains, and inter-column correlations (order →
//! ship → receipt dates) mirror dbgen closely enough that each template's
//! predicates have realistic selectivities, at a configurable row count.
//!
//! Dates are integer days since 1992-01-01 (TPC-H's date domain runs through
//! 1998-12-31 ≈ day 2555).

use crate::bundle::DatasetBundle;
use crate::generator::Template;
use oreo_query::{ColumnType, QueryBuilder, Schema};
use oreo_storage::{Table, TableBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Day number of 1992-01-01.
pub const DATE_MIN: i64 = 0;
/// Day number of 1998-12-31.
pub const DATE_MAX: i64 = 2555;

const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "HOUSEHOLD",
    "MACHINERY",
];
const SHIP_MODES: [&str; 7] = ["AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"];
const SHIP_INSTRUCT: [&str; 4] = [
    "COLLECT COD",
    "DELIVER IN PERSON",
    "NONE",
    "TAKE BACK RETURN",
];
const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
const CONTAINERS: [&str; 8] = [
    "JUMBO PKG",
    "LG BOX",
    "LG CASE",
    "MED BAG",
    "MED BOX",
    "SM BOX",
    "SM PKG",
    "WRAP CASE",
];
const TYPES: [&str; 12] = [
    "ECONOMY ANODIZED",
    "ECONOMY BURNISHED",
    "ECONOMY PLATED",
    "LARGE BRUSHED",
    "LARGE POLISHED",
    "MEDIUM ANODIZED",
    "PROMO ANODIZED",
    "PROMO BURNISHED",
    "PROMO PLATED",
    "SMALL BRUSHED",
    "STANDARD PLATED",
    "STANDARD POLISHED",
];

/// The denormalized schema (lineitem ⋈ orders ⋈ customer ⋈ supplier ⋈ part).
pub fn tpch_schema() -> Schema {
    use ColumnType::*;
    Schema::from_pairs([
        ("l_orderkey", Int),
        ("l_partkey", Int),
        ("l_suppkey", Int),
        ("l_linenumber", Int),
        ("l_quantity", Int),
        ("l_extendedprice", Float),
        ("l_discount", Float),
        ("l_tax", Float),
        ("l_returnflag", Str),
        ("l_linestatus", Str),
        ("l_shipdate", Timestamp),
        ("l_commitdate", Timestamp),
        ("l_receiptdate", Timestamp),
        ("l_shipinstruct", Str),
        ("l_shipmode", Str),
        ("o_orderdate", Timestamp),
        ("o_orderpriority", Str),
        ("o_orderstatus", Str),
        ("o_totalprice", Float),
        ("c_mktsegment", Str),
        ("c_region", Str),
        ("c_nationkey", Int),
        ("s_region", Str),
        ("s_nationkey", Int),
        ("p_brand", Str),
        ("p_container", Str),
        ("p_type", Str),
        ("p_size", Int),
    ])
}

/// Generate the denormalized table.
pub fn tpch_table(rows: usize, seed: u64) -> Table {
    let schema = Arc::new(tpch_schema());
    let mut b = TableBuilder::new(Arc::clone(&schema));
    let mut rng = StdRng::seed_from_u64(seed);

    for i in 0..rows {
        let orderkey = i as i64 / 4; // ~4 lines per order, arrival-ordered
        let orderdate = rng.random_range(DATE_MIN..=DATE_MAX - 151);
        let shipdate = orderdate + rng.random_range(1..=121);
        let commitdate = orderdate + rng.random_range(30..=90);
        let receiptdate = shipdate + rng.random_range(1..=30);
        let quantity = rng.random_range(1..=50i64);
        let price = quantity as f64 * rng.random_range(900.0..=10_000.0) / 10.0;
        // dbgen semantics: only receipts before ~mid-1995 (day 1278) can be
        // returned; later ones are "N"
        let returnflag = if receiptdate <= 1278 {
            ["A", "R"][rng.random_range(0..2)]
        } else {
            "N"
        };
        let linestatus = if shipdate > 1721 { "O" } else { "F" };
        let brand = format!(
            "Brand#{}{}",
            rng.random_range(1..=5),
            rng.random_range(1..=5)
        );

        b.push_int(0, orderkey);
        b.push_int(1, rng.random_range(0..200_000));
        b.push_int(2, rng.random_range(0..10_000));
        b.push_int(3, (i % 4) as i64 + 1);
        b.push_int(4, quantity);
        b.push_float(5, price);
        b.push_float(6, f64::from(rng.random_range(0..=10u32)) / 100.0);
        b.push_float(7, f64::from(rng.random_range(0..=8u32)) / 100.0);
        b.push_str(8, returnflag);
        b.push_str(9, linestatus);
        b.push_int(10, shipdate);
        b.push_int(11, commitdate);
        b.push_int(12, receiptdate);
        b.push_str(13, SHIP_INSTRUCT[rng.random_range(0..SHIP_INSTRUCT.len())]);
        b.push_str(14, SHIP_MODES[rng.random_range(0..SHIP_MODES.len())]);
        b.push_int(15, orderdate);
        b.push_str(16, PRIORITIES[rng.random_range(0..PRIORITIES.len())]);
        b.push_str(17, ["F", "O", "P"][rng.random_range(0..3)]);
        b.push_float(18, price * rng.random_range(1.0..6.0));
        b.push_str(19, SEGMENTS[rng.random_range(0..SEGMENTS.len())]);
        b.push_str(20, REGIONS[rng.random_range(0..REGIONS.len())]);
        b.push_int(21, rng.random_range(0..25));
        b.push_str(22, REGIONS[rng.random_range(0..REGIONS.len())]);
        b.push_int(23, rng.random_range(0..25));
        b.push_str(24, &brand);
        b.push_str(25, CONTAINERS[rng.random_range(0..CONTAINERS.len())]);
        b.push_str(26, TYPES[rng.random_range(0..TYPES.len())]);
        b.push_int(27, rng.random_range(1..=50));
        b.finish_row();
    }
    b.finish()
}

fn pick<'a>(rng: &mut StdRng, xs: &[&'a str]) -> &'a str {
    xs[rng.random_range(0..xs.len())]
}

/// The 13 lineitem-touching templates (analogues of q1, q3, q4, q5, q6, q7,
/// q8, q10, q12, q14, q17, q19, q21; q9/q18 are excluded as in the paper).
pub fn tpch_templates(schema: &Arc<Schema>) -> Vec<Template> {
    let mut out = Vec::new();
    let s = |schema: &Arc<Schema>| Arc::clone(schema);

    // q1: pricing summary — shipdate <= cutoff near the end of the domain
    let sc = s(schema);
    out.push(Template::new(0, "q1", move |rng| {
        let delta = rng.random_range(60..=120);
        QueryBuilder::new(&sc)
            .le("l_shipdate", DATE_MAX - delta)
            .build_predicate()
    }));

    // q3: shipping priority — segment + orderdate < D + shipdate > D
    let sc = s(schema);
    out.push(Template::new(1, "q3", move |rng| {
        let d = rng.random_range(1100..=1200); // around 1995-03
        QueryBuilder::new(&sc)
            .eq("c_mktsegment", pick(rng, &SEGMENTS))
            .lt("o_orderdate", d)
            .gt("l_shipdate", d)
            .build_predicate()
    }));

    // q4: order priority checking — orderdate in a quarter
    let sc = s(schema);
    out.push(Template::new(2, "q4", move |rng| {
        let d = rng.random_range(DATE_MIN..=DATE_MAX - 240);
        QueryBuilder::new(&sc)
            .between("o_orderdate", d, d + 90)
            .build_predicate()
    }));

    // q5: local supplier volume — region + orderdate within one year
    let sc = s(schema);
    out.push(Template::new(3, "q5", move |rng| {
        let y = rng.random_range(0..=5) * 365;
        QueryBuilder::new(&sc)
            .eq("c_region", pick(rng, &REGIONS))
            .between("o_orderdate", y, y + 364)
            .build_predicate()
    }));

    // q6: forecasting revenue — shipdate year + discount band + quantity
    let sc = s(schema);
    out.push(Template::new(4, "q6", move |rng| {
        let y = rng.random_range(0..=5) * 365;
        let d = f64::from(rng.random_range(2..=9u32)) / 100.0;
        QueryBuilder::new(&sc)
            .between("l_shipdate", y, y + 364)
            .between("l_discount", d - 0.011, d + 0.011)
            .lt("l_quantity", rng.random_range(24..=25i64))
            .build_predicate()
    }));

    // q7: volume shipping — nation pair + shipdate 1995..1996
    let sc = s(schema);
    out.push(Template::new(5, "q7", move |rng| {
        QueryBuilder::new(&sc)
            .eq("s_nationkey", rng.random_range(0..25i64))
            .eq("c_nationkey", rng.random_range(0..25i64))
            .between("l_shipdate", 1096, 1825)
            .build_predicate()
    }));

    // q8: market share — part type + region + orderdate 1995..1996
    let sc = s(schema);
    out.push(Template::new(6, "q8", move |rng| {
        QueryBuilder::new(&sc)
            .eq("p_type", pick(rng, &TYPES))
            .eq("c_region", pick(rng, &REGIONS))
            .between("o_orderdate", 1096, 1825)
            .build_predicate()
    }));

    // q10: returned items — orderdate quarter + returnflag = R
    let sc = s(schema);
    out.push(Template::new(7, "q10", move |rng| {
        let d = rng.random_range(DATE_MIN..=1200);
        QueryBuilder::new(&sc)
            .between("o_orderdate", d, d + 90)
            .eq("l_returnflag", "R")
            .build_predicate()
    }));

    // q12: shipping modes — two modes + receiptdate within a year
    let sc = s(schema);
    out.push(Template::new(8, "q12", move |rng| {
        let y = rng.random_range(0..=5) * 365;
        let m1 = pick(rng, &SHIP_MODES);
        let m2 = pick(rng, &SHIP_MODES);
        QueryBuilder::new(&sc)
            .in_set("l_shipmode", [m1, m2])
            .between("l_receiptdate", y, y + 364)
            .build_predicate()
    }));

    // q14: promotion effect — shipdate within one month. dbgen draws the
    // month from 1993-01..1997-10, well inside the data mass (the first and
    // last months of the shipdate domain are thinly populated).
    let sc = s(schema);
    out.push(Template::new(9, "q14", move |rng| {
        let d = rng.random_range(365..=2130);
        QueryBuilder::new(&sc)
            .between("l_shipdate", d, d + 29)
            .build_predicate()
    }));

    // q17: small-quantity-order revenue — brand + container
    let sc = s(schema);
    out.push(Template::new(10, "q17", move |rng| {
        let brand = format!(
            "Brand#{}{}",
            rng.random_range(1..=5),
            rng.random_range(1..=5)
        );
        QueryBuilder::new(&sc)
            .eq("p_brand", brand.as_str())
            .eq("p_container", pick(rng, &CONTAINERS))
            .build_predicate()
    }));

    // q19: discounted revenue — brand + container set + quantity band
    let sc = s(schema);
    out.push(Template::new(11, "q19", move |rng| {
        let brand = format!(
            "Brand#{}{}",
            rng.random_range(1..=5),
            rng.random_range(1..=5)
        );
        let q = rng.random_range(1..=30i64);
        QueryBuilder::new(&sc)
            .eq("p_brand", brand.as_str())
            .in_set("p_container", ["SM BOX", "SM PKG", "MED BAG", "MED BOX"])
            .between("l_quantity", q, q + 10)
            .build_predicate()
    }));

    // q21: suppliers who kept orders waiting — nation + receiptdate year
    let sc = s(schema);
    out.push(Template::new(12, "q21", move |rng| {
        let y = rng.random_range(0..=5) * 365;
        QueryBuilder::new(&sc)
            .eq("s_nationkey", rng.random_range(0..25i64))
            .between("l_receiptdate", y, y + 364)
            .build_predicate()
    }));

    out
}

/// Build the full TPC-H bundle.
pub fn tpch_bundle(rows: usize, seed: u64) -> DatasetBundle {
    let table = Arc::new(tpch_table(rows, seed));
    let templates = tpch_templates(table.schema());
    DatasetBundle {
        name: "TPC-H",
        table,
        templates,
        default_sort_col: 0, // l_orderkey: the primary-key / arrival order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_shape() {
        let t = tpch_table(2000, 1);
        assert_eq!(t.num_rows(), 2000);
        assert_eq!(t.num_columns(), 28);
    }

    #[test]
    fn date_correlations_hold() {
        let t = tpch_table(500, 2);
        let s = t.schema();
        let (od, sd, cd, rd) = (
            s.col("o_orderdate").unwrap(),
            s.col("l_shipdate").unwrap(),
            s.col("l_commitdate").unwrap(),
            s.col("l_receiptdate").unwrap(),
        );
        for r in 0..t.num_rows() {
            let order = t.scalar(r, od).as_int().unwrap();
            let ship = t.scalar(r, sd).as_int().unwrap();
            let commit = t.scalar(r, cd).as_int().unwrap();
            let receipt = t.scalar(r, rd).as_int().unwrap();
            assert!(order < ship, "order {order} !< ship {ship}");
            assert!(commit > order);
            assert!(receipt > ship);
            assert!((DATE_MIN..=DATE_MAX + 151).contains(&receipt));
        }
    }

    #[test]
    fn thirteen_templates_with_sane_selectivity() {
        let t = tpch_table(4000, 3);
        let templates = tpch_templates(t.schema());
        assert_eq!(templates.len(), 13);
        let mut rng = StdRng::seed_from_u64(4);
        for tpl in &templates {
            let q = tpl.instantiate(&mut rng);
            let sel = t.selectivity(&q.predicate);
            // q1 is a near-full scan by design (shipdate <= end - Δ),
            // matching real TPC-H; everything else reads a minority.
            let cap = if tpl.name == "q1" { 1.0 } else { 0.9 };
            assert!(
                (0.0..=cap).contains(&sel),
                "{}: selectivity {sel} out of range",
                tpl.name
            );
            assert_eq!(q.template, Some(tpl.id));
        }
    }

    #[test]
    fn q6_is_selective() {
        let t = tpch_table(5000, 5);
        let templates = tpch_templates(t.schema());
        let mut rng = StdRng::seed_from_u64(6);
        // q6: one year (1/7) × discount band (~3/11) × quantity < 24 (~0.47)
        let q = templates[4].instantiate(&mut rng);
        let sel = t.selectivity(&q.predicate);
        assert!(sel < 0.1, "q6 selectivity {sel}");
    }

    #[test]
    fn bundle_streams() {
        let b = tpch_bundle(1000, 7);
        let s = b.stream(crate::generator::StreamConfig {
            total_queries: 500,
            segments: 5,
            seed: 1,
            ..Default::default()
        });
        assert_eq!(s.queries.len(), 500);
        assert_eq!(b.name, "TPC-H");
        // every query's template is one of the bundle's
        for q in &s.queries {
            assert!(b.template(q.template.unwrap()).is_some());
        }
    }

    #[test]
    fn deterministic_table() {
        let a = tpch_table(300, 9);
        let b = tpch_table(300, 9);
        for r in [0, 100, 299] {
            for c in 0..a.num_columns() {
                assert_eq!(a.scalar(r, c), b.scalar(r, c));
            }
        }
    }
}
