//! Qd-tree layouts (Yang et al., SIGMOD 2020), greedy construction.
//!
//! A Qd-tree is a binary decision tree whose inner nodes hold predicates
//! drawn from the query workload (Fig. 2 of the paper). Records route to
//! leaves (= partitions) by evaluating the predicates top-down. Our builder
//! matches the paper's evaluation setup: "the greedy construction algorithm
//! … does not include any advanced cuts", built on a 0.1–1% data sample.
//!
//! **Greedy benefit.** For a candidate cut `a` at a node holding sample rows
//! `R` (split into `R_yes`/`R_no`), each workload query `q` contributes:
//! `|R_no|` if `q`'s satisfying set on `a`'s column is contained in `a`'s
//! (the query never needs the no-side), `|R_yes|` if it is disjoint from
//! `a`'s (never needs the yes-side), 0 otherwise. Frequent query shapes
//! appear repeatedly in the workload sample, so benefits are naturally
//! frequency-weighted.
//!
//! **Node independence.** Whether `q` is contained in or disjoint from `a`
//! compares two satisfying sets and never looks at `R`, so the builder
//! counts both kinds of query once per build (`n_sub`, `n_dis`) and the
//! benefit of `a` at any node is the integer `n_sub·|R_no| + n_dis·|R_yes|`.
//! When every query's set on a column is an integer interval, both counts
//! are binary searches over the window's interval ends, sorted once per
//! column (a cut bounded on both sides still counts `n_sub` query by
//! query). Which rows `a` matches does not depend on the node either: each
//! candidate is evaluated once over the whole sample into a bitmap — an
//! integer range from a [`RankIndex`] of its column, sorted once per build,
//! anything else by a typed column kernel pass — and a node's `|R_yes|` is
//! the popcount of its own row bitmap ANDed with the candidate's. A build
//! costs O(Σ n log n + C·(log n + n/64) + C·W + C·k·n/64) for C
//! candidates, W window queries, n sample rows, k leaves and one sort per
//! cut column, where the per-node row-by-row greedy paid O(k·C·(n + W)).

use crate::satset::{predicate_satset, SatSet};
use crate::spec::{LayoutGenerator, LayoutSpec, SharedSpec};
use oreo_query::{Atom, ColId, ColumnPlan, CompareOp, Query};
use oreo_storage::kernel::{self, RankIndex};
use oreo_storage::{atom_matches_ref, Table};
use rand::rngs::StdRng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::Arc;

/// A built Qd-tree.
#[derive(Clone, Debug)]
pub struct QdTree {
    root: Node,
    k: usize,
    name: String,
}

#[derive(Clone, Debug)]
enum Node {
    Leaf(u32),
    Inner {
        atom: Atom,
        yes: Box<Node>,
        no: Box<Node>,
    },
}

impl QdTree {
    /// Height of the tree (a single leaf has depth 1).
    pub fn depth(&self) -> usize {
        fn d(n: &Node) -> usize {
            match n {
                Node::Leaf(_) => 1,
                Node::Inner { yes, no, .. } => 1 + d(yes).max(d(no)),
            }
        }
        d(&self.root)
    }

    /// The cut predicates in DFS order (diagnostics).
    pub fn cuts(&self) -> Vec<&Atom> {
        fn walk<'a>(n: &'a Node, out: &mut Vec<&'a Atom>) {
            if let Node::Inner { atom, yes, no } = n {
                out.push(atom);
                walk(yes, out);
                walk(no, out);
            }
        }
        let mut out = Vec::new();
        walk(&self.root, &mut out);
        out
    }
}

impl LayoutSpec for QdTree {
    fn k(&self) -> usize {
        self.k
    }

    fn route(&self, table: &Table, row: usize) -> u32 {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf(bid) => return *bid,
                Node::Inner { atom, yes, no } => {
                    let v = table.get(row, atom.col());
                    node = if atom_matches_ref(atom, v) { yes } else { no };
                }
            }
        }
    }

    fn describe(&self) -> String {
        self.name.clone()
    }

    /// Column-at-a-time routing: each cut is evaluated by the typed column
    /// kernels, once per block of rows, over exactly the rows that reach
    /// its node.
    fn assign(&self, table: &Table) -> Vec<u32> {
        fn walk(node: &Node, table: &Table, rows: Vec<u32>, out: &mut [u32]) {
            match node {
                Node::Leaf(bid) => rows.iter().for_each(|&r| out[r as usize] = *bid),
                Node::Inner { atom, yes, no } => {
                    let yes_rows = matching_rows(atom, table, &rows);
                    // `yes_rows` is a subsequence of `rows`: the rest is
                    // the no-side, in order.
                    let mut matched = yes_rows.iter().peekable();
                    let no_rows = rows
                        .into_iter()
                        .filter(|r| matched.next_if_eq(&r).is_none())
                        .collect();
                    walk(yes, table, yes_rows, out);
                    walk(no, table, no_rows, out);
                }
            }
        }
        // A block of rows at a time, so the row lists in flight stay
        // cache-sized however large the table is.
        const BLOCK_ROWS: usize = 1 << 16;
        let n = table.num_rows();
        let mut out = vec![0u32; n];
        for start in (0..n).step_by(BLOCK_ROWS) {
            let block = start as u32..(start + BLOCK_ROWS).min(n) as u32;
            walk(&self.root, table, block.collect(), &mut out);
        }
        out
    }
}

/// Configurable greedy builder.
#[derive(Clone, Debug)]
pub struct QdTreeBuilder {
    /// Target number of leaves (partitions).
    pub k: usize,
    /// Minimum rows (of the *sample*) per leaf; splits producing a smaller
    /// side are rejected. Defaults to `sample_rows / (4k)` when `None` — a
    /// quarter of the target partition size, loose enough that a narrow
    /// workload region (e.g. a one-month window over seven years) can still
    /// be isolated into its own partition.
    pub min_leaf_rows: Option<usize>,
}

impl QdTreeBuilder {
    /// A builder targeting at most `k` leaf partitions.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1);
        Self {
            k,
            min_leaf_rows: None,
        }
    }

    /// Overrides the minimum sample rows a leaf may hold.
    pub fn with_min_leaf_rows(mut self, rows: usize) -> Self {
        self.min_leaf_rows = Some(rows);
        self
    }

    /// Greedily build a Qd-tree from a data sample and workload sample.
    pub fn build(&self, sample: &Table, workload: &[Query]) -> QdTree {
        let nrows = sample.num_rows();
        let min_leaf = self
            .min_leaf_rows
            .unwrap_or_else(|| (nrows / (4 * self.k)).max(1));

        // The node-independent part of every benefit, once per build: how
        // many workload queries each candidate spares its no-side (`n_sub`)
        // or its yes-side (`n_dis`), and which sample rows it matches. A
        // candidate that spares no query has benefit 0 at every node and
        // could never be picked, so it is dropped here.
        struct Cut<'a> {
            atom: &'a Atom,
            n_sub: u64,
            n_dis: u64,
            rows: Vec<u64>,
        }
        let candidates = candidate_cuts(workload);
        let mut query_sats: HashMap<ColId, ColumnSats> = HashMap::new();
        let mut indexes: HashMap<ColId, RankIndex<'_>> = HashMap::new();
        let mut cuts: Vec<Cut<'_>> = Vec::new();
        for atom in &candidates {
            let col = atom.col();
            let sats = query_sats
                .entry(col)
                .or_insert_with(|| ColumnSats::new(workload, col));
            let cut_sat = SatSet::of_atom(atom);
            let (n_sub, n_dis) = match (&sats.keys, cut_sat.int_interval_keys()) {
                (Some(keys), Some(cut)) => keys.counts(cut),
                _ => sats.counts(&cut_sat),
            };
            if n_sub + n_dis > 0 {
                let index = indexes
                    .entry(col)
                    .or_insert_with(|| RankIndex::new(sample.column(col)));
                cuts.push(Cut {
                    atom,
                    n_sub,
                    n_dis,
                    rows: index.bitmap(&ColumnPlan::of_atom(atom)),
                });
            }
        }

        // A leaf: its sample rows as a bitmap, how many there are, and the
        // cuts that can still split it, each with the rows it would send to
        // its yes-side. A side smaller than `min_leaf` at a node is smaller
        // still at every descendant, so a child tests only its parent's
        // list; and a cut's yes-rows in the no-child are its yes-rows in the
        // parent less those in the yes-child, so a split intersects bitmaps
        // for one child only.
        struct Leaf {
            rows: Vec<u64>,
            size: usize,
            feasible: Vec<(usize, usize)>,
        }
        let feasible_at = |size: usize, yes: usize| yes >= min_leaf && size - yes >= min_leaf;
        // The best cut of a leaf: candidate order and a strict `>`, so the
        // earliest candidate wins a tie.
        let best_cut = |leaf: &Leaf| -> Option<(u64, usize)> {
            let mut best: Option<(u64, usize)> = None;
            for &(ci, yes) in &leaf.feasible {
                let no = leaf.size - yes;
                let benefit = cuts[ci].n_sub * no as u64 + cuts[ci].n_dis * yes as u64;
                if benefit > 0 && best.is_none_or(|(b, _)| benefit > b) {
                    best = Some((benefit, ci));
                }
            }
            best
        };

        // Arena of tree slots.
        enum Slot<'a> {
            Leaf(Leaf),
            Inner {
                atom: &'a Atom,
                yes: usize,
                no: usize,
            },
        }
        let mut slots: Vec<Slot<'_>> = Vec::new();
        // (benefit, tiebreak, slot, cut) — max-heap by benefit, then
        // *older* entries first for determinism. A slot is offered once,
        // when it is created, so no entry goes stale, and the side sizes
        // `best_cut` accepted are the sizes the split produces.
        let mut heap: BinaryHeap<(u64, Reverse<u64>, usize, usize)> = BinaryHeap::new();
        let mut counter: u64 = 0;
        let mut add_leaf = |leaf: Leaf, slots: &mut Vec<Slot<'_>>, heap: &mut BinaryHeap<_>| {
            if let Some((benefit, ci)) = best_cut(&leaf) {
                counter += 1;
                heap.push((benefit, Reverse(counter), slots.len(), ci));
            }
            slots.push(Slot::Leaf(leaf));
        };
        let root = Leaf {
            rows: full_bitmap(nrows),
            size: nrows,
            feasible: (cuts.iter().map(|cut| count(&cut.rows)).enumerate())
                .filter(|&(_, yes)| feasible_at(nrows, yes))
                .collect(),
        };
        add_leaf(root, &mut slots, &mut heap);

        let mut leaf_count = 1usize;
        while leaf_count < self.k {
            let Some((_, _, slot, cut)) = heap.pop() else {
                break; // no more beneficial cuts
            };
            let Cut { atom, rows, .. } = &cuts[cut];
            let (yes, no) = (slots.len(), slots.len() + 1);
            let inner = Slot::Inner { atom, yes, no };
            let Slot::Leaf(leaf) = std::mem::replace(&mut slots[slot], inner) else {
                unreachable!("a slot is offered to the heap once, while it is a leaf");
            };
            let matched = leaf.rows.iter().zip(rows);
            let yes_rows: Vec<u64> = matched.clone().map(|(l, c)| l & c).collect();
            let no_rows = matched.map(|(l, c)| l & !c).collect();
            let yes_size = count(&yes_rows);
            let no_size = leaf.size - yes_size;
            let (mut yes_feasible, mut no_feasible) = (Vec::new(), Vec::new());
            for (ci, in_leaf) in leaf.feasible {
                let in_yes = and_count(&yes_rows, &cuts[ci].rows);
                if feasible_at(yes_size, in_yes) {
                    yes_feasible.push((ci, in_yes));
                }
                if feasible_at(no_size, in_leaf - in_yes) {
                    no_feasible.push((ci, in_leaf - in_yes));
                }
            }
            for (rows, size, feasible) in [
                (yes_rows, yes_size, yes_feasible),
                (no_rows, no_size, no_feasible),
            ] {
                let child = Leaf {
                    rows,
                    size,
                    feasible,
                };
                add_leaf(child, &mut slots, &mut heap);
            }
            leaf_count += 1;
        }

        // Assign leaf bids in DFS order and materialize the final tree.
        fn freeze(slots: &[Slot<'_>], idx: usize, next_bid: &mut u32) -> Node {
            match &slots[idx] {
                Slot::Leaf(_) => {
                    let bid = *next_bid;
                    *next_bid += 1;
                    Node::Leaf(bid)
                }
                Slot::Inner { atom, yes, no } => Node::Inner {
                    atom: (*atom).clone(),
                    yes: Box::new(freeze(slots, *yes, next_bid)),
                    no: Box::new(freeze(slots, *no, next_bid)),
                },
            }
        }
        let mut next_bid = 0;
        let root = freeze(&slots, 0, &mut next_bid);
        let name = format!("qdtree(k={})", next_bid);
        QdTree {
            root,
            k: next_bid as usize,
            name,
        }
    }
}

/// The satisfying sets the window's queries place on one column, for
/// counting the queries a cut on it contains (`n_sub`) or is disjoint from
/// (`n_dis`).
struct ColumnSats {
    /// One set per query that constrains the column, in window order.
    sats: Vec<SatSet>,
    /// The same sets as keys, when every one is an integer interval.
    keys: Option<IntervalKeys>,
}

impl ColumnSats {
    fn new(workload: &[Query], col: ColId) -> Self {
        let sat_on_col = |q: &Query| predicate_satset(&q.predicate, col);
        let sats: Vec<SatSet> = workload.iter().filter_map(sat_on_col).collect();
        let keys: Option<Vec<_>> = sats.iter().map(SatSet::int_interval_keys).collect();
        ColumnSats {
            sats,
            keys: keys.map(IntervalKeys::new),
        }
    }

    /// `(n_sub, n_dis)` of a cut, set by set.
    fn counts(&self, cut: &SatSet) -> (u64, u64) {
        let (mut n_sub, mut n_dis) = (0u64, 0u64);
        for qsat in &self.sats {
            if qsat.subset_of(cut) {
                n_sub += 1;
            } else if qsat.disjoint_from(cut) {
                n_dis += 1;
            }
        }
        (n_sub, n_dis)
    }
}

/// A column's query intervals as [`SatSet::int_interval_keys`] pairs, with
/// each end also sorted on its own.
struct IntervalKeys {
    pairs: Vec<(i128, i128)>,
    lows: Vec<i128>,
    highs: Vec<i128>,
}

impl IntervalKeys {
    fn new(pairs: Vec<(i128, i128)>) -> Self {
        // `predicate_satset` returns `Empty`, not an inverted interval, for
        // a contradiction, so every pair is ordered.
        debug_assert!(pairs.iter().all(|(lo, hi)| lo <= hi));
        let mut lows: Vec<i128> = pairs.iter().map(|p| p.0).collect();
        let mut highs: Vec<i128> = pairs.iter().map(|p| p.1).collect();
        lows.sort_unstable();
        highs.sort_unstable();
        IntervalKeys { pairs, lows, highs }
    }

    /// `(n_sub, n_dis)` of a cut keyed `(lo, hi)`, `lo <= hi`. An interval
    /// is disjoint from the cut iff it ends below `lo` or starts above `hi`
    /// (one at most, as it is ordered), and is then not inside it; so
    /// `n_dis` is two binary searches, and so is `n_sub` of a cut open on
    /// one side. Only a cut bounded on both sides counts `n_sub` pair by
    /// pair.
    fn counts(&self, (lo, hi): (i128, i128)) -> (u64, u64) {
        let below = |keys: &[i128], k: i128| keys.partition_point(|&x| x < k);
        let at_most = |keys: &[i128], k: i128| keys.partition_point(|&x| x <= k);
        let n = self.pairs.len();
        let n_dis = below(&self.highs, lo) + (n - at_most(&self.lows, hi));
        let n_sub = if hi == i128::MAX {
            n - below(&self.lows, lo)
        } else if lo == i128::MIN {
            at_most(&self.highs, hi)
        } else {
            let inside = |&&(l, h): &&(i128, i128)| l >= lo && h <= hi;
            self.pairs.iter().filter(inside).count()
        };
        (n_sub as u64, n_dis as u64)
    }
}

/// Candidate cuts: deduplicated atoms from the workload, in first-use
/// order, plus their half-range / equality decompositions — a narrow
/// `BETWEEN lo AND hi` rarely makes a feasible cut by itself (its yes-side
/// is tiny), but its component bounds `>= lo` / `<= hi` split well and
/// compose hierarchically, which is how Qd-tree uses workload predicates.
fn candidate_cuts(workload: &[Query]) -> Vec<Atom> {
    let mut seen: HashSet<Atom> = HashSet::new();
    let mut candidates: Vec<Atom> = Vec::new();
    let mut push = |atom: Atom| {
        if seen.insert(atom.clone()) {
            candidates.push(atom);
        }
    };
    for q in workload {
        for a in q.predicate.atoms() {
            push(a.clone());
            match a {
                Atom::Between { col, low, high } => {
                    for (op, value) in [(CompareOp::Ge, low), (CompareOp::Le, high)] {
                        push(Atom::Compare {
                            col: *col,
                            op,
                            value: value.clone(),
                        });
                    }
                }
                Atom::InSet { col, set } if set.len() <= 4 => {
                    for v in set {
                        push(Atom::Compare {
                            col: *col,
                            op: CompareOp::Eq,
                            value: v.clone(),
                        });
                    }
                }
                _ => {}
            }
        }
    }
    candidates
}

/// The entries of `rows` (positions in `table`, order kept) that satisfy
/// `atom`: one pass of the typed column kernels, not a `ValueRef` compare
/// per cell.
fn matching_rows(atom: &Atom, table: &Table, rows: &[u32]) -> Vec<u32> {
    let mut yes = rows.to_vec();
    kernel::filter_rows(
        &ColumnPlan::of_atom(atom),
        table.column(atom.col()),
        &mut yes,
    );
    yes
}

/// All of `0..nrows` as a bitmap, one bit per row in `u64` words (bits past
/// `nrows` stay clear).
fn full_bitmap(nrows: usize) -> Vec<u64> {
    let mut words = vec![u64::MAX; nrows.div_ceil(64)];
    if let (Some(last), tail @ 1..) = (words.last_mut(), nrows % 64) {
        *last = (1 << tail) - 1;
    }
    words
}

/// `|a|` of a bitmap.
fn count(a: &[u64]) -> usize {
    a.iter().map(|w| w.count_ones() as usize).sum()
}

/// `|a ∩ b|` of two equal-length bitmaps.
fn and_count(a: &[u64], b: &[u64]) -> usize {
    let words = a.iter().zip(b);
    words.map(|(x, y)| (x & y).count_ones() as usize).sum()
}

/// Generator wrapper for the LAYOUT MANAGER.
#[derive(Clone, Debug, Default)]
pub struct QdTreeGenerator {
    /// Minimum leaf rows override (`None` → `sample_rows / (4k)`, see
    /// [`QdTreeBuilder::min_leaf_rows`]).
    pub min_leaf_rows: Option<usize>,
}

impl QdTreeGenerator {
    /// A generator with the default (unconstrained) leaf size.
    pub fn new() -> Self {
        Self::default()
    }
}

impl LayoutGenerator for QdTreeGenerator {
    fn name(&self) -> &str {
        "qdtree"
    }

    fn generate(
        &self,
        sample: &Table,
        workload: &[Query],
        k: usize,
        _rng: &mut StdRng,
    ) -> SharedSpec {
        let mut builder = QdTreeBuilder::new(k);
        if let Some(m) = self.min_leaf_rows {
            builder = builder.with_min_leaf_rows(m);
        }
        Arc::new(builder.build(sample, workload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::build_exact_model;
    use oreo_query::{ColumnType, QueryBuilder, Scalar, Schema};
    use oreo_storage::TableBuilder;

    /// The per-node, row-by-row greedy this module shipped before the bitmap
    /// builder, kept verbatim (the builder is `b`) as the differential oracle.
    fn reference_build(b: &QdTreeBuilder, sample: &Table, workload: &[Query]) -> QdTree {
        let nrows = sample.num_rows();
        let min_leaf = b
            .min_leaf_rows
            .unwrap_or_else(|| (nrows / (4 * b.k)).max(1));

        // Candidate cuts: deduplicated atoms from the workload, plus their
        // half-range / equality decompositions — a narrow `BETWEEN lo AND
        // hi` rarely makes a feasible cut by itself (its yes-side is tiny),
        // but its component bounds `>= lo` / `<= hi` split well and compose
        // hierarchically, which is how Qd-tree uses workload predicates.
        let mut seen: HashSet<Atom> = HashSet::new();
        let mut candidates: Vec<Atom> = Vec::new();
        let push = |atom: Atom, seen: &mut HashSet<Atom>, out: &mut Vec<Atom>| {
            if seen.insert(atom.clone()) {
                out.push(atom);
            }
        };
        for q in workload {
            for a in q.predicate.atoms() {
                push(a.clone(), &mut seen, &mut candidates);
                match a {
                    Atom::Between { col, low, high } => {
                        push(
                            Atom::Compare {
                                col: *col,
                                op: CompareOp::Ge,
                                value: low.clone(),
                            },
                            &mut seen,
                            &mut candidates,
                        );
                        push(
                            Atom::Compare {
                                col: *col,
                                op: CompareOp::Le,
                                value: high.clone(),
                            },
                            &mut seen,
                            &mut candidates,
                        );
                    }
                    Atom::InSet { col, set } if set.len() <= 4 => {
                        for v in set {
                            push(
                                Atom::Compare {
                                    col: *col,
                                    op: CompareOp::Eq,
                                    value: v.clone(),
                                },
                                &mut seen,
                                &mut candidates,
                            );
                        }
                    }
                    _ => {}
                }
            }
        }
        let cand_sats: Vec<SatSet> = candidates.iter().map(SatSet::of_atom).collect();

        // Per-query, per-column satisfying sets (computed lazily, cached).
        let mut query_sats: Vec<HashMap<ColId, Option<SatSet>>> =
            vec![HashMap::new(); workload.len()];

        // Arena of tree slots.
        enum Slot {
            Leaf(Vec<u32>),
            Inner { atom: Atom, yes: usize, no: usize },
        }
        let mut slots: Vec<Slot> = vec![Slot::Leaf((0..nrows as u32).collect())];
        let mut leaf_count = 1usize;

        // (benefit, tiebreak, slot, candidate) — max-heap by benefit, then
        // *older* entries first for determinism.
        let mut heap: BinaryHeap<(u64, Reverse<u64>, usize, usize)> = BinaryHeap::new();
        let mut counter: u64 = 0;

        let push_best = |slot_idx: usize,
                         rows: &[u32],
                         heap: &mut BinaryHeap<(u64, Reverse<u64>, usize, usize)>,
                         query_sats: &mut Vec<HashMap<ColId, Option<SatSet>>>,
                         counter: &mut u64| {
            let mut best: Option<(u64, usize)> = None;
            for (ci, atom) in candidates.iter().enumerate() {
                let yes = rows
                    .iter()
                    .filter(|&&r| atom_matches_ref(atom, sample.get(r as usize, atom.col())))
                    .count();
                let no = rows.len() - yes;
                if yes < min_leaf || no < min_leaf {
                    continue;
                }
                let cut_sat = &cand_sats[ci];
                let col = atom.col();
                let mut benefit: u64 = 0;
                for (qi, q) in workload.iter().enumerate() {
                    let entry = query_sats[qi]
                        .entry(col)
                        .or_insert_with(|| predicate_satset(&q.predicate, col));
                    let Some(qsat) = entry else { continue };
                    if qsat.subset_of(cut_sat) {
                        benefit += no as u64;
                    } else if qsat.disjoint_from(cut_sat) {
                        benefit += yes as u64;
                    }
                }
                if benefit > 0 && best.is_none_or(|(b, _)| benefit > b) {
                    best = Some((benefit, ci));
                }
            }
            if let Some((benefit, ci)) = best {
                *counter += 1;
                heap.push((benefit, Reverse(*counter), slot_idx, ci));
            }
        };

        {
            let rows: Vec<u32> = (0..nrows as u32).collect();
            push_best(0, &rows, &mut heap, &mut query_sats, &mut counter);
        }

        while leaf_count < b.k {
            let Some((_, _, slot_idx, cand_idx)) = heap.pop() else {
                break; // no more beneficial cuts
            };
            let rows = match &slots[slot_idx] {
                Slot::Leaf(rows) => rows.clone(),
                Slot::Inner { .. } => continue, // stale entry
            };
            let atom = candidates[cand_idx].clone();
            let (yes_rows, no_rows): (Vec<u32>, Vec<u32>) = rows
                .iter()
                .partition(|&&r| atom_matches_ref(&atom, sample.get(r as usize, atom.col())));
            if yes_rows.len() < min_leaf || no_rows.len() < min_leaf {
                continue; // shouldn't happen; guard anyway
            }
            let yes_idx = slots.len();
            slots.push(Slot::Leaf(yes_rows));
            let no_idx = slots.len();
            slots.push(Slot::Leaf(no_rows));
            slots[slot_idx] = Slot::Inner {
                atom,
                yes: yes_idx,
                no: no_idx,
            };
            leaf_count += 1;

            for idx in [yes_idx, no_idx] {
                if let Slot::Leaf(rows) = &slots[idx] {
                    let rows = rows.clone();
                    push_best(idx, &rows, &mut heap, &mut query_sats, &mut counter);
                }
            }
        }

        // Assign leaf bids in DFS order and materialize the final tree.
        fn freeze(slots: &[Slot], idx: usize, next_bid: &mut u32) -> Node {
            match &slots[idx] {
                Slot::Leaf(_) => {
                    let bid = *next_bid;
                    *next_bid += 1;
                    Node::Leaf(bid)
                }
                Slot::Inner { atom, yes, no } => Node::Inner {
                    atom: atom.clone(),
                    yes: Box::new(freeze(slots, *yes, next_bid)),
                    no: Box::new(freeze(slots, *no, next_bid)),
                },
            }
        }
        let mut next_bid = 0;
        let root = freeze(&slots, 0, &mut next_bid);
        let name = format!("qdtree(k={})", next_bid);
        QdTree {
            root,
            k: next_bid as usize,
            name,
        }
    }

    fn table(n: i64) -> Table {
        let s = Arc::new(Schema::from_pairs([
            ("cpu", ColumnType::Int),
            ("mem", ColumnType::Int),
            ("user", ColumnType::Str),
        ]));
        let mut b = TableBuilder::new(Arc::clone(&s));
        for i in 0..n {
            b.push_row(&[
                Scalar::Int(i % 100),
                Scalar::Int((i * 13) % 100),
                Scalar::from(if i % 5 == 0 { "root" } else { "user" }),
            ]);
        }
        b.finish()
    }

    fn workload(t: &Table) -> Vec<Query> {
        let mut qs = Vec::new();
        for _ in 0..10 {
            qs.push(QueryBuilder::new(t.schema()).lt("cpu", 10).build());
            qs.push(QueryBuilder::new(t.schema()).gt("mem", 80).build());
            qs.push(QueryBuilder::new(t.schema()).eq("user", "root").build());
        }
        qs
    }

    #[test]
    fn builds_k_leaves_and_routes_total() {
        let t = table(1000);
        let qs = workload(&t);
        let tree = QdTreeBuilder::new(4).build(&t, &qs);
        assert!(tree.k() >= 2 && tree.k() <= 4, "k = {}", tree.k());
        let a = tree.assign(&t);
        assert_eq!(a.len(), 1000);
        assert!(a.iter().all(|&b| (b as usize) < tree.k()));
        // every leaf receives at least one row
        let mut hit = vec![false; tree.k()];
        for &b in &a {
            hit[b as usize] = true;
        }
        assert!(hit.iter().all(|&h| h));
    }

    #[test]
    fn workload_queries_skip_partitions() {
        let t = table(2000);
        let qs = workload(&t);
        let tree = QdTreeBuilder::new(8).build(&t, &qs);
        let model = build_exact_model(&tree, 1, &t);
        // each of the three workload shapes should read a minority of rows
        let cpu_q = QueryBuilder::new(t.schema()).lt("cpu", 10).build();
        assert!(model.cost(&cpu_q) < 0.5, "cpu cost {}", model.cost(&cpu_q));
        let root_q = QueryBuilder::new(t.schema()).eq("user", "root").build();
        assert!(
            model.cost(&root_q) < 0.5,
            "user cost {}",
            model.cost(&root_q)
        );
    }

    #[test]
    fn no_workload_means_single_leaf() {
        let t = table(100);
        let tree = QdTreeBuilder::new(8).build(&t, &[]);
        assert_eq!(tree.k(), 1);
        assert_eq!(tree.depth(), 1);
        assert!(tree.assign(&t).iter().all(|&b| b == 0));
    }

    #[test]
    fn min_leaf_bound_respected() {
        let t = table(1000);
        let qs = workload(&t);
        let tree = QdTreeBuilder::new(16)
            .with_min_leaf_rows(100)
            .build(&t, &qs);
        let a = tree.assign(&t);
        let mut counts = vec![0usize; tree.k()];
        for &b in &a {
            counts[b as usize] += 1;
        }
        for (leaf, c) in counts.iter().enumerate() {
            assert!(*c >= 100, "leaf {leaf} has only {c} rows");
        }
    }

    #[test]
    fn cuts_come_from_workload() {
        let t = table(500);
        let qs = workload(&t);
        let tree = QdTreeBuilder::new(4).build(&t, &qs);
        // every cut constrains a workload-referenced column with a literal
        // drawn from the workload (possibly as a Between/InSet component)
        let mut cols = HashSet::new();
        let mut literals = HashSet::new();
        for q in &qs {
            for a in q.predicate.atoms() {
                cols.insert(a.col());
                match a {
                    Atom::Compare { value, .. } => {
                        literals.insert(value.clone());
                    }
                    Atom::Between { low, high, .. } => {
                        literals.insert(low.clone());
                        literals.insert(high.clone());
                    }
                    Atom::InSet { set, .. } => literals.extend(set.iter().cloned()),
                }
            }
        }
        for cut in tree.cuts() {
            assert!(cols.contains(&cut.col()), "foreign column {cut:?}");
            match cut {
                Atom::Compare { value, .. } => {
                    assert!(literals.contains(value), "foreign literal {cut:?}")
                }
                Atom::Between { low, high, .. } => {
                    assert!(literals.contains(low) && literals.contains(high));
                }
                Atom::InSet { set, .. } => {
                    assert!(set.iter().all(|v| literals.contains(v)));
                }
            }
        }
    }

    #[test]
    fn deterministic_construction() {
        let t = table(800);
        let qs = workload(&t);
        let t1 = QdTreeBuilder::new(8).build(&t, &qs);
        let t2 = QdTreeBuilder::new(8).build(&t, &qs);
        assert_eq!(t1.assign(&t), t2.assign(&t));
    }

    #[test]
    fn routes_unseen_rows() {
        // build on a sample, route a superset
        let t = table(1000);
        let qs = workload(&t);
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(3);
        let sample = t.sample(&mut rng, 100);
        let tree = QdTreeBuilder::new(4).build(&sample, &qs);
        let a = tree.assign(&t);
        assert_eq!(a.len(), 1000);
        assert!(a.iter().all(|&b| (b as usize) < tree.k()));
    }

    #[test]
    fn assign_spans_row_blocks() {
        // more rows than one routing block, not a multiple of it
        let t = table(150_001);
        let tree = QdTreeBuilder::new(8).build(&t.project_rows(&[0, 7, 19, 40, 77]), &workload(&t));
        let routed: Vec<u32> = (0..t.num_rows()).map(|r| tree.route(&t, r)).collect();
        assert!(tree.k() > 1);
        assert_eq!(tree.assign(&t), routed);
    }

    mod proptests {
        use super::*;
        use oreo_query::Predicate;
        use proptest::prelude::*;

        const WORDS: [&str; 6] = ["a", "ab", "b", "c", "d", "e"];

        fn float_of(v: i64) -> Scalar {
            Scalar::Float(match v {
                -7 => f64::NAN,
                0 => -0.0,
                1 => 0.0,
                v => v as f64 / 2.0,
            })
        }

        /// Int, float and dictionary columns over small domains, so cuts
        /// meet duplicates and the `-0.0` / `0.0` / NaN corners of
        /// `total_cmp`.
        fn table_of(rows: &[(i64, i64, usize)]) -> Table {
            let s = Arc::new(Schema::from_pairs([
                ("i", ColumnType::Int),
                ("f", ColumnType::Float),
                ("s", ColumnType::Str),
            ]));
            let mut b = TableBuilder::new(s);
            for &(i, f, w) in rows {
                b.push_row(&[Scalar::Int(i), float_of(f), Scalar::from(WORDS[w])]);
            }
            b.finish()
        }

        fn rows() -> impl Strategy<Value = Vec<(i64, i64, usize)>> {
            proptest::collection::vec((-6i64..14, -7i64..9, 0usize..6), 0..130)
        }

        /// A literal for some column: of the column's type nine times in
        /// ten, of a foreign type (which must match nothing) otherwise.
        fn literal() -> impl Strategy<Value = (usize, Scalar)> {
            (0usize..3, 0usize..10, -7i64..15).prop_map(|(col, foreign, v)| {
                let value = match if foreign == 0 { (col + 1) % 3 } else { col } {
                    0 => Scalar::Int(v),
                    1 => float_of(v),
                    _ => Scalar::from(WORDS[v.rem_euclid(6) as usize]),
                };
                (col, value)
            })
        }

        fn atom() -> impl Strategy<Value = Atom> {
            let op = prop_oneof![
                Just(CompareOp::Lt),
                Just(CompareOp::Le),
                Just(CompareOp::Gt),
                Just(CompareOp::Ge),
                Just(CompareOp::Eq),
            ];
            prop_oneof![
                (literal(), op).prop_map(|((col, value), op)| Atom::Compare { col, op, value }),
                (literal(), literal()).prop_map(|((col, a), (_, b))| {
                    let (low, high) = if a <= b { (a, b) } else { (b, a) };
                    Atom::Between { col, low, high }
                }),
                // both sides of the `InSet ≤ 4` decomposition threshold
                proptest::collection::vec(literal(), 1..8).prop_map(|lits| Atom::InSet {
                    col: lits[0].0,
                    set: lits.into_iter().map(|(_, v)| v).collect(),
                }),
            ]
        }

        /// A window drawn with repetition from a few query shapes: shapes
        /// repeat, and the window may be empty.
        fn workload() -> impl Strategy<Value = Vec<Query>> {
            let shapes = proptest::collection::vec(proptest::collection::vec(atom(), 1..4), 1..6);
            (shapes, proptest::collection::vec(0usize..6, 0..24)).prop_map(|(shapes, picks)| {
                picks
                    .iter()
                    .map(|&p| Query::new(Predicate::new(shapes[p % shapes.len()].clone())))
                    .collect()
            })
        }

        /// An integer-interval atom on column 0 over a tiny domain, so
        /// endpoints coincide often, strict and inclusive alike.
        fn int_interval() -> impl Strategy<Value = Atom> {
            let op = prop_oneof![
                Just(CompareOp::Lt),
                Just(CompareOp::Le),
                Just(CompareOp::Gt),
                Just(CompareOp::Ge),
            ];
            prop_oneof![
                (op, -4i64..5).prop_map(|(op, v)| Atom::Compare {
                    col: 0,
                    op,
                    value: Scalar::Int(v),
                }),
                (-4i64..5, 0i64..5).prop_map(|(lo, span)| Atom::Between {
                    col: 0,
                    low: Scalar::Int(lo),
                    high: Scalar::Int(lo + span),
                }),
            ]
        }

        fn builder() -> impl Strategy<Value = QdTreeBuilder> {
            let k = prop_oneof![Just(1usize), Just(2), Just(8), Just(32)];
            (k, 0usize..8).prop_map(|(k, min_leaf)| match min_leaf {
                0 => QdTreeBuilder::new(k),
                m => QdTreeBuilder::new(k).with_min_leaf_rows(m - 1),
            })
        }

        proptest! {
            /// The bitmap builder grows the very tree the row-by-row greedy
            /// grew: same cuts in the same DFS order, same leaves, same
            /// name, same routing.
            #[test]
            fn build_equals_reference_greedy(
                rows in rows(),
                workload in workload(),
                builder in builder(),
            ) {
                let t = table_of(&rows);
                let tree = builder.build(&t, &workload);
                let oracle = reference_build(&builder, &t, &workload);
                prop_assert_eq!(tree.cuts(), oracle.cuts());
                prop_assert_eq!(tree.k(), oracle.k());
                prop_assert_eq!(tree.describe(), oracle.describe());
                prop_assert_eq!(tree.assign(&t), oracle.assign(&t));
            }

            /// Where every query on a column is an integer interval, the
            /// binary-search counts equal the set-by-set ones for any cut.
            #[test]
            fn interval_key_counts_equal_set_counts(
                queries in proptest::collection::vec(
                    proptest::collection::vec(int_interval(), 1..3),
                    0..30,
                ),
                cut in int_interval(),
            ) {
                let workload: Vec<Query> =
                    queries.into_iter().map(|q| Query::new(Predicate::new(q))).collect();
                let sats = ColumnSats::new(&workload, 0);
                let cut_sat = SatSet::of_atom(&cut);
                // a contradictory query's set is `Empty`, which has no keys
                if let (Some(keys), Some(cut_keys)) = (&sats.keys, cut_sat.int_interval_keys()) {
                    prop_assert_eq!(keys.counts(cut_keys), sats.counts(&cut_sat));
                }
            }

            /// Columnar `assign` sends every row where the per-row tree
            /// walk sends it, on the sample the tree was built from and on
            /// a superset of it.
            #[test]
            fn assign_equals_per_row_route(
                rows in rows(),
                stride in 1usize..5,
                workload in workload(),
                builder in builder(),
            ) {
                let full = table_of(&rows);
                let picked: Vec<u32> = (0..rows.len() as u32).step_by(stride).collect();
                let sample = full.project_rows(&picked);
                let tree = builder.build(&sample, &workload);
                for t in [&sample, &full] {
                    let routed: Vec<u32> = (0..t.num_rows()).map(|r| tree.route(t, r)).collect();
                    prop_assert_eq!(tree.assign(t), routed);
                }
            }
        }
    }
}
