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
//! column (a cut bounded on both sides still counts `n_sub` over the
//! queries whose interval starts inside it). Which rows `a` matches does
//! not depend on the node either, so it is found once per build: a cut
//! that is an integer range on an integer column matches the ranks
//! `start..end` of its column's [`RankIndex`] (two binary searches), any
//! other cut the rows of a bitmap that one typed column kernel pass writes
//! into a flat arena. A leaf keeps its rows as a bitmap and, per ranked
//! column, as a bitmap over that column's ranks with the set bits before
//! every word; so `|R_yes|` of a ranked cut is two partial-word popcounts,
//! and only an arena cut ANDs two bitmaps. A split derives each ranked
//! bitmap of its children from the smaller child's rows.
//!
//! **Preparation.** The rank indexes depend only on the sample. A table
//! prepared once ([`Table::prepared`], the layout manager's data sample)
//! holds them, so a build sorts nothing; on a plain table a build sorts
//! each integer cut column once. With C candidates, W window queries, n
//! sample rows, k leaves and c ranked columns, a build costs
//! O(C·(log n + W) + k·c·n + C·k) plus one n/64-word pass per arena cut
//! and per arena cut at every split, where the per-node row-by-row greedy
//! paid O(k·C·(n + W)). Candidates are borrowed from the window and
//! deduplicated by one stable sort of their keys, not by hashing cloned
//! atoms.

use crate::satset::{predicate_satset, SatSet};
use crate::spec::{LayoutGenerator, LayoutSpec, SharedSpec};
use oreo_query::{Atom, ColId, ColumnPlan, CompareOp, Query, Scalar};
use oreo_storage::kernel::{self, RankIndex};
use oreo_storage::{atom_matches_ref, Table};
use rand::rngs::StdRng;
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;
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
        let words = nrows.div_ceil(64);
        let min_leaf = self
            .min_leaf_rows
            .unwrap_or_else(|| (nrows / (4 * self.k)).max(1));

        // The node-independent part of every benefit, once per build: how
        // many workload queries each candidate spares its no-side (`n_sub`)
        // or its yes-side (`n_dis`), and which sample rows it matches — a
        // rank range of its integer column, or a bitmap in `arena`. A
        // candidate that spares no query has benefit 0 at every node and
        // could never be picked, so it is dropped here.
        struct Cut<'a> {
            cand: Cand<'a>,
            n_sub: u64,
            n_dis: u64,
            rows: CutRows,
        }
        let candidates = candidate_cuts(workload);
        let ncols = candidates.iter().map(|c| c.col() + 1).max().unwrap_or(0);
        let mut query_sats: Vec<Option<ColumnSats>> = (0..ncols).map(|_| None).collect();
        // The rank index of every integer column a cut is on, and its slot.
        let mut indexes: Vec<Cow<'_, RankIndex>> = Vec::new();
        let mut slot_of: Vec<Option<usize>> = vec![None; ncols];
        let mut arena: Vec<u64> = Vec::new();
        let mut cuts: Vec<Cut<'_>> = Vec::new();
        for cand in candidates {
            let col = cand.col();
            let sats = query_sats[col].get_or_insert_with(|| ColumnSats::new(workload, col));
            let atom = cand.atom();
            let cut_sat = SatSet::of_atom(&atom);
            let (n_sub, n_dis) = match (&sats.keys, cut_sat.int_interval_keys()) {
                (Some(keys), Some(cut)) => keys.counts(cut),
                _ => sats.counts(&cut_sat),
            };
            if n_sub + n_dis == 0 {
                continue;
            }
            let slot = match slot_of[col] {
                Some(slot) => Some(slot),
                None => sample.rank_index(col).map(|index| {
                    indexes.push(index);
                    *slot_of[col].insert(indexes.len() - 1)
                }),
            };
            let plan = ColumnPlan::of_atom(&atom);
            let ranked = slot.and_then(|slot| {
                let ranks = indexes[slot].ranks(&plan)?;
                Some(CutRows::Ranks { slot, ranks })
            });
            let rows = ranked.unwrap_or_else(|| {
                let at = arena.len();
                arena.resize(at + words, 0);
                kernel::bitmap_into(&plan, sample.column(col), &mut arena[at..]);
                CutRows::Bitmap(at)
            });
            cuts.push(Cut {
                cand,
                n_sub,
                n_dis,
                rows,
            });
        }

        // A leaf: its sample rows as a bitmap and over every ranked
        // column's order, how many there are, and the cuts that can still
        // split it, each with the rows it would send to its yes-side. A
        // side smaller than `min_leaf` at a node is smaller still at every
        // descendant, so a child tests only its parent's list; and a cut's
        // yes-rows in the no-child are its yes-rows in the parent less
        // those in the yes-child, so a split counts for one child only.
        struct Leaf {
            rows: Vec<u64>,
            ranked: Vec<RankedRows>,
            size: usize,
            feasible: Vec<(usize, usize)>,
        }
        let in_leaf = |leaf: &Leaf, cut: &Cut<'_>| match &cut.rows {
            CutRows::Ranks { slot, ranks } => leaf.ranked[*slot].count(ranks),
            CutRows::Bitmap(at) => and_count(&leaf.rows, &arena[*at..][..words]),
        };
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
                atom: Cand<'a>,
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
        let mut root = Leaf {
            rows: full_bitmap(nrows),
            ranked: (indexes.iter())
                .map(|_| RankedRows::new(full_bitmap(nrows)))
                .collect(),
            size: nrows,
            feasible: Vec::new(),
        };
        root.feasible = (cuts.iter().map(|cut| in_leaf(&root, cut)).enumerate())
            .filter(|&(_, yes)| feasible_at(nrows, yes))
            .collect();
        add_leaf(root, &mut slots, &mut heap);

        let mut leaf_count = 1usize;
        while leaf_count < self.k {
            let Some((_, _, slot, cut)) = heap.pop() else {
                break; // no more beneficial cuts
            };
            let (yes, no) = (slots.len(), slots.len() + 1);
            let inner = Slot::Inner {
                atom: cuts[cut].cand,
                yes,
                no,
            };
            let Slot::Leaf(leaf) = std::mem::replace(&mut slots[slot], inner) else {
                unreachable!("a slot is offered to the heap once, while it is a leaf");
            };
            // The yes-side's rows, then each ranked order split alike: a
            // cut's own order by its rank range, any other by looking each
            // of the leaf's rows up in the yes-side's bitmap.
            let yes_rows: Vec<u64> = match &cuts[cut].rows {
                CutRows::Bitmap(at) => (leaf.rows.iter().zip(&arena[*at..][..words]))
                    .map(|(l, c)| l & c)
                    .collect(),
                CutRows::Ranks { slot, ranks } => {
                    let mut yes_rows = vec![0; words];
                    let rank_rows = indexes[*slot].rows();
                    for r in ones(&leaf.ranked[*slot].bits, ranks.clone()) {
                        set(&mut yes_rows, rank_rows[r] as usize);
                    }
                    yes_rows
                }
            };
            let no_rows = and_not(&leaf.rows, &yes_rows);
            let yes_size = count(&yes_rows);
            let no_size = leaf.size - yes_size;
            let (mut yes_ranked, mut no_ranked) = (Vec::new(), Vec::new());
            for (j, parent) in leaf.ranked.iter().enumerate() {
                let (yes_bits, no_bits) = match &cuts[cut].rows {
                    CutRows::Ranks { slot, ranks } if *slot == j => {
                        let yes_bits = in_range(&parent.bits, ranks);
                        let no_bits = and_not(&parent.bits, &yes_bits);
                        (yes_bits, no_bits)
                    }
                    // The smaller side's rows, placed by rank; the other
                    // side is the rest of the parent's.
                    _ => {
                        let rank_of = indexes[j].rank_of();
                        let smaller = if yes_size <= no_size {
                            &yes_rows
                        } else {
                            &no_rows
                        };
                        let mut bits = vec![0; words];
                        for row in ones(smaller, 0..nrows) {
                            set(&mut bits, rank_of[row] as usize);
                        }
                        let rest = and_not(&parent.bits, &bits);
                        match yes_size <= no_size {
                            true => (bits, rest),
                            false => (rest, bits),
                        }
                    }
                };
                yes_ranked.push(RankedRows::new(yes_bits));
                no_ranked.push(RankedRows::new(no_bits));
            }
            let mut yes_leaf = Leaf {
                rows: yes_rows,
                ranked: yes_ranked,
                size: yes_size,
                feasible: Vec::new(),
            };
            let mut no_feasible = Vec::new();
            for (ci, in_parent) in leaf.feasible {
                let in_yes = in_leaf(&yes_leaf, &cuts[ci]);
                if feasible_at(yes_size, in_yes) {
                    yes_leaf.feasible.push((ci, in_yes));
                }
                if feasible_at(no_size, in_parent - in_yes) {
                    no_feasible.push((ci, in_parent - in_yes));
                }
            }
            let no_leaf = Leaf {
                rows: no_rows,
                ranked: no_ranked,
                size: no_size,
                feasible: no_feasible,
            };
            add_leaf(yes_leaf, &mut slots, &mut heap);
            add_leaf(no_leaf, &mut slots, &mut heap);
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
                    atom: atom.atom().into_owned(),
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

/// The sample rows a candidate cut matches.
enum CutRows {
    /// The rows of ranks `ranks` in the order of the integer column whose
    /// rank index is in slot `slot`.
    Ranks { slot: usize, ranks: Range<usize> },
    /// A bitmap at this offset of the cut arena.
    Bitmap(usize),
}

/// A leaf's rows over one integer column's order — bit `r` for the row of
/// rank `r` — with how many precede every word, so the leaf's rows in any
/// rank range are counted in O(1).
struct RankedRows {
    bits: Vec<u64>,
    /// `before[w]`: the set bits of `bits[..w]`.
    before: Vec<u32>,
}

impl RankedRows {
    fn new(bits: Vec<u64>) -> Self {
        let mut before = Vec::with_capacity(bits.len() + 1);
        before.push(0);
        for w in &bits {
            before.push(before[before.len() - 1] + w.count_ones());
        }
        RankedRows { bits, before }
    }

    /// The set bits below rank `r`.
    fn below(&self, r: usize) -> usize {
        let (w, b) = (r / 64, r % 64);
        let partial = match b {
            0 => 0,
            b => (self.bits[w] & ((1 << b) - 1)).count_ones(),
        };
        (self.before[w] + partial) as usize
    }

    /// The set bits in `ranks`.
    fn count(&self, ranks: &Range<usize>) -> usize {
        self.below(ranks.end) - self.below(ranks.start)
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

/// A column's query intervals as [`SatSet::int_interval_keys`] pairs, sorted,
/// with their high ends also sorted on their own.
struct IntervalKeys {
    pairs: Vec<(i128, i128)>,
    highs: Vec<i128>,
}

impl IntervalKeys {
    fn new(mut pairs: Vec<(i128, i128)>) -> Self {
        // `predicate_satset` returns `Empty`, not an inverted interval, for
        // a contradiction, so every pair is ordered.
        debug_assert!(pairs.iter().all(|(lo, hi)| lo <= hi));
        pairs.sort_unstable();
        let mut highs: Vec<i128> = pairs.iter().map(|p| p.1).collect();
        highs.sort_unstable();
        IntervalKeys { pairs, highs }
    }

    /// `(n_sub, n_dis)` of a cut keyed `(lo, hi)`, `lo <= hi`. An interval
    /// is disjoint from the cut iff it ends below `lo` or starts above `hi`
    /// (one at most, as it is ordered), and is then not inside it; so
    /// `n_dis` is two binary searches, and so is `n_sub` of a cut open on
    /// one side. A cut bounded on both sides counts `n_sub` over the
    /// intervals that start inside it, pair by pair.
    fn counts(&self, (lo, hi): (i128, i128)) -> (u64, u64) {
        let starting_below = |k: i128| self.pairs.partition_point(|p| p.0 < k);
        let below = |keys: &[i128], k: i128| keys.partition_point(|&x| x < k);
        let n = self.pairs.len();
        let n_dis = below(&self.highs, lo) + (n - self.pairs.partition_point(|p| p.0 <= hi));
        let n_sub = if hi == i128::MAX {
            n - starting_below(lo)
        } else if lo == i128::MIN {
            self.highs.partition_point(|&x| x <= hi)
        } else {
            let starting_inside = self.pairs[starting_below(lo)..].iter();
            let starting_inside = starting_inside.take_while(|&&(l, _)| l <= hi);
            starting_inside.filter(|&&(_, h)| h <= hi).count()
        };
        (n_sub as u64, n_dis as u64)
    }
}

/// A candidate cut, borrowed from the window: a comparison — one of the
/// window's own, or a bound of a `BETWEEN` or a member of an `IN` list taken
/// as one — or a window atom of another kind as it stands. A comparison has
/// one form whichever way it arose, so equal cuts have equal
/// [`Cand::key`]s.
#[derive(Clone, Copy, Debug)]
enum Cand<'a> {
    Compare {
        col: ColId,
        op: CompareOp,
        value: &'a Scalar,
    },
    /// A `BETWEEN` or an `IN` list.
    Atom(&'a Atom),
}

impl<'a> Cand<'a> {
    fn of(atom: &'a Atom) -> Self {
        match atom {
            Atom::Compare { col, op, value } => Cand::Compare {
                col: *col,
                op: *op,
                value,
            },
            _ => Cand::Atom(atom),
        }
    }

    fn col(&self) -> ColId {
        match self {
            Cand::Compare { col, .. } => *col,
            Cand::Atom(atom) => atom.col(),
        }
    }

    /// The cut's identity as an ordered key: equal keys, equal cuts.
    fn key(&self) -> (ColId, u8, [Option<&'a Scalar>; 2], &'a [Scalar]) {
        match *self {
            Cand::Compare { col, op, value } => (col, op as u8, [Some(value), None], &[]),
            // `Cand::of` keeps a comparison as `Cand::Compare`.
            Cand::Atom(Atom::Compare { col, op, value }) => {
                (*col, *op as u8, [Some(value), None], &[])
            }
            Cand::Atom(Atom::Between { col, low, high }) => (*col, 5, [Some(low), Some(high)], &[]),
            Cand::Atom(Atom::InSet { col, set }) => (*col, 6, [None, None], set),
        }
    }

    /// The cut as an atom: the window's own, or a comparison built from
    /// its parts (an integer comparison clones no heap data).
    fn atom(self) -> Cow<'a, Atom> {
        match self {
            Cand::Compare { col, op, value } => Cow::Owned(Atom::Compare {
                col,
                op,
                value: value.clone(),
            }),
            Cand::Atom(atom) => Cow::Borrowed(atom),
        }
    }
}

/// Candidate cuts: deduplicated atoms from the workload, in first-use
/// order, plus their half-range / equality decompositions — a narrow
/// `BETWEEN lo AND hi` rarely makes a feasible cut by itself (its yes-side
/// is tiny), but its component bounds `>= lo` / `<= hi` split well and
/// compose hierarchically, which is how Qd-tree uses workload predicates.
/// Every candidate borrows from the workload; nothing is cloned or hashed.
fn candidate_cuts<'a>(workload: &'a [Query]) -> Vec<Cand<'a>> {
    let mut uses: Vec<Cand<'a>> = Vec::new();
    for q in workload {
        for a in q.predicate.atoms() {
            uses.push(Cand::of(a));
            match a {
                Atom::Between { col, low, high } => {
                    for (op, value) in [(CompareOp::Ge, low), (CompareOp::Le, high)] {
                        uses.push(Cand::Compare {
                            col: *col,
                            op,
                            value,
                        });
                    }
                }
                Atom::InSet { col, set } if set.len() <= 4 => {
                    for value in set {
                        let (col, op) = (*col, CompareOp::Eq);
                        uses.push(Cand::Compare { col, op, value });
                    }
                }
                _ => {}
            }
        }
    }
    // Uses sorted by candidate, equal ones in use order (a stable sort):
    // the first of every run of equals is that candidate's first use.
    let mut by_cand: Vec<usize> = (0..uses.len()).collect();
    by_cand.sort_by_key(|&i| uses[i].key());
    let mut first = vec![false; uses.len()];
    for (at, &i) in by_cand.iter().enumerate() {
        first[i] = at == 0 || uses[by_cand[at - 1]].key() != uses[i].key();
    }
    (uses.into_iter().zip(first))
        .filter_map(|(cand, first)| first.then_some(cand))
        .collect()
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

fn set(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1 << (i % 64);
}

/// The set bits of `bits` in `range`, as a bitmap.
fn in_range(bits: &[u64], range: &Range<usize>) -> Vec<u64> {
    let word = |w: usize| {
        let lo = range.start.saturating_sub(w * 64).min(64);
        let hi = range.end.saturating_sub(w * 64).min(64);
        match hi > lo {
            true => bits[w] & (u64::MAX >> (64 - (hi - lo))) << lo,
            false => 0,
        }
    };
    (0..bits.len()).map(word).collect()
}

/// The set bits of `bits` in `range`, ascending.
fn ones(bits: &[u64], range: Range<usize>) -> impl Iterator<Item = usize> + '_ {
    let words = range.start / 64..range.end.div_ceil(64);
    words.flat_map(move |w| {
        let mut word = bits[w];
        if w == range.start / 64 {
            word &= u64::MAX << (range.start % 64);
        }
        if w == (range.end - 1) / 64 && !range.end.is_multiple_of(64) {
            word &= (1 << (range.end % 64)) - 1;
        }
        std::iter::from_fn(move || {
            let bit = (word != 0).then(|| word.trailing_zeros() as usize)?;
            word &= word - 1;
            Some(w * 64 + bit)
        })
    })
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

/// `a \ b` of two equal-length bitmaps.
fn and_not(a: &[u64], b: &[u64]) -> Vec<u64> {
    a.iter().zip(b).map(|(x, y)| x & !y).collect()
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
    use std::collections::{HashMap, HashSet};

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
            rows_up_to(130)
        }

        /// Up to `max` rows: past four 64-row words at 300, so rank ranges
        /// and leaves straddle word edges.
        fn rows_up_to(max: usize) -> impl Strategy<Value = Vec<(i64, i64, usize)>> {
            proptest::collection::vec((-6i64..14, -7i64..9, 0usize..6), 0..max)
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

        /// `tree` is `oracle`: same cuts in the same DFS order, same
        /// leaves, same name, same routing of `t`.
        fn same_tree(tree: &QdTree, oracle: &QdTree, t: &Table) {
            prop_assert_eq!(tree.cuts(), oracle.cuts());
            prop_assert_eq!(tree.k(), oracle.k());
            prop_assert_eq!(tree.describe(), oracle.describe());
            prop_assert_eq!(tree.assign(t), oracle.assign(t));
        }

        proptest! {
            /// The builder grows the very tree the row-by-row greedy grew,
            /// on the plain table and on the prepared one.
            #[test]
            fn build_equals_reference_greedy(
                rows in rows_up_to(300),
                workload in workload(),
                builder in builder(),
            ) {
                let t = table_of(&rows);
                let oracle = reference_build(&builder, &t, &workload);
                same_tree(&builder.build(&t, &workload), &oracle, &t);
                let prepared = t.clone().prepared();
                same_tree(&builder.build(&prepared, &workload), &oracle, &t);
            }

            /// Two windows built one after the other on one prepared
            /// sample, as a layout manager builds them: each is the tree
            /// the reference grows on the plain sample, so nothing one
            /// build leaves reaches the next.
            #[test]
            fn consecutive_builds_share_one_prepared_sample(
                rows in rows_up_to(300),
                first in workload(),
                second in workload(),
                builder in builder(),
            ) {
                let t = table_of(&rows);
                let prepared = t.clone().prepared();
                for workload in [&first, &second, &first] {
                    let oracle = reference_build(&builder, &t, workload);
                    same_tree(&builder.build(&prepared, workload), &oracle, &t);
                }
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
