//! A table's columns in value order, computed once for a table that many
//! layouts are built and modelled on — the layout manager's data sample
//! ([`crate::Table::prepared`]).
//!
//! Every generation boundary grows a Qd-tree on the same sample and
//! compiles the candidate's model from it. The tree counts a leaf's rows in
//! an integer cut from the cut column's rows in value order
//! ([`crate::kernel::RankIndex`]), and the model needs each integer column's
//! distinct values per partition and each string column's dictionary in
//! string order. None of that depends on the boundary, so a prepared table
//! holds it: an integer column's rank index (16 bytes a row), a string
//! column's codes ranked by their strings. Float columns need nothing
//! (their statistics are ranges, one pass each).

use crate::column::{Column, DictColumn};
use crate::kernel::RankIndex;

/// One column's prepared order.
#[derive(Debug)]
pub(crate) enum ColumnOrder {
    /// The rows sorted by `(value, row)`.
    Int(RankIndex),
    /// The dictionary codes ranked by their strings.
    Str(DictRanks),
    /// Nothing to prepare.
    Float,
}

impl ColumnOrder {
    pub(crate) fn new(column: &Column) -> Self {
        match column {
            Column::Int(values) => ColumnOrder::Int(RankIndex::new(values)),
            Column::Str(dict) => ColumnOrder::Str(DictRanks::new(dict)),
            Column::Float(_) => ColumnOrder::Float,
        }
    }
}

/// A dictionary column's codes in string order: a string is its rank
/// among the column's distinct strings, and string order is integer order.
#[derive(Debug)]
pub(crate) struct DictRanks {
    /// `rank[code]`: the position of the code's string among the distinct
    /// strings, ascending.
    pub(crate) rank: Vec<u32>,
    /// `names[r]`: a code whose string is at position `r`.
    pub(crate) names: Vec<u32>,
}

impl DictRanks {
    /// One sort of the dictionary; codes that share a string share a rank.
    pub(crate) fn new(column: &DictColumn) -> Self {
        let mut order: Vec<u32> = (0..column.cardinality() as u32).collect();
        order.sort_unstable_by_key(|&code| column.decode(code));
        let mut rank = vec![0; order.len()];
        let mut names: Vec<u32> = Vec::new();
        for &code in &order {
            let s = column.decode(code);
            if names.last().map(|&first| column.decode(first)) != Some(s) {
                names.push(code);
            }
            rank[code as usize] = names.len() as u32 - 1;
        }
        DictRanks { rank, names }
    }
}
