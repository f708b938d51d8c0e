//! The correctness oracle: row-wise evaluation of every checked query,
//! computed once per invocation, outside every timed phase.

use crate::workloads::{Inputs, CHECK_EVERY};
use oreo_sim::MutableOracle;
use std::collections::BTreeMap;

/// Match count the engine must report for every
/// [`CHECK_EVERY`]-th stream position.
///
/// Read-only workloads evaluate `Table::row_matches` over every row (two
/// threads, one half of the checked queries each). With a mutation
/// schedule the rows live at a position are the base table plus every
/// batch due before it — the closed loop lets nothing be in flight while a
/// batch lands — replayed through `oreo_sim::MutableOracle`.
pub fn expected_counts(inputs: &Inputs) -> Result<BTreeMap<usize, u64>, String> {
    let checked: Vec<usize> = (0..inputs.queries.len()).step_by(CHECK_EVERY).collect();
    if let Some(mutations) = &inputs.mutations {
        let mut oracle = MutableOracle::new(inputs.table());
        let mut next_batch = 0usize;
        let mut out = BTreeMap::new();
        for index in checked {
            while next_batch < mutations.batches.len()
                && mutations.batches[next_batch].after_query <= index
            {
                oracle
                    .apply(&mutations.batches[next_batch].ops)
                    .map_err(|e| format!("oracle rejected mutation batch {next_batch}: {e}"))?;
                next_batch += 1;
            }
            let count = oracle.matches(&inputs.queries[index].predicate).len() as u64;
            out.insert(index, count);
        }
        return Ok(out);
    }
    let table = inputs.table();
    let count = |index: usize| {
        let predicate = &inputs.queries[index].predicate;
        let matches = (0..table.num_rows())
            .filter(|&row| table.row_matches(row, predicate))
            .count();
        (index, matches as u64)
    };
    let (left, right) = checked.split_at(checked.len() / 2);
    Ok(std::thread::scope(|scope| {
        let other = scope.spawn(|| right.iter().map(|&i| count(i)).collect::<Vec<_>>());
        let mut counts: Vec<_> = left.iter().map(|&i| count(i)).collect();
        counts.extend(other.join().expect("oracle thread panicked"));
        counts.into_iter().collect()
    }))
}
