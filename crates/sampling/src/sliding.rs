//! Fixed-capacity sliding window over the query stream.
//!
//! The paper's LAYOUT MANAGER generates candidate layouts from "a sliding
//! window of recent queries" (200 by default, §VI-A3); §V-A's experiments
//! found this beats reservoir-based histories because switching costs are
//! constant, so specializing to the *current* workload wins.

use std::collections::VecDeque;

/// A bounded FIFO of the most recent items.
#[derive(Clone, Debug)]
pub struct SlidingWindow<T> {
    items: VecDeque<T>,
    capacity: usize,
}

impl<T> SlidingWindow<T> {
    /// Create a window holding at most `capacity` items.
    ///
    /// # Panics
    /// Panics when `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        Self {
            items: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Push an item, evicting the oldest when full.
    pub fn push(&mut self, item: T) {
        if self.items.len() == self.capacity {
            self.items.pop_front();
        }
        self.items.push_back(item);
    }

    /// Number of items currently held.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Maximum number of items the window keeps.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Oldest-to-newest iteration.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Clone the contents into a `Vec` (oldest first).
    pub fn to_vec(&self) -> Vec<T>
    where
        T: Clone,
    {
        self.items.iter().cloned().collect()
    }

    /// Drop all items, keeping capacity.
    pub fn clear(&mut self) {
        self.items.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_oldest_when_full() {
        let mut w = SlidingWindow::new(3);
        for i in 0..5 {
            w.push(i);
        }
        assert_eq!(w.to_vec(), vec![2, 3, 4]);
        assert_eq!(w.len(), w.capacity());
    }

    #[test]
    fn not_full_until_capacity() {
        let mut w = SlidingWindow::new(4);
        w.push(1);
        assert!(w.len() < w.capacity());
        assert_eq!(w.to_vec(), vec![1]);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut w = SlidingWindow::new(2);
        w.push(1);
        w.push(2);
        w.clear();
        assert!(w.is_empty());
        w.push(9);
        assert_eq!(w.to_vec(), vec![9]);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        SlidingWindow::<i32>::new(0);
    }
}
