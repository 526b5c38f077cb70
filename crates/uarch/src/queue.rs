//! A bounded FIFO queue backed by a fixed ring buffer.
//!
//! Used for the per-thread Instruction Queue (the structure whose presence
//! *is* decoupling: it lets the AP slip ahead of the EP) and the Store
//! Address Queue (which lets loads bypass pending stores).
//!
//! The storage is allocated once at construction (head/tail arithmetic over
//! a boxed slice of plain `Copy` items, filled with `T::default()`): the
//! simulator's hot loop pushes and pops queue entries every cycle, and a
//! ring buffer guarantees those operations never touch the allocator or
//! shift elements.

/// A FIFO queue with a hard capacity.
#[derive(Debug, Clone)]
pub struct BoundedQueue<T> {
    /// Ring storage; the `len` items from `head` (wrapping) are live, the
    /// rest hold stale values. Length equals `capacity`.
    slots: Box<[T]>,
    /// Index of the oldest item (valid when `len > 0`).
    head: usize,
    /// Current number of items.
    len: usize,
    peak_occupancy: usize,
    rejected: u64,
}

impl<T: Copy + Default> BoundedQueue<T> {
    /// Creates an empty queue with room for `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be non-zero");
        BoundedQueue {
            slots: vec![T::default(); capacity].into(),
            head: 0,
            len: 0,
            peak_occupancy: 0,
            rejected: 0,
        }
    }

    /// Maximum number of items the queue can hold.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Current number of items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the queue is full.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.len >= self.capacity()
    }

    /// Highest occupancy seen since construction.
    #[must_use]
    pub fn peak_occupancy(&self) -> usize {
        self.peak_occupancy
    }

    /// Number of pushes rejected because the queue was full.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// The physical slot index of the `i`-th item from the head.
    fn slot(&self, i: usize) -> usize {
        let idx = self.head + i;
        let cap = self.capacity();
        if idx >= cap {
            idx - cap
        } else {
            idx
        }
    }

    /// Appends an item. On a full queue the item is handed back as `Err`.
    ///
    /// # Errors
    ///
    /// Returns `Err(item)` when the queue is full.
    pub fn push(&mut self, item: T) -> Result<(), T> {
        if self.is_full() {
            self.rejected += 1;
            return Err(item);
        }
        let tail = self.slot(self.len);
        self.slots[tail] = item;
        self.len += 1;
        self.peak_occupancy = self.peak_occupancy.max(self.len);
        Ok(())
    }

    /// Removes and returns the oldest item.
    pub fn pop(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let item = self.slots[self.head];
        self.head = self.slot(1);
        self.len -= 1;
        Some(item)
    }

    /// A reference to the oldest item.
    #[must_use]
    pub fn front(&self) -> Option<&T> {
        (self.len > 0).then(|| &self.slots[self.head])
    }

    /// The two contiguous occupied regions of the ring, oldest first.
    fn halves(&self) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
        let cap = self.capacity();
        let end = self.head + self.len;
        if end <= cap {
            (self.head..end, 0..0)
        } else {
            (self.head..cap, 0..end - cap)
        }
    }

    /// Iterates oldest-to-youngest.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        let (a, b) = self.halves();
        self.slots[a].iter().chain(self.slots[b].iter())
    }

    /// Iterates mutably oldest-to-youngest.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        let (a, b) = self.halves();
        let (lo, hi) = self.slots.split_at_mut(a.start);
        let first = &mut hi[..a.end - a.start];
        let second = &mut lo[b];
        first.iter_mut().chain(second.iter_mut())
    }

    /// Removes every item that matches the predicate, preserving order of
    /// the rest.
    pub fn retain<F: FnMut(&T) -> bool>(&mut self, mut f: F) {
        let mut kept = 0usize;
        for i in 0..self.len {
            let item = self.slots[self.slot(i)];
            if f(&item) {
                let dst = self.slot(kept);
                self.slots[dst] = item;
                kept += 1;
            }
        }
        self.len = kept;
    }

    /// Removes all items.
    pub fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut q = BoundedQueue::new(4);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.push(3).unwrap();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn capacity_and_rejection() {
        let mut q = BoundedQueue::new(2);
        assert!(q.push(1).is_ok());
        assert!(q.push(2).is_ok());
        assert!(q.is_full());
        assert_eq!(q.push(3), Err(3));
        assert_eq!(q.rejected(), 1);
        q.pop();
        assert!(q.push(3).is_ok());
    }

    #[test]
    fn front_access() {
        let mut q = BoundedQueue::new(4);
        assert!(q.front().is_none());
        q.push(10).unwrap();
        q.push(20).unwrap();
        assert_eq!(q.front(), Some(&10));
        assert_eq!(q.pop(), Some(10));
        assert_eq!(q.front(), Some(&20));
    }

    #[test]
    fn peak_occupancy_tracked() {
        let mut q = BoundedQueue::new(8);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        for _ in 0..3 {
            q.pop();
        }
        q.push(9).unwrap();
        assert_eq!(q.peak_occupancy(), 5);
    }

    #[test]
    fn iteration_and_retain() {
        let mut q = BoundedQueue::new(8);
        for i in 0..6 {
            q.push(i).unwrap();
        }
        let collected: Vec<_> = q.iter().copied().collect();
        assert_eq!(collected, vec![0, 1, 2, 3, 4, 5]);
        q.retain(|x| x % 2 == 0);
        let collected: Vec<_> = q.iter().copied().collect();
        assert_eq!(collected, vec![0, 2, 4]);
        for x in q.iter_mut() {
            *x += 1;
        }
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    fn iteration_across_the_wrap_point() {
        // Force head near the end of the ring so the occupied region wraps.
        let mut q = BoundedQueue::new(4);
        for i in 0..4 {
            q.push(i).unwrap();
        }
        for _ in 0..3 {
            q.pop();
        }
        for i in 10..13 {
            q.push(i).unwrap();
        }
        let collected: Vec<_> = q.iter().copied().collect();
        assert_eq!(collected, vec![3, 10, 11, 12]);
        for x in q.iter_mut() {
            *x *= 2;
        }
        assert_eq!(q.pop(), Some(6));
        assert_eq!(q.pop(), Some(20));
        q.retain(|&x| x > 22);
        assert_eq!(q.iter().copied().collect::<Vec<_>>(), vec![24]);
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = BoundedQueue::new(4);
        q.push(1).unwrap();
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _: BoundedQueue<u8> = BoundedQueue::new(0);
    }

    #[test]
    fn paper_queue_sizes_construct() {
        // Figure 2: Instruction Queue 48 entries, Store Address Queue 32.
        let iq: BoundedQueue<u64> = BoundedQueue::new(48);
        let saq: BoundedQueue<u64> = BoundedQueue::new(32);
        assert_eq!(iq.capacity(), 48);
        assert_eq!(saq.capacity(), 32);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The ring buffer behaves exactly like a naive `VecDeque` model:
        /// never exceeds capacity, pops in FIFO order, and iteration sees
        /// the same sequence even when the occupied region wraps.
        #[test]
        fn ring_matches_vecdeque_reference(ops in prop::collection::vec(prop::option::of(0u32..100), 1..300)) {
            let mut q = BoundedQueue::new(5);
            let mut model: std::collections::VecDeque<u32> = std::collections::VecDeque::new();
            for op in ops {
                match op {
                    Some(v) => {
                        let accepted = q.push(v).is_ok();
                        if model.len() < 5 {
                            prop_assert!(accepted);
                            model.push_back(v);
                        } else {
                            prop_assert!(!accepted);
                        }
                    }
                    None => {
                        prop_assert_eq!(q.pop(), model.pop_front());
                    }
                }
                prop_assert!(q.len() <= 5);
                prop_assert_eq!(q.len(), model.len());
                prop_assert_eq!(q.front().copied(), model.front().copied());
                let mine: Vec<u32> = q.iter().copied().collect();
                let theirs: Vec<u32> = model.iter().copied().collect();
                prop_assert_eq!(mine, theirs);
            }
        }

        /// `retain` agrees with the reference implementation at any head
        /// position (the compaction walks across the wrap point).
        #[test]
        fn retain_matches_reference(
            pre_pops in 0usize..5,
            values in prop::collection::vec(0u32..50, 0..10),
            keep_even in prop::bool::ANY,
        ) {
            let mut q = BoundedQueue::new(6);
            let mut model: std::collections::VecDeque<u32> = std::collections::VecDeque::new();
            // Rotate the head first so the ring wraps in interesting ways.
            for i in 0..6u32 {
                q.push(i).unwrap();
            }
            for _ in 0..6 {
                q.pop();
            }
            for _ in 0..pre_pops.min(values.len()) {
                // no-op: pops beyond empty are None for both.
                prop_assert_eq!(q.pop(), model.pop_front());
            }
            for v in values {
                if q.push(v).is_ok() {
                    model.push_back(v);
                }
            }
            let pred = |x: &u32| x.is_multiple_of(2) == keep_even;
            q.retain(pred);
            model.retain(pred);
            let mine: Vec<u32> = q.iter().copied().collect();
            let theirs: Vec<u32> = model.iter().copied().collect();
            prop_assert_eq!(mine, theirs);
        }
    }
}
