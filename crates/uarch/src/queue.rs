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
        }
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
        self.len >= self.slots.len()
    }

    /// The physical slot index of the `i`-th item from the head.
    fn slot(&self, i: usize) -> usize {
        let idx = self.head + i;
        let cap = self.slots.len();
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
            return Err(item);
        }
        let tail = self.slot(self.len);
        self.slots[tail] = item;
        self.len += 1;
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
        let cap = self.slots.len();
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
    fn iteration_across_the_wrap_point() {
        // Force head near the end of the ring so the occupied region wraps.
        let mut q = BoundedQueue::new(4);
        for i in 0..4 {
            q.push(i).unwrap();
        }
        // Unwrapped: one contiguous region.
        for x in q.iter_mut() {
            *x += 1;
        }
        assert_eq!(q.iter().copied().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        for _ in 0..3 {
            q.pop();
        }
        for i in 10..13 {
            q.push(i).unwrap();
        }
        let collected: Vec<_> = q.iter().copied().collect();
        assert_eq!(collected, vec![4, 10, 11, 12]);
        for x in q.iter_mut() {
            *x *= 2;
        }
        assert_eq!(q.pop(), Some(8));
        assert_eq!(q.pop(), Some(20));
        assert_eq!(q.iter().copied().collect::<Vec<_>>(), vec![22, 24]);
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
        for capacity in [48, 32] {
            let mut q: BoundedQueue<u64> = BoundedQueue::new(capacity);
            for i in 0..capacity as u64 {
                assert!(!q.is_full());
                q.push(i).unwrap();
            }
            assert!(q.is_full());
        }
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
    }
}
