//! Round-robin arbitration among hardware threads.
//!
//! The paper: "All the threads are allowed to compete for each of the 8
//! issue slots each cycle, and priorities among them are round-robin".

/// A rotating-priority arbiter over `n` participants.
#[derive(Debug, Clone)]
pub struct RoundRobin {
    n: usize,
    next_start: usize,
}

impl RoundRobin {
    /// Creates an arbiter over `n` participants.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "arbiter needs at least one participant");
        RoundRobin { n, next_start: 0 }
    }

    /// Number of participants.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the arbiter has exactly zero participants (never true).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The participant that will have highest priority in the next ordering.
    #[must_use]
    pub fn next_start(&self) -> usize {
        self.next_start
    }

    /// Returns this cycle's priority ordering (highest priority first) and
    /// rotates the starting point for the next cycle.
    pub fn ordering(&mut self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.n);
        self.ordering_into(&mut out);
        out
    }

    /// Writes this cycle's priority ordering into `out` (cleared first) and
    /// rotates the starting point for the next cycle. The allocation-free
    /// form used by the simulator hot loop with a reused scratch buffer.
    pub fn ordering_into(&mut self, out: &mut Vec<usize>) {
        let start = self.next_start;
        self.next_start = if start + 1 == self.n { 0 } else { start + 1 };
        out.clear();
        out.extend(start..self.n);
        out.extend(0..start);
    }

    /// Returns the current priority ordering without rotating.
    #[must_use]
    pub fn peek_ordering(&self) -> Vec<usize> {
        (0..self.n)
            .map(|i| (self.next_start + i) % self.n)
            .collect()
    }

    /// Advances the rotation as if `cycles` orderings had been taken, in
    /// O(1). Used by the simulator's stall fast-forward.
    pub fn advance(&mut self, cycles: u64) {
        self.next_start = (self.next_start + (cycles % self.n as u64) as usize) % self.n;
    }

    /// Resets the rotation.
    pub fn reset(&mut self) {
        self.next_start = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_over_cycles() {
        let mut rr = RoundRobin::new(3);
        assert_eq!(rr.ordering(), vec![0, 1, 2]);
        assert_eq!(rr.ordering(), vec![1, 2, 0]);
        assert_eq!(rr.ordering(), vec![2, 0, 1]);
        assert_eq!(rr.ordering(), vec![0, 1, 2]);
    }

    #[test]
    fn peek_does_not_rotate() {
        let mut rr = RoundRobin::new(2);
        assert_eq!(rr.peek_ordering(), vec![0, 1]);
        assert_eq!(rr.peek_ordering(), vec![0, 1]);
        assert_eq!(rr.ordering(), vec![0, 1]);
        assert_eq!(rr.peek_ordering(), vec![1, 0]);
    }

    #[test]
    fn single_participant() {
        let mut rr = RoundRobin::new(1);
        assert_eq!(rr.ordering(), vec![0]);
        assert_eq!(rr.ordering(), vec![0]);
        assert_eq!(rr.len(), 1);
        assert!(!rr.is_empty());
    }

    #[test]
    fn every_participant_gets_top_priority_equally() {
        let mut rr = RoundRobin::new(4);
        let mut top_counts = [0usize; 4];
        for _ in 0..400 {
            let order = rr.ordering();
            top_counts[order[0]] += 1;
        }
        assert!(top_counts.iter().all(|&c| c == 100));
    }

    #[test]
    fn orderings_are_permutations() {
        let mut rr = RoundRobin::new(5);
        for _ in 0..10 {
            let mut o = rr.ordering();
            o.sort_unstable();
            assert_eq!(o, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn reset_restores_start() {
        let mut rr = RoundRobin::new(3);
        rr.ordering();
        rr.ordering();
        rr.reset();
        assert_eq!(rr.ordering(), vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_participants_panics() {
        let _ = RoundRobin::new(0);
    }
}
