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

    /// The participant that [`take_start`](Self::take_start) returns next.
    #[must_use]
    pub fn next_start(&self) -> usize {
        self.next_start
    }

    /// Returns the participant with highest priority this cycle (the
    /// others follow in ascending order, wrapping around) and rotates the
    /// start for the next cycle.
    pub fn take_start(&mut self) -> usize {
        let start = self.next_start;
        self.next_start = if start + 1 == self.n { 0 } else { start + 1 };
        start
    }

    /// Advances the rotation as if `cycles` starts had been taken, in
    /// O(1). Used by the simulator's stall fast-forward.
    pub fn advance(&mut self, cycles: u64) {
        self.next_start = (self.next_start + (cycles % self.n as u64) as usize) % self.n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_over_cycles() {
        let mut rr = RoundRobin::new(3);
        let starts: Vec<usize> = (0..4).map(|_| rr.take_start()).collect();
        assert_eq!(starts, vec![0, 1, 2, 0]);
    }

    #[test]
    fn peek_does_not_rotate() {
        let mut rr = RoundRobin::new(2);
        assert_eq!(rr.next_start(), 0);
        assert_eq!(rr.next_start(), 0);
        assert_eq!(rr.take_start(), 0);
        assert_eq!(rr.next_start(), 1);
    }

    #[test]
    fn single_participant() {
        let mut rr = RoundRobin::new(1);
        assert_eq!(rr.take_start(), 0);
        assert_eq!(rr.take_start(), 0);
        assert_eq!(rr.len(), 1);
        assert!(!rr.is_empty());
    }

    #[test]
    fn every_participant_gets_top_priority_equally() {
        let mut rr = RoundRobin::new(4);
        let mut top_counts = [0usize; 4];
        for _ in 0..400 {
            top_counts[rr.take_start()] += 1;
        }
        assert!(top_counts.iter().all(|&c| c == 100));
    }

    #[test]
    fn advance_matches_taking_each_start() {
        for n in 1..6 {
            for cycles in 0..13u64 {
                let mut stepped = RoundRobin::new(n);
                let mut jumped = RoundRobin::new(n);
                stepped.take_start();
                jumped.take_start();
                for _ in 0..cycles {
                    stepped.take_start();
                }
                jumped.advance(cycles);
                assert_eq!(
                    stepped.next_start(),
                    jumped.next_start(),
                    "n {n}, {cycles} cycles"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_participants_panics() {
        let _ = RoundRobin::new(0);
    }
}
