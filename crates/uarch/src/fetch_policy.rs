//! Fetch thread selection.
//!
//! The paper fetches from two threads per cycle, each supplying up to eight
//! consecutive instructions, choosing "those with less instructions pending
//! to be dispatched (similar to the RR-2.8 with I-COUNT schemes)". That
//! load-aware scheme is [`icount_pick_into`]; the plain rotation it is
//! compared against in Section 3.1 (RR-2.8 without I-COUNT) is
//! [`round_robin_pick_into`].

/// Selects up to `max_threads` eligible threads with the fewest pending
/// (fetched but not yet dispatched) instructions, writing them into `out`
/// (cleared first): the simulator calls the fetch policy every cycle with a
/// reused scratch `Vec`.
///
/// Ties are broken by thread index rotated by `rotation`, so that equally
/// loaded threads share fetch bandwidth fairly over time.
///
/// # Panics
///
/// Panics if `pending` and `eligible` have different lengths.
///
/// # Example
///
/// ```
/// use dsmt_uarch::icount_pick_into;
///
/// let pending = [5, 0, 3, 0];
/// let eligible = [true, true, true, true];
/// let mut picked = Vec::new();
/// icount_pick_into(&pending, &eligible, 2, 0, &mut picked);
/// // The two least-loaded threads are 1 and 3.
/// assert_eq!(picked, vec![1, 3]);
/// ```
pub fn icount_pick_into(
    pending: &[usize],
    eligible: &[bool],
    max_threads: usize,
    rotation: usize,
    out: &mut Vec<usize>,
) {
    assert_eq!(
        pending.len(),
        eligible.len(),
        "pending and eligible must describe the same threads"
    );
    out.clear();
    let n = pending.len();
    if n == 0 || max_threads == 0 {
        return;
    }
    // Eligible threads in rotated order (the fairness tie-break), then an
    // insertion sort by pending count: stable, so ties keep the rotated
    // order, and cheap for the handful of threads a core has.
    let start = rotation % n;
    for i in (start..n).chain(0..start) {
        if eligible[i] {
            out.push(i);
        }
    }
    for k in 1..out.len() {
        let mut j = k;
        while j > 0 && pending[out[j - 1]] > pending[out[j]] {
            out.swap(j - 1, j);
            j -= 1;
        }
    }
    out.truncate(max_threads);
}

/// Selects up to `max_threads` eligible threads by plain rotation, writing
/// them into `out` (cleared first): thread `rotation % n` has top priority
/// this cycle, then indices wrap upward. Pending-instruction counts are
/// ignored — this is the paper's RR-2.8 scheme *without* I-COUNT, the
/// baseline its fetch discussion compares against.
pub fn round_robin_pick_into(
    eligible: &[bool],
    max_threads: usize,
    rotation: usize,
    out: &mut Vec<usize>,
) {
    out.clear();
    let n = eligible.len();
    if n == 0 || max_threads == 0 {
        return;
    }
    let start = rotation % n;
    out.extend(
        (start..n)
            .chain(0..start)
            .filter(|&t| eligible[t])
            .take(max_threads),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn icount_pick(
        pending: &[usize],
        eligible: &[bool],
        max_threads: usize,
        rotation: usize,
    ) -> Vec<usize> {
        let mut out = vec![usize::MAX];
        icount_pick_into(pending, eligible, max_threads, rotation, &mut out);
        out
    }

    fn round_robin_pick(eligible: &[bool], max_threads: usize, rotation: usize) -> Vec<usize> {
        let mut out = vec![usize::MAX];
        round_robin_pick_into(eligible, max_threads, rotation, &mut out);
        out
    }

    #[test]
    fn picks_least_loaded() {
        let pending = [10, 2, 7, 1];
        let eligible = [true; 4];
        assert_eq!(icount_pick(&pending, &eligible, 2, 0), vec![3, 1]);
    }

    #[test]
    fn respects_eligibility() {
        let pending = [10, 2, 7, 1];
        let eligible = [true, false, true, false];
        assert_eq!(icount_pick(&pending, &eligible, 2, 0), vec![2, 0]);
    }

    #[test]
    fn fewer_candidates_than_slots() {
        let pending = [3, 4];
        let eligible = [true, false];
        assert_eq!(icount_pick(&pending, &eligible, 2, 0), vec![0]);
        assert_eq!(
            icount_pick(&pending, &[false, false], 2, 0),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn zero_slots_returns_empty() {
        let pending = [1, 2];
        let eligible = [true, true];
        assert_eq!(icount_pick(&pending, &eligible, 0, 0), Vec::<usize>::new());
    }

    #[test]
    fn ties_rotate_with_rotation_parameter() {
        let pending = [0, 0, 0, 0];
        let eligible = [true; 4];
        assert_eq!(icount_pick(&pending, &eligible, 2, 0), vec![0, 1]);
        assert_eq!(icount_pick(&pending, &eligible, 2, 1), vec![1, 2]);
        assert_eq!(icount_pick(&pending, &eligible, 2, 3), vec![3, 0]);
    }

    #[test]
    fn rotation_fairness_over_many_cycles() {
        let pending = [0usize; 4];
        let eligible = [true; 4];
        let mut counts = [0usize; 4];
        for cycle in 0..400 {
            for t in icount_pick(&pending, &eligible, 2, cycle) {
                counts[t] += 1;
            }
        }
        assert!(counts.iter().all(|&c| c == 200), "counts {counts:?}");
    }

    #[test]
    fn single_thread_always_picked() {
        assert_eq!(icount_pick(&[100], &[true], 2, 5), vec![0]);
    }

    #[test]
    #[should_panic(expected = "same threads")]
    fn mismatched_lengths_panic() {
        let _ = icount_pick(&[1, 2], &[true], 2, 0);
    }

    #[test]
    fn empty_inputs_return_empty() {
        assert_eq!(icount_pick(&[], &[], 2, 0), Vec::<usize>::new());
    }

    #[test]
    fn round_robin_rotates_priority() {
        let eligible = [true; 4];
        assert_eq!(round_robin_pick(&eligible, 2, 0), vec![0, 1]);
        assert_eq!(round_robin_pick(&eligible, 2, 1), vec![1, 2]);
        assert_eq!(round_robin_pick(&eligible, 2, 3), vec![3, 0]);
        assert_eq!(round_robin_pick(&eligible, 2, 7), vec![3, 0]);
    }

    #[test]
    fn round_robin_skips_ineligible_threads() {
        let eligible = [false, true, false, true];
        assert_eq!(round_robin_pick(&eligible, 2, 0), vec![1, 3]);
        assert_eq!(round_robin_pick(&eligible, 2, 2), vec![3, 1]);
        assert_eq!(round_robin_pick(&eligible, 1, 2), vec![3]);
        assert_eq!(round_robin_pick(&[false; 4], 2, 0), Vec::<usize>::new());
    }

    #[test]
    fn round_robin_ignores_load_unlike_icount() {
        // Thread 0 is far more loaded, but round-robin at rotation 0 still
        // fetches it first; I-COUNT prefers the idle threads.
        let pending = [100, 0, 0, 0];
        let eligible = [true; 4];
        assert_eq!(round_robin_pick(&eligible, 2, 0), vec![0, 1]);
        assert_eq!(icount_pick(&pending, &eligible, 2, 0), vec![1, 2]);
    }

    #[test]
    fn round_robin_edge_cases() {
        assert_eq!(round_robin_pick(&[], 2, 5), Vec::<usize>::new());
        assert_eq!(round_robin_pick(&[true], 0, 0), Vec::<usize>::new());
        assert_eq!(round_robin_pick(&[true], 4, 9), vec![0]);
    }

    #[test]
    fn round_robin_fairness_over_many_cycles() {
        let eligible = [true; 4];
        let mut counts = [0usize; 4];
        for cycle in 0..400 {
            for t in round_robin_pick(&eligible, 2, cycle) {
                counts[t] += 1;
            }
        }
        assert!(counts.iter().all(|&c| c == 200), "counts {counts:?}");
    }
}
