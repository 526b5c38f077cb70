//! Multithreaded workload construction.
//!
//! The paper (Section 3): "The simulator is fed with independent threads.
//! Each thread consists of a sequence of traces from all SpecFP95 programs,
//! in a different order for each thread." [`ThreadWorkload`] reproduces that
//! construction; [`MultiProgramTrace`] is the underlying round-robin-over-
//! programs trace source.

use dsmt_isa::Instruction;

use crate::{BenchmarkProfile, SyntheticTrace, TraceSource};

/// A trace that cycles through several programs, running each for a fixed
/// number of instructions before switching to the next (and wrapping around
/// forever).
#[derive(Debug)]
pub struct MultiProgramTrace {
    name: String,
    sources: Vec<SyntheticTrace>,
    insts_per_program: u64,
    current: usize,
    emitted_in_current: u64,
    total_emitted: u64,
}

impl MultiProgramTrace {
    /// Creates a multi-program trace over `sources`, switching program every
    /// `insts_per_program` instructions.
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty or `insts_per_program` is zero.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        sources: Vec<SyntheticTrace>,
        insts_per_program: u64,
    ) -> Self {
        assert!(!sources.is_empty(), "need at least one program");
        assert!(insts_per_program > 0, "insts_per_program must be non-zero");
        MultiProgramTrace {
            name: name.into(),
            sources,
            insts_per_program,
            current: 0,
            emitted_in_current: 0,
            total_emitted: 0,
        }
    }

    /// The name of the program currently being replayed.
    #[must_use]
    pub fn current_program(&self) -> &str {
        self.sources[self.current].name()
    }

    /// Number of programs in the rotation.
    #[must_use]
    pub fn num_programs(&self) -> usize {
        self.sources.len()
    }

    /// Total instructions emitted so far.
    #[must_use]
    pub fn total_emitted(&self) -> u64 {
        self.total_emitted
    }
}

impl TraceSource for MultiProgramTrace {
    fn next_instruction(&mut self) -> Option<Instruction> {
        if self.emitted_in_current >= self.insts_per_program {
            self.current = (self.current + 1) % self.sources.len();
            self.emitted_in_current = 0;
        }
        let inst = self.sources[self.current].next_instruction();
        if inst.is_some() {
            self.emitted_in_current += 1;
            self.total_emitted += 1;
        }
        inst
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Builds the per-thread workloads used in the paper's multithreaded
/// experiments.
#[derive(Debug, Clone)]
pub struct ThreadWorkload {
    profiles: Vec<BenchmarkProfile>,
    insts_per_program: u64,
    seed: u64,
}

impl ThreadWorkload {
    /// Creates a workload builder over `profiles`.
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty.
    #[must_use]
    pub fn new(profiles: Vec<BenchmarkProfile>, insts_per_program: u64, seed: u64) -> Self {
        assert!(!profiles.is_empty(), "need at least one profile");
        ThreadWorkload {
            profiles,
            insts_per_program,
            seed,
        }
    }

    /// The paper's workload: all ten SPEC FP95 profiles, 200k instructions
    /// per program segment.
    #[must_use]
    pub fn spec_fp95(seed: u64) -> Self {
        ThreadWorkload::new(crate::spec_fp95_profiles(), 200_000, seed)
    }

    /// Overrides the per-program segment length.
    #[must_use]
    pub fn with_insts_per_program(mut self, n: u64) -> Self {
        assert!(n > 0, "insts_per_program must be non-zero");
        self.insts_per_program = n;
        self
    }

    /// Number of programs per thread.
    #[must_use]
    pub fn num_programs(&self) -> usize {
        self.profiles.len()
    }

    /// Builds the trace for hardware thread `thread_id`: the program
    /// sequence is rotated by `thread_id` ("a different order for each
    /// thread") and the data addresses are offset so each thread has its own
    /// working set.
    #[must_use]
    pub fn thread_trace(&self, thread_id: usize) -> MultiProgramTrace {
        let n = self.profiles.len();
        let rotation = thread_id % n;
        let addr_offset = thread_id as u64 * crate::THREAD_ADDR_STRIDE;
        let sources: Vec<SyntheticTrace> = (0..n)
            .map(|i| {
                let p = &self.profiles[(i + rotation) % n];
                SyntheticTrace::with_offset(
                    p,
                    self.seed
                        .wrapping_add(thread_id as u64)
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15),
                    addr_offset,
                )
            })
            .collect();
        MultiProgramTrace::new(
            format!("thread{thread_id}"),
            sources,
            self.insts_per_program,
        )
    }

    /// Builds traces for `num_threads` hardware threads.
    #[must_use]
    pub fn build(&self, num_threads: usize) -> Vec<MultiProgramTrace> {
        (0..num_threads).map(|t| self.thread_trace(t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec_fp95_profiles;

    #[test]
    fn multi_program_switches_programs() {
        let profiles = spec_fp95_profiles();
        let sources = profiles
            .iter()
            .take(3)
            .map(|p| SyntheticTrace::new(p, 1))
            .collect();
        let mut mp = MultiProgramTrace::new("w", sources, 100);
        assert_eq!(mp.num_programs(), 3);
        assert_eq!(mp.current_program(), "tomcatv");
        for _ in 0..100 {
            mp.next_instruction().unwrap();
        }
        assert_eq!(mp.current_program(), "tomcatv");
        mp.next_instruction().unwrap();
        assert_eq!(mp.current_program(), "swim");
        for _ in 0..100 {
            mp.next_instruction().unwrap();
        }
        assert_eq!(mp.current_program(), "su2cor");
        // Wraps around forever.
        for _ in 0..100 {
            mp.next_instruction().unwrap();
        }
        assert_eq!(mp.current_program(), "tomcatv");
        assert_eq!(mp.total_emitted(), 301);
    }

    #[test]
    fn thread_workload_rotates_program_order() {
        let w = ThreadWorkload::spec_fp95(42).with_insts_per_program(10);
        let t0 = w.thread_trace(0);
        let t1 = w.thread_trace(1);
        assert_eq!(t0.current_program(), "tomcatv");
        assert_eq!(t1.current_program(), "swim");
        let t9 = w.thread_trace(9);
        assert_eq!(t9.current_program(), "wave5");
        // Rotation wraps beyond the number of programs.
        let t10 = w.thread_trace(10);
        assert_eq!(t10.current_program(), "tomcatv");
    }

    #[test]
    fn threads_have_disjoint_data_regions() {
        let w = ThreadWorkload::spec_fp95(7).with_insts_per_program(500);
        let mut t0 = w.thread_trace(0);
        let mut t1 = w.thread_trace(1);
        let addrs = |t: &mut MultiProgramTrace| {
            (0..2000)
                .filter_map(|_| t.next_instruction().unwrap().mem.map(|m| m.addr))
                .collect::<Vec<_>>()
        };
        let a0 = addrs(&mut t0);
        let a1 = addrs(&mut t1);
        let max0 = a0.iter().max().unwrap();
        let min1 = a1.iter().min().unwrap();
        assert!(min1 > max0, "thread 1 region must be above thread 0");
    }

    #[test]
    fn build_creates_requested_thread_count() {
        let w = ThreadWorkload::spec_fp95(1).with_insts_per_program(10);
        let threads = w.build(6);
        assert_eq!(threads.len(), 6);
        assert_eq!(w.num_programs(), 10);
    }

    #[test]
    fn workload_traces_are_infinite() {
        let w = ThreadWorkload::spec_fp95(1).with_insts_per_program(50);
        let mut t = w.thread_trace(3);
        for _ in 0..5000 {
            assert!(t.next_instruction().is_some());
        }
    }

    #[test]
    #[should_panic(expected = "at least one program")]
    fn empty_sources_panic() {
        let _ = MultiProgramTrace::new("x", Vec::new(), 10);
    }

    #[test]
    #[should_panic(expected = "at least one profile")]
    fn empty_profiles_panic() {
        let _ = ThreadWorkload::new(Vec::new(), 10, 0);
    }
}
