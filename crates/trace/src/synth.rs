//! The synthetic trace generator.
//!
//! Turns a [`BenchmarkProfile`] into an infinite, deterministic instruction
//! stream whose observable properties (instruction mix, register dependence
//! structure, address stream, branch behaviour) match the profile. See
//! `DESIGN.md` for why this substitutes for the paper's ATOM-derived SPEC
//! FP95 traces.
//!
//! # Structure of the generated code
//!
//! The generator emits *loop iterations*. Each iteration contains, in order:
//!
//! 1. address-update integer ALU ops (independent of one another);
//! 2. integer loads, whose first consumer is placed `int_load_use_dist`
//!    instructions later (modelling the compiler's static schedule);
//! 3. floating-point loads from the streamed arrays / scalar region;
//! 4. floating-point computation arranged as `fp_parallel_chains`
//!    interleaved accumulator chains that consume the loaded values
//!    (bounding the EP's in-order ILP);
//! 5. floating-point stores of the accumulators;
//! 6. with probability `lod_frac`, a loss-of-decoupling event: an integer
//!    (AP) instruction that reads an FP accumulator, forcing the AP to wait
//!    for the EP;
//! 7. filler integer ALU ops, optionally-noisy inner branches, and a highly
//!    predictable loop-closing branch.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dsmt_isa::{ArchReg, BranchInfo, Instruction, OpClass};

use crate::{ArrayStream, BenchmarkProfile, ScalarRegion, TraceSource};

/// Register allocation conventions used by the generator (documented so the
/// core crate's tests can reason about the streams).
mod regs {
    /// Index/base registers updated every iteration: `r1..=r4`.
    pub const INDEX_BASE: u8 = 1;
    pub const INDEX_COUNT: u8 = 4;
    /// Integer-load destinations: `r8..=r13`.
    pub const INT_LOAD_BASE: u8 = 8;
    pub const INT_LOAD_COUNT: u8 = 6;
    /// Stride constant, never redefined: `r16`.
    pub const STRIDE_CONST: u8 = 16;
    /// Generic integer temporaries: `r17..=r20`.
    pub const INT_TEMP_BASE: u8 = 17;
    pub const INT_TEMP_COUNT: u8 = 4;
    /// Loss-of-decoupling destination: `r21`.
    pub const LOD_DEST: u8 = 21;
    /// FP load destinations: `f1..=f14`.
    pub const FP_LOAD_BASE: u8 = 1;
    pub const FP_LOAD_COUNT: u8 = 14;
    /// FP accumulator chains: `f16..=f23`.
    pub const FP_ACC_BASE: u8 = 16;
}

/// A deterministic, infinite instruction stream synthesised from a
/// [`BenchmarkProfile`].
#[derive(Debug)]
pub struct SyntheticTrace {
    profile: BenchmarkProfile,
    streams: Streams,
    /// The current loop iteration; `body[next..]` is still to be emitted.
    body: Vec<Instruction>,
    next: usize,
    /// Integer-load consumers whose scheduling distance extends past the end
    /// of the iteration that issued the load; they are inserted `usize`
    /// instructions into the next iteration's body.
    carryover_consumers: Vec<(usize, Instruction)>,
    /// Reused per-iteration buffers: the carry-over being inserted, the
    /// integer loads (position, destination) and the loaded FP registers.
    deferred: Vec<(usize, Instruction)>,
    int_load_positions: Vec<(usize, ArchReg)>,
    loaded_fp: Vec<ArchReg>,
    emitted: u64,
    iterations: u64,
}

/// The generator's random source and data-address streams.
#[derive(Debug)]
struct Streams {
    rng: StdRng,
    arrays: Vec<ArrayStream>,
    out_array: ArrayStream,
    scalars: ScalarRegion,
}

impl Streams {
    /// The next load address: from array `array_idx` (modulo the array
    /// count) with probability `stream_frac`, else from the scalar region.
    fn load_addr(&mut self, stream_frac: f64, array_idx: usize) -> u64 {
        if self.rng.gen_bool(stream_frac) {
            let n = self.arrays.len();
            self.arrays[array_idx % n].next_addr()
        } else {
            self.scalars.next_addr()
        }
    }

    fn store_addr(&mut self, stream_frac: f64) -> u64 {
        if self.rng.gen_bool(stream_frac) {
            self.out_array.next_addr()
        } else {
            self.scalars.next_addr()
        }
    }
}

impl SyntheticTrace {
    /// Creates a generator for `profile` seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the profile does not validate.
    #[must_use]
    pub fn new(profile: &BenchmarkProfile, seed: u64) -> Self {
        Self::with_offset(profile, seed, 0)
    }

    /// Creates a generator whose data addresses are shifted by
    /// `addr_offset` bytes. Different hardware threads use different
    /// offsets so that their working sets are disjoint (and compete for the
    /// shared L1, as in the paper's Section 3.1).
    ///
    /// # Panics
    ///
    /// Panics if the profile does not validate.
    #[must_use]
    pub fn with_offset(profile: &BenchmarkProfile, seed: u64, addr_offset: u64) -> Self {
        profile
            .validate()
            .unwrap_or_else(|e| panic!("invalid profile {}: {e}", profile.name));
        let data_base = profile.data_base + addr_offset;
        let per_array = (profile.array_footprint_bytes / (profile.num_arrays as u64 + 1)).max(64);
        let arrays = (0..profile.num_arrays)
            .map(|i| {
                ArrayStream::new(
                    data_base + i as u64 * per_array,
                    per_array,
                    profile.array_stride,
                )
            })
            .collect();
        let out_array = ArrayStream::new(
            data_base + profile.num_arrays as u64 * per_array,
            per_array,
            profile.array_stride,
        );
        let scalars = ScalarRegion::new(
            data_base + (profile.num_arrays as u64 + 1) * per_array + 4096,
            profile.scalar_region_bytes,
        );
        SyntheticTrace {
            profile: profile.clone(),
            streams: Streams {
                rng: StdRng::seed_from_u64(seed ^ 0x5eed_0000),
                arrays,
                out_array,
                scalars,
            },
            body: Vec::new(),
            next: 0,
            carryover_consumers: Vec::new(),
            deferred: Vec::new(),
            int_load_positions: Vec::new(),
            loaded_fp: Vec::new(),
            emitted: 0,
            iterations: 0,
        }
    }

    /// The profile driving this generator.
    #[must_use]
    pub fn profile(&self) -> &BenchmarkProfile {
        &self.profile
    }

    /// Number of instructions emitted so far.
    #[must_use]
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Number of loop iterations synthesised so far.
    #[must_use]
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Replaces `body` with the next loop iteration, reusing every buffer.
    fn build_iteration(&mut self) {
        let SyntheticTrace {
            profile: p,
            streams,
            body,
            carryover_consumers,
            deferred,
            int_load_positions,
            loaded_fp,
            ..
        } = self;
        let len = p.iteration_length;
        let n_fp_load = ((p.frac_fp_load * len as f64).round() as usize).max(1);
        let n_int_load = (p.frac_int_load * len as f64).round() as usize;
        let n_store = (p.frac_store * len as f64).round() as usize;
        let n_fp_ops = ((p.frac_fp_ops * len as f64).round() as usize).max(1);
        let n_branch = ((p.frac_branch * len as f64).round() as usize).max(1);
        let reserved = n_fp_load + n_int_load * 2 + n_store + n_fp_ops + n_branch;
        let n_int_alu = len.saturating_sub(reserved).max(2);
        let n_addr_updates = n_int_alu.min(regs::INDEX_COUNT as usize);
        let n_filler = n_int_alu - n_addr_updates;

        body.clear();

        // 1. Address updates: independent increments of the index registers.
        for k in 0..n_addr_updates {
            let r = ArchReg::int(regs::INDEX_BASE + (k as u8 % regs::INDEX_COUNT));
            body.push(
                Instruction::new(0, OpClass::IntAlu)
                    .with_dest(r)
                    .with_src1(r)
                    .with_src2(ArchReg::int(regs::STRIDE_CONST)),
            );
        }

        // 2. Integer loads; remember where each lands so its consumer can be
        //    inserted `int_load_use_dist` instructions later.
        int_load_positions.clear();
        for j in 0..n_int_load {
            let dest = ArchReg::int(regs::INT_LOAD_BASE + (j as u8 % regs::INT_LOAD_COUNT));
            let addr_reg = ArchReg::int(regs::INDEX_BASE + (j as u8 % regs::INDEX_COUNT));
            let addr = streams.load_addr(p.int_stream_frac, j);
            int_load_positions.push((body.len(), dest));
            body.push(
                Instruction::new(0, OpClass::LoadInt)
                    .with_dest(dest)
                    .with_src1(addr_reg)
                    .with_mem(addr, 8),
            );
        }

        // 3. FP loads.
        loaded_fp.clear();
        for j in 0..n_fp_load {
            let dest = ArchReg::fp(regs::FP_LOAD_BASE + (j as u8 % regs::FP_LOAD_COUNT));
            let addr_reg = ArchReg::int(regs::INDEX_BASE + (j as u8 % regs::INDEX_COUNT));
            let addr = streams.load_addr(p.stream_frac, j);
            loaded_fp.push(dest);
            body.push(
                Instruction::new(0, OpClass::LoadFp)
                    .with_dest(dest)
                    .with_src1(addr_reg)
                    .with_mem(addr, 8),
            );
        }

        // 4. FP computation: `fp_parallel_chains` interleaved accumulator
        //    chains, each serially dependent on itself, consuming the loads.
        let chains = p.fp_parallel_chains;
        for s in 0..n_fp_ops {
            let chain = s % chains;
            let acc = ArchReg::fp(regs::FP_ACC_BASE + chain as u8);
            let operand = loaded_fp[s % loaded_fp.len()];
            let op = if streams.rng.gen_bool(p.fp_div_frac) {
                OpClass::FpDiv
            } else if s % 2 == 0 {
                OpClass::FpAdd
            } else {
                OpClass::FpMul
            };
            body.push(
                Instruction::new(0, op)
                    .with_dest(acc)
                    .with_src1(acc)
                    .with_src2(operand),
            );
        }

        // 5. Stores of the accumulators.
        for k in 0..n_store {
            let acc = ArchReg::fp(regs::FP_ACC_BASE + (k % chains) as u8);
            let addr_reg = ArchReg::int(regs::INDEX_BASE + (k as u8 % regs::INDEX_COUNT));
            let addr = streams.store_addr(p.stream_frac);
            body.push(
                Instruction::new(0, OpClass::StoreFp)
                    .with_src1(acc)
                    .with_src2(addr_reg)
                    .with_mem(addr, 8),
            );
        }

        // 6. Loss-of-decoupling event: an AP instruction reading an EP value
        //    (e.g. an FP-to-integer transfer feeding address computation).
        if streams.rng.gen_bool(p.lod_frac) {
            body.push(
                Instruction::new(0, OpClass::IntAlu)
                    .with_dest(ArchReg::int(regs::LOD_DEST))
                    .with_src1(ArchReg::fp(regs::FP_ACC_BASE)),
            );
        }

        // 7. Filler integer work.
        for k in 0..n_filler {
            let dest = ArchReg::int(regs::INT_TEMP_BASE + (k as u8 % regs::INT_TEMP_COUNT));
            body.push(
                Instruction::new(0, OpClass::IntAlu)
                    .with_dest(dest)
                    .with_src1(ArchReg::int(regs::INDEX_BASE))
                    .with_src2(ArchReg::int(regs::STRIDE_CONST)),
            );
        }

        // Insert the integer-load consumers that a previous iteration
        // deferred into this one (well-scheduled, software-pipelined code
        // hoists loads one or more iterations ahead of their uses).
        std::mem::swap(carryover_consumers, deferred);
        carryover_consumers.clear();
        for &(offset, consumer) in deferred.iter().rev() {
            body.insert(offset.min(body.len()), consumer);
        }

        // Insert integer-load consumers `int_load_use_dist` instructions
        // after their load; consumers that fall past the end of this
        // iteration are deferred into the next one. Iterate in reverse so
        // earlier insertions do not shift later ones.
        for &(pos, dest) in int_load_positions.iter().rev() {
            let consumer = Instruction::new(0, OpClass::IntAlu)
                .with_dest(ArchReg::int(regs::INT_TEMP_BASE))
                .with_src1(dest);
            let at = pos + 1 + p.int_load_use_dist;
            if at <= body.len() {
                body.insert(at, consumer);
            } else {
                carryover_consumers.push((at - body.len(), consumer));
            }
        }

        // 8. Inner branches (possibly unpredictable) and the loop branch.
        let inner_branches = n_branch.saturating_sub(1);
        for j in 0..inner_branches {
            let taken = if streams.rng.gen_bool(p.inner_branch_noise) {
                streams.rng.gen_bool(0.5)
            } else {
                true
            };
            let pc = p.code_base + 0x800 + j as u64 * 4;
            body.push(
                Instruction::new(pc, OpClass::CondBranch)
                    .with_src1(ArchReg::int(regs::INT_TEMP_BASE))
                    .with_branch(BranchInfo::new(taken, p.code_base)),
            );
        }
        let loop_taken = streams.rng.gen_bool(p.loop_branch_taken_rate);
        body.push(
            Instruction::new(p.code_base + 0xffc, OpClass::CondBranch)
                .with_src1(ArchReg::int(regs::INDEX_BASE))
                .with_branch(BranchInfo::new(loop_taken, p.code_base)),
        );

        // Assign sequential PCs to every non-branch instruction.
        for (idx, inst) in body.iter_mut().enumerate() {
            if !inst.op.is_control() {
                inst.pc = p.code_base + idx as u64 * 4;
            }
        }

        debug_assert!(body.iter().all(|i| i.validate().is_ok()));
        self.iterations += 1;
        self.next = 0;
    }
}

impl TraceSource for SyntheticTrace {
    fn next_instruction(&mut self) -> Option<Instruction> {
        if self.next == self.body.len() {
            self.build_iteration();
        }
        let inst = self.body[self.next];
        self.next += 1;
        self.emitted += 1;
        Some(inst)
    }

    fn name(&self) -> &str {
        &self.profile.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec_fp95_profiles;
    use dsmt_isa::Unit;

    fn take(trace: &mut SyntheticTrace, n: usize) -> Vec<Instruction> {
        (0..n).map(|_| trace.next_instruction().unwrap()).collect()
    }

    #[test]
    fn stream_is_infinite_and_valid() {
        let p = BenchmarkProfile::baseline("t");
        let mut t = SyntheticTrace::new(&p, 1);
        for inst in take(&mut t, 5000) {
            inst.validate()
                .unwrap_or_else(|e| panic!("invalid instruction {inst}: {e}"));
        }
        assert_eq!(t.emitted(), 5000);
        assert!(t.iterations() > 100);
        assert_eq!(t.name(), "t");
    }

    #[test]
    fn determinism_per_seed() {
        let p = BenchmarkProfile::baseline("t");
        let a = take(&mut SyntheticTrace::new(&p, 7), 1000);
        let b = take(&mut SyntheticTrace::new(&p, 7), 1000);
        let c = take(&mut SyntheticTrace::new(&p, 8), 1000);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn instruction_mix_tracks_profile() {
        let p = BenchmarkProfile::baseline("t");
        let mut t = SyntheticTrace::new(&p, 3);
        let insts = take(&mut t, 20_000);
        let n = insts.len() as f64;
        let frac =
            |pred: fn(&Instruction) -> bool| insts.iter().filter(|i| pred(i)).count() as f64 / n;
        let fp_loads = frac(|i| i.op == OpClass::LoadFp);
        let stores = frac(|i| i.op.is_store());
        let fp_ops = frac(|i| i.op.is_fp_compute());
        let branches = frac(|i| i.op.is_control());
        assert!(
            (fp_loads - p.frac_fp_load).abs() < 0.05,
            "fp loads {fp_loads}"
        );
        assert!((stores - p.frac_store).abs() < 0.05, "stores {stores}");
        assert!((fp_ops - p.frac_fp_ops).abs() < 0.07, "fp ops {fp_ops}");
        assert!(branches > 0.01 && branches < 0.15, "branches {branches}");
    }

    #[test]
    fn ap_handles_majority_of_instructions() {
        let p = BenchmarkProfile::baseline("t");
        let mut t = SyntheticTrace::new(&p, 3);
        let insts = take(&mut t, 10_000);
        let ap = insts.iter().filter(|i| i.unit() == Unit::Ap).count() as f64;
        let frac_ap = ap / insts.len() as f64;
        assert!(frac_ap > 0.5 && frac_ap < 0.75, "AP fraction {frac_ap}");
    }

    #[test]
    fn memory_instructions_carry_addresses_in_data_region() {
        let p = BenchmarkProfile::baseline("t");
        let mut t = SyntheticTrace::new(&p, 5);
        for inst in take(&mut t, 5000) {
            if let Some(m) = inst.mem {
                assert!(
                    m.addr >= p.data_base,
                    "address {:#x} below data base",
                    m.addr
                );
                assert_eq!(m.size, 8);
            }
        }
    }

    #[test]
    fn address_offset_shifts_data_addresses() {
        let p = BenchmarkProfile::baseline("t");
        let offset = 0x1000_0000u64;
        let base_addrs: Vec<u64> = take(&mut SyntheticTrace::new(&p, 9), 2000)
            .iter()
            .filter_map(|i| i.mem.map(|m| m.addr))
            .collect();
        let off_addrs: Vec<u64> = take(&mut SyntheticTrace::with_offset(&p, 9, offset), 2000)
            .iter()
            .filter_map(|i| i.mem.map(|m| m.addr))
            .collect();
        assert_eq!(base_addrs.len(), off_addrs.len());
        for (a, b) in base_addrs.iter().zip(&off_addrs) {
            assert_eq!(a + offset, *b);
        }
    }

    #[test]
    fn fpppp_generates_lod_events_tomcatv_does_not() {
        let count_lod = |name: &str| {
            let p = crate::spec_fp95_profile(name).unwrap();
            let mut t = SyntheticTrace::new(&p, 11);
            take(&mut t, 20_000)
                .iter()
                .filter(|i| i.op == OpClass::IntAlu && i.sources().any(|r| r.is_fp()))
                .count()
        };
        let fpppp = count_lod("fpppp");
        let tomcatv = count_lod("tomcatv");
        assert!(fpppp > 100, "fpppp lod events {fpppp}");
        assert!(tomcatv < fpppp / 10, "tomcatv {tomcatv} vs fpppp {fpppp}");
    }

    #[test]
    fn small_footprint_benchmarks_reuse_addresses() {
        // turb3d/fpppp touch few distinct cache lines; tomcatv touches many.
        let distinct_lines = |name: &str| {
            let p = crate::spec_fp95_profile(name).unwrap();
            let mut t = SyntheticTrace::new(&p, 13);
            take(&mut t, 30_000)
                .iter()
                .filter_map(|i| i.mem.map(|m| m.addr / 32))
                .collect::<std::collections::HashSet<_>>()
                .len()
        };
        let fpppp = distinct_lines("fpppp");
        let tomcatv = distinct_lines("tomcatv");
        assert!(
            tomcatv > 2 * fpppp,
            "tomcatv lines {tomcatv} vs fpppp {fpppp}"
        );
    }

    #[test]
    fn loop_branch_is_mostly_taken_and_stable_pc() {
        let p = BenchmarkProfile::baseline("t");
        let mut t = SyntheticTrace::new(&p, 17);
        let insts = take(&mut t, 20_000);
        let loop_pc = p.code_base + 0xffc;
        let loop_branches: Vec<_> = insts
            .iter()
            .filter(|i| i.op.is_control() && i.pc == loop_pc)
            .collect();
        assert!(!loop_branches.is_empty());
        let taken = loop_branches
            .iter()
            .filter(|i| i.branch.unwrap().taken)
            .count() as f64;
        assert!(taken / loop_branches.len() as f64 > 0.9);
    }

    #[test]
    fn all_spec_profiles_generate_valid_streams() {
        for p in spec_fp95_profiles() {
            let mut t = SyntheticTrace::new(&p, 23);
            for inst in take(&mut t, 2000) {
                assert!(inst.validate().is_ok(), "{}: {inst}", p.name);
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid profile")]
    fn invalid_profile_panics() {
        let mut p = BenchmarkProfile::baseline("bad");
        p.fp_parallel_chains = 0;
        let _ = SyntheticTrace::new(&p, 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// Any valid profile yields a stream of valid instructions with the
        /// loop structure intact (at least one branch per iteration).
        #[test]
        fn arbitrary_profiles_generate_valid_streams(
            seed in 0u64..1000,
            fp_load in 0.05f64..0.3,
            fp_ops in 0.2f64..0.5,
            chains in 1usize..8,
            lod in 0.0f64..1.0,
            stride in prop::sample::select(vec![8u64, 16, 32]),
        ) {
            let mut p = BenchmarkProfile::baseline("prop");
            p.frac_fp_load = fp_load;
            p.frac_fp_ops = fp_ops;
            p.fp_parallel_chains = chains;
            p.lod_frac = lod;
            p.array_stride = stride;
            prop_assume!(p.validate().is_ok());
            let mut t = SyntheticTrace::new(&p, seed);
            let mut branches = 0usize;
            for _ in 0..2000 {
                let inst = t.next_instruction().unwrap();
                prop_assert!(inst.validate().is_ok());
                if inst.op.is_control() {
                    branches += 1;
                }
            }
            prop_assert!(branches > 0);
        }
    }
}
