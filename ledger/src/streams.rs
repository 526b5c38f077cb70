//! The trace, memory and branch-predictor layers timed on their own, fed
//! the streams each cell's threads would execute.

use std::hint::black_box;
use std::time::Instant;

use dsmt_mem::{AccessKind, AccessResponse, MemorySystem};
use dsmt_sweep::{Scenario, WorkloadSpec};
use dsmt_trace::{spec_fp95_profile, ProgramWorkload, SyntheticTrace, ThreadWorkload, TraceSource};
use dsmt_uarch::BranchPredictor;

/// The per-thread trace sources `scenario` feeds its processor, rebuilt
/// with the constructors `Scenario::processor` uses, and whether they are
/// assembled programs (`ProgramTrace`) rather than synthesised profiles.
///
/// # Panics
///
/// On an unknown profile name or a program that fails to assemble, as
/// `Scenario::processor` does.
#[must_use]
pub fn thread_traces(scenario: &Scenario) -> (Vec<Box<dyn TraceSource>>, bool) {
    let threads = scenario.config.num_threads;
    let seed = scenario.seed;
    match &scenario.workload {
        WorkloadSpec::SpecMix { insts_per_program } => (
            boxed(
                ThreadWorkload::spec_fp95(seed)
                    .with_insts_per_program(*insts_per_program)
                    .build(threads),
            ),
            false,
        ),
        WorkloadSpec::Mix {
            benchmarks,
            insts_per_program,
        } => {
            let profiles = benchmarks
                .iter()
                .map(|n| spec_fp95_profile(n).expect("known profile"))
                .collect();
            (
                boxed(ThreadWorkload::new(profiles, *insts_per_program, seed).build(threads)),
                false,
            )
        }
        WorkloadSpec::Benchmark { name } => {
            let profile = spec_fp95_profile(name).expect("known profile");
            (synthetic(&profile, seed, threads), false)
        }
        WorkloadSpec::Profile { profile } => (synthetic(profile, seed, threads), false),
        WorkloadSpec::Programs { programs } => {
            let assembled = programs
                .iter()
                .map(|p| dsmt_asm::assemble(&p.name, &p.source).expect("program assembles"))
                .collect();
            (
                boxed(ProgramWorkload::new(assembled, seed).build(threads)),
                true,
            )
        }
    }
}

fn boxed<T: TraceSource + 'static>(traces: Vec<T>) -> Vec<Box<dyn TraceSource>> {
    traces
        .into_iter()
        .map(|t| Box::new(t) as Box<dyn TraceSource>)
        .collect()
}

fn synthetic(
    profile: &dsmt_trace::BenchmarkProfile,
    seed: u64,
    threads: usize,
) -> Vec<Box<dyn TraceSource>> {
    (0..threads)
        .map(|t| {
            Box::new(SyntheticTrace::with_offset(
                profile,
                seed,
                t as u64 * 0x0400_2000,
            )) as Box<dyn TraceSource>
        })
        .collect()
}

/// Accumulated time and work of the micro layers over a set of cells.
#[derive(Debug, Default, Clone, Copy)]
pub struct Micro {
    /// Seconds in `next_instruction` of synthesised traces, and their count.
    pub synth_secs: f64,
    /// Instructions generated by synthesised traces.
    pub synth_insts: u64,
    /// Seconds in `next_instruction` of assembled-program traces.
    pub program_secs: f64,
    /// Instructions generated by assembled-program traces.
    pub program_insts: u64,
    /// Seconds driving `MemorySystem::try_access`.
    pub mem_secs: f64,
    /// `try_access` calls.
    pub accesses: u64,
    /// Accepted accesses that missed the L1.
    pub misses: u64,
    /// Calls turned away for retry (no port, no MSHR).
    pub rejected: u64,
    /// Seconds in `BranchPredictor::predict_and_train`.
    pub predict_secs: f64,
    /// Conditional branches predicted.
    pub branches: u64,
}

/// One dynamic instruction as the memory and predictor loops see it.
#[derive(Debug, Clone, Copy)]
enum Event {
    Other,
    Mem(u64, AccessKind),
    Branch(u64, bool),
}

fn event(inst: &dsmt_isa::Instruction) -> Event {
    match (inst.mem, inst.branch) {
        (Some(m), _) if inst.op.is_mem() => Event::Mem(
            m.addr,
            if inst.op.is_store() {
                AccessKind::Store
            } else {
                AccessKind::Load
            },
        ),
        (_, Some(b)) if inst.op.is_cond_branch() => Event::Branch(inst.pc, b.taken),
        _ => Event::Other,
    }
}

/// Times the three micro layers on `insts` instructions per thread of
/// `scenario`, adding to `acc`:
///
/// * trace: pulling the instructions from fresh trace sources;
/// * mem: the threads' interleaved load/store stream through a memory
///   system built from the cell's configuration, `ap_units` instructions
///   a cycle, a rejected access retried next cycle;
/// * uarch: each thread's conditional branches through its own predictor.
pub fn measure(scenario: &Scenario, insts: u64, acc: &mut Micro) {
    let (mut traces, program) = thread_traces(scenario);
    let started = Instant::now();
    for trace in &mut traces {
        for _ in 0..insts {
            black_box(trace.next_instruction());
        }
    }
    let secs = started.elapsed().as_secs_f64();
    let generated = insts * traces.len() as u64;
    if program {
        acc.program_secs += secs;
        acc.program_insts += generated;
    } else {
        acc.synth_secs += secs;
        acc.synth_insts += generated;
    }

    // Rebuild the sources and record the streams untimed.
    let (mut traces, _) = thread_traces(scenario);
    let per_thread: Vec<Vec<Event>> = traces
        .iter_mut()
        .map(|t| {
            (0..insts)
                .map_while(|_| t.next_instruction())
                .map(|i| event(&i))
                .collect()
        })
        .collect();
    let longest = per_thread.iter().map(Vec::len).max().unwrap_or(0);
    let interleaved: Vec<Event> = (0..longest)
        .flat_map(|i| per_thread.iter().filter_map(move |t| t.get(i).copied()))
        .collect();

    let config = &scenario.config;
    let mut mem = MemorySystem::new(config.mem);
    let width = config.ap_units.max(1);
    let started = Instant::now();
    let (mut cycle, mut next) = (0u64, 0usize);
    while next < interleaved.len() {
        mem.begin_cycle(cycle);
        for _ in 0..width {
            let Some(&ev) = interleaved.get(next) else {
                break;
            };
            if let Event::Mem(addr, kind) = ev {
                acc.accesses += 1;
                match black_box(mem.try_access(cycle, addr, kind)) {
                    AccessResponse::Done { hit, .. } => acc.misses += u64::from(!hit),
                    AccessResponse::NoPort | AccessResponse::NoMshr => {
                        acc.rejected += 1;
                        break;
                    }
                }
            }
            next += 1;
        }
        cycle += 1;
    }
    acc.mem_secs += started.elapsed().as_secs_f64();

    let branches: Vec<Vec<(u64, bool)>> = per_thread
        .iter()
        .map(|t| {
            t.iter()
                .filter_map(|ev| match *ev {
                    Event::Branch(pc, taken) => Some((pc, taken)),
                    _ => None,
                })
                .collect()
        })
        .collect();
    let started = Instant::now();
    for thread in &branches {
        let mut predictor = BranchPredictor::new(config.bht_entries);
        for &(pc, taken) in thread {
            black_box(predictor.predict_and_train(pc, taken));
        }
    }
    acc.predict_secs += started.elapsed().as_secs_f64();
    acc.branches += branches.iter().map(|t| t.len() as u64).sum::<u64>();
}
