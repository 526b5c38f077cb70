//! One simulation cell: a configuration, a workload, a seed and a budget.

use std::sync::OnceLock;

use dsmt_core::{Processor, SimConfig, SimResults};
use dsmt_store::Fnv64;
use dsmt_trace::{
    spec_fp95_profile, BenchmarkProfile, Program, ProgramWorkload, SyntheticTrace, ThreadWorkload,
    TraceSource,
};
use serde::{Deserialize, Serialize};

use crate::CACHE_SCHEMA_VERSION;

/// What the simulated threads execute.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// The paper's Section 3 multiprogrammed workload: every thread cycles
    /// through all ten SPEC FP95 profiles in a thread-specific order,
    /// switching program every `insts_per_program` instructions.
    SpecMix {
        /// Instructions per program segment.
        insts_per_program: u64,
    },
    /// A single named SPEC FP95 profile on every thread (Section 2 uses this
    /// with one thread).
    Benchmark {
        /// Profile name, e.g. `"tomcatv"`.
        name: String,
    },
    /// A multiprogram mix restricted to the named profiles.
    Mix {
        /// Profile names in rotation order.
        benchmarks: Vec<String>,
        /// Instructions per program segment.
        insts_per_program: u64,
    },
    /// A fully custom profile (for scenarios beyond the paper).
    Profile {
        /// The profile to synthesise.
        profile: BenchmarkProfile,
    },
    /// Assembled programs (`dsmt-asm`): thread `t` runs program `t mod n`,
    /// pinned for the whole simulation — the *heterogeneous* counterpart of
    /// the rotating mixes above, and the workload that separates the fetch
    /// policies.
    Programs {
        /// `(name, source)` pairs, assembled when the processor is built.
        programs: Vec<AsmSource>,
    },
}

/// The source text of one assembled program, carried inline so scenarios
/// stay self-contained (serializable, cache-keyable) without filesystem
/// references.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AsmSource {
    /// Program name, used in labels and assembler diagnostics.
    pub name: String,
    /// Assembly source text (the `dsmt-asm` grammar).
    pub source: String,
}

impl WorkloadSpec {
    /// Shorthand for [`WorkloadSpec::SpecMix`].
    #[must_use]
    pub fn spec_mix(insts_per_program: u64) -> Self {
        WorkloadSpec::SpecMix { insts_per_program }
    }

    /// Shorthand for [`WorkloadSpec::Benchmark`].
    #[must_use]
    pub fn benchmark(name: impl Into<String>) -> Self {
        WorkloadSpec::Benchmark { name: name.into() }
    }

    /// Shorthand for [`WorkloadSpec::Programs`] from `(name, source)` pairs
    /// (e.g. entries of [`dsmt_asm::corpus::CORPUS`]).
    #[must_use]
    pub fn programs(programs: &[(&str, &str)]) -> Self {
        WorkloadSpec::Programs {
            programs: programs
                .iter()
                .map(|&(name, source)| AsmSource {
                    name: name.into(),
                    source: source.into(),
                })
                .collect(),
        }
    }

    /// A short human-readable label used in records and CSV columns.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            WorkloadSpec::SpecMix { .. } => "spec-fp95-mix".to_string(),
            WorkloadSpec::Benchmark { name } => name.clone(),
            WorkloadSpec::Mix { benchmarks, .. } => format!("mix:{}", benchmarks.join("+")),
            WorkloadSpec::Profile { profile } => format!("profile:{}", profile.name),
            WorkloadSpec::Programs { programs } => {
                let names: Vec<&str> = programs.iter().map(|p| p.name.as_str()).collect();
                format!("asm:{}", names.join("+"))
            }
        }
    }

    /// Resolves the named profiles, failing fast on unknown benchmarks.
    fn profiles(names: &[String]) -> Vec<BenchmarkProfile> {
        names
            .iter()
            .map(|n| {
                spec_fp95_profile(n).unwrap_or_else(|| panic!("unknown SPEC FP95 benchmark `{n}`"))
            })
            .collect()
    }
}

/// A scenario's identity in the result cache. Both hashes come from one
/// canonical JSON serialization of the scenario, under different prefixes:
/// the store key, and an independent verification hash stored inside every
/// cache entry and re-checked on every hit, so returning a wrong cell
/// requires two simultaneous 64-bit collisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheIdentity {
    /// The store key, equal to [`Scenario::cache_key`].
    pub key: u64,
    /// FNV-1a of `verify:` followed by the canonical JSON.
    pub verify: u64,
}

impl CacheIdentity {
    /// The key as a fixed-width hex string, equal to
    /// [`Scenario::cache_key_hex`].
    #[must_use]
    pub fn key_hex(&self) -> String {
        format!("{:016x}", self.key)
    }
}

/// The key chain's FNV-1a state after its prefix `v{schema}+{version}:`,
/// which every scenario shares.
fn key_basis() -> Fnv64 {
    static BASIS: OnceLock<Fnv64> = OnceLock::new();
    BASIS
        .get_or_init(|| {
            let mut h = Fnv64::new();
            h.update(
                format!("v{}+{}:", CACHE_SCHEMA_VERSION, env!("CARGO_PKG_VERSION")).as_bytes(),
            );
            h
        })
        .clone()
}

/// A fully specified simulation: deterministic given its fields.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Processor and memory configuration.
    pub config: SimConfig,
    /// What the threads execute.
    pub workload: WorkloadSpec,
    /// Seed for workload synthesis.
    pub seed: u64,
    /// Instructions to simulate.
    pub budget: u64,
}

impl Scenario {
    /// The cache key: a stable hash over the canonical JSON encoding of
    /// (cache schema version, workspace version, config, workload, seed,
    /// budget).
    ///
    /// The workspace version is part of the key so that released simulator
    /// changes can never replay stale results; within one version, a change
    /// to simulator *behaviour* must be accompanied by a version (or
    /// [`crate::CACHE_SCHEMA_VERSION`]) bump — or use
    /// `DSMT_SWEEP_CACHE=off` while iterating on the simulator itself.
    #[must_use]
    pub fn cache_key(&self) -> u64 {
        self.cache_identity().key
    }

    /// The cache key and the verification hash (see [`CacheIdentity`]) —
    /// what every cache lookup and store derives once per cell. The
    /// canonical JSON is written once and read once: each byte is folded
    /// into both FNV-1a chains, `v{schema}+{version}:` for the key and
    /// `verify:` for the verification hash, in the same loop.
    #[must_use]
    pub fn cache_identity(&self) -> CacheIdentity {
        let canonical = serde::to_string(self);
        let mut key = key_basis();
        let mut verify = Fnv64::new();
        verify.update(b"verify:");
        for byte in canonical.as_bytes() {
            let byte = std::slice::from_ref(byte);
            key.update(byte);
            verify.update(byte);
        }
        CacheIdentity {
            key: key.finish(),
            verify: verify.finish(),
        }
    }

    /// The cache key as a fixed-width hex string (file-name friendly).
    #[must_use]
    pub fn cache_key_hex(&self) -> String {
        self.cache_identity().key_hex()
    }

    /// Runs the simulation to completion.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration or an unknown benchmark name —
    /// grid construction bugs, not runtime conditions.
    #[must_use]
    pub fn execute(&self) -> SimResults {
        let mut cpu = self.processor();
        let results = cpu.run(self.budget);
        results.record_metrics();
        cpu.perf().record_metrics();
        results
    }

    /// Builds (but does not run) the processor this scenario describes;
    /// [`execute`](Self::execute) is `processor().run(budget)` plus metric
    /// recording.
    ///
    /// # Panics
    ///
    /// As for [`execute`](Self::execute).
    #[must_use]
    pub fn processor(&self) -> Processor {
        self.config
            .validate()
            .unwrap_or_else(|e| panic!("invalid scenario config: {e}"));
        match &self.workload {
            WorkloadSpec::SpecMix { insts_per_program } => {
                let workload =
                    ThreadWorkload::spec_fp95(self.seed).with_insts_per_program(*insts_per_program);
                Processor::with_workload(self.config.clone(), &workload)
            }
            WorkloadSpec::Mix {
                benchmarks,
                insts_per_program,
            } => {
                let workload = ThreadWorkload::new(
                    WorkloadSpec::profiles(benchmarks),
                    *insts_per_program,
                    self.seed,
                );
                Processor::with_workload(self.config.clone(), &workload)
            }
            WorkloadSpec::Benchmark { name } => {
                let profile = spec_fp95_profile(name)
                    .unwrap_or_else(|| panic!("unknown SPEC FP95 benchmark `{name}`"));
                self.profile_processor(&profile)
            }
            WorkloadSpec::Profile { profile } => self.profile_processor(profile),
            WorkloadSpec::Programs { programs } => {
                let assembled: Vec<Program> = programs
                    .iter()
                    .map(|p| {
                        dsmt_asm::assemble(&p.name, &p.source)
                            .unwrap_or_else(|e| panic!("workload program `{}`: {e}", p.name))
                    })
                    .collect();
                let workload = ProgramWorkload::new(assembled, self.seed);
                let traces: Vec<Box<dyn TraceSource>> = workload
                    .build(self.config.num_threads)
                    .into_iter()
                    .map(|t| Box::new(t) as Box<dyn TraceSource>)
                    .collect();
                Processor::new(self.config.clone(), traces)
            }
        }
    }

    fn profile_processor(&self, profile: &BenchmarkProfile) -> Processor {
        let traces: Vec<Box<dyn TraceSource>> = (0..self.config.num_threads)
            .map(|t| {
                Box::new(SyntheticTrace::with_offset(
                    profile,
                    self.seed,
                    t as u64 * 0x0400_2000,
                )) as Box<dyn TraceSource>
            })
            .collect();
        Processor::new(self.config.clone(), traces)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scenario() -> Scenario {
        Scenario {
            config: SimConfig::paper_multithreaded(2),
            workload: WorkloadSpec::spec_mix(3_000),
            seed: 42,
            budget: 12_000,
        }
    }

    #[test]
    fn cache_key_depends_on_every_field() {
        let base = tiny_scenario();
        let mut other = base.clone();
        other.seed += 1;
        assert_ne!(base.cache_key(), other.cache_key());
        let mut other = base.clone();
        other.budget += 1;
        assert_ne!(base.cache_key(), other.cache_key());
        let mut other = base.clone();
        other.config = base.config.clone().with_l2_latency(64);
        assert_ne!(base.cache_key(), other.cache_key());
        let mut other = base.clone();
        other.workload = WorkloadSpec::benchmark("tomcatv");
        assert_ne!(base.cache_key(), other.cache_key());
        // And it is stable across calls.
        assert_eq!(base.cache_key(), tiny_scenario().cache_key());
        assert_eq!(base.cache_key_hex().len(), 16);
    }

    #[test]
    fn cache_identity_matches_the_separately_serialized_hashes() {
        let programs = Scenario {
            workload: WorkloadSpec::programs(&[("loop", "top: br top")]),
            ..tiny_scenario()
        };
        let benchmark = Scenario {
            workload: WorkloadSpec::benchmark("swim"),
            ..tiny_scenario()
        };
        for s in [tiny_scenario(), programs, benchmark] {
            let json = serde::to_string(&s);
            let id = s.cache_identity();
            let key = format!(
                "v{CACHE_SCHEMA_VERSION}+{}:{json}",
                env!("CARGO_PKG_VERSION")
            );
            assert_eq!(id.key, crate::fnv1a64(key.as_bytes()));
            assert_eq!(
                id.verify,
                crate::fnv1a64(format!("verify:{json}").as_bytes())
            );
            assert_eq!(id.key, s.cache_key());
            assert_eq!(id.key_hex(), s.cache_key_hex());
        }
    }

    #[test]
    fn execute_is_deterministic() {
        let s = tiny_scenario();
        let a = s.execute();
        let b = s.execute();
        assert_eq!(a, b);
        assert!(a.instructions >= s.budget);
        assert!(a.ipc() > 0.0);
    }

    #[test]
    fn single_benchmark_runs_on_every_thread() {
        let s = Scenario {
            config: SimConfig::paper_multithreaded(2),
            workload: WorkloadSpec::benchmark("mgrid"),
            seed: 7,
            budget: 8_000,
        };
        let r = s.execute();
        assert_eq!(r.per_thread_instructions.len(), 2);
        assert!(r.per_thread_instructions.iter().all(|&n| n > 0));
    }

    #[test]
    fn mix_workload_round_trips_through_json() {
        let s = Scenario {
            config: SimConfig::paper_single_thread_4wide(),
            workload: WorkloadSpec::Mix {
                benchmarks: vec!["swim".into(), "applu".into()],
                insts_per_program: 2_000,
            },
            seed: 3,
            budget: 6_000,
        };
        let text = serde::to_string(&s);
        let back: Scenario = serde::from_str(&text).expect("scenario round-trips");
        assert_eq!(back, s);
        assert_eq!(back.cache_key(), s.cache_key());
    }

    #[test]
    fn assembled_programs_pin_per_thread() {
        let s = Scenario {
            config: SimConfig::paper_multithreaded(2),
            workload: WorkloadSpec::programs(&[
                ("loop", "top: subi r1, r1, 1\n bnz r1, top\n halt"),
                ("fp", "top: fadd f1, f1, f2\n br top"),
            ]),
            seed: 11,
            budget: 6_000,
        };
        assert_eq!(s.workload.label(), "asm:loop+fp");
        let r = s.execute();
        assert_eq!(r.per_thread_instructions.len(), 2);
        assert!(r.per_thread_instructions.iter().all(|&n| n > 0));
        assert_eq!(s.execute(), r, "assembled workloads are deterministic");
        // The workload participates in the cache key and survives JSON.
        let text = serde::to_string(&s);
        let back: Scenario = serde::from_str(&text).expect("round-trips");
        assert_eq!(back.cache_key(), s.cache_key());
        let mut other = s.clone();
        other.workload = WorkloadSpec::programs(&[("loop", "top: br top")]);
        assert_ne!(other.cache_key(), s.cache_key());
    }

    #[test]
    #[should_panic(expected = "workload program `bad`")]
    fn assembler_errors_surface_at_processor_build() {
        let s = Scenario {
            config: SimConfig::paper_multithreaded(1),
            workload: WorkloadSpec::programs(&[("bad", "frob r1, r2")]),
            seed: 1,
            budget: 100,
        };
        let _ = s.processor();
    }

    #[test]
    fn labels_are_short_and_distinct() {
        assert_eq!(WorkloadSpec::spec_mix(1).label(), "spec-fp95-mix");
        assert_eq!(WorkloadSpec::benchmark("swim").label(), "swim");
        let mix = WorkloadSpec::Mix {
            benchmarks: vec!["a".into(), "b".into()],
            insts_per_program: 1,
        };
        assert_eq!(mix.label(), "mix:a+b");
    }
}
