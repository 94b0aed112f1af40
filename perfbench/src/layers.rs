//! Per-layer replays of a traced run.
//!
//! Each layer is fed the workload's own inputs through its public
//! functions, inside a span: the µop streams of a sample of the workload's
//! jobs are first collected into a `Vec` (timing stream production), and
//! the cores, the memory hierarchy and the branch predictor then replay
//! that `Vec`, so stream cost stays out of their numbers. The sampled
//! phases, the RISC-V emulator and the result store are replayed the same
//! way.

use std::collections::BTreeMap;
use std::hint::black_box;

use dkip_bpred::PredictorKind;
use dkip_core::DkipProcessor;
use dkip_kilo::build_kilo_core;
use dkip_mem::MemoryHierarchy;
use dkip_model::config::MemoryHierarchyConfig;
use dkip_model::{MicroOp, SampleConfig};
use dkip_ooo::OooCore;
use dkip_sim::{run_sampled, Job, JobResult, Machine, ResultStore, Workload};

use crate::{Ctx, Metrics};

/// Longest µop stream a replay collects.
const REPLAY_OPS: u64 = 300_000;
/// Snapshot + restore round trips timed per core.
const CHECKPOINTS: u64 = 16;
/// SPEC and RISC-V jobs replayed per core family.
const SPEC_PER_FAMILY: usize = 2;
const RISCV_PER_FAMILY: usize = 1;

pub struct LayerInputs<'a> {
    pub jobs: &'a [Job],
    /// The workload's results, one per job when no job failed.
    pub results: &'a [JobResult],
    /// The sampling rate the workload uses or is compared against.
    pub sample: SampleConfig,
}

/// The metric prefix of a family.
fn prefix(machine: &Machine) -> &'static str {
    match machine {
        Machine::Baseline(_) => "ooo",
        Machine::Kilo(_) => "kilo",
        Machine::Dkip(_) => "dkip",
    }
}

/// A sample of the workload's jobs: per family, the first jobs of distinct
/// SPEC benchmarks and RISC-V kernels, in job order.
fn replay_set(jobs: &[Job]) -> Vec<&Job> {
    let mut picked: Vec<&Job> = Vec::new();
    for family in ["ooo", "kilo", "dkip"] {
        let mut seen: Vec<String> = Vec::new();
        let (mut spec, mut riscv) = (0, 0);
        for job in jobs.iter().filter(|j| prefix(&j.machine) == family) {
            let name = job.workload.name();
            if seen.contains(&name) {
                continue;
            }
            let slot = if job.workload.is_finite() {
                &mut riscv
            } else {
                &mut spec
            };
            let cap = if job.workload.is_finite() {
                RISCV_PER_FAMILY
            } else {
                SPEC_PER_FAMILY
            };
            if *slot < cap {
                *slot += 1;
                seen.push(name);
                picked.push(job);
            }
        }
    }
    picked
}

/// A detailed core of any family, for the sampling-phase replays.
enum Core {
    Ooo(Box<OooCore>),
    Dkip(Box<DkipProcessor>),
}

impl Core {
    fn build(machine: &Machine, mem: &MemoryHierarchyConfig) -> Core {
        let mem = MemoryHierarchy::new(mem.clone()).expect("valid memory configuration");
        match machine {
            Machine::Baseline(cfg) => Core::Ooo(Box::new(OooCore::from_baseline(cfg, mem))),
            Machine::Kilo(cfg) => Core::Ooo(Box::new(build_kilo_core(cfg, mem))),
            Machine::Dkip(cfg) => Core::Dkip(Box::new(DkipProcessor::new(cfg.clone(), mem))),
        }
    }

    /// Runs the ops through the core to the end of the stream (drained).
    fn run(&mut self, ops: &[MicroOp]) {
        let mut stream = ops.iter().copied();
        match self {
            Core::Ooo(core) => black_box(core.run(&mut stream, u64::MAX)),
            Core::Dkip(core) => black_box(core.run(&mut stream, u64::MAX)),
        };
    }

    /// One checkpoint round trip as the sampled mode does it: snapshot,
    /// then materialise a core from the snapshot.
    fn checkpoint_round_trip(&self) {
        match self {
            Core::Ooo(core) => drop(black_box(core.snapshot().to_core())),
            Core::Dkip(core) => drop(black_box(core.snapshot().to_processor())),
        }
    }

    fn warm_op(&mut self, op: &MicroOp) {
        match self {
            Core::Ooo(core) => core.warm_op(op),
            Core::Dkip(core) => core.warm_op(op),
        }
    }
}

#[derive(Default)]
struct CoreCounts {
    ns: u64,
    committed: u64,
    ticks: u64,
    cycles: u64,
    skipped: u64,
}

/// Replays every layer over the workload's inputs and pushes its metrics.
pub fn measure(ctx: &Ctx, inputs: &LayerInputs<'_>, metrics: &mut Metrics) {
    let spans = &ctx.spans;
    let mut cores: BTreeMap<&'static str, CoreCounts> = BTreeMap::new();
    let (mut l1_hits, mut l2_hits, mut mem_accesses) = (0u64, 0u64, 0u64);
    let (mut predictions, mut mispredictions) = (0u64, 0u64);
    let (mut exact_ns, mut exact_instrs) = (0u64, 0u64);
    let (mut sampled_ns, mut sampled_instrs, mut sampled_detailed) = (0u64, 0u64, 0u64);
    for job in replay_set(inputs.jobs) {
        let family = prefix(&job.machine);
        let replay = spans.open(&format!("replay/{}", job.workload.name()), None);
        let parent = Some(replay);
        let limit = if job.workload.is_finite() {
            job.budget
        } else {
            job.budget.min(REPLAY_OPS)
        };
        let stream_span = match job.workload {
            Workload::Spec(_) => "Workload::stream/spec",
            Workload::Riscv(_) => "Workload::stream/riscv",
        };
        let (ops, _) = spans.time(stream_span, parent, || {
            let ops: Vec<MicroOp> = job
                .workload
                .stream(job.seed)
                .take(limit.min(REPLAY_OPS) as usize)
                .collect();
            let n = ops.len() as u64;
            (ops, n)
        });

        let (stats, took) = spans.time(
            &format!("Machine::simulate_stream/{family}"),
            parent,
            || {
                let stats = job.machine.simulate_stream(
                    &job.mem,
                    &mut ops.iter().copied(),
                    ops.len() as u64,
                );
                let n = stats.committed;
                (stats, n)
            },
        );
        let counts = cores.entry(family).or_default();
        counts.ns += took.as_nanos() as u64;
        counts.committed += stats.committed;
        counts.ticks += stats.ticks_executed;
        counts.cycles += stats.cycles;
        counts.skipped += stats.cycles_skipped;

        let addrs: Vec<(u64, bool)> = ops
            .iter()
            .filter_map(|op| op.mem_addr.map(|a| (a, op.is_store())))
            .collect();
        let (mem_stats, _) = spans.time("MemoryHierarchy::access", parent, || {
            let mut mem = MemoryHierarchy::new(job.mem.clone()).expect("valid memory");
            for (now, &(addr, is_write)) in addrs.iter().enumerate() {
                black_box(mem.access(addr, is_write, now as u64));
            }
            (mem.stats(), addrs.len() as u64)
        });
        l1_hits += mem_stats.l1_hits;
        l2_hits += mem_stats.l2_hits;
        mem_accesses += mem_stats.memory_accesses;
        spans.time("MemoryHierarchy::warm_access", parent, || {
            let mut mem = MemoryHierarchy::new(job.mem.clone()).expect("valid memory");
            for &(addr, is_write) in &addrs {
                mem.warm_access(addr, is_write);
            }
            black_box(mem.stats());
            ((), addrs.len() as u64)
        });

        let branches: Vec<(u64, bool)> = ops
            .iter()
            .filter(|op| op.is_conditional_branch())
            .map(|op| (op.pc, op.branch.is_some_and(|b| b.taken)))
            .collect();
        let (predictor, _) = spans.time("BranchPredictor::predict+update", parent, || {
            let mut predictor = PredictorKind::default().build();
            for &(pc, taken) in &branches {
                let predicted = predictor.predict(pc);
                predictor.update(pc, taken, predicted);
            }
            (predictor, branches.len() as u64)
        });
        predictions += predictor.predictions();
        mispredictions += predictor.mispredictions();

        if let Workload::Riscv(run) = job.workload {
            spans.time("Emulator::step", parent, || {
                let mut emu = run.emulator();
                while emu.step().is_some() {}
                (black_box(emu.retired()), emu.retired())
            });
            spans.time("WorkloadStream::fast_forward/riscv", parent, || {
                let skipped = job.workload.stream(job.seed).fast_forward(u64::MAX);
                ((), skipped)
            });
        }

        // Sampling phases on a core that ran the first half of the ops.
        let mut core = Core::build(&job.machine, &job.mem);
        core.run(&ops[..ops.len() / 2]);
        spans.time(&format!("snapshot+restore/{family}"), parent, || {
            for _ in 0..CHECKPOINTS {
                core.checkpoint_round_trip();
            }
            ((), CHECKPOINTS)
        });
        spans.time("warm_op", parent, || {
            for op in &ops[ops.len() / 2..] {
                core.warm_op(op);
            }
            ((), (ops.len() - ops.len() / 2) as u64)
        });

        // The sampled run against its exact twin, both from the stream.
        let (exact, took) = spans.time("Machine::simulate", parent, || {
            let stats = job
                .machine
                .simulate(&job.mem, &job.workload, job.budget, job.seed);
            let n = stats.committed;
            (stats, n)
        });
        exact_ns += took.as_nanos() as u64;
        exact_instrs += exact.committed;
        let (run, took) = spans.time("run_sampled", parent, || {
            let mut stream = job.workload.stream(job.seed);
            let run = run_sampled(
                &job.machine,
                &job.mem,
                &mut stream,
                job.budget,
                &inputs.sample,
            );
            let n = run.consumed();
            (run, n)
        });
        sampled_ns += took.as_nanos() as u64;
        sampled_instrs += run.consumed();
        sampled_detailed += run.consumed() - run.fast_forwarded;
        spans.close(replay, 1);
    }

    metrics.push("trace.ns_per_op", spans.ns_per("Workload::stream/spec"));
    metrics.push("riscv.emu_ns_per_instr", spans.ns_per("Emulator::step"));
    metrics.push(
        "riscv.stream_ns_per_op",
        spans.ns_per("Workload::stream/riscv"),
    );
    metrics.push(
        "riscv.ff_ns_per_instr",
        spans.ns_per("WorkloadStream::fast_forward/riscv"),
    );
    for family in ["ooo", "kilo", "dkip"] {
        let c = cores.remove(family).unwrap_or_default();
        metrics.push_owned(
            format!("{family}.ns_per_op"),
            c.ns as f64 / c.committed as f64,
        );
        metrics.push_owned(
            format!("{family}.ns_per_tick"),
            c.ns as f64 / c.ticks as f64,
        );
        metrics.push_owned(
            format!("{family}.skipped_frac"),
            c.skipped as f64 / c.cycles as f64,
        );
    }
    let accesses = (l1_hits + l2_hits + mem_accesses) as f64;
    metrics.push("mem.access_ns", spans.ns_per("MemoryHierarchy::access"));
    metrics.push(
        "mem.l1_miss_ratio",
        (l2_hits + mem_accesses) as f64 / accesses,
    );
    metrics.push(
        "mem.l2_miss_ratio",
        mem_accesses as f64 / (l2_hits + mem_accesses) as f64,
    );
    metrics.push(
        "mem.warm_access_ns",
        spans.ns_per("MemoryHierarchy::warm_access"),
    );
    metrics.push(
        "bpred.ns_per_branch",
        spans.ns_per("BranchPredictor::predict+update"),
    );
    metrics.push(
        "bpred.mispredict_rate",
        mispredictions as f64 / predictions as f64,
    );
    let checkpoint_ns: Vec<f64> = ["ooo", "kilo", "dkip"]
        .iter()
        .map(|f| spans.ns_per(&format!("snapshot+restore/{f}")))
        .filter(|ns| ns.is_finite())
        .collect();
    metrics.push(
        "sampled.checkpoint_us",
        crate::util::mean(&checkpoint_ns) / 1e3,
    );
    metrics.push("sampled.warm_ns_per_op", spans.ns_per("warm_op"));
    metrics.push(
        "sampled.detailed_frac",
        sampled_detailed as f64 / sampled_instrs as f64,
    );
    metrics.push(
        "sampled.speedup",
        (sampled_instrs as f64 / sampled_ns as f64) / (exact_instrs as f64 / exact_ns as f64),
    );
    store_replay(ctx, inputs, metrics);
}

/// Replays the workload's results through a fresh store: key derivation,
/// a cold lookup of every job (jobs repeated in the list hit), an insert
/// of every miss, then a warm lookup of every job.
fn store_replay(ctx: &Ctx, inputs: &LayerInputs<'_>, metrics: &mut Metrics) {
    let spans = &ctx.spans;
    let dir = ctx
        .out_dir
        .join(format!("store-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = match ResultStore::open(&dir) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("# store replay skipped: {e}");
            return;
        }
    };
    let mut keys = Vec::new();
    let mut hits = 0u64;
    for (job, result) in inputs.jobs.iter().zip(inputs.results) {
        let (key, _) = spans.time("ResultStore::key_for_text", None, || {
            (store.key_for_text(&job.key_text()), 1)
        });
        let (found, _) = spans.time("ResultStore::lookup/cold", None, || {
            (store.lookup(&key).is_some(), 1)
        });
        if found {
            hits += 1;
        } else {
            spans.time("ResultStore::insert", None, || {
                let _ = store.insert(&key, &result.stats, result.covered);
                ((), 1)
            });
        }
        keys.push(key);
    }
    for key in &keys {
        spans.time("ResultStore::lookup", None, || {
            (black_box(store.lookup(key)), 1)
        });
    }
    let _ = std::fs::remove_dir_all(&dir);
    metrics.push(
        "store.key_us",
        spans.ns_per("ResultStore::key_for_text") / 1e3,
    );
    metrics.push("store.lookup_us", spans.ns_per("ResultStore::lookup") / 1e3);
    metrics.push("store.insert_us", spans.ns_per("ResultStore::insert") / 1e3);
    metrics.push("store.hit_ratio", hits as f64 / keys.len().max(1) as f64);
}
