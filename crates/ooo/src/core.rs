//! The out-of-order core model.
//!
//! [`OooCore`] implements a trace-driven, cycle-level R10000-style
//! out-of-order pipeline: fetch (with branch prediction), rename/dispatch
//! into a ROB + issue queues + LSQ, dependency-driven issue bounded by
//! functional units and memory ports, execution against the memory
//! hierarchy, and in-order commit. Fetch is the shared [`FrontEnd`];
//! rename, wakeup, select and writeback are the shared [`IssueEngine`];
//! commit is this core's own tail.
//!
//! The same core also provides the *slow-lane* option used by the
//! traditional KILO-instruction baseline (`dkip-kilo`): when a slow lane is
//! configured, instructions that depend on an outstanding long-latency load
//! are parked outside the issue queues (as in the WIB / SLIQ proposals) and
//! re-enter an issue queue once their operands are available.

use crate::engine::{IssueEngine, MemorySide};
use crate::front_end::FrontEnd;
use crate::fu::MemPorts;
use crate::lsq::Lsq;
use dkip_mem::{AccessOutcome, MemoryHierarchy};
use dkip_model::config::{
    event_clock_enabled, BaselineConfig, FuConfig, MemoryHierarchyConfig, SchedPolicy, WidthConfig,
};
use dkip_model::telemetry::{MetricsFrame, NoProbe, Probe};
use dkip_model::{drive, MicroOp, OpClass, RegClass, SimCore, SimStats, WarmSink};
use dkip_trace::{Benchmark, TraceGenerator};

/// Engine-level parameters, independent of which paper configuration they
/// came from.
#[derive(Debug, Clone)]
pub struct CoreParams {
    /// In-flight instruction window (ROB capacity).
    pub window: usize,
    /// Integer issue-queue capacity.
    pub int_iq: usize,
    /// Floating-point issue-queue capacity.
    pub fp_iq: usize,
    /// Scheduling policy of both issue queues.
    pub sched: SchedPolicy,
    /// Load/store queue capacity.
    pub lsq: usize,
    /// Memory ports per cycle.
    pub memory_ports: usize,
    /// Pipeline widths.
    pub widths: WidthConfig,
    /// Functional-unit pools.
    pub fu: FuConfig,
    /// Front-end refill penalty after a mispredicted branch resolves.
    pub mispredict_penalty: u64,
    /// Collect the decode→issue histogram (Figure 3).
    pub collect_issue_histogram: bool,
    /// Capacity of the slow lane (WIB/SLIQ-style buffer) if present.
    pub slow_lane: Option<usize>,
}

impl From<&BaselineConfig> for CoreParams {
    fn from(cfg: &BaselineConfig) -> Self {
        CoreParams {
            window: cfg.rob_capacity,
            int_iq: cfg.int_iq_capacity,
            fp_iq: cfg.fp_iq_capacity,
            sched: cfg.sched,
            lsq: cfg.lsq_capacity,
            memory_ports: cfg.memory_ports,
            widths: cfg.widths,
            fu: cfg.fu,
            mispredict_penalty: cfg.mispredict_penalty,
            collect_issue_histogram: cfg.collect_issue_histogram,
            slow_lane: None,
        }
    }
}

/// A deep-copied checkpoint of an [`OooCore`], captured by
/// [`OooCore::snapshot`].
///
/// The snapshot holds the complete microarchitectural state — ROB, issue
/// queues, LSQ, rename scoreboard, in-flight completions, branch-predictor
/// tables, cache contents and statistics — so a core materialised from it
/// by [`CoreSnapshot::to_core`] continues the simulation bit-identically
/// to the original. It wraps the core's `Clone`, the one snapshot
/// mechanism, and stays because the end-to-end benchmark calls it.
#[derive(Debug, Clone)]
pub struct CoreSnapshot {
    state: OooCore,
}

impl CoreSnapshot {
    /// Materialises an independent core that resumes from this checkpoint.
    #[must_use]
    pub fn to_core(&self) -> OooCore {
        self.state.clone()
    }
}

/// The cache hierarchy, LSQ and memory ports of an [`OooCore`]: its
/// [`MemorySide`].
#[derive(Debug, Clone)]
pub(crate) struct Memory {
    pub(crate) hierarchy: MemoryHierarchy,
    pub(crate) lsq: Lsq,
    pub(crate) ports: MemPorts,
}

impl MemorySide for Memory {
    #[inline]
    fn lsq_mut(&mut self) -> &mut Lsq {
        &mut self.lsq
    }

    #[inline]
    fn ports_mut(&mut self) -> &mut MemPorts {
        &mut self.ports
    }

    #[inline]
    fn access(&mut self, addr: u64, is_write: bool, now: u64) -> AccessOutcome {
        self.hierarchy.access(addr, is_write, now)
    }
}

/// The trace-driven out-of-order core.
#[derive(Debug, Clone)]
pub struct OooCore {
    params: CoreParams,
    memory: Memory,
    /// Fetch, branch prediction and mispredict recovery.
    front: FrontEnd,
    /// Rename, wakeup, select and writeback, with the slow lane.
    engine: IssueEngine,
    cycle: u64,
    /// Force one tick per simulated cycle instead of letting [`drive`]
    /// fast-forward over quiesced stretches (set by `DKIP_NO_SKIP=1`).
    single_step: bool,
    stats: SimStats,
    /// Reusable traversal frontier for [`park_dependants`].
    frontier_scratch: Vec<u64>,
}

impl OooCore {
    /// Builds a core from engine parameters and a memory hierarchy.
    #[must_use]
    pub fn new(params: CoreParams, mem: MemoryHierarchy) -> Self {
        OooCore {
            memory: Memory {
                hierarchy: mem,
                lsq: Lsq::new(params.lsq),
                ports: MemPorts::new(params.memory_ports),
            },
            front: FrontEnd::new(params.widths.fetch),
            engine: IssueEngine::new(&params),
            cycle: 0,
            single_step: !event_clock_enabled(),
            stats: SimStats::new(),
            frontier_scratch: Vec::new(),
            params,
        }
    }

    /// Convenience constructor from a paper baseline configuration.
    #[must_use]
    pub fn from_baseline(cfg: &BaselineConfig, mem: MemoryHierarchy) -> Self {
        Self::new(CoreParams::from(cfg), mem)
    }

    /// Forces (or releases) single-stepped simulation regardless of the
    /// `DKIP_NO_SKIP` environment variable sampled at construction.
    pub fn set_single_step(&mut self, single_step: bool) {
        self.single_step = single_step;
    }

    /// Whether dispatch was ever refused for lack of room; see
    /// [`IssueEngine::ever_full`].
    #[must_use]
    pub fn ever_full(&self) -> bool {
        self.engine.ever_full()
    }

    /// Whether the L2 ever evicted a valid line; see
    /// [`MemoryHierarchy::l2_ever_evicted`].
    #[must_use]
    pub fn l2_ever_evicted(&self) -> bool {
        self.memory.hierarchy.l2_ever_evicted()
    }

    /// Captures a checkpoint of the complete core state (pipeline, caches,
    /// predictor, statistics). See [`CoreSnapshot`] for the contract.
    ///
    /// Note the trace iterator is *not* part of the core: callers pairing a
    /// snapshot with a resumable stream must checkpoint the stream
    /// position themselves (e.g. by cloning the [`dkip_model::MicroOp`]
    /// source).
    #[must_use]
    pub fn snapshot(&self) -> CoreSnapshot {
        CoreSnapshot {
            state: self.clone(),
        }
    }

    /// Functionally warms the long-lived microarchitectural state with one
    /// instruction that is *not* being simulated in detail; see the
    /// [`WarmSink`] impl, which the sampled-simulation mode drives straight
    /// from the instruction source without building micro-ops.
    pub fn warm_op(&mut self, op: &MicroOp) {
        WarmSink::warm_op(self, op);
    }

    /// Runs the core until `max_instrs` instructions have committed in
    /// total, the trace ends and the pipeline drains (finite
    /// execution-driven streams run to completion), or a safety cycle bound
    /// is hit, and returns the accumulated statistics. See [`drive`], which
    /// also fast-forwards quiesced stretches bit-identically.
    pub fn run(&mut self, trace: &mut dyn Iterator<Item = MicroOp>, max_instrs: u64) -> SimStats {
        drive(self, trace, max_instrs, &mut NoProbe)
    }

    fn do_commit<P: Probe>(&mut self, probe: &mut P) -> bool {
        let mut committed = false;
        for _ in 0..self.params.widths.commit {
            if !self.engine.rob().head().is_some_and(|head| head.completed) {
                break;
            }
            committed = true;
            let entry = self.engine.pop_head().expect("head exists");
            match entry.op.class {
                OpClass::Load => self.memory.lsq.retire_load(entry.op.seq),
                OpClass::Store => self.memory.lsq.retire_store(
                    entry.op.seq,
                    entry.op.mem_addr.expect("store has an address"),
                ),
                _ => {}
            }
            self.stats.committed += 1;
            self.stats.high_locality_instrs += 1;
            probe.trace_commit(entry.op.seq, self.cycle);
        }
        committed
    }
}

/// The OoO cores' answer to a load that missed to main memory: it completes
/// in the pipeline when its value arrives, and a configured slow lane first
/// parks its not-yet-issued dependants outside the issue queues
/// (transitively), as the WIB/SLIQ designs do.
fn park_dependants(engine: &mut IssueEngine, frontier: &mut Vec<u64>, seq: u64) {
    if engine.slow_lane.is_none() {
        return;
    }
    frontier.clear();
    frontier.push(seq);
    while let Some(producer) = frontier.pop() {
        for &consumer in engine.consumers.get(producer) {
            let Some(entry) = engine.rob.get_mut(consumer) else {
                continue;
            };
            if entry.issued || entry.parked {
                continue;
            }
            let moved = match entry.queue_class {
                RegClass::Int => engine.int_iq.remove(consumer),
                RegClass::Fp => engine.fp_iq.remove(consumer),
            };
            if moved {
                entry.parked = true;
                engine.parked += 1;
                frontier.push(consumer);
            }
        }
    }
}

/// One cycle of the out-of-order pipeline, for [`drive`]: commit,
/// writeback/wakeup, slow-lane reinsert, issue, dispatch and fetch, in that
/// order.
impl SimCore for OooCore {
    fn tick<P: Probe>(&mut self, trace: &mut dyn Iterator<Item = MicroOp>, probe: &mut P) -> bool {
        self.cycle += 1;
        self.stats.ticks_executed += 1;
        self.engine.begin_cycle();
        self.memory.ports.begin_cycle();
        let now = self.cycle;
        let mut progress = self.do_commit(probe);
        progress |= self
            .engine
            .writeback(now, &mut self.front, &mut self.stats, probe);
        progress |= self.engine.reinsert();
        let frontier = &mut self.frontier_scratch;
        progress |= self
            .engine
            .issue(now, &mut self.memory, probe, |engine, _, seq, _| {
                park_dependants(engine, frontier, seq);
                true
            });
        // A producer leaves the ROB only at commit, after it completed.
        progress |= self.engine.dispatch(
            now,
            &mut self.front,
            &mut self.memory,
            &mut self.stats,
            probe,
            |_| false,
        );
        progress |= self.front.fetch(now, trace, &mut self.stats, probe);
        progress
    }

    /// The next scheduled execution completion, the end of the front-end
    /// refill penalty, or the next outstanding cache fill.
    fn next_event(&mut self) -> Option<u64> {
        let now = self.cycle;
        [
            self.engine.next_completion(now),
            self.front.next_event(now),
            self.memory.hierarchy.next_event(now),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    fn is_drained(&self) -> bool {
        self.front.is_drained() && self.engine.rob().is_empty()
    }

    fn rearm_trace(&mut self) {
        self.front.rearm();
    }

    /// The slow lane (KILO) maps onto the frame's low-locality-buffer
    /// column; the plain baseline has neither an LLIB nor an LLBV.
    fn metrics_frame(&self) -> MetricsFrame {
        let mut frame = MetricsFrame {
            cycle: self.cycle,
            committed: self.stats.committed,
            rob: self.engine.rob().len() as u64,
            iq: self.engine.queued() as u64,
            lsq: self.memory.lsq.occupancy() as u64,
            llib: self.engine.parked as u64,
            llbv: 0,
            cond_branches: self.stats.cond_branches,
            branch_mispredicts: self.stats.branch_mispredicts,
            ticks_executed: self.stats.ticks_executed,
            cycles_skipped: self.stats.cycles_skipped,
            ..MetricsFrame::default()
        };
        self.memory.hierarchy.stats().fill_metrics(&mut frame);
        frame
    }

    fn finalize_stats(&mut self) {
        self.stats.cycles = self.cycle;
        let mem_stats = self.memory.hierarchy.stats();
        self.stats.l1_hits = mem_stats.l1_hits;
        self.stats.l2_hits = mem_stats.l2_hits;
        self.stats.mem_accesses = mem_stats.memory_accesses;
        self.stats.issue_latency = self.engine.issue_hist.clone();
    }

    fn single_step(&self) -> bool {
        self.single_step
    }

    fn cycle(&self) -> u64 {
        self.cycle
    }

    fn cycle_mut(&mut self) -> &mut u64 {
        &mut self.cycle
    }

    fn stats(&self) -> &SimStats {
        &self.stats
    }

    fn stats_mut(&mut self) -> &mut SimStats {
        &mut self.stats
    }
}

/// Functional warming of the long-lived microarchitectural state with
/// instructions that are *not* simulated in detail: memory accesses
/// install/promote their line in the cache hierarchy (timing-free, see
/// [`MemoryHierarchy::warm_access`]) and conditional branches train the
/// direction predictor as the pipeline's in-order predict/update pair
/// would ([`FrontEnd::warm_branch`]).
///
/// The sampled-simulation mode warms the drained core with every
/// fast-forwarded instruction so detailed windows measure against cache
/// and predictor contents that track the exact run, without modelling any
/// timing. The pipeline, clock and committed counters are untouched.
impl WarmSink for OooCore {
    fn warm_mem(&mut self, addr: u64, is_write: bool) {
        self.memory.hierarchy.warm_access(addr, is_write);
    }

    fn warm_branch(&mut self, pc: u64, taken: bool) {
        self.front.warm_branch(pc, taken);
    }
}

/// Runs `benchmark` for `max_instrs` committed instructions on the baseline
/// configuration `cfg` with memory hierarchy `mem_cfg`.
///
/// This is the entry point used by the Figure 1/2/3/9 experiment drivers.
///
/// # Panics
///
/// Panics if the memory configuration is invalid.
#[must_use]
pub fn run_baseline(
    cfg: &BaselineConfig,
    mem_cfg: &MemoryHierarchyConfig,
    benchmark: Benchmark,
    max_instrs: u64,
    seed: u64,
) -> SimStats {
    let mem = MemoryHierarchy::new(mem_cfg.clone()).expect("invalid memory configuration");
    OooCore::from_baseline(cfg, mem).run(&mut TraceGenerator::new(benchmark, seed), max_instrs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkip_model::config::MemoryHierarchyConfig;

    fn run(cfg: &BaselineConfig, mem: MemoryHierarchyConfig, bench: Benchmark, n: u64) -> SimStats {
        run_baseline(cfg, &mem, bench, n, 1)
    }

    #[test]
    fn commits_the_requested_number_of_instructions() {
        let stats = run(
            &BaselineConfig::r10_64(),
            MemoryHierarchyConfig::l1_2(),
            Benchmark::Crafty,
            5_000,
        );
        // Commit is up to 4 wide, so the run may overshoot by at most
        // commit_width - 1 instructions.
        assert!(
            stats.committed >= 5_000 && stats.committed < 5_004,
            "committed={}",
            stats.committed
        );
        assert!(stats.cycles > 0);
        assert!(stats.fetched >= stats.committed);
    }

    #[test]
    fn ipc_is_bounded_by_the_machine_width() {
        let stats = run(
            &BaselineConfig::r10_256(),
            MemoryHierarchyConfig::l1_2(),
            Benchmark::Swim,
            10_000,
        );
        assert!(stats.ipc() <= 4.0 + 1e-9, "ipc={}", stats.ipc());
        assert!(
            stats.ipc() > 0.5,
            "a perfect-L1 machine should sustain decent IPC"
        );
    }

    #[test]
    fn slower_memory_lowers_ipc() {
        let fast = run(
            &BaselineConfig::r10_64(),
            MemoryHierarchyConfig::l1_2(),
            Benchmark::Swim,
            8_000,
        );
        let slow = run(
            &BaselineConfig::r10_64(),
            MemoryHierarchyConfig::mem_1000(),
            Benchmark::Swim,
            8_000,
        );
        assert!(
            slow.ipc() < fast.ipc() * 0.8,
            "memory wall must hurt: fast={} slow={}",
            fast.ipc(),
            slow.ipc()
        );
    }

    #[test]
    fn larger_windows_help_fp_codes_with_slow_memory() {
        let small = run(
            &BaselineConfig::idealized(32),
            MemoryHierarchyConfig::mem_400(),
            Benchmark::Swim,
            12_000,
        );
        let large = run(
            &BaselineConfig::idealized(1024),
            MemoryHierarchyConfig::mem_400(),
            Benchmark::Swim,
            12_000,
        );
        assert!(
            large.ipc() > small.ipc() * 1.5,
            "window scaling must recover FP IPC: small={} large={}",
            small.ipc(),
            large.ipc()
        );
    }

    #[test]
    fn pointer_chasing_defeats_window_scaling() {
        let small = run(
            &BaselineConfig::idealized(64),
            MemoryHierarchyConfig::mem_400(),
            Benchmark::Mcf,
            6_000,
        );
        let large = run(
            &BaselineConfig::idealized(2048),
            MemoryHierarchyConfig::mem_400(),
            Benchmark::Mcf,
            6_000,
        );
        // Some benefit is allowed (prefetching effect) but nothing like the
        // FP recovery.
        assert!(
            large.ipc() < small.ipc() * 2.5,
            "mcf should not scale dramatically: small={} large={}",
            small.ipc(),
            large.ipc()
        );
    }

    #[test]
    fn branches_are_predicted_and_sometimes_mispredicted() {
        let stats = run(
            &BaselineConfig::r10_64(),
            MemoryHierarchyConfig::mem_400(),
            Benchmark::Gcc,
            10_000,
        );
        assert!(stats.cond_branches > 500);
        assert!(stats.branch_mispredicts > 0);
        assert!(stats.mispredict_rate() < 0.35);
    }

    #[test]
    fn fp_codes_have_lower_mispredict_rates_than_int_codes() {
        let int = run(
            &BaselineConfig::r10_64(),
            MemoryHierarchyConfig::mem_400(),
            Benchmark::Twolf,
            10_000,
        );
        let fp = run(
            &BaselineConfig::r10_64(),
            MemoryHierarchyConfig::mem_400(),
            Benchmark::Mgrid,
            10_000,
        );
        assert!(
            fp.mispredict_rate() < int.mispredict_rate(),
            "fp={} int={}",
            fp.mispredict_rate(),
            int.mispredict_rate()
        );
    }

    #[test]
    fn issue_histogram_is_collected_when_requested() {
        let mut cfg = BaselineConfig::idealized(512);
        cfg.collect_issue_histogram = true;
        let stats = run(
            &cfg,
            MemoryHierarchyConfig::mem_400(),
            Benchmark::Swim,
            8_000,
        );
        let hist = stats.issue_latency.expect("histogram requested");
        assert!(hist.total_samples() > 4_000);
        // Most instructions issue quickly; some wait for the 400-cycle memory.
        assert!(hist.fraction_at_most(100) > 0.4);
    }

    #[test]
    fn memory_statistics_are_propagated() {
        let stats = run(
            &BaselineConfig::r10_64(),
            MemoryHierarchyConfig::mem_400(),
            Benchmark::Art,
            8_000,
        );
        assert!(stats.loads > 0);
        assert!(stats.l1_hits + stats.l2_hits + stats.mem_accesses > 0);
        assert!(stats.mem_accesses > 0, "art must miss to memory");
    }

    #[test]
    fn slow_lane_keeps_small_queues_from_clogging() {
        // A KILO-style configuration: small issue queues, big window, slow
        // lane enabled. It should clearly beat the same small queues without
        // a slow lane on a memory-bound FP workload.
        let mem = MemoryHierarchyConfig::mem_400();
        let mut params = CoreParams::from(&BaselineConfig::r10_64());
        params.window = 1024;
        params.int_iq = 72;
        params.fp_iq = 72;
        params.slow_lane = Some(1024);
        let hierarchy = MemoryHierarchy::new(mem.clone()).unwrap();
        let mut core = OooCore::new(params, hierarchy);
        let mut trace = TraceGenerator::new(Benchmark::Swim, 1);
        let with_lane = core.run(&mut trace, 10_000);

        let mut small = BaselineConfig::r10_64();
        small.rob_capacity = 1024;
        small.int_iq_capacity = 72;
        small.fp_iq_capacity = 72;
        let without_lane = run(&small, mem, Benchmark::Swim, 10_000);
        assert!(
            with_lane.ipc() >= without_lane.ipc(),
            "slow lane must not hurt: with={} without={}",
            with_lane.ipc(),
            without_lane.ipc()
        );
    }

    #[test]
    fn parked_count_matches_the_parked_rob_entries() {
        // The slow lane is a flag on the ROB entry plus a counter for the
        // capacity check and the metrics frame: the two must never drift.
        let mut params = CoreParams::from(&BaselineConfig::r10_64());
        params.window = 1024;
        params.int_iq = 72;
        params.fp_iq = 72;
        params.slow_lane = Some(512);
        let mut most_parked = 0;
        for bench in [Benchmark::Swim, Benchmark::Mcf] {
            let hierarchy = MemoryHierarchy::new(MemoryHierarchyConfig::mem_400()).unwrap();
            let mut core = OooCore::new(params.clone(), hierarchy);
            let mut trace = TraceGenerator::new(bench, 1);
            for target in (1..=5).map(|step| step * 4_000) {
                core.run(&mut trace, target);
                let rob = core.engine.rob();
                let head = rob.head().map_or(0, |e| e.op.seq);
                let entries: Vec<_> = (head..head + rob.len() as u64)
                    .map(|seq| rob.get(seq).expect("the ROB is dense"))
                    .collect();
                let parked = entries.iter().filter(|e| e.parked).count();
                assert_eq!(
                    core.engine.parked, parked,
                    "{bench:?} after {target} instructions"
                );
                assert!(parked <= 512);
                assert!(
                    entries.iter().all(|e| !(e.long_latency && e.completed)),
                    "{bench:?}: a completed load still flagged long latency"
                );
                most_parked = most_parked.max(parked);
            }
        }
        assert!(most_parked > 0, "memory-bound runs must park instructions");
    }

    #[test]
    fn event_clock_is_bit_identical_to_single_stepping() {
        let mem = MemoryHierarchyConfig::mem_1000();
        let run_mode = |single_step: bool| {
            let hierarchy = MemoryHierarchy::new(mem.clone()).unwrap();
            let mut core = OooCore::from_baseline(&BaselineConfig::r10_64(), hierarchy);
            core.set_single_step(single_step);
            let mut trace = TraceGenerator::new(Benchmark::Swim, 1);
            core.run(&mut trace, 8_000)
        };
        let stepped = run_mode(true);
        let skipped = run_mode(false);
        assert_eq!(
            stepped.to_kv(),
            skipped.to_kv(),
            "skipping must be observationally pure"
        );
        assert_eq!(stepped.cycles_skipped, 0);
        assert_eq!(stepped.ticks_executed, stepped.cycles);
        assert!(
            skipped.cycles_skipped > 0,
            "a memory-bound small-window run must quiesce"
        );
        assert_eq!(
            skipped.ticks_executed + skipped.cycles_skipped,
            skipped.cycles,
            "every simulated cycle is either ticked or skipped"
        );
    }

    #[test]
    fn next_event_reports_pending_completions() {
        let hierarchy = MemoryHierarchy::new(MemoryHierarchyConfig::mem_400()).unwrap();
        let mut core = OooCore::from_baseline(&BaselineConfig::r10_64(), hierarchy);
        assert_eq!(core.next_event(), None, "an empty machine has no events");
        let mut trace = TraceGenerator::new(Benchmark::Swim, 1);
        // Fetch → dispatch → issue takes a few cycles; once something is
        // executing, a completion event must be pending.
        for _ in 0..20 {
            core.tick(&mut trace, &mut NoProbe);
            if let Some(event) = core.next_event() {
                assert!(event > core.cycle());
                return;
            }
        }
        panic!("no event became pending while filling the pipeline");
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run(
            &BaselineConfig::r10_64(),
            MemoryHierarchyConfig::mem_400(),
            Benchmark::Vpr,
            5_000,
        );
        let b = run(
            &BaselineConfig::r10_64(),
            MemoryHierarchyConfig::mem_400(),
            Benchmark::Vpr,
            5_000,
        );
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.branch_mispredicts, b.branch_mispredicts);
    }
}
