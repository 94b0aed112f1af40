//! The out-of-order core model.
//!
//! [`OooCore`] implements a trace-driven, cycle-level R10000-style
//! out-of-order pipeline: fetch (with branch prediction), rename/dispatch
//! into a ROB + issue queues + LSQ, dependency-driven issue bounded by
//! functional units and memory ports, execution against the memory
//! hierarchy, and in-order commit.
//!
//! The same engine also provides the *slow-lane* option used by the
//! traditional KILO-instruction baseline (`dkip-kilo`): when a slow lane is
//! configured, instructions that depend on an outstanding long-latency load
//! are parked outside the issue queues (as in the WIB / SLIQ proposals) and
//! re-enter an issue queue once their operands are available.

use crate::fu::{FunctionalUnits, MemPorts};
use crate::iq::IssueQueue;
use crate::lsq::{Lsq, FORWARD_LATENCY};
use crate::rob::{Rob, RobEntry};
use dkip_bpred::PerceptronPredictor;
use dkip_mem::{AccessLevel, MemoryHierarchy};
use dkip_model::config::{
    event_clock_enabled, BaselineConfig, FuConfig, MemoryHierarchyConfig, SchedPolicy, WidthConfig,
};
use dkip_model::telemetry::{MetricsFrame, Stage, Telemetry};
use dkip_model::{
    drive, ConsumerTable, DepList, Histogram, LastWriters, MicroOp, OpClass, RegClass, SimCore,
    SimStats, WarmSink,
};
use dkip_trace::{Benchmark, TraceGenerator};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// An outstanding memory access is considered *long latency* (and therefore
/// creates low execution locality) when its total latency is at least this
/// many cycles — i.e. it went to main memory rather than a cache.
pub const LONG_LATENCY_THRESHOLD: u64 = 50;

/// Engine-level parameters, independent of which paper configuration they
/// came from.
#[derive(Debug, Clone)]
pub struct CoreParams {
    /// Display name.
    pub name: String,
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
            name: cfg.name.clone(),
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

/// The trace-driven out-of-order core.
#[derive(Debug, Clone)]
pub struct OooCore {
    params: CoreParams,
    mem: MemoryHierarchy,
    predictor: PerceptronPredictor,
    cycle: u64,
    rob: Rob,
    int_iq: IssueQueue,
    fp_iq: IssueQueue,
    lsq: Lsq,
    fus: FunctionalUnits,
    ports: MemPorts,
    /// Completion events: (cycle, seq).
    completions: BinaryHeap<Reverse<(u64, u64)>>,
    /// Producer seq → consumer seqs still waiting on it (pooled spines).
    consumers: ConsumerTable,
    /// Architectural register → seq of its most recent producer (flat
    /// scoreboard).
    last_writer: LastWriters,
    /// Fetched but not yet dispatched instructions.
    fetch_queue: VecDeque<MicroOp>,
    /// Dispatched, mispredicted, not-yet-resolved conditional branches
    /// (front = oldest). Fetch and younger dispatch stall behind the front.
    unresolved_mispredicts: VecDeque<u64>,
    /// Cycle at which fetch may resume after the refill penalty.
    fetch_resume_at: u64,
    /// Instructions with a sequence number greater than this may not
    /// dispatch while the refill penalty is being paid.
    refill_boundary: u64,
    /// Number of ROB entries parked in the slow lane ([`RobEntry::parked`];
    /// only a configured slow lane parks any).
    parked: usize,
    /// Parked instructions whose operands are now ready, waiting for issue
    /// queue space.
    reinsert_queue: VecDeque<u64>,
    /// Whether the trace iterator has returned `None` (finite traces such as
    /// the execution-driven RISC-V kernels end; the synthetic generators
    /// never do).
    trace_done: bool,
    /// Force one tick per simulated cycle instead of letting [`drive`]
    /// fast-forward over quiesced stretches (set by `DKIP_NO_SKIP=1`).
    single_step: bool,
    stats: SimStats,
    issue_hist: Option<Histogram>,
    /// Reusable per-cycle selection buffer (see [`IssueQueue::select_into`]).
    issue_scratch: Vec<(u64, OpClass)>,
    /// Reusable traversal frontier for [`OooCore::mark_long_latency`].
    frontier_scratch: Vec<u64>,
}

impl OooCore {
    /// Builds a core from engine parameters and a memory hierarchy.
    #[must_use]
    pub fn new(params: CoreParams, mem: MemoryHierarchy) -> Self {
        let issue_hist = params
            .collect_issue_histogram
            .then(|| Histogram::new(20, 2000));
        OooCore {
            rob: Rob::new(params.window),
            int_iq: IssueQueue::new(params.int_iq, params.sched),
            fp_iq: IssueQueue::new(params.fp_iq, params.sched),
            lsq: Lsq::new(params.lsq),
            fus: FunctionalUnits::new(params.fu),
            ports: MemPorts::new(params.memory_ports),
            completions: BinaryHeap::new(),
            consumers: ConsumerTable::new(),
            last_writer: LastWriters::new(),
            fetch_queue: VecDeque::new(),
            unresolved_mispredicts: VecDeque::new(),
            fetch_resume_at: 0,
            refill_boundary: u64::MAX,
            parked: 0,
            reinsert_queue: VecDeque::new(),
            trace_done: false,
            single_step: !event_clock_enabled(),
            stats: SimStats::new(),
            issue_hist,
            issue_scratch: Vec::new(),
            frontier_scratch: Vec::new(),
            cycle: 0,
            predictor: PerceptronPredictor::paper_default(),
            mem,
            params,
        }
    }

    /// Convenience constructor from a paper baseline configuration.
    #[must_use]
    pub fn from_baseline(cfg: &BaselineConfig, mem: MemoryHierarchy) -> Self {
        Self::new(CoreParams::from(cfg), mem)
    }

    /// The engine parameters.
    #[must_use]
    pub fn params(&self) -> &CoreParams {
        &self.params
    }

    /// Forces (or releases) single-stepped simulation regardless of the
    /// `DKIP_NO_SKIP` environment variable sampled at construction.
    pub fn set_single_step(&mut self, single_step: bool) {
        self.single_step = single_step;
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
        drive(self, trace, max_instrs, None)
    }

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------
    fn do_commit(&mut self, mut probe: Option<&mut Telemetry>) -> bool {
        let mut committed = false;
        for _ in 0..self.params.widths.commit {
            let Some(head) = self.rob.head() else { break };
            if !head.completed {
                break;
            }
            committed = true;
            let entry = self.rob.pop_head().expect("head exists");
            match entry.op.class {
                OpClass::Load => self.lsq.retire_load(entry.op.seq),
                OpClass::Store => self.lsq.retire_store(
                    entry.op.seq,
                    entry.op.mem_addr.expect("store has an address"),
                ),
                _ => {}
            }
            self.stats.committed += 1;
            self.stats.high_locality_instrs += 1;
            if let Some(t) = probe.as_deref_mut() {
                t.trace_commit(entry.op.seq, self.cycle);
            }
        }
        committed
    }

    // ------------------------------------------------------------------
    // Writeback / wakeup
    // ------------------------------------------------------------------
    fn do_writeback(&mut self, mut probe: Option<&mut Telemetry>) -> bool {
        let mut completed = false;
        while let Some(&Reverse((cycle, seq))) = self.completions.peek() {
            if cycle > self.cycle {
                break;
            }
            completed = true;
            self.completions.pop();
            self.complete_instruction(seq, probe.as_deref_mut());
        }
        completed
    }

    fn complete_instruction(&mut self, seq: u64, probe: Option<&mut Telemetry>) {
        if let Some(t) = probe {
            t.trace_stage(seq, Stage::Complete, self.cycle);
        }
        let (is_cond_branch, taken, predicted, mispredicted, pc) = {
            let Some(entry) = self.rob.get_mut(seq) else {
                return;
            };
            entry.completed = true;
            entry.long_latency = false;
            let is_cond = entry.op.is_conditional_branch();
            let taken = entry.op.branch.map(|b| b.taken).unwrap_or(false);
            (
                is_cond,
                taken,
                entry.predicted_taken,
                entry.mispredicted,
                entry.op.pc,
            )
        };

        if is_cond_branch {
            self.stats.cond_branches += 1;
            self.predictor.update(pc, taken, predicted);
            if mispredicted {
                self.stats.branch_mispredicts += 1;
                if self.unresolved_mispredicts.front() == Some(&seq) {
                    self.unresolved_mispredicts.pop_front();
                    self.fetch_resume_at = self.cycle + self.params.mispredict_penalty;
                    self.refill_boundary = seq;
                }
            }
        }

        // Wake consumers.
        let waiters = self.consumers.take(seq);
        for &consumer in &waiters {
            self.wake_consumer(consumer);
        }
        self.consumers.recycle(waiters);
    }

    fn wake_consumer(&mut self, seq: u64) {
        let Some(entry) = self.rob.get_mut(seq) else {
            return;
        };
        if entry.pending_srcs == 0 {
            return;
        }
        entry.pending_srcs -= 1;
        if entry.pending_srcs == 0 && !entry.issued {
            if entry.parked {
                // Parked instructions re-enter an issue queue when space
                // allows.
                entry.parked = false;
                self.parked -= 1;
                self.reinsert_queue.push_back(seq);
            } else {
                match entry.queue_class {
                    RegClass::Int => self.int_iq.mark_ready(seq),
                    RegClass::Fp => self.fp_iq.mark_ready(seq),
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Slow-lane reinsertion (KILO baseline only)
    // ------------------------------------------------------------------
    fn do_reinsert(&mut self) -> bool {
        let mut moved = false;
        let budget = self.params.widths.decode;
        for _ in 0..budget {
            let Some(&seq) = self.reinsert_queue.front() else {
                break;
            };
            let Some(entry) = self.rob.get(seq) else {
                self.reinsert_queue.pop_front();
                moved = true;
                continue;
            };
            let class = entry.queue_class;
            let op_class = entry.op.class;
            let iq = match class {
                RegClass::Int => &mut self.int_iq,
                RegClass::Fp => &mut self.fp_iq,
            };
            if !iq.has_space() {
                break;
            }
            iq.insert(seq, op_class, true);
            self.reinsert_queue.pop_front();
            moved = true;
        }
        moved
    }

    // ------------------------------------------------------------------
    // Issue / execute
    // ------------------------------------------------------------------
    fn do_issue(&mut self, mut probe: Option<&mut Telemetry>) -> bool {
        let width = self.params.widths.issue;
        let mut selected = std::mem::take(&mut self.issue_scratch);
        selected.clear();
        self.int_iq
            .select_into(width, &mut self.fus, &mut self.ports, &mut selected);
        let remaining = width.saturating_sub(selected.len());
        self.fp_iq
            .select_into(remaining, &mut self.fus, &mut self.ports, &mut selected);

        for &(seq, class) in &selected {
            if let Some(t) = probe.as_deref_mut() {
                t.trace_stage(seq, Stage::Issue, self.cycle);
            }
            self.start_execution(seq, class);
        }
        let issued = !selected.is_empty();
        self.issue_scratch = selected;
        issued
    }

    fn start_execution(&mut self, seq: u64, class: OpClass) {
        let now = self.cycle;
        let (addr, dispatch_cycle) = {
            let entry = self
                .rob
                .get_mut(seq)
                .expect("issued instruction must be in flight");
            entry.issued = true;
            entry.issue_cycle = Some(now);
            (entry.op.mem_addr, entry.dispatch_cycle)
        };
        if let Some(hist) = self.issue_hist.as_mut() {
            hist.record(now - dispatch_cycle);
        }

        let latency = match class {
            OpClass::Load => {
                let addr = addr.expect("load has an address");
                if self.lsq.forwards_from_store(seq, addr) {
                    FORWARD_LATENCY
                } else {
                    let outcome = self.mem.access(addr, false, now);
                    if outcome.level == AccessLevel::Memory {
                        self.mark_long_latency(seq);
                    }
                    outcome.latency
                }
            }
            OpClass::Store => {
                let addr = addr.expect("store has an address");
                // The store is considered complete once it is in the store
                // buffer; the cache is updated immediately for timing
                // purposes.
                let _ = self.mem.access(addr, true, now);
                1
            }
            other => other.exec_latency(),
        };
        self.completions.push(Reverse((now + latency.max(1), seq)));
    }

    /// Marks `seq` as producing a long-latency value and, when a slow lane
    /// is configured, parks its not-yet-issued dependants outside the issue
    /// queues (transitively), as the WIB/SLIQ designs do.
    fn mark_long_latency(&mut self, seq: u64) {
        self.rob
            .get_mut(seq)
            .expect("issued instruction must be in flight")
            .long_latency = true;
        if self.params.slow_lane.is_none() {
            return;
        }
        let mut frontier = std::mem::take(&mut self.frontier_scratch);
        frontier.clear();
        frontier.push(seq);
        while let Some(producer) = frontier.pop() {
            for &consumer in self.consumers.get(producer) {
                let Some(entry) = self.rob.get_mut(consumer) else {
                    continue;
                };
                if entry.issued || entry.parked {
                    continue;
                }
                let moved = match entry.queue_class {
                    RegClass::Int => self.int_iq.remove(consumer),
                    RegClass::Fp => self.fp_iq.remove(consumer),
                };
                if moved {
                    entry.parked = true;
                    self.parked += 1;
                    frontier.push(consumer);
                }
            }
        }
        self.frontier_scratch = frontier;
    }

    // ------------------------------------------------------------------
    // Dispatch / rename
    // ------------------------------------------------------------------
    fn do_dispatch(&mut self, mut probe: Option<&mut Telemetry>) -> bool {
        let mut dispatched = false;
        for _ in 0..self.params.widths.decode {
            let Some(op) = self.fetch_queue.front() else {
                break;
            };
            // Instructions younger than an unresolved mispredicted branch are
            // (conceptually) wrong-path refetches: they only enter the
            // pipeline once the branch has resolved and the refill penalty
            // has been paid.
            if let Some(&blocking) = self.unresolved_mispredicts.front() {
                if op.seq > blocking {
                    break;
                }
            }
            if self.cycle < self.fetch_resume_at && op.seq > self.refill_boundary {
                break;
            }
            if !self.rob.has_space() {
                self.stats.rob_full_stall_cycles += 1;
                break;
            }
            if op.class.is_mem() && !self.lsq.has_space() {
                break;
            }
            let queue_class = op.queue_class();
            // Decide whether the instruction goes to an issue queue or is
            // parked in the slow lane before checking queue space. The
            // producer list is inline ([`DepList`]): a micro-op has at most
            // two sources, so dispatch never touches the heap for it.
            let mut pending_producers = DepList::new();
            for src in op.sources() {
                if let Some(producer) = self.last_writer.get(src) {
                    if self
                        .rob
                        .get(producer)
                        .map(|e| !e.completed)
                        .unwrap_or(false)
                    {
                        pending_producers.push(producer);
                    }
                }
            }
            // Every pending producer is an in-flight ROB entry.
            let depends_on_long_latency = pending_producers.iter().any(|p| {
                self.rob
                    .get(p)
                    .is_some_and(|producer| producer.long_latency || producer.parked)
            });
            let park = self.params.slow_lane.is_some()
                && depends_on_long_latency
                && !pending_producers.is_empty();
            if park {
                if self.parked >= self.params.slow_lane.unwrap_or(usize::MAX) {
                    break;
                }
            } else {
                let iq = match queue_class {
                    RegClass::Int => &self.int_iq,
                    RegClass::Fp => &self.fp_iq,
                };
                if !iq.has_space() {
                    break;
                }
            }

            let op = self.fetch_queue.pop_front().expect("checked non-empty");
            dispatched = true;
            let seq = op.seq;
            if let Some(t) = probe.as_deref_mut() {
                t.trace_stage(seq, Stage::Dispatch, self.cycle);
            }
            let mut entry = RobEntry::new(op, self.cycle, queue_class);

            // Wire dependencies.
            for producer in pending_producers.iter() {
                self.consumers.push(producer, seq);
            }
            // A pointer-chasing load can name the same producer twice via
            // dst==src; dedup is unnecessary because sources() yields each
            // register slot once and distinct slots may legitimately wait on
            // the same producer (two wakeups, counted twice at dispatch).
            entry.pending_srcs = pending_producers.len();

            if entry.op.is_conditional_branch() {
                let predicted = self.predictor.predict(entry.op.pc);
                entry.predicted_taken = predicted;
                let actual = entry.op.branch.expect("conditional branch").taken;
                entry.mispredicted = predicted != actual;
                if entry.mispredicted {
                    self.unresolved_mispredicts.push_back(seq);
                }
            }

            match entry.op.class {
                OpClass::Load => {
                    self.lsq.dispatch_load(seq);
                    self.stats.loads += 1;
                }
                OpClass::Store => {
                    let addr = entry.op.mem_addr.expect("store has an address");
                    self.lsq.dispatch_store(seq, addr);
                    self.stats.stores += 1;
                }
                _ => {}
            }

            if let Some(dst) = entry.op.dst {
                self.last_writer.set(dst, seq);
            }

            let ready = entry.pending_srcs == 0;
            let op_class = entry.op.class;
            // A parked instruction waits on at least one producer, so it is
            // never ready at dispatch.
            entry.parked = park;
            self.parked += usize::from(park);
            self.rob.push(entry);
            if !park {
                match queue_class {
                    RegClass::Int => self.int_iq.insert(seq, op_class, ready),
                    RegClass::Fp => self.fp_iq.insert(seq, op_class, ready),
                }
            }
        }
        dispatched
    }

    // ------------------------------------------------------------------
    // Fetch
    // ------------------------------------------------------------------
    fn do_fetch(
        &mut self,
        trace: &mut dyn Iterator<Item = MicroOp>,
        mut probe: Option<&mut Telemetry>,
    ) -> bool {
        if !self.unresolved_mispredicts.is_empty() || self.cycle < self.fetch_resume_at {
            self.stats.mispredict_stall_cycles += 1;
            return false;
        }
        let mut fetched = false;
        let limit = self.params.widths.fetch * 3;
        for _ in 0..self.params.widths.fetch {
            if self.fetch_queue.len() >= limit {
                break;
            }
            let Some(op) = trace.next() else {
                self.trace_done = true;
                break;
            };
            self.stats.fetched += 1;
            if let Some(t) = probe.as_deref_mut() {
                t.trace_fetch(&op, self.cycle);
            }
            self.fetch_queue.push_back(op);
            fetched = true;
        }
        fetched
    }
}

/// One cycle of the out-of-order pipeline, for [`drive`]: commit,
/// writeback/wakeup, slow-lane reinsert, issue, dispatch and fetch, in that
/// order.
impl SimCore for OooCore {
    fn tick(
        &mut self,
        trace: &mut dyn Iterator<Item = MicroOp>,
        mut probe: Option<&mut Telemetry>,
    ) -> bool {
        self.cycle += 1;
        self.stats.ticks_executed += 1;
        self.fus.begin_cycle();
        self.ports.begin_cycle();
        let mut progress = self.do_commit(probe.as_deref_mut());
        progress |= self.do_writeback(probe.as_deref_mut());
        progress |= self.do_reinsert();
        progress |= self.do_issue(probe.as_deref_mut());
        progress |= self.do_dispatch(probe.as_deref_mut());
        progress |= self.do_fetch(trace, probe);
        progress
    }

    /// The next scheduled execution completion, the end of the front-end
    /// refill penalty, or the next outstanding cache fill.
    fn next_event(&mut self) -> Option<u64> {
        let mut next = self
            .completions
            .peek()
            .map(|&Reverse((cycle, _))| cycle)
            .filter(|&cycle| cycle > self.cycle);
        if self.fetch_resume_at > self.cycle {
            next = Some(next.map_or(self.fetch_resume_at, |n| n.min(self.fetch_resume_at)));
        }
        if let Some(fill) = self.mem.next_event(self.cycle) {
            next = Some(next.map_or(fill, |n| n.min(fill)));
        }
        next
    }

    fn is_drained(&self) -> bool {
        self.trace_done && self.fetch_queue.is_empty() && self.rob.is_empty()
    }

    fn rearm_trace(&mut self) {
        self.trace_done = false;
    }

    /// The slow lane (KILO) maps onto the frame's low-locality-buffer
    /// column; the plain baseline has neither an LLIB nor an LLBV.
    fn metrics_frame(&self) -> MetricsFrame {
        let mut frame = MetricsFrame {
            cycle: self.cycle,
            committed: self.stats.committed,
            rob: self.rob.len() as u64,
            iq: (self.int_iq.len() + self.fp_iq.len()) as u64,
            lsq: self.lsq.occupancy() as u64,
            llib: self.parked as u64,
            llbv: 0,
            cond_branches: self.stats.cond_branches,
            branch_mispredicts: self.stats.branch_mispredicts,
            ticks_executed: self.stats.ticks_executed,
            cycles_skipped: self.stats.cycles_skipped,
            ..MetricsFrame::default()
        };
        self.mem.stats().fill_metrics(&mut frame);
        frame
    }

    fn finalize_stats(&mut self) {
        self.stats.cycles = self.cycle;
        let mem_stats = self.mem.stats();
        self.stats.l1_hits = mem_stats.l1_hits;
        self.stats.l2_hits = mem_stats.l2_hits;
        self.stats.mem_accesses = mem_stats.memory_accesses;
        self.stats.issue_latency = self.issue_hist.clone();
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
/// would ([`PerceptronPredictor::warm`]).
///
/// The sampled-simulation mode warms the drained core with every
/// fast-forwarded instruction so detailed windows measure against cache
/// and predictor contents that track the exact run, without modelling any
/// timing. The pipeline, clock and committed counters are untouched.
impl WarmSink for OooCore {
    fn warm_mem(&mut self, addr: u64, is_write: bool) {
        self.mem.warm_access(addr, is_write);
    }

    fn warm_branch(&mut self, pc: u64, taken: bool) {
        self.predictor.warm(pc, taken);
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
                let parked = core.rob.iter().filter(|e| e.parked).count();
                assert_eq!(core.parked, parked, "{bench:?} after {target} instructions");
                assert!(parked <= 512);
                assert!(
                    core.rob.iter().all(|e| !(e.long_latency && e.completed)),
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
            core.tick(&mut trace, None);
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
