//! The full Decoupled KILO-Instruction Processor pipeline (Figure 8 of the
//! paper).
//!
//! The pipeline chains three engines:
//!
//! 1. the out-of-order **Cache Processor** — fetch, rename, small issue
//!    queues, an **Aging-ROB** whose head reaches the **Analyze** stage a
//!    fixed number of cycles after decode;
//! 2. the FIFO **Low-Locality Instruction Buffers** (one integer, one FP)
//!    with their banked **LLRF** register storage; and
//! 3. the in-order (by default) **Memory Processors** fed by the LLIBs and
//!    by the **Address Processor**'s load-value FIFO.
//!
//! The Analyze stage classifies each instruction using the **LLBV**: an
//! instruction with a long-latency source drains to the LLIB, everything
//! else completes in the Cache Processor. Checkpoints taken at Analyze
//! provide recovery for branches that resolve in a Memory Processor.

use crate::address_processor::AddressProcessor;
use crate::checkpoint::CheckpointStack;
use crate::llbv::{Llbv, LowLocalityWriter};
use crate::llib::{Llib, LlibEntry, SourceState};
use crate::llrf::Llrf;
use crate::memory_processor::MemoryProcessor;
use dkip_bpred::PerceptronPredictor;
use dkip_mem::{AccessLevel, MemoryHierarchy};
use dkip_model::config::{event_clock_enabled, DkipConfig, MemoryHierarchyConfig};
use dkip_model::telemetry::{MetricsFrame, Stage, Telemetry};
use dkip_model::{
    drive, ConsumerTable, DepList, FastHashMap, LastWriters, MicroOp, OpClass, RegClass, SimCore,
    SimStats, WarmSink,
};
use dkip_ooo::lsq::FORWARD_LATENCY;
use dkip_ooo::{FunctionalUnits, IssueQueue, Rob, RobEntry};
use dkip_trace::{Benchmark, TraceGenerator};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Metadata kept for every instruction that left the Cache Processor as low
/// locality (parked in an LLIB, executing in a Memory Processor, or a
/// long-latency load owned by the Address Processor).
#[derive(Debug, Clone)]
struct LowMeta {
    op: MicroOp,
    epoch: u64,
    queue: RegClass,
    predicted_taken: bool,
    mispredicted: bool,
}

/// A deep-copied checkpoint of a [`DkipProcessor`], captured by
/// [`DkipProcessor::snapshot`].
///
/// The snapshot holds the complete state of every decoupled engine — Cache
/// Processor, LLIBs/LLRFs/LLBV, checkpoint stack, Memory Processors,
/// Address Processor (with its cache hierarchy), branch predictor and
/// statistics — so a processor materialised from it by
/// [`DkipSnapshot::to_processor`] continues bit-identically. It wraps the
/// processor's `Clone`, the one snapshot mechanism, and stays because the
/// end-to-end benchmark calls it.
#[derive(Debug, Clone)]
pub struct DkipSnapshot {
    state: DkipProcessor,
}

impl DkipSnapshot {
    /// Materialises an independent processor that resumes from this
    /// checkpoint.
    #[must_use]
    pub fn to_processor(&self) -> DkipProcessor {
        self.state.clone()
    }
}

/// The Decoupled KILO-Instruction Processor.
#[derive(Debug, Clone)]
pub struct DkipProcessor {
    cfg: DkipConfig,
    predictor: PerceptronPredictor,
    cycle: u64,

    // Cache Processor.
    rob: Rob,
    cp_int_iq: IssueQueue,
    cp_fp_iq: IssueQueue,
    cp_fus: FunctionalUnits,
    cp_completions: BinaryHeap<Reverse<(u64, u64)>>,
    cp_consumers: ConsumerTable,
    last_writer: LastWriters,

    // Low-locality machinery.
    llbv: Llbv,
    llib_int: Llib,
    llib_fp: Llib,
    llrf_int: Llrf,
    llrf_fp: Llrf,
    checkpoints: CheckpointStack,
    analyzed_since_checkpoint: u64,

    // Memory Processors and Address Processor.
    mp_int: MemoryProcessor,
    mp_fp: MemoryProcessor,
    ap: AddressProcessor,
    /// Every low-locality instruction, from Analyze until it completes: in
    /// an LLIB, in a Memory Processor, or a long-latency load waiting for
    /// its value. Membership is the availability test for both kinds of
    /// low-locality producer.
    low_meta: FastHashMap<u64, LowMeta>,
    /// Producer (MP instruction) → consumers inserted in an MP waiting on it.
    mp_consumers: ConsumerTable,
    /// Long-latency load → consumers inserted in an MP waiting on its value.
    load_waiters: ConsumerTable,

    // Front end.
    fetch_queue: VecDeque<MicroOp>,
    unresolved_mispredicts: VecDeque<u64>,
    fetch_resume_at: u64,
    refill_boundary: u64,
    /// Whether the trace iterator has returned `None` (finite streams such
    /// as the execution-driven RISC-V kernels end; the synthetic generators
    /// never do).
    trace_done: bool,
    /// Force one tick per simulated cycle instead of letting [`drive`]
    /// fast-forward over quiesced stretches (set by `DKIP_NO_SKIP=1`).
    single_step: bool,

    stats: SimStats,

    // Reusable per-cycle buffers (cleared and refilled every tick; they keep
    // the steady-state cycle loop free of heap allocation).
    arrived_scratch: Vec<u64>,
    mp_done_scratch: Vec<u64>,
    select_scratch: Vec<(u64, OpClass)>,
}

impl DkipProcessor {
    /// Builds a D-KIP from its configuration and a memory hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    #[must_use]
    pub fn new(cfg: DkipConfig, mem: MemoryHierarchy) -> Self {
        cfg.validate().expect("invalid D-KIP configuration");
        let cp = &cfg.cache_processor;
        DkipProcessor {
            predictor: PerceptronPredictor::paper_default(),
            cycle: 0,
            rob: Rob::new(cp.rob_capacity),
            cp_int_iq: IssueQueue::new(cp.int_iq_capacity, cp.sched),
            cp_fp_iq: IssueQueue::new(cp.fp_iq_capacity, cp.sched),
            cp_fus: FunctionalUnits::new(cp.fu),
            cp_completions: BinaryHeap::new(),
            cp_consumers: ConsumerTable::new(),
            last_writer: LastWriters::new(),
            llbv: Llbv::new(),
            llib_int: Llib::new(cfg.llib.capacity),
            llib_fp: Llib::new(cfg.llib.capacity),
            llrf_int: Llrf::new(&cfg.llib),
            llrf_fp: Llrf::new(&cfg.llib),
            checkpoints: CheckpointStack::new(cfg.checkpoint.stack_entries),
            analyzed_since_checkpoint: 0,
            mp_int: MemoryProcessor::new(&cfg.memory_processor),
            mp_fp: MemoryProcessor::new(&cfg.memory_processor),
            ap: AddressProcessor::new(&cfg.address_processor, mem),
            low_meta: FastHashMap::default(),
            mp_consumers: ConsumerTable::new(),
            load_waiters: ConsumerTable::new(),
            fetch_queue: VecDeque::new(),
            unresolved_mispredicts: VecDeque::new(),
            fetch_resume_at: 0,
            refill_boundary: u64::MAX,
            trace_done: false,
            single_step: !event_clock_enabled(),
            stats: SimStats::new(),
            arrived_scratch: Vec::new(),
            mp_done_scratch: Vec::new(),
            select_scratch: Vec::new(),
            cfg,
        }
    }

    /// The configuration of this processor.
    #[must_use]
    pub fn config(&self) -> &DkipConfig {
        &self.cfg
    }

    /// A one-line snapshot of the main pipeline state, for debugging and
    /// the examples' progress output.
    #[must_use]
    pub fn debug_state(&self) -> String {
        let head = self.rob.head().map(|e| {
            format!(
                "seq={} {} issued={} completed={} pending={} age={}",
                e.op.seq,
                e.op.class,
                e.issued,
                e.completed,
                e.pending_srcs,
                self.cycle.saturating_sub(e.dispatch_cycle)
            )
        });
        format!(
            "cycle={} committed={} rob={} head=[{}] iq_int={} iq_fp={} wakeups={} llib={}L/{}F mp={}L/{}F chkpt={} llbv={} lsq={}",
            self.cycle,
            self.stats.committed,
            self.rob.len(),
            head.unwrap_or_else(|| "empty".to_owned()),
            self.cp_int_iq.len(),
            self.cp_fp_iq.len(),
            self.cp_consumers.len(),
            self.llib_int.len(),
            self.llib_fp.len(),
            self.mp_int.occupancy(),
            self.mp_fp.occupancy(),
            self.checkpoints.len(),
            self.llbv.marked_count(),
            self.ap.lsq().occupancy(),
        )
    }

    /// Forces (or releases) single-stepped simulation regardless of the
    /// `DKIP_NO_SKIP` environment variable sampled at construction.
    pub fn set_single_step(&mut self, single_step: bool) {
        self.single_step = single_step;
    }

    /// Captures a checkpoint of the complete processor state (all decoupled
    /// engines, caches, predictor, statistics). See [`DkipSnapshot`] for
    /// the contract.
    ///
    /// The trace iterator is *not* part of the processor: callers pairing a
    /// snapshot with a resumable stream must checkpoint the stream position
    /// themselves (e.g. by cloning the [`MicroOp`] source).
    #[must_use]
    pub fn snapshot(&self) -> DkipSnapshot {
        DkipSnapshot {
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

    /// Runs until `max_instrs` instructions have committed in total, the
    /// trace ends and the whole machine drains (finite execution-driven
    /// streams run to completion), or a safety cycle bound is reached, and
    /// returns the accumulated statistics. See [`drive`], which also
    /// fast-forwards quiesced stretches bit-identically.
    pub fn run(&mut self, trace: &mut dyn Iterator<Item = MicroOp>, max_instrs: u64) -> SimStats {
        drive(self, trace, max_instrs, None)
    }

    // ------------------------------------------------------------------
    // Long-latency load values arriving at the Address Processor.
    // ------------------------------------------------------------------
    fn handle_load_value_arrival(&mut self, load_seq: u64, mut probe: Option<&mut Telemetry>) {
        // The load itself retires now (it was removed from the Aging-ROB at
        // Analyze and handed to the AP).
        if let Some(meta) = self.low_meta.remove(&load_seq) {
            self.stats.committed += 1;
            self.stats.low_locality_instrs += 1;
            self.checkpoints.complete_instruction(meta.epoch);
            self.ap.lsq_mut().retire_load(load_seq);
            if let Some(t) = probe.as_deref_mut() {
                t.trace_stage(load_seq, Stage::Complete, self.cycle);
                t.trace_commit(load_seq, self.cycle);
            }
        } else if let Some(entry) = self.rob.get_mut(load_seq).filter(|e| e.long_latency) {
            // The value returned before the load reached the Analyze stage
            // (common for accesses merged into an already-outstanding miss).
            // The load then behaves like a late Cache Processor completion:
            // consumers still inside the CP wake up normally and the Analyze
            // stage commits it as an ordinary executed load.
            entry.long_latency = false;
            self.complete_cp_instruction(load_seq, probe);
        }
        let waiters = self.load_waiters.take(load_seq);
        for &consumer in &waiters {
            let queue = self.low_meta.get(&consumer).map(|m| m.queue);
            match queue {
                Some(RegClass::Int) => self.mp_int.satisfy(consumer),
                Some(RegClass::Fp) => self.mp_fp.satisfy(consumer),
                None => {}
            }
        }
        self.load_waiters.recycle(waiters);
    }

    // ------------------------------------------------------------------
    // Memory Processor completion and issue.
    // ------------------------------------------------------------------
    fn drain_mp_completions(&mut self, mut probe: Option<&mut Telemetry>) -> bool {
        let mut done = std::mem::take(&mut self.mp_done_scratch);
        done.clear();
        self.mp_int.drain_completed_into(self.cycle, &mut done);
        self.mp_fp.drain_completed_into(self.cycle, &mut done);
        for &seq in &done {
            self.handle_mp_completion(seq, probe.as_deref_mut());
        }
        let completed = !done.is_empty();
        self.mp_done_scratch = done;
        completed
    }

    fn handle_mp_completion(&mut self, seq: u64, probe: Option<&mut Telemetry>) {
        let Some(meta) = self.low_meta.remove(&seq) else {
            return;
        };
        self.stats.committed += 1;
        self.stats.low_locality_instrs += 1;
        self.checkpoints.complete_instruction(meta.epoch);
        if let Some(t) = probe {
            t.trace_stage(seq, Stage::Complete, self.cycle);
            t.trace_commit(seq, self.cycle);
        }
        match meta.op.class {
            OpClass::Load => self.ap.lsq_mut().retire_load(seq),
            OpClass::Store => self
                .ap
                .lsq_mut()
                .retire_store(seq, meta.op.mem_addr.expect("store has an address")),
            _ => {}
        }
        if meta.op.is_conditional_branch() {
            let taken = meta.op.branch.expect("conditional branch").taken;
            self.stats.cond_branches += 1;
            self.predictor
                .update(meta.op.pc, taken, meta.predicted_taken);
            if meta.mispredicted {
                self.stats.branch_mispredicts += 1;
                if self.unresolved_mispredicts.front() == Some(&seq) {
                    self.unresolved_mispredicts.pop_front();
                    // Recovery past the Cache Processor uses the checkpoint
                    // stack: pay the refill penalty plus the checkpoint
                    // restore penalty.
                    self.checkpoints.recover();
                    self.fetch_resume_at = self.cycle
                        + self.cfg.cache_processor.mispredict_penalty
                        + self.cfg.checkpoint.recovery_penalty;
                    self.refill_boundary = seq;
                }
            }
        }
        // Wake MP consumers of this value.
        let waiters = self.mp_consumers.take(seq);
        for &consumer in &waiters {
            let queue = self.low_meta.get(&consumer).map(|m| m.queue);
            match queue {
                Some(RegClass::Int) => self.mp_int.satisfy(consumer),
                Some(RegClass::Fp) => self.mp_fp.satisfy(consumer),
                None => {}
            }
        }
        self.mp_consumers.recycle(waiters);
    }

    fn mp_issue(&mut self, mut probe: Option<&mut Telemetry>) -> bool {
        let mut issued = false;
        let width = self.cfg.memory_processor.decode_width;
        for class in [RegClass::Int, RegClass::Fp] {
            let mut selected = std::mem::take(&mut self.select_scratch);
            selected.clear();
            match class {
                RegClass::Int => self
                    .mp_int
                    .select_into(width, self.ap.ports_mut(), &mut selected),
                RegClass::Fp => self
                    .mp_fp
                    .select_into(width, self.ap.ports_mut(), &mut selected),
            }
            issued |= !selected.is_empty();
            for &(seq, op_class) in &selected {
                if let Some(t) = probe.as_deref_mut() {
                    t.trace_stage(seq, Stage::Issue, self.cycle);
                }
                let latency = if op_class.is_mem() {
                    let addr = self
                        .low_meta
                        .get(&seq)
                        .and_then(|m| m.op.mem_addr)
                        .expect("memory op has an address");
                    let outcome = self.ap.access(addr, op_class.is_store(), self.cycle);
                    if op_class.is_store() {
                        1
                    } else {
                        outcome.latency
                    }
                } else {
                    op_class.exec_latency()
                };
                match class {
                    RegClass::Int => self
                        .mp_int
                        .schedule_completion(seq, self.cycle + latency.max(1)),
                    RegClass::Fp => self
                        .mp_fp
                        .schedule_completion(seq, self.cycle + latency.max(1)),
                }
            }
            self.select_scratch = selected;
        }
        issued
    }

    // ------------------------------------------------------------------
    // LLIB → MP transfer.
    // ------------------------------------------------------------------
    fn llib_to_mp_transfer(&mut self) -> bool {
        let mut transferred = false;
        for class in [RegClass::Int, RegClass::Fp] {
            for _ in 0..self.cfg.llib.extraction_rate {
                let (llib, mp, llrf) = match class {
                    RegClass::Int => (&mut self.llib_int, &mut self.mp_int, &mut self.llrf_int),
                    RegClass::Fp => (&mut self.llib_fp, &mut self.mp_fp, &mut self.llrf_fp),
                };
                let Some(head) = llib.head() else { break };
                if !mp.has_space() {
                    break;
                }
                // The paper's transfer rule: the head may move once the
                // long-latency load it directly depends on has completed;
                // other instructions move without additional checks. A
                // load stays in `low_meta` from Analyze until its value
                // arrives, so membership means "not yet".
                if let Some(load) = head.blocking_load() {
                    if self.low_meta.contains_key(&load) {
                        break;
                    }
                }
                let entry = llib.pop().expect("head exists");
                transferred = true;
                if let Some(slot) = entry.llrf_slot {
                    llrf.free(slot);
                }
                let seq = entry.op.seq;
                let mut unavailable = 0u8;
                // A producer still in `low_meta` has not completed (value
                // arrival or MP completion removes it), so this one
                // membership test decides availability for both kinds.
                for source in entry.sources.iter().flatten() {
                    match *source {
                        SourceState::Ready => {}
                        SourceState::WaitsForLoad(load) => {
                            if self.low_meta.contains_key(&load) {
                                unavailable += 1;
                                self.load_waiters.push(load, seq);
                            }
                        }
                        SourceState::WaitsForMp(producer) => {
                            if self.low_meta.contains_key(&producer) {
                                unavailable += 1;
                                self.mp_consumers.push(producer, seq);
                            }
                        }
                    }
                }
                mp.insert(seq, entry.op.class, unavailable);
            }
        }
        transferred
    }

    // ------------------------------------------------------------------
    // Cache Processor: writeback, analyze, issue, dispatch, fetch.
    // ------------------------------------------------------------------
    fn cp_writeback(&mut self, mut probe: Option<&mut Telemetry>) -> bool {
        let mut completed = false;
        while let Some(&Reverse((cycle, seq))) = self.cp_completions.peek() {
            if cycle > self.cycle {
                break;
            }
            completed = true;
            self.cp_completions.pop();
            self.complete_cp_instruction(seq, probe.as_deref_mut());
        }
        completed
    }

    fn complete_cp_instruction(&mut self, seq: u64, probe: Option<&mut Telemetry>) {
        if let Some(t) = probe {
            t.trace_stage(seq, Stage::Complete, self.cycle);
        }
        let (is_cond, taken, predicted, mispredicted, pc) = {
            let Some(entry) = self.rob.get_mut(seq) else {
                return;
            };
            entry.completed = true;
            (
                entry.op.is_conditional_branch(),
                entry.op.branch.map(|b| b.taken).unwrap_or(false),
                entry.predicted_taken,
                entry.mispredicted,
                entry.op.pc,
            )
        };
        if is_cond {
            self.stats.cond_branches += 1;
            self.predictor.update(pc, taken, predicted);
            if mispredicted {
                self.stats.branch_mispredicts += 1;
                if self.unresolved_mispredicts.front() == Some(&seq) {
                    self.unresolved_mispredicts.pop_front();
                    self.fetch_resume_at = self.cycle + self.cfg.cache_processor.mispredict_penalty;
                    self.refill_boundary = seq;
                }
            }
        }
        let waiters = self.cp_consumers.take(seq);
        for &consumer in &waiters {
            self.wake_cp_consumer(consumer);
        }
        self.cp_consumers.recycle(waiters);
    }

    /// Drops the wakeup list of a producer leaving the Aging-ROB without
    /// completing in the Cache Processor: a long-latency load handed to the
    /// Address Processor, or an instruction drained to an LLIB. The list is
    /// dead — [`Self::complete_cp_instruction`] returns before its `take`
    /// once the seq has left the ROB, and `cp_dispatch` only wires producers
    /// still in the ROB — and its consumers are classified through the LLBV
    /// at Analyze instead. Left in place, such lists would grow the table
    /// (and every snapshot of the processor) with the length of the run.
    fn drop_cp_wakeups(&mut self, seq: u64) {
        let dead = self.cp_consumers.take(seq);
        self.cp_consumers.recycle(dead);
    }

    fn wake_cp_consumer(&mut self, seq: u64) {
        let Some(entry) = self.rob.get_mut(seq) else {
            return;
        };
        if entry.pending_srcs == 0 {
            return;
        }
        entry.pending_srcs -= 1;
        if entry.pending_srcs == 0 && !entry.issued {
            match entry.queue_class {
                RegClass::Int => self.cp_int_iq.mark_ready(seq),
                RegClass::Fp => self.cp_fp_iq.mark_ready(seq),
            }
        }
    }

    /// The Analyze stage: classify up to `analyze width` aged instructions
    /// from the head of the Aging-ROB. Returns whether any instruction left
    /// the Aging-ROB.
    #[allow(clippy::too_many_lines)]
    fn analyze(&mut self, mut probe: Option<&mut Telemetry>) -> bool {
        let mut advanced = false;
        let mut stalled = false;
        for _ in 0..self.cfg.cache_processor.widths.commit {
            let Some(head) = self.rob.head() else { break };
            // The Aging-ROB: instructions reach Analyze a fixed number of
            // cycles after decode.
            if self.cycle < head.dispatch_cycle + self.cfg.cache_processor.rob_timer {
                break;
            }
            let seq = head.op.seq;
            let completed = head.completed;
            let issued = head.issued;
            let long_latency_load = head.long_latency;
            let has_long_latency_src = head.op.sources().any(|r| self.llbv.is_long_latency(r));

            if completed {
                // High execution locality: executed in the Cache Processor.
                let entry = self.rob.pop_head().expect("head exists");
                if let Some(dst) = entry.op.dst {
                    self.llbv.clear(dst);
                }
                match entry.op.class {
                    OpClass::Load => self.ap.lsq_mut().retire_load(seq),
                    OpClass::Store => self
                        .ap
                        .lsq_mut()
                        .retire_store(seq, entry.op.mem_addr.expect("store has an address")),
                    _ => {}
                }
                self.stats.committed += 1;
                self.stats.high_locality_instrs += 1;
                self.analyzed_since_checkpoint += 1;
                if let Some(t) = probe.as_deref_mut() {
                    t.trace_commit(seq, self.cycle);
                }
                advanced = true;
                continue;
            }

            if long_latency_load {
                // A load that issued in the CP and missed to main memory:
                // the Address Processor owns it from here on.
                let Some(epoch) = self.ensure_checkpoint(seq) else {
                    stalled = true;
                    break;
                };
                let entry = self.rob.pop_head().expect("head exists");
                self.drop_cp_wakeups(seq);
                if let Some(dst) = entry.op.dst {
                    self.llbv.mark(dst, LowLocalityWriter::Load(seq));
                }
                self.checkpoints.register_instruction(epoch);
                self.low_meta.insert(
                    seq,
                    LowMeta {
                        op: entry.op,
                        epoch,
                        queue: RegClass::Int,
                        predicted_taken: false,
                        mispredicted: false,
                    },
                );
                self.analyzed_since_checkpoint += 1;
                if let Some(t) = probe.as_deref_mut() {
                    t.trace_stage(seq, Stage::MpHandoff, self.cycle);
                }
                advanced = true;
                continue;
            }

            if has_long_latency_src && !issued {
                // Low execution locality: drain to the LLIB.
                if !self.insert_into_llib(seq) {
                    stalled = true;
                    break;
                }
                self.analyzed_since_checkpoint += 1;
                if let Some(t) = probe.as_deref_mut() {
                    t.trace_stage(seq, Stage::MpHandoff, self.cycle);
                }
                advanced = true;
                continue;
            }

            // Otherwise the instruction is short latency but still in
            // flight (or a load whose hit/miss status is not known yet):
            // Analyze stalls until it writes back, as in the paper.
            stalled = true;
            break;
        }
        if stalled {
            self.stats.analyze_stall_cycles += 1;
        }
        advanced
    }

    /// Takes (or reuses) a checkpoint for a new low-locality instruction.
    /// Returns the epoch, or `None` if the checkpoint stack is full and the
    /// Analyze stage must stall.
    fn ensure_checkpoint(&mut self, seq: u64) -> Option<u64> {
        let need_new = self.checkpoints.is_empty()
            || self.analyzed_since_checkpoint >= self.cfg.checkpoint.interval_instrs;
        if need_new {
            let epoch = self.checkpoints.take(seq)?;
            self.analyzed_since_checkpoint = 0;
            Some(epoch)
        } else {
            self.checkpoints.current_epoch()
        }
    }

    /// Moves the Aging-ROB head into the LLIB of its class. Returns `false`
    /// if a resource (LLIB entry, LLRF register, checkpoint) is unavailable
    /// and the Analyze stage must stall.
    fn insert_into_llib(&mut self, seq: u64) -> bool {
        let head = self.rob.head().expect("caller checked");
        let op = head.op;
        let class = op.queue_class();
        let llib_has_space = match class {
            RegClass::Int => self.llib_int.has_space(),
            RegClass::Fp => self.llib_fp.has_space(),
        };
        if !llib_has_space {
            self.stats.llib_full_stall_cycles += 1;
            return false;
        }
        // Classify the sources and stage the READY operand into the LLRF.
        let mut sources = [None, None];
        let mut llrf_slot = None;
        for (idx, src) in op.srcs.iter().enumerate() {
            let Some(reg) = src else { continue };
            if self.llbv.is_long_latency(*reg) {
                sources[idx] = Some(match self.llbv.writer(*reg) {
                    Some(LowLocalityWriter::Load(l)) => SourceState::WaitsForLoad(l),
                    Some(LowLocalityWriter::MpInstr(p)) => SourceState::WaitsForMp(p),
                    // Defensive: a marked register always has a writer.
                    None => SourceState::Ready,
                });
            } else {
                sources[idx] = Some(SourceState::Ready);
                if llrf_slot.is_none() {
                    let allocated = match class {
                        RegClass::Int => self.llrf_int.allocate(),
                        RegClass::Fp => self.llrf_fp.allocate(),
                    };
                    match allocated {
                        Some(slot) => llrf_slot = Some(slot),
                        None => return false,
                    }
                }
            }
        }
        let Some(epoch) = self.ensure_checkpoint(seq) else {
            // Undo the LLRF allocation; the Analyze stage retries next cycle.
            if let Some(slot) = llrf_slot {
                match class {
                    RegClass::Int => self.llrf_int.free(slot),
                    RegClass::Fp => self.llrf_fp.free(slot),
                }
            }
            return false;
        };

        let entry = self.rob.pop_head().expect("caller checked");
        self.drop_cp_wakeups(seq);
        // The instruction leaves the CP issue queue if it was still waiting
        // there.
        match entry.queue_class {
            RegClass::Int => {
                self.cp_int_iq.remove(seq);
            }
            RegClass::Fp => {
                self.cp_fp_iq.remove(seq);
            }
        }
        if let Some(dst) = entry.op.dst {
            self.llbv.mark(dst, LowLocalityWriter::MpInstr(seq));
        }
        let llib = match class {
            RegClass::Int => &mut self.llib_int,
            RegClass::Fp => &mut self.llib_fp,
        };
        llib.push(LlibEntry {
            op: entry.op,
            sources,
            llrf_slot,
            checkpoint_epoch: epoch,
            inserted_at: self.cycle,
        });
        self.checkpoints.register_instruction(epoch);
        self.low_meta.insert(
            seq,
            LowMeta {
                op: entry.op,
                epoch,
                queue: class,
                predicted_taken: entry.predicted_taken,
                mispredicted: entry.mispredicted,
            },
        );
        true
    }

    fn cp_issue(&mut self, mut probe: Option<&mut Telemetry>) -> bool {
        let width = self.cfg.cache_processor.widths.issue;
        let mut selected = std::mem::take(&mut self.select_scratch);
        selected.clear();
        self.cp_int_iq
            .select_into(width, &mut self.cp_fus, self.ap.ports_mut(), &mut selected);
        let remaining = width.saturating_sub(selected.len());
        self.cp_fp_iq.select_into(
            remaining,
            &mut self.cp_fus,
            self.ap.ports_mut(),
            &mut selected,
        );
        for &(seq, class) in &selected {
            if let Some(t) = probe.as_deref_mut() {
                t.trace_stage(seq, Stage::Issue, self.cycle);
            }
            self.start_cp_execution(seq, class);
        }
        let issued = !selected.is_empty();
        self.select_scratch = selected;
        issued
    }

    fn start_cp_execution(&mut self, seq: u64, class: OpClass) {
        let now = self.cycle;
        let addr = {
            let entry = self.rob.get_mut(seq).expect("issued instruction in flight");
            entry.issued = true;
            entry.issue_cycle = Some(now);
            entry.op.mem_addr
        };
        match class {
            OpClass::Load => {
                let addr = addr.expect("load has an address");
                if self.ap.lsq().forwards_from_store(seq, addr) {
                    self.cp_completions
                        .push(Reverse((now + FORWARD_LATENCY, seq)));
                    return;
                }
                let outcome = self.ap.access(addr, false, now);
                if outcome.level == AccessLevel::Memory {
                    // Long-latency: the Address Processor takes over; the
                    // destination register will be flagged in the LLBV when
                    // the load reaches Analyze.
                    self.rob
                        .get_mut(seq)
                        .expect("issued instruction in flight")
                        .long_latency = true;
                    self.ap
                        .register_long_latency_load(seq, now + outcome.latency);
                } else {
                    self.cp_completions
                        .push(Reverse((now + outcome.latency, seq)));
                }
            }
            OpClass::Store => {
                let addr = addr.expect("store has an address");
                let _ = self.ap.access(addr, true, now);
                self.cp_completions.push(Reverse((now + 1, seq)));
            }
            other => {
                self.cp_completions
                    .push(Reverse((now + other.exec_latency().max(1), seq)));
            }
        }
    }

    fn cp_dispatch(&mut self, mut probe: Option<&mut Telemetry>) -> bool {
        let mut dispatched = false;
        for _ in 0..self.cfg.cache_processor.widths.decode {
            let Some(op) = self.fetch_queue.front() else {
                break;
            };
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
            if op.class.is_mem() && !self.ap.lsq().has_space() {
                break;
            }
            let queue_class = op.queue_class();
            let iq = match queue_class {
                RegClass::Int => &self.cp_int_iq,
                RegClass::Fp => &self.cp_fp_iq,
            };
            if !iq.has_space() {
                break;
            }

            let op = self.fetch_queue.pop_front().expect("checked non-empty");
            dispatched = true;
            let seq = op.seq;
            if let Some(t) = probe.as_deref_mut() {
                t.trace_stage(seq, Stage::Dispatch, self.cycle);
            }
            let mut entry = RobEntry::new(op, self.cycle, queue_class);

            // Wire dependencies on producers still in the Cache Processor.
            // Producers that have already moved to the low-locality side are
            // not wired here: this instruction will be classified by the
            // LLBV at Analyze instead. The producer list is inline
            // ([`DepList`]): at most two sources, no heap.
            let mut pending_producers = DepList::new();
            for src in entry.op.sources() {
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
            for producer in pending_producers.iter() {
                self.cp_consumers.push(producer, seq);
            }
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
                    self.ap.lsq_mut().dispatch_load(seq);
                    self.stats.loads += 1;
                }
                OpClass::Store => {
                    let addr = entry.op.mem_addr.expect("store has an address");
                    self.ap.lsq_mut().dispatch_store(seq, addr);
                    self.stats.stores += 1;
                }
                _ => {}
            }
            if let Some(dst) = entry.op.dst {
                self.last_writer.set(dst, seq);
            }

            let ready = entry.pending_srcs == 0;
            let op_class = entry.op.class;
            self.rob.push(entry);
            match queue_class {
                RegClass::Int => self.cp_int_iq.insert(seq, op_class, ready),
                RegClass::Fp => self.cp_fp_iq.insert(seq, op_class, ready),
            }
        }
        dispatched
    }

    fn fetch(
        &mut self,
        trace: &mut dyn Iterator<Item = MicroOp>,
        mut probe: Option<&mut Telemetry>,
    ) -> bool {
        if !self.unresolved_mispredicts.is_empty() || self.cycle < self.fetch_resume_at {
            self.stats.mispredict_stall_cycles += 1;
            return false;
        }
        let mut fetched = false;
        let limit = self.cfg.cache_processor.widths.fetch * 3;
        for _ in 0..self.cfg.cache_processor.widths.fetch {
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

/// One cycle of the whole decoupled machine, for [`drive`]: load values
/// arriving at the Address Processor, Memory Processor completion, issue
/// and LLIB transfer, then the Cache Processor's writeback, Analyze, issue,
/// dispatch and fetch.
impl SimCore for DkipProcessor {
    fn tick(
        &mut self,
        trace: &mut dyn Iterator<Item = MicroOp>,
        mut probe: Option<&mut Telemetry>,
    ) -> bool {
        self.cycle += 1;
        self.stats.ticks_executed += 1;
        self.cp_fus.begin_cycle();
        self.mp_int.begin_cycle();
        self.mp_fp.begin_cycle();
        let mut arrived_loads = std::mem::take(&mut self.arrived_scratch);
        arrived_loads.clear();
        self.ap.begin_cycle_into(self.cycle, &mut arrived_loads);
        for &load in &arrived_loads {
            self.handle_load_value_arrival(load, probe.as_deref_mut());
        }
        let mut progress = !arrived_loads.is_empty();
        self.arrived_scratch = arrived_loads;
        progress |= self.drain_mp_completions(probe.as_deref_mut());
        progress |= self.mp_issue(probe.as_deref_mut());
        progress |= self.llib_to_mp_transfer();
        progress |= self.cp_writeback(probe.as_deref_mut());
        progress |= self.analyze(probe.as_deref_mut());
        progress |= self.cp_issue(probe.as_deref_mut());
        progress |= self.cp_dispatch(probe.as_deref_mut());
        progress |= self.fetch(trace, probe);
        progress
    }

    /// A Cache Processor completion, a Memory Processor completion, a
    /// long-latency load value arriving at the Address Processor (or any
    /// outstanding cache fill), the end of the front-end refill penalty, or
    /// the Aging-ROB head reaching the Analyze stage.
    fn next_event(&mut self) -> Option<u64> {
        let now = self.cycle;
        let mut next = self
            .cp_completions
            .peek()
            .map(|&Reverse((cycle, _))| cycle)
            .filter(|&cycle| cycle > now);
        let mut consider = |candidate: Option<u64>| {
            if let Some(cycle) = candidate {
                next = Some(next.map_or(cycle, |n| n.min(cycle)));
            }
        };
        consider(self.mp_int.next_event(now));
        consider(self.mp_fp.next_event(now));
        consider(self.ap.next_event(now));
        consider(Some(self.fetch_resume_at).filter(|&at| at > now));
        // The Aging-ROB: a head that has not aged yet becomes analyzable at
        // a fixed future cycle even if nothing else happens.
        consider(
            self.rob
                .head()
                .map(|head| head.dispatch_cycle + self.cfg.cache_processor.rob_timer)
                .filter(|&at| at > now),
        );
        next
    }

    /// Nothing left in the front end, the Aging-ROB, or on the low-locality
    /// side (LLIBs / Memory Processors / Address Processor, all tracked by
    /// `low_meta`).
    fn is_drained(&self) -> bool {
        self.trace_done
            && self.fetch_queue.is_empty()
            && self.rob.is_empty()
            && self.low_meta.is_empty()
    }

    fn rearm_trace(&mut self) {
        self.trace_done = false;
    }

    /// Aging-ROB / CP issue-queue / AP LSQ occupancy, the two LLIBs, the
    /// LLBV marked count, and the cumulative commit, branch, cache and clock
    /// counters.
    fn metrics_frame(&self) -> MetricsFrame {
        let mut frame = MetricsFrame {
            cycle: self.cycle,
            committed: self.stats.committed,
            rob: self.rob.len() as u64,
            iq: (self.cp_int_iq.len() + self.cp_fp_iq.len()) as u64,
            lsq: self.ap.lsq().occupancy() as u64,
            llib: (self.llib_int.len() + self.llib_fp.len()) as u64,
            llbv: self.llbv.marked_count() as u64,
            cond_branches: self.stats.cond_branches,
            branch_mispredicts: self.stats.branch_mispredicts,
            ticks_executed: self.stats.ticks_executed,
            cycles_skipped: self.stats.cycles_skipped,
            ..MetricsFrame::default()
        };
        self.ap.mem_stats().fill_metrics(&mut frame);
        frame
    }

    fn finalize_stats(&mut self) {
        self.stats.cycles = self.cycle;
        let mem = self.ap.mem_stats();
        self.stats.l1_hits = mem.l1_hits;
        self.stats.l2_hits = mem.l2_hits;
        self.stats.mem_accesses = mem.memory_accesses;
        self.stats.llib_int_peak_instrs = self.llib_int.peak() as u64;
        self.stats.llib_fp_peak_instrs = self.llib_fp.peak() as u64;
        self.stats.llrf_int_peak_regs = self.llrf_int.peak() as u64;
        self.stats.llrf_fp_peak_regs = self.llrf_fp.peak() as u64;
        self.stats.checkpoints_taken = self.checkpoints.taken();
        self.stats.checkpoint_recoveries = self.checkpoints.recoveries();
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
/// install/promote their line in the Address Processor's hierarchy
/// (timing-free) and conditional branches train the direction predictor as
/// the Cache Processor's in-order predict/update pair would
/// ([`PerceptronPredictor::warm`]). Used by the sampled-simulation mode for
/// every fast-forwarded instruction; pipeline, clock and committed counters
/// are untouched.
impl WarmSink for DkipProcessor {
    fn warm_mem(&mut self, addr: u64, is_write: bool) {
        self.ap.warm_access(addr, is_write);
    }

    fn warm_branch(&mut self, pc: u64, taken: bool) {
        self.predictor.warm(pc, taken);
    }
}

/// Runs `benchmark` for `max_instrs` committed instructions on a D-KIP with
/// configuration `cfg` and memory hierarchy `mem_cfg`.
///
/// # Panics
///
/// Panics if the memory or processor configuration is invalid.
#[must_use]
pub fn run_dkip(
    cfg: &DkipConfig,
    mem_cfg: &MemoryHierarchyConfig,
    benchmark: Benchmark,
    max_instrs: u64,
    seed: u64,
) -> SimStats {
    let mem = MemoryHierarchy::new(mem_cfg.clone()).expect("invalid memory configuration");
    DkipProcessor::new(cfg.clone(), mem).run(&mut TraceGenerator::new(benchmark, seed), max_instrs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkip_model::config::BaselineConfig;
    use dkip_model::config::SchedPolicy;
    use dkip_ooo::run_baseline;

    fn run(cfg: &DkipConfig, mem: MemoryHierarchyConfig, bench: Benchmark, n: u64) -> SimStats {
        run_dkip(cfg, &mem, bench, n, 1)
    }

    #[test]
    fn cp_wakeup_table_stays_bounded_by_the_aging_rob() {
        // Only producers still in flight in the Aging-ROB may hold a wakeup
        // list; one left behind by a producer that departed for the
        // low-locality side is a leak that grows the core's state (and
        // every snapshot of it) with the length of the run. The same holds
        // for the low-locality side tables: every `low_meta` entry sits in
        // an LLIB, in a Memory Processor, or is a long-latency load holding
        // an LSQ entry until its value arrives, and only such instructions
        // can be waited on by the MP wakeup lists.
        let cfg = DkipConfig::paper_default();
        let bound = cfg.cache_processor.rob_capacity;
        let low_bound = 2 * cfg.llib.capacity
            + 2 * cfg.memory_processor.queue_capacity
            + cfg.address_processor.lsq_capacity;
        for bench in [Benchmark::Mcf, Benchmark::Gcc, Benchmark::Swim] {
            let mem = MemoryHierarchy::new(MemoryHierarchyConfig::mem_400()).unwrap();
            let mut proc_ = DkipProcessor::new(cfg.clone(), mem);
            let mut trace = TraceGenerator::new(bench, 1);
            for target in (1..=5).map(|step| step * 20_000) {
                proc_.run(&mut trace, target);
                assert!(
                    proc_.cp_consumers.len() <= bound,
                    "{bench:?} after {target} instructions: {} wakeup lists for a \
                     {bound}-entry Aging-ROB",
                    proc_.cp_consumers.len()
                );
                for (table, len) in [
                    ("low_meta", proc_.low_meta.len()),
                    ("mp_consumers", proc_.mp_consumers.len()),
                    ("load_waiters", proc_.load_waiters.len()),
                ] {
                    assert!(
                        len <= low_bound,
                        "{bench:?} after {target} instructions: {len} {table} entries \
                         for {low_bound} low-locality slots"
                    );
                }
            }
        }
    }

    #[test]
    fn commits_the_requested_number_of_instructions() {
        let stats = run(
            &DkipConfig::paper_default(),
            MemoryHierarchyConfig::mem_400(),
            Benchmark::Mesa,
            5_000,
        );
        assert!(stats.committed >= 5_000, "committed={}", stats.committed);
        assert!(stats.ipc() > 0.0);
    }

    #[test]
    fn most_instructions_have_high_execution_locality() {
        let stats = run(
            &DkipConfig::paper_default(),
            MemoryHierarchyConfig::mem_400(),
            Benchmark::Swim,
            15_000,
        );
        let frac = stats.high_locality_fraction();
        // The synthetic swim is considerably more memory bound than the real
        // SimPoint, so the CP share is lower than the paper's 67-77%; it must
        // still handle a substantial fraction while the MP handles the rest.
        assert!(
            frac > 0.3 && frac < 1.0,
            "the CP should process a substantial share of swim but not everything: {frac}"
        );
        assert!(
            stats.low_locality_instrs > 0,
            "swim misses must create low-locality slices"
        );
    }

    #[test]
    fn cache_resident_workloads_barely_use_the_memory_processor() {
        let stats = run(
            &DkipConfig::paper_default(),
            MemoryHierarchyConfig::mem_400(),
            Benchmark::Mesa,
            10_000,
        );
        assert!(
            stats.high_locality_fraction() > 0.6,
            "mesa is mostly cache resident: {}",
            stats.high_locality_fraction()
        );
    }

    #[test]
    fn dkip_beats_an_equally_sized_conventional_core_on_memory_bound_fp() {
        let mem = MemoryHierarchyConfig::mem_400();
        let dkip = run(
            &DkipConfig::paper_default(),
            mem.clone(),
            Benchmark::Swim,
            15_000,
        );
        let r10_64 = run_baseline(&BaselineConfig::r10_64(), &mem, Benchmark::Swim, 15_000, 1);
        assert!(
            dkip.ipc() > r10_64.ipc() * 1.2,
            "D-KIP must clearly beat the small conventional core: dkip={} r10-64={}",
            dkip.ipc(),
            r10_64.ipc()
        );
    }

    #[test]
    fn llib_occupancy_is_tracked_and_bounded() {
        let stats = run(
            &DkipConfig::paper_default(),
            MemoryHierarchyConfig::mem_400(),
            Benchmark::Swim,
            15_000,
        );
        assert!(
            stats.llib_fp_peak_instrs > 0,
            "FP slices must park in the FP LLIB"
        );
        assert!(stats.llib_fp_peak_instrs <= 2048);
        assert!(stats.llrf_fp_peak_regs <= 8 * 256);
        assert!(
            stats.llrf_fp_peak_regs <= stats.llib_fp_peak_instrs,
            "at most one READY register per parked instruction"
        );
    }

    #[test]
    fn checkpoints_are_taken_when_low_locality_code_exists() {
        let stats = run(
            &DkipConfig::paper_default(),
            MemoryHierarchyConfig::mem_400(),
            Benchmark::Art,
            10_000,
        );
        assert!(stats.checkpoints_taken > 0);
    }

    #[test]
    fn out_of_order_cp_beats_in_order_cp() {
        // Figure 10's headline effect, measured on a mostly cache-resident
        // benchmark where the Cache Processor dominates execution.
        let mem = MemoryHierarchyConfig::mem_400();
        let ooo = run(
            &DkipConfig::paper_default().with_cp(SchedPolicy::OutOfOrder, 40),
            mem.clone(),
            Benchmark::Mesa,
            12_000,
        );
        let ino = run(
            &DkipConfig::paper_default().with_cp(SchedPolicy::InOrder, 40),
            mem,
            Benchmark::Mesa,
            12_000,
        );
        assert!(
            ooo.ipc() > ino.ipc(),
            "OOO CP must beat in-order CP: ooo={} ino={}",
            ooo.ipc(),
            ino.ipc()
        );
    }

    #[test]
    fn pointer_chasing_workloads_still_make_progress() {
        let stats = run(
            &DkipConfig::paper_default(),
            MemoryHierarchyConfig::mem_400(),
            Benchmark::Mcf,
            8_000,
        );
        assert!(stats.committed >= 8_000);
        assert!(
            stats.low_locality_instrs > 0,
            "mcf chases pointers through the MP"
        );
    }

    #[test]
    fn event_clock_is_bit_identical_to_single_stepping() {
        for bench in [Benchmark::Swim, Benchmark::Mcf] {
            let run_mode = |single_step: bool| {
                let mem = MemoryHierarchy::new(MemoryHierarchyConfig::mem_1000()).unwrap();
                let mut proc = DkipProcessor::new(DkipConfig::paper_default(), mem);
                proc.set_single_step(single_step);
                let mut trace = TraceGenerator::new(bench, 1);
                proc.run(&mut trace, 8_000)
            };
            let stepped = run_mode(true);
            let skipped = run_mode(false);
            assert_eq!(
                stepped.to_kv(),
                skipped.to_kv(),
                "{bench:?}: skipping must be observationally pure"
            );
            assert_eq!(stepped.cycles_skipped, 0);
            assert_eq!(stepped.ticks_executed, stepped.cycles);
            assert_eq!(
                skipped.ticks_executed + skipped.cycles_skipped,
                skipped.cycles,
                "{bench:?}: every simulated cycle is either ticked or skipped"
            );
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run(
            &DkipConfig::paper_default(),
            MemoryHierarchyConfig::mem_400(),
            Benchmark::Gcc,
            6_000,
        );
        let b = run(
            &DkipConfig::paper_default(),
            MemoryHierarchyConfig::mem_400(),
            Benchmark::Gcc,
            6_000,
        );
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.committed, b.committed);
    }

    #[test]
    fn d_kip_is_less_sensitive_to_l2_size_than_a_conventional_core_on_fp() {
        let small_l2 = MemoryHierarchyConfig::mem_400().with_l2_kb(64);
        let big_l2 = MemoryHierarchyConfig::mem_400().with_l2_kb(4096);
        let n = 12_000;
        let dkip_small = run(
            &DkipConfig::paper_default(),
            small_l2.clone(),
            Benchmark::Applu,
            n,
        );
        let dkip_big = run(
            &DkipConfig::paper_default(),
            big_l2.clone(),
            Benchmark::Applu,
            n,
        );
        let r10_small = run_baseline(
            &BaselineConfig::r10_256(),
            &small_l2,
            Benchmark::Applu,
            n,
            1,
        );
        let r10_big = run_baseline(&BaselineConfig::r10_256(), &big_l2, Benchmark::Applu, n, 1);
        let dkip_gain = dkip_big.ipc() / dkip_small.ipc().max(1e-9);
        let r10_gain = r10_big.ipc() / r10_small.ipc().max(1e-9);
        assert!(
            dkip_gain <= r10_gain * 1.15,
            "the D-KIP should be comparatively cache-size tolerant: dkip_gain={dkip_gain} r10_gain={r10_gain}"
        );
    }
}
