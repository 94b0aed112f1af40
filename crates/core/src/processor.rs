//! The full Decoupled KILO-Instruction Processor pipeline (Figure 8 of the
//! paper).
//!
//! The pipeline chains three engines:
//!
//! 1. the out-of-order **Cache Processor** — fetch, rename, small issue
//!    queues, an **Aging-ROB** whose head reaches the **Analyze** stage a
//!    fixed number of cycles after decode;
//! 2. the FIFO **Low-Locality Instruction Buffers** with their **LLRF**
//!    register storage; and
//! 3. the in-order (by default) **Memory Processors** fed by the LLIBs and
//!    by the **Address Processor**'s load-value FIFO.
//!
//! Each register class has one LLIB, LLRF and Memory Processor, held
//! together as that class's lane; the two lanes are written once and
//! indexed by [`RegClass`](dkip_model::RegClass).
//!
//! The Analyze stage classifies each instruction using the **LLBV**: an
//! instruction with a long-latency source drains to the LLIB, everything
//! else completes in the Cache Processor. Checkpoints taken at Analyze
//! provide recovery for branches that resolve in a Memory Processor.
//!
//! The Cache Processor is the out-of-order baselines' machine up to its
//! tail. Its front end — fetch, perceptron branch prediction and the refill
//! after a mispredict — is [`dkip_ooo::FrontEnd`]; only the Memory-Processor
//! resolution path adds the checkpoint recovery penalty to the refill. Its
//! rename, wakeup, select and writeback are [`dkip_ooo::IssueEngine`], over
//! the Aging-ROB, with the Address Processor as its memory side. What is
//! the D-KIP's own is the tail: Analyze instead of commit, the handoff of
//! loads that miss to main memory to the Address Processor, and the drain
//! of low-locality instructions to the LLIBs.

use crate::address_processor::AddressProcessor;
use crate::checkpoint::CheckpointStack;
use crate::llbv::{Llbv, LowLocalityWriter};
use crate::llib::{Llib, LlibEntry};
use crate::llrf::Llrf;
use crate::memory_processor::MemoryProcessor;
use dkip_mem::MemoryHierarchy;
use dkip_model::config::{event_clock_enabled, DkipConfig, MemoryHierarchyConfig};
use dkip_model::telemetry::{MetricsFrame, NoProbe, Probe, Stage};
use dkip_model::{
    drive, ConsumerTable, FastHashMap, MicroOp, OpClass, SimCore, SimStats, WarmSink,
};
use dkip_ooo::{CoreParams, FrontEnd, IssueEngine, MemorySide, RobEntry};
use dkip_trace::{Benchmark, TraceGenerator};
use std::array;

/// Metadata kept for every instruction that left the Cache Processor as low
/// locality (parked in an LLIB, executing in a Memory Processor, or a
/// long-latency load owned by the Address Processor).
#[derive(Debug, Clone)]
struct LowMeta {
    op: MicroOp,
    epoch: u64,
    predicted_taken: bool,
    mispredicted: bool,
}

/// One register class's low-locality path: its LLIB, the LLRF holding the
/// READY operands of the LLIB's instructions, and the Memory Processor the
/// LLIB feeds.
#[derive(Debug, Clone)]
struct Lane {
    llib: Llib,
    llrf: Llrf,
    mp: MemoryProcessor,
}

impl Lane {
    fn new(cfg: &DkipConfig) -> Self {
        Lane {
            llib: Llib::new(cfg.llib.capacity),
            llrf: Llrf::new(&cfg.llib),
            mp: MemoryProcessor::new(&cfg.memory_processor),
        }
    }
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
    cycle: u64,

    // Cache Processor: the front end and the issue engine (over the
    // Aging-ROB) shared with the OoO cores.
    front: FrontEnd,
    engine: IssueEngine,

    // Low-locality machinery: the integer and FP lanes, indexed by
    // `RegClass` and always visited in `RegClass::both()` order, so the
    // integer Memory Processor goes first on the shared Address Processor
    // ports and its completions drain first.
    llbv: Llbv,
    lanes: [Lane; 2],
    checkpoints: CheckpointStack,
    analyzed_since_checkpoint: u64,
    ap: AddressProcessor,
    /// Every low-locality instruction, from Analyze until it completes: in
    /// an LLIB, in a Memory Processor, or a long-latency load waiting for
    /// its value. Membership is the availability test for both kinds of
    /// low-locality producer.
    low_meta: FastHashMap<u64, LowMeta>,
    /// Low-locality producer (long-latency load or MP instruction) →
    /// consumers inserted in an MP waiting on its value.
    mp_waiters: ConsumerTable,

    /// Force one tick per simulated cycle instead of letting [`drive`]
    /// fast-forward over quiesced stretches (set by `DKIP_NO_SKIP=1`).
    single_step: bool,

    stats: SimStats,

    /// Reusable Memory Processor selection buffer (cleared and refilled
    /// every tick; it keeps the steady-state cycle loop free of heap
    /// allocation).
    select_scratch: Vec<(u64, OpClass)>,
}

/// The issue-engine parameters of a D-KIP's Cache Processor: the Aging-ROB
/// is its window, and its LSQ and memory ports are the Address
/// Processor's. It has no slow lane and no issue histogram.
fn cache_processor_params(cfg: &DkipConfig) -> CoreParams {
    let cp = &cfg.cache_processor;
    CoreParams {
        window: cp.rob_capacity,
        int_iq: cp.int_iq_capacity,
        fp_iq: cp.fp_iq_capacity,
        sched: cp.sched,
        lsq: cfg.address_processor.lsq_capacity,
        memory_ports: cfg.address_processor.memory_ports,
        widths: cp.widths,
        fu: cp.fu,
        mispredict_penalty: cp.mispredict_penalty,
        collect_issue_histogram: false,
        slow_lane: None,
    }
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
            cycle: 0,
            front: FrontEnd::new(cp.widths.fetch),
            engine: IssueEngine::new(&cache_processor_params(&cfg)),
            llbv: Llbv::new(),
            lanes: array::from_fn(|_| Lane::new(&cfg)),
            checkpoints: CheckpointStack::new(cfg.checkpoint.stack_entries),
            analyzed_since_checkpoint: 0,
            ap: AddressProcessor::new(&cfg.address_processor, mem),
            low_meta: FastHashMap::default(),
            mp_waiters: ConsumerTable::new(),
            single_step: !event_clock_enabled(),
            stats: SimStats::new(),
            select_scratch: Vec::new(),
            cfg,
        }
    }

    /// A one-line snapshot of the main pipeline state (clock, occupancies
    /// and the Aging-ROB head), for debugging a stuck run.
    #[must_use]
    pub fn debug_state(&self) -> String {
        let head = self.engine.rob().head().map(|e| {
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
        let [int, fp] = &self.lanes;
        format!(
            "cycle={} committed={} rob={} head=[{}] iq={} wakeups={} llib={}L/{}F mp={}L/{}F chkpt={} llbv={} lsq={}",
            self.cycle,
            self.stats.committed,
            self.engine.rob().len(),
            head.unwrap_or_else(|| "empty".to_owned()),
            self.engine.queued(),
            self.engine.wakeup_lists(),
            int.llib.len(),
            fp.llib.len(),
            int.mp.occupancy(),
            fp.mp.occupancy(),
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

    /// Whether the Cache Processor's dispatch was ever refused for lack of
    /// room; see [`dkip_ooo::IssueEngine::ever_full`].
    #[must_use]
    pub fn ever_full(&self) -> bool {
        self.engine.ever_full()
    }

    /// Whether the L2 ever evicted a valid line; see
    /// [`MemoryHierarchy::l2_ever_evicted`].
    #[must_use]
    pub fn l2_ever_evicted(&self) -> bool {
        self.ap.l2_ever_evicted()
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
        drive(self, trace, max_instrs, &mut NoProbe)
    }

    // ------------------------------------------------------------------
    // Low-locality completion: long-latency load values arriving at the
    // Address Processor, and Memory Processor completions.
    // ------------------------------------------------------------------
    fn handle_load_value_arrival<P: Probe>(&mut self, load_seq: u64, probe: &mut P) {
        // A load analysed into the Address Processor's care retires now.
        if !self.retire_low_locality(load_seq, probe)
            && self
                .engine
                .rob()
                .get(load_seq)
                .is_some_and(|e| e.long_latency)
        {
            // The value returned before the load reached the Analyze stage
            // (common for accesses merged into an already-outstanding miss).
            // The load then behaves like a late Cache Processor completion:
            // consumers still inside the CP wake up normally and the Analyze
            // stage commits it as an ordinary executed load.
            self.engine.complete(
                load_seq,
                self.cycle,
                &mut self.front,
                &mut self.stats,
                probe,
            );
        }
    }

    fn drain_mp_completions<P: Probe>(&mut self, probe: &mut P) -> bool {
        // The integer MP drains first: no completion schedules another MP
        // completion, so the search reaches the FP MP only once the integer
        // one has nothing due.
        let mut completed = false;
        while let Some(seq) = self
            .lanes
            .iter_mut()
            .find_map(|lane| lane.mp.pop_completed(self.cycle))
        {
            completed = true;
            self.retire_low_locality(seq, probe);
        }
        completed
    }

    /// Retires low-locality instruction `seq` — a long-latency load whose
    /// value arrived, or a Memory Processor instruction that completed —
    /// and wakes the Memory Processor instructions waiting on its value.
    /// Returns `false`, doing nothing, if `seq` is not on the low-locality
    /// side. Every low-locality producer completes here, so this is where
    /// Cache Processor consumers of such a producer are to be woken once
    /// [`cp_dispatch`](Self::cp_dispatch) counts them as pending.
    fn retire_low_locality<P: Probe>(&mut self, seq: u64, probe: &mut P) -> bool {
        let Some(meta) = self.low_meta.remove(&seq) else {
            return false;
        };
        self.stats.committed += 1;
        self.stats.low_locality_instrs += 1;
        self.checkpoints.complete_instruction(meta.epoch);
        probe.trace_stage(seq, Stage::Complete, self.cycle);
        probe.trace_commit(seq, self.cycle);
        self.retire_from_lsq(&meta.op);
        // Recovery past the Cache Processor uses the checkpoint stack: pay
        // the refill penalty plus the checkpoint restore penalty. A load
        // is not a branch, so it never resolves anything here.
        let resume_at = self.cycle
            + self.cfg.cache_processor.mispredict_penalty
            + self.cfg.checkpoint.recovery_penalty;
        if self.front.resolve(
            &meta.op,
            meta.predicted_taken,
            meta.mispredicted,
            resume_at,
            &mut self.stats,
        ) {
            self.checkpoints.recover();
        }
        let waiters = self.mp_waiters.take(seq);
        for &consumer in &waiters {
            if let Some(meta) = self.low_meta.get(&consumer) {
                self.lanes[meta.op.queue_class() as usize]
                    .mp
                    .satisfy(consumer);
            }
        }
        self.mp_waiters.recycle(waiters);
        true
    }

    /// Frees the LSQ entry of a retiring load or store.
    fn retire_from_lsq(&mut self, op: &MicroOp) {
        match op.class {
            OpClass::Load => self.ap.lsq_mut().retire_load(op.seq),
            OpClass::Store => self
                .ap
                .lsq_mut()
                .retire_store(op.seq, op.mem_addr.expect("store has an address")),
            _ => {}
        }
    }

    fn mp_issue<P: Probe>(&mut self, probe: &mut P) -> bool {
        let mut issued = false;
        let width = self.cfg.memory_processor.decode_width;
        let mut selected = std::mem::take(&mut self.select_scratch);
        for lane in &mut self.lanes {
            selected.clear();
            lane.mp
                .select_into(width, self.ap.ports_mut(), &mut selected);
            issued |= !selected.is_empty();
            for &(seq, op_class) in &selected {
                probe.trace_stage(seq, Stage::Issue, self.cycle);
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
                lane.mp
                    .schedule_completion(seq, self.cycle + latency.max(1));
            }
        }
        self.select_scratch = selected;
        issued
    }

    // ------------------------------------------------------------------
    // LLIB → MP transfer.
    // ------------------------------------------------------------------
    fn llib_to_mp_transfer(&mut self) -> bool {
        let mut transferred = false;
        for lane in &mut self.lanes {
            for _ in 0..self.cfg.llib.extraction_rate {
                let Some(head) = lane.llib.head() else { break };
                if !lane.mp.has_space() {
                    break;
                }
                // The paper's transfer rule: the head may move once the
                // long-latency load it directly depends on has completed;
                // other instructions move without additional checks. A
                // load stays in `low_meta` from Analyze until its value
                // arrives, so membership means "not yet".
                if head
                    .blocking_load()
                    .is_some_and(|load| self.low_meta.contains_key(&load))
                {
                    break;
                }
                let entry = lane.llib.pop().expect("head exists");
                transferred = true;
                if entry.llrf {
                    lane.llrf.free();
                }
                let seq = entry.op.seq;
                let mut unavailable = 0u8;
                // A producer still in `low_meta` has not completed (value
                // arrival or MP completion removes it), so this one
                // membership test decides availability for both kinds.
                for producer in entry.writers.iter().flatten().map(|w| w.seq()) {
                    if self.low_meta.contains_key(&producer) {
                        unavailable += 1;
                        self.mp_waiters.push(producer, seq);
                    }
                }
                lane.mp.insert(seq, entry.op.class, unavailable);
            }
        }
        transferred
    }

    // ------------------------------------------------------------------
    // Cache Processor: Analyze, and the D-KIP's two decisions in issue and
    // dispatch. Writeback and fetch are the shared engine's and front end's.
    // ------------------------------------------------------------------

    /// Removes the Aging-ROB head as it leaves for the low-locality side (a
    /// long-latency load handed to the Address Processor, or an instruction
    /// drained to an LLIB) and takes it out of its CP issue queue if it
    /// still waits there. Its wakeup list is dropped: the list is dead —
    /// [`IssueEngine::complete`] returns before its `take` once the seq has
    /// left the ROB, and dispatch only wires producers still in the ROB —
    /// and its consumers are classified through the LLBV at Analyze
    /// instead. Left in place, such lists would grow the table (and every
    /// snapshot of the processor) with the length of the run.
    fn leave_cp(&mut self) -> RobEntry {
        let entry = self.engine.pop_head().expect("head exists");
        self.engine.drop_wakeups(entry.op.seq);
        self.engine.unqueue(entry.op.seq, entry.queue_class);
        entry
    }

    /// The Analyze stage: classify up to `analyze width` aged instructions
    /// from the head of the Aging-ROB. Returns whether any instruction left
    /// the Aging-ROB.
    fn analyze<P: Probe>(&mut self, probe: &mut P) -> bool {
        let mut advanced = false;
        let mut stalled = false;
        for _ in 0..self.cfg.cache_processor.widths.commit {
            let Some(head) = self.engine.rob().head() else {
                break;
            };
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
                let entry = self.engine.pop_head().expect("head exists");
                if let Some(dst) = entry.op.dst {
                    self.llbv.clear(dst);
                }
                self.retire_from_lsq(&entry.op);
                self.stats.committed += 1;
                self.stats.high_locality_instrs += 1;
                self.analyzed_since_checkpoint += 1;
                probe.trace_commit(seq, self.cycle);
                advanced = true;
                continue;
            }

            if long_latency_load {
                // A load that issued in the CP and missed to main memory:
                // the Address Processor owns it from here on.
                let Some(epoch) = self.ensure_checkpoint() else {
                    stalled = true;
                    break;
                };
                let entry = self.leave_cp();
                if let Some(dst) = entry.op.dst {
                    self.llbv.mark(dst, LowLocalityWriter::Load(seq));
                }
                self.checkpoints.register_instruction(epoch);
                self.low_meta.insert(
                    seq,
                    LowMeta {
                        op: entry.op,
                        epoch,
                        predicted_taken: false,
                        mispredicted: false,
                    },
                );
                self.analyzed_since_checkpoint += 1;
                probe.trace_stage(seq, Stage::MpHandoff, self.cycle);
                advanced = true;
                continue;
            }

            if has_long_latency_src && !issued {
                // Low execution locality: drain to the LLIB.
                if !self.insert_into_llib() {
                    stalled = true;
                    break;
                }
                self.analyzed_since_checkpoint += 1;
                probe.trace_stage(seq, Stage::MpHandoff, self.cycle);
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
    fn ensure_checkpoint(&mut self) -> Option<u64> {
        let need_new = self.checkpoints.is_empty()
            || self.analyzed_since_checkpoint >= self.cfg.checkpoint.interval_instrs;
        if need_new {
            let epoch = self.checkpoints.take()?;
            self.analyzed_since_checkpoint = 0;
            Some(epoch)
        } else {
            self.checkpoints.current_epoch()
        }
    }

    /// Moves the Aging-ROB head into the LLIB of its class. Returns `false`
    /// if a resource (LLIB entry, LLRF register, checkpoint) is unavailable
    /// and the Analyze stage must stall.
    fn insert_into_llib(&mut self) -> bool {
        let op = self.engine.rob().head().expect("caller checked").op;
        let lane = op.queue_class() as usize;
        if !self.lanes[lane].llib.has_space() {
            self.stats.llib_full_stall_cycles += 1;
            return false;
        }
        // Copy each source's low-locality producer from the LLBV and stage
        // the READY operand into the LLRF.
        let mut writers = [None; 2];
        let mut llrf = false;
        for (writer, src) in writers.iter_mut().zip(op.srcs) {
            let Some(reg) = src else { continue };
            *writer = self.llbv.writer(reg);
            if writer.is_none() && !llrf {
                if !self.lanes[lane].llrf.allocate() {
                    return false;
                }
                llrf = true;
            }
        }
        let Some(epoch) = self.ensure_checkpoint() else {
            // Undo the LLRF allocation; the Analyze stage retries next cycle.
            if llrf {
                self.lanes[lane].llrf.free();
            }
            return false;
        };

        let entry = self.leave_cp();
        let seq = entry.op.seq;
        if let Some(dst) = entry.op.dst {
            self.llbv.mark(dst, LowLocalityWriter::MpInstr(seq));
        }
        self.lanes[lane].llib.push(LlibEntry {
            op: entry.op,
            writers,
            llrf,
        });
        self.checkpoints.register_instruction(epoch);
        self.low_meta.insert(
            seq,
            LowMeta {
                op: entry.op,
                epoch,
                predicted_taken: entry.predicted_taken,
                mispredicted: entry.mispredicted,
            },
        );
        true
    }

    /// Cache Processor issue. A load that misses to main memory leaves the
    /// CP's timing: the Address Processor times its value, and the load's
    /// destination is flagged in the LLBV when it reaches Analyze.
    fn cp_issue<P: Probe>(&mut self, probe: &mut P) -> bool {
        self.engine
            .issue(self.cycle, &mut self.ap, probe, |_, ap, seq, arrives_at| {
                ap.register_long_latency_load(seq, arrives_at);
                false
            })
    }

    /// Cache Processor dispatch. Only producers still in the Aging-ROB count
    /// as pending: one that has already moved to an LLIB or to the Address
    /// Processor does not, and its consumer is classified through the LLBV
    /// at Analyze instead. A consumer with no other pending source can
    /// therefore issue in the CP before that operand exists; counting the
    /// `low_meta` producers here, and waking their consumers in
    /// [`retire_low_locality`](Self::retire_low_locality), is the fix.
    fn cp_dispatch<P: Probe>(&mut self, probe: &mut P) -> bool {
        self.engine.dispatch(
            self.cycle,
            &mut self.front,
            &mut self.ap,
            &mut self.stats,
            probe,
            |_| false,
        )
    }
}

/// One cycle of the whole decoupled machine, for [`drive`]: load values
/// arriving at the Address Processor, Memory Processor completion, issue
/// and LLIB transfer, then the Cache Processor's writeback, Analyze, issue,
/// dispatch and fetch.
impl SimCore for DkipProcessor {
    fn tick<P: Probe>(&mut self, trace: &mut dyn Iterator<Item = MicroOp>, probe: &mut P) -> bool {
        self.cycle += 1;
        self.stats.ticks_executed += 1;
        self.engine.begin_cycle();
        for lane in &mut self.lanes {
            lane.mp.begin_cycle();
        }
        self.ap.begin_cycle();
        let mut progress = false;
        while let Some(load) = self.ap.pop_arrival(self.cycle) {
            progress = true;
            self.handle_load_value_arrival(load, probe);
        }
        progress |= self.drain_mp_completions(probe);
        progress |= self.mp_issue(probe);
        progress |= self.llib_to_mp_transfer();
        progress |= self
            .engine
            .writeback(self.cycle, &mut self.front, &mut self.stats, probe);
        progress |= self.analyze(probe);
        progress |= self.cp_issue(probe);
        progress |= self.cp_dispatch(probe);
        progress |= self.front.fetch(self.cycle, trace, &mut self.stats, probe);
        progress
    }

    /// A Cache Processor completion, a Memory Processor completion, a
    /// long-latency load value arriving at the Address Processor (or any
    /// outstanding cache fill), the end of the front-end refill penalty, or
    /// the Aging-ROB head reaching the Analyze stage.
    fn next_event(&mut self) -> Option<u64> {
        let now = self.cycle;
        // The Aging-ROB: a head that has not aged yet becomes analyzable at
        // a fixed future cycle even if nothing else happens.
        let head_ages = self
            .engine
            .rob()
            .head()
            .map(|head| head.dispatch_cycle + self.cfg.cache_processor.rob_timer)
            .filter(|&at| at > now);
        let [int, fp] = &self.lanes;
        [
            self.engine.next_completion(now),
            int.mp.next_event(now),
            fp.mp.next_event(now),
            self.ap.next_event(now),
            self.front.next_event(now),
            head_ages,
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// Nothing left in the front end, the Aging-ROB, or on the low-locality
    /// side (LLIBs / Memory Processors / Address Processor, all tracked by
    /// `low_meta`).
    fn is_drained(&self) -> bool {
        self.front.is_drained() && self.engine.rob().is_empty() && self.low_meta.is_empty()
    }

    fn rearm_trace(&mut self) {
        self.front.rearm();
    }

    /// Aging-ROB / CP issue-queue / AP LSQ occupancy, the two LLIBs, the
    /// LLBV marked count, and the cumulative commit, branch, cache and clock
    /// counters.
    fn metrics_frame(&self) -> MetricsFrame {
        let mut frame = MetricsFrame {
            cycle: self.cycle,
            committed: self.stats.committed,
            rob: self.engine.rob().len() as u64,
            iq: self.engine.queued() as u64,
            lsq: self.ap.lsq().occupancy() as u64,
            llib: self.lanes.iter().map(|lane| lane.llib.len() as u64).sum(),
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
        let [int, fp] = &self.lanes;
        self.stats.llib_int_peak_instrs = int.llib.peak() as u64;
        self.stats.llib_fp_peak_instrs = fp.llib.peak() as u64;
        self.stats.llrf_int_peak_regs = int.llrf.peak() as u64;
        self.stats.llrf_fp_peak_regs = fp.llrf.peak() as u64;
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
/// ([`FrontEnd::warm_branch`]). Used by the sampled-simulation mode for
/// every fast-forwarded instruction; pipeline, clock and committed counters
/// are untouched.
impl WarmSink for DkipProcessor {
    fn warm_mem(&mut self, addr: u64, is_write: bool) {
        self.ap.warm_access(addr, is_write);
    }

    fn warm_branch(&mut self, pc: u64, taken: bool) {
        self.front.warm_branch(pc, taken);
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
                    proc_.engine.wakeup_lists() <= bound,
                    "{bench:?} after {target} instructions: {} wakeup lists for a \
                     {bound}-entry Aging-ROB",
                    proc_.engine.wakeup_lists()
                );
                for (table, len) in [
                    ("low_meta", proc_.low_meta.len()),
                    ("mp_waiters", proc_.mp_waiters.len()),
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
    fn an_llrf_smaller_than_its_llib_fills_and_stalls_analyze_but_not_the_run() {
        // Eight registers against a 2048-entry LLIB: unlike the paper
        // default, the LLRF fills before the LLIB does, so an allocation is
        // refused and Analyze retries it.
        let mut cfg = DkipConfig::paper_default();
        cfg.llib.llrf_banks = 8;
        cfg.llib.llrf_regs_per_bank = 1;
        let stats = run(
            &cfg,
            MemoryHierarchyConfig::mem_400(),
            Benchmark::Swim,
            15_000,
        );
        assert!(stats.committed >= 15_000, "committed={}", stats.committed);
        let peaks = [stats.llrf_int_peak_regs, stats.llrf_fp_peak_regs];
        assert!(peaks.iter().all(|&peak| peak <= 8), "{peaks:?}");
        assert!(peaks.contains(&8), "neither LLRF filled: {peaks:?}");
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
