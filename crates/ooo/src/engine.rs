//! The out-of-order issue engine shared by every core family: rename,
//! wakeup, select and writeback.
//!
//! The paper's D-KIP Cache Processor is a conventional small out-of-order
//! core: rename, small issue queues and a ROB (its Aging-ROB). It differs
//! from the R10000-style baselines only at its tail, where the Analyze
//! stage replaces commit. So everything up to that tail is written once,
//! here, and held by both [`crate::OooCore`] and the D-KIP (`dkip-core`).
//!
//! [`IssueEngine`] owns the ROB, both issue queues, the functional units,
//! the completion queue, the wakeup table and the rename scoreboard. The
//! parts that belong elsewhere come in as arguments: the [`FrontEnd`], the
//! statistics, and the core's [`MemorySide`] (LSQ, memory ports and cache
//! hierarchy), which the OoO core owns itself and the D-KIP's Address
//! Processor owns for it. Each core keeps its own stage order and its own
//! tail. Two decisions are the caller's at each call:
//!
//! * [`IssueEngine::issue`] asks what happens to a load that missed to main
//!   memory: the OoO cores complete it in the pipeline (a slow lane first
//!   parks its dependants), the D-KIP hands it to its Address Processor;
//! * [`IssueEngine::dispatch`] asks whether a producer that has already
//!   left the ROB is still pending.
//!
//! The slow lane of the KILO baseline (WIB/SLIQ style) lives here as well:
//! an instruction parked at dispatch waits outside the issue queues until
//! its operands wake it, then re-enters through [`IssueEngine::reinsert`].
//! A core built without a slow lane (the R10000 baselines, the D-KIP)
//! never parks.

use crate::core::CoreParams;
use crate::front_end::FrontEnd;
use crate::fu::{FunctionalUnits, MemPorts};
use crate::iq::IssueQueue;
use crate::lsq::{Lsq, FORWARD_LATENCY};
use crate::rob::{Rob, RobEntry};
use dkip_mem::{AccessLevel, AccessOutcome};
use dkip_model::config::WidthConfig;
use dkip_model::telemetry::{Probe, Stage};
use dkip_model::{
    ConsumerTable, DepList, EventQueue, Histogram, LastWriters, OpClass, RegClass, SimStats,
};
use std::collections::VecDeque;

/// The memory side of a core as the issue engine sees it: the LSQ loads and
/// stores dispatch into, the memory ports they issue on, and the cache
/// hierarchy they access.
pub trait MemorySide {
    /// The load/store queue.
    fn lsq_mut(&mut self) -> &mut Lsq;
    /// The memory ports, refreshed by the core at the start of each cycle.
    fn ports_mut(&mut self) -> &mut MemPorts;
    /// A timing access against the cache hierarchy at cycle `now`.
    fn access(&mut self, addr: u64, is_write: bool, now: u64) -> AccessOutcome;
}

/// Rename, wakeup, select and writeback over a ROB and two issue queues.
#[derive(Debug, Clone)]
pub struct IssueEngine {
    widths: WidthConfig,
    mispredict_penalty: u64,
    pub(crate) rob: Rob,
    pub(crate) int_iq: IssueQueue,
    pub(crate) fp_iq: IssueQueue,
    fus: FunctionalUnits,
    /// Issued instructions, due when their execution finishes.
    completions: EventQueue,
    /// Producer seq → consumer seqs still waiting on it (pooled spines).
    pub(crate) consumers: ConsumerTable,
    /// Architectural register → seq of its most recent producer (flat
    /// scoreboard).
    last_writer: LastWriters,
    /// Capacity of the slow lane, if the core has one.
    pub(crate) slow_lane: Option<usize>,
    /// Number of ROB entries parked in the slow lane ([`RobEntry::parked`]).
    pub(crate) parked: usize,
    /// Parked instructions whose operands are now ready, waiting for issue
    /// queue space.
    reinsert_queue: VecDeque<u64>,
    /// The decode→issue histogram (Figure 3), when requested.
    pub(crate) issue_hist: Option<Histogram>,
    /// Reusable per-cycle selection buffer (see [`IssueQueue::select_into`]).
    issue_scratch: Vec<(u64, OpClass)>,
    /// Whether dispatch or reinsertion has ever found no room (see
    /// [`IssueEngine::ever_full`]).
    ever_full: bool,
}

impl IssueEngine {
    /// An empty engine sized by `params`: window, issue queues and their
    /// policy, functional units, widths, the refill penalty paid after a
    /// mispredict resolves here, the issue histogram and the slow lane.
    #[must_use]
    pub fn new(params: &CoreParams) -> Self {
        IssueEngine {
            widths: params.widths,
            mispredict_penalty: params.mispredict_penalty,
            rob: Rob::new(params.window),
            int_iq: IssueQueue::new(params.int_iq, params.sched),
            fp_iq: IssueQueue::new(params.fp_iq, params.sched),
            fus: FunctionalUnits::new(params.fu),
            completions: EventQueue::new(),
            consumers: ConsumerTable::new(),
            last_writer: LastWriters::new(),
            slow_lane: params.slow_lane,
            parked: 0,
            reinsert_queue: VecDeque::new(),
            issue_hist: params
                .collect_issue_histogram
                .then(|| Histogram::new(20, 2000)),
            issue_scratch: Vec::new(),
            ever_full: false,
        }
    }

    /// The in-flight instructions in program order.
    #[inline]
    #[must_use]
    pub fn rob(&self) -> &Rob {
        &self.rob
    }

    /// Removes and returns the oldest in-flight instruction (at commit, or
    /// as it leaves the D-KIP's Aging-ROB).
    #[inline]
    pub fn pop_head(&mut self) -> Option<RobEntry> {
        self.rob.pop_head()
    }

    /// Instructions waiting in the two issue queues.
    #[inline]
    #[must_use]
    pub fn queued(&self) -> usize {
        self.int_iq.len() + self.fp_iq.len()
    }

    /// Producers that hold a wakeup list.
    #[must_use]
    pub fn wakeup_lists(&self) -> usize {
        self.consumers.len()
    }

    /// Whether dispatch or reinsertion has ever been refused for lack of
    /// room: a full ROB, LSQ, issue queue or slow lane. An engine that was
    /// never refused ran exactly as one with larger structures would have,
    /// since no other decision reads their capacities.
    #[must_use]
    pub fn ever_full(&self) -> bool {
        self.ever_full
    }

    /// Starts a new cycle: refreshes the functional units.
    #[inline]
    pub fn begin_cycle(&mut self) {
        self.fus.begin_cycle();
    }

    /// The next scheduled execution completion strictly after `now`.
    #[inline]
    #[must_use]
    pub fn next_completion(&self, now: u64) -> Option<u64> {
        self.completions.next_after(now)
    }

    /// Writeback at cycle `now`: completes every instruction whose
    /// execution is due. Returns whether any completed.
    #[inline]
    pub fn writeback<P: Probe>(
        &mut self,
        now: u64,
        front: &mut FrontEnd,
        stats: &mut SimStats,
        probe: &mut P,
    ) -> bool {
        let mut completed = false;
        while let Some(seq) = self.completions.pop_due(now) {
            completed = true;
            self.complete(seq, now, front, stats, probe);
        }
        completed
    }

    /// Completes `seq` at cycle `now`, if it is still in flight: its value
    /// exists (it is no longer long latency), a branch resolves in the
    /// front end (a mispredict refills after the engine's penalty), and its
    /// consumers wake.
    #[inline]
    pub fn complete<P: Probe>(
        &mut self,
        seq: u64,
        now: u64,
        front: &mut FrontEnd,
        stats: &mut SimStats,
        probe: &mut P,
    ) {
        probe.trace_stage(seq, Stage::Complete, now);
        let Some(entry) = self.rob.get_mut(seq) else {
            return;
        };
        entry.completed = true;
        entry.long_latency = false;
        front.resolve(
            &entry.op,
            entry.predicted_taken,
            entry.mispredicted,
            now + self.mispredict_penalty,
            stats,
        );
        let waiters = self.consumers.take(seq);
        for &consumer in &waiters {
            self.wake(consumer);
        }
        self.consumers.recycle(waiters);
    }

    /// One source of `seq` became available. On its last pending source an
    /// instruction that has not issued becomes ready in its issue queue, or
    /// joins the reinsert queue if it is parked.
    #[inline]
    fn wake(&mut self, seq: u64) {
        let Some(entry) = self.rob.get_mut(seq) else {
            return;
        };
        if entry.pending_srcs == 0 {
            return;
        }
        entry.pending_srcs -= 1;
        if entry.pending_srcs == 0 && !entry.issued {
            if entry.parked {
                entry.parked = false;
                self.parked -= 1;
                self.reinsert_queue.push_back(seq);
            } else {
                let class = entry.queue_class;
                self.queue(class).mark_ready(seq);
            }
        }
    }

    /// Drops the wakeup list of `seq`, a producer leaving the ROB without
    /// completing here; its consumers keep waiting.
    #[inline]
    pub fn drop_wakeups(&mut self, seq: u64) {
        let dead = self.consumers.take(seq);
        self.consumers.recycle(dead);
    }

    /// Takes `seq` out of the issue queue of `class` if it still waits
    /// there. Returns whether it did.
    #[inline]
    pub fn unqueue(&mut self, seq: u64, class: RegClass) -> bool {
        self.queue(class).remove(seq)
    }

    #[inline]
    fn queue(&mut self, class: RegClass) -> &mut IssueQueue {
        match class {
            RegClass::Int => &mut self.int_iq,
            RegClass::Fp => &mut self.fp_iq,
        }
    }

    /// Slow-lane reinsertion: up to the decode width of woken parked
    /// instructions re-enter an issue queue, oldest wakeup first, while
    /// there is room. Returns whether the reinsert queue moved.
    pub fn reinsert(&mut self) -> bool {
        let mut moved = false;
        for _ in 0..self.widths.decode {
            let Some(&seq) = self.reinsert_queue.front() else {
                break;
            };
            let Some(entry) = self.rob.get(seq) else {
                self.reinsert_queue.pop_front();
                moved = true;
                continue;
            };
            let (class, op_class) = (entry.queue_class, entry.op.class);
            let iq = self.queue(class);
            if !iq.has_space() {
                self.ever_full = true;
                break;
            }
            iq.insert(seq, op_class, true);
            self.reinsert_queue.pop_front();
            moved = true;
        }
        moved
    }

    /// Issue at cycle `now`: the integer queue selects up to the issue
    /// width, the FP queue fills what is left, both drawing on the
    /// functional units and `mem`'s ports, and each selected instruction
    /// starts executing. A load that misses to main memory is flagged long
    /// latency and handed to `on_memory_load(engine, mem, seq, arrives_at)`,
    /// which returns whether the engine completes it at `arrives_at` (or
    /// another unit took it over). Returns whether anything issued.
    pub fn issue<M: MemorySide, P: Probe>(
        &mut self,
        now: u64,
        mem: &mut M,
        probe: &mut P,
        mut on_memory_load: impl FnMut(&mut Self, &mut M, u64, u64) -> bool,
    ) -> bool {
        let width = self.widths.issue;
        let mut selected = std::mem::take(&mut self.issue_scratch);
        selected.clear();
        self.int_iq
            .select_into(width, &mut self.fus, mem.ports_mut(), &mut selected);
        let remaining = width.saturating_sub(selected.len());
        self.fp_iq
            .select_into(remaining, &mut self.fus, mem.ports_mut(), &mut selected);
        for &(seq, class) in &selected {
            probe.trace_stage(seq, Stage::Issue, now);
            self.start_execution(seq, class, now, mem, &mut on_memory_load);
        }
        let issued = !selected.is_empty();
        self.issue_scratch = selected;
        issued
    }

    fn start_execution<M: MemorySide>(
        &mut self,
        seq: u64,
        class: OpClass,
        now: u64,
        mem: &mut M,
        on_memory_load: &mut impl FnMut(&mut Self, &mut M, u64, u64) -> bool,
    ) {
        let entry = self
            .rob
            .get_mut(seq)
            .expect("issued instruction must be in flight");
        entry.issued = true;
        let addr = entry.op.mem_addr;
        if let Some(hist) = self.issue_hist.as_mut() {
            hist.record(now - entry.dispatch_cycle);
        }
        let latency = match class {
            OpClass::Load => {
                let addr = addr.expect("load has an address");
                if mem.lsq_mut().forwards_from_store(seq, addr) {
                    FORWARD_LATENCY
                } else {
                    let outcome = mem.access(addr, false, now);
                    if outcome.level == AccessLevel::Memory {
                        entry.long_latency = true;
                        if !on_memory_load(self, mem, seq, now + outcome.latency) {
                            return;
                        }
                    }
                    outcome.latency
                }
            }
            OpClass::Store => {
                // The store is complete once it is in the store buffer; the
                // cache is updated immediately for timing purposes.
                let _ = mem.access(addr.expect("store has an address"), true, now);
                1
            }
            other => other.exec_latency(),
        };
        self.completions.push(now + latency.max(1), seq);
    }

    /// Dispatch (rename) at cycle `now`: up to the decode width of
    /// instructions move from the front end into the ROB, the LSQ and an
    /// issue queue (or the slow lane), in order, until one finds no room.
    ///
    /// A source waits on its last writer while that producer is in the ROB
    /// and has not completed. For a producer that has already left the ROB
    /// the caller decides: `pending_outside_rob(producer)`.
    pub fn dispatch<M: MemorySide, P: Probe>(
        &mut self,
        now: u64,
        front: &mut FrontEnd,
        mem: &mut M,
        stats: &mut SimStats,
        probe: &mut P,
        pending_outside_rob: impl Fn(u64) -> bool,
    ) -> bool {
        let mut dispatched = false;
        for _ in 0..self.widths.decode {
            // `None` also behind an unresolved mispredict or the refill.
            let Some(op) = front.head(now) else {
                break;
            };
            if !self.rob.has_space() {
                stats.rob_full_stall_cycles += 1;
                self.ever_full = true;
                break;
            }
            if op.class.is_mem() && !mem.lsq_mut().has_space() {
                self.ever_full = true;
                break;
            }
            let queue_class = op.queue_class();
            // The producer list is inline ([`DepList`]): a micro-op has at
            // most two sources, so dispatch never touches the heap for it.
            let mut pending_producers = DepList::new();
            for src in op.sources() {
                if let Some(producer) = self.last_writer.get(src) {
                    let pending = match self.rob.get(producer) {
                        Some(entry) => !entry.completed,
                        None => pending_outside_rob(producer),
                    };
                    if pending {
                        pending_producers.push(producer);
                    }
                }
            }
            // With a slow lane, an instruction waiting on a long-latency (or
            // parked) producer parks instead of taking an issue-queue slot.
            let park = self.slow_lane.is_some()
                && pending_producers.iter().any(|p| {
                    self.rob
                        .get(p)
                        .is_some_and(|producer| producer.long_latency || producer.parked)
                });
            let has_room = if park {
                self.parked < self.slow_lane.unwrap_or(usize::MAX)
            } else {
                self.queue(queue_class).has_space()
            };
            if !has_room {
                self.ever_full = true;
                break;
            }

            let op = front.pop();
            dispatched = true;
            let seq = op.seq;
            probe.trace_stage(seq, Stage::Dispatch, now);
            let mut entry = RobEntry::new(op, now, queue_class);
            // Distinct source slots may wait on the same producer: two
            // wakeups, counted twice here.
            for producer in pending_producers.iter() {
                self.consumers.push(producer, seq);
            }
            entry.pending_srcs = pending_producers.len();
            front.predict(&mut entry);

            match entry.op.class {
                OpClass::Load => {
                    mem.lsq_mut().dispatch_load(seq);
                    stats.loads += 1;
                }
                OpClass::Store => {
                    let addr = entry.op.mem_addr.expect("store has an address");
                    mem.lsq_mut().dispatch_store(seq, addr);
                    stats.stores += 1;
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
                self.queue(queue_class).insert(seq, op_class, ready);
            }
        }
        dispatched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::Memory;
    use dkip_mem::MemoryHierarchy;
    use dkip_model::config::{BaselineConfig, MemoryHierarchyConfig};
    use dkip_model::telemetry::NoProbe;
    use dkip_model::{ArchReg, MicroOp};

    /// An R10-64 engine with its memory side and front end, stepped by hand.
    struct Harness {
        engine: IssueEngine,
        memory: Memory,
        front: FrontEnd,
        stats: SimStats,
        now: u64,
    }

    impl Harness {
        fn new(slow_lane: Option<usize>) -> Self {
            let mut params = CoreParams::from(&BaselineConfig::r10_64());
            params.slow_lane = slow_lane;
            Harness {
                engine: IssueEngine::new(&params),
                memory: Memory {
                    hierarchy: MemoryHierarchy::new(MemoryHierarchyConfig::l1_2()).unwrap(),
                    lsq: Lsq::new(params.lsq),
                    ports: MemPorts::new(params.memory_ports),
                },
                front: FrontEnd::new(8),
                stats: SimStats::new(),
                now: 0,
            }
        }

        /// Fetches `ops` and dispatches them (four per call).
        fn dispatch(&mut self, ops: &[MicroOp], pending_outside_rob: impl Fn(u64) -> bool) {
            let mut trace = ops.iter().copied();
            self.front
                .fetch(self.now, &mut trace, &mut self.stats, &mut NoProbe);
            self.engine.dispatch(
                self.now,
                &mut self.front,
                &mut self.memory,
                &mut self.stats,
                &mut NoProbe,
                pending_outside_rob,
            );
        }

        /// One cycle of writeback then issue.
        fn tick(&mut self) {
            self.now += 1;
            self.engine.begin_cycle();
            self.memory.ports.begin_cycle();
            self.engine
                .writeback(self.now, &mut self.front, &mut self.stats, &mut NoProbe);
            self.engine
                .issue(self.now, &mut self.memory, &mut NoProbe, |_, _, _, _| true);
        }

        fn entry(&self, seq: u64) -> &RobEntry {
            self.engine.rob().get(seq).expect("in flight")
        }
    }

    fn op(seq: u64, class: OpClass, dst: u8, srcs: &[u8]) -> MicroOp {
        let dst = if class.is_fp() {
            ArchReg::fp(dst)
        } else {
            ArchReg::int(dst)
        };
        srcs.iter().fold(
            MicroOp::new(seq, 0x400 + seq * 4, class).with_dst(dst),
            |op, &src| op.with_src(ArchReg::int(src)),
        )
    }

    #[test]
    fn a_consumer_is_ready_only_when_its_last_source_wakes() {
        // One integer multiplier: the two producers issue a cycle apart, so
        // for one cycle the consumer has one source of two.
        let mut h = Harness::new(None);
        h.dispatch(
            &[
                op(0, OpClass::IntMul, 1, &[]),
                op(1, OpClass::IntMul, 2, &[]),
                op(2, OpClass::IntAlu, 3, &[1, 2]),
            ],
            |_| false,
        );
        assert_eq!(h.entry(2).pending_srcs, 2);
        let mut saw_one_source = false;
        while !h.entry(1).completed {
            h.tick();
            if h.entry(0).completed && !h.entry(1).completed {
                saw_one_source = true;
                assert_eq!(h.entry(2).pending_srcs, 1);
                assert!(!h.entry(2).issued, "issued with a source missing");
            }
        }
        assert!(saw_one_source);
        assert!(
            h.entry(2).issued,
            "ready on its last wakeup, it issues the same cycle"
        );
    }

    #[test]
    fn an_issued_consumer_never_becomes_ready_again() {
        // An issued instruction owes no wakeups in a well-formed run; the
        // guard keeps a stray one from putting it back into selection.
        let mut h = Harness::new(None);
        h.dispatch(
            &[
                op(0, OpClass::IntMul, 1, &[]),
                op(1, OpClass::IntAlu, 2, &[1]),
            ],
            |_| false,
        );
        h.engine.rob.get_mut(1).unwrap().issued = true;
        while !h.entry(0).completed {
            h.tick();
        }
        h.tick();
        assert_eq!(h.entry(1).pending_srcs, 0);
        assert_eq!(
            h.engine.queued(),
            1,
            "a ready entry would have been selected"
        );
    }

    #[test]
    fn integer_then_fp_selection_shares_one_issue_width() {
        // Two older FP adds, three younger integer ops, a 4-wide machine:
        // the integer queue selects first, the FP queue gets what is left.
        let mut h = Harness::new(None);
        h.dispatch(
            &[
                op(0, OpClass::FpAdd, 1, &[]),
                op(1, OpClass::FpAdd, 2, &[]),
                op(2, OpClass::IntAlu, 3, &[]),
                op(3, OpClass::IntAlu, 4, &[]),
            ],
            |_| false,
        );
        h.dispatch(&[op(4, OpClass::IntAlu, 5, &[])], |_| false);
        h.tick();
        let issued: Vec<u64> = (0..5).filter(|&seq| h.entry(seq).issued).collect();
        assert_eq!(issued, vec![0, 2, 3, 4]);
        h.tick();
        assert!(h.entry(1).issued);
    }

    #[test]
    fn a_parked_consumer_goes_to_the_reinsert_queue_not_an_issue_queue() {
        let mut h = Harness::new(Some(8));
        h.dispatch(&[op(0, OpClass::IntAlu, 1, &[])], |_| false);
        h.tick();
        assert!(h.entry(0).issued);
        // Flagged as a load that missed to main memory would be.
        h.engine.rob.get_mut(0).unwrap().long_latency = true;
        h.dispatch(&[op(1, OpClass::IntAlu, 2, &[1])], |_| false);
        assert!(h.entry(1).parked);
        assert_eq!((h.engine.parked, h.engine.queued()), (1, 0));

        h.tick();
        assert!(h.entry(0).completed);
        assert!(!h.entry(1).parked);
        assert_eq!(h.engine.parked, 0);
        assert_eq!(h.engine.queued(), 0, "woken, but not into an issue queue");
        assert_eq!(h.engine.reinsert_queue, [1]);

        assert!(h.engine.reinsert());
        assert_eq!(h.engine.queued(), 1);
        h.tick();
        assert!(h.entry(1).issued);
    }

    #[test]
    fn dropping_a_departed_producers_wakeup_list_leaves_its_consumers_untouched() {
        let mut h = Harness::new(None);
        h.dispatch(
            &[
                op(0, OpClass::IntMul, 1, &[]),
                op(1, OpClass::IntAlu, 2, &[1]),
            ],
            |_| false,
        );
        assert_eq!(h.engine.wakeup_lists(), 1);
        // The producer leaves the ROB unexecuted, as the D-KIP drains an
        // instruction to an LLIB.
        let producer = h.engine.pop_head().unwrap();
        h.engine.drop_wakeups(producer.op.seq);
        assert!(h.engine.unqueue(producer.op.seq, producer.queue_class));
        assert_eq!(h.engine.wakeup_lists(), 0);
        for _ in 0..10 {
            h.tick();
        }
        assert_eq!(h.entry(1).pending_srcs, 1);
        assert!(!h.entry(1).issued && h.engine.queued() == 1);

        // A later reader of that register waits on the departed producer
        // only if the caller says it is still pending.
        h.dispatch(&[op(2, OpClass::IntAlu, 3, &[1])], |_| false);
        h.dispatch(&[op(3, OpClass::IntAlu, 4, &[1])], |seq| seq == 0);
        assert_eq!(h.entry(2).pending_srcs, 0);
        assert_eq!(h.entry(3).pending_srcs, 1);
    }
}
