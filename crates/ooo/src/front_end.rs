//! The front end shared by every core family: fetch, branch prediction and
//! mispredict recovery.
//!
//! The paper's D-KIP Cache Processor fetches, predicts branches with the
//! perceptron and refills after a mispredict exactly as the R10000-style
//! baselines do, so [`FrontEnd`] is written once and held by both
//! [`crate::OooCore`] and the D-KIP (`dkip-core`).
//!
//! The reproduction is trace driven: wrong-path instructions are never
//! fetched. A mispredicted conditional branch instead stalls fetch and
//! holds every younger instruction at dispatch until it resolves; then the
//! younger instructions (conceptually the correct-path refetch) wait out
//! the refill penalty before they may dispatch. Dispatch is in order from
//! the queue, so every queued instruction is younger than a dispatched
//! branch, and at most one mispredict blocks at a time.

use crate::rob::RobEntry;
use dkip_bpred::PerceptronPredictor;
use dkip_model::telemetry::Probe;
use dkip_model::{MicroOp, SimStats};
use std::collections::VecDeque;

/// Fetch queue, direction predictor and mispredict-recovery state.
#[derive(Debug, Clone)]
pub struct FrontEnd {
    /// Instructions fetched per cycle.
    width: usize,
    /// Fetched but not yet dispatched instructions (at most 3 × width).
    queue: VecDeque<MicroOp>,
    predictor: PerceptronPredictor,
    /// The dispatched, mispredicted, not-yet-resolved conditional branch.
    /// Fetch and dispatch stall behind it.
    blocking_mispredict: Option<u64>,
    /// Cycle at which fetch and dispatch resume after the refill penalty.
    fetch_resume_at: u64,
    /// Whether the trace iterator has returned `None` (finite traces such as
    /// the execution-driven RISC-V kernels end; the synthetic generators
    /// never do).
    trace_done: bool,
}

impl FrontEnd {
    /// An empty front end fetching `width` instructions per cycle, with the
    /// paper's perceptron predictor.
    #[must_use]
    pub fn new(width: usize) -> Self {
        FrontEnd {
            width,
            queue: VecDeque::new(),
            predictor: PerceptronPredictor::paper_default(),
            blocking_mispredict: None,
            fetch_resume_at: 0,
            trace_done: false,
        }
    }

    /// The fetch stage at `cycle`: up to `width` instructions from `trace`
    /// into the queue, unless a mispredict or the refill stalls fetch (one
    /// `mispredict_stall_cycles` per stalled cycle). An exhausted trace
    /// latches [`FrontEnd::is_drained`]'s end-of-trace flag. Returns whether
    /// anything was fetched.
    pub fn fetch<P: Probe>(
        &mut self,
        cycle: u64,
        trace: &mut dyn Iterator<Item = MicroOp>,
        stats: &mut SimStats,
        probe: &mut P,
    ) -> bool {
        if self.stalled(cycle) {
            stats.mispredict_stall_cycles += 1;
            return false;
        }
        let mut fetched = false;
        let limit = self.width * 3;
        for _ in 0..self.width {
            if self.queue.len() >= limit {
                break;
            }
            let Some(op) = trace.next() else {
                self.trace_done = true;
                break;
            };
            stats.fetched += 1;
            probe.trace_fetch(&op, cycle);
            self.queue.push_back(op);
            fetched = true;
        }
        fetched
    }

    /// The oldest fetched instruction, if it may dispatch at `cycle`.
    /// `None` when the queue is empty, while a mispredicted branch is
    /// unresolved, or while the refill penalty is being paid: every queued
    /// instruction is younger than the branch, so (conceptually) a
    /// wrong-path refetch.
    #[inline]
    #[must_use]
    pub fn head(&self, cycle: u64) -> Option<&MicroOp> {
        if self.stalled(cycle) {
            return None;
        }
        self.queue.front()
    }

    /// Whether fetch and dispatch stall at `cycle`: behind an unresolved
    /// mispredict, or while the refill penalty is being paid.
    #[inline]
    fn stalled(&self, cycle: u64) -> bool {
        self.blocking_mispredict.is_some() || cycle < self.fetch_resume_at
    }

    /// Removes the instruction [`FrontEnd::head`] returned, to dispatch it.
    ///
    /// # Panics
    ///
    /// Panics if the queue is empty.
    #[inline]
    pub fn pop(&mut self) -> MicroOp {
        self.queue.pop_front().expect("dispatch pops a fetched op")
    }

    /// Predicts a dispatching conditional branch and records the prediction
    /// in its entry; a mispredicted one blocks dispatch and fetch until it
    /// resolves. Other instructions are left unchanged.
    #[inline]
    pub fn predict(&mut self, entry: &mut RobEntry) {
        if !entry.op.is_conditional_branch() {
            return;
        }
        let predicted = self.predictor.predict(entry.op.pc);
        entry.predicted_taken = predicted;
        let actual = entry.op.branch.expect("conditional branch").taken;
        entry.mispredicted = predicted != actual;
        if entry.mispredicted {
            debug_assert!(
                self.blocking_mispredict.is_none(),
                "dispatch behind an unresolved mispredict"
            );
            self.blocking_mispredict = Some(entry.op.seq);
        }
    }

    /// Resolves `op` as it completes: a conditional branch trains the
    /// predictor and bumps the branch counters. If it is the blocking
    /// mispredict, fetch and dispatch resume at `resume_at` (the refill
    /// penalty paid). Returns whether it cleared the blocking mispredict.
    #[inline]
    pub fn resolve(
        &mut self,
        op: &MicroOp,
        predicted_taken: bool,
        mispredicted: bool,
        resume_at: u64,
        stats: &mut SimStats,
    ) -> bool {
        if !op.is_conditional_branch() {
            return false;
        }
        let taken = op.branch.expect("conditional branch").taken;
        stats.cond_branches += 1;
        self.predictor.update(op.pc, taken, predicted_taken);
        if !mispredicted {
            return false;
        }
        stats.branch_mispredicts += 1;
        if self.blocking_mispredict != Some(op.seq) {
            return false;
        }
        self.blocking_mispredict = None;
        self.fetch_resume_at = resume_at;
        true
    }

    /// The end of the refill penalty, if it lies after `now`.
    #[inline]
    #[must_use]
    pub fn next_event(&self, now: u64) -> Option<u64> {
        Some(self.fetch_resume_at).filter(|&at| at > now)
    }

    /// Whether the trace has ended and every fetched instruction has
    /// dispatched.
    #[inline]
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.trace_done && self.queue.is_empty()
    }

    /// Forgets that the previous trace ended, for a run with a fresh trace.
    #[inline]
    pub fn rearm(&mut self) {
        self.trace_done = false;
    }

    /// Trains the predictor with a branch that is not simulated in detail
    /// ([`PerceptronPredictor::warm`]).
    #[inline]
    pub fn warm_branch(&mut self, pc: u64, taken: bool) {
        self.predictor.warm(pc, taken);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkip_model::{BranchInfo, NoProbe, OpClass, RegClass};

    fn alu(seq: u64) -> MicroOp {
        MicroOp::new(seq, 0x1000 + 4 * seq, OpClass::IntAlu)
    }

    /// A conditional branch the untrained perceptron mispredicts: it
    /// predicts taken, the branch falls through.
    fn mispredicted_branch(seq: u64) -> MicroOp {
        MicroOp::new(seq, 0x1000 + 4 * seq, OpClass::Branch)
            .with_branch(BranchInfo::conditional(false, 0x4000))
    }

    fn fetch(fe: &mut FrontEnd, cycle: u64, ops: &mut dyn Iterator<Item = MicroOp>) -> SimStats {
        let mut stats = SimStats::default();
        fe.fetch(cycle, ops, &mut stats, &mut NoProbe);
        stats
    }

    /// Pops and predicts the head, as dispatch does.
    fn dispatch(fe: &mut FrontEnd, cycle: u64) -> RobEntry {
        assert!(fe.head(cycle).is_some(), "head must dispatch at {cycle}");
        let mut entry = RobEntry::new(fe.pop(), cycle, RegClass::Int);
        fe.predict(&mut entry);
        entry
    }

    #[test]
    fn fetch_stops_at_three_times_the_width_and_counts_fetched() {
        let mut fe = FrontEnd::new(4);
        let mut ops = (0..).map(alu);
        let mut fetched = 0;
        for cycle in 1..=5 {
            fetched += fetch(&mut fe, cycle, &mut ops).fetched;
        }
        assert_eq!(fetched, 12, "the queue holds 3 × width");
        assert_eq!(fe.queue.len(), 12);
        assert_eq!(fe.pop().seq, 0);
        assert_eq!(fetch(&mut fe, 6, &mut ops).fetched, 1);
    }

    #[test]
    fn a_mispredict_stalls_fetch_and_holds_younger_ops_until_it_resolves() {
        let mut fe = FrontEnd::new(4);
        let mut ops = [alu(0), mispredicted_branch(1), alu(2), alu(3)].into_iter();
        fetch(&mut fe, 1, &mut ops);
        dispatch(&mut fe, 2);
        let branch = dispatch(&mut fe, 2);
        assert!(branch.mispredicted);
        assert!(fe.head(2).is_none(), "an op younger than the branch waits");
        for cycle in 3..6 {
            let stats = fetch(&mut fe, cycle, &mut ops);
            assert_eq!((stats.fetched, stats.mispredict_stall_cycles), (0, 1));
            assert!(fe.head(cycle).is_none());
        }
        let mut stats = SimStats::default();
        // A non-branch resolves to nothing at all.
        assert!(!fe.resolve(&alu(7), false, false, 10, &mut stats));
        assert_eq!(stats, SimStats::default());
        assert!(fe.resolve(&branch.op, branch.predicted_taken, true, 10, &mut stats));
        assert_eq!((stats.cond_branches, stats.branch_mispredicts), (1, 1));
        for cycle in 6..10 {
            assert!(fe.head(cycle).is_none(), "the refill holds dispatch");
            let stats = fetch(&mut fe, cycle, &mut ops);
            assert_eq!((stats.fetched, stats.mispredict_stall_cycles), (0, 1));
        }
        assert_eq!(fe.head(10).map(|op| op.seq), Some(2));
        assert_eq!(fetch(&mut fe, 10, &mut ops).mispredict_stall_cycles, 0);
    }

    #[test]
    fn an_exhausted_trace_latches_until_rearm() {
        let mut fe = FrontEnd::new(4);
        let mut ops = [alu(0)].into_iter();
        assert_eq!(fetch(&mut fe, 1, &mut ops).fetched, 1);
        assert!(fe.trace_done);
        assert!(!fe.is_drained(), "a queued op is still in the front end");
        fe.pop();
        assert!(fe.is_drained());
        fe.rearm();
        assert!(!fe.trace_done);
        assert!(!fe.is_drained());
    }

    #[test]
    fn next_event_is_the_resume_cycle_only_while_it_is_ahead() {
        let mut fe = FrontEnd::new(4);
        assert_eq!(fe.next_event(0), None);
        let mut entry = RobEntry::new(mispredicted_branch(0), 1, RegClass::Int);
        fe.predict(&mut entry);
        let mut stats = SimStats::default();
        assert!(fe.resolve(&entry.op, entry.predicted_taken, true, 30, &mut stats));
        assert_eq!(fe.next_event(10), Some(30));
        assert_eq!(fe.next_event(29), Some(30));
        assert_eq!(fe.next_event(30), None);
        assert_eq!(fe.next_event(31), None);
    }
}
