//! The Memory Processor (MP).
//!
//! The Memory Processor executes low-locality instructions after their
//! long-latency operands become available. The paper models it as a simple
//! Future-File machine (Smith & Pleszkun) with a small reservation-station
//! queue that is in-order by default (Table 3) and may optionally be a small
//! out-of-order queue (Figure 10). Because this reproduction is timing-only,
//! the Future File itself is represented by readiness bookkeeping: an
//! instruction inserted into the MP carries the number of operands that are
//! still unavailable, and the surrounding processor satisfies them as loads
//! return and older MP instructions complete.

use dkip_model::config::MemoryProcessorConfig;
use dkip_model::{EventQueue, FastHashMap, OpClass};
use dkip_ooo::{FunctionalUnits, IssueQueue, MemPorts};

/// One integer or floating-point Memory Processor.
///
/// `Clone` deep-copies the queue, readiness bookkeeping and in-flight
/// completions, so a cloned processor checkpoint resumes bit-identically.
#[derive(Debug, Clone)]
pub struct MemoryProcessor {
    queue: IssueQueue,
    fus: FunctionalUnits,
    /// Outstanding operand counts for instructions still waiting in the
    /// queue.
    pending: FastHashMap<u64, u8>,
    /// Issued instructions, due when their execution finishes.
    completions: EventQueue,
    /// Instructions currently inside the MP (inserted, not yet completed).
    occupancy: usize,
}

impl MemoryProcessor {
    /// Creates a Memory Processor from its configuration.
    #[must_use]
    pub fn new(config: &MemoryProcessorConfig) -> Self {
        MemoryProcessor {
            queue: IssueQueue::new(config.queue_capacity, config.sched),
            fus: FunctionalUnits::new(config.fu),
            pending: FastHashMap::default(),
            completions: EventQueue::new(),
            occupancy: 0,
        }
    }

    /// Whether another instruction can be inserted from the LLIB.
    #[must_use]
    pub fn has_space(&self) -> bool {
        self.queue.has_space()
    }

    /// Number of instructions currently inside the MP (waiting or
    /// executing).
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.occupancy
    }

    /// Starts a new cycle (refreshes functional-unit availability).
    pub fn begin_cycle(&mut self) {
        self.fus.begin_cycle();
    }

    /// Inserts an instruction with `unavailable` operands still missing.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full.
    pub fn insert(&mut self, seq: u64, class: OpClass, unavailable: u8) {
        self.queue.insert(seq, class, unavailable == 0);
        if unavailable > 0 {
            self.pending.insert(seq, unavailable);
        }
        self.occupancy += 1;
    }

    /// Satisfies one outstanding operand of `seq` (a load value arrived or
    /// an older MP instruction completed). Unknown sequence numbers are
    /// ignored.
    pub fn satisfy(&mut self, seq: u64) {
        if let Some(count) = self.pending.get_mut(&seq) {
            *count = count.saturating_sub(1);
            if *count == 0 {
                self.pending.remove(&seq);
                self.queue.mark_ready(seq);
            }
        }
    }

    /// Selects up to `width` ready instructions to start executing this
    /// cycle, honouring the scheduling policy, this MP's functional units
    /// and the shared Address Processor memory ports. Selected pairs are
    /// appended to `issued` (the caller reuses the buffer across cycles).
    pub fn select_into(
        &mut self,
        width: usize,
        ports: &mut MemPorts,
        issued: &mut Vec<(u64, OpClass)>,
    ) {
        self.queue.select_into(width, &mut self.fus, ports, issued);
    }

    /// Schedules the completion of an issued instruction.
    pub fn schedule_completion(&mut self, seq: u64, at_cycle: u64) {
        self.completions.push(at_cycle, seq);
    }

    /// The earliest future cycle (strictly after `now`) at which an issued
    /// instruction finishes executing in this MP, or `None` when nothing is
    /// executing.
    #[must_use]
    pub fn next_event(&self, now: u64) -> Option<u64> {
        self.completions.next_after(now)
    }

    /// Removes and returns the next instruction whose execution finishes
    /// at or before `now`, in completion order, or `None` once none is left.
    pub fn pop_completed(&mut self, now: u64) -> Option<u64> {
        let seq = self.completions.pop_due(now)?;
        self.occupancy -= 1;
        Some(seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkip_model::config::SchedPolicy;

    fn mp(sched: SchedPolicy, cap: usize) -> MemoryProcessor {
        let mut cfg = MemoryProcessorConfig::paper_default();
        cfg.sched = sched;
        cfg.queue_capacity = cap;
        MemoryProcessor::new(&cfg)
    }

    fn select(mp: &mut MemoryProcessor, width: usize, ports: &mut MemPorts) -> Vec<(u64, OpClass)> {
        let mut issued = Vec::new();
        mp.select_into(width, ports, &mut issued);
        issued
    }

    fn completed(mp: &mut MemoryProcessor, now: u64) -> Vec<u64> {
        std::iter::from_fn(|| mp.pop_completed(now)).collect()
    }

    #[test]
    fn ready_instructions_issue_and_complete() {
        let mut mp = mp(SchedPolicy::InOrder, 4);
        let mut ports = MemPorts::new(2);
        mp.insert(1, OpClass::FpAdd, 0);
        mp.insert(2, OpClass::FpAdd, 0);
        let issued = select(&mut mp, 4, &mut ports);
        assert_eq!(issued.len(), 2);
        mp.schedule_completion(1, 10);
        mp.schedule_completion(2, 12);
        assert!(completed(&mut mp, 9).is_empty());
        assert_eq!(completed(&mut mp, 12), vec![1, 2]);
        assert_eq!(mp.occupancy(), 0);
    }

    #[test]
    fn in_order_mp_blocks_behind_a_waiting_head() {
        let mut mp = mp(SchedPolicy::InOrder, 4);
        let mut ports = MemPorts::new(2);
        mp.insert(5, OpClass::IntAlu, 1);
        mp.insert(6, OpClass::IntAlu, 0);
        assert!(
            select(&mut mp, 4, &mut ports).is_empty(),
            "head is waiting for an operand"
        );
        mp.satisfy(5);
        let issued = select(&mut mp, 4, &mut ports);
        assert_eq!(issued.len(), 2, "both issue once the head is satisfied");
    }

    #[test]
    fn out_of_order_mp_bypasses_a_waiting_head() {
        let mut mp = mp(SchedPolicy::OutOfOrder, 4);
        let mut ports = MemPorts::new(2);
        mp.insert(5, OpClass::IntAlu, 2);
        mp.insert(6, OpClass::IntAlu, 0);
        let issued = select(&mut mp, 4, &mut ports);
        assert_eq!(issued, vec![(6, OpClass::IntAlu)]);
        mp.satisfy(5);
        assert!(
            select(&mut mp, 4, &mut ports).is_empty(),
            "still one operand missing"
        );
        mp.satisfy(5);
        assert_eq!(select(&mut mp, 4, &mut ports).len(), 1);
    }

    #[test]
    fn occupancy_counts_instructions_until_they_complete() {
        let mut mp = mp(SchedPolicy::InOrder, 8);
        for seq in 0..5 {
            mp.insert(seq, OpClass::FpMul, 0);
        }
        assert_eq!(mp.occupancy(), 5);
        let mut ports = MemPorts::new(2);
        let issued = select(&mut mp, 8, &mut ports);
        assert!(!issued.is_empty());
        assert_eq!(mp.occupancy(), 5, "executing instructions still count");
        for &(seq, _) in &issued {
            mp.schedule_completion(seq, 1);
        }
        assert_eq!(completed(&mut mp, 1).len(), issued.len());
        assert_eq!(mp.occupancy(), 5 - issued.len());
    }

    #[test]
    fn next_event_reports_the_earliest_completion() {
        let mut mp = mp(SchedPolicy::InOrder, 4);
        assert_eq!(mp.next_event(0), None);
        mp.insert(1, OpClass::FpAdd, 0);
        mp.schedule_completion(1, 9);
        assert_eq!(mp.next_event(0), Some(9));
        assert_eq!(mp.next_event(9), None, "events are strictly in the future");
    }

    #[test]
    fn satisfy_on_unknown_seq_is_harmless() {
        let mut mp = mp(SchedPolicy::InOrder, 2);
        mp.satisfy(99);
        assert_eq!(mp.occupancy(), 0);
    }
}
