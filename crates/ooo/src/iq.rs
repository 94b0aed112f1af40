//! Issue queues with in-order and out-of-order scheduling policies.
//!
//! The queue is the hottest structure of the cycle loop: every core family
//! consults it every cycle. It is therefore stored as a single `Vec` of
//! slots kept sorted by sequence number (age order), with the ready flag
//! inline — a contiguous scoreboard the selection loop scans front-to-back
//! instead of walking a `BTreeMap`. Capacities are small (the paper's
//! queues hold 20–72 entries), so sorted-insert and compacting removal are
//! cheap, and [`IssueQueue::select_into`] lets callers reuse one selection
//! buffer across cycles so steady-state selection performs no heap
//! allocation at all.

use crate::fu::{FunctionalUnits, MemPorts};
use dkip_model::config::SchedPolicy;
use dkip_model::OpClass;

/// One waiting instruction in an issue queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IqSlot {
    seq: u64,
    class: OpClass,
    ready: bool,
}

/// An issue queue holding dispatched-but-not-yet-issued instructions.
///
/// Entries are identified by their dynamic sequence number; age order is the
/// sequence-number order. The queue supports the two scheduling policies of
/// the paper's Table 3: `OutOfOrder` (any ready instruction may issue,
/// oldest first) and `InOrder` (issue stops at the first non-ready or
/// non-issuable entry).
#[derive(Debug, Clone)]
pub struct IssueQueue {
    capacity: usize,
    policy: SchedPolicy,
    /// Slots sorted by sequence number (oldest first).
    slots: Vec<IqSlot>,
    /// Number of slots with `ready == true`; lets selection skip the scan
    /// entirely on (frequent) cycles where nothing can issue.
    ready_count: usize,
}

impl IssueQueue {
    /// Creates an issue queue with the given capacity and policy.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize, policy: SchedPolicy) -> Self {
        assert!(capacity > 0, "issue queue capacity must be positive");
        IssueQueue {
            capacity,
            policy,
            slots: Vec::new(),
            ready_count: 0,
        }
    }

    /// Number of instructions currently waiting.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Whether another instruction can be dispatched into the queue.
    #[must_use]
    pub fn has_space(&self) -> bool {
        self.slots.len() < self.capacity
    }

    /// The insertion point keeping `slots` sorted by seq: `Ok(idx)` when the
    /// seq is already present, `Err(idx)` otherwise. Dispatch inserts in
    /// program order (append), so probe the tail before binary-searching.
    fn position(&self, seq: u64) -> Result<usize, usize> {
        match self.slots.last() {
            None => Err(0),
            Some(last) if last.seq < seq => Err(self.slots.len()),
            _ => self.slots.binary_search_by_key(&seq, |slot| slot.seq),
        }
    }

    /// Dispatches instruction `seq` into the queue.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full or the sequence number is already
    /// present.
    pub fn insert(&mut self, seq: u64, class: OpClass, ready: bool) {
        assert!(self.has_space(), "issue queue overflow");
        match self.position(seq) {
            Ok(_) => panic!("sequence number {seq} already in issue queue"),
            Err(idx) => self.slots.insert(idx, IqSlot { seq, class, ready }),
        }
        self.ready_count += usize::from(ready);
    }

    /// Marks instruction `seq` as having all sources available. Unknown
    /// sequence numbers are ignored (the instruction may have been squashed
    /// or moved elsewhere).
    pub fn mark_ready(&mut self, seq: u64) {
        if let Ok(idx) = self.position(seq) {
            self.ready_count += usize::from(!self.slots[idx].ready);
            self.slots[idx].ready = true;
        }
    }

    /// Removes instruction `seq` without issuing it (used when an
    /// instruction is reclassified, e.g. moved to a slow lane or an LLIB).
    pub fn remove(&mut self, seq: u64) -> bool {
        match self.position(seq) {
            Ok(idx) => {
                self.ready_count -= usize::from(self.slots[idx].ready);
                self.slots.remove(idx);
                true
            }
            Err(_) => false,
        }
    }

    /// Selects up to `max_issue` instructions to issue this cycle, consuming
    /// functional units / memory ports, removes them from the queue, and
    /// appends the selected `(seq, class)` pairs — oldest first — to
    /// `issued`. The caller owns (and reuses) the output buffer.
    pub fn select_into(
        &mut self,
        max_issue: usize,
        fus: &mut FunctionalUnits,
        ports: &mut MemPorts,
        issued: &mut Vec<(u64, OpClass)>,
    ) {
        if max_issue == 0 || self.ready_count == 0 {
            return;
        }
        let mut taken = 0usize;
        match self.policy {
            SchedPolicy::OutOfOrder => {
                // Walk age order, skipping non-ready and resource-blocked
                // entries; compact survivors in place (stable, single pass).
                // The scan stops as soon as no further issue is possible —
                // the width is filled or every ready entry has been
                // considered — and the untouched tail is bulk-shifted over
                // the gap left by the issued entries.
                let len = self.slots.len();
                let mut write = 0usize;
                let mut read = 0usize;
                let mut ready_seen = 0usize;
                while read < len {
                    if taken == max_issue || ready_seen == self.ready_count {
                        break;
                    }
                    let slot = self.slots[read];
                    ready_seen += usize::from(slot.ready);
                    if slot.ready && Self::acquire_resources(slot.class, fus, ports) {
                        issued.push((slot.seq, slot.class));
                        taken += 1;
                    } else {
                        self.slots[write] = slot;
                        write += 1;
                    }
                    read += 1;
                }
                if taken > 0 && read < len {
                    self.slots.copy_within(read..len, write);
                }
                self.slots.truncate(len - taken);
            }
            SchedPolicy::InOrder => {
                // Strict in-order issue: walk from the oldest entry and stop
                // at the first instruction that is not ready or cannot get
                // its resources.
                while taken < max_issue {
                    let Some(&slot) = self.slots.get(taken) else {
                        break;
                    };
                    if !slot.ready || !Self::acquire_resources(slot.class, fus, ports) {
                        break;
                    }
                    issued.push((slot.seq, slot.class));
                    taken += 1;
                }
                self.slots.drain(..taken);
            }
        }
        self.ready_count -= taken;
    }

    fn acquire_resources(class: OpClass, fus: &mut FunctionalUnits, ports: &mut MemPorts) -> bool {
        if class.is_mem() {
            ports.try_issue()
        } else if let Some(pool) = class.fu_pool() {
            fus.try_issue(pool)
        } else {
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkip_model::config::FuConfig;

    fn resources() -> (FunctionalUnits, MemPorts) {
        (
            FunctionalUnits::new(FuConfig::paper_default()),
            MemPorts::new(2),
        )
    }

    fn select(
        iq: &mut IssueQueue,
        max_issue: usize,
        fus: &mut FunctionalUnits,
        ports: &mut MemPorts,
    ) -> Vec<(u64, OpClass)> {
        let mut issued = Vec::new();
        iq.select_into(max_issue, fus, ports, &mut issued);
        issued
    }

    #[test]
    fn ooo_selects_oldest_ready_first() {
        let mut iq = IssueQueue::new(8, SchedPolicy::OutOfOrder);
        iq.insert(10, OpClass::IntAlu, false);
        iq.insert(11, OpClass::IntAlu, true);
        iq.insert(12, OpClass::IntAlu, true);
        let (mut fus, mut ports) = resources();
        let issued = select(&mut iq, 1, &mut fus, &mut ports);
        assert_eq!(issued, vec![(11, OpClass::IntAlu)]);
        assert!(iq.remove(10));
        assert!(iq.remove(12));
    }

    #[test]
    fn ooo_skips_blocked_instructions() {
        // Two FP divides but only one FP mul/div unit: the second divide is
        // skipped and a younger ALU op issues instead.
        let mut iq = IssueQueue::new(8, SchedPolicy::OutOfOrder);
        iq.insert(1, OpClass::FpDiv, true);
        iq.insert(2, OpClass::FpDiv, true);
        iq.insert(3, OpClass::IntAlu, true);
        let (mut fus, mut ports) = resources();
        let issued = select(&mut iq, 4, &mut fus, &mut ports);
        assert_eq!(issued, vec![(1, OpClass::FpDiv), (3, OpClass::IntAlu)]);
        assert!(iq.remove(2));
    }

    #[test]
    fn in_order_stalls_at_first_unready_entry() {
        let mut iq = IssueQueue::new(8, SchedPolicy::InOrder);
        iq.insert(1, OpClass::IntAlu, false);
        iq.insert(2, OpClass::IntAlu, true);
        let (mut fus, mut ports) = resources();
        assert!(select(&mut iq, 4, &mut fus, &mut ports).is_empty());
        iq.mark_ready(1);
        let issued = select(&mut iq, 4, &mut fus, &mut ports);
        assert_eq!(
            issued.len(),
            2,
            "once the head is ready both issue in order"
        );
        assert_eq!(issued[0].0, 1);
        assert_eq!(issued[1].0, 2);
    }

    #[test]
    fn in_order_stalls_when_resources_run_out() {
        let mut iq = IssueQueue::new(8, SchedPolicy::InOrder);
        iq.insert(1, OpClass::IntMul, true);
        iq.insert(2, OpClass::IntMul, true);
        iq.insert(3, OpClass::IntAlu, true);
        let (mut fus, mut ports) = resources();
        let issued = select(&mut iq, 4, &mut fus, &mut ports);
        assert_eq!(
            issued,
            vec![(1, OpClass::IntMul)],
            "second multiply blocks the head"
        );
    }

    #[test]
    fn memory_ops_consume_ports_not_fus() {
        let mut iq = IssueQueue::new(8, SchedPolicy::OutOfOrder);
        iq.insert(1, OpClass::Load, true);
        iq.insert(2, OpClass::Load, true);
        iq.insert(3, OpClass::Load, true);
        let (mut fus, mut ports) = resources();
        let issued = select(&mut iq, 4, &mut fus, &mut ports);
        assert_eq!(issued.len(), 2, "only two memory ports");
        assert!(fus.try_issue(dkip_model::FuPool::IntAlu));
    }

    #[test]
    fn issue_width_bounds_selection() {
        let mut iq = IssueQueue::new(16, SchedPolicy::OutOfOrder);
        for seq in 0..8 {
            iq.insert(seq, OpClass::IntAlu, true);
        }
        let (mut fus, mut ports) = resources();
        let issued = select(&mut iq, 2, &mut fus, &mut ports);
        assert_eq!(issued.len(), 2);
        assert_eq!(iq.len(), 6);
    }

    #[test]
    fn select_into_appends_to_a_reused_buffer() {
        let mut iq = IssueQueue::new(8, SchedPolicy::OutOfOrder);
        iq.insert(1, OpClass::IntAlu, true);
        iq.insert(2, OpClass::IntAlu, true);
        let (mut fus, mut ports) = resources();
        let mut buffer = vec![(99, OpClass::Load)];
        iq.select_into(1, &mut fus, &mut ports, &mut buffer);
        assert_eq!(buffer, vec![(99, OpClass::Load), (1, OpClass::IntAlu)]);
    }

    #[test]
    fn out_of_order_insertion_keeps_age_order() {
        // Slow-lane reinsertion can insert an *older* seq after younger ones
        // were dispatched; selection must still be oldest-first.
        let mut iq = IssueQueue::new(8, SchedPolicy::OutOfOrder);
        iq.insert(20, OpClass::IntAlu, true);
        iq.insert(5, OpClass::IntAlu, true);
        iq.insert(12, OpClass::IntAlu, true);
        let (mut fus, mut ports) = resources();
        let issued = select(&mut iq, 3, &mut fus, &mut ports);
        assert_eq!(
            issued.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![5, 12, 20],
            "selection follows age order regardless of insertion order"
        );
    }

    #[test]
    fn capacity_is_enforced() {
        let mut iq = IssueQueue::new(2, SchedPolicy::OutOfOrder);
        assert!(iq.has_space());
        iq.insert(1, OpClass::IntAlu, true);
        iq.insert(2, OpClass::IntAlu, true);
        assert!(!iq.has_space());
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn inserting_into_a_full_queue_panics() {
        let mut iq = IssueQueue::new(1, SchedPolicy::OutOfOrder);
        iq.insert(1, OpClass::IntAlu, true);
        iq.insert(2, OpClass::IntAlu, true);
    }

    #[test]
    #[should_panic(expected = "already in issue queue")]
    fn duplicate_sequence_numbers_panic() {
        let mut iq = IssueQueue::new(4, SchedPolicy::OutOfOrder);
        iq.insert(1, OpClass::IntAlu, true);
        iq.insert(1, OpClass::IntAlu, false);
    }

    #[test]
    fn remove_and_mark_ready_on_missing_entries_are_harmless() {
        let mut iq = IssueQueue::new(4, SchedPolicy::OutOfOrder);
        assert!(!iq.remove(42));
        iq.mark_ready(42);
        assert!(iq.is_empty());
    }
}
