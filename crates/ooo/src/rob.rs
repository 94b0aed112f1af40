//! The reorder buffer.
//!
//! In-flight instructions are stored in program order in a circular buffer
//! indexed by dynamic sequence number. Because the reproduction is trace
//! driven (wrong-path instructions are never injected) the buffer never
//! contains holes: entries enter at the tail at dispatch and leave from the
//! head at commit (or, in the Aging-ROB of the D-KIP, at Analyze).
//!
//! Per-instruction flags live in the [`RobEntry`] itself rather than in side
//! sets keyed by sequence number, and the buffer starts empty and grows with
//! occupancy: a kilo-instruction window pays only for what is in flight.

use dkip_model::{MicroOp, RegClass};
use std::collections::VecDeque;

/// The state of one in-flight instruction.
#[derive(Debug, Clone)]
pub struct RobEntry {
    /// The micro-op.
    pub op: MicroOp,
    /// Cycle at which the instruction was dispatched (renamed).
    pub dispatch_cycle: u64,
    /// Number of source operands still waiting for a producer.
    pub pending_srcs: u8,
    /// Whether the instruction has been issued to a functional unit.
    pub issued: bool,
    /// Whether the instruction has finished executing.
    pub completed: bool,
    /// For conditional branches: the direction predicted at fetch.
    pub predicted_taken: bool,
    /// For conditional branches: whether the prediction was wrong.
    pub mispredicted: bool,
    /// Which issue queue (by register class) the instruction was sent to.
    pub queue_class: RegClass,
    /// Cycle at which the instruction issued (for the Figure 3 histogram).
    pub issue_cycle: Option<u64>,
    /// A load that missed to main memory and whose value has not arrived
    /// yet (its dependants have low execution locality).
    pub long_latency: bool,
    /// Parked in the slow lane (WIB/SLIQ-style) instead of an issue queue,
    /// waiting on a long-latency producer.
    pub parked: bool,
}

impl RobEntry {
    /// Creates an entry for a freshly dispatched instruction.
    #[must_use]
    pub fn new(op: MicroOp, dispatch_cycle: u64, queue_class: RegClass) -> Self {
        RobEntry {
            op,
            dispatch_cycle,
            pending_srcs: 0,
            issued: false,
            completed: false,
            predicted_taken: false,
            mispredicted: false,
            queue_class,
            issue_cycle: None,
            long_latency: false,
            parked: false,
        }
    }
}

/// A reorder buffer holding in-flight instructions in program order.
#[derive(Debug, Clone)]
pub struct Rob {
    capacity: usize,
    head_seq: u64,
    entries: VecDeque<RobEntry>,
}

impl Rob {
    /// Creates a reorder buffer with room for `capacity` instructions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ROB capacity must be positive");
        Rob {
            capacity,
            head_seq: 0,
            entries: VecDeque::new(),
        }
    }

    /// Whether another instruction can be dispatched.
    #[must_use]
    pub fn has_space(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Number of in-flight instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The sequence number of the oldest in-flight instruction (the next to
    /// commit), if any.
    #[must_use]
    pub fn head_seq(&self) -> Option<u64> {
        if self.entries.is_empty() {
            None
        } else {
            Some(self.head_seq)
        }
    }

    /// Appends a dispatched instruction.
    ///
    /// An empty buffer adopts the entry's sequence number as the new head,
    /// so a reset core can pick up a stream mid-program (the sampled
    /// simulation mode fast-forwards the workload between detailed
    /// windows); once occupied, entries must stay dense.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full or, when it is non-empty, the sequence
    /// number is not the next expected one (entries must be pushed in
    /// program order).
    pub fn push(&mut self, entry: RobEntry) {
        assert!(self.has_space(), "ROB overflow");
        if self.entries.is_empty() {
            self.head_seq = entry.op.seq;
        } else {
            let expected = self.head_seq + self.entries.len() as u64;
            assert_eq!(
                entry.op.seq, expected,
                "ROB entries must be pushed in program order"
            );
        }
        self.entries.push_back(entry);
    }

    /// Looks up an in-flight instruction by sequence number.
    #[must_use]
    pub fn get(&self, seq: u64) -> Option<&RobEntry> {
        let idx = seq.checked_sub(self.head_seq)? as usize;
        self.entries.get(idx)
    }

    /// Mutable lookup by sequence number.
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut RobEntry> {
        let idx = seq.checked_sub(self.head_seq)? as usize;
        self.entries.get_mut(idx)
    }

    /// A reference to the oldest entry, if any.
    #[must_use]
    pub fn head(&self) -> Option<&RobEntry> {
        self.entries.front()
    }

    /// Removes and returns the oldest entry.
    pub fn pop_head(&mut self) -> Option<RobEntry> {
        let entry = self.entries.pop_front()?;
        self.head_seq += 1;
        Some(entry)
    }

    /// Iterates over the in-flight entries in program order.
    pub fn iter(&self) -> impl Iterator<Item = &RobEntry> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkip_model::{MicroOp, OpClass};

    fn entry(seq: u64) -> RobEntry {
        RobEntry::new(
            MicroOp::new(seq, 0x400 + seq * 4, OpClass::IntAlu),
            0,
            RegClass::Int,
        )
    }

    #[test]
    fn push_and_commit_in_program_order() {
        let mut rob = Rob::new(4);
        for seq in 0..4 {
            rob.push(entry(seq));
        }
        assert!(!rob.has_space());
        assert_eq!(rob.head_seq(), Some(0));
        let head = rob.pop_head().unwrap();
        assert_eq!(head.op.seq, 0);
        assert_eq!(rob.head_seq(), Some(1));
        assert!(rob.has_space());
    }

    #[test]
    fn lookup_by_sequence_number() {
        let mut rob = Rob::new(8);
        for seq in 0..5 {
            rob.push(entry(seq));
        }
        rob.pop_head();
        rob.pop_head();
        assert!(rob.get(0).is_none(), "committed entries are gone");
        assert!(rob.get(1).is_none());
        assert_eq!(rob.get(3).unwrap().op.seq, 3);
        rob.get_mut(4).unwrap().completed = true;
        assert!(rob.get(4).unwrap().completed);
        assert!(rob.get(100).is_none());
    }

    #[test]
    #[should_panic(expected = "program order")]
    fn out_of_order_push_panics() {
        let mut rob = Rob::new(4);
        rob.push(entry(0));
        rob.push(entry(2));
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut rob = Rob::new(1);
        rob.push(entry(0));
        rob.push(entry(1));
    }

    #[test]
    fn iteration_preserves_order() {
        let mut rob = Rob::new(8);
        for seq in 0..6 {
            rob.push(entry(seq));
        }
        let seqs: Vec<u64> = rob.iter().map(|e| e.op.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn empty_rob_reports_no_head() {
        let mut rob = Rob::new(2);
        assert!(rob.head_seq().is_none());
        assert!(rob.pop_head().is_none());
        assert!(rob.is_empty());
    }
}
