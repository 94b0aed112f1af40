//! The Low-Locality Instruction Buffer (LLIB).
//!
//! The LLIB is a simple FIFO (no issue capability, no CAM) holding the
//! instructions the Analyze stage classified as low execution locality,
//! together with bookkeeping about their sources: whether the READY operand
//! holds an LLRF register, and the low-locality producer (a long-latency
//! load or an older low-locality instruction) of each other operand. There
//! is one LLIB for integer and one for floating-point instructions.

use crate::llbv::LowLocalityWriter;
use dkip_model::MicroOp;
use std::collections::VecDeque;

/// One instruction parked in the LLIB.
#[derive(Debug, Clone)]
pub struct LlibEntry {
    /// The parked micro-op.
    pub op: MicroOp,
    /// The low-locality producer of each source (parallel to `op.srcs`),
    /// copied from the LLBV at Analyze; `None` for a source that was READY
    /// or is absent.
    pub writers: [Option<LowLocalityWriter>; 2],
    /// Whether the READY operand holds an LLRF register.
    pub llrf: bool,
}

impl LlibEntry {
    /// The long-latency load (if any) the *oldest unresolved* source waits
    /// for. Used by the LLIB→MP transfer rule of the paper: the head may
    /// only move to the Memory Processor once that load has completed.
    #[must_use]
    pub fn blocking_load(&self) -> Option<u64> {
        self.writers.iter().flatten().find_map(|w| match *w {
            LowLocalityWriter::Load(seq) => Some(seq),
            LowLocalityWriter::MpInstr(_) => None,
        })
    }
}

/// A FIFO buffer of low-locality instructions.
#[derive(Debug, Clone)]
pub struct Llib {
    capacity: usize,
    entries: VecDeque<LlibEntry>,
    peak: usize,
}

impl Llib {
    /// Creates an LLIB with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LLIB capacity must be positive");
        Llib {
            capacity,
            entries: VecDeque::new(),
            peak: 0,
        }
    }

    /// Whether another instruction can be inserted.
    #[must_use]
    pub fn has_space(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Number of parked instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Peak occupancy in instructions (Figures 13/14).
    #[must_use]
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Inserts an instruction at the tail.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full (callers must check
    /// [`has_space`](Self::has_space) — the Analyze stage stalls instead).
    pub fn push(&mut self, entry: LlibEntry) {
        assert!(self.has_space(), "LLIB overflow");
        self.entries.push_back(entry);
        self.peak = self.peak.max(self.entries.len());
    }

    /// A reference to the oldest parked instruction.
    #[must_use]
    pub fn head(&self) -> Option<&LlibEntry> {
        self.entries.front()
    }

    /// Removes and returns the oldest parked instruction.
    pub fn pop(&mut self) -> Option<LlibEntry> {
        self.entries.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkip_model::{ArchReg, OpClass};

    fn entry(seq: u64) -> LlibEntry {
        LlibEntry {
            op: MicroOp::new(seq, 0x400, OpClass::FpAdd)
                .with_dst(ArchReg::fp(1))
                .with_src(ArchReg::fp(2)),
            writers: [Some(LowLocalityWriter::Load(seq.saturating_sub(1))), None],
            llrf: false,
        }
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut llib = Llib::new(8);
        for seq in 0..5 {
            llib.push(entry(seq));
        }
        assert_eq!(llib.len(), 5);
        for seq in 0..5 {
            assert_eq!(llib.pop().unwrap().op.seq, seq);
        }
        assert!(llib.is_empty());
    }

    #[test]
    fn peak_is_tracked() {
        let mut llib = Llib::new(8);
        for seq in 0..6 {
            llib.push(entry(seq));
        }
        for _ in 0..4 {
            llib.pop();
        }
        llib.push(entry(10));
        assert_eq!(llib.peak(), 6);
        assert_eq!(llib.len(), 3);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut llib = Llib::new(1);
        llib.push(entry(0));
        llib.push(entry(1));
    }

    #[test]
    fn blocking_load_reports_the_waited_on_load() {
        let e = entry(7);
        assert_eq!(e.blocking_load(), Some(6));
        let mut ready = entry(3);
        ready.writers = [None, Some(LowLocalityWriter::MpInstr(1))];
        assert_eq!(ready.blocking_load(), None);
    }
}
