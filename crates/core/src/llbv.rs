//! The Low-Locality Bit Vector (LLBV) and the Architectural Writers Log
//! (AWL).
//!
//! The LLBV has one bit per architectural register: the bit is set while the
//! latest (in program order, as seen by the in-order Analyze stage) writer
//! of that register is a long-latency event — a load serviced by main
//! memory, or an instruction that itself was classified as low locality.
//! The AWL remembers *which* low-locality producer wrote the register, so
//! that instructions entering the Memory Processor know what they are
//! waiting for.

use dkip_model::{ArchReg, TOTAL_ARCH_REGS};

/// Identifies the low-locality producer of a register value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LowLocalityWriter {
    /// The value is produced by a long-latency load executed by the Address
    /// Processor; the payload is the load's sequence number.
    Load(u64),
    /// The value is produced by an instruction sent to the LLIB / Memory
    /// Processor; the payload is that instruction's sequence number.
    MpInstr(u64),
}

impl LowLocalityWriter {
    /// The producer's sequence number.
    #[must_use]
    pub fn seq(self) -> u64 {
        match self {
            LowLocalityWriter::Load(seq) | LowLocalityWriter::MpInstr(seq) => seq,
        }
    }
}

/// The LLBV plus its associated writers log. A register's bit is set
/// exactly when it has a low-locality writer, so the writers log is the
/// only state kept per register.
#[derive(Debug, Clone)]
pub struct Llbv {
    writers: [Option<LowLocalityWriter>; TOTAL_ARCH_REGS],
    marked: usize,
}

impl Llbv {
    /// Creates an all-clear bit vector.
    #[must_use]
    pub fn new() -> Self {
        Llbv {
            writers: [None; TOTAL_ARCH_REGS],
            marked: 0,
        }
    }

    /// Marks `reg` as long latency, produced by `writer`.
    pub fn mark(&mut self, reg: ArchReg, writer: LowLocalityWriter) {
        let slot = &mut self.writers[reg.flat_index()];
        if slot.is_none() {
            self.marked += 1;
        }
        *slot = Some(writer);
    }

    /// Clears `reg` (a short-latency instruction redefined it).
    pub fn clear(&mut self, reg: ArchReg) {
        if self.writers[reg.flat_index()].take().is_some() {
            self.marked -= 1;
        }
    }

    /// Whether `reg` currently holds a long-latency value.
    #[must_use]
    pub fn is_long_latency(&self, reg: ArchReg) -> bool {
        self.writers[reg.flat_index()].is_some()
    }

    /// The low-locality writer of `reg`, if the register is marked.
    #[must_use]
    pub fn writer(&self, reg: ArchReg) -> Option<LowLocalityWriter> {
        self.writers[reg.flat_index()]
    }

    /// Number of registers currently marked long latency.
    #[must_use]
    pub fn marked_count(&self) -> usize {
        self.marked
    }
}

impl Default for Llbv {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_and_clear_round_trip() {
        let mut llbv = Llbv::new();
        let r5 = ArchReg::int(5);
        assert!(!llbv.is_long_latency(r5));
        llbv.mark(r5, LowLocalityWriter::Load(42));
        assert!(llbv.is_long_latency(r5));
        assert_eq!(llbv.writer(r5), Some(LowLocalityWriter::Load(42)));
        assert_eq!(llbv.marked_count(), 1);
        llbv.clear(r5);
        assert!(!llbv.is_long_latency(r5));
        assert_eq!(llbv.marked_count(), 0);
        assert_eq!(llbv.writer(r5), None);
    }

    #[test]
    fn int_and_fp_registers_are_independent() {
        let mut llbv = Llbv::new();
        llbv.mark(ArchReg::int(3), LowLocalityWriter::Load(1));
        assert!(!llbv.is_long_latency(ArchReg::fp(3)));
    }

    #[test]
    fn double_mark_does_not_double_count() {
        let mut llbv = Llbv::new();
        llbv.mark(ArchReg::fp(1), LowLocalityWriter::Load(1));
        llbv.mark(ArchReg::fp(1), LowLocalityWriter::MpInstr(9));
        assert_eq!(llbv.marked_count(), 1);
        assert_eq!(
            llbv.writer(ArchReg::fp(1)),
            Some(LowLocalityWriter::MpInstr(9))
        );
        llbv.clear(ArchReg::fp(1));
        llbv.clear(ArchReg::fp(1));
        assert_eq!(llbv.marked_count(), 0);
    }
}
