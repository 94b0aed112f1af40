//! The Low-Locality Register File (LLRF).
//!
//! The LLRF stores the READY operand (at most one per instruction — an
//! Alpha-ISA property the paper relies on) of each instruction parked in the
//! LLIB. The paper organises it as single-ported banks. Banks are not
//! modelled here because banking has no timing effect: the LLIB is a FIFO,
//! so insertion and extraction touch disjoint groups of banks, and the
//! configuration check `llrf_banks >= insertion_rate + extraction_rate`
//! guarantees there are enough banks for both, so no port conflict arises.
//! An allocation can then fail only when every register is taken, whatever
//! bank it would have used. The model is a count of allocated registers
//! against the total capacity, with the peak occupancy reported in Figures
//! 13 and 14.

use dkip_model::config::LlibConfig;

/// The READY-operand register file of one register class's LLIB.
#[derive(Debug, Clone)]
pub struct Llrf {
    capacity: usize,
    occupied: usize,
    peak: usize,
}

impl Llrf {
    /// Creates an LLRF of `llrf_banks × llrf_regs_per_bank` registers from
    /// the LLIB configuration.
    #[must_use]
    pub fn new(config: &LlibConfig) -> Self {
        Llrf {
            capacity: config.llrf_banks * config.llrf_regs_per_bank,
            occupied: 0,
            peak: 0,
        }
    }

    /// Total register capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Registers currently allocated.
    #[must_use]
    pub fn occupied(&self) -> usize {
        self.occupied
    }

    /// Peak number of simultaneously allocated registers.
    #[must_use]
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Allocates one register. Returns `false`, allocating nothing, when
    /// every register is taken.
    pub fn allocate(&mut self) -> bool {
        if self.occupied == self.capacity {
            return false;
        }
        self.occupied += 1;
        self.peak = self.peak.max(self.occupied);
        true
    }

    /// Frees a previously allocated register (its value has been read into
    /// the Memory Processor's Future File).
    ///
    /// # Panics
    ///
    /// Panics if no register is allocated.
    pub fn free(&mut self) {
        assert!(self.occupied > 0, "freeing an empty LLRF");
        self.occupied -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> LlibConfig {
        LlibConfig {
            capacity: 64,
            insertion_rate: 4,
            extraction_rate: 4,
            llrf_banks: 8,
            llrf_regs_per_bank: 2,
        }
    }

    #[test]
    fn capacity_and_peak_tracking() {
        let mut llrf = Llrf::new(&small());
        assert_eq!(llrf.capacity(), 16);
        for _ in 0..16 {
            assert!(llrf.allocate());
        }
        assert!(!llrf.allocate());
        assert_eq!(llrf.occupied(), 16);
        assert_eq!(llrf.peak(), 16);
        for _ in 0..16 {
            llrf.free();
        }
        assert_eq!(llrf.occupied(), 0);
        assert_eq!(llrf.peak(), 16, "peak is sticky");
        assert!(llrf.allocate());
    }

    #[test]
    fn paper_default_capacity_matches_table_2() {
        let llrf = Llrf::new(&LlibConfig::paper_default());
        assert_eq!(llrf.capacity(), 8 * 256);
    }

    #[test]
    #[should_panic(expected = "empty LLRF")]
    fn double_free_panics() {
        let mut llrf = Llrf::new(&small());
        assert!(llrf.allocate());
        llrf.free();
        llrf.free();
    }
}
