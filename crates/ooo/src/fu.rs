//! Functional-unit pools and memory-port tracking.

use dkip_model::config::FuConfig;
use dkip_model::FuPool;

/// Per-cycle tracker of functional-unit availability.
///
/// Every pool may start `count` operations per cycle (fully pipelined
/// units); [`begin_cycle`](FunctionalUnits::begin_cycle) resets the budget.
#[derive(Debug, Clone)]
pub struct FunctionalUnits {
    config: FuConfig,
    available: [usize; 4],
}

impl FunctionalUnits {
    /// Creates the tracker from a pool configuration.
    #[must_use]
    pub fn new(config: FuConfig) -> Self {
        let mut fus = FunctionalUnits {
            config,
            available: [0; 4],
        };
        fus.begin_cycle();
        fus
    }

    /// Resets per-cycle availability; call once at the start of each cycle.
    pub fn begin_cycle(&mut self) {
        self.available = [
            self.config.int_alu,
            self.config.int_mul,
            self.config.fp_add,
            self.config.fp_mul_div,
        ];
    }

    /// Consumes one unit of `pool` for this cycle; returns `false` without
    /// consuming anything if the pool is exhausted.
    pub fn try_issue(&mut self, pool: FuPool) -> bool {
        let slot = &mut self.available[pool.index()];
        if *slot > 0 {
            *slot -= 1;
            true
        } else {
            false
        }
    }
}

/// Per-cycle tracker of the Address Processor's global memory ports.
#[derive(Debug, Clone)]
pub struct MemPorts {
    ports: usize,
    available: usize,
}

impl MemPorts {
    /// Creates a tracker with `ports` read/write ports.
    #[must_use]
    pub fn new(ports: usize) -> Self {
        MemPorts {
            ports,
            available: ports,
        }
    }

    /// Resets per-cycle availability; call once at the start of each cycle.
    pub fn begin_cycle(&mut self) {
        self.available = self.ports;
    }

    /// Consumes one port; returns `false` without consuming if exhausted.
    pub fn try_issue(&mut self) -> bool {
        if self.available > 0 {
            self.available -= 1;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_budgets_reset_each_cycle() {
        let mut fus = FunctionalUnits::new(FuConfig::paper_default());
        assert!(fus.try_issue(FuPool::IntMul));
        assert!(
            !fus.try_issue(FuPool::IntMul),
            "only one integer multiplier"
        );
        fus.begin_cycle();
        assert!(fus.try_issue(FuPool::IntMul));
    }

    #[test]
    fn alu_pool_allows_four_per_cycle() {
        let mut fus = FunctionalUnits::new(FuConfig::paper_default());
        for _ in 0..4 {
            assert!(fus.try_issue(FuPool::IntAlu));
        }
        assert!(!fus.try_issue(FuPool::IntAlu));
    }

    #[test]
    fn pools_are_independent() {
        let mut fus = FunctionalUnits::new(FuConfig::paper_default());
        while fus.try_issue(FuPool::FpAdd) {}
        assert!(fus.try_issue(FuPool::FpMulDiv));
        assert!(fus.try_issue(FuPool::IntAlu));
    }

    #[test]
    fn mem_ports_limit_per_cycle_accesses() {
        let mut ports = MemPorts::new(2);
        assert!(ports.try_issue());
        assert!(ports.try_issue());
        assert!(!ports.try_issue());
        ports.begin_cycle();
        assert!(ports.try_issue());
    }
}
