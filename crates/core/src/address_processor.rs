//! The Address Processor (AP).
//!
//! The Address Processor owns the load/store queue, the global memory ports
//! and the memory hierarchy; both the Cache Processor and the Memory
//! Processors perform their memory accesses through it (Section 3.3 of the
//! paper describes the LSQ as decoupled, in the spirit of decoupled
//! access-execute architectures). It also times the long-latency loads:
//! when a load that missed to main memory completes, its value enters the
//! load-value FIFO and [`AddressProcessor::begin_cycle_into`] reports its
//! arrival. The processor decides whether a value is available from which
//! loads are still outstanding in its low-locality metadata.

use dkip_mem::{AccessOutcome, MemStats, MemoryHierarchy};
use dkip_model::config::AddressProcessorConfig;
use dkip_ooo::{Lsq, MemPorts};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The Address Processor.
///
/// `Clone` deep-copies the LSQ, ports, memory hierarchy and in-flight
/// load bookkeeping, so a cloned processor checkpoint resumes
/// bit-identically.
#[derive(Debug, Clone)]
pub struct AddressProcessor {
    lsq: Lsq,
    ports: MemPorts,
    mem: MemoryHierarchy,
    /// Long-latency loads in flight: (completion cycle, load seq).
    pending_loads: BinaryHeap<Reverse<(u64, u64)>>,
    total_long_latency_loads: u64,
}

impl AddressProcessor {
    /// Creates an Address Processor over a memory hierarchy.
    #[must_use]
    pub fn new(config: &AddressProcessorConfig, mem: MemoryHierarchy) -> Self {
        AddressProcessor {
            lsq: Lsq::new(config.lsq_capacity),
            ports: MemPorts::new(config.memory_ports),
            mem,
            pending_loads: BinaryHeap::new(),
            total_long_latency_loads: 0,
        }
    }

    /// Starts a new cycle: refreshes the memory ports and appends the
    /// long-latency loads whose data arrives this cycle to `arrived` (their
    /// values enter the load-value FIFO). The caller reuses the buffer
    /// across cycles.
    pub fn begin_cycle_into(&mut self, now: u64, arrived: &mut Vec<u64>) {
        self.ports.begin_cycle();
        while let Some(&Reverse((cycle, seq))) = self.pending_loads.peek() {
            if cycle > now {
                break;
            }
            self.pending_loads.pop();
            arrived.push(seq);
        }
    }

    /// Allocating convenience form of [`AddressProcessor::begin_cycle_into`].
    pub fn begin_cycle(&mut self, now: u64) -> Vec<u64> {
        let mut arrived = Vec::new();
        self.begin_cycle_into(now, &mut arrived);
        arrived
    }

    /// The shared memory ports (consumed by the CP issue stage and the MPs).
    pub fn ports_mut(&mut self) -> &mut MemPorts {
        &mut self.ports
    }

    /// The load/store queue.
    pub fn lsq_mut(&mut self) -> &mut Lsq {
        &mut self.lsq
    }

    /// Immutable access to the load/store queue.
    #[must_use]
    pub fn lsq(&self) -> &Lsq {
        &self.lsq
    }

    /// Performs a timing access against the hierarchy.
    pub fn access(&mut self, addr: u64, is_write: bool, now: u64) -> AccessOutcome {
        self.mem.access(addr, is_write, now)
    }

    /// Performs a functional (timing-free) cache-warming access; see
    /// [`MemoryHierarchy::warm_access`].
    pub fn warm_access(&mut self, addr: u64, is_write: bool) {
        self.mem.warm_access(addr, is_write);
    }

    /// Registers a load whose miss is being serviced by main memory; its
    /// value becomes available at `completes_at`.
    pub fn register_long_latency_load(&mut self, seq: u64, completes_at: u64) {
        self.total_long_latency_loads += 1;
        self.pending_loads.push(Reverse((completes_at, seq)));
    }

    /// The earliest future cycle (strictly after `now`) at which the AP's
    /// state can change on its own: the next long-latency load-value
    /// arrival or the next outstanding cache fill. `None` when nothing is
    /// in flight.
    pub fn next_event(&mut self, now: u64) -> Option<u64> {
        let arrival = self
            .pending_loads
            .peek()
            .map(|&Reverse((cycle, _))| cycle)
            .filter(|&cycle| cycle > now);
        match (arrival, self.mem.next_event(now)) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Number of long-latency loads handled by the AP so far.
    #[must_use]
    pub fn total_long_latency_loads(&self) -> u64 {
        self.total_long_latency_loads
    }

    /// Memory-hierarchy statistics.
    #[must_use]
    pub fn mem_stats(&self) -> MemStats {
        self.mem.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkip_mem::AccessLevel;
    use dkip_model::config::MemoryHierarchyConfig;

    fn ap() -> AddressProcessor {
        let mem = MemoryHierarchy::new(MemoryHierarchyConfig::mem_400()).unwrap();
        AddressProcessor::new(&AddressProcessorConfig::paper_default(), mem)
    }

    #[test]
    fn long_latency_loads_become_available_at_their_completion_cycle() {
        let mut ap = ap();
        ap.register_long_latency_load(7, 500);
        assert!(ap.begin_cycle(499).is_empty());
        let arrived = ap.begin_cycle(500);
        assert_eq!(arrived, vec![7]);
        assert!(ap.begin_cycle(501).is_empty(), "a value arrives once");
        assert_eq!(ap.total_long_latency_loads(), 1);
    }

    #[test]
    fn accesses_go_through_the_hierarchy() {
        let mut ap = ap();
        let outcome = ap.access(0xdead_0000, false, 0);
        assert_eq!(outcome.level, AccessLevel::Memory);
        let again = ap.access(0xdead_0000, false, outcome.latency + 1);
        assert_eq!(again.level, AccessLevel::L1);
        assert!(ap.mem_stats().total() == 2);
    }

    #[test]
    fn ports_are_limited_per_cycle() {
        let mut ap = ap();
        ap.begin_cycle(0);
        assert!(ap.ports_mut().try_issue());
        assert!(ap.ports_mut().try_issue());
        assert!(
            !ap.ports_mut().try_issue(),
            "Table 2: two global memory ports"
        );
        ap.begin_cycle(1);
        assert!(ap.ports_mut().try_issue());
    }

    #[test]
    fn next_event_tracks_pending_loads_and_fills() {
        let mut ap = ap();
        assert_eq!(ap.next_event(0), None);
        ap.register_long_latency_load(7, 500);
        assert_eq!(ap.next_event(0), Some(500));
        // An outstanding hierarchy fill completing earlier wins.
        let outcome = ap.access(0xbeef_0000, false, 10);
        assert_eq!(ap.next_event(10), Some(10 + outcome.latency));
        // Once the fill expires only the load-value arrival remains, and an
        // event is always strictly in the future.
        assert_eq!(ap.next_event(499), Some(500));
        assert_eq!(ap.next_event(500), None);
    }

    #[test]
    fn lsq_is_exposed_for_dispatch_and_retire() {
        let mut ap = ap();
        assert_eq!(ap.lsq().capacity(), 512);
        ap.lsq_mut().dispatch_load(1);
        assert_eq!(ap.lsq().occupancy(), 1);
        ap.lsq_mut().retire_load(1);
        assert_eq!(ap.lsq().occupancy(), 0);
    }
}
