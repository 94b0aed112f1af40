//! The Address Processor (AP).
//!
//! The Address Processor owns the load/store queue, the global memory ports
//! and the memory hierarchy; both the Cache Processor and the Memory
//! Processors perform their memory accesses through it (Section 3.3 of the
//! paper describes the LSQ as decoupled, in the spirit of decoupled
//! access-execute architectures). It also times the long-latency loads:
//! when a load that missed to main memory completes, its value enters the
//! load-value FIFO and [`AddressProcessor::pop_arrival`] reports its
//! arrival. The processor decides whether a value is available from which
//! loads are still outstanding in its low-locality metadata.

use dkip_mem::{AccessOutcome, MemStats, MemoryHierarchy};
use dkip_model::config::AddressProcessorConfig;
use dkip_model::EventQueue;
use dkip_ooo::{Lsq, MemPorts, MemorySide};

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
    /// Long-latency loads in flight, due when their value arrives.
    pending_loads: EventQueue,
}

impl AddressProcessor {
    /// Creates an Address Processor over a memory hierarchy.
    #[must_use]
    pub fn new(config: &AddressProcessorConfig, mem: MemoryHierarchy) -> Self {
        AddressProcessor {
            lsq: Lsq::new(config.lsq_capacity),
            ports: MemPorts::new(config.memory_ports),
            mem,
            pending_loads: EventQueue::new(),
        }
    }

    /// Starts a new cycle: refreshes the memory ports.
    pub fn begin_cycle(&mut self) {
        self.ports.begin_cycle();
    }

    /// Removes and returns the next long-latency load whose value arrives
    /// at or before `now` (entering the load-value FIFO), in arrival order,
    /// or `None` once none is left.
    pub fn pop_arrival(&mut self, now: u64) -> Option<u64> {
        self.pending_loads.pop_due(now)
    }

    /// Immutable access to the load/store queue.
    #[must_use]
    pub fn lsq(&self) -> &Lsq {
        &self.lsq
    }

    /// Performs a functional (timing-free) cache-warming access; see
    /// [`MemoryHierarchy::warm_access`].
    pub fn warm_access(&mut self, addr: u64, is_write: bool) {
        self.mem.warm_access(addr, is_write);
    }

    /// Registers a load whose miss is being serviced by main memory; its
    /// value becomes available at `completes_at`.
    pub fn register_long_latency_load(&mut self, seq: u64, completes_at: u64) {
        self.pending_loads.push(completes_at, seq);
    }

    /// The earliest future cycle (strictly after `now`) at which the AP's
    /// state can change on its own: the next long-latency load-value
    /// arrival or the next outstanding cache fill. `None` when nothing is
    /// in flight.
    pub fn next_event(&mut self, now: u64) -> Option<u64> {
        [self.pending_loads.next_after(now), self.mem.next_event(now)]
            .into_iter()
            .flatten()
            .min()
    }

    /// Memory-hierarchy statistics.
    #[must_use]
    pub fn mem_stats(&self) -> MemStats {
        self.mem.stats()
    }

    /// Whether the L2 ever evicted a valid line; see
    /// [`MemoryHierarchy::l2_ever_evicted`].
    #[must_use]
    pub fn l2_ever_evicted(&self) -> bool {
        self.mem.l2_ever_evicted()
    }
}

/// The Address Processor is the Cache Processor's memory side, and the
/// Memory Processors reach the LSQ, the shared ports and the hierarchy
/// through the same three methods.
impl MemorySide for AddressProcessor {
    #[inline]
    fn lsq_mut(&mut self) -> &mut Lsq {
        &mut self.lsq
    }

    /// The shared memory ports (consumed by the CP issue stage and the MPs).
    #[inline]
    fn ports_mut(&mut self) -> &mut MemPorts {
        &mut self.ports
    }

    #[inline]
    fn access(&mut self, addr: u64, is_write: bool, now: u64) -> AccessOutcome {
        self.mem.access(addr, is_write, now)
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
        ap.register_long_latency_load(3, 500);
        assert_eq!(ap.pop_arrival(499), None);
        assert_eq!(ap.pop_arrival(500), Some(3));
        assert_eq!(ap.pop_arrival(500), Some(7));
        assert_eq!(ap.pop_arrival(501), None, "a value arrives once");
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
        ap.begin_cycle();
        assert!(ap.ports_mut().try_issue());
        assert!(ap.ports_mut().try_issue());
        assert!(
            !ap.ports_mut().try_issue(),
            "Table 2: two global memory ports"
        );
        ap.begin_cycle();
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
        ap.lsq_mut().dispatch_load(1);
        assert_eq!(ap.lsq().occupancy(), 1);
        ap.lsq_mut().retire_load(1);
        assert_eq!(ap.lsq().occupancy(), 0);
        // Table 2: a 512-entry LSQ.
        for seq in 0..512 {
            assert!(ap.lsq().has_space());
            ap.lsq_mut().dispatch_load(seq);
        }
        assert!(!ap.lsq().has_space());
    }
}
