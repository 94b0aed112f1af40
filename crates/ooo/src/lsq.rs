//! The load/store queue: occupancy tracking and store-to-load forwarding.
//!
//! The paper treats the LSQ as an orthogonal, pluggable component (Section
//! 3.3) and assumes one of the published scalable designs. This model keeps
//! the timing-relevant behaviour: a bounded number of in-flight memory
//! operations, a bounded number of memory ports per cycle (enforced by
//! [`crate::fu::MemPorts`]), and store-to-load forwarding by address.
//!
//! Forwarding lookups are the per-load hot path, so pending stores are
//! indexed *by 8-byte slot*: each slot keeps its in-flight store sequence
//! numbers in ascending (program) order, which makes "does any older store
//! to this slot exist?" one hash probe instead of a scan over the whole
//! store queue (the D-KIP's Address Processor LSQ holds 512 entries). That
//! one map is the whole index: a store is retired under the address it was
//! dispatched with, which every caller still holds, so no seq → slot map is
//! kept. The index starts empty and grows with the stores in flight, not
//! with the configured capacity, and emptied slot lists are recycled through
//! a pool, so the steady state allocates nothing.

use dkip_model::FastHashMap;

/// Latency of a load satisfied by store-to-load forwarding.
pub const FORWARD_LATENCY: u64 = 2;

/// A load/store queue.
#[derive(Debug, Clone, Default)]
pub struct Lsq {
    capacity: usize,
    occupancy: usize,
    /// 8-byte aligned slot → in-flight (dispatched, not yet retired) store
    /// seqs, ascending (stores dispatch in program order).
    stores_by_slot: FastHashMap<u64, Vec<u64>>,
    /// Recycled slot-list spines.
    spine_pool: Vec<Vec<u64>>,
}

impl Lsq {
    /// Creates a queue with room for `capacity` in-flight memory
    /// operations.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LSQ capacity must be positive");
        Lsq {
            capacity,
            occupancy: 0,
            stores_by_slot: FastHashMap::default(),
            spine_pool: Vec::new(),
        }
    }

    /// Whether another memory operation can be dispatched.
    #[must_use]
    pub fn has_space(&self) -> bool {
        self.occupancy < self.capacity
    }

    /// Current number of in-flight memory operations.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.occupancy
    }

    fn slot(addr: u64) -> u64 {
        addr & !7
    }

    /// Registers a dispatched load.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full.
    pub fn dispatch_load(&mut self, _seq: u64) {
        assert!(self.has_space(), "LSQ overflow");
        self.occupancy += 1;
    }

    /// Registers a dispatched store and remembers its address for
    /// forwarding.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full.
    pub fn dispatch_store(&mut self, seq: u64, addr: u64) {
        assert!(self.has_space(), "LSQ overflow");
        self.occupancy += 1;
        self.stores_by_slot
            .entry(Self::slot(addr))
            .or_insert_with(|| self.spine_pool.pop().unwrap_or_default())
            .push(seq);
    }

    /// Whether a load with sequence number `seq` and address `addr` can be
    /// satisfied by forwarding from an older in-flight store.
    #[must_use]
    pub fn forwards_from_store(&self, seq: u64, addr: u64) -> bool {
        // Slot lists are ascending, so "any in-flight store older than the
        // load" is just a check against the oldest entry.
        self.stores_by_slot
            .get(&Self::slot(addr))
            .and_then(|stores| stores.first())
            .is_some_and(|&oldest| oldest < seq)
    }

    /// Releases the entry of a committed load.
    ///
    /// # Panics
    ///
    /// Panics if the queue is empty.
    pub fn retire_load(&mut self, _seq: u64) {
        assert!(self.occupancy > 0, "LSQ underflow");
        self.occupancy -= 1;
    }

    /// Releases the entry of a committed store dispatched with address
    /// `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the queue is empty and, in debug builds, if store `seq` is
    /// not in flight under `addr`'s slot (it was dispatched with another
    /// address, or already retired).
    pub fn retire_store(&mut self, seq: u64, addr: u64) {
        assert!(self.occupancy > 0, "LSQ underflow");
        self.occupancy -= 1;
        let slot = Self::slot(addr);
        let stores = self.stores_by_slot.get_mut(&slot);
        // Stores retire in program order, so the match is (almost always)
        // the front entry.
        let idx = stores
            .as_ref()
            .and_then(|list| list.iter().position(|&s| s == seq));
        debug_assert!(
            idx.is_some(),
            "store {seq} retired under address {addr:#x}, which it was not dispatched with"
        );
        let (Some(stores), Some(idx)) = (stores, idx) else {
            return;
        };
        stores.remove(idx);
        if stores.is_empty() {
            let spine = self.stores_by_slot.remove(&slot).expect("slot list exists");
            if spine.capacity() > 0 {
                self.spine_pool.push(spine);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_tracks_dispatch_and_retire() {
        let mut lsq = Lsq::new(4);
        lsq.dispatch_load(1);
        lsq.dispatch_store(2, 0x100);
        assert_eq!(lsq.occupancy(), 2);
        lsq.retire_load(1);
        lsq.retire_store(2, 0x100);
        assert_eq!(lsq.occupancy(), 0);
        assert!(lsq.has_space());
    }

    #[test]
    fn capacity_is_enforced() {
        let mut lsq = Lsq::new(2);
        lsq.dispatch_load(1);
        lsq.dispatch_load(2);
        assert!(!lsq.has_space());
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn dispatch_past_capacity_panics() {
        let mut lsq = Lsq::new(1);
        lsq.dispatch_load(1);
        lsq.dispatch_load(2);
    }

    #[test]
    fn loads_forward_from_older_stores_to_the_same_slot() {
        let mut lsq = Lsq::new(8);
        lsq.dispatch_store(5, 0x1000);
        assert!(lsq.forwards_from_store(7, 0x1004), "same 8-byte slot");
        assert!(!lsq.forwards_from_store(7, 0x1008), "different slot");
        assert!(
            !lsq.forwards_from_store(3, 0x1000),
            "younger stores do not forward"
        );
    }

    #[test]
    fn retired_stores_no_longer_forward() {
        let mut lsq = Lsq::new(8);
        lsq.dispatch_store(5, 0x2000);
        lsq.retire_store(5, 0x2000);
        assert!(!lsq.forwards_from_store(9, 0x2000));
    }

    #[test]
    fn stores_to_one_slot_retire_in_order_and_stop_forwarding() {
        let mut lsq = Lsq::new(8);
        lsq.dispatch_store(3, 0x3000);
        lsq.dispatch_store(4, 0x3004);
        assert!(lsq.forwards_from_store(9, 0x3000));
        lsq.retire_store(3, 0x3000);
        assert!(
            lsq.forwards_from_store(9, 0x3000),
            "the younger store to the slot is still in flight"
        );
        assert!(
            !lsq.forwards_from_store(4, 0x3000),
            "a load older than every remaining store does not forward"
        );
        lsq.retire_store(4, 0x3004);
        assert!(!lsq.forwards_from_store(9, 0x3000));
        assert_eq!(lsq.occupancy(), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not dispatched with")]
    fn retiring_a_store_under_another_address_panics() {
        let mut lsq = Lsq::new(8);
        lsq.dispatch_store(5, 0x4000);
        lsq.retire_store(5, 0x4008);
    }
}
