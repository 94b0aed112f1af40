//! Allocation-conscious containers for the simulator hot path.
//!
//! Every core model burns most of its time in per-cycle bookkeeping:
//! dependency wiring at dispatch, wakeup at writeback, and membership tests
//! on in-flight sequence numbers. The std defaults are correct but slow
//! there — `SipHash` dominates `HashMap` lookups keyed by small integers,
//! and `HashMap<u64, Vec<u64>>` consumer lists reallocate on every producer.
//! This module provides drop-in replacements that are *observationally
//! identical* (the golden snapshots stay bit-for-bit) but allocation-free in
//! steady state:
//!
//! * [`FastHashMap`] / [`FastHashSet`] — std collections with the
//!   deterministic multiply-rotate [`FastHasher`] (an FxHash-style hasher;
//!   no per-process random state, so runs stay reproducible across
//!   processes, which the golden-stats subsystem requires).
//! * [`ConsumerTable`] — producer → consumer-list map whose `Vec` spines are
//!   recycled through a pool instead of being dropped on wakeup.
//! * [`DepList`] — an inline list of pending producer sequence numbers,
//!   bounded by [`crate::instr::MicroOp`]'s two source operands
//!   ([`MAX_SOURCES`]), replacing a heap `Vec` per dispatched instruction.
//! * [`LastWriters`] — the rename table as a flat array scoreboard indexed
//!   by [`ArchReg::flat_index`], replacing a `HashMap<ArchReg, u64>`.
//!
//! In-flight state is sized by occupancy, not by configured capacity: these
//! containers start empty and grow to what is actually in flight (then keep
//! that room, so the steady state still allocates nothing). No constructor
//! takes a capacity, so a 65,536-entry idealised window costs only what it
//! holds. Per-instruction flags belong in the core's ROB entry, not in a
//! side set keyed by sequence number.

use crate::reg::{ArchReg, TOTAL_ARCH_REGS};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Maximum number of source operands of a [`crate::instr::MicroOp`], and
/// therefore the capacity of a [`DepList`].
pub const MAX_SOURCES: usize = 2;

/// A deterministic, non-cryptographic hasher for small keys (sequence
/// numbers, registers). Multiply-rotate over 8-byte chunks in the style of
/// rustc's FxHash: far cheaper than the std `SipHash`, with no per-process
/// seed — identical input produces identical tables in every run, which the
/// cross-process determinism contract of the golden snapshots depends on
/// (hash *iteration* order is still never relied upon anywhere in the
/// simulator).
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher {
    state: u64,
}

impl FastHasher {
    const K: u64 = 0x517c_c1b7_2722_0a95;

    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.mix(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.mix(value);
    }

    #[inline]
    fn write_u8(&mut self, value: u8) {
        self.mix(u64::from(value));
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.mix(value as u64);
    }
}

/// `HashMap` with the deterministic [`FastHasher`].
pub type FastHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// `HashSet` with the deterministic [`FastHasher`].
pub type FastHashSet<T> = HashSet<T, BuildHasherDefault<FastHasher>>;

/// An inline list of pending producer sequence numbers for one dispatched
/// instruction. A [`crate::instr::MicroOp`] has at most [`MAX_SOURCES`]
/// source registers, so the list never needs the heap; distinct slots may
/// legitimately name the same producer (two wakeups, counted twice — the
/// cores rely on that, so this is a list, not a set).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DepList {
    deps: [u64; MAX_SOURCES],
    len: u8,
}

impl DepList {
    /// An empty dependency list.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a producer.
    ///
    /// # Panics
    ///
    /// Panics if the list already holds [`MAX_SOURCES`] producers.
    pub fn push(&mut self, producer: u64) {
        assert!(
            (self.len as usize) < MAX_SOURCES,
            "more producers than source operands"
        );
        self.deps[self.len as usize] = producer;
        self.len += 1;
    }

    /// Number of pending producers.
    #[must_use]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// Whether no producer is pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The producers, in insertion order.
    #[must_use]
    pub fn as_slice(&self) -> &[u64] {
        &self.deps[..self.len as usize]
    }

    /// Iterates over the producers in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.as_slice().iter().copied()
    }
}

/// Producer → consumer-list wakeup table with pooled list spines.
///
/// Pushes append to the producer's list (allocating from an internal pool of
/// recycled `Vec`s); [`ConsumerTable::take`] removes and returns the whole
/// list for iteration, and [`ConsumerTable::recycle`] hands the spine back.
/// In steady state no allocation happens at all. Lists preserve insertion
/// order, exactly like the `HashMap<u64, Vec<u64>>` they replace.
///
/// `Clone` deep-copies the live lists (and the recycled spines), so a
/// cloned core's wakeup table is an independent, observationally identical
/// copy, which a core's `Clone` snapshot requires.
#[derive(Debug, Default, Clone)]
pub struct ConsumerTable {
    lists: FastHashMap<u64, Vec<u64>>,
    pool: Vec<Vec<u64>>,
}

impl ConsumerTable {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `consumer` as waiting on `producer`.
    pub fn push(&mut self, producer: u64, consumer: u64) {
        self.lists
            .entry(producer)
            .or_insert_with(|| self.pool.pop().unwrap_or_default())
            .push(consumer);
    }

    /// The consumers currently registered for `producer` (empty slice if
    /// none), in insertion order.
    #[must_use]
    pub fn get(&self, producer: u64) -> &[u64] {
        self.lists.get(&producer).map_or(&[], Vec::as_slice)
    }

    /// Removes and returns the consumer list of `producer` (empty if none).
    /// Pass the list back through [`ConsumerTable::recycle`] after
    /// iterating so its spine is reused.
    #[must_use]
    pub fn take(&mut self, producer: u64) -> Vec<u64> {
        self.lists.remove(&producer).unwrap_or_default()
    }

    /// Returns a drained list's spine to the pool.
    pub fn recycle(&mut self, mut list: Vec<u64>) {
        if list.capacity() > 0 {
            list.clear();
            self.pool.push(list);
        }
    }

    /// Number of producers that currently have waiting consumers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lists.len()
    }

    /// Whether no consumer is waiting on any producer.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lists.is_empty()
    }
}

/// The most recent producer of every architectural register, as a flat
/// array indexed by [`ArchReg::flat_index`] — the renaming scoreboard the
/// dispatch stage consults for every source operand.
#[derive(Debug, Clone)]
pub struct LastWriters {
    writers: [Option<u64>; TOTAL_ARCH_REGS],
}

impl Default for LastWriters {
    fn default() -> Self {
        LastWriters {
            writers: [None; TOTAL_ARCH_REGS],
        }
    }
}

impl LastWriters {
    /// A table with no recorded writers.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The sequence number of the most recent writer of `reg`, if any.
    #[must_use]
    pub fn get(&self, reg: ArchReg) -> Option<u64> {
        self.writers[reg.flat_index()]
    }

    /// Records `seq` as the most recent writer of `reg`.
    pub fn set(&mut self, reg: ArchReg, seq: u64) {
        self.writers[reg.flat_index()] = Some(seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_hasher_is_deterministic_and_spreads() {
        let hash = |v: u64| {
            let mut h = FastHasher::default();
            h.write_u64(v);
            h.finish()
        };
        assert_eq!(hash(42), hash(42));
        assert_ne!(hash(1), hash(2));
        // Byte-stream hashing matches across chunk boundaries deterministically.
        let mut a = FastHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = FastHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn fast_map_and_set_behave_like_std() {
        let mut map: FastHashMap<u64, u32> = FastHashMap::default();
        map.insert(7, 1);
        map.insert(7, 2);
        assert_eq!(map.get(&7), Some(&2));
        assert_eq!(map.remove(&7), Some(2));
        let mut set: FastHashSet<u64> = FastHashSet::default();
        assert!(set.insert(9));
        assert!(!set.insert(9));
        assert!(set.contains(&9));
    }

    #[test]
    fn dep_list_holds_at_most_two_producers() {
        let mut deps = DepList::new();
        assert!(deps.is_empty());
        deps.push(10);
        deps.push(10); // same producer twice is legal (two source slots)
        assert_eq!(deps.len(), 2);
        assert_eq!(deps.as_slice(), &[10, 10]);
        assert_eq!(deps.iter().collect::<Vec<_>>(), vec![10, 10]);
    }

    #[test]
    #[should_panic(expected = "more producers")]
    fn dep_list_overflow_panics() {
        let mut deps = DepList::new();
        deps.push(1);
        deps.push(2);
        deps.push(3);
    }

    #[test]
    fn consumer_table_preserves_insertion_order_and_recycles() {
        let mut table = ConsumerTable::new();
        table.push(5, 10);
        table.push(5, 11);
        table.push(6, 12);
        assert_eq!(table.get(5), &[10, 11]);
        assert_eq!(table.len(), 2);
        let list = table.take(5);
        assert_eq!(list, vec![10, 11]);
        let spine_cap = list.capacity();
        table.recycle(list);
        assert!(
            table.take(99).is_empty(),
            "missing producers yield empty lists"
        );
        // The next producer reuses the recycled spine (no new allocation).
        table.push(7, 13);
        assert!(table.get(7).len() == 1 && table.lists[&7].capacity() >= spine_cap.min(1));
        assert_eq!(table.take(6), vec![12]);
    }

    #[test]
    fn last_writers_track_per_register() {
        let mut writers = LastWriters::new();
        assert_eq!(writers.get(ArchReg::int(3)), None);
        writers.set(ArchReg::int(3), 41);
        writers.set(ArchReg::fp(3), 42);
        assert_eq!(writers.get(ArchReg::int(3)), Some(41));
        assert_eq!(writers.get(ArchReg::fp(3)), Some(42));
        writers.set(ArchReg::int(3), 43);
        assert_eq!(writers.get(ArchReg::int(3)), Some(43));
    }
}
