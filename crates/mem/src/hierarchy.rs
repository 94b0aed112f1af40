//! The L1 → L2 → main-memory lookup path.
//!
//! [`MemoryHierarchy`] implements the six memory subsystems of Table 1 and
//! the parameterised hierarchy of Table 2. It supports:
//!
//! * *perfect* levels (a `None` capacity never misses), used by the L1-2 /
//!   L2-11 / L2-21 rows of Table 1,
//! * outstanding-miss merging: a second access to a cache line whose miss is
//!   already in flight completes when the original miss completes rather
//!   than paying the full latency again (a simple MSHR model),
//! * per-level access statistics, which the cores fold into
//!   [`dkip_model::stats::SimStats`].

use crate::cache::SetAssocCache;
use dkip_model::config::MemoryHierarchyConfig;
use dkip_model::telemetry::MetricsFrame;
use dkip_model::{ConfigError, EventQueue, FastHashMap};

/// The level of the hierarchy that serviced an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AccessLevel {
    /// Serviced by the L1 data cache.
    L1,
    /// Serviced by the L2 cache.
    L2,
    /// Serviced by main memory (an off-chip access — the event that creates
    /// *low execution locality* in the paper's terminology).
    Memory,
}

/// The outcome of a memory access: where it was serviced and how long it
/// takes from issue to data return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Level that serviced the access.
    pub level: AccessLevel,
    /// Total latency in cycles from the access starting to data return.
    pub latency: u64,
    /// Whether the access was merged into an already-outstanding miss for
    /// the same cache line.
    pub merged: bool,
}

impl AccessOutcome {
    /// Whether this access reached main memory and is therefore a
    /// *long-latency* event for the D-KIP's classification logic.
    #[must_use]
    pub fn is_long_latency(&self) -> bool {
        self.level == AccessLevel::Memory
    }
}

/// Per-level access counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Accesses serviced by the L1.
    pub l1_hits: u64,
    /// Accesses serviced by the L2.
    pub l2_hits: u64,
    /// Accesses serviced by main memory.
    pub memory_accesses: u64,
    /// Accesses merged into an outstanding miss.
    pub merged_misses: u64,
}

impl MemStats {
    /// Total number of accesses.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.l1_hits + self.l2_hits + self.memory_accesses
    }

    /// Copies the cumulative per-level counters into a telemetry
    /// [`MetricsFrame`], the hierarchy's side of the probe contract: the
    /// interval-metrics backend differences consecutive frames to derive
    /// the interval L1/L2 miss rates.
    pub fn fill_metrics(&self, frame: &mut MetricsFrame) {
        frame.l1_hits = self.l1_hits;
        frame.l2_hits = self.l2_hits;
        frame.mem_accesses = self.memory_accesses;
    }
}

/// The two-level cache hierarchy plus main memory.
///
/// `Clone` is its snapshot: a clone holds the cache tags and recency order,
/// the outstanding misses and the statistics, and services every future
/// access identically to the original at the moment of the copy.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    config: MemoryHierarchyConfig,
    l1: Option<SetAssocCache>,
    l2: Option<SetAssocCache>,
    /// Outstanding misses: line number → cycle at which the fill completes.
    /// Only ever probed, inserted into and removed from, never iterated.
    /// Keyed by line number (address / line size) rather than line address:
    /// the multiplicative `FastHasher` keeps a key's zero low bits, so line
    /// addresses (multiples of the line size) would use one bucket in 64.
    outstanding: FastHashMap<u64, u64>,
    /// Twin of `outstanding`: each line number, due at its fill's
    /// completion cycle. Every map entry has exactly one queued event and
    /// vice versa (the two are only ever mutated together), so the earliest
    /// in-flight fill is an O(1) peek and expiring completed fills is
    /// O(log n) amortised.
    fill_queue: EventQueue,
    stats: MemStats,
}

impl MemoryHierarchy {
    /// Builds a hierarchy from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the configuration fails
    /// [`MemoryHierarchyConfig::validate`] or a cache cannot be constructed
    /// from it.
    pub fn new(config: MemoryHierarchyConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let l1 = match config.l1_size {
            Some(size) => Some(SetAssocCache::new(size, config.l1_assoc, config.line_size)?),
            None => None,
        };
        let l2 = match config.l2_size {
            Some(size) => Some(SetAssocCache::new(size, config.l2_assoc, config.line_size)?),
            None => None,
        };
        Ok(MemoryHierarchy {
            config,
            l1,
            l2,
            outstanding: FastHashMap::default(),
            fill_queue: EventQueue::new(),
            stats: MemStats::default(),
        })
    }

    /// Access statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Whether the L2 has ever evicted a valid line (never, for a perfect
    /// or absent L2); see [`SetAssocCache::ever_evicted`].
    #[must_use]
    pub fn l2_ever_evicted(&self) -> bool {
        self.l2.as_ref().is_some_and(SetAssocCache::ever_evicted)
    }

    fn line_number(&self, addr: u64) -> u64 {
        addr >> self.config.line_size.trailing_zeros()
    }

    /// Performs a timing access for `addr` at cycle `now`.
    ///
    /// Returns where the access was serviced and its latency. Misses update
    /// the cache state (fill on miss, write-allocate) and register an
    /// outstanding-miss entry so that subsequent accesses to the same line
    /// before the fill completes are merged.
    pub fn access(&mut self, addr: u64, is_write: bool, now: u64) -> AccessOutcome {
        let line = self.line_number(addr);
        self.expire_fills(now);

        // Merge with an outstanding miss for the same line if it has not
        // completed yet (every completed fill was just expired).
        if let Some(&complete) = self.outstanding.get(&line) {
            debug_assert!(complete > now, "expired fills are pruned above");
            self.stats.memory_accesses += 1;
            self.stats.merged_misses += 1;
            return AccessOutcome {
                level: AccessLevel::Memory,
                latency: complete - now,
                merged: true,
            };
        }

        // L1 lookup. A `None` L1 is perfect: it always hits.
        let l1_hit = match self.l1.as_mut() {
            Some(l1) => l1.access(addr, is_write),
            None => true,
        };
        if l1_hit {
            self.stats.l1_hits += 1;
            return AccessOutcome {
                level: AccessLevel::L1,
                latency: self.config.l1_latency,
                merged: false,
            };
        }

        // L2 lookup. A perfect L2 (or a configuration whose L2 is declared
        // perfect) always hits here.
        let l2_hit = match self.l2.as_mut() {
            Some(l2) => l2.access(addr, is_write),
            None => true,
        };
        if self.config.l2_perfect || l2_hit {
            self.stats.l2_hits += 1;
            return AccessOutcome {
                level: AccessLevel::L2,
                latency: self.config.l1_latency + self.config.l2_latency,
                merged: false,
            };
        }

        // Main-memory access.
        self.stats.memory_accesses += 1;
        let latency = self.config.l1_latency + self.config.l2_latency + self.config.memory_latency;
        self.outstanding.insert(line, now + latency);
        self.fill_queue.push(now + latency, line);
        AccessOutcome {
            level: AccessLevel::Memory,
            latency,
            merged: false,
        }
    }

    /// Performs a *functional* (timing-free) access for `addr`: the tag
    /// arrays and replacement state update exactly as under [`access`], but
    /// no latency is modelled, no outstanding miss is registered and no
    /// statistics are counted.
    ///
    /// The sampled-simulation mode uses this to keep the caches warm across
    /// fast-forward gaps (`dkip-sim`'s `sampled` module): the skipped
    /// instructions still install and promote lines, so the next detailed
    /// window measures against the cache contents an exact run would see,
    /// without paying for timing simulation.
    ///
    /// [`access`]: MemoryHierarchy::access
    pub fn warm_access(&mut self, addr: u64, is_write: bool) {
        let l1_hit = match self.l1.as_mut() {
            Some(l1) => l1.access(addr, is_write),
            None => true,
        };
        if l1_hit {
            return;
        }
        // Mirror the timed path: an L1 miss always performs the L2 lookup
        // (and fill), even under an `l2_perfect` configuration.
        if let Some(l2) = self.l2.as_mut() {
            l2.access(addr, is_write);
        }
    }

    /// Drops every in-flight fill that has completed by `now`.
    fn expire_fills(&mut self, now: u64) {
        while let Some(line) = self.fill_queue.pop_due(now) {
            self.outstanding.remove(&line);
        }
    }

    /// The earliest future cycle (strictly after `now`) at which an
    /// in-flight fill completes, or `None` when no fill is outstanding.
    ///
    /// This is the memory hierarchy's contribution to the event-driven
    /// clock: a quiesced core may fast-forward to this cycle without
    /// observing any state change on the way.
    pub fn next_event(&mut self, now: u64) -> Option<u64> {
        self.expire_fills(now);
        self.fill_queue.next_after(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> MemoryHierarchyConfig {
        MemoryHierarchyConfig {
            name: "TEST".to_owned(),
            l1_size: Some(1024),
            l1_latency: 2,
            l1_assoc: 2,
            l2_size: Some(8 * 1024),
            l2_latency: 11,
            l2_assoc: 4,
            memory_latency: 400,
            line_size: 64,
            l2_perfect: false,
        }
    }

    #[test]
    fn perfect_l1_always_hits() {
        let mut mem = MemoryHierarchy::new(MemoryHierarchyConfig::l1_2()).unwrap();
        for addr in (0..100u64).map(|i| i * 4096) {
            let outcome = mem.access(addr, false, 0);
            assert_eq!(outcome.level, AccessLevel::L1);
            assert_eq!(outcome.latency, 2);
        }
        assert_eq!(mem.stats().total(), 100);
        assert_eq!(mem.stats().memory_accesses, 0);
    }

    #[test]
    fn perfect_l2_configs_never_reach_memory() {
        for cfg in [
            MemoryHierarchyConfig::l2_11(),
            MemoryHierarchyConfig::l2_21(),
        ] {
            let expected = 2 + cfg.l2_latency;
            let mut mem = MemoryHierarchy::new(cfg).unwrap();
            // Miss the 32 KB L1 by streaming far apart addresses.
            let mut worst = 0;
            for i in 0..4096u64 {
                let outcome = mem.access(i * 4096, false, i);
                assert_ne!(outcome.level, AccessLevel::Memory);
                worst = worst.max(outcome.latency);
            }
            assert_eq!(worst, expected, "L1 misses must cost L1+L2 latency");
        }
    }

    #[test]
    fn cold_miss_goes_to_memory_then_hits_in_l1() {
        let mut mem = MemoryHierarchy::new(small_config()).unwrap();
        let first = mem.access(0x10000, false, 0);
        assert_eq!(first.level, AccessLevel::Memory);
        assert_eq!(first.latency, 2 + 11 + 400);
        let second = mem.access(0x10000, false, first.latency + 1);
        assert_eq!(second.level, AccessLevel::L1);
        assert_eq!(second.latency, 2);
    }

    #[test]
    fn l1_eviction_falls_back_to_l2() {
        let mut mem = MemoryHierarchy::new(small_config()).unwrap();
        // Touch enough lines to overflow the 1 KB L1 but stay within the
        // 8 KB L2, then re-touch the first line: it should hit in L2.
        let warm = 0x0u64;
        mem.access(warm, false, 0);
        for i in 1..64u64 {
            mem.access(i * 64, false, 1000 * i);
        }
        let outcome = mem.access(warm, false, 1_000_000);
        assert_eq!(outcome.level, AccessLevel::L2);
        assert_eq!(outcome.latency, 2 + 11);
    }

    #[test]
    fn outstanding_misses_are_merged() {
        let mut mem = MemoryHierarchy::new(small_config()).unwrap();
        let first = mem.access(0x20000, false, 100);
        assert!(!first.merged);
        // A second access to the same line 50 cycles later completes with
        // the remaining latency.
        let second = mem.access(0x20010, false, 150);
        assert!(second.merged);
        assert_eq!(second.latency, first.latency - 50);
        // After the fill completes, the line hits in L1.
        let third = mem.access(0x20000, false, 100 + first.latency + 1);
        assert_eq!(third.level, AccessLevel::L1);
    }

    #[test]
    fn table1_latencies_are_reproduced() {
        // MEM-100 / MEM-400 / MEM-1000 differ only in the memory latency.
        for (cfg, expected) in [
            (MemoryHierarchyConfig::mem_100(), 2 + 11 + 100),
            (MemoryHierarchyConfig::mem_400(), 2 + 11 + 400),
            (MemoryHierarchyConfig::mem_1000(), 2 + 11 + 1000),
        ] {
            let mut mem = MemoryHierarchy::new(cfg).unwrap();
            let outcome = mem.access(0xABCD_0000, false, 0);
            assert_eq!(outcome.latency, expected);
        }
    }

    #[test]
    fn next_event_tracks_the_earliest_outstanding_fill() {
        let mut mem = MemoryHierarchy::new(small_config()).unwrap();
        assert_eq!(mem.next_event(0), None);
        let a = mem.access(0x10000, false, 100);
        let _b = mem.access(0x90000, false, 150);
        assert_eq!(mem.next_event(100), Some(100 + a.latency));
        // Once the first fill completes, the event moves to the second fill.
        assert_eq!(mem.next_event(100 + a.latency), Some(150 + a.latency));
        // After both complete nothing is outstanding.
        assert_eq!(mem.next_event(10_000), None);
    }

    #[test]
    fn expired_fills_are_pruned_and_lines_can_miss_again() {
        let mut mem = MemoryHierarchy::new(small_config()).unwrap();
        let first = mem.access(0x10000, false, 0);
        // Evict the line from both levels by streaming conflicting lines.
        for i in 1..4096u64 {
            mem.access(0x10000 + i * 8192, false, first.latency + i);
        }
        // A fresh miss to the original line re-registers an outstanding fill
        // and next_event reflects its (new) completion cycle.
        let now = 1_000_000;
        let again = mem.access(0x10000, false, now);
        assert_eq!(again.level, AccessLevel::Memory);
        assert!(!again.merged);
        let next = mem.next_event(now).expect("fill in flight");
        assert_eq!(next, now + again.latency);
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let mut mem = MemoryHierarchy::new(small_config()).unwrap();
        // Build up non-trivial state: filled lines, an in-flight miss.
        for i in 0..32u64 {
            mem.access(i * 64, i % 3 == 0, i * 7);
        }
        let in_flight = mem.access(0xAAAA_0000, false, 500);
        assert_eq!(in_flight.level, AccessLevel::Memory);
        let snap = mem.clone();

        // Divergent future on the original: evict everything.
        for i in 0..4096u64 {
            mem.access(0xBB00_0000 + i * 8192, false, 600 + i);
        }

        // Restore the original from the snapshot and replay an access
        // pattern on it and on the snapshot itself; outcomes must be
        // identical.
        mem.clone_from(&snap);
        let mut twin = snap;
        assert_eq!(mem.stats(), twin.stats());
        for i in 0..64u64 {
            let a = mem.access(i * 64, false, 550 + i);
            let b = twin.access(i * 64, false, 550 + i);
            assert_eq!(a, b, "restored hierarchies diverged at access {i}");
        }
        assert_eq!(mem.stats(), twin.stats());
        // The in-flight miss survived the snapshot: it still merges.
        let merged = mem.access(0xAAAA_0010, false, 520);
        assert!(merged.merged, "outstanding miss must survive restore");
    }

    #[test]
    fn warm_access_installs_lines_without_timing_side_effects() {
        let mut warmed = MemoryHierarchy::new(small_config()).unwrap();
        let mut timed = MemoryHierarchy::new(small_config()).unwrap();
        // Warm one hierarchy functionally, drive the twin through timed
        // accesses spaced far enough apart that every fill completes.
        let pattern: Vec<u64> = (0..64u64).map(|i| i * 64).chain(0..8).collect();
        for (i, &addr) in pattern.iter().enumerate() {
            warmed.warm_access(addr, i % 5 == 0);
            timed.access(addr, i % 5 == 0, 10_000 * i as u64);
        }
        // No stats, no outstanding fills on the warmed side...
        assert_eq!(warmed.stats().total(), 0);
        assert_eq!(warmed.next_event(u64::MAX - 1), None);
        // ...but the tag state matches the timed twin: every future access
        // is serviced by the same level.
        for i in 0..80u64 {
            let addr = i * 64;
            let a = warmed.access(addr, false, 2_000_000);
            let b = timed.access(addr, false, 2_000_000);
            assert_eq!(a.level, b.level, "divergence at {addr:#x}");
        }
    }

    #[test]
    fn stores_allocate_lines() {
        let mut mem = MemoryHierarchy::new(small_config()).unwrap();
        mem.access(0x50000, true, 0);
        let again = mem.access(0x50000, false, 10_000);
        assert_eq!(again.level, AccessLevel::L1);
    }
}
