//! A set-associative cache model with LRU replacement.

use dkip_model::ConfigError;

/// A set-associative, write-allocate cache with true-LRU replacement.
///
/// The cache only models *presence* (hit/miss); data values are never
/// stored because the simulator is timing-only.
///
/// The tag store is one flat array in set-major order: set `s` occupies
/// `keys[s * assoc..][..assoc]`, kept in recency order, most recently used
/// way first. A way holds its block's tag plus one, so `0` marks an empty
/// way and a zeroed allocation is an empty cache. Empty ways always sit at
/// the tail of their set, behind the valid ones. Sets are indexed with a
/// mask and a shift when the set count is a power of two, and with `%` and
/// `/` otherwise.
///
/// # Example
///
/// ```
/// use dkip_mem::cache::SetAssocCache;
///
/// let mut cache = SetAssocCache::new(32 * 1024, 4, 64).unwrap();
/// assert!(!cache.access(0x1234, false)); // cold miss
/// assert!(cache.access(0x1234, false));  // now a hit
/// assert!(cache.access(0x1235, false));  // same 64-byte line
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    /// Tag plus one of every way, each set most recently used first; `0`
    /// marks an empty way.
    keys: Vec<u64>,
    num_sets: usize,
    assoc: usize,
    line_shift: u32,
    /// `log2(num_sets)` when the set count is a power of two (mask-and-shift
    /// indexing), `None` otherwise.
    set_bits: Option<u32>,
    hits: u64,
    misses: u64,
    /// Whether a miss has ever dropped a valid line (see
    /// [`SetAssocCache::ever_evicted`]).
    evicted: bool,
}

impl SetAssocCache {
    /// Creates a cache of `size_bytes` with the given associativity and line
    /// size.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the line size is not a power of two, the
    /// associativity is zero, the size is not a positive multiple of
    /// `line_size * assoc`, or the cache has one set of 1-byte lines (its
    /// tags would span all 64 address bits, leaving no key for an empty
    /// way).
    pub fn new(size_bytes: usize, assoc: usize, line_size: usize) -> Result<Self, ConfigError> {
        if !line_size.is_power_of_two() || line_size == 0 {
            return Err(ConfigError::new(
                "line_size",
                "must be a positive power of two",
            ));
        }
        if assoc == 0 {
            return Err(ConfigError::new("assoc", "must be positive"));
        }
        if size_bytes == 0 || !size_bytes.is_multiple_of(line_size * assoc) {
            return Err(ConfigError::new(
                "size_bytes",
                "must be a positive multiple of line_size * assoc",
            ));
        }
        let num_sets = size_bytes / (line_size * assoc);
        if num_sets == 1 && line_size == 1 {
            return Err(ConfigError::new(
                "line_size",
                "must be at least 2 bytes in a single-set cache",
            ));
        }
        Ok(SetAssocCache {
            keys: vec![0; num_sets * assoc],
            num_sets,
            assoc,
            line_shift: line_size.trailing_zeros(),
            set_bits: num_sets
                .is_power_of_two()
                .then(|| num_sets.trailing_zeros()),
            hits: 0,
            misses: 0,
            evicted: false,
        })
    }

    /// The index of `addr`'s set's first way, and the block's key (its tag
    /// plus one, never `0`: `new` rules out 64-bit tags).
    #[inline]
    fn set_and_key(&self, addr: u64) -> (usize, u64) {
        let block = addr >> self.line_shift;
        let (set, tag) = match self.set_bits {
            Some(bits) => (block & ((1 << bits) - 1), block >> bits),
            None => (block % self.num_sets as u64, block / self.num_sets as u64),
        };
        (set as usize * self.assoc, tag + 1)
    }

    /// Accesses `addr`; returns `true` on a hit. A hit moves its way to the
    /// front of the set. A miss allocates the block at the front
    /// (write-allocate for stores) and drops the tail way: the LRU way, or
    /// an empty one while the set is not yet full. Loads and stores update
    /// the tag store alike: with no data modelled there is no dirty state
    /// to track.
    pub fn access(&mut self, addr: u64, _is_write: bool) -> bool {
        let (base, key) = self.set_and_key(addr);
        // One pass shifts the set down a way at a time, carrying the key
        // into the front, until it picks up the key's old way (a hit) or
        // falls off the tail (a miss).
        let mut carried = key;
        for way in &mut self.keys[base..base + self.assoc] {
            carried = std::mem::replace(way, carried);
            if carried == key {
                self.hits += 1;
                return true;
            }
        }
        self.misses += 1;
        self.evicted |= carried != 0;
        false
    }

    /// Whether a miss has ever dropped a valid line. A cache that never
    /// evicted held every line it was asked for, so a cache with the same
    /// ways and line size and a multiple of its set count (each of whose
    /// sets takes the lines of one of these) would have hit and missed on
    /// exactly the same accesses.
    #[must_use]
    pub fn ever_evicted(&self) -> bool {
        self.evicted
    }

    /// Number of sets.
    #[must_use]
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Associativity.
    #[must_use]
    pub fn assoc(&self) -> usize {
        self.assoc
    }

    /// Line size in bytes.
    #[must_use]
    pub fn line_size(&self) -> usize {
        1 << self.line_shift
    }

    /// Total capacity in bytes.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.num_sets * self.assoc * self.line_size()
    }

    /// Hits recorded so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses recorded so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The straightforward nested-`Vec` LRU cache the flat tag store
    /// replaced, kept as the reference model: one `Vec` of optional lines
    /// per set, `%`/`/` set indexing, and a victim search that prefers the
    /// first invalid way over the least recently used one.
    struct ReferenceCache {
        /// `Some((tag, last_use))` per valid way.
        sets: Vec<Vec<Option<(u64, u64)>>>,
        line_shift: u32,
        tick: u64,
        hits: u64,
        misses: u64,
        evicted: bool,
    }

    impl ReferenceCache {
        fn new(num_sets: usize, assoc: usize, line_size: usize) -> Self {
            ReferenceCache {
                sets: vec![vec![None; assoc]; num_sets],
                line_shift: line_size.trailing_zeros(),
                tick: 0,
                hits: 0,
                misses: 0,
                evicted: false,
            }
        }

        fn set_and_tag(&self, addr: u64) -> (usize, u64) {
            let block = addr >> self.line_shift;
            let num_sets = self.sets.len() as u64;
            ((block % num_sets) as usize, block / num_sets)
        }

        fn access(&mut self, addr: u64) -> bool {
            self.tick += 1;
            let (set_idx, tag) = self.set_and_tag(addr);
            let set = &mut self.sets[set_idx];
            for line in set.iter_mut().flatten() {
                if line.0 == tag {
                    line.1 = self.tick;
                    self.hits += 1;
                    return true;
                }
            }
            self.misses += 1;
            let victim = match set.iter().position(Option::is_none) {
                Some(idx) => idx,
                None => {
                    let mut lru_idx = 0;
                    let mut lru_use = u64::MAX;
                    for (idx, line) in set.iter().enumerate() {
                        let last = line.expect("set is full").1;
                        if last < lru_use {
                            lru_use = last;
                            lru_idx = idx;
                        }
                    }
                    lru_idx
                }
            };
            self.evicted |= set[victim].is_some();
            set[victim] = Some((tag, self.tick));
            false
        }

        fn contains(&self, addr: u64) -> bool {
            let (set_idx, tag) = self.set_and_tag(addr);
            self.sets[set_idx]
                .iter()
                .flatten()
                .any(|line| line.0 == tag)
        }
    }

    /// Whether `addr` is resident in `cache`, read on a copy so the original's
    /// recency order and counters are untouched.
    fn resident(cache: &SetAssocCache, addr: u64) -> bool {
        cache.clone().access(addr, false)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The flat cache is observationally identical to the reference
        /// model on any geometry — power-of-two set counts (mask-and-shift
        /// indexing) and others such as 3 or 6 sets (`%`/`/`) — and any
        /// read/write stream: the same hit/miss per access, the same
        /// counters, and the same resident lines.
        #[test]
        fn flat_cache_matches_the_reference_model(
            num_sets in 1usize..17,
            assoc in 1usize..17,
            line_shift in 4u32..8,
            stream in proptest::collection::vec((0u64..(1 << 14), 0u64..4, any::<bool>()), 1..400),
        ) {
            let line_size = 1usize << line_shift;
            let mut flat = SetAssocCache::new(num_sets * assoc * line_size, assoc, line_size).unwrap();
            let mut reference = ReferenceCache::new(num_sets, assoc, line_size);
            prop_assert_eq!(flat.num_sets(), num_sets);
            // A few far-apart regions exercise wide tags as well as conflicts.
            let addrs: Vec<(u64, bool)> = stream
                .iter()
                .map(|&(offset, region, is_write)| ((region << 36) | offset, is_write))
                .collect();
            for (i, &(addr, is_write)) in addrs.iter().enumerate() {
                prop_assert_eq!(
                    flat.access(addr, is_write),
                    reference.access(addr),
                    "access {} to {:#x} diverged", i, addr
                );
            }
            prop_assert_eq!(flat.hits(), reference.hits);
            prop_assert_eq!(flat.misses(), reference.misses);
            prop_assert_eq!(flat.ever_evicted(), reference.evicted);
            for &(addr, _) in &addrs {
                prop_assert_eq!(resident(&flat, addr), reference.contains(addr), "{:#x}", addr);
                let neighbour = addr ^ (1 << 20);
                prop_assert_eq!(resident(&flat, neighbour), reference.contains(neighbour));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A cache that never evicted answers every access exactly as a
        /// cache with a multiple of its set count (and the same ways and
        /// lines) does: the rule that lets a sweep reuse a small L2's run
        /// for a larger one.
        #[test]
        fn a_cache_that_never_evicted_equals_every_multiple_of_it(
            num_sets in 1usize..9,
            factor in 1usize..5,
            assoc in 1usize..9,
            stream in proptest::collection::vec(0u64..(1 << 12), 1..60),
        ) {
            let mut small = SetAssocCache::new(num_sets * assoc * 64, assoc, 64).unwrap();
            let mut large =
                SetAssocCache::new(factor * num_sets * assoc * 64, assoc, 64).unwrap();
            let small_hits: Vec<bool> = stream.iter().map(|&a| small.access(a, false)).collect();
            let large_hits: Vec<bool> = stream.iter().map(|&a| large.access(a, false)).collect();
            if !small.ever_evicted() {
                prop_assert_eq!(small_hits, large_hits);
                prop_assert!(!large.ever_evicted());
            }
        }
    }

    #[test]
    fn an_eviction_is_recorded_only_when_a_valid_line_drops() {
        let mut cache = SetAssocCache::new(2 * 64, 2, 64).unwrap();
        cache.access(0x000, false);
        cache.access(0x040, false);
        cache.access(0x000, false);
        assert!(!cache.ever_evicted(), "filling empty ways evicts nothing");
        cache.access(0x080, false);
        assert!(cache.ever_evicted());
    }

    #[test]
    fn construction_validates_parameters() {
        assert!(SetAssocCache::new(32 * 1024, 4, 64).is_ok());
        assert!(SetAssocCache::new(0, 4, 64).is_err());
        assert!(SetAssocCache::new(32 * 1024, 0, 64).is_err());
        assert!(SetAssocCache::new(32 * 1024, 4, 48).is_err());
        assert!(SetAssocCache::new(1000, 4, 64).is_err());
    }

    /// Keys are tags plus one, so the widest tags sit at the edge of the
    /// empty-way encoding. One set of 1-byte lines would make the tag of
    /// `u64::MAX` wrap to the empty key; `new` refuses that geometry, and
    /// the widest geometries it accepts keep `u64::MAX` and `0` apart from
    /// empty ways and from each other.
    #[test]
    fn widest_tags_do_not_alias_empty_ways() {
        assert!(
            SetAssocCache::new(4, 4, 1).is_err(),
            "one set of 1-byte lines"
        );
        // One set of 2-byte lines, and two sets of 1-byte lines: 63-bit tags.
        for (size, line) in [(8, 2), (8, 1)] {
            let mut cache = SetAssocCache::new(size, 4, line).unwrap();
            assert!(!resident(&cache, u64::MAX));
            assert!(!cache.access(u64::MAX, false), "cold miss");
            assert!(cache.access(u64::MAX, false));
            assert!(!resident(&cache, 0));
            assert!(!cache.access(0, false), "tag 0 is not an empty way");
            assert!(cache.access(0, false));
            assert!(resident(&cache, u64::MAX));
            assert_eq!((cache.hits(), cache.misses()), (2, 2));
        }
    }

    #[test]
    fn an_empty_set_holds_no_line() {
        let mut cache = SetAssocCache::new(256, 2, 64).unwrap();
        for addr in [0, 0x40, 0x80, u64::MAX] {
            assert!(!resident(&cache, addr), "{addr:#x}");
        }
        // Filling set 0 leaves set 1 empty.
        cache.access(0x000, false);
        cache.access(0x080, false);
        assert!(resident(&cache, 0x000) && resident(&cache, 0x080));
        assert!(!resident(&cache, 0x040));
        assert!(!resident(&cache, 0x0c0));
        assert_eq!(
            cache.hits() + cache.misses(),
            2,
            "reading residency counts nothing"
        );
    }

    #[test]
    fn geometry_is_derived_correctly() {
        let cache = SetAssocCache::new(32 * 1024, 4, 64).unwrap();
        assert_eq!(cache.num_sets(), 128);
        assert_eq!(cache.assoc(), 4);
        assert_eq!(cache.line_size(), 64);
        assert_eq!(cache.capacity(), 32 * 1024);
    }

    #[test]
    fn repeat_access_hits() {
        let mut cache = SetAssocCache::new(1024, 2, 64).unwrap();
        assert!(!cache.access(0x40, false));
        assert!(cache.access(0x40, false));
        assert!(cache.access(0x7f, false), "same line as 0x40");
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used_way() {
        // 2-way cache with 2 sets of 64-byte lines: 256 bytes total.
        let mut cache = SetAssocCache::new(256, 2, 64).unwrap();
        // Three distinct blocks mapping to set 0: block numbers 0, 2, 4.
        assert!(!cache.access(0x000, false)); // block 0 -> set 0
        assert!(!cache.access(0x080, false)); // block 2 -> set 0
        assert!(cache.access(0x000, false)); // touch block 0 so block 2 is LRU
        assert!(!cache.access(0x100, false)); // block 4 evicts block 2
        assert!(cache.access(0x000, false), "block 0 must still be resident");
        assert!(!cache.access(0x080, false), "block 2 was evicted");
    }

    #[test]
    fn working_set_larger_than_cache_always_misses_after_warmup() {
        let mut cache = SetAssocCache::new(1024, 1, 64).unwrap(); // 16 lines
                                                                  // Stream over 64 distinct lines twice: direct-mapped, every line is
                                                                  // evicted before reuse, so the second pass misses every time.
        for pass in 0..2 {
            for i in 0..64u64 {
                let hit = cache.access(i * 64, false);
                if pass == 1 {
                    assert!(!hit, "line {i} should have been evicted");
                }
            }
        }
    }

    #[test]
    fn working_set_smaller_than_cache_hits_after_warmup() {
        let mut cache = SetAssocCache::new(4096, 4, 64).unwrap(); // 64 lines
        for i in 0..32u64 {
            cache.access(i * 64, false);
        }
        for i in 0..32u64 {
            assert!(cache.access(i * 64, false), "line {i} should be resident");
        }
    }
}
