//! A single set-associative cache level with LRU replacement.

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: u64,
    /// Associativity (ways per set).
    pub assoc: u32,
    /// Line size in bytes (power of two).
    pub line_size: u64,
}

impl CacheConfig {
    /// Create a configuration; panics on degenerate geometry.
    pub fn new(size: u64, assoc: u32, line_size: u64) -> Self {
        assert!(
            line_size.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(assoc >= 1);
        assert!(
            size >= assoc as u64 * line_size,
            "size too small for one set"
        );
        assert_eq!(
            size % (assoc as u64 * line_size),
            0,
            "size must be a multiple of assoc * line_size"
        );
        CacheConfig {
            size,
            assoc,
            line_size,
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.size / (self.assoc as u64 * self.line_size)
    }
}

/// A set-associative LRU cache with write-back/write-allocate semantics.
/// Tracks accesses, misses and dirty write-backs; no data is stored, only
/// line numbers and dirty bits. One bit of each slot holds the dirty flag,
/// so line numbers must stay below 2^63 − 1: any byte address below 2^63
/// with lines of two bytes or more.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// All sets in one array: set `s` is `slots[s * assoc..][..assoc]`,
    /// most recently used first, each slot `line << 1 | dirty` or
    /// [`EMPTY`]. Empty slots only ever sit at the tail of a set.
    slots: Vec<u64>,
    /// `log2(line_size)` — line size is a power of two by construction.
    line_shift: u32,
    num_sets: u64,
    /// `num_sets - 1` when the set count is a power of two (the common
    /// geometry); `None` falls back to modulo indexing.
    sets_mask: Option<u64>,
    accesses: u64,
    misses: u64,
    writebacks: u64,
}

/// An unoccupied slot; no admissible line encodes to it, dirty or clean.
const EMPTY: u64 = u64::MAX;

/// Free the MRU slot: slots `..p` each move one place toward the LRU end,
/// over slot `p`. A plain loop on purpose — sets are a handful of slots,
/// and the `memmove` call behind `copy_within` costs more than the moves.
#[inline]
fn age(set: &mut [u64], p: usize) {
    for k in (0..p).rev() {
        set[k + 1] = set[k];
    }
}

impl Cache {
    /// Create an empty cache.
    pub fn new(cfg: CacheConfig) -> Self {
        let num_sets = cfg.num_sets();
        Cache {
            cfg,
            slots: vec![EMPTY; (num_sets * cfg.assoc as u64) as usize],
            line_shift: cfg.line_size.trailing_zeros(),
            num_sets,
            sets_mask: num_sets.is_power_of_two().then(|| num_sets - 1),
            accesses: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// Geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Where `addr` lives: the slot range of its set and the slot value of
    /// its line when clean.
    #[inline]
    fn locate(&self, addr: u64) -> (std::ops::Range<usize>, u64) {
        let line = addr >> self.line_shift;
        debug_assert!(line < EMPTY >> 1, "byte address {addr:#x} out of range");
        let set = match self.sets_mask {
            Some(m) => line & m,
            None => line % self.num_sets,
        } as usize;
        let start = set * self.cfg.assoc as usize;
        (start..start + self.cfg.assoc as usize, line << 1)
    }

    /// Read the byte at `addr`. Returns `true` on hit. On miss the line is
    /// installed, evicting (and possibly writing back) the LRU line of its
    /// set if necessary.
    pub fn access(&mut self, addr: u64) -> bool {
        self.touch(addr, 1, false).0
    }

    /// Write the byte at `addr` (write-allocate): like [`access`](Self::access)
    /// but the line is marked dirty; a later eviction counts as a
    /// write-back.
    pub fn write(&mut self, addr: u64) -> bool {
        self.touch(addr, 1, true).0
    }

    /// `n` consecutive accesses to the line holding `addr`, `any_write` when
    /// at least one of them writes: the first may miss, the rest hit the
    /// line it leaves most recently used, so one lookup stands for all of
    /// them. Returns whether the first hit, and the byte address of a dirty
    /// line evicted to make room (to be written back to the next level), if
    /// any.
    #[inline(always)]
    pub fn touch(&mut self, addr: u64, n: u64, any_write: bool) -> (bool, Option<u64>) {
        self.accesses += n;
        let (hit, victim) = self.lookup(addr, any_write, true);
        self.misses += u64::from(!hit);
        (hit, victim)
    }

    /// The one lookup: whether `addr`'s line is resident. A resident line
    /// moves to the MRU slot of its set and takes `dirty`, unless not
    /// `promote` (a prefetch fill, which is clean and leaves a resident
    /// line where it is); an absent one is installed in the MRU slot,
    /// evicting the LRU line if the set is full. Returns the hit and the
    /// byte address of a dirty victim.
    #[inline(always)]
    fn lookup(&mut self, addr: u64, dirty: bool, promote: bool) -> (bool, Option<u64>) {
        let (range, clean) = self.locate(addr);
        let set = &mut self.slots[range];
        let dirty = u64::from(dirty);
        if set[0] & !1 == clean {
            set[0] |= dirty;
            return (true, None);
        }
        if let Some(p) = set.iter().position(|&s| s & !1 == clean) {
            if promote {
                let hit = set[p];
                age(set, p);
                set[0] = hit | dirty;
            }
            return (true, None);
        }
        let last = set.len() - 1;
        let victim = set[last];
        age(set, last);
        set[0] = clean | dirty;
        if victim == EMPTY || victim & 1 == 0 {
            return (false, None);
        }
        self.writebacks += 1;
        (false, Some(victim >> 1 << self.line_shift))
    }

    /// Account `n` guaranteed hits without simulating them — the streaming
    /// simulator's steady-state path. The caller must have established that
    /// the `n` accesses re-touch currently resident lines in a sequence
    /// whose LRU permutation is already a fixed point (the same sequence
    /// was just applied in full) and whose dirty bits are already set, so
    /// their only architectural effect is the hit count.
    pub fn credit_steady_hits(&mut self, n: u64) {
        self.accesses += n;
    }

    /// Receive a write-back from an upper (closer-to-core) level: mark the
    /// line dirty, installing it if absent. Does not count as an access or
    /// miss. Returns the address of a dirty line evicted to make room, if
    /// any (cascading write-back).
    pub fn receive_writeback(&mut self, addr: u64) -> Option<u64> {
        self.lookup(addr, true, true).1
    }

    /// Install the line holding `addr` as *clean*, without access/miss
    /// accounting (hardware prefetch). Returns the address of a dirty line
    /// evicted to make room, if any. No-op when the line is present, LRU
    /// order included.
    pub fn receive_prefetch(&mut self, addr: u64) -> Option<u64> {
        self.lookup(addr, false, false).1
    }

    /// Probe without updating state or counters.
    pub fn contains(&self, addr: u64) -> bool {
        let (range, clean) = self.locate(addr);
        self.slots[range].iter().any(|&s| s & !1 == clean)
    }

    /// Dirty lines written back to the next level so far.
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Total accesses so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss ratio (0 if no accesses).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Reset counters (keeps cache contents).
    pub fn reset_stats(&mut self) {
        self.accesses = 0;
        self.misses = 0;
        self.writebacks = 0;
    }

    /// Drop all cached lines and counters.
    pub fn flush(&mut self) {
        self.slots.fill(EMPTY);
        self.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets × 2 ways × 64 B lines = 512 B.
        Cache::new(CacheConfig::new(512, 2, 64))
    }

    #[test]
    fn geometry() {
        let c = tiny();
        assert_eq!(c.config().num_sets(), 4);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_panics() {
        CacheConfig::new(512, 2, 48);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(63)); // same line
        assert!(!c.access(64)); // next line
        assert_eq!(c.accesses(), 4);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Three lines mapping to set 0: lines 0, 4, 8 (4 sets).
        let (a, b, d) = (0u64, 4 * 64, 8 * 64);
        c.access(a); // set0: [a]
        c.access(b); // set0: [b, a]
        c.access(a); // set0: [a, b]
        c.access(d); // evicts b (LRU)
        assert!(c.contains(a));
        assert!(!c.contains(b));
        assert!(c.contains(d));
    }

    #[test]
    fn working_set_fits_no_capacity_misses() {
        let mut c = tiny();
        // 8 lines = full capacity, uniformly mapped (2 per set).
        for rep in 0..10 {
            for line in 0..8u64 {
                let hit = c.access(line * 64);
                if rep > 0 {
                    assert!(hit, "line {line} must hit on repetition {rep}");
                }
            }
        }
        assert_eq!(c.misses(), 8);
    }

    #[test]
    fn working_set_exceeds_capacity_thrashes() {
        let mut c = tiny();
        // 12 lines cycled through a 8-line cache with LRU → every access
        // misses (classic LRU worst case).
        for _ in 0..5 {
            for line in 0..12u64 {
                c.access(line * 64);
            }
        }
        assert_eq!(c.misses(), c.accesses());
    }

    #[test]
    fn writebacks_counted_on_dirty_eviction() {
        let mut c = tiny();
        // Set 0 holds lines 0, 4, 8 (4 sets, 2 ways).
        let (a, b, d) = (0u64, 4 * 64, 8 * 64);
        c.write(a); // dirty
        c.access(b); // clean
        c.access(d); // evicts a (LRU, dirty) → write-back
        assert_eq!(c.writebacks(), 1);
        c.access(a); // evicts b (clean) → no write-back
        assert_eq!(c.writebacks(), 1);
    }

    #[test]
    fn rewrite_keeps_line_dirty_once() {
        let mut c = tiny();
        c.write(0);
        c.write(0);
        c.write(0);
        // Fill set 0 and evict it once.
        c.access(4 * 64);
        c.access(8 * 64);
        assert_eq!(c.writebacks(), 1, "one dirty line → one write-back");
    }

    #[test]
    fn non_pow2_set_count_indexes_correctly() {
        // 3 sets × 2 ways: exercises the div/mod fallback path.
        let mut c = Cache::new(CacheConfig::new(3 * 2 * 64, 2, 64));
        assert_eq!(c.config().num_sets(), 3);
        for line in 0..6u64 {
            c.access(line * 64);
        }
        assert_eq!(c.misses(), 6);
        for line in 0..6u64 {
            assert!(c.access(line * 64), "line {line} must still be cached");
        }
        // Dirty eviction must reconstruct the correct victim address.
        c.write(0);
        c.access(3 * 64); // set 0 again
        let (_, evicted) = c.touch(6 * 64, 1, false); // evicts LRU of set 0
        assert_eq!(evicted, Some(0), "victim address must round-trip");
    }

    #[test]
    fn touch_of_n_matches_individual_accesses() {
        // Reference: three element accesses to the same line, one a write.
        let mut a = tiny();
        a.access(0);
        a.access(8);
        a.write(16);
        // Coalesced: one touch standing for all three.
        let mut b = tiny();
        b.touch(0, 3, true);
        assert_eq!(a.accesses(), b.accesses());
        assert_eq!(a.misses(), b.misses());
        // Both must write the dirty line back on eviction.
        for c in [&mut a, &mut b] {
            c.access(4 * 64);
            c.access(8 * 64);
            assert_eq!(c.writebacks(), 1);
        }
    }

    #[test]
    fn flush_and_reset() {
        let mut c = tiny();
        c.access(0);
        c.reset_stats();
        assert_eq!(c.accesses(), 0);
        assert!(c.contains(0));
        c.flush();
        assert!(!c.contains(0));
        assert_eq!(c.miss_ratio(), 0.0);
    }
}
