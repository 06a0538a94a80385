//! Property-based tests of the cache simulator: LRU laws and hierarchy
//! invariants under random traces.

use moat_cachesim::{Cache, CacheConfig, HierarchyConfig, MultiCoreHierarchy};
use proptest::prelude::*;

/// The textbook LRU set store the flat one must be indistinguishable from:
/// per set a list of `(line, dirty)`, most recently used first.
struct ListCache {
    sets: Vec<Vec<(u64, bool)>>,
    assoc: usize,
    writebacks: u64,
}

impl ListCache {
    /// `(hit, dirty victim's byte address)` of bringing `addr`'s line to the
    /// front of its set, installing it if absent.
    fn touch(&mut self, addr: u64, dirty: bool) -> (bool, Option<u64>) {
        let line = addr / 64;
        let sets = self.sets.len() as u64;
        let set = &mut self.sets[(line % sets) as usize];
        if let Some(p) = set.iter().position(|&(l, _)| l == line) {
            let (_, was_dirty) = set.remove(p);
            set.insert(0, (line, was_dirty || dirty));
            return (true, None);
        }
        let victim = (set.len() == self.assoc).then(|| set.pop()).flatten();
        set.insert(0, (line, dirty));
        let victim = victim.filter(|&(_, d)| d).map(|(l, _)| l * 64);
        self.writebacks += u64::from(victim.is_some());
        (false, victim)
    }
}

fn trace() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..16384, 1..400)
}

proptest! {
    /// The flat set store answers every operation — demand touches,
    /// write-backs from above, prefetch fills, probes — exactly as a list
    /// per set does, on power-of-two and odd set counts.
    #[test]
    fn flat_sets_match_list_sets(
        ops in prop::collection::vec((0u8..4, 0u64..8192, 0u8..2), 1..600),
        sets in 1u64..6,
        assoc in 1u32..5,
    ) {
        let mut flat = Cache::new(CacheConfig::new(sets * assoc as u64 * 64, assoc, 64));
        let mut list = ListCache {
            sets: vec![Vec::new(); sets as usize],
            assoc: assoc as usize,
            writebacks: 0,
        };
        for &(kind, addr, is_write) in &ops {
            let resident = list.sets[(addr / 64 % sets) as usize]
                .iter()
                .any(|&(l, _)| l == addr / 64);
            prop_assert_eq!(flat.contains(addr), resident);
            match kind {
                0 | 1 => prop_assert_eq!(
                    flat.touch_evicting(addr, is_write == 1),
                    list.touch(addr, is_write == 1)
                ),
                2 => prop_assert_eq!(flat.receive_writeback(addr), list.touch(addr, true).1),
                // A prefetch of a resident line changes nothing, LRU order
                // included.
                _ if resident => prop_assert_eq!(flat.receive_prefetch(addr), None),
                _ => prop_assert_eq!(flat.receive_prefetch(addr), list.touch(addr, false).1),
            }
        }
        prop_assert_eq!(flat.writebacks(), list.writebacks);
    }

    /// Misses never exceed accesses; replaying a trace whose working set
    /// fits produces only compulsory misses.
    #[test]
    fn miss_bounds(t in trace()) {
        let mut c = Cache::new(CacheConfig::new(4096, 4, 64));
        for &a in &t {
            c.access(a);
        }
        prop_assert!(c.misses() <= c.accesses());
        prop_assert_eq!(c.accesses(), t.len() as u64);
    }

    /// If the distinct lines of a trace fit the cache, a second pass over
    /// the same trace hits every access (LRU retains a fitting working
    /// set regardless of order) — checked with a fully associative
    /// configuration to avoid conflict artifacts.
    #[test]
    fn fitting_working_set_second_pass_hits(t in prop::collection::vec(0u64..(16 * 64), 1..200)) {
        // 16-line fully associative cache; addresses span exactly 16 lines.
        let mut c = Cache::new(CacheConfig::new(16 * 64, 16, 64));
        for &a in &t {
            c.access(a);
        }
        let cold_misses = c.misses();
        let mut distinct: Vec<u64> = t.iter().map(|a| a / 64).collect();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(cold_misses, distinct.len() as u64, "first pass: compulsory only");
        c.reset_stats();
        for &a in &t {
            prop_assert!(c.access(a), "second pass must hit");
        }
    }

    /// Doubling the capacity never increases the miss count (LRU inclusion
    /// property for fully associative caches).
    #[test]
    fn bigger_cache_never_worse(t in trace()) {
        let mut small = Cache::new(CacheConfig::new(8 * 64, 8, 64));
        let mut big = Cache::new(CacheConfig::new(16 * 64, 16, 64));
        for &a in &t {
            small.access(a);
            big.access(a);
        }
        prop_assert!(big.misses() <= small.misses());
    }

    /// Determinism: the same trace produces identical statistics.
    #[test]
    fn deterministic(t in trace()) {
        let run = |t: &[u64]| {
            let mut h = MultiCoreHierarchy::new(HierarchyConfig {
                private_levels: vec![CacheConfig::new(1024, 2, 64)],
                shared_level: CacheConfig::new(8192, 8, 64),
                cores_per_chip: 2,
                cores: 4,
            prefetch_depth: 0,
            });
            for (i, &a) in t.iter().enumerate() {
                h.access(i % 4, a);
            }
            (h.memory_accesses(), h.level_stats(0).misses, h.level_stats(1).misses)
        };
        prop_assert_eq!(run(&t), run(&t));
    }

    /// Hierarchy conservation: accesses reaching the shared level equal
    /// the private-level misses; memory accesses equal shared misses.
    #[test]
    fn hierarchy_flow_conservation(t in trace()) {
        let mut h = MultiCoreHierarchy::new(HierarchyConfig {
            private_levels: vec![CacheConfig::new(512, 2, 64), CacheConfig::new(2048, 4, 64)],
            shared_level: CacheConfig::new(16384, 8, 64),
            cores_per_chip: 4,
            cores: 4,
            prefetch_depth: 0,
        });
        for (i, &a) in t.iter().enumerate() {
            h.access(i % 4, a);
        }
        let l1 = h.level_stats(0);
        let l2 = h.level_stats(1);
        let l3 = h.level_stats(2);
        prop_assert_eq!(l1.accesses, t.len() as u64);
        prop_assert_eq!(l2.accesses, l1.misses);
        prop_assert_eq!(l3.accesses, l2.misses);
        prop_assert_eq!(h.memory_accesses(), l3.misses);
        prop_assert_eq!(h.memory_traffic_bytes(), l3.misses * 64);
    }
}
